//! Differential fault-containment tests for the interrupt/budget subsystem
//! and the panic-isolation layer (see [`crate::interrupt`] and
//! [`crate::faults`]).
//!
//! Every test here follows the same contract: run a testbench fault-free,
//! run it again with exactly one fault injected (a panic, a spurious timeout,
//! or a delay at a named engine site), and assert that
//!
//! * the run still returns a complete report (no unwinding past `verify`),
//! * only the targeted property degrades (`Error` for a panic, `Unknown`
//!   with a budget note for a timeout, nothing at all for a delay), and
//! * every other property's rendered verdict is byte-identical to the
//!   fault-free run, at worker counts 1 and 4.
//!
//! Faults are per run: a test lists them in [`CheckOptions::faults`], and
//! only that run's task for the named property sees them.  So the tests
//! here run in parallel with each other and with the rest of the suite,
//! and [`concurrent_runs_share_no_faults`] checks that a faulted run and a
//! fault-free run of the same design, in flight together, stay apart.

use crate::bmc::{check_target_budgeted, BmcOptions};
use crate::checker::{verify, CheckOptions, PropertyResult, PropertyStatus, VerificationReport};
use crate::compile::compile;
use crate::elab::{elaborate, ElabOptions};
use crate::faults::{Fault, FaultAction};
use crate::interrupt::{Interrupt, InterruptReason};
use crate::sat::{SolverConfig, INTERRUPT_POLL_INTERVAL};
use autosva::sva::Directive;
use autosva::{generate_ft, AutosvaOptions, PropertyClass};
use proptest::prelude::*;
use std::sync::{Barrier, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A well-behaved single-outstanding echo DUT for the fault tests.
const FAULT_ECHO: &str = r#"
/*AUTOSVA
rbt_txn: req -in> res
req_val = req_val
req_ack = req_ack
[1:0] req_transid = req_id
res_val = res_val
[1:0] res_transid = res_id
*/
module rbt_echo (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic req_val,
  output logic req_ack,
  input  logic [1:0] req_id,
  output logic res_val,
  output logic [1:0] res_id
);
  logic busy_q;
  logic [1:0] id_q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      busy_q <= 1'b0;
      id_q <= 2'b0;
    end else begin
      if (req_val && req_ack) begin
        busy_q <= 1'b1;
        id_q <= req_id;
      end else if (busy_q) begin
        busy_q <= 1'b0;
      end
    end
  end
  assign req_ack = !busy_q;
  assign res_val = busy_q;
  assign res_id = id_q;
endmodule
"#;

fn run_with(options: &CheckOptions) -> VerificationReport {
    let ft = generate_ft(FAULT_ECHO, &AutosvaOptions::default()).unwrap();
    verify(FAULT_ECHO, &ft, options).unwrap()
}

fn options_with_threads(threads: usize) -> CheckOptions {
    let mut options = CheckOptions::default();
    options.parallel.threads = threads;
    options
}

/// `options` with one fault: `action` at `site` in `target`'s task.
fn with_fault(
    options: &CheckOptions,
    site: &'static str,
    action: FaultAction,
    target: &str,
) -> CheckOptions {
    let fault = Fault {
        site,
        action,
        property: target.to_string(),
    };
    CheckOptions {
        faults: vec![fault],
        ..options.clone()
    }
}

/// The first safety assertion of the report — every engine scenario
/// routes this property through the engine under test.
fn first_safety_assertion(report: &VerificationReport) -> String {
    report
        .results
        .iter()
        .find(|r| r.directive == Directive::Assert && r.class == PropertyClass::Safety)
        .expect("design has a safety assertion")
        .name
        .clone()
}

/// Exactly the per-property content [`VerificationReport::render`] emits:
/// status, proof artifact, cone sizes and note.  Comparing this string is
/// comparing the property's rendered verdict byte-for-byte.
fn rendered_verdict(r: &PropertyResult) -> String {
    let mut s = r.status.to_string();
    if let PropertyStatus::Proven(proof) = &r.status {
        s.push_str(&format!(" [{}]", proof.describe()));
    }
    if !matches!(r.status, PropertyStatus::NotChecked(_)) {
        s.push_str(&format!(
            " (cone {} latches, {} gates)",
            r.slice_latches, r.slice_gates
        ));
    }
    if let Some(note) = &r.note {
        s.push_str(&format!(" note: {note}"));
    }
    s
}

/// Asserts the degradation contract: same properties in the same order,
/// and every row except `target` rendered byte-identically.
fn assert_only_target_degraded(
    baseline: &VerificationReport,
    faulty: &VerificationReport,
    target: &str,
) {
    assert_eq!(
        baseline.results.len(),
        faulty.results.len(),
        "fault changed the number of report rows"
    );
    for (b, f) in baseline.results.iter().zip(&faulty.results) {
        assert_eq!(b.name, f.name, "fault changed the property order");
        if b.name == target {
            continue;
        }
        assert_eq!(
            rendered_verdict(b),
            rendered_verdict(f),
            "fault leaked into non-target property `{}`",
            b.name
        );
    }
}

/// One per-engine scenario: the fault site, the engine tag the degraded
/// row must carry, and options steering the target property into that
/// engine (the cascade stops at the first engine that decides a
/// property, so later stages need the earlier ones disabled).
fn engine_scenarios() -> Vec<(&'static str, &'static str, CheckOptions)> {
    let pdr_options = CheckOptions {
        disable_bmc: true,
        ..CheckOptions::default()
    };
    let explicit_options = CheckOptions {
        disable_bmc: true,
        disable_pdr: true,
        ..CheckOptions::default()
    };
    vec![
        ("fuzz.round", "fuzz", CheckOptions::default()),
        ("bmc.depth_step", "bmc", CheckOptions::default()),
        ("pdr.block_cube", "pdr", pdr_options),
        ("explicit.step", "explicit", explicit_options),
    ]
}

/// A panic in each engine, and one while the task prepares its cone,
/// which reads as an error in the task.
#[test]
fn injected_panic_in_each_engine_degrades_only_the_target_property() {
    let prepare = ("prepare", "task", CheckOptions::default());
    for (site, engine, base_options) in engine_scenarios().into_iter().chain([prepare]) {
        for threads in [1usize, 4] {
            let mut options = base_options.clone();
            options.parallel.threads = threads;
            options.telemetry.enabled = true;
            let baseline = run_with(&options);
            let target = first_safety_assertion(&baseline);
            let faulty = run_with(&with_fault(&options, site, FaultAction::Panic, &target));
            let row = faulty
                .results
                .iter()
                .find(|r| r.name == target)
                .expect("target row present");
            match &row.status {
                PropertyStatus::Error { engine: e, message } => {
                    assert_eq!(*e, engine, "wrong engine tag for site {site}");
                    assert_eq!(message, &format!("fault injected at {site}"));
                }
                other => panic!(
                    "site {site} (threads {threads}): target did not degrade to Error: {other}"
                ),
            }
            assert_only_target_degraded(&baseline, &faulty, &target);
            let text = faulty.render();
            assert!(
                text.contains(&format!("ERROR in {engine}: fault injected at {site}")),
                "report does not surface the contained panic:\n{text}"
            );
            let telemetry = faulty.telemetry.as_ref().expect("telemetry enabled");
            let caught: u64 = telemetry
                .counters
                .iter()
                .filter(|(name, _)| *name == "robustness.panics_caught")
                .map(|(_, v)| v)
                .sum();
            assert_eq!(caught, 1, "exactly one contained panic for site {site}");
        }
    }
}

#[test]
fn injected_spurious_timeout_degrades_only_the_target_property() {
    for threads in [1usize, 4] {
        let options = options_with_threads(threads);
        let baseline = run_with(&options);
        let target = first_safety_assertion(&baseline);
        let faulty = run_with(&with_fault(
            &options,
            "bmc.depth_step",
            FaultAction::Timeout,
            &target,
        ));
        let row = faulty
            .results
            .iter()
            .find(|r| r.name == target)
            .expect("target row present");
        assert_eq!(
            row.status,
            PropertyStatus::Unknown,
            "spurious timeout must degrade the target to Unknown (threads {threads})"
        );
        assert_eq!(
            row.note.as_deref(),
            Some("undecided: budget exhausted in bmc"),
            "budget note names the interrupted engine"
        );
        assert_only_target_degraded(&baseline, &faulty, &target);
    }
}

/// Two runs of the same design start together: one lists a panic at
/// `bmc.depth_step` on the first safety assertion, the other lists no
/// fault.  The fault-free run renders like a baseline run, and the faulted
/// run differs from it only in its one `Error` row.
#[test]
fn concurrent_runs_share_no_faults() {
    for threads in [1usize, 4] {
        let options = options_with_threads(threads);
        let baseline = run_with(&options);
        let target = first_safety_assertion(&baseline);
        let faulted = with_fault(&options, "bmc.depth_step", FaultAction::Panic, &target);
        let start = Barrier::new(2);
        let run = |options: &CheckOptions| {
            start.wait();
            run_with(options)
        };
        let (faulty, clean) = std::thread::scope(|scope| {
            let faulty = scope.spawn(|| run(&faulted));
            let clean = scope.spawn(|| run(&options));
            (faulty.join().unwrap(), clean.join().unwrap())
        });
        assert_eq!(
            clean.render(),
            baseline.render(),
            "the fault leaked into the fault-free run (threads {threads})"
        );
        let row = faulty
            .results
            .iter()
            .find(|r| r.name == target)
            .expect("target row present");
        assert!(
            matches!(&row.status, PropertyStatus::Error { engine: "bmc", .. }),
            "threads {threads}: target did not degrade to Error: {}",
            row.status
        );
        assert_only_target_degraded(&baseline, &faulty, &target);
    }
}

proptest! {
    /// Differential contract over the whole fault space: any single
    /// injected fault — any engine site, any action, any worker count —
    /// yields a complete report where only the targeted property may
    /// degrade (and a pure delay degrades nothing).
    ///
    /// The sampled domain is small (4 sites x 3 actions x 2 worker
    /// counts), so repeated draws are deduplicated and the fault-free
    /// baseline is computed once per (site, workers) pair — the 64
    /// deterministic proptest cases effectively sweep the whole space
    /// without re-verifying it dozens of times.
    #[test]
    fn any_single_fault_degrades_at_most_the_target(
        scenario_idx in 0usize..4,
        action_idx in 0usize..3,
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        use std::collections::{HashMap, HashSet};
        use std::sync::OnceLock;
        static SEEN: OnceLock<Mutex<HashSet<(usize, usize, usize)>>> = OnceLock::new();
        static BASELINES: OnceLock<Mutex<HashMap<(usize, usize), VerificationReport>>> =
            OnceLock::new();
        let fresh = SEEN
            .get_or_init(|| Mutex::new(HashSet::new()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((scenario_idx, action_idx, threads));
        if fresh {
            let (site, engine, base_options) = engine_scenarios().swap_remove(scenario_idx);
            let mut options = base_options;
            options.parallel.threads = threads;
            let baseline = BASELINES
                .get_or_init(|| Mutex::new(HashMap::new()))
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry((scenario_idx, threads))
                .or_insert_with(|| run_with(&options))
                .clone();
            let target = first_safety_assertion(&baseline);
            let action = match action_idx {
                0 => FaultAction::Panic,
                1 => FaultAction::Timeout,
                _ => FaultAction::Delay(Duration::from_millis(2)),
            };
            let faulty = run_with(&with_fault(&options, site, action, &target));
            assert_only_target_degraded(&baseline, &faulty, &target);
            let row = faulty
                .results
                .iter()
                .find(|r| r.name == target)
                .expect("target row present");
            let base_row = baseline
                .results
                .iter()
                .find(|r| r.name == target)
                .expect("target row present in baseline");
            match action_idx {
                0 => prop_assert!(
                    matches!(&row.status, PropertyStatus::Error { engine: e, .. } if *e == engine),
                    "panic at {site} must yield Error in {engine}, got {}",
                    row.status
                ),
                1 => {
                    prop_assert_eq!(&row.status, &PropertyStatus::Unknown);
                    prop_assert_eq!(
                        row.note.as_deref(),
                        Some(format!("undecided: budget exhausted in {engine}").as_str())
                    );
                }
                _ => prop_assert_eq!(
                    rendered_verdict(row),
                    rendered_verdict(base_row),
                    "a pure delay must not change any verdict"
                ),
            }
        }
    }
}

#[test]
fn zero_timeout_reports_budget_unknown_for_every_checked_property() {
    let mut renders = Vec::new();
    for threads in [1usize, 4] {
        let mut options = options_with_threads(threads);
        options.parallel.property_timeout = Some(Duration::ZERO);
        let report = run_with(&options);
        for r in report.checked() {
            assert_eq!(
                r.status,
                PropertyStatus::Unknown,
                "property {} decided despite a zero budget (threads {threads})",
                r.name
            );
            let note = r.note.as_deref().unwrap_or("");
            assert!(
                note.starts_with("undecided: budget exhausted in "),
                "property {} lacks the budget note (threads {threads}): {note:?}",
                r.name
            );
        }
        renders.push(report.render());
    }
    assert_eq!(
        renders[0], renders[1],
        "zero-budget reports must render identically at 1 and 4 workers"
    );
}

#[test]
fn generous_timeout_renders_identically_to_unbounded() {
    for threads in [1usize, 4] {
        let unbounded = run_with(&options_with_threads(threads));
        let mut options = options_with_threads(threads);
        options.parallel.property_timeout = Some(Duration::from_secs(3600));
        let bounded = run_with(&options);
        assert_eq!(
            unbounded.render(),
            bounded.render(),
            "a generous budget must not perturb the report (threads {threads})"
        );
    }
}

/// End to end, a 50 ms property budget on a BMC stage that overruns it
/// comes back `Unknown` with a note naming the engine.  The promptness
/// contract itself is asserted on the deterministic step budget below; the
/// wall clock here is only a loose sanity bound (10x the budget) that
/// machine load alone should not break.
#[test]
fn hard_bmc_instance_times_out_promptly_with_an_engine_note() {
    let timeout = Duration::from_millis(50);
    let mut options = CheckOptions {
        disable_pdr: true,
        disable_explicit: true,
        ..CheckOptions::default()
    };
    options.fuzz.enabled = false;
    options.parallel.threads = 1;
    options.parallel.property_timeout = Some(timeout);
    let target = first_safety_assertion(&run_with(&options));
    // Fuzzing is off, so BMC is the target's first stage, and its first
    // depth step stalls past the budget: only the budget can stop it.
    let stall = FaultAction::Delay(2 * timeout);
    let report = run_with(&with_fault(&options, "bmc.depth_step", stall, &target));
    let budgeted: Vec<&PropertyResult> = report
        .results
        .iter()
        .filter(|r| r.note.as_deref() == Some("undecided: budget exhausted in bmc"))
        .collect();
    assert!(
        budgeted.iter().any(|r| r.name == target),
        "{target} did not hit the bmc budget:\n{}",
        report.render()
    );
    for r in budgeted {
        assert_eq!(r.status, PropertyStatus::Unknown);
        assert!(
            r.runtime <= 10 * timeout,
            "property {} overshot its {timeout:?} budget: ran {:?}",
            r.name,
            r.runtime
        );
    }
}

/// The timeout contract on the deterministic step budget: a BMC run that
/// never decides by itself (unbounded depth, no induction) stops on its
/// conflict budget, reports the budget as the reason, and overshoots it by
/// less than one solver poll interval — whatever the machine's load.
#[test]
fn step_budget_stops_bmc_within_one_solver_poll_interval() {
    let ft = generate_ft(FAULT_ECHO, &AutosvaOptions::default()).unwrap();
    let file = svparse::parse(FAULT_ECHO).unwrap();
    let design = elaborate(&file, &ElabOptions::default()).unwrap();
    let model = compile(&design, &ft).unwrap().model;
    let bad = model
        .bads
        .iter()
        .find(|b| b.name.contains("had_a_request"))
        .expect("the echo design has a had-a-request assertion");
    let options = BmcOptions {
        max_depth: 1_000_000,
        max_induction: 0,
    };
    for budget in [500, 3_000] {
        // The far deadline only turns a broken budget into a failure
        // instead of a hang; the reason check below rejects it.
        let backstop = Instant::now().checked_add(Duration::from_secs(120));
        let interrupt = Interrupt::new(backstop, Some(budget));
        let (verdict, stats) = check_target_budgeted(
            &model,
            bad.lit,
            &bad.name,
            &options,
            SolverConfig::default(),
            &interrupt,
        );
        assert_eq!(verdict, None);
        assert_eq!(interrupt.triggered(), Some(InterruptReason::Budget));
        assert!(
            (budget..budget + INTERRUPT_POLL_INTERVAL).contains(&stats.conflicts),
            "budget {budget}: the solver stopped after {} conflicts",
            stats.conflicts
        );
    }
}

/// The front-end deadline (parse/elaborate/compile/lint) fails the run
/// with a phase-naming error instead of hanging, while a generous budget
/// changes nothing about the report.
#[test]
fn frontend_deadline_fails_fast_and_a_generous_one_is_invisible() {
    let ft = generate_ft(FAULT_ECHO, &AutosvaOptions::default()).unwrap();
    let mut options = CheckOptions::default();
    options.parallel.threads = 1;
    options.frontend_timeout = Some(Duration::ZERO);
    let err = verify(FAULT_ECHO, &ft, &options).expect_err("zero front-end budget must fail");
    let message = err.to_string();
    assert!(
        message.contains("front-end deadline exceeded during"),
        "error does not name the front-end phase: {message}"
    );

    let unbudgeted = run_with(&options_with_threads(1));
    options.frontend_timeout = Some(Duration::from_secs(3600));
    let budgeted = verify(FAULT_ECHO, &ft, &options).unwrap();
    assert_eq!(
        unbudgeted.render(),
        budgeted.render(),
        "a generous front-end budget must not perturb the report"
    );
}
