//! Golden test for the telemetry run report: the deterministic subset of
//! the JSON sink ([`TelemetryReport::deterministic_json`]) is pinned for
//! one corpus design, and the Chrome trace sink is structurally validated
//! (balanced begin/end pairs, per-track monotone timestamps).
//!
//! The golden covers exactly the fields the telemetry contract promises
//! are run-to-run and thread-count invariant: verdict counts, per-phase
//! span counts, the counter registry and model/slice gate totals.
//! Durations, worker ids and gauges live in the `"timing"` section of the
//! full report and are deliberately absent here.
//!
//! [`TelemetryReport::deterministic_json`]: autosva_formal::telemetry::TelemetryReport::deterministic_json

use autosva_bench::{build_testbench, default_check_options};
use autosva_designs::{by_id, Variant};
use autosva_formal::checker::{verify, CheckOptions, VerificationReport};
use autosva_formal::portfolio::ProofCache;
use autosva_formal::telemetry::validate_chrome_trace;

const GOLDEN: &str = include_str!("../crates/designs/golden/telemetry_A1.json");

/// Runs corpus case A1 (fixed variant) through the full front end and
/// cascade with telemetry enabled.  Going through [`verify`] rather than
/// the pre-elaborated entry point puts the `parse` and `elab` phases in
/// the report, so the golden pins the whole pipeline taxonomy.
fn a1_run(threads: usize) -> VerificationReport {
    let case = by_id("A1").expect("corpus case A1 exists");
    let ft = build_testbench(&case);
    let mut options: CheckOptions = default_check_options(&case, Variant::Fixed);
    options.parallel.threads = threads;
    options.telemetry.enabled = true;
    verify(case.source, &ft, &options).expect("A1 verifies")
}

#[test]
fn deterministic_subset_matches_the_golden() {
    let report = a1_run(1);
    let telemetry = report.telemetry.as_ref().expect("telemetry attached");
    assert_eq!(
        telemetry.deterministic_json(),
        GOLDEN,
        "deterministic telemetry subset for A1 drifted from \
         crates/designs/golden/telemetry_A1.json; regenerate the golden \
         (see regenerate_golden below) if the change is intentional"
    );
}

#[test]
fn deterministic_subset_is_fresh_run_and_thread_count_invariant() {
    let sequential_a = a1_run(1);
    let sequential_b = a1_run(1);
    let parallel = a1_run(4);
    let json = |r: &VerificationReport| r.telemetry.as_ref().unwrap().deterministic_json();
    assert_eq!(
        json(&sequential_a),
        json(&sequential_b),
        "two fresh sequential runs must agree byte-for-byte"
    );
    assert_eq!(
        json(&sequential_a),
        json(&parallel),
        "thread count must not change the deterministic subset"
    );
}

#[test]
fn chrome_trace_is_structurally_valid_and_full_json_embeds_the_subset() {
    let report = a1_run(4);
    let telemetry = report.telemetry.as_ref().expect("telemetry attached");

    let trace = telemetry.to_chrome_trace();
    let summary = validate_chrome_trace(&trace)
        .unwrap_or_else(|e| panic!("A1 Chrome trace failed structural validation: {e}"));
    assert_eq!(
        summary.spans,
        telemetry.spans.len(),
        "every recorded span must appear as a balanced B/E pair"
    );
    assert!(summary.tracks >= 1, "at least the orchestrator track");

    let full = telemetry.to_json();
    assert!(
        full.starts_with("{\n\"schema\": \"autosva-telemetry v1\","),
        "full report must lead with the schema marker"
    );
    assert!(
        full.contains(telemetry.deterministic_json().trim_end()),
        "full report must embed the deterministic subset verbatim"
    );
}

#[test]
fn file_sinks_write_both_documents() {
    let dir = std::env::temp_dir().join(format!("autosva-telemetry-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create sink dir");
    let trace_path = dir.join("a1.trace.json");
    let json_path = dir.join("a1.telemetry.json");

    let case = by_id("A1").expect("corpus case A1 exists");
    let ft = build_testbench(&case);
    let mut options: CheckOptions = default_check_options(&case, Variant::Fixed);
    options.parallel.threads = 2;
    options.telemetry.enabled = true;
    options.telemetry.trace_path = Some(trace_path.clone());
    options.telemetry.json_path = Some(json_path.clone());
    let report = verify(case.source, &ft, &options).expect("A1 verifies");
    let telemetry = report.telemetry.as_ref().expect("telemetry attached");

    let trace = std::fs::read_to_string(&trace_path).expect("trace sink written");
    assert_eq!(trace, telemetry.to_chrome_trace());
    validate_chrome_trace(&trace).expect("written trace validates");

    let json = std::fs::read_to_string(&json_path).expect("json sink written");
    assert_eq!(json, telemetry.to_json());
    assert!(
        json.contains(GOLDEN.trim_end()),
        "sink carries the golden subset"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `decided.<stage>` counters attribute every checked row to the stage
/// that decided it, and `undecided.<stage>.conflicts` add up what the
/// stages that decided nothing spent, as the rows' `stages:` lists say —
/// in a cold run and in a warm one, which the cache decides alone.
#[test]
fn stage_counters_add_up_to_the_checked_rows() {
    let case = by_id("A1").expect("corpus case A1 exists");
    let ft = build_testbench(&case);
    let mut options: CheckOptions = default_check_options(&case, Variant::Fixed);
    options.telemetry.enabled = true;
    options.parallel.cache = Some(ProofCache::new());
    for pass in ["cold", "warm"] {
        let report = verify(case.source, &ft, &options).expect("A1 verifies");
        let telemetry = report.telemetry.as_ref().expect("telemetry attached");
        let counter = |name: String| telemetry.counter(&name).unwrap_or(0);
        let mut decided = 0;
        for stage in ["cache", "fuzz", "bmc", "pdr", "explicit"] {
            let rows = report.checked().filter(|r| r.engine == Some(stage));
            let decided_here = counter(format!("decided.{stage}"));
            assert_eq!(decided_here, rows.count() as u64, "{pass}: {stage}");
            decided += decided_here;
            let undecided: u64 = report
                .checked()
                .flat_map(|r| &r.stages[..r.stages.len() - usize::from(r.engine.is_some())])
                .filter(|spend| spend.engine == stage)
                .map(|spend| spend.conflicts)
                .sum();
            let counted = counter(format!("undecided.{stage}.conflicts"));
            assert_eq!(counted, undecided, "{pass}: {stage}");
        }
        assert_eq!(decided, report.checked().count() as u64, "{pass}");
    }
    let warm = verify(case.source, &ft, &options).expect("A1 verifies");
    let telemetry = warm.telemetry.as_ref().expect("telemetry attached");
    assert_eq!(
        telemetry.counter("decided.cache"),
        Some(warm.checked().count() as u64)
    );
}

/// Regenerates `crates/designs/golden/telemetry_A1.json` in place.  Run
/// after an intentional taxonomy or counter change:
///
/// ```sh
/// cargo test --release --test telemetry_golden -- --ignored regenerate_golden
/// ```
#[test]
#[ignore = "writes the golden file; run explicitly to regenerate"]
fn regenerate_golden() {
    let report = a1_run(1);
    let telemetry = report.telemetry.as_ref().expect("telemetry attached");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/designs/golden/telemetry_A1.json"
    );
    std::fs::write(path, telemetry.deterministic_json()).expect("write golden");
}
