//! Top-level verification driver.
//!
//! [`verify`] runs an AutoSVA-generated formal testbench against its DUT: it
//! elaborates the RTL, compiles the testbench into a [`crate::model::Model`],
//! checks every property through the engine cascade, and collects
//! everything into a [`VerificationReport`] that mirrors how the paper
//! reports results (proof rate, counterexamples, trace lengths, runtimes).
//!
//! Every checked property — safety assertion, cover, or liveness
//! obligation on its liveness-to-safety product — asks one question: can
//! its target literal be reached?  One loop walks one stage list to answer
//! it, stopping at the first stage that decides:
//!
//! 1. **cache** — a verdict the proof cache stored for a content-identical
//!    cone, returned only after its artifact passed its check;
//! 2. **fuzz** — the bit-parallel stimulus fuzzer (safety only);
//! 3. **quick BMC** — shallow BMC for short counterexamples plus
//!    k-induction for cheap proofs;
//! 4. **PDR** — IC3/PDR for reachability-dependent proofs, with an
//!    inductive-invariant certificate;
//! 5. **explicit** — the exact explicit-state engine, one breadth-first
//!    search per property;
//! 6. **full-depth BMC** — BMC and k-induction to the configured bounds.
//!
//! Every stage answers with the same crate-private verdict: reached, with a
//! trace, or unreachable, with a certificate (an induction depth, a PDR
//! invariant or explicit reachability).  The proof cache stores and
//! re-checks that verdict, and one conversion turns it into the report's
//! [`PropertyStatus`].  The stage that decides a property is its provenance
//! ([`PropertyResult::engine`]).
//!
//! Properties are independent tasks: by default each one is checked on its
//! own cone-of-influence slice ([`crate::coi`]) and the tasks run
//! concurrently on a worker pool ([`crate::portfolio`]), with results
//! assembled back in annotation order — a sequential run
//! (`parallel.threads = 1`) and a parallel run render byte-identical
//! reports.  Tasks share nothing but the optional
//! [`crate::portfolio::ProofCache`], which reuses verdicts across runs with
//! the same engine options when a property's slice is content-identical
//! (e.g. buggy/fixed design variants or repeated bench iterations), and
//! lets opt-on runs reuse each other's optimized slices.

use crate::aig::Lit;
use crate::bmc::{check_target_budgeted, BmcOptions, SafetyResult};
use crate::coi::{cone_of_influence, fingerprint, Fingerprint, Fnv2, SliceTarget};
use crate::compile::{compile, CompiledKind, CompiledTestbench};
use crate::elab::{elaborate_budgeted, ElabDesign, ElabOptions, Result};
use crate::explicit::{self, ExplicitOptions, ExplicitResult};
use crate::fuzz::{fuzz_safety_budgeted, FuzzOptions, FuzzStats};
use crate::interrupt::{Interrupt, InterruptReason};
use crate::lint::{LintOptions, LintReport};
use crate::model::Model;
use crate::pdr::{check_pdr_budgeted, PdrOptions, PdrResult};
use crate::portfolio::{
    run_ordered, CacheKey, CacheStats, Certificate, ParallelOptions, PreparedSlice, ProofCache,
    Verdict,
};
use crate::sat::{SolverConfig, SolverStats};
use crate::telemetry::{
    self, RunSummary, Telemetry, TelemetryOptions, TelemetryReport, VerdictCounts,
};
use crate::trace::Trace;
use crate::vcd::VcdOptions;
use autosva::sva::{Directive, PropertyClass};
use autosva::FormalTestbench;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svparse::ast::SourceFile;

/// Options for a verification run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Elaboration options (top module, parameter overrides, clock/reset).
    pub elab: ElabOptions,
    /// Bounds used for safety and cover checking.
    pub bmc: BmcOptions,
    /// Bounds used for the liveness-to-safety checks (these models are
    /// larger, so the bounds may be set lower).
    pub liveness_bmc: BmcOptions,
    /// Disable the explicit-state fallback entirely (used by the
    /// bounded-engine and fuzz-alone rows of the contract suite).
    pub disable_explicit: bool,
    /// Disable the PDR stage entirely (used by the bounded-engine and
    /// fuzz-alone rows of the contract suite).
    pub disable_pdr: bool,
    /// Disable every BMC stage (quick and full-depth) of the cascade.  Used
    /// by the fuzz-alone row of the contract suite; also
    /// skips the SAT re-minimization of fuzzer-found counterexamples.
    pub disable_bmc: bool,
    /// The pre-cascade stimulus fuzzer: bit-parallel simulation of every
    /// safety property's slice, hunting shallow bugs before any SAT query.
    /// Confirmed hits are re-minimized by a depth-bounded BMC call (unless
    /// `disable_bmc`), so the reported trace — and therefore
    /// [`VerificationReport::render`] — is byte-identical with the fuzz
    /// stage on or off, for any seed.
    pub fuzz: FuzzOptions,
    /// Waveform output: when a directory is set, every counterexample and
    /// witness trace — fuzzer-found and SAT-found — is written there as a
    /// VCD file named by [`crate::vcd::file_name`].
    pub vcd: VcdOptions,
    /// Orchestration: worker-thread count (`threads = 1` is the sequential
    /// escape hatch), per-property cone-of-influence slicing, optional
    /// per-property time budgets, and the proof cache.  A cache opened with
    /// [`ProofCache::open`] spills its verdicts to disk after every run, so
    /// a later process that opens the same directory reuses them.
    pub parallel: ParallelOptions,
    /// SAT search-loop feature toggles, shared by every engine stage (the
    /// contract suite flips them; the defaults enable everything).
    pub solver: SolverConfig,
    /// Design-lint configuration (level and deny-warnings).  The lint runs
    /// between compilation and the engine cascade; error-severity findings
    /// fail the run before any engine starts.
    pub lint: LintOptions,
    /// Observability: structured spans, the counter/gauge registry and the
    /// trace/JSON sinks.  Default off — no collector is allocated and every
    /// probe is a thread-local no-op.  [`VerificationReport::render`] is
    /// byte-identical with telemetry on or off.
    pub telemetry: TelemetryOptions,
    /// Wall-clock budget for the *front end* (parse, elaboration,
    /// compilation, lint).  The engine cascade has per-property deadlines
    /// ([`ParallelOptions::property_timeout`]), but before this budget
    /// existed a pathological design could stall the run *before* any
    /// engine — and any deadline — was reached.  The budget is checked
    /// between the front-end phases and inside elaboration's own loops;
    /// exceeding it fails the run with a phase-naming error.  `None`
    /// (the default) leaves the front end unbudgeted.
    pub frontend_timeout: Option<Duration>,
    /// Faults to inject into this run (see [`crate::faults`]).  Each task
    /// gets only the faults naming its property.  Default: none.
    #[cfg(any(test, feature = "fault-injection"))]
    pub faults: Vec<crate::faults::Fault>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            elab: ElabOptions::default(),
            bmc: BmcOptions {
                max_depth: 25,
                max_induction: 12,
            },
            liveness_bmc: BmcOptions {
                max_depth: 12,
                max_induction: 0,
            },
            disable_explicit: false,
            disable_pdr: false,
            disable_bmc: false,
            fuzz: FuzzOptions::default(),
            vcd: VcdOptions::default(),
            parallel: ParallelOptions::default(),
            solver: SolverConfig::default(),
            lint: LintOptions::default(),
            telemetry: TelemetryOptions::default(),
            frontend_timeout: None,
            #[cfg(any(test, feature = "fault-injection"))]
            faults: Vec::new(),
        }
    }
}

/// Why a proven property holds: which engine closed the proof and the
/// artifact it produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Proof {
    /// k-induction with loop-free-path strengthening.
    Induction {
        /// Induction depth at which the proof closed.
        depth: usize,
    },
    /// A PDR inductive invariant (clauses rendered over latch names).
    Invariant {
        /// The invariant clauses, human-readable.
        clauses: Vec<String>,
        /// Number of frames the trapezoid reached when the proof closed.
        frames: usize,
    },
    /// Exhaustive reachable-state enumeration by the explicit engine.
    Reachability,
}

impl Proof {
    /// A one-line description for report rendering.
    pub fn describe(&self) -> String {
        match self {
            Proof::Induction { depth } => format!("k-induction, k={depth}"),
            Proof::Invariant { clauses, frames } => {
                if clauses.is_empty() {
                    format!("PDR, vacuous at frame {frames}")
                } else if clauses.len() <= 3 {
                    format!(
                        "PDR invariant at frame {frames}: ({})",
                        clauses.join(") & (")
                    )
                } else {
                    format!("PDR invariant, {} clauses at frame {frames}", clauses.len())
                }
            }
            Proof::Reachability => "explicit reachability".to_string(),
        }
    }
}

/// The verification status of one property.
#[derive(Debug, Clone, PartialEq)]
pub enum PropertyStatus {
    /// Proven to hold on all executions; carries the proof artifact so
    /// reports can say *why* the property holds.
    Proven(Proof),
    /// Violated; a counterexample trace is attached.
    Violated(Trace),
    /// Cover target reached; the witness trace is attached.
    Covered(Trace),
    /// Cover target proven unreachable.
    Unreachable,
    /// Result not determined within the configured bounds.
    Unknown,
    /// Not checked by the formal engine (assumptions, X-prop checks).
    NotChecked(&'static str),
    /// The engine checking this property panicked.  The fault is contained
    /// to this row: every other property's verdict is unaffected and the
    /// report still renders.  Equivalent to [`PropertyStatus::Unknown`] for
    /// pass/fail purposes, but kept distinct so reports (and exit codes
    /// built on them) can surface the crash instead of silently reading it
    /// as "bounds too small".
    Error {
        /// The cascade stage that was running when the panic unwound
        /// (`"cache"`, `"fuzz"`, `"bmc"`, `"pdr"`, `"explicit"`, or
        /// `"task"` when it escaped outside any stage).
        engine: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl PropertyStatus {
    /// `true` when the property was proven.
    pub fn is_proven(&self) -> bool {
        matches!(self, PropertyStatus::Proven(_))
    }

    /// The attached proof artifact, if the property was proven.
    pub fn proof(&self) -> Option<&Proof> {
        match self {
            PropertyStatus::Proven(p) => Some(p),
            _ => None,
        }
    }

    /// `true` when a counterexample was produced.
    pub fn is_violation(&self) -> bool {
        matches!(self, PropertyStatus::Violated(_))
    }

    /// The attached trace, if any.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            PropertyStatus::Violated(t) | PropertyStatus::Covered(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for PropertyStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyStatus::Proven(_) => write!(f, "proven"),
            PropertyStatus::Violated(t) => write!(f, "CEX ({} cycles)", t.len()),
            PropertyStatus::Covered(t) => write!(f, "covered ({} cycles)", t.len()),
            PropertyStatus::Unreachable => write!(f, "unreachable"),
            PropertyStatus::Unknown => write!(f, "unknown"),
            PropertyStatus::NotChecked(reason) => write!(f, "not checked ({reason})"),
            PropertyStatus::Error { engine, message } => {
                write!(f, "ERROR in {engine}: {message}")
            }
        }
    }
}

/// The result for one property of the testbench.
#[derive(Debug, Clone)]
pub struct PropertyResult {
    /// Full property name (`as__...`, `am__...`, `co__...`).
    pub name: String,
    /// Property directive.
    pub directive: Directive,
    /// Property class.
    pub class: PropertyClass,
    /// Verification outcome.
    pub status: PropertyStatus,
    /// Wall-clock time spent on this property.
    pub runtime: Duration,
    /// Latches of the cone-of-influence slice the property was checked on
    /// (equals the full model's latch count when slicing is disabled; `0`
    /// for properties that are not checked).
    pub slice_latches: usize,
    /// AND gates of the slice the property was checked on.
    pub slice_gates: usize,
    /// Caveat attached to the outcome (e.g. the bounded-lasso note on an
    /// undecided liveness property, or an exhausted time budget).
    pub note: Option<String>,
    /// Provenance: the cascade stage that decided the property —
    /// `"cache"`, `"fuzz"`, `"bmc"` (quick or full-depth BMC and
    /// k-induction), `"pdr"` or `"explicit"`; `None` when nothing decided
    /// it (unknown, errored and unchecked properties).  Rendered only by
    /// [`VerificationReport::render_timed`], so
    /// [`VerificationReport::render`] stays byte-identical whichever stage
    /// got there first.
    pub engine: Option<&'static str>,
    /// Aggregated SAT-solver counters across every engine stage that ran
    /// for this property (all zeros for cache hits and unchecked
    /// properties).  Rendered by [`VerificationReport::render_timed`];
    /// [`VerificationReport::render`] stays stats-free so cold and
    /// cache-warm runs stay byte-identical.
    pub stats: SolverStats,
    /// Search statistics of the pre-cascade stimulus fuzzer, when the fuzz
    /// stage ran for this property (safety assertions with `fuzz.enabled`).
    /// Rendered only by [`VerificationReport::render_timed`].
    pub fuzz: Option<FuzzStats>,
}

/// The report of a full verification run.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// DUT name.
    pub dut: String,
    /// Per-property results.
    pub results: Vec<PropertyResult>,
    /// Total wall-clock time.
    pub total_runtime: Duration,
    /// Number of AIG latches in the compiled model (design + testbench).
    pub model_latches: usize,
    /// Number of AIG and-gates in the compiled model.
    pub model_gates: usize,
    /// Design-lint findings (empty when the lint is off or clean).
    pub lint: LintReport,
    /// Proof-cache counters for this run (hits/misses/insertions/rejected,
    /// plus verdicts loaded from disk); `None` when the run had no cache.
    /// Rendered only by [`VerificationReport::render_timed`].
    pub cache_stats: Option<CacheStats>,
    /// The merged telemetry of the run (spans, counters, gauges); `None`
    /// unless [`CheckOptions::telemetry`] requested collection.
    pub telemetry: Option<TelemetryReport>,
}

impl VerificationReport {
    /// Properties that were actually checked (assertions and covers).
    pub fn checked(&self) -> impl Iterator<Item = &PropertyResult> {
        self.results
            .iter()
            .filter(|r| !matches!(r.status, PropertyStatus::NotChecked(_)))
    }

    /// Number of violated properties.
    pub fn violations(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.status.is_violation())
            .count()
    }

    /// Proof rate over checked assertion properties (the paper's "100%
    /// proof" metric): proven / (proven + violated + unknown), ignoring
    /// covers and assumptions.
    pub fn proof_rate(&self) -> f64 {
        let assertions: Vec<&PropertyResult> = self
            .results
            .iter()
            .filter(|r| r.directive == Directive::Assert)
            .filter(|r| !matches!(r.status, PropertyStatus::NotChecked(_)))
            .collect();
        if assertions.is_empty() {
            return 1.0;
        }
        let proven = assertions
            .iter()
            .filter(|r| matches!(r.status, PropertyStatus::Proven(_)))
            .count();
        proven as f64 / assertions.len() as f64
    }

    /// The first counterexample found, if any.
    pub fn first_violation(&self) -> Option<&PropertyResult> {
        self.results.iter().find(|r| r.status.is_violation())
    }

    fn name_width(&self) -> usize {
        self.results
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(8)
            .max(8)
    }

    fn render_row(&self, out: &mut String, r: &PropertyResult, name_width: usize, prefix: &str) {
        match &r.status {
            PropertyStatus::Proven(proof) => out.push_str(&format!(
                "  {:name_width$}{prefix}  {} [{}]",
                r.name,
                r.status,
                proof.describe()
            )),
            status => out.push_str(&format!("  {:name_width$}{prefix}  {status}", r.name)),
        }
        if !matches!(r.status, PropertyStatus::NotChecked(_)) {
            out.push_str(&format!(
                "  (cone {} latches, {} gates)",
                r.slice_latches, r.slice_gates
            ));
        }
        out.push('\n');
        if let Some(note) = &r.note {
            // The note row aligns under the status column (the prefix — the
            // runtime in the timed rendering — is padded out, not repeated).
            let pad = name_width + prefix.chars().count();
            out.push_str(&format!("  {:pad$}  note: {note}\n", ""));
        }
    }

    /// Renders a human-readable summary table.
    ///
    /// The output is fully deterministic — property order, statuses, proof
    /// artifacts and slice sizes, but no wall-clock figures — so two runs of
    /// the same testbench render byte-identically regardless of the worker
    /// count or thread interleaving.  Use [`VerificationReport::render_timed`]
    /// for the variant with runtimes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Verification report for `{}` ({} latches, {} gates)\n",
            self.dut, self.model_latches, self.model_gates
        ));
        let name_width = self.name_width();
        for r in &self.results {
            self.render_row(&mut out, r, name_width, "");
        }
        if !self.lint.is_empty() {
            out.push_str(&self.lint.render());
        }
        out.push_str(&format!(
            "proof rate {:.0}%, {} violation(s)\n",
            self.proof_rate() * 100.0,
            self.violations(),
        ));
        out
    }

    /// Like [`VerificationReport::render`], with per-property and total
    /// wall-clock times plus per-property solver counters added (and
    /// therefore not byte-stable across runs).  A `critical path:` line names
    /// the longest task and its share of the run's wall time.
    pub fn render_timed(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Verification report for `{}` ({} latches, {} gates)\n",
            self.dut, self.model_latches, self.model_gates
        ));
        let name_width = self.name_width();
        for r in &self.results {
            let prefix = format!("  {:>8.1?}", r.runtime);
            self.render_row(&mut out, r, name_width, &prefix);
            if let Some(engine) = r.engine {
                let pad = name_width + prefix.chars().count();
                out.push_str(&format!("  {:pad$}  engine: {engine}\n", ""));
            }
            if r.stats != SolverStats::default() {
                let pad = name_width + prefix.chars().count();
                let s = r.stats;
                out.push_str(&format!(
                    "  {:pad$}  solver: {} conflicts, {} decisions, {} propagations, \
                     {} restarts, {} learnt ({} minimized lits, {} deleted)\n",
                    "",
                    s.conflicts,
                    s.decisions,
                    s.propagations,
                    s.restarts,
                    s.learnt,
                    s.minimized_lits,
                    s.learnt_deleted,
                ));
            }
            if let Some(fz) = &r.fuzz {
                let pad = name_width + prefix.chars().count();
                out.push_str(&format!(
                    "  {:pad$}  fuzz: {} round(s), {} cycles, {} lanes retired, \
                     {} redraw(s), {} replay(s) ({} confirmed)\n",
                    "",
                    fz.rounds,
                    fz.cycles,
                    fz.lanes_retired,
                    fz.redraws,
                    fz.replays,
                    fz.confirmed,
                ));
            }
        }
        if !self.lint.is_empty() {
            out.push_str(&self.lint.render());
        }
        if let Some(cs) = &self.cache_stats {
            out.push_str(&format!(
                "cache: {} hit(s), {} miss(es), {} insertion(s), {} rejected, {} loaded, \
                 {} slice(s) reused\n",
                cs.hits, cs.misses, cs.insertions, cs.rejected, cs.loaded, cs.slices_reused
            ));
        }
        if let Some(t) = &self.telemetry {
            out.push_str(&t.render_summary());
        }
        if let Some(longest) = self.results.iter().max_by_key(|r| r.runtime) {
            let total = self.total_runtime.as_secs_f64();
            let share = if total > 0.0 {
                100.0 * longest.runtime.as_secs_f64() / total
            } else {
                0.0
            };
            out.push_str(&format!(
                "critical path: {} {:.1?} ({share:.0}% of {:.1?})\n",
                longest.name, longest.runtime, self.total_runtime
            ));
        }
        out.push_str(&format!(
            "proof rate {:.0}%, {} violation(s), total {:.1?}\n",
            self.proof_rate() * 100.0,
            self.violations(),
            self.total_runtime
        ));
        out
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Elaborates `source`, compiles `testbench` and checks every property.
///
/// # Errors
///
/// Returns an error when elaboration or property compilation fails; checking
/// itself never fails (inconclusive results are reported as
/// [`PropertyStatus::Unknown`]).
pub fn verify(
    source: &str,
    testbench: &FormalTestbench,
    options: &CheckOptions,
) -> Result<VerificationReport> {
    let run_telemetry = Telemetry::new(&options.telemetry);
    let _scope = telemetry::enter(&run_telemetry);
    let frontend = frontend_guard(options);
    let file = {
        let _span = telemetry::span("parse", &testbench.dut_name);
        svparse::parse(source)
            .map_err(|e| crate::elab::ElabError::new(format!("parse error: {e}")))?
    };
    frontend_check(&frontend, "parse")?;
    let mut elab_options = options.elab.clone();
    if elab_options.top.is_none() {
        elab_options.top = Some(testbench.dut_name.clone());
    }
    let design = elaborate_budgeted(&file, &elab_options, &frontend)?;
    frontend_check(&frontend, "elaboration")?;
    verify_elaborated_inner(
        &design,
        testbench,
        Some((source, &file)),
        options,
        &run_telemetry,
        &frontend,
    )
}

/// Like [`verify`], but for an already elaborated design.  Without the
/// source text the lint still runs, but its source-dependent passes (width
/// mismatches, dead signals, unreachable enum states) are skipped and
/// findings carry no line/column; prefer [`verify`] when the RTL text is at
/// hand.
pub fn verify_elaborated(
    design: &ElabDesign,
    testbench: &FormalTestbench,
    options: &CheckOptions,
) -> Result<VerificationReport> {
    let run_telemetry = Telemetry::new(&options.telemetry);
    let _scope = telemetry::enter(&run_telemetry);
    let frontend = frontend_guard(options);
    verify_elaborated_inner(design, testbench, None, options, &run_telemetry, &frontend)
}

/// Creates the front-end deadline guard from
/// [`CheckOptions::frontend_timeout`] (an unarmed interrupt when no budget
/// is configured, so polling it is free).
fn frontend_guard(options: &CheckOptions) -> Interrupt {
    Interrupt::new(
        options
            .frontend_timeout
            .and_then(|limit| Instant::now().checked_add(limit)),
        None,
    )
}

/// Fails the run when the front-end budget expired during `phase`.  Called
/// between the front-end phases (and, through
/// [`crate::elab::elaborate_budgeted`], inside elaboration's own loops) so
/// a stalled front end surfaces as a named error instead of an unbounded
/// hang.
fn frontend_check(guard: &Interrupt, phase: &str) -> Result<()> {
    if guard.poll().is_some() {
        return Err(crate::elab::ElabError::new(format!(
            "front-end deadline exceeded during {phase}"
        )));
    }
    Ok(())
}

/// The shared body of [`verify`] and [`verify_elaborated`].
/// Assumes the caller has already entered `run_telemetry`'s recording scope
/// on this thread (so the orchestrating thread owns trace track 0).
fn verify_elaborated_inner(
    design: &ElabDesign,
    testbench: &FormalTestbench,
    source: Option<(&str, &SourceFile)>,
    options: &CheckOptions,
    run_telemetry: &Telemetry,
    frontend: &Interrupt,
) -> Result<VerificationReport> {
    let start = Instant::now();
    let compiled = compile(design, testbench)?;
    frontend_check(frontend, "compilation")?;

    // Level-1 static analysis between compile and the cascade: error
    // findings (multiply-driven signals, or anything under deny-warnings)
    // stop the run before any engine spends time on a broken design.
    let lint = crate::lint::run(design, &compiled, testbench, source, &options.lint);
    if lint.has_errors() {
        return Err(crate::elab::ElabError::new(format!(
            "design lint failed with {} error(s):\n{}",
            lint.error_count(),
            lint.render()
        )));
    }
    frontend_check(frontend, "lint")?;

    let cache = options.parallel.cache.as_ref();
    // Snapshot the cache counters so the report carries this run's delta
    // even when the handle is a long-lived in-process cache shared across
    // runs (`loaded` stays absolute — it describes the open).
    let cache_base = cache.map(ProofCache::stats);
    let tasks = build_tasks(&compiled, options);

    // Register the robustness counters up front so a healthy run's
    // telemetry still carries them (with zeros): their *absence* would be
    // indistinguishable from "fault containment not compiled in".
    telemetry::register_counter("robustness.interrupts");
    telemetry::register_counter("robustness.timeouts");
    telemetry::register_counter("robustness.panics_caught");

    // Run every property task on the worker pool; statuses are deterministic
    // (each engine is single-threaded on a fixed slice), so only runtimes
    // depend on the interleaving.  Each task runs under its own interrupt
    // handle (deadline from `property_timeout`, polled inside every engine
    // loop, carrying the faults that name the property) and inside
    // `catch_unwind`, so a stalled or panicking engine degrades that one
    // property — the run always comes back with a complete report.
    let threads = options.parallel.effective_threads();
    let names: Vec<String> = compiled
        .properties
        .iter()
        .map(|p| p.property.full_name())
        .collect();
    let outcomes = run_ordered(&tasks, threads, run_telemetry, |i, task| {
        let _task_span = telemetry::span("task", &names[i]);
        let t0 = Instant::now();
        let deadline = options
            .parallel
            .property_timeout
            .and_then(|limit| Instant::now().checked_add(limit));
        let interrupt = Interrupt::new(deadline, None);
        #[cfg(any(test, feature = "fault-injection"))]
        let interrupt = interrupt.with_faults(&options.faults, &names[i]);
        // The running stage's engine tag: set by `run_cascade`, read here
        // after a panic unwound it.
        let engine = Cell::new("task");
        let task_run = || run_task(task, options, &interrupt, &engine);
        let outcome = match catch_unwind(AssertUnwindSafe(task_run)) {
            Ok(outcome) => outcome,
            Err(payload) => {
                telemetry::count("robustness.panics_caught", 1);
                TaskOutcome::new(
                    PropertyStatus::Error {
                        engine: engine.get(),
                        message: panic_message(payload.as_ref()),
                    },
                    Some(
                        "engine panic isolated to this property; other verdicts are unaffected"
                            .to_string(),
                    ),
                )
            }
        };
        match interrupt.triggered() {
            Some(InterruptReason::Timeout) => {
                telemetry::count("robustness.interrupts", 1);
                telemetry::count("robustness.timeouts", 1);
            }
            Some(_) => telemetry::count("robustness.interrupts", 1),
            None => {}
        }
        (outcome, t0.elapsed())
    });

    // Assembly in annotation order, independent of completion order.  A
    // slot is empty only when a panic escaped the task closure itself.
    let mut results = Vec::with_capacity(tasks.len());
    for ((prop, task), slot) in compiled.properties.iter().zip(&tasks).zip(outcomes) {
        let (outcome, runtime) = slot.unwrap_or_else(|| {
            (
                TaskOutcome::new(
                    PropertyStatus::Unknown,
                    Some("undecided: a panic escaped the task's fault handler".to_string()),
                ),
                Duration::ZERO,
            )
        });
        let (slice_latches, slice_gates) = task.cone();
        results.push(PropertyResult {
            name: prop.property.full_name(),
            directive: prop.property.directive,
            class: prop.property.class,
            status: outcome.status,
            runtime,
            slice_latches,
            slice_gates,
            note: outcome.note,
            engine: outcome.engine,
            stats: outcome.stats,
            fuzz: outcome.fuzz,
        });
    }

    // Spill the cache to disk (no-op for in-memory caches).  Failures are
    // non-fatal: the cache is advisory and the report is already complete.
    if let Some(cache) = cache {
        let _ = cache.flush();
    }

    // This run's cache counter delta, surfaced on the report and fed into
    // the metrics registry.
    let cache_stats = cache
        .zip(cache_base)
        .map(|(cache, base)| cache.stats().since(&base));
    if let Some(delta) = &cache_stats {
        telemetry::count("cache.hits", delta.hits);
        telemetry::count("cache.misses", delta.misses);
        telemetry::count("cache.insertions", delta.insertions);
        telemetry::count("cache.rejected", delta.rejected);
        telemetry::count("cache.loaded", delta.loaded);
        telemetry::count("cache.slices_reused", delta.slices_reused);
    }

    // Waveform output: one VCD per counterexample/witness trace, under the
    // stable on-disk naming scheme.  Best-effort like the cache — an I/O
    // failure must not fail a completed verification run.
    if let Some(dir) = &options.vcd.dir {
        let _ = std::fs::create_dir_all(dir);
        for r in &results {
            if let Some(trace) = r.status.trace() {
                let path = dir.join(crate::vcd::file_name(&testbench.dut_name, &r.name));
                let text = crate::vcd::render(trace, &testbench.dut_name, &r.name);
                let _ = std::fs::write(path, text);
            }
        }
    }

    // Merge the telemetry buffers into the final report and write the
    // sinks (best-effort, like the cache and VCD output).
    let telemetry_report = if run_telemetry.is_active() {
        let mut verdicts = VerdictCounts::default();
        let mut slice_latches = 0;
        let mut slice_gates = 0;
        for r in &results {
            match &r.status {
                PropertyStatus::Proven(_) => verdicts.proven += 1,
                PropertyStatus::Violated(_) => verdicts.violated += 1,
                PropertyStatus::Covered(_) => verdicts.covered += 1,
                PropertyStatus::Unreachable => verdicts.unreachable += 1,
                PropertyStatus::Unknown => verdicts.unknown += 1,
                PropertyStatus::NotChecked(_) => verdicts.not_checked += 1,
                PropertyStatus::Error { .. } => verdicts.errors += 1,
            }
            if !matches!(r.status, PropertyStatus::NotChecked(_)) {
                slice_latches += r.slice_latches;
                slice_gates += r.slice_gates;
            }
        }
        run_telemetry.finish(RunSummary {
            dut: testbench.dut_name.clone(),
            properties: results.len(),
            verdicts,
            model_latches: compiled.model.aig.num_latches(),
            model_gates: compiled.model.aig.num_ands(),
            slice_latches,
            slice_gates,
        })
    } else {
        None
    };
    if let Some(report) = &telemetry_report {
        if let Some(path) = &options.telemetry.trace_path {
            let _ = std::fs::write(path, report.to_chrome_trace());
        }
        if let Some(path) = &options.telemetry.json_path {
            let _ = std::fs::write(path, report.to_json());
        }
    }

    Ok(VerificationReport {
        dut: testbench.dut_name.clone(),
        results,
        total_runtime: start.elapsed(),
        model_latches: compiled.model.aig.num_latches(),
        model_gates: compiled.model.aig.num_ands(),
        lint,
        cache_stats,
        telemetry: telemetry_report,
    })
}

/// One property as an independent verification task.
enum PropertyTask {
    /// Resolved at compile time (assumptions, X-prop checks).
    Done(PropertyStatus),
    /// Decided by the engine cascade.
    Check(Target),
}

impl PropertyTask {
    /// Latches and AND gates of the cone the property is checked on
    /// (`(0, 0)` for properties that are not checked).
    fn cone(&self) -> (usize, usize) {
        match self {
            PropertyTask::Done(_) => (0, 0),
            PropertyTask::Check(target) => {
                (target.base.aig.num_latches(), target.base.aig.num_ands())
            }
        }
    }
}

/// The three kinds of checked property.  Each asks the same question — can
/// its target literal be reached? — and differs only in where that literal
/// sits and in how the answer is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Safety assertion: target `model.bads[index]`; reaching it is a
    /// counterexample.
    Safety,
    /// Cover property: target `model.covers[index]`; reaching it is a
    /// witness.
    Cover,
    /// Liveness obligation, checked on its liveness-to-safety product:
    /// target `model.bads[index]` of the product; reaching it is a
    /// counterexample lasso.
    Liveness,
}

impl Kind {
    /// The BMC and k-induction bounds for a property of this kind.
    fn bounds(self, options: &CheckOptions) -> &BmcOptions {
        match self {
            Kind::Liveness => &options.liveness_bmc,
            Kind::Safety | Kind::Cover => &options.bmc,
        }
    }
}

/// A checked property as the cascade sees it.
struct Target {
    kind: Kind,
    /// The model the target literal lives on (the L2S product for liveness).
    model: Arc<Model>,
    /// Index of the target in `model.bads` (safety, liveness) or
    /// `model.covers` (cover).
    index: usize,
    /// The slice fingerprint, keying the proof cache.
    fp: Fingerprint,
    /// The checked cone: `model` itself, except for liveness, where it is
    /// the model before the L2S transform (the explicit engine's SCC
    /// analysis runs on it with pending monitors).
    base: Arc<Model>,
}

impl Target {
    /// The target literal and its property name.
    fn literal(&self) -> (Lit, &str) {
        match self.kind {
            Kind::Cover => {
                let cover = &self.model.covers[self.index];
                (cover.lit, &cover.name)
            }
            Kind::Safety | Kind::Liveness => {
                let bad = &self.model.bads[self.index];
                (bad.lit, &bad.name)
            }
        }
    }

    /// The proof-cache key of the property under `options`: its slice
    /// fingerprint, the digest of the engine options and its name.
    fn key(&self, options: &CheckOptions) -> CacheKey {
        CacheKey {
            fingerprint: self.fp,
            config: engine_digest(options),
            property: self.literal().1.to_string(),
        }
    }
}

/// A digest of the options that shape a verdict's artifact: which stages
/// run, the BMC and k-induction bounds and the solver features.  It keys
/// proof-cache entries with the cone, so a run reuses only what a run with
/// the same engine options stored, and renders like a cold run.  The
/// fuzzer is left out (every cached safety trace is BMC-minimized), and so
/// are budgets, orchestration, telemetry, VCD output and lint.  The hash is
/// the fingerprints' FNV-1a, so the digest is stable across processes.
fn engine_digest(options: &CheckOptions) -> u64 {
    let SolverConfig {
        restarts,
        minimize,
        reduce,
        restart_base,
        reduce_base,
    } = options.solver;
    let flags = [
        options.disable_bmc,
        options.disable_pdr,
        options.disable_explicit,
        restarts,
        minimize,
        reduce,
    ];
    let bounds = [
        options.bmc.max_depth,
        options.bmc.max_induction,
        options.liveness_bmc.max_depth,
        options.liveness_bmc.max_induction,
        restart_base as usize,
        reduce_base,
    ];
    let mut hash = Fnv2::new();
    flags.into_iter().for_each(|flag| hash.byte(u8::from(flag)));
    bounds.into_iter().for_each(|bound| hash.usize(bound));
    hash.finish().0
}

/// Builds one task per property.  With slicing enabled (the default) each
/// checked property gets its cone-of-influence slice.  With the optimizer
/// additionally enabled (also the default) each slice is run through the
/// [`crate::opt`] pass — constant sweeping, sequential/combinational
/// equivalence sweeping, dead-node elimination — before any engine sees it;
/// liveness slices are optimized first, then transformed via
/// liveness-to-safety, and the product is optimized again (the order keeps
/// the L2S snapshot sound: the transform always runs on the model the
/// snapshots will be compared against).
///
/// An opt-on run with a proof cache prepares each slice on the cache's
/// memo, keyed by the raw slice fingerprint, so a re-run over unchanged
/// cones takes every optimized slice and L2S product from it and optimizes
/// nothing.  Every other run prepares each slice directly: a slice keeps
/// only its own property, so no two properties of one run share one.  With
/// slicing disabled every task points at the full compiled model,
/// preserving the pre-orchestrator cascade behaviour exactly; the optimizer
/// never runs on that path.
fn build_tasks(compiled: &CompiledTestbench, options: &CheckOptions) -> Vec<PropertyTask> {
    let slice_on = options.parallel.slice;
    let opt_on = options.parallel.opt;
    let memo = options.parallel.cache.as_ref().filter(|_| opt_on);
    let mut shared_full: Option<(Arc<Model>, Fingerprint)> = None;
    let mut shared_l2s: Option<Arc<Model>> = None;

    compiled
        .properties
        .iter()
        .map(|prop| {
            let (kind, cone, i) = match &prop.kind {
                CompiledKind::Skipped(reason) => {
                    return PropertyTask::Done(PropertyStatus::NotChecked(reason))
                }
                CompiledKind::Constraint => {
                    return PropertyTask::Done(PropertyStatus::NotChecked(
                        "assumption (constrains the environment)",
                    ))
                }
                CompiledKind::Fairness => {
                    return PropertyTask::Done(PropertyStatus::NotChecked("fairness assumption"))
                }
                CompiledKind::Safety(i) => (Kind::Safety, SliceTarget::Bad(*i), *i),
                CompiledKind::Cover(i) => (Kind::Cover, SliceTarget::Cover(*i), *i),
                CompiledKind::Liveness(i) => (Kind::Liveness, SliceTarget::Liveness(*i), *i),
            };
            if !slice_on {
                let (base, fp) = shared_full
                    .get_or_insert_with(|| {
                        let model = Arc::new(compiled.model.clone());
                        let fp = fingerprint(&model);
                        (model, fp)
                    })
                    .clone();
                // The index into the base model's liveness vector equals the
                // index into the product's bad vector.
                let model = match kind {
                    Kind::Liveness => shared_l2s
                        .get_or_insert_with(|| Arc::new(base.to_liveness_safety().model))
                        .clone(),
                    Kind::Safety | Kind::Cover => Arc::clone(&base),
                };
                return PropertyTask::Check(Target {
                    kind,
                    model,
                    index: i,
                    fp,
                    base,
                });
            }
            // Keyed by the *raw* slice fingerprint; the prepared slice
            // carries the optimized model's own fingerprint (they coincide
            // when the optimizer is off).
            let slice = cone_of_influence(&compiled.model, cone);
            let raw = slice.fingerprint;
            let prepare = || {
                let (model, fingerprint) = if opt_on {
                    crate::opt::optimize(&slice.model)
                } else {
                    (slice.model, raw)
                };
                PreparedSlice {
                    model: Arc::new(model),
                    fingerprint,
                    l2s: None,
                }
            };
            let prepared = match memo {
                Some(cache) => cache.prepared_slice(raw, prepare),
                None => prepare(),
            };
            let model = match (kind, &prepared.l2s) {
                (Kind::Liveness, Some(product)) => Arc::clone(product),
                // The L2S product of the (optimized) base is itself a plain
                // safety model, so it gets its own opt pass: the
                // snapshot/monitor plumbing often pins latches the original
                // cone had already lost.
                (Kind::Liveness, None) => {
                    let product = {
                        let _span = telemetry::span("l2s", &prop.property.full_name());
                        let product = prepared.model.to_liveness_safety().model;
                        if opt_on {
                            crate::opt::optimize(&product).0
                        } else {
                            product
                        }
                    };
                    match memo {
                        Some(cache) => cache.memo_l2s(raw, Arc::new(product)),
                        None => Arc::new(product),
                    }
                }
                (Kind::Safety | Kind::Cover, _) => Arc::clone(&prepared.model),
            };
            PropertyTask::Check(Target {
                kind,
                model,
                index: 0,
                fp: prepared.fingerprint,
                base: prepared.model,
            })
        })
        .collect()
}

/// Renders a caught panic payload (`String` and `&str` payloads verbatim,
/// anything else as a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The outcome of one property task, before assembly into a
/// [`PropertyResult`] (which adds the name/class/slice context and the
/// wall-clock runtime).
struct TaskOutcome {
    status: PropertyStatus,
    note: Option<String>,
    stats: SolverStats,
    engine: Option<&'static str>,
    fuzz: Option<FuzzStats>,
}

impl TaskOutcome {
    fn new(status: PropertyStatus, note: Option<String>) -> TaskOutcome {
        TaskOutcome {
            status,
            note,
            stats: SolverStats::default(),
            engine: None,
            fuzz: None,
        }
    }
}

fn run_task(
    task: &PropertyTask,
    options: &CheckOptions,
    interrupt: &Interrupt,
    engine: &Cell<&'static str>,
) -> TaskOutcome {
    match task {
        PropertyTask::Done(status) => TaskOutcome::new(status.clone(), None),
        PropertyTask::Check(target) => run_cascade(target, options, interrupt, engine),
    }
}

/// Depth of the quick BMC stage.  Short counterexamples are found here
/// with minimal effort; anything deeper is left to PDR, the explicit engine
/// or the full-depth BMC.
const QUICK_BMC_DEPTH: usize = 10;

/// Bounds of the PDR stage, which sits between k-induction and the explicit
/// fallback.
const PDR_BOUNDS: PdrOptions = PdrOptions {
    max_frames: 40,
    max_queries: 30_000,
    generalize_rounds: 2,
};

/// The stages every checked property walks, in order; the first stage that
/// decides the property ends the walk.
const CASCADE: [Stage; 6] = [
    Stage::Cache,
    Stage::Fuzz,
    Stage::QuickBmc,
    Stage::Pdr,
    Stage::Explicit,
    Stage::FullBmc,
];

/// One stage of the cascade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// The proof cache: a verdict stored for a content-identical cone,
    /// returned once its artifact passed its check ([`ProofCache`]).
    Cache,
    /// The bit-parallel stimulus fuzzer: concrete 64-lane stimulus over the
    /// slice, every hit replay-confirmed, before any SAT query.
    Fuzz,
    /// Shallow BMC plus k-induction up to depth 3: short counterexamples
    /// and cheap proofs at minimal cost.
    QuickBmc,
    /// IC3/PDR: the reachability-dependent proofs induction cannot close,
    /// without the explicit engine's exponential cliff.
    Pdr,
    /// Exhaustive explicit-state exploration (SCC analysis for liveness).
    Explicit,
    /// BMC and k-induction to the configured full depth.
    FullBmc,
}

impl Stage {
    /// The stage's engine tag: the provenance of the verdicts it decides,
    /// the engine its telemetry span names, and the engine an interrupt
    /// note or a caught panic attributes to it.
    fn engine(self) -> &'static str {
        match self {
            Stage::Cache => "cache",
            Stage::Fuzz => "fuzz",
            Stage::QuickBmc | Stage::FullBmc => "bmc",
            Stage::Pdr => "pdr",
            Stage::Explicit => "explicit",
        }
    }

    /// The telemetry span phase of the stage.
    fn span(self) -> &'static str {
        match self {
            Stage::Cache => "cache.lookup",
            Stage::Fuzz => "engine.fuzz",
            Stage::QuickBmc | Stage::FullBmc => "engine.bmc",
            Stage::Pdr => "engine.pdr",
            Stage::Explicit => "engine.explicit",
        }
    }

    /// Whether the stage runs for a property of `kind`: the cache only
    /// when the run has one, the fuzzer only for safety properties, and
    /// the engine toggles of [`CheckOptions`] switch the other stages off.
    fn runs(self, kind: Kind, options: &CheckOptions) -> bool {
        match self {
            Stage::Cache => options.parallel.cache.is_some(),
            Stage::Fuzz => kind == Kind::Safety && options.fuzz.enabled,
            Stage::QuickBmc | Stage::FullBmc => !options.disable_bmc,
            Stage::Pdr => !options.disable_pdr,
            Stage::Explicit => !options.disable_explicit,
        }
    }
}

/// Runs one stage on `target`, adding its solver and fuzzer work to
/// `outcome`.  `None` when the stage did not decide, within its bounds or
/// because the task's interrupt fired.
fn run_stage(
    stage: Stage,
    target: &Target,
    options: &CheckOptions,
    interrupt: &Interrupt,
    outcome: &mut TaskOutcome,
) -> Option<Verdict> {
    let model = &*target.model;
    let (lit, name) = target.literal();
    let bounds = target.kind.bounds(options);
    let bmc = |bounds: &BmcOptions, outcome: &mut TaskOutcome| {
        let (result, stats) =
            check_target_budgeted(model, lit, name, bounds, options.solver, interrupt);
        outcome.stats += stats;
        match result {
            SafetyResult::Violated(trace) => Some(Verdict::Reached(trace)),
            SafetyResult::Proven { induction_depth } => Some(Verdict::Unreachable(
                Certificate::Induction(induction_depth),
            )),
            SafetyResult::Unknown { .. } | SafetyResult::Interrupted => None,
        }
    };
    match stage {
        Stage::Cache => {
            let cache = options.parallel.cache.as_ref()?;
            let key = target.key(options);
            cache.lookup(&key, model, lit, bounds.max_induction, interrupt)
        }
        Stage::Fuzz => {
            let (hit, stats) = fuzz_safety_budgeted(model, target.index, &options.fuzz, interrupt);
            outcome.fuzz = Some(stats);
            hit.map(Verdict::Reached)
        }
        Stage::QuickBmc => {
            let quick = BmcOptions {
                max_depth: QUICK_BMC_DEPTH.min(bounds.max_depth),
                max_induction: 3.min(bounds.max_induction),
            };
            bmc(&quick, outcome)
        }
        Stage::FullBmc => bmc(bounds, outcome),
        Stage::Pdr => {
            let (result, stats) =
                check_pdr_budgeted(model, lit, &PDR_BOUNDS, options.solver, interrupt);
            outcome.stats += stats;
            match result {
                PdrResult::Proven(invariant) => {
                    Some(Verdict::Unreachable(Certificate::Invariant(invariant)))
                }
                PdrResult::Violated(trace) => Some(Verdict::Reached(trace)),
                PdrResult::Unknown { .. } | PdrResult::Interrupted => None,
            }
        }
        Stage::Explicit => {
            let limits = ExplicitOptions::default();
            let result = match target.kind {
                Kind::Safety | Kind::Cover => explicit::reach(model, lit, &limits, interrupt),
                Kind::Liveness => {
                    explicit::liveness(&target.base, target.index, &limits, interrupt)
                }
            };
            match result {
                ExplicitResult::Proven => Some(Verdict::Unreachable(Certificate::Reachability)),
                ExplicitResult::Violated(trace) => Some(Verdict::Reached(trace)),
                ExplicitResult::Exceeded => None,
            }
        }
    }
}

/// Decides one checked property: the [`CASCADE`] stages in order, the
/// proof cache first, until one decides or the task's interrupt fires.
///
/// Everything around the stages is written once, here: the engine tag
/// that attributes interrupts and panics (kept in `engine`, which the
/// task's panic handler reads), the stage's span, the interrupt note, the
/// cache store and the solver/fuzzer accounting.  What differs by
/// property kind is one rule each:
///
/// * the fuzzer runs for safety only ([`Stage::runs`]);
/// * liveness uses the `liveness_bmc` bounds and runs the explicit stage on
///   the base model ([`run_stage`]);
/// * only safety traces from the fuzz, PDR and explicit stages are
///   re-minimized ([`minimize_safety_cex`]), and one that could not be is
///   reported but not cached;
/// * a cover reports "reached" as covered and "unreachable" as
///   [`PropertyStatus::Unreachable`] ([`status`]);
/// * liveness never caches the explicit engine's lasso, and an undecided
///   liveness property carries the lasso-bound note.
fn run_cascade(
    target: &Target,
    options: &CheckOptions,
    interrupt: &Interrupt,
    engine: &Cell<&'static str>,
) -> TaskOutcome {
    let model = &*target.model;
    let name = target.literal().1;
    let mut outcome = TaskOutcome::new(PropertyStatus::Unknown, None);
    for stage in CASCADE {
        if !stage.runs(target.kind, options) {
            continue;
        }
        engine.set(stage.engine());
        let verdict = {
            let _span =
                telemetry::span_detail(stage.span(), name, Some(stage.engine()), Some(target.fp));
            run_stage(stage, target, options, interrupt, &mut outcome)
        };
        let Some(mut verdict) = verdict else {
            // One poll tells "undecided" from "interrupted": an interrupted
            // engine has already latched the reason.
            if interrupt.poll().is_some() {
                let note = format!("undecided: budget exhausted in {}", stage.engine());
                outcome.note = Some(note);
                return outcome;
            }
            continue;
        };
        let minimized = match (&mut verdict, target.kind, stage) {
            (Verdict::Reached(trace), Kind::Safety, Stage::Fuzz | Stage::Pdr | Stage::Explicit) => {
                minimize_safety_cex(
                    model,
                    target.index,
                    trace,
                    options,
                    &mut outcome.stats,
                    interrupt,
                )
            }
            _ => true,
        };
        // The cache keeps what a stage decided, except a hit (it is stored
        // already), a trace that could not be minimized, and the explicit
        // engine's liveness lasso, which lives on the monitor-augmented base
        // model, not on the product the cache replays traces on.  A task
        // whose interrupt has fired never publishes: a verdict whose
        // minimization was cut short is correct but not canonical, and
        // would make a later cache-hit run render differently from a fresh
        // one.  The cache is advisory, so a skipped store costs only a
        // recomputation.
        let lasso = target.kind == Kind::Liveness
            && stage == Stage::Explicit
            && matches!(verdict, Verdict::Reached(_));
        let keep = stage != Stage::Cache && minimized && !lasso && interrupt.triggered().is_none();
        if let Some(cache) = options.parallel.cache.as_ref().filter(|_| keep) {
            cache.store(target.key(options), verdict.clone());
        }
        outcome.status = status(target.kind, verdict, model);
        outcome.engine = Some(stage.engine());
        return outcome;
    }
    if target.kind == Kind::Liveness && Stage::FullBmc.runs(target.kind, options) {
        outcome.note = Some(format!(
            "bounded lasso search: counterexamples need stem+loop within {} cycles \
             (CheckOptions::liveness_bmc.max_depth); starvation scenarios with longer \
             stems would be missed",
            options.liveness_bmc.max_depth
        ));
    }
    outcome
}

/// Canonicalizes a safety counterexample to the *minimal* depth via a
/// bounded BMC call (guaranteed SAT at or below the witnessed depth).  PDR
/// and the explicit engine return correct but not necessarily shortest
/// traces, and the fuzzer's hits land wherever the stimulus happened to
/// strike; re-minimizing makes the reported trace length a function of the
/// model alone, so `render()` is byte-identical no matter which engine got
/// there first.  Returns `false` when it cannot run, under `disable_bmc`
/// (a fuzz-alone run keeps the fuzzer's raw trace, which must not be
/// cached).  An interrupt mid-minimization keeps the original
/// (unminimized but correct) trace — the verdict is never lost.
fn minimize_safety_cex(
    model: &Model,
    index: usize,
    trace: &mut Trace,
    options: &CheckOptions,
    stats: &mut SolverStats,
    interrupt: &Interrupt,
) -> bool {
    if options.disable_bmc {
        return false;
    }
    let Some(max_depth) = trace.len().checked_sub(1) else {
        return true;
    };
    let bad = &model.bads[index];
    let _span = telemetry::span_detail("engine.minimize", &bad.name, Some("bmc"), None);
    let bound = BmcOptions {
        max_depth,
        max_induction: 0,
    };
    let (result, s) =
        check_target_budgeted(model, bad.lit, &bad.name, &bound, options.solver, interrupt);
    *stats += s;
    // Unreachable (a concrete witness exists at this depth) and Interrupted
    // both keep the witnessed trace: never let the minimizer lose the
    // verdict.
    if let SafetyResult::Violated(minimal) = result {
        *trace = minimal;
    }
    true
}

/// The report status of a property of `kind` that `verdict` decided on
/// `model`.
fn status(kind: Kind, verdict: Verdict, model: &Model) -> PropertyStatus {
    match (kind, verdict) {
        (Kind::Cover, Verdict::Reached(trace)) => PropertyStatus::Covered(trace),
        (Kind::Cover, Verdict::Unreachable(_)) => PropertyStatus::Unreachable,
        (Kind::Safety | Kind::Liveness, Verdict::Reached(trace)) => PropertyStatus::Violated(trace),
        (Kind::Safety | Kind::Liveness, Verdict::Unreachable(certificate)) => {
            PropertyStatus::Proven(certificate.proof(model))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosva::{generate_ft, AutosvaOptions};

    /// A well-behaved single-outstanding-request echo module: every accepted
    /// request is answered on the next cycle with the same ID.
    const ECHO_GOOD: &str = r#"
/*AUTOSVA
echo_txn: req -in> res
req_val = req_val
req_ack = req_ack
[1:0] req_transid = req_id
res_val = res_val
[1:0] res_transid = res_id
*/
module echo (
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

    /// A buggy variant: the response drops the transaction when a new request
    /// arrives in the same cycle the response is produced (the ID is
    /// overwritten and the original request never completes), and requests
    /// are accepted while busy.
    const ECHO_BAD: &str = r#"
/*AUTOSVA
echo_txn: req -in> res
req_val = req_val
req_ack = req_ack
[1:0] req_transid = req_id
res_val = res_val
[1:0] res_transid = res_id
*/
module echo (
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
      if (req_val) begin
        busy_q <= 1'b1;
        id_q <= req_id;
      end else if (busy_q) begin
        busy_q <= 1'b0;
      end
    end
  end
  assign req_ack = 1'b1;
  assign res_val = busy_q && !req_val;
  assign res_id = id_q;
endmodule
"#;

    /// A single-outstanding echo that answers only after a 7-cycle wait
    /// counter drains.  The `had_a_request` monitor proof needs reachability
    /// information ("the wait counter is only non-zero while busy"), which
    /// defeats the shallow quick-BMC induction and exercises the PDR stage.
    const ECHO_SLOW: &str = r#"
/*AUTOSVA
slow_txn: req -in> res
req_val = req_val
req_ack = req_ack
res_val = res_val
*/
module echo_slow (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic req_val,
  output logic req_ack,
  output logic res_val
);
  logic       busy_q;
  logic [2:0] wait_q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      busy_q <= 1'b0;
      wait_q <= 3'd0;
    end else begin
      if (req_val && req_ack) begin
        busy_q <= 1'b1;
        wait_q <= 3'd7;
      end else if (busy_q) begin
        if (wait_q != 3'd0) begin
          wait_q <= wait_q - 3'd1;
        end else begin
          busy_q <= 1'b0;
        end
      end
    end
  end
  assign req_ack = !busy_q;
  assign res_val = busy_q && wait_q == 3'd0;
endmodule
"#;

    fn run(src: &str) -> VerificationReport {
        let ft = generate_ft(src, &AutosvaOptions::default()).unwrap();
        verify(src, &ft, &CheckOptions::default()).unwrap()
    }

    #[test]
    fn good_echo_module_proves_every_assertion() {
        let report = run(ECHO_GOOD);
        assert_eq!(
            report.violations(),
            0,
            "unexpected violations:\n{}",
            report.render()
        );
        assert!(
            (report.proof_rate() - 1.0).abs() < f64::EPSILON,
            "proof rate below 100%:\n{}",
            report.render()
        );
        // The cover property must be reachable (the FT is not vacuous).
        assert!(report
            .results
            .iter()
            .any(|r| matches!(r.status, PropertyStatus::Covered(_))));
    }

    #[test]
    fn buggy_echo_module_yields_counterexamples() {
        let report = run(ECHO_BAD);
        assert!(
            report.violations() > 0,
            "expected counterexamples:\n{}",
            report.render()
        );
        let first = report.first_violation().unwrap();
        let trace = first.status.trace().unwrap();
        assert!(
            trace.len() <= 12,
            "trace unexpectedly long: {}",
            trace.len()
        );
    }

    #[test]
    fn report_rendering_mentions_every_property() {
        let report = run(ECHO_GOOD);
        let text = report.render();
        for r in &report.results {
            assert!(text.contains(&r.name));
        }
        assert!(text.contains("proof rate"));
    }

    #[test]
    fn cascade_runs_pdr_before_the_explicit_fallback() {
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();

        // The slice optimizer discharges this counter-vs-state proof
        // structurally (sequential sweeping merges the monitor latch), so
        // keep it off: this test pins the *cascade staging*, and needs the
        // proof to stay reachability-dependent.
        let mut options = CheckOptions::default();
        options.parallel.opt = false;

        // Default cascade: the reachability-dependent safety proof must be
        // closed by the PDR stage (an inductive-invariant certificate), not
        // by the explicit engine sitting behind it.
        let report = verify(ECHO_SLOW, &ft, &options).unwrap();
        let had = report
            .results
            .iter()
            .find(|r| r.name.contains("had_a_request"))
            .expect("monitor property exists");
        assert!(
            matches!(had.status.proof(), Some(Proof::Invariant { .. })),
            "expected a PDR invariant proof, got {:?}",
            had.status
        );
        assert_eq!(had.engine, Some("pdr"));
        assert_eq!(report.violations(), 0, "{}", report.render());

        // With PDR disabled the same property falls through to the explicit
        // engine — proving the stage really sits in front of it.
        let mut no_pdr = CheckOptions::default();
        no_pdr.parallel.opt = false;
        no_pdr.disable_pdr = true;
        let report = verify(ECHO_SLOW, &ft, &no_pdr).unwrap();
        let had = report
            .results
            .iter()
            .find(|r| r.name.contains("had_a_request"))
            .expect("monitor property exists");
        assert!(
            matches!(had.status.proof(), Some(Proof::Reachability)),
            "expected an explicit-reachability proof, got {:?}",
            had.status
        );
        assert_eq!(had.engine, Some("explicit"));
    }

    #[test]
    fn sequential_and_parallel_runs_render_identically() {
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let mut sequential = CheckOptions::default();
        sequential.parallel.threads = 1;
        let mut parallel = CheckOptions::default();
        parallel.parallel.threads = 4;
        let seq = verify(ECHO_SLOW, &ft, &sequential).unwrap();
        let par = verify(ECHO_SLOW, &ft, &parallel).unwrap();
        assert_eq!(seq.render(), par.render());
        // The timed rendering carries the same rows plus runtimes.
        assert!(seq.render_timed().contains("proof rate"));
    }

    #[test]
    fn slicing_off_matches_slicing_on() {
        let ft = generate_ft(ECHO_GOOD, &AutosvaOptions::default()).unwrap();
        let mut unsliced = CheckOptions::default();
        unsliced.parallel.slice = false;
        let sliced = verify(ECHO_GOOD, &ft, &CheckOptions::default()).unwrap();
        let full = verify(ECHO_GOOD, &ft, &unsliced).unwrap();
        // Same verdicts; the unsliced run reports the full model as every
        // property's cone.
        for (a, b) in sliced.results.iter().zip(&full.results) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                format!("{}", a.status),
                format!("{}", b.status),
                "{}: sliced and unsliced verdicts diverge",
                a.name
            );
            assert!(a.slice_latches <= b.slice_latches);
        }
        assert!(full
            .checked()
            .all(|r| r.slice_latches == full.model_latches));
    }

    #[test]
    fn proof_cache_reuses_verdicts_across_runs() {
        // ECHO_SLOW has liveness properties, so the cache also memoizes
        // optimized L2S products.
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let cache = crate::portfolio::ProofCache::new();
        let mut options = CheckOptions::default();
        options.parallel.cache = Some(cache.clone());
        options.telemetry.enabled = true;
        let spans = |report: &VerificationReport, phase: &str| {
            let telemetry = report.telemetry.as_ref().expect("telemetry is on");
            telemetry.spans.iter().filter(|s| s.phase == phase).count()
        };
        let cones = |report: &VerificationReport| {
            report
                .results
                .iter()
                .map(|r| (r.slice_latches, r.slice_gates))
                .collect::<Vec<_>>()
        };

        let cold = verify(ECHO_SLOW, &ft, &options).unwrap();
        let cold_stats = cache.stats();
        assert!(
            cold_stats.insertions > 0,
            "cold run must populate the cache"
        );
        assert_eq!(cold_stats.hits, 0);
        assert!(
            spans(&cold, "opt") > 0 && spans(&cold, "l2s") > 0,
            "the cold run must optimize its slices and build L2S products"
        );

        let warm = verify(ECHO_SLOW, &ft, &options).unwrap();
        let warm_stats = cache.stats();
        assert!(
            warm_stats.hits >= cold_stats.insertions,
            "warm run must answer from the cache: {warm_stats:?}"
        );
        assert_eq!(warm_stats.rejected, 0, "no entry may fail re-validation");
        assert_eq!(
            cold.render(),
            warm.render(),
            "cache hits must not change the report"
        );
        // Every cone's optimized slice and L2S product comes from the memo.
        for phase in ["opt", "opt.pass", "l2s"] {
            assert_eq!(spans(&warm, phase), 0, "the warm run recorded `{phase}`");
        }
        assert_eq!(cones(&cold), cones(&warm));
        let checked = warm.checked().count() as u64;
        assert_eq!(warm.cache_stats.map(|s| s.slices_reused), Some(checked));
        let telemetry = warm.telemetry.as_ref().expect("telemetry is on");
        assert_eq!(telemetry.counter("cache.slices_reused"), Some(checked));

        // An opt-off run never takes an optimized slice from the cache.
        let mut no_opt = CheckOptions::default();
        no_opt.parallel.opt = false;
        let uncached = verify(ECHO_SLOW, &ft, &no_opt).unwrap();
        no_opt.parallel.cache = Some(cache.clone());
        let shared = verify(ECHO_SLOW, &ft, &no_opt).unwrap();
        assert_eq!(uncached.render(), shared.render());
    }

    #[test]
    fn cache_dir_persists_verdicts_across_fresh_caches() {
        // A cache opened on a directory must make verdicts survive into a
        // later run that opens its own cache from the same directory (the
        // fresh-process CLI/CI pattern).  The second input never
        // acknowledges a request, so k-induction proves its request cover
        // unreachable at k=0: a cover's certificate crosses the disk too.
        let never_acked = ECHO_SLOW.replace("assign req_ack = !busy_q;", "assign req_ack = 1'b0;");
        for src in [ECHO_SLOW, never_acked.as_str()] {
            let dir = std::env::temp_dir()
                .join(format!("autosva-checker-cache-test-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let ft = generate_ft(src, &AutosvaOptions::default()).unwrap();
            let mut options = CheckOptions::default();
            options.parallel.cache = Some(crate::portfolio::ProofCache::open(&dir));

            let cold = verify(src, &ft, &options).unwrap();
            assert!(
                dir.join("proofs.cache").exists(),
                "the run must spill the cache to disk"
            );
            assert!(
                cold.results
                    .iter()
                    .any(|r| r.stats != crate::sat::SolverStats::default()),
                "the cold run must do solver work"
            );

            // A fresh ProofCache opened from the directory exercises the
            // disk load path, not the in-memory store.
            options.parallel.cache = Some(crate::portfolio::ProofCache::open(&dir));
            let warm = verify(src, &ft, &options).unwrap();
            assert_eq!(
                cold.render(),
                warm.render(),
                "disk-warm verdicts must match the cold run byte-for-byte"
            );
            assert!(
                warm.checked()
                    .all(|r| r.stats == crate::sat::SolverStats::default()),
                "the disk-warm run must answer every checked property from the cache"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn solver_stats_surface_in_the_timed_rendering_only() {
        // Optimizer off: the sweep makes this proof trivially inductive,
        // and the test needs real PDR solver work to show up in the stats.
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let mut options = CheckOptions::default();
        options.parallel.opt = false;
        let report = verify(ECHO_SLOW, &ft, &options).unwrap();
        let had = report
            .results
            .iter()
            .find(|r| r.name.contains("had_a_request"))
            .expect("monitor property exists");
        assert!(
            had.stats.conflicts > 0 && had.stats.propagations > 0,
            "a PDR-closed proof must report solver work: {:?}",
            had.stats
        );
        assert!(report.render_timed().contains("solver:"));
        assert!(
            !report.render().contains("solver:"),
            "render() must stay stats-free (byte-stable across cache states)"
        );
    }

    #[test]
    fn critical_path_renders_in_the_timed_report_only() {
        let report = run(ECHO_GOOD);
        let longest = report
            .results
            .iter()
            .max_by_key(|r| r.runtime)
            .expect("the testbench has properties");
        let timed = report.render_timed();
        let line = timed
            .lines()
            .find(|l| l.starts_with("critical path: "))
            .unwrap_or_else(|| panic!("no critical-path line:\n{timed}"));
        assert!(line.contains(&longest.name), "{line}");
        assert!(line.contains("% of "), "{line}");
        assert!(!report.render().contains("critical path"));
    }

    #[test]
    fn solver_feature_ablation_agrees_on_verdicts() {
        // The checker with every solver feature off must reach the same
        // report as the default full-featured configuration.
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let full = verify(ECHO_SLOW, &ft, &CheckOptions::default()).unwrap();
        let stripped = CheckOptions {
            solver: crate::sat::SolverConfig::baseline(),
            ..CheckOptions::default()
        };
        let baseline = verify(ECHO_SLOW, &ft, &stripped).unwrap();
        assert_eq!(full.render(), baseline.render());
    }

    #[test]
    fn undecided_liveness_reports_the_lasso_bound_caveat() {
        // With PDR and the explicit engine disabled and induction off, the
        // (true) eventual-response obligation of the slow echo cannot be
        // decided within the lasso bound — the report must say so.
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let options = CheckOptions {
            disable_pdr: true,
            disable_explicit: true,
            liveness_bmc: BmcOptions {
                max_depth: 2,
                max_induction: 0,
            },
            ..CheckOptions::default()
        };
        let report = verify(ECHO_SLOW, &ft, &options).unwrap();
        let undecided = report
            .results
            .iter()
            .find(|r| {
                r.class == PropertyClass::Liveness && matches!(r.status, PropertyStatus::Unknown)
            })
            .expect("an undecided liveness property");
        let note = undecided.note.as_ref().expect("caveat note attached");
        assert!(
            note.contains("lasso"),
            "note must explain the bound: {note}"
        );
        assert!(
            note.contains("2"),
            "note must state the configured bound: {note}"
        );
        assert!(report.render().contains("note:"));
    }

    #[test]
    fn proven_properties_render_their_proof_artifact() {
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let report = verify(ECHO_SLOW, &ft, &CheckOptions::default()).unwrap();
        let text = report.render();
        assert!(
            text.contains("PDR invariant"),
            "render must say why properties hold:\n{text}"
        );
        assert!(
            text.contains("k-induction") || text.contains("PDR"),
            "{text}"
        );
    }
}
