//! Top-level verification driver.
//!
//! [`verify`] runs an AutoSVA-generated formal testbench against its DUT: it
//! elaborates the RTL, compiles the testbench into a [`crate::model::Model`],
//! checks every property through the engine cascade, and collects
//! everything into a [`VerificationReport`] that mirrors how the paper
//! reports results (proof rate, counterexamples, trace lengths, runtimes).
//!
//! Every checked property asks one question: can its target be reached?
//! For a safety assertion or a cover the target is a literal of its cone;
//! for a liveness obligation it is a fair lasso of its cone with the
//! pending-obligation monitors added ([`crate::liveness`]).  One loop walks
//! one stage list to answer it, stopping at the first stage that decides:
//!
//! 1. **cache** — a verdict the proof cache stored for a content-identical
//!    cone, returned only after its artifact passed its check;
//! 2. **fuzz** — the bit-parallel stimulus fuzzer (safety only);
//! 3. **BMC** — BMC to depth 10 for short counterexamples plus k-induction
//!    to depth 3 for cheap proofs; for liveness, the lasso search to depth
//!    10, whose SAT half is skipped when a budgeted breadth-first search
//!    finds no fair cycle within that depth;
//! 4. **PDR** — IC3/PDR for reachability-dependent proofs, with an
//!    inductive-invariant certificate; for liveness, k-liveness;
//! 5. **explicit** — the exact explicit-state engine, one breadth-first
//!    search per property (an SCC check for liveness).
//!
//! Every engine answers with the one [`Verdict`] of [`crate::verdict`]:
//! reached, with a trace (a replay-confirmed lasso for liveness), or
//! unreachable, with a certificate (an induction depth, a PDR invariant, a
//! k-liveness invariant or explicit reachability).  The proof cache stores
//! and re-checks that verdict, and one conversion turns it into the
//! report's [`PropertyStatus`].  The stage that decides a property is its
//! provenance ([`PropertyResult::engine`]).
//!
//! Properties are independent tasks that run concurrently on a worker pool
//! ([`crate::portfolio`]), with results assembled back in annotation order
//! — a sequential run (`parallel.threads = 1`) and a parallel run render
//! byte-identical reports.  A task checks its property on the property's
//! own cone-of-influence slice ([`crate::coi`]), which the task builds and
//! optimizes on its worker before its cascade starts, so the only serial
//! work before the pool is the front end.  Tasks share nothing but the
//! optional [`crate::portfolio::ProofCache`], which reuses verdicts
//! across runs with the same engine options when a property's slice is
//! content-identical (e.g. buggy/fixed design variants or repeated bench
//! iterations), and lets opt-on runs reuse each other's optimized slices.
//! The timed report ([`VerificationReport::render_timed`]) lists, per
//! property, what every stage that ran spent ([`StageSpend`]).

use crate::aig::Aig;
use crate::bmc::{self, check_target_budgeted, BmcOptions};
use crate::coi::{cone_of_influence, Fnv2, SliceTarget};
use crate::compile::{compile, CompiledKind, CompiledProperty};
use crate::elab::{elaborate_budgeted, ElabDesign, ElabOptions, Result};
use crate::explicit::{self, ExplicitOptions, Shortest};
use crate::fuzz::{fuzz_safety_budgeted, FuzzOptions, FuzzStats};
use crate::interrupt::{Interrupt, InterruptReason};
use crate::lint::{LintOptions, LintReport};
use crate::liveness::{self, k_liveness, lasso_search, KLiveness};
use crate::model::{BadProperty, Model};
use crate::pdr::{check_pdr_budgeted, PdrOptions};
use crate::portfolio::{
    run_ordered, CacheKey, CacheStats, Goal, ParallelOptions, PreparedSlice, ProofCache,
};
use crate::sat::{SolverConfig, SolverStats};
use crate::telemetry::{
    self, RunSummary, Telemetry, TelemetryOptions, TelemetryReport, VerdictCounts,
};
use crate::trace::Trace;
use crate::vcd::VcdOptions;
use crate::verdict::{Certificate, Verdict};
use autosva::sva::{Directive, PropertyClass, SvaProperty};
use autosva::FormalTestbench;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svparse::ast::SourceFile;

/// Options for a verification run.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// Elaboration options (top module, parameter overrides, clock/reset).
    pub elab: ElabOptions,
    /// Disable the explicit-state stage of the cascade (used by the
    /// bounded-engine and fuzz-alone rows of the contract suite).
    /// Counterexample minimization still starts with the explicit engine's
    /// breadth-first search: that search is part of minimization, not a
    /// stage.
    pub disable_explicit: bool,
    /// Disable the PDR stage entirely (used by the bounded-engine and
    /// fuzz-alone rows of the contract suite).  Minimization never runs
    /// PDR, so it is unaffected.
    pub disable_pdr: bool,
    /// Disable the BMC stage of the cascade, the liveness lasso search
    /// included.  Used by the fuzz-alone row of the contract suite.  It
    /// also skips counterexample minimization, its breadth-first half
    /// included: a fuzz-alone run reports the fuzzer's raw traces and
    /// caches none of them.
    pub disable_bmc: bool,
    /// The pre-cascade stimulus fuzzer: bit-parallel simulation of every
    /// safety property's slice, hunting shallow bugs before any SAT query.
    /// Confirmed hits are re-minimized to a shortest trace, by
    /// breadth-first search and then, if that runs out of budget, the BMC
    /// ladder (unless `disable_bmc`), so the reported trace length — and
    /// therefore [`VerificationReport::render`] — is byte-identical with
    /// the fuzz stage on or off, for any seed.
    pub fuzz: FuzzOptions,
    /// Waveform output: when a directory is set, every counterexample and
    /// witness trace — fuzzer-found and SAT-found — is written there as a
    /// VCD file named by [`crate::vcd::file_name`].
    pub vcd: VcdOptions,
    /// Orchestration: worker count (`threads = 1` is the sequential escape
    /// hatch), opt on each property's cone-of-influence slice, optional
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
        /// For a liveness property, the k of its k-liveness proof: at most
        /// k fairness rounds complete while the obligation stays pending,
        /// and the invariant is over the k-liveness model
        /// ([`crate::liveness::KLiveness`]).  `None` for a safety
        /// invariant.
        k_liveness: Option<usize>,
    },
    /// Exhaustive reachable-state enumeration by the explicit engine.
    Reachability,
}

impl Proof {
    /// A one-line description for report rendering.
    pub fn describe(&self) -> String {
        match self {
            Proof::Induction { depth } => format!("k-induction, k={depth}"),
            // A k-liveness proof names its k, the least at which the round
            // counter stays bounded, which the model alone determines; the
            // invariant's clauses and frames depend on the PDR search.
            Proof::Invariant {
                k_liveness: Some(k),
                ..
            } => format!("k-liveness, k={k}, PDR invariant"),
            Proof::Invariant {
                clauses, frames, ..
            } => {
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

    /// The proof `certificate` reports; `aig` is the circuit an invariant's
    /// latches belong to (the k-liveness model's for a k-liveness proof).
    fn from_certificate(certificate: Certificate, aig: &Aig) -> Proof {
        match certificate {
            Certificate::Induction(depth) => Proof::Induction { depth },
            Certificate::Invariant(invariant) => Proof::Invariant {
                clauses: invariant.render(aig),
                frames: invariant.frames_explored,
                k_liveness: None,
            },
            Certificate::KLiveness { k, invariant } => Proof::Invariant {
                clauses: invariant.render(aig),
                frames: invariant.frames_explored,
                k_liveness: Some(k),
            },
            Certificate::Reachability => Proof::Reachability,
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
    /// Result not determined within the engines' bounds.
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
    /// Latches of the cone-of-influence slice the property was checked on,
    /// as the optimizer left it and without liveness monitors (`0` for
    /// properties that are not checked).
    pub slice_latches: usize,
    /// AND gates of the slice the property was checked on.
    pub slice_gates: usize,
    /// Caveat attached to the outcome (e.g. the bounded-lasso note on an
    /// undecided liveness property, or an exhausted time budget).
    pub note: Option<String>,
    /// Provenance: the cascade stage that decided the property —
    /// `"cache"`, `"fuzz"`, `"bmc"` (BMC and k-induction, or the lasso
    /// search), `"pdr"` or `"explicit"`; `None` when nothing decided
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
    /// What each cascade stage that ran for this property spent, in cascade
    /// order: every stage that decided nothing, then the deciding stage (if
    /// one decided).  Empty for properties no stage ran for.  Rendered only
    /// by [`VerificationReport::render_timed`].
    pub stages: Vec<StageSpend>,
}

/// What one cascade stage spent on one property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpend {
    /// The stage's engine tag: `"cache"`, `"fuzz"`, `"bmc"` (BMC and
    /// k-induction, or the lasso search), `"pdr"` or `"explicit"`.
    pub engine: &'static str,
    /// Wall-clock time in the stage, including the re-minimization of a
    /// safety counterexample the stage found.
    pub time: Duration,
    /// SAT conflicts of the stage's engine solvers and of that
    /// re-minimization (the proof cache's re-checks are not counted).
    pub conflicts: u64,
}

impl fmt::Display for StageSpend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:.1?}", self.engine, self.time)?;
        if self.conflicts > 0 {
            write!(f, " ({} conflicts)", self.conflicts)?;
        }
        Ok(())
    }
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
    /// wall-clock times plus per-property stage spend and solver counters
    /// added (and therefore not byte-stable across runs).  A `stages:` line
    /// lists what each stage that ran for a property spent, the deciding
    /// stage last ([`PropertyResult::stages`]).  A `critical path:` line
    /// names the longest task and its share of the run's wall time.
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
            let pad = name_width + prefix.chars().count();
            if let Some(engine) = r.engine {
                out.push_str(&format!("  {:pad$}  engine: {engine}\n", ""));
            }
            if !r.stages.is_empty() {
                let stages: Vec<String> = r.stages.iter().map(StageSpend::to_string).collect();
                out.push_str(&format!("  {:pad$}  stages: {}\n", "", stages.join(", ")));
            }
            if r.stats != SolverStats::default() {
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

    // Register the robustness counters up front so a healthy run's
    // telemetry still carries them (with zeros): their *absence* would be
    // indistinguishable from "fault containment not compiled in".
    telemetry::register_counter("robustness.interrupts");
    telemetry::register_counter("robustness.timeouts");
    telemetry::register_counter("robustness.panics_caught");

    // Run one task per property on the worker pool; statuses are
    // deterministic (each engine is single-threaded on a fixed slice), so
    // only runtimes depend on the interleaving.
    let threads = options.parallel.effective_threads();
    let properties = &compiled.properties;
    let rows = run_ordered(properties, threads, run_telemetry, |prop| {
        run_task(prop, &compiled.model, options)
    });

    // Assembly in annotation order, independent of completion order.  A
    // slot is empty only when a panic escaped the task closure itself.
    let results: Vec<PropertyResult> = properties
        .iter()
        .zip(rows)
        .map(|(prop, slot)| {
            slot.unwrap_or_else(|| {
                let note = "undecided: a panic escaped the task's fault handler".to_string();
                PropertyResult::new(&prop.property, PropertyStatus::Unknown, Some(note))
            })
        })
        .collect();

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

/// The three kinds of checked property.  Each asks the same question — can
/// its target be reached? — and differs only in what the target is and in
/// how the answer is reported.  A cone holds its property at index 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Safety assertion: target `model.bads[0]`; reaching it is a
    /// counterexample.
    Safety,
    /// Cover property: target `model.covers[0]`; reaching it is a witness.
    Cover,
    /// Liveness obligation `model.liveness[0]`: the target is a fair lasso
    /// of the model with its pending-obligation monitors, a counterexample.
    Liveness,
}

/// A checked property as the cascade sees it: the property of kind `kind`
/// at index 0 of its prepared cone.
struct Target {
    kind: Kind,
    cone: PreparedSlice,
}

impl Target {
    /// The model the engines check.
    fn model(&self) -> &Model {
        &self.cone.model
    }

    /// The property's name.
    fn name(&self) -> &str {
        let model = self.model();
        match self.kind {
            Kind::Safety => &model.bads[0].name,
            Kind::Cover => &model.covers[0].name,
            Kind::Liveness => &model.liveness[0].name,
        }
    }

    /// What the property asks of its model: a literal to reach, or a fair
    /// lasso.
    fn goal(&self) -> Goal<'_> {
        match (self.kind, self.cone.liveness.as_deref()) {
            (Kind::Safety, _) => Goal::Reach(self.model().bads[0].lit),
            (Kind::Cover, _) => Goal::Reach(self.model().covers[0].lit),
            (Kind::Liveness, Some((monitors, klive))) => Goal::Lasso(monitors, klive),
            (Kind::Liveness, None) => unreachable!("a liveness target has its monitors"),
        }
    }

    /// The circuit a certificate's latches belong to: the k-liveness
    /// model's for liveness, the checked model's otherwise.
    fn certificate_aig(&self) -> &Aig {
        match self.cone.liveness.as_deref() {
            Some((_, klive)) => &klive.model.aig,
            None => &self.model().aig,
        }
    }

    /// The proof-cache key of the property under `options`: its slice
    /// fingerprint, the digest of the engine options and its name.
    fn key(&self, options: &CheckOptions) -> CacheKey {
        CacheKey {
            fingerprint: self.cone.fingerprint,
            config: engine_digest(options),
            property: self.name().to_string(),
        }
    }
}

/// A digest of the options that shape a verdict's artifact: which stages
/// run and the solver features.  It keys proof-cache entries with the
/// cone, so a run reuses only what a run with the same engine options
/// stored, and renders like a cold run.  The fuzzer is left out (every
/// cached safety trace is minimized), and so are budgets, orchestration,
/// telemetry, VCD output and lint.  The hash is the fingerprints' FNV-1a,
/// so the digest is stable across processes.
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
    let mut hash = Fnv2::new();
    flags.into_iter().for_each(|flag| hash.byte(u8::from(flag)));
    hash.usize(restart_base as usize);
    hash.usize(reduce_base);
    hash.finish().0
}

/// Prepares the cone of one property of `model` for its cascade: the
/// cone-of-influence slice, which holds the property at index 0, run
/// through the [`crate::opt`] pass (constant sweeping,
/// sequential/combinational equivalence sweeping, dead-node elimination)
/// when opt is on.  A liveness target then adds its pending-obligation
/// monitors and builds its k-liveness model.
///
/// An opt-on run with a proof cache prepares the slice on the cache's memo,
/// keyed by the raw slice fingerprint, so a re-run over an unchanged cone
/// takes its prepared slice from it and optimizes nothing.  Every other
/// run prepares the slice directly: a slice keeps only its own property, so
/// no two properties of one run share one.
fn prepare_cone(model: &Model, cone: SliceTarget, options: &CheckOptions) -> Target {
    let kind = match cone {
        SliceTarget::Bad(_) => Kind::Safety,
        SliceTarget::Cover(_) => Kind::Cover,
        SliceTarget::Liveness(_) => Kind::Liveness,
    };
    let opt_on = options.parallel.opt;
    let memo = options.parallel.cache.as_ref().filter(|_| opt_on);
    // Keyed by the *raw* slice fingerprint; the prepared slice carries the
    // optimized model's own fingerprint (they coincide when the optimizer
    // is off).
    let slice = cone_of_influence(model, cone);
    let raw = slice.fingerprint;
    let prepare = || {
        let (model, fingerprint) = if opt_on {
            crate::opt::optimize(&slice.model)
        } else {
            (slice.model, raw)
        };
        let cone = (model.aig.num_latches(), model.aig.num_ands());
        let (model, liveness) = match kind {
            Kind::Liveness => {
                let (monitored, monitors) = liveness::monitored(&model, 0);
                let klive = KLiveness::new(&monitored, &monitors);
                (monitored, Some(Arc::new((monitors, klive))))
            }
            Kind::Safety | Kind::Cover => (model, None),
        };
        PreparedSlice {
            model: Arc::new(model),
            fingerprint,
            cone,
            liveness,
        }
    };
    let cone = match memo {
        Some(cache) => cache.prepared_slice(raw, prepare),
        None => prepare(),
    };
    Target { kind, cone }
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

impl PropertyResult {
    /// The row of `property` with `status` and `note`, before any cascade
    /// stage ran: no cone, no solver work, no runtime.
    fn new(property: &SvaProperty, status: PropertyStatus, note: Option<String>) -> PropertyResult {
        PropertyResult {
            name: property.full_name(),
            directive: property.directive,
            class: property.class,
            status,
            runtime: Duration::ZERO,
            slice_latches: 0,
            slice_gates: 0,
            note,
            engine: None,
            stats: SolverStats::default(),
            fuzz: None,
            stages: Vec::new(),
        }
    }

    /// The row of a task whose preparation or cascade panicked in `engine`:
    /// an error row, so the run still completes.
    fn panicked(
        property: &SvaProperty,
        engine: &'static str,
        payload: &(dyn std::any::Any + Send),
    ) -> PropertyResult {
        telemetry::count("robustness.panics_caught", 1);
        PropertyResult::new(
            property,
            PropertyStatus::Error {
                engine,
                message: panic_message(payload),
            },
            Some(
                "engine panic isolated to this property; other verdicts are unaffected".to_string(),
            ),
        )
    }
}

/// Runs the task of one property of `model` on a pool worker and returns
/// its report row.  An assumption or a simulation-only check is not
/// checked; any other property's task prepares its cone, then runs its
/// cascade.  The task's interrupt handle (deadline from
/// `property_timeout`, polled inside every engine loop, carrying the faults
/// that name the property) and its runtime start once the cone is
/// prepared.  Preparation and cascade each run inside `catch_unwind`, so a
/// panic in either, or an engine stalled past the deadline, degrades only
/// this property — the run always comes back with a complete report.
fn run_task(prop: &CompiledProperty, model: &Model, options: &CheckOptions) -> PropertyResult {
    let property = &prop.property;
    let name = property.full_name();
    let _task_span = telemetry::span("task", &name);
    let unchecked =
        |reason| PropertyResult::new(property, PropertyStatus::NotChecked(reason), None);
    let cone = match prop.kind {
        CompiledKind::Safety(i) => SliceTarget::Bad(i),
        CompiledKind::Cover(i) => SliceTarget::Cover(i),
        CompiledKind::Liveness(i) => SliceTarget::Liveness(i),
        CompiledKind::Constraint => return unchecked("assumption (constrains the environment)"),
        CompiledKind::Fairness => return unchecked("fairness assumption"),
        CompiledKind::Skipped(reason) => return unchecked(reason),
    };
    // The `prepare` fault site's handle carries no deadline: preparation
    // polls none.
    let prepared = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(any(test, feature = "fault-injection"))]
        Interrupt::none()
            .with_faults(&options.faults, &name)
            .fault("prepare");
        prepare_cone(model, cone, options)
    }));
    let t0 = Instant::now();
    let deadline = options
        .parallel
        .property_timeout
        .and_then(|limit| t0.checked_add(limit));
    let interrupt = Interrupt::new(deadline, None);
    #[cfg(any(test, feature = "fault-injection"))]
    let interrupt = interrupt.with_faults(&options.faults, &name);
    // The running stage's engine tag: set by `run_cascade`, read here after
    // a panic unwound it.
    let engine = Cell::new("task");
    let panicked = |payload: Box<dyn std::any::Any + Send>| {
        PropertyResult::panicked(property, engine.get(), payload.as_ref())
    };
    let mut row = match prepared {
        Err(payload) => panicked(payload),
        Ok(target) => {
            let run = || run_cascade(&target, property, options, &interrupt, &engine);
            let mut row = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(panicked);
            (row.slice_latches, row.slice_gates) = target.cone.cone;
            row
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
    row.runtime = t0.elapsed();
    row
}

/// Bounds of the BMC stage: BMC to depth 10 with k-induction to depth 3
/// for a safety or cover target, the lasso search to depth 10 for a
/// liveness one.  Short counterexamples and cheap proofs are found here
/// with minimal effort; anything deeper is left to PDR and the explicit
/// engine.  The stage is the only producer of induction certificates, so
/// the proof cache rejects a deeper one without re-proving it.
pub(crate) const BMC_BOUNDS: BmcOptions = BmcOptions {
    max_depth: 10,
    max_induction: 3,
};

/// Input words the breadth-first filter of the lasso search
/// ([`explicit::lasso_free`]) may evaluate before it leaves the property to
/// the SAT search: a state expands into 2^(inputs − 6) words, one for six
/// inputs or fewer.  Every proven corpus cone but A2 fixed's two is ruled
/// out within 285 words, and the five violated cones reach a fair cycle
/// within 404.  A2 fixed's two would need 6,152 words each (769 states × 8
/// words), 2.7–2.8 ms of search, where their SAT searches take 0.4–0.7 ms
/// and 1.8–2.0 ms (22 and 149 conflicts; best of 10 or 20 sequential runs
/// on a 2-vCPU host).  2^10 words stop the filter on those two after
/// 0.5–0.8 ms.
const LASSO_FREE_WORDS: u64 = 1 << 10;

/// Bounds of the PDR stage, which sits between k-induction and the explicit
/// fallback.
const PDR_BOUNDS: PdrOptions = PdrOptions {
    max_frames: 40,
    max_queries: 30_000,
    generalize_rounds: 2,
};

/// The stages every checked property walks, in order; the first stage that
/// decides the property ends the walk.
const CASCADE: [Stage; 5] = [
    Stage::Cache,
    Stage::Fuzz,
    Stage::Bmc,
    Stage::Pdr,
    Stage::Explicit,
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
    /// Short counterexamples and cheap proofs at minimal cost, to
    /// `BMC_BOUNDS`: for a safety or cover target, BMC plus k-induction;
    /// for a liveness target, the lasso search, whose breadth-first filter
    /// skips the SAT search where no fair cycle fits the depth.
    Bmc,
    /// IC3/PDR: the reachability-dependent proofs induction cannot close,
    /// without the explicit engine's exponential cliff.
    Pdr,
    /// Exhaustive explicit-state exploration (SCC analysis for liveness).
    Explicit,
}

impl Stage {
    /// The stage's engine tag: the provenance of the verdicts it decides,
    /// the engine its telemetry span names, and the engine an interrupt
    /// note or a caught panic attributes to it.
    fn engine(self) -> &'static str {
        match self {
            Stage::Cache => "cache",
            Stage::Fuzz => "fuzz",
            Stage::Bmc => "bmc",
            Stage::Pdr => "pdr",
            Stage::Explicit => "explicit",
        }
    }

    /// The telemetry span phase of the stage.
    fn span(self) -> &'static str {
        match self {
            Stage::Cache => "cache.lookup",
            Stage::Fuzz => "engine.fuzz",
            Stage::Bmc => "engine.bmc",
            Stage::Pdr => "engine.pdr",
            Stage::Explicit => "engine.explicit",
        }
    }

    /// The telemetry counter of the properties the stage decided, and that
    /// of the SAT conflicts it spent on the properties it left undecided.
    /// Static names, as [`telemetry::count_solver`]'s are.
    fn counters(self) -> (&'static str, &'static str) {
        match self {
            Stage::Cache => ("decided.cache", "undecided.cache.conflicts"),
            Stage::Fuzz => ("decided.fuzz", "undecided.fuzz.conflicts"),
            Stage::Bmc => ("decided.bmc", "undecided.bmc.conflicts"),
            Stage::Pdr => ("decided.pdr", "undecided.pdr.conflicts"),
            Stage::Explicit => ("decided.explicit", "undecided.explicit.conflicts"),
        }
    }

    /// Whether the stage runs for a property of `kind`: the cache only
    /// when the run has one, the fuzzer only for safety properties, and
    /// the engine toggles of [`CheckOptions`] switch the other stages off.
    fn runs(self, kind: Kind, options: &CheckOptions) -> bool {
        match self {
            Stage::Cache => options.parallel.cache.is_some(),
            Stage::Fuzz => kind == Kind::Safety && options.fuzz.enabled,
            Stage::Bmc => !options.disable_bmc,
            Stage::Pdr => !options.disable_pdr,
            Stage::Explicit => !options.disable_explicit,
        }
    }
}

/// Runs one stage on `target`, adding its solver and fuzzer work to
/// `row`.  `None` when the stage did not decide, within its bounds or
/// because the task's interrupt fired.  A liveness property runs its own
/// engine in each stage, on its monitored model: the BMC stage searches
/// for lassos to `BMC_BOUNDS.max_depth`, behind the breadth-first filter
/// under `LASSO_FREE_WORDS`, PDR proves k-liveness, and the explicit
/// engine runs its SCC check.
fn run_stage(
    stage: Stage,
    target: &Target,
    options: &CheckOptions,
    interrupt: &Interrupt,
    row: &mut PropertyResult,
) -> Option<Verdict> {
    let (model, name, solver) = (target.model(), target.name(), options.solver);
    let limits = ExplicitOptions::default();
    let (verdict, stats) = match (stage, target.goal()) {
        (Stage::Cache, goal) => {
            let cache = options.parallel.cache.as_ref()?;
            return cache.lookup(&target.key(options), model, goal, interrupt);
        }
        (Stage::Fuzz, _) => {
            let (hit, stats) = fuzz_safety_budgeted(model, 0, &options.fuzz, interrupt);
            row.fuzz = Some(stats);
            return hit.map(Verdict::Reached);
        }
        (Stage::Bmc, Goal::Reach(lit)) => {
            check_target_budgeted(model, lit, name, &BMC_BOUNDS, solver, interrupt)
        }
        (Stage::Bmc, Goal::Lasso(monitors, _)) => {
            let depth = BMC_BOUNDS.max_depth;
            lasso_search(model, monitors, depth, LASSO_FREE_WORDS, solver, interrupt)
        }
        (Stage::Pdr, Goal::Reach(lit)) => {
            let (verdict, _, stats) =
                check_pdr_budgeted(model, &[lit], &PDR_BOUNDS, solver, interrupt);
            (verdict, stats)
        }
        (Stage::Pdr, Goal::Lasso(_, klive)) => k_liveness(klive, &PDR_BOUNDS, solver, interrupt),
        (Stage::Explicit, Goal::Reach(lit)) => {
            return explicit::reach(model, lit, &limits, interrupt)
        }
        (Stage::Explicit, Goal::Lasso(monitors, _)) => {
            return explicit::liveness(model, monitors, &limits, interrupt)
        }
    };
    row.stats += stats;
    verdict
}

/// Decides one checked property: the [`CASCADE`] stages in order, the
/// proof cache first, until one decides or the task's interrupt fires.
/// Every stage answers with the [`Verdict`] its engine returns; `None`
/// means undecided, and one poll of the task's [`Interrupt`] tells whether
/// the stage was preempted (an engine never answers "unreachable" once the
/// interrupt has fired).
///
/// Everything around the stages is written once, here: the engine tag
/// that attributes interrupts and panics (kept in `engine`, which the
/// task's panic handler reads), the stage's span, its [`StageSpend`] and
/// its `decided.<stage>` or `undecided.<stage>.conflicts` counter, the
/// interrupt note, the cache store and the solver/fuzzer accounting.  What
/// differs by property kind is one rule each:
///
/// * the fuzzer runs for safety only ([`Stage::runs`]);
/// * liveness runs its own engine in each stage, on its monitored model
///   ([`run_stage`]);
/// * only safety traces from the fuzz and PDR stages are re-minimized
///   ([`minimize_safety_cex`]), and one that could not be is reported but
///   not cached; the explicit stage's traces are shortest already;
/// * a cover reports "reached" as covered and "unreachable" as
///   [`PropertyStatus::Unreachable`] ([`status`]);
/// * an undecided liveness property carries the lasso-bound note.
fn run_cascade(
    target: &Target,
    property: &SvaProperty,
    options: &CheckOptions,
    interrupt: &Interrupt,
    engine: &Cell<&'static str>,
) -> PropertyResult {
    let model = target.model();
    let name = target.name();
    let mut row = PropertyResult::new(property, PropertyStatus::Unknown, None);
    for stage in CASCADE {
        if !stage.runs(target.kind, options) {
            continue;
        }
        engine.set(stage.engine());
        let started = Instant::now();
        let conflicts = row.stats.conflicts;
        let verdict = {
            let _span = telemetry::span_detail(
                stage.span(),
                name,
                Some(stage.engine()),
                Some(target.cone.fingerprint),
            );
            run_stage(stage, target, options, interrupt, &mut row)
        };
        let decided = verdict.map(|mut verdict| {
            let minimized = match (&mut verdict, target.kind, stage) {
                (Verdict::Reached(trace), Kind::Safety, Stage::Fuzz | Stage::Pdr) => {
                    minimize_safety_cex(model, trace, options, &mut row.stats, interrupt)
                }
                _ => true,
            };
            (verdict, minimized)
        });
        let spent = row.stats.conflicts - conflicts;
        row.stages.push(StageSpend {
            engine: stage.engine(),
            time: started.elapsed(),
            conflicts: spent,
        });
        let (decided_counter, undecided_conflicts) = stage.counters();
        let Some((verdict, minimized)) = decided else {
            telemetry::count(undecided_conflicts, spent);
            // One poll tells "undecided" from "interrupted": an interrupted
            // engine has already latched the reason.
            if interrupt.poll().is_some() {
                let note = format!("undecided: budget exhausted in {}", stage.engine());
                row.note = Some(note);
                return row;
            }
            continue;
        };
        telemetry::count(decided_counter, 1);
        // The cache keeps what a stage decided, except a hit (it is stored
        // already) and a trace that could not be minimized.  A task whose
        // interrupt has fired never publishes: a verdict whose minimization
        // was cut short is correct but not canonical, and would make a
        // later cache-hit run render differently from a fresh one.  The
        // cache is advisory, so a skipped store costs only a recomputation.
        let keep = stage != Stage::Cache && minimized && interrupt.triggered().is_none();
        if let Some(cache) = options.parallel.cache.as_ref().filter(|_| keep) {
            cache.store(target.key(options), verdict.clone());
        }
        row.status = status(target, verdict);
        row.engine = Some(stage.engine());
        return row;
    }
    if target.kind == Kind::Liveness && Stage::Bmc.runs(target.kind, options) {
        row.note = Some(format!(
            "bounded lasso search: counterexamples need stem+loop within {} cycles; \
             starvation scenarios with longer stems would be missed",
            BMC_BOUNDS.max_depth
        ));
    }
    row
}

/// Input words the breadth-first half of [`minimize_safety_cex`] may
/// evaluate before it hands the BMC ladder the depth it reached: a state
/// expands into 2^(inputs − 6) words, one for six inputs or fewer.  The
/// deepest corpus search, A5 buggy's (15 latches, 8 inputs), needs 44,405
/// words and takes 24–45 ms sequentially on a 2-vCPU host, where the
/// ladder takes 65–98 ms; O1 buggy's needs 1,874 words (1.2–2.2 ms against
/// 251–310 ms).  A word costs 0.5–1.0 µs on these cones, so 2^16 words,
/// 1.5 times A5's need, cap a search that finds nothing at about 35–65 ms,
/// below what the ladder takes on A5's cone.
const MINIMIZE_WORDS: u64 = 1 << 16;

/// Canonicalizes a counterexample to the safety property of `model`, a
/// cone that holds it at index 0, to the *minimal* depth.  The
/// fuzzer's hits land wherever the stimulus happened to strike, and PDR's
/// traces need not be shortest; re-minimizing makes the reported trace
/// length a function of the model alone, so `render()` is byte-identical
/// no matter which engine got there first.  (The explicit stage's traces
/// are shortest already and never come here.)  See [`shortest_trace`] for
/// the search.  Returns `false` when it cannot run, under `disable_bmc`
/// (a fuzz-alone run keeps the fuzzer's raw trace, which must not be
/// cached).  An interrupt mid-minimization keeps the original
/// (unminimized but correct) trace — the verdict is never lost.
fn minimize_safety_cex(
    model: &Model,
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
    let bad = &model.bads[0];
    // No engine tag: the search runs no engine stage, and a `bmc.solve`
    // span inside shows when the ladder ran.
    let _span = telemetry::span("engine.minimize", &bad.name);
    let (minimal, s) = shortest_trace(
        model,
        bad,
        max_depth,
        MINIMIZE_WORDS,
        options.solver,
        interrupt,
    );
    *stats += s;
    if let Some(minimal) = minimal {
        *trace = minimal;
    }
    true
}

/// A shortest trace reaching `bad` at a depth of at most `max_depth`, where
/// a trace is known to exist.  The explicit engine's breadth-first search
/// ([`explicit::shortest`]) runs first, under `max_words` evaluated input
/// words: a hit is a shortest trace and costs no SAT query.  A search that
/// stops at depth d without one (out of budget, or d = 0 for a cone
/// outside the explicit limits) hands the BMC ladder the depths d to
/// `max_depth` ([`bmc::ladder_from`]).  `None` when the interrupt stopped
/// the ladder first.
fn shortest_trace(
    model: &Model,
    bad: &BadProperty,
    max_depth: usize,
    max_words: u64,
    solver: SolverConfig,
    interrupt: &Interrupt,
) -> (Option<Trace>, SolverStats) {
    let from = match explicit::shortest(model, bad.lit, max_words, interrupt) {
        Shortest::Trace(trace) => return (Some(trace), SolverStats::default()),
        Shortest::NotBefore(depth) => depth,
    };
    let (verdict, stats) = bmc::ladder_from(
        model, bad.lit, &bad.name, from, max_depth, solver, interrupt,
    );
    match verdict {
        Some(Verdict::Reached(trace)) => (Some(trace), stats),
        _ => (None, stats),
    }
}

/// The report status of `target` that `verdict` decided.
fn status(target: &Target, verdict: Verdict) -> PropertyStatus {
    match (target.kind, verdict) {
        (Kind::Cover, Verdict::Reached(trace)) => PropertyStatus::Covered(trace),
        (Kind::Cover, Verdict::Unreachable(_)) => PropertyStatus::Unreachable,
        (Kind::Safety | Kind::Liveness, Verdict::Reached(trace)) => PropertyStatus::Violated(trace),
        (Kind::Safety | Kind::Liveness, Verdict::Unreachable(certificate)) => {
            PropertyStatus::Proven(Proof::from_certificate(
                certificate,
                target.certificate_aig(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Lit;
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
    /// defeats the BMC stage's shallow induction and exercises the PDR stage.
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
    fn proof_cache_reuses_verdicts_across_runs() {
        // ECHO_SLOW has liveness properties: the memo keeps their monitors
        // and k-liveness models with the optimized slices.
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
            spans(&cold, "opt") > 0,
            "the cold run must optimize its slices"
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
        // Every cone's optimized slice comes from the memo.
        for phase in ["opt", "opt.pass"] {
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
    fn stages_spend_in_cascade_order_with_the_decider_last() {
        // Optimizer off, so PDR decides `had_a_request` after BMC
        // (see `cascade_runs_pdr_before_the_explicit_fallback`).
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let mut options = CheckOptions::default();
        options.parallel.opt = false;
        options.parallel.cache = Some(crate::portfolio::ProofCache::new());
        let engines = |r: &PropertyResult| r.stages.iter().map(|s| s.engine).collect::<Vec<_>>();

        let cold = verify(ECHO_SLOW, &ft, &options).unwrap();
        for r in cold.checked() {
            let stages = engines(r);
            let mut cascade = CASCADE.iter().map(|stage| stage.engine());
            assert!(
                stages.iter().all(|&e| cascade.any(|c| c == e)),
                "{}: stages {stages:?} out of cascade order",
                r.name
            );
            assert_eq!(stages.first(), Some(&"cache"), "{}", r.name);
            assert_eq!(
                stages.last().copied(),
                r.engine,
                "{}: decider not last",
                r.name
            );
            let conflicts: u64 = r.stages.iter().map(|s| s.conflicts).sum();
            assert_eq!(conflicts, r.stats.conflicts, "{}", r.name);
        }
        let had = cold
            .results
            .iter()
            .find(|r| r.name.contains("had_a_request"))
            .expect("monitor property exists");
        assert_eq!(engines(had), ["cache", "fuzz", "bmc", "pdr"]);
        assert!(had.stages[3].conflicts > 0, "{:?}", had.stages);

        // A warm run: the cache decides every property alone.
        let warm = verify(ECHO_SLOW, &ft, &options).unwrap();
        assert!(warm.checked().all(|r| engines(r) == ["cache"]));
        let timed = warm.render_timed();
        assert!(timed.contains("stages: cache "), "{timed}");
        assert!(!warm.render().contains("stages:"));
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
        // With PDR and the explicit engine disabled, the (true)
        // eventual-response obligation of the slow echo cannot be decided
        // by the lasso search alone — the report must say so.  The BMC
        // stage is the only one that runs, once.
        let ft = generate_ft(ECHO_SLOW, &AutosvaOptions::default()).unwrap();
        let options = CheckOptions {
            disable_pdr: true,
            disable_explicit: true,
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
        let engines: Vec<&str> = undecided.stages.iter().map(|s| s.engine).collect();
        assert_eq!(engines, ["bmc"], "{}", undecided.name);
        let note = undecided.note.as_ref().expect("caveat note attached");
        assert!(
            note.contains("lasso"),
            "note must explain the bound: {note}"
        );
        assert!(
            note.contains("within 10 cycles"),
            "note must state the searched depth: {note}"
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

    /// A response that fires, with no request, once a counter of `tick`s
    /// reaches 12: `had_a_request` fails first at cycle 12, deeper than the
    /// BMC stage searches (`BMC_BOUNDS`).
    const DEEP_GHOST: &str = r#"
/*AUTOSVA
deep_txn: req -in> res
req_val = req_val
req_ack = req_ack
res_val = res_val
*/
module deep_ghost (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic req_val,
  input  logic tick,
  output logic req_ack,
  output logic res_val
);
  logic [3:0] count_q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      count_q <= 4'd0;
    end else if (tick && count_q != 4'd12) begin
      count_q <= count_q + 4'd1;
    end
  end
  assign req_ack = 1'b1;
  assign res_val = count_q == 4'd12;
endmodule
"#;

    #[test]
    fn the_explicit_stage_reports_its_shortest_trace_without_minimizing_it() {
        let ft = generate_ft(DEEP_GHOST, &AutosvaOptions::default()).unwrap();
        let mut options = CheckOptions::default();
        options.fuzz.enabled = false;
        options.disable_pdr = true;
        options.telemetry.enabled = true;
        let report = verify(DEEP_GHOST, &ft, &options).unwrap();
        let row = report
            .results
            .iter()
            .find(|r| r.name.contains("had_a_request"))
            .expect("monitor property exists");
        assert_eq!(row.engine, Some("explicit"), "{}", report.render());
        assert_eq!(row.status.to_string(), "CEX (13 cycles)");
        let decider = row.stages.last().expect("a deciding stage");
        assert_eq!((decider.engine, decider.conflicts), ("explicit", 0));
        assert!(report.render().contains("CEX (13 cycles)"));
        let telemetry = report.telemetry.as_ref().expect("telemetry enabled");
        assert!(
            telemetry
                .spans
                .iter()
                .all(|span| span.phase != "engine.minimize"),
            "nothing is minimized"
        );
    }

    /// A handshake that answers every request the cycle after, until its
    /// age counter saturates at 15: from then on a request is never
    /// answered.  The only fair lassos of `eventual_response` have a stem of
    /// at least 15 cycles, deeper than the default lasso search.
    const LATE_STALL: &str = r#"
/*AUTOSVA
late_txn: req -in> res
req_val = req_val
req_ack = req_ack
res_val = res_val
*/
module late_stall (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic req_val,
  output logic req_ack,
  output logic res_val
);
  logic [3:0] age_q;
  logic       busy_q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      age_q <= 4'd0;
      busy_q <= 1'b0;
    end else begin
      if (age_q != 4'd15) begin
        age_q <= age_q + 4'd1;
      end
      if (req_val && req_ack) begin
        busy_q <= 1'b1;
      end else if (res_val) begin
        busy_q <= 1'b0;
      end
    end
  end
  assign req_ack = !busy_q;
  assign res_val = busy_q && age_q != 4'd15;
endmodule
"#;

    #[test]
    fn a_lasso_beyond_the_lasso_depth_is_found_by_the_explicit_stage_and_cached() {
        let ft = generate_ft(LATE_STALL, &AutosvaOptions::default()).unwrap();
        let dir =
            std::env::temp_dir().join(format!("autosva-checker-late-lasso-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut options = CheckOptions::default();
        options.parallel.cache = Some(crate::portfolio::ProofCache::open(&dir));
        let cold = verify(LATE_STALL, &ft, &options).unwrap();
        let row = |report: &VerificationReport| {
            let found = report
                .results
                .iter()
                .find(|r| r.name.contains("eventual_response"));
            found.expect("the liveness property exists").clone()
        };
        let late = row(&cold);
        assert_eq!(late.engine, Some("explicit"), "{}", cold.render());
        let trace = late.status.trace().expect("a counterexample lasso");
        assert!(trace.len() > BMC_BOUNDS.max_depth + 1, "{}", trace.len());
        let start = trace.loop_start().expect("a lasso names its loop start");
        assert!(start >= 15, "the stem reaches the saturated age: {start}");

        // A warm run, in process and from disk, replays the cached lasso
        // and renders it identically.
        let warm = verify(LATE_STALL, &ft, &options).unwrap();
        assert_eq!(row(&warm).engine, Some("cache"));
        assert_eq!(warm.render(), cold.render());
        options.parallel.cache = Some(crate::portfolio::ProofCache::open(&dir));
        let disk = verify(LATE_STALL, &ft, &options).unwrap();
        assert_eq!(row(&disk).engine, Some("cache"));
        assert_eq!(row(&disk).status, late.status);
        let stats = disk.cache_stats.expect("a cache");
        assert_eq!((stats.misses, stats.rejected), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An accumulator that adds the 2-bit input `a` every cycle, and its
    /// target: the accumulator at 45, first reachable at depth 15.
    fn accumulator() -> (Model, BadProperty) {
        let mut aig = crate::aig::Aig::new();
        let a: Vec<Lit> = (0..2).map(|i| aig.add_input(format!("a{i}"))).collect();
        let acc: Vec<Lit> = (0..6)
            .map(|i| aig.add_latch(format!("acc{i}"), false))
            .collect();
        let a = crate::words::resize(&a, 6);
        let sum = crate::words::add(&mut aig, &acc, &a);
        for (&latch, &next) in acc.iter().zip(&sum) {
            aig.set_latch_next(latch, next);
        }
        let target = crate::words::constant(45, 6);
        let lit = crate::words::eq(&mut aig, &acc, &target);
        let bad = BadProperty {
            name: "reaches_45".into(),
            lit,
        };
        let mut model = Model::new(aig);
        model.bads.push(bad.clone());
        (model, bad)
    }

    #[test]
    fn a_tiny_word_budget_hands_the_ladder_the_depth_it_reached() {
        let (model, bad) = accumulator();
        let (solver, none) = (SolverConfig::default(), Interrupt::none());
        let (from_zero, zero_stats) = shortest_trace(&model, &bad, 30, 0, solver, &none);
        let (searched, searched_stats) = shortest_trace(&model, &bad, 30, u64::MAX, solver, &none);
        assert_eq!(from_zero.map(|t| t.len()), Some(16));
        assert_eq!(searched.map(|t| t.len()), Some(16));
        assert_eq!(searched_stats, SolverStats::default());
        // One word per state, and depth k adds the states 3k - 2 to 3k: 40
        // words stop the search at depth 14, and 43 at the first state of
        // depth 15, the target's, so the ladder's first query finds it.
        for (words, depth) in [(40, 14), (43, 15)] {
            assert_eq!(
                explicit::shortest(&model, bad.lit, words, &none),
                Shortest::NotBefore(depth)
            );
            let (handed, handed_stats) = shortest_trace(&model, &bad, 30, words, solver, &none);
            assert_eq!(handed.map(|t| t.len()), Some(16), "{words} words");
            assert!(
                handed_stats.conflicts < zero_stats.conflicts,
                "{words} words: {handed_stats:?} against {zero_stats:?}"
            );
        }
    }

    #[test]
    fn a_cone_outside_the_explicit_limits_is_minimized_by_the_ladder() {
        let (solver, none) = (SolverConfig::default(), Interrupt::none());
        let limits = ExplicitOptions::default();
        // 64 latches: a shift register of `x`, and its third stage as the
        // target, first set at cycle 3.
        let mut aig = crate::aig::Aig::new();
        let x = aig.add_input("x");
        let stages: Vec<Lit> = (0..64)
            .map(|i| aig.add_latch(format!("s{i}"), false))
            .collect();
        for (i, &stage) in stages.iter().enumerate() {
            let next = if i == 0 { x } else { stages[i - 1] };
            aig.set_latch_next(stage, next);
        }
        let wide = (Model::new(aig), stages[2]);
        // One more input than the explicit engine enumerates: a latch set
        // once every input is high.
        let mut aig = crate::aig::Aig::new();
        let inputs: Vec<Lit> = (0..=limits.max_inputs)
            .map(|i| aig.add_input(format!("i{i}")))
            .collect();
        let all = aig.and_many(&inputs);
        let seen = aig.add_latch("seen", false);
        aig.set_latch_next(seen, all);
        let many_inputs = (Model::new(aig), seen);

        for ((model, lit), length) in [(wide, 4), (many_inputs, 2)] {
            assert_eq!(
                explicit::shortest(&model, lit, u64::MAX, &none),
                Shortest::NotBefore(0)
            );
            let bad = BadProperty {
                name: "target".into(),
                lit,
            };
            let (trace, stats) = shortest_trace(&model, &bad, 10, u64::MAX, solver, &none);
            assert_eq!(trace.map(|t| t.len()), Some(length));
            assert!(stats.propagations > 0, "the ladder ran: {stats:?}");
        }
    }
}
