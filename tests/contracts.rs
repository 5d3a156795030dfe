//! The contract suite: every guarantee a verdict rests on, checked on the
//! whole Table III corpus from one table.
//!
//! For each of the 11 case/variant runs the suite computes one reference
//! report (`default_check_options` at 4 threads, filling an in-memory proof
//! cache) and then runs every row of [`ROWS`] against it.  A row changes
//! the reference options once and names what its report must equal: the
//! reference's `render()`, the opt-off row's `render()` (opt changes cone
//! sizes), or only the verdict counts; some rows add checks of their own.
//! Together the rows assert that a verdict does not depend on the thread
//! count, fuzzing, opt, the solver configuration, telemetry or the proof
//! cache; that fuzz-found counterexamples are tagged and dumped as
//! valid waveforms; and that a fault in one engine stays in one row.
//!
//! Faults are listed per run, in `CheckOptions::faults`.  Traces, sinks,
//! waveforms and disk caches go under `CARGO_TARGET_TMPDIR`.
//!
//! ```sh
//! cargo test -q --test contracts
//! ```

use autosva::sva::Directive;
use autosva::{FormalTestbench, PropertyClass};
use autosva_bench::{build_testbench, default_check_options, status_counts};
use autosva_designs::{all_cases, elaborated, DesignCase, Variant};
use autosva_formal::checker::{
    verify, verify_elaborated, CheckOptions, PropertyResult, PropertyStatus, VerificationReport,
};
use autosva_formal::elab::ElabDesign;
use autosva_formal::faults::{Fault, FaultAction};
use autosva_formal::portfolio::ProofCache;
use autosva_formal::sat::SolverConfig;
use autosva_formal::telemetry::{validate_chrome_trace, TelemetryReport};
use autosva_formal::vcd;
use common::assert_provenance;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod common;

/// What a row's report must equal.
enum Expect {
    /// The reference's `render()`, byte for byte.
    Render,
    /// The "opt off" row's `render()`: opt off changes cone sizes.
    OptOffRender,
    /// Only the reference's verdict counts; proofs and traces may differ.
    Counts,
    /// The reference's `render()` with exactly two rows degraded: a panic
    /// injected at `bmc.depth_step` on the first safety assertion, and a
    /// timeout injected at `fuzz.round` on the second.
    Contained,
    /// Nothing beyond the row's own check.
    Own,
}

/// One row of the contract table.
struct Row {
    name: &'static str,
    /// Whether the row applies to a case/variant run.
    applies: fn(&Run) -> bool,
    /// Runs `verify` on the RTL source instead of `verify_elaborated` on
    /// the process-cached design: a fresh elaboration with fresh hash maps,
    /// and the `parse` and `elab` spans.
    from_source: bool,
    /// Changes the reference options.
    configure: fn(&mut CheckOptions, &Run),
    expect: Expect,
    /// Further checks on the row's report.
    check: fn(&VerificationReport, &Run, &mut Corpus),
}

/// The name the reference report is kept under.
const REFERENCE: &str = "reference";

/// What a row does unless it says otherwise: it applies to every run,
/// verifies the cached design and must render like the reference.
const ROW: Row = Row {
    name: "",
    applies: every_run,
    from_source: false,
    configure: |_, _| {},
    expect: Expect::Render,
    check: no_check,
};

/// The rows, in order: a row may read the report of an earlier one.
const ROWS: &[Row] = &[
    Row {
        name: "threads 1, disk cache cold",
        from_source: true,
        configure: |o, run| {
            o.parallel.threads = 1;
            o.parallel.cache = Some(ProofCache::open(run.dir.join("cache")));
        },
        ..ROW
    },
    Row {
        name: "memory cache warm",
        configure: |o, run| o.parallel.cache = Some(run.cache.clone()),
        check: assert_warm,
        ..ROW
    },
    Row {
        name: "disk cache warm",
        from_source: true,
        configure: |o, run| o.parallel.cache = Some(ProofCache::open(run.dir.join("cache"))),
        check: assert_warm,
        ..ROW
    },
    Row {
        name: "fuzz off",
        configure: |o, _| {
            o.parallel.threads = 1;
            o.fuzz.enabled = false;
        },
        ..ROW
    },
    Row {
        name: "fuzz seed 1",
        configure: |o, _| o.fuzz.seed = 1,
        ..ROW
    },
    Row {
        name: "opt off",
        configure: |o, _| o.parallel.opt = false,
        expect: Expect::Counts,
        ..ROW
    },
    Row {
        name: "opt off, threads 1",
        configure: |o, _| {
            o.parallel.opt = false;
            o.parallel.threads = 1;
        },
        expect: Expect::OptOffRender,
        ..ROW
    },
    Row {
        name: "solver baseline",
        configure: |o, _| o.solver = SolverConfig::baseline(),
        expect: Expect::Counts,
        ..ROW
    },
    Row {
        name: "telemetry, both sinks",
        from_source: true,
        configure: |o, run| {
            o.telemetry.enabled = true;
            o.telemetry.trace_path = Some(run.dir.join("trace.json"));
            o.telemetry.json_path = Some(run.dir.join("telemetry.json"));
        },
        check: assert_sinks,
        ..ROW
    },
    Row {
        name: "telemetry, threads 1",
        from_source: true,
        configure: |o, _| {
            o.telemetry.enabled = true;
            o.parallel.threads = 1;
        },
        check: |report, run, _| {
            let sinks = &run.reports["telemetry, both sinks"];
            let subset = |r: &VerificationReport| telemetry(r).deterministic_json();
            assert_eq!(subset(report), subset(sinks), "{}: thread count", run.tag);
        },
        ..ROW
    },
    Row {
        name: "fuzz alone",
        configure: |o, run| {
            o.disable_bmc = true;
            o.disable_pdr = true;
            o.disable_explicit = true;
            o.vcd.dir = Some(run.dir.join("vcd"));
        },
        expect: Expect::Own,
        check: assert_fuzz_alone,
        ..ROW
    },
    Row {
        name: "fault",
        applies: |run| {
            run.variant == Variant::Fixed && safety_assertions(run.reference()).len() >= 2
        },
        configure: |o, run| o.faults = faults(run.reference()),
        expect: Expect::Contained,
        check: |_, _, corpus| corpus.faults_contained += 1,
        ..ROW
    },
    Row {
        name: "bounded, PDR off",
        applies: pdr_designs,
        configure: |o, _| {
            bounded(o);
            o.disable_pdr = true;
        },
        expect: Expect::Own,
        ..ROW
    },
    Row {
        name: "bounded, PDR on",
        applies: pdr_designs,
        configure: |o, _| bounded(o),
        expect: Expect::Own,
        check: |report, run, _| {
            let unknown = |r: &VerificationReport| status_counts(r).3;
            let (with, without) = (unknown(report), unknown(&run.reports["bounded, PDR off"]));
            assert!(with <= without, "{}: PDR lost verdicts", run.tag);
        },
        ..ROW
    },
];

/// Phases that must fire somewhere in the corpus.  `engine.explicit` and
/// `cache.lookup` are absent on purpose: the default cascade never reaches
/// the explicit engine on the corpus, and the telemetry rows run without
/// a proof cache.
const REQUIRED_PHASES: &str = "parse elab compile lint slice opt opt.pass task \
    engine.fuzz fuzz.round engine.bmc bmc.solve engine.pdr pdr.solve";

/// One case/variant run of the corpus: its inputs, its caches, and the
/// reports of the rows checked so far.
struct Run {
    case: DesignCase,
    variant: Variant,
    /// `<case id>_<variant>`, naming the run in failures and on disk.
    tag: String,
    ft: FormalTestbench,
    design: Arc<ElabDesign>,
    /// The in-memory proof cache the reference fills.
    cache: ProofCache,
    /// This run's directory for the disk cache, sinks and waveforms.
    dir: PathBuf,
    /// Reports by row name, the reference under [`REFERENCE`].
    reports: HashMap<&'static str, VerificationReport>,
}

impl Run {
    fn new(case: DesignCase, variant: Variant, root: &Path) -> Run {
        let tag = format!("{}_{variant:?}", case.id);
        Run {
            ft: build_testbench(&case),
            design: elaborated(&case, variant),
            cache: ProofCache::new(),
            dir: root.join(&tag),
            reports: HashMap::new(),
            case,
            variant,
            tag,
        }
    }

    /// The reference options: the corpus defaults at 4 threads.
    fn options(&self) -> CheckOptions {
        let mut options = default_check_options(&self.case, self.variant);
        options.parallel.threads = 4;
        options
    }

    fn verify(&self, options: &CheckOptions, from_source: bool) -> VerificationReport {
        let report = if from_source {
            verify(self.case.source, &self.ft, options)
        } else {
            verify_elaborated(&self.design, &self.ft, options)
        };
        report.unwrap_or_else(|e| panic!("{}: verification failed: {e}", self.tag))
    }

    fn reference(&self) -> &VerificationReport {
        &self.reports[REFERENCE]
    }
}

/// What the rows add up over the whole corpus.
#[derive(Default)]
struct Corpus {
    /// Spans per phase in the "telemetry, both sinks" rows.
    phase_spans: BTreeMap<&'static str, usize>,
    /// Safety violations the fuzzer found alone.
    fuzz_violations: usize,
    /// Runs whose injected faults stayed in their target rows.
    faults_contained: usize,
}

#[test]
fn every_contract_holds_on_the_whole_corpus() {
    silence_injected_panics();
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("contracts");
    let _ = std::fs::remove_dir_all(&root);
    let mut corpus = Corpus::default();
    for case in all_cases() {
        let variants: &[Variant] = if case.has_bug_parameter {
            &[Variant::Fixed, Variant::Buggy]
        } else {
            &[Variant::Fixed]
        };
        for &variant in variants {
            let mut run = Run::new(case, variant, &root);
            let mut options = run.options();
            options.parallel.cache = Some(run.cache.clone());
            let reference = run.verify(&options, false);
            check_reference(&reference, &run);
            run.reports.insert(REFERENCE, reference);
            for row in ROWS {
                if !(row.applies)(&run) {
                    continue;
                }
                let report = run_row(row, &run);
                (row.check)(&report, &run, &mut corpus);
                run.reports.insert(row.name, report);
            }
        }
    }
    for phase in REQUIRED_PHASES.split_whitespace() {
        let fired = corpus.phase_spans.get(phase).is_some_and(|&n| n > 0);
        assert!(fired, "phase {phase:?} never fired across the corpus");
    }
    assert!(corpus.fuzz_violations > 0, "the fuzzer alone found no bug");
    assert!(
        corpus.faults_contained > 0,
        "no corpus run hosted the faults"
    );
}

/// Runs one row and checks it against the reference.
fn run_row(row: &Row, run: &Run) -> VerificationReport {
    let label = format!("{} [{}]", run.tag, row.name);
    let mut options = run.options();
    (row.configure)(&mut options, run);
    let report = run.verify(&options, row.from_source);
    assert_provenance(&report, &label);
    let expected = match row.expect {
        Expect::Render => run.reference().render(),
        Expect::OptOffRender => run.reports["opt off"].render(),
        Expect::Contained => contained(run.reference()).render(),
        Expect::Counts => {
            let counts = status_counts(run.reference());
            assert_eq!(status_counts(&report), counts, "{label}: verdict counts");
            return report;
        }
        Expect::Own => return report,
    };
    assert_eq!(report.render(), expected, "{label}: render");
    report
}

/// Checks that hold of the reference itself.
fn check_reference(reference: &VerificationReport, run: &Run) {
    assert_provenance(reference, &run.tag);
    if run.variant == Variant::Buggy {
        for r in reference.results.iter().filter(|r| is_safety_violation(r)) {
            assert_eq!(
                r.engine,
                Some("fuzz"),
                "{}: {} found by SAT",
                run.tag,
                r.name
            );
        }
    }
}

/// A warm run answers every property from the cache: no lookup missed,
/// nothing was stored or rejected, so no engine ran.
fn assert_warm(report: &VerificationReport, run: &Run, _: &mut Corpus) {
    let stats = report.cache_stats.expect("a proof cache");
    let (hits, work) = (stats.hits, (stats.misses, stats.insertions, stats.rejected));
    assert!(hits > 0, "{}: the warm run had no cache hit", run.tag);
    assert_eq!(
        work,
        (0, 0, 0),
        "{}: (misses, insertions, rejected)",
        run.tag
    );
}

/// Both telemetry sinks are written and agree with the report.
fn assert_sinks(report: &VerificationReport, run: &Run, corpus: &mut Corpus) {
    let (tag, telemetry) = (&run.tag, telemetry(report));
    assert!(!telemetry.spans.is_empty(), "{tag}: no spans recorded");
    let trace = validate_chrome_trace(&read(&run.dir.join("trace.json")))
        .unwrap_or_else(|e| panic!("{tag}: invalid Chrome trace: {e}"));
    assert_eq!(trace.spans, telemetry.spans.len(), "{tag}: trace spans");
    let json = read(&run.dir.join("telemetry.json"));
    let subset = telemetry.deterministic_json();
    assert!(
        json.contains(subset.trim_end()),
        "{tag}: JSON sink lacks the subset"
    );
    for (phase, stat) in telemetry.phases() {
        *corpus.phase_spans.entry(phase).or_default() += stat.spans;
    }
}

/// With every SAT engine off, the fuzzer finds exactly the safety
/// violations of the fuzz-off cascade, each tagged `fuzz` and dumped as one
/// valid waveform.
fn assert_fuzz_alone(report: &VerificationReport, run: &Run, corpus: &mut Corpus) {
    let (tag, found) = (&run.tag, safety_violations(report));
    let cascade = safety_violations(&run.reports["fuzz off"]);
    assert_eq!(
        found, cascade,
        "{tag}: the fuzzer alone against the fuzz-off cascade"
    );
    let vcd_dir = run.dir.join("vcd");
    for r in report.results.iter().filter(|r| r.status.is_violation()) {
        assert_eq!(
            r.engine,
            Some("fuzz"),
            "{tag}: {} lacks the fuzz tag",
            r.name
        );
        let path = vcd_dir.join(vcd::file_name(&report.dut, &r.name));
        let waveform = vcd::validate(&read(&path))
            .unwrap_or_else(|e| panic!("{tag}: {} is invalid: {e}", path.display()));
        assert!(
            waveform.timestamps >= 2 && waveform.vars >= 2,
            "{tag}: {}",
            path.display()
        );
    }
    let waveforms = std::fs::read_dir(&vcd_dir).map_or(0, |dir| dir.count());
    assert_eq!(waveforms, found.len(), "{tag}: one waveform per violation");
    corpus.fuzz_violations += found.len();
}

/// The two faults of the "fault" row: a panic on the reference's first
/// safety assertion and a timeout on its second.
fn faults(reference: &VerificationReport) -> Vec<Fault> {
    let targets = safety_assertions(reference);
    let fault = |site, action, property: &String| Fault {
        site,
        action,
        property: property.clone(),
    };
    vec![
        fault("bmc.depth_step", FaultAction::Panic, &targets[0]),
        fault("fuzz.round", FaultAction::Timeout, &targets[1]),
    ]
}

/// The reference with the two fault targets degraded as promised.
fn contained(reference: &VerificationReport) -> VerificationReport {
    let targets = safety_assertions(reference);
    let mut expected = reference.clone();
    for r in &mut expected.results {
        if r.name == targets[0] {
            r.status = PropertyStatus::Error {
                engine: "bmc",
                message: "fault injected at bmc.depth_step".to_string(),
            };
            r.note = Some(
                "engine panic isolated to this property; other verdicts are unaffected".to_string(),
            );
        } else if r.name == targets[1] {
            r.status = PropertyStatus::Unknown;
            r.note = Some("undecided: budget exhausted in fuzz".to_string());
        }
    }
    expected
}

fn every_run(_: &Run) -> bool {
    true
}

/// The designs whose proofs need more than the bounded engines.
fn pdr_designs(run: &Run) -> bool {
    run.variant == Variant::Fixed && ["A1", "A2", "O1", "O2"].contains(&run.case.id)
}

/// The explicit engine off: the bounded-engine runs.
fn bounded(options: &mut CheckOptions) {
    options.disable_explicit = true;
}

fn no_check(_: &VerificationReport, _: &Run, _: &mut Corpus) {}

/// Names of the safety assertions, in annotation order.
fn safety_assertions(report: &VerificationReport) -> Vec<String> {
    report
        .results
        .iter()
        .filter(|r| r.directive == Directive::Assert && r.class == PropertyClass::Safety)
        .map(|r| r.name.clone())
        .collect()
}

/// A violated assertion the fuzzer is in scope for: any class but liveness.
fn is_safety_violation(r: &PropertyResult) -> bool {
    r.directive == Directive::Assert
        && r.class != PropertyClass::Liveness
        && r.status.is_violation()
}

fn safety_violations(report: &VerificationReport) -> BTreeSet<&str> {
    report
        .results
        .iter()
        .filter(|r| is_safety_violation(r))
        .map(|r| r.name.as_str())
        .collect()
}

fn telemetry(report: &VerificationReport) -> &TelemetryReport {
    report.telemetry.as_ref().expect("telemetry attached")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The injected panics are the point of the fault row; keep their messages
/// out of the test output.  Any other panic, a failed assertion included,
/// still reports through the default hook.
fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("fault injected at "));
        if !injected {
            default_hook(info);
        }
    }));
}
