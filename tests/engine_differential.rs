//! Differential testing of the verification-engine portfolio.
//!
//! Random small sequential AIG models are generated from a seed and checked
//! by every engine of the cascade — BMC + k-induction (complete at these
//! sizes thanks to the loop-free-path strengthening), IC3/PDR, and the
//! exact explicit-state engine.  All engines must agree on the SAFE-vs-CEX
//! verdict; additionally every PDR proof must come with an inductive
//! invariant that re-certifies under an independent SAT check, and every
//! PDR counterexample must replay concretely in the two-state simulator.

use autosva_bench::{build_testbench, default_check_options};
use autosva_designs::{all_cases, elaborated, Variant};
use autosva_formal::aig::{Aig, Lit};
use autosva_formal::bmc::{check_target_budgeted, BmcOptions, SafetyResult};
use autosva_formal::checker::verify_elaborated;
use autosva_formal::coi::{cone_of_influence, SliceTarget};
use autosva_formal::explicit::{reach, ExplicitOptions, ExplicitResult};
use autosva_formal::fuzz::{fuzz_safety_budgeted, FuzzOptions};
use autosva_formal::interrupt::Interrupt;
use autosva_formal::model::{BadProperty, Model};
use autosva_formal::pdr::{check_pdr_budgeted, PdrOptions, PdrResult};
use autosva_formal::psim::replay;
use autosva_formal::sat::{SatLit, SatResult, SolverConfig};
use autosva_formal::trace::Trace;
use autosva_formal::unroll::Unroller;
use common::assert_provenance;
use proptest::prelude::*;

mod common;

/// Deterministic xorshift generator used to derive a random model from one
/// proptest-sampled seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn flip(&mut self) -> bool {
        self.next().is_multiple_of(2)
    }
}

/// Builds a random sequential model: `num_latches` latches, `num_inputs`
/// inputs, a soup of random gates over them, random next-state functions and
/// a random (usually deep or unreachable) bad literal.
fn random_model(seed: u64, num_latches: usize, num_inputs: usize, num_gates: usize) -> Model {
    let mut rng = XorShift(seed | 1);
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = Vec::new();
    for i in 0..num_inputs {
        pool.push(aig.add_input(format!("i{i}")));
    }
    let latches: Vec<Lit> = (0..num_latches)
        .map(|i| {
            let l = aig.add_latch(format!("l{i}"), rng.flip());
            pool.push(l);
            l
        })
        .collect();
    for _ in 0..num_gates {
        let a = pool[rng.below(pool.len())].invert_if(rng.flip());
        let b = pool[rng.below(pool.len())].invert_if(rng.flip());
        let g = match rng.below(3) {
            0 => aig.and(a, b),
            1 => aig.or(a, b),
            _ => aig.xor(a, b),
        };
        pool.push(g);
    }
    for &l in &latches {
        let next = pool[rng.below(pool.len())].invert_if(rng.flip());
        aig.set_latch_next(l, next);
    }
    // Bias the bad literal toward a conjunction so that reachable and
    // unreachable targets both occur frequently.
    let a = pool[rng.below(pool.len())].invert_if(rng.flip());
    let b = pool[rng.below(pool.len())].invert_if(rng.flip());
    let bad = aig.and(a, b);
    let mut model = Model::new(aig);
    model.bads.push(BadProperty {
        name: "random_bad".into(),
        lit: bad,
    });
    model
}

/// Replays a counterexample trace's inputs on the model and checks that the
/// bad monitor fires at the final cycle.
fn trace_replays(model: &Model, trace: &autosva_formal::trace::Trace) -> bool {
    let input =
        |cycle: usize, i: usize| trace.value(cycle, model.aig.input_name(i)).unwrap_or(false);
    replay(model, model.bads[0].lit, trace.len(), input).is_some()
}

/// Unbudgeted BMC + k-induction on `model.bads[0]` with the default solver.
fn bmc(model: &Model, options: &BmcOptions) -> SafetyResult {
    let (bad, config, none) = (&model.bads[0], SolverConfig::default(), Interrupt::none());
    check_target_budgeted(model, bad.lit, &bad.name, options, config, &none).0
}

/// Whether BMC + k-induction find `model.bads[0]` unreachable, searching
/// deep enough to be complete: the loop-free-path strengthening closes any
/// safe instance once the depth passes the recurrence diameter, at most
/// 2^5 here.
fn bmc_safe(model: &Model, what: &str) -> bool {
    match bmc(
        model,
        &BmcOptions {
            max_depth: 40,
            max_induction: 40,
        },
    ) {
        SafetyResult::Proven { .. } => true,
        SafetyResult::Violated(_) => false,
        other => panic!("{what}: bounded engines undecided on a tiny model: {other:?}"),
    }
}

/// Whether unbudgeted PDR under `config` finds `model.bads[0]` unreachable.
/// A proof's invariant must certify under an independent SAT check, and a
/// counterexample must replay concretely.
fn pdr_safe(model: &Model, config: SolverConfig, what: &str) -> bool {
    let bad = model.bads[0].lit;
    let options = PdrOptions::default();
    match check_pdr_budgeted(model, bad, &options, config, &Interrupt::none()).0 {
        PdrResult::Proven(invariant) => {
            assert!(
                invariant.certify(model, bad),
                "{what}: PDR invariant failed certification"
            );
            true
        }
        PdrResult::Violated(trace) => {
            assert!(
                trace_replays(model, &trace),
                "{what}: PDR counterexample does not replay"
            );
            false
        }
        other => panic!("{what}: PDR undecided on a tiny model: {other:?}"),
    }
}

/// The explicit engine's trace to `model.bads[0]` on a tiny model, or
/// `None` when exhaustive reachability (exact at these sizes) finds it
/// unreachable.
fn explicit_trace(model: &Model) -> Option<Trace> {
    let options = ExplicitOptions {
        max_states: 1 << 12,
        max_inputs: 8,
    };
    match reach(model, model.bads[0].lit, &options, &Interrupt::none()) {
        ExplicitResult::Proven => None,
        ExplicitResult::Violated(trace) => Some(trace),
        ExplicitResult::Exceeded => panic!("tiny model exceeded explicit limits"),
    }
}

/// Ground truth for a tiny model: exhaustive reachability decides whether
/// `model.bads[0]` is unreachable.
fn exactly_safe(model: &Model) -> bool {
    explicit_trace(model).is_none()
}

proptest! {
    /// BMC/k-induction, PDR and the explicit engine agree on every random
    /// model, PDR invariants certify, and PDR counterexamples replay.  On an
    /// unsafe model the explicit engine's breadth-first trace is as short
    /// as BMC's, which deepens one cycle at a time.
    #[test]
    fn engines_agree_on_random_models(
        seed in 1u64..u64::MAX,
        num_latches in 2usize..6,
        num_inputs in 1usize..3,
        num_gates in 4usize..14,
    ) {
        let model = random_model(seed, num_latches, num_inputs, num_gates);

        let trace = explicit_trace(&model);
        let exact_safe = trace.is_none();
        let what = format!("seed {seed}");
        if let Some(trace) = &trace {
            let deep = BmcOptions { max_depth: 40, max_induction: 0 };
            match bmc(&model, &deep) {
                SafetyResult::Violated(cex) => {
                    prop_assert_eq!(trace.len(), cex.len(), "shortest trace ({})", what)
                }
                other => panic!("{what}: BMC found no counterexample: {other:?}"),
            }
        }
        prop_assert_eq!(bmc_safe(&model, &what), exact_safe, "BMC against reachability ({})", what);
        prop_assert_eq!(
            pdr_safe(&model, SolverConfig::default(), &what),
            exact_safe,
            "PDR against reachability ({})",
            what
        );
    }

    /// PDR reaches the same verdict on every random model regardless of the
    /// solver feature configuration, its invariants certify under an
    /// independent SAT check, and its counterexamples replay concretely —
    /// so the solver modernization is engine-level verdict-preserving, not
    /// just SAT-level.
    #[test]
    fn pdr_agrees_across_solver_configurations(
        seed in 1u64..u64::MAX,
        num_latches in 2usize..6,
        num_inputs in 1usize..3,
        num_gates in 4usize..14,
    ) {
        let model = random_model(seed, num_latches, num_inputs, num_gates);
        let configs = [
            ("full", SolverConfig::default()),
            ("baseline", SolverConfig::baseline()),
            // Aggressive intervals so restarts and reduction fire even on
            // these tiny instances.
            ("aggressive", SolverConfig { restart_base: 2, reduce_base: 8, ..SolverConfig::default() }),
        ];
        let verdicts: Vec<(&str, bool)> = configs
            .into_iter()
            .map(|(label, config)| (label, pdr_safe(&model, config, &format!("{label}, seed {seed}"))))
            .collect();
        prop_assert!(
            verdicts.iter().all(|&(_, safe)| safe == verdicts[0].1),
            "solver configurations disagree under PDR: {verdicts:?} (seed {seed})"
        );
    }

    /// Every solver feature configuration — restarts, recursive clause
    /// minimization and learnt-database reduction individually toggled off,
    /// the all-off baseline, and an aggressive setting that forces restarts
    /// and reduction to fire even on tiny instances — reaches the same
    /// SAT/UNSAT verdict on random AIG BMC instances, and every UNSAT
    /// answer yields a valid unsat core (a subset of the assumptions that
    /// is itself unsatisfiable).
    #[test]
    fn solver_features_agree_on_random_bmc_instances(
        seed in 1u64..u64::MAX,
        num_latches in 2usize..6,
        num_inputs in 1usize..3,
        num_gates in 4usize..14,
        depth in 1usize..8,
    ) {
        let model = random_model(seed, num_latches, num_inputs, num_gates);
        let bad = model.bads[0].lit;
        let configs = [
            ("full", SolverConfig::default()),
            ("no-restarts", SolverConfig { restarts: false, ..SolverConfig::default() }),
            ("no-minimize", SolverConfig { minimize: false, ..SolverConfig::default() }),
            ("no-reduce", SolverConfig { reduce: false, ..SolverConfig::default() }),
            ("baseline", SolverConfig::baseline()),
            ("aggressive", SolverConfig { restart_base: 2, reduce_base: 8, ..SolverConfig::default() }),
        ];
        let mut verdicts: Vec<(&str, Vec<bool>)> = Vec::new();
        for (label, config) in configs {
            let mut unroller = Unroller::with_config(&model.aig, true, config);
            let mut per_frame = Vec::with_capacity(depth + 1);
            for frame in 0..=depth {
                // Assume the bad literal fires at `frame` while the latches
                // sit at their reset values in frame 0 — multi-literal
                // assumption sets so UNSAT answers carry non-trivial cores.
                let mut assumptions: Vec<SatLit> = vec![unroller.lit_in_frame(bad, frame)];
                for latch in model.aig.latches().to_vec() {
                    let sl = unroller.lit_in_frame(
                        autosva_formal::aig::Lit::new(latch.node, !latch.init),
                        0,
                    );
                    assumptions.push(sl);
                }
                let result = unroller.solve_sat(&assumptions);
                if result == SatResult::Unsat {
                    let core = unroller.unsat_core().to_vec();
                    for l in &core {
                        prop_assert!(
                            assumptions.contains(l),
                            "{label}: core literal {l} not among the assumptions (seed {seed})"
                        );
                    }
                    prop_assert_eq!(
                        unroller.solve_sat(&core),
                        SatResult::Unsat,
                        "{} produced a satisfiable core (seed {})", label, seed
                    );
                }
                per_frame.push(result == SatResult::Sat);
            }
            verdicts.push((label, per_frame));
        }
        for window in verdicts.windows(2) {
            prop_assert_eq!(
                &window[0].1,
                &window[1].1,
                "solver configs {} and {} disagree (seed {})",
                window[0].0,
                window[1].0,
                seed
            );
        }
    }

    /// Cone-of-influence slicing is verdict-preserving: the sliced model
    /// must agree with the full model (whose ground truth comes from
    /// exhaustive explicit-state exploration) on every random AIG, under
    /// both the bounded engines and PDR, and the slice never grows.
    #[test]
    fn sliced_and_unsliced_verdicts_agree(
        seed in 1u64..u64::MAX,
        num_latches in 2usize..6,
        num_inputs in 1usize..3,
        num_gates in 4usize..14,
    ) {
        let model = random_model(seed, num_latches, num_inputs, num_gates);
        let slice = cone_of_influence(&model, SliceTarget::Bad(0));

        prop_assert!(
            slice.model.aig.num_latches() <= model.aig.num_latches(),
            "slice grew the latch set (seed {seed})"
        );
        prop_assert!(
            slice.model.aig.num_ands() <= model.aig.num_ands(),
            "slice grew the gate count (seed {seed})"
        );
        // Re-slicing the same property yields the same fingerprint.
        prop_assert_eq!(
            cone_of_influence(&model, SliceTarget::Bad(0)).fingerprint,
            slice.fingerprint
        );

        // Ground truth from the full model.
        let exact_safe = exactly_safe(&model);

        // The bounded engines and PDR on the slice, PDR's certificate
        // checked against the slice.
        let what = format!("slice, seed {seed}");
        prop_assert_eq!(bmc_safe(&slice.model, &what), exact_safe, "sliced BMC ({})", what);
        prop_assert_eq!(
            pdr_safe(&slice.model, SolverConfig::default(), &what),
            exact_safe,
            "sliced PDR ({})",
            what
        );
    }

    /// The AIG optimization pass is verdict-preserving and idempotent: on
    /// every random model the optimized AIG agrees with the unoptimized
    /// ground truth (exhaustive explicit-state exploration) through the
    /// bounded engines and PDR, never grows, and re-optimizing is a
    /// fingerprint fixpoint.
    #[test]
    fn optimized_and_unoptimized_verdicts_agree(
        seed in 1u64..u64::MAX,
        num_latches in 2usize..6,
        num_inputs in 1usize..3,
        num_gates in 4usize..14,
    ) {
        use autosva_formal::coi::fingerprint;
        use autosva_formal::opt;

        let model = random_model(seed, num_latches, num_inputs, num_gates);
        let optimized = opt::optimize(&model).0;

        prop_assert!(
            optimized.aig.num_latches() <= model.aig.num_latches(),
            "optimization grew the latch set (seed {seed})"
        );
        prop_assert!(
            optimized.aig.num_ands() <= model.aig.num_ands(),
            "optimization grew the gate count (seed {seed})"
        );

        // Idempotence: a second pass is a fingerprint fixpoint.
        let fp = fingerprint(&optimized);
        prop_assert_eq!(
            fingerprint(&opt::optimize(&optimized).0),
            fp,
            "optimization is not idempotent (seed {})", seed
        );

        // Ground truth from the unoptimized model.
        let exact_safe = exactly_safe(&model);

        // The bounded engines and PDR on the optimized model, PDR's
        // certificate checked against it.
        let what = format!("optimized, seed {seed}");
        prop_assert_eq!(bmc_safe(&optimized, &what), exact_safe, "optimized BMC ({})", what);
        prop_assert_eq!(
            pdr_safe(&optimized, SolverConfig::default(), &what),
            exact_safe,
            "optimized PDR ({})",
            what
        );
    }

    /// The pre-cascade stimulus fuzzer never contradicts the SAT engines:
    /// every violation it reports is confirmed by BMC as a counterexample at
    /// the same depth (the re-minimization the cascade relies on), and it
    /// never reports a violation for a property PDR proves.
    #[test]
    fn fuzzer_agrees_with_the_sat_engines_on_random_models(
        seed in 1u64..u64::MAX,
        num_latches in 2usize..6,
        num_inputs in 1usize..3,
        num_gates in 4usize..14,
    ) {
        let model = random_model(seed, num_latches, num_inputs, num_gates);
        let (hit, _) = fuzz_safety_budgeted(&model, 0, &FuzzOptions::default(), &Interrupt::none());

        if let Some(trace) = &hit {
            // The hit's own trace is concrete evidence — it must replay —
            // and bounding BMC by the fuzzed depth must find the bug too.
            let cycle = trace.len() - 1;
            prop_assert!(
                trace_replays(&model, trace),
                "fuzz counterexample does not replay (seed {seed})"
            );
            prop_assert!(
                matches!(
                    bmc(&model, &BmcOptions { max_depth: cycle, max_induction: 0 }),
                    SafetyResult::Violated(_)
                ),
                "fuzz hit at cycle {} is not a BMC counterexample at that depth (seed {seed})",
                cycle
            );
        }

        if pdr_safe(&model, SolverConfig::default(), &format!("seed {seed}")) {
            prop_assert!(
                hit.is_none(),
                "fuzzer reported a violation for a PDR-proven property (seed {seed})"
            );
        }
    }
}

/// The struct-aware front end is a zero-cost view over flat signals: the
/// struct-port demo design (`fu_data_t` port, `fu_data_i.fu == LOAD`-style
/// annotations) and its hand-flattened twin must verify through the full
/// cascade to **byte-identical** deterministic reports, and every property's
/// cone-of-influence slice must carry an identical content fingerprint.
#[test]
fn struct_and_flat_twin_reports_are_byte_identical() {
    use autosva::{generate_ft, AutosvaOptions};
    use autosva_formal::checker::{verify, CheckOptions};
    use autosva_formal::coi::Fingerprint;
    use autosva_formal::compile::compile;
    use autosva_formal::elab::{elaborate, ElabOptions};

    let sources = autosva_designs::struct_demo_sources();
    assert_eq!(sources.len(), 2);

    let mut reports: Vec<String> = Vec::new();
    let mut fingerprints: Vec<Vec<(String, Fingerprint)>> = Vec::new();
    for (label, top, source) in &sources {
        let ft = generate_ft(source, &AutosvaOptions::default())
            .unwrap_or_else(|e| panic!("{label}: testbench generation failed: {e}"));
        assert_eq!(&ft.dut_name, top);
        let report = verify(source, &ft, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("{label}: verification failed: {e}"));
        // The struct design must verify through the full cascade: every
        // assertion proven, both cover targets reachable, nothing undecided.
        assert_eq!(report.violations(), 0, "{label}:\n{}", report.render());
        assert!(
            (report.proof_rate() - 1.0).abs() < f64::EPSILON,
            "{label}: expected a full proof:\n{}",
            report.render()
        );
        reports.push(report.render());

        // Per-property COI slice fingerprints.
        let file = svparse::parse(source).unwrap();
        let design = elaborate(
            &file,
            &ElabOptions {
                top: Some(top.to_string()),
                ..ElabOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{label}: elaboration failed: {e}"));
        let compiled = compile(&design, &ft).unwrap();
        let mut fps = Vec::new();
        for (i, bad) in compiled.model.bads.iter().enumerate() {
            let slice = cone_of_influence(&compiled.model, SliceTarget::Bad(i));
            fps.push((format!("bad:{}", bad.name), slice.fingerprint));
        }
        for (i, cover) in compiled.model.covers.iter().enumerate() {
            let slice = cone_of_influence(&compiled.model, SliceTarget::Cover(i));
            fps.push((format!("cover:{}", cover.name), slice.fingerprint));
        }
        for (i, live) in compiled.model.liveness.iter().enumerate() {
            let slice = cone_of_influence(&compiled.model, SliceTarget::Liveness(i));
            fps.push((format!("liveness:{}", live.name), slice.fingerprint));
        }
        assert!(!fps.is_empty(), "{label}: no properties compiled");
        fingerprints.push(fps);
    }

    assert_eq!(
        reports[0], reports[1],
        "struct and flat twin reports diverge:\n--- struct ---\n{}\n--- flat ---\n{}",
        reports[0], reports[1]
    );
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "struct and flat twin COI fingerprints diverge"
    );
}

/// The orchestrator's determinism contract: a fully sequential run
/// (`threads = 1`) and a parallel run (`threads = 4`) of the whole Table III
/// corpus must render byte-identical reports — same statuses, same proof
/// artifacts, same slice sizes, independent of thread interleaving — with
/// the AIG optimization pass both enabled and disabled.  Both runs also
/// carry consistent per-row provenance.
#[test]
fn parallel_and_sequential_corpus_reports_are_byte_identical() {
    for case in all_cases() {
        let variants: &[Variant] = if case.has_bug_parameter {
            &[Variant::Fixed, Variant::Buggy]
        } else {
            &[Variant::Fixed]
        };
        for &variant in variants {
            let ft = build_testbench(&case);
            let design = elaborated(&case, variant);

            for opt in [true, false] {
                let mut sequential = default_check_options(&case, variant);
                sequential.parallel.threads = 1;
                sequential.parallel.opt = opt;
                let seq_report =
                    verify_elaborated(&design, &ft, &sequential).expect("sequential run succeeds");

                let mut parallel = default_check_options(&case, variant);
                parallel.parallel.threads = 4;
                parallel.parallel.opt = opt;
                let par_report =
                    verify_elaborated(&design, &ft, &parallel).expect("parallel run succeeds");

                assert_eq!(
                    seq_report.render(),
                    par_report.render(),
                    "{} ({variant:?}, opt={opt}): sequential and parallel reports diverge",
                    case.id
                );
                let label = format!("{} ({variant:?}, opt={opt})", case.id);
                assert_provenance(&seq_report, &label);
                assert_provenance(&par_report, &label);
            }
        }
    }
}

/// The fuzzer's determinism contract: the rendered report of the whole
/// Table III corpus is byte-identical with the fuzz stage on or off, for
/// any stimulus seed, in both sequential and parallel runs.  (Confirmed
/// fuzz hits are re-minimized through bounded BMC before reporting, so the
/// *verdict and trace length* never depend on which engine got there
/// first; provenance is only visible through the timed rendering.)
#[test]
fn fuzz_on_and_off_corpus_reports_are_byte_identical() {
    for case in all_cases() {
        let variants: &[Variant] = if case.has_bug_parameter {
            &[Variant::Fixed, Variant::Buggy]
        } else {
            &[Variant::Fixed]
        };
        for &variant in variants {
            let ft = build_testbench(&case);
            let design = elaborated(&case, variant);

            for threads in [1usize, 4] {
                let mut baseline = default_check_options(&case, variant);
                baseline.parallel.threads = threads;
                baseline.fuzz.enabled = false;
                let baseline_render = verify_elaborated(&design, &ft, &baseline)
                    .expect("fuzz-off run succeeds")
                    .render();

                for seed in [FuzzOptions::default().seed, 1u64] {
                    let mut fuzzed = default_check_options(&case, variant);
                    fuzzed.parallel.threads = threads;
                    fuzzed.fuzz.enabled = true;
                    fuzzed.fuzz.seed = seed;
                    let fuzzed_render = verify_elaborated(&design, &ft, &fuzzed)
                        .expect("fuzz-on run succeeds")
                        .render();
                    assert_eq!(
                        baseline_render, fuzzed_render,
                        "{} ({variant:?}, threads={threads}, seed={seed:#x}): \
                         fuzz-on and fuzz-off reports diverge",
                        case.id
                    );
                }
            }
        }
    }
}

/// The telemetry determinism contract: instrumenting the run must not
/// perturb it.  Across the whole Table III corpus, `render()` is
/// byte-identical with telemetry on or off, sequential or parallel — the
/// spans, counters and gauges only ever observe the cascade, never steer
/// it — and the deterministic subset of the telemetry JSON report is
/// byte-identical between the sequential and parallel collection runs.
#[test]
fn telemetry_on_and_off_corpus_reports_are_byte_identical() {
    for case in all_cases() {
        let variants: &[Variant] = if case.has_bug_parameter {
            &[Variant::Fixed, Variant::Buggy]
        } else {
            &[Variant::Fixed]
        };
        for &variant in variants {
            let ft = build_testbench(&case);
            let design = elaborated(&case, variant);

            let mut deterministic_jsons: Vec<String> = Vec::new();
            for threads in [1usize, 4] {
                let mut off = default_check_options(&case, variant);
                off.parallel.threads = threads;
                let off_render = verify_elaborated(&design, &ft, &off)
                    .expect("telemetry-off run succeeds")
                    .render();

                let mut on = default_check_options(&case, variant);
                on.parallel.threads = threads;
                on.telemetry.enabled = true;
                let on_report =
                    verify_elaborated(&design, &ft, &on).expect("telemetry-on run succeeds");
                assert_eq!(
                    off_render,
                    on_report.render(),
                    "{} ({variant:?}, threads={threads}): telemetry-on and -off reports diverge",
                    case.id
                );
                let telemetry = on_report
                    .telemetry
                    .as_ref()
                    .expect("telemetry-on run carries a telemetry report");
                assert!(
                    !telemetry.spans.is_empty(),
                    "{}: no spans recorded",
                    case.id
                );
                deterministic_jsons.push(telemetry.deterministic_json());
            }
            assert_eq!(
                deterministic_jsons[0], deterministic_jsons[1],
                "{} ({variant:?}): the deterministic telemetry subset depends on the \
                 thread count",
                case.id
            );
        }
    }
}

/// The measured acceptance bar for the optimization pass: across every COI
/// slice of the whole corpus (both variants), optimization shrinks the
/// summed gate count by at least 15%.
#[test]
fn optimization_shrinks_the_summed_corpus_slices_by_at_least_15_percent() {
    use autosva_formal::opt;

    let mut before_total = 0usize;
    let mut after_total = 0usize;
    for case in all_cases() {
        for variant in [Variant::Buggy, Variant::Fixed] {
            if variant == Variant::Buggy && !case.has_bug_parameter {
                continue;
            }
            let design = elaborated(&case, variant);
            let ft = build_testbench(&case);
            let compiled =
                autosva_formal::compile::compile(&design, &ft).expect("corpus case compiles");
            let model = &compiled.model;
            let mut slices: Vec<SliceTarget> = Vec::new();
            slices.extend((0..model.bads.len()).map(SliceTarget::Bad));
            slices.extend((0..model.covers.len()).map(SliceTarget::Cover));
            slices.extend((0..model.liveness.len()).map(SliceTarget::Liveness));
            for target in slices {
                let slice = cone_of_influence(model, target);
                before_total += slice.model.aig.num_ands();
                after_total += opt::optimize(&slice.model).0.aig.num_ands();
            }
        }
    }
    let reduction = 100.0 * (before_total - after_total) as f64 / before_total.max(1) as f64;
    assert!(
        reduction >= 15.0,
        "optimization shrank summed corpus slice gates by only {reduction:.1}% \
         ({before_total} -> {after_total}); the documented bar is 15%"
    );
}
