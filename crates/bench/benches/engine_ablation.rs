//! Ablation of the verification-engine portfolio, its orchestrator, and
//! the SAT core underneath.
//!
//! Six sections:
//!
//! 1. **Engine ablation** — the checker layers four engines: shallow BMC
//!    (short counterexamples), k-induction (cheap proofs), IC3/PDR
//!    (reachability-dependent proofs with invariant certificates), and the
//!    exact explicit-state engine (last-resort fallback, exponential in the
//!    latch count).  The proof-heavy designs run under three configurations
//!    to show what each layer contributes.
//! 2. **Solver ablation** — the CDCL core's modern search-loop features
//!    (Luby restarts, recursive clause minimization, LBD-guided learnt
//!    database reduction) toggled on vs. off: a hard-instance section
//!    (pigeonhole + phase-transition random 3-SAT) asserts the
//!    full-feature solver needs fewer conflicts, and the whole corpus runs
//!    under both configurations asserting identical verdicts.
//! 3. **Optimization ablation** — the AIG static-analysis pass
//!    (structural hashing, sequential constant sweeping, dead-node
//!    elimination) measured over every cone-of-influence slice of the
//!    corpus: asserts the summed slice gate count shrinks by at least the
//!    documented 15%, and that the corpus verdicts are identical with the
//!    pass on and off.
//! 4. **Simulation ablation** — the pre-cascade stimulus fuzzer on vs.
//!    off over the whole corpus: asserts verdict counts agree and the
//!    rendered reports are byte-identical (the determinism contract), then
//!    times the buggy variants separately and asserts every safety
//!    violation closes *pre-SAT* — found by the fuzzer, carrying
//!    `engine: fuzz` provenance.
//! 5. **Orchestrator ablation** — the full Table III corpus runs
//!    sequentially on the full model (the pre-orchestrator baseline),
//!    parallel on per-property cone-of-influence slices, parallel with the
//!    in-memory proof cache (cold, then warm), and against an on-disk
//!    cache directory with a fresh cache handle per run (the fresh-process
//!    CLI/CI pattern) — with regression asserts that the cached and
//!    disk-warm re-runs beat the cold runs, render byte-identical reports,
//!    and that the cold parallel corpus run stays within the PR 3 budget.
//! 6. **Telemetry trajectory** — one instrumented corpus pass writing
//!    per-run telemetry JSON through the `CheckOptions::telemetry` file
//!    sink and aggregating the byte-stable deterministic subsets into
//!    `target/BENCH_engine_ablation.json` for commit-over-commit
//!    trajectory diffing.
//!
//! All sections assert their guarantees, so a cascade, solver or
//! orchestrator regression fails this bench (CI runs it with `-- --test`
//! as the engine smoke check).
//!
//! Run with `cargo bench -p autosva-bench --bench engine_ablation`.

use autosva_bench::{build_testbench, default_check_options, status_counts};
use autosva_designs::{all_cases, by_id, elaborated, Variant};
use autosva_formal::bmc::BmcOptions;
use autosva_formal::checker::{verify_elaborated, CheckOptions, Proof, VerificationReport};
use autosva_formal::portfolio::ProofCache;
use autosva_formal::sat::{SatLit, SatResult, Solver, SolverConfig};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
enum Config {
    /// Bounded engines only.
    BmcKind,
    /// Bounded engines + PDR.
    WithPdr,
    /// The full cascade (BMC → k-induction → PDR → explicit).
    Full,
}

impl Config {
    fn label(self) -> &'static str {
        match self {
            Config::BmcKind => "bmc+kind",
            Config::WithPdr => "+pdr",
            Config::Full => "full",
        }
    }
}

fn run(id: &str, config: Config) -> VerificationReport {
    let case = by_id(id).expect("case");
    let ft = build_testbench(&case);
    let mut options = default_check_options(&case, Variant::Fixed);
    options.disable_explicit = config != Config::Full;
    options.disable_pdr = config == Config::BmcKind;
    if config != Config::Full {
        // Keep the no-fallback configurations within a reasonable time
        // budget — and identical between `bmc+kind` and `+pdr`, so the
        // unknown-count comparison below isolates PDR's contribution.
        options.bmc = BmcOptions {
            max_depth: 15,
            max_induction: 10,
        };
        options.liveness_bmc = BmcOptions {
            max_depth: 10,
            max_induction: 6,
        };
    }
    let design = elaborated(&case, Variant::Fixed);
    let start = Instant::now();
    let report = verify_elaborated(&design, &ft, &options).expect("verification runs");
    let (proven, violated, covered, unknown) = status_counts(&report);
    println!(
        "{:<4} {:<28} {:<9} {:>9.1?}  proven {:>2}  violated {:>2}  covered {:>2}  unknown {:>2}  proof rate {:>3.0}%",
        case.id,
        case.title,
        config.label(),
        start.elapsed(),
        proven,
        violated,
        covered,
        unknown,
        report.proof_rate() * 100.0
    );
    report
}

/// Per-run (proven, violated, covered, unknown) verdict counts.
type VerdictCounts = (usize, usize, usize, usize);

/// Runs the whole corpus (fixed variants, plus buggy where one exists)
/// under one orchestrator configuration; returns the total checking
/// wall-clock, per-run summary tuples and the rendered (runtime-free)
/// reports for cross-config comparison.
fn corpus_run(
    label: &str,
    configure: impl Fn(&mut CheckOptions),
) -> (Duration, Vec<VerdictCounts>, Vec<String>) {
    let mut total = Duration::ZERO;
    let mut summaries = Vec::new();
    let mut renders = Vec::new();
    for case in all_cases() {
        let variants: &[Variant] = if case.has_bug_parameter {
            &[Variant::Fixed, Variant::Buggy]
        } else {
            &[Variant::Fixed]
        };
        for &variant in variants {
            let ft = build_testbench(&case);
            let design = elaborated(&case, variant);
            let mut options = default_check_options(&case, variant);
            configure(&mut options);
            let start = Instant::now();
            let report = verify_elaborated(&design, &ft, &options).expect("verification runs");
            total += start.elapsed();
            summaries.push(status_counts(&report));
            renders.push(report.render());
        }
    }
    println!("{label:<32} {total:>9.1?} total");
    (total, summaries, renders)
}

/// The hard-instance section of the solver ablation, solved under one
/// feature configuration.  Returns `(total conflicts, per-instance
/// verdicts)`.
///
/// The section is a small pigeonhole instance plus phase-transition random
/// 3-SAT at increasing sizes — the regime the modern search loop targets
/// (the solver is deterministic, so the counts are machine-independent).
/// Large pigeonhole instances are deliberately excluded: they need one
/// long, focused resolution proof, and Luby restarts are well known to be
/// counterproductive there (measured here too: PHP(9,8) takes ~4x the
/// conflicts with restarts on).  The corpus the checker actually solves is
/// BMC/PDR-style, where the features pay off.
fn solver_hard_instances(config: SolverConfig) -> (u64, Vec<SatResult>) {
    let mut conflicts = 0u64;
    let mut verdicts = Vec::new();

    // Pigeonhole PHP(7, 6): resolution pressure at a size where clause
    // minimization still outweighs the restart overhead.
    {
        let holes = 6usize;
        let mut s = Solver::with_config(config);
        let p: Vec<Vec<usize>> = (0..holes + 1)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let clause: Vec<SatLit> = row.iter().map(|&v| SatLit::pos(v)).collect();
            s.add_clause(&clause);
        }
        for hole in 0..holes {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in p.iter().skip(i1 + 1) {
                    s.add_clause(&[SatLit::neg(row1[hole]), SatLit::neg(row2[hole])]);
                }
            }
        }
        verdicts.push(s.solve(&[]));
        conflicts += s.stats.conflicts;
    }

    // Random 3-SAT at the m/n ≈ 4.26 phase transition: where restarts and
    // clause-database hygiene pay off, increasingly so with size.
    for (num_vars, num_clauses) in [(80usize, 341usize), (100, 426), (120, 511)] {
        for seed in 1u64..=8 {
            let mut s = Solver::with_config(config);
            let mut state = (seed ^ ((num_vars as u64) << 32)).wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..num_vars {
                s.new_var();
            }
            for _ in 0..num_clauses {
                let clause: Vec<SatLit> = (0..3)
                    .map(|_| SatLit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                    .collect();
                s.add_clause(&clause);
            }
            verdicts.push(s.solve(&[]));
            conflicts += s.stats.conflicts;
        }
    }
    (conflicts, verdicts)
}

fn solver_ablation() {
    println!("\nSolver ablation: modern search loop (restarts + minimization + reduction) vs. off");
    println!("{:-<130}", "");
    let (full_conflicts, full_verdicts) = solver_hard_instances(SolverConfig::default());
    let (off_conflicts, off_verdicts) = solver_hard_instances(SolverConfig::baseline());
    println!(
        "hard instances (pigeonhole + phase-transition 3-SAT): full {full_conflicts} conflicts, \
         feature-off {off_conflicts} conflicts ({:.2}x)",
        off_conflicts as f64 / full_conflicts.max(1) as f64
    );
    assert_eq!(
        full_verdicts, off_verdicts,
        "solver features changed a hard-instance verdict"
    );
    assert!(
        full_conflicts < off_conflicts,
        "the full-feature solver must need fewer conflicts on the hard-instance section \
         (full {full_conflicts} vs. off {off_conflicts})"
    );

    // The whole corpus under both configurations: identical verdict counts
    // (proof artifacts legitimately differ — a different search finds
    // different invariants and trace lengths; the differential suite
    // asserts per-engine verdict agreement separately).
    let (full_time, full_counts, _) = corpus_run("corpus, full solver features", |_| {});
    let (off_time, off_counts, _) = corpus_run("corpus, features off", |o| {
        o.solver = SolverConfig::baseline();
    });
    println!("corpus: full features {full_time:.1?}, features off {off_time:.1?}");
    assert_eq!(
        full_counts, off_counts,
        "solver features changed corpus verdicts"
    );
}

fn opt_ablation() {
    use autosva_formal::coi::{cone_of_influence, SliceTarget};
    use autosva_formal::compile::compile;
    use autosva_formal::opt;

    println!("\nOptimization ablation: per-slice AIG gates before/after the static-analysis pass");
    println!("{:-<130}", "");
    let mut before_total = 0usize;
    let mut after_total = 0usize;
    for case in all_cases() {
        for variant in [Variant::Buggy, Variant::Fixed] {
            if variant == Variant::Buggy && !case.has_bug_parameter {
                continue;
            }
            let design = elaborated(&case, variant);
            let ft = build_testbench(&case);
            let compiled = compile(&design, &ft).expect("corpus case compiles");
            let model = &compiled.model;
            let mut targets: Vec<SliceTarget> = Vec::new();
            targets.extend((0..model.bads.len()).map(SliceTarget::Bad));
            targets.extend((0..model.covers.len()).map(SliceTarget::Cover));
            targets.extend((0..model.liveness.len()).map(SliceTarget::Liveness));
            let mut before = 0usize;
            let mut after = 0usize;
            for target in targets {
                let slice = cone_of_influence(model, target);
                before += slice.model.aig.num_ands();
                after += opt::optimize(&slice.model).model.aig.num_ands();
            }
            println!(
                "{:<4} {:?}: slice gates {} -> {} ({:+.1}%)",
                case.id,
                variant,
                before,
                after,
                100.0 * (after as f64 - before as f64) / before.max(1) as f64
            );
            before_total += before;
            after_total += after;
        }
    }
    let reduction = 100.0 * (before_total - after_total) as f64 / before_total.max(1) as f64;
    println!(
        "summed corpus slice gates: {before_total} -> {after_total} ({reduction:.1}% reduction)"
    );
    assert!(
        reduction >= 15.0,
        "the optimization pass shrank summed corpus slice gates by only {reduction:.1}%; \
         the documented bar is 15%"
    );

    // Verdict preservation at corpus scale: the pass on (the default) and
    // off must reach identical verdict counts.
    let (on_time, on_counts, _) = corpus_run("corpus, optimization on", |_| {});
    let (off_time, off_counts, _) = corpus_run("corpus, optimization off", |o| {
        o.parallel.opt = false;
    });
    println!("corpus: optimization on {on_time:.1?}, off {off_time:.1?}");
    assert_eq!(
        on_counts, off_counts,
        "the optimization pass changed corpus verdicts"
    );
}

fn simulation_ablation() {
    use autosva::sva::{Directive, PropertyClass};

    println!("\nSimulation ablation: pre-cascade stimulus fuzzer on vs. off, full corpus");
    println!("{:-<130}", "");
    let (on_time, on_counts, on_renders) = corpus_run("corpus, fuzzer on", |_| {});
    let (off_time, off_counts, off_renders) = corpus_run("corpus, fuzzer off", |o| {
        o.fuzz.enabled = false;
    });
    println!("corpus: fuzzer on {on_time:.1?}, off {off_time:.1?}");
    assert_eq!(
        on_counts, off_counts,
        "the fuzz stage changed corpus verdicts"
    );
    assert_eq!(
        on_renders, off_renders,
        "the fuzz stage must not change a single report byte (confirmed hits \
         are re-minimized to the canonical trace length before reporting)"
    );

    // The buggy variants in isolation: every safety violation must close
    // *before* the first SAT query — found by the fuzzer and carrying its
    // provenance — and the wall-clock shows what skipping the SAT search
    // for the shallow bugs is worth.
    println!("{:-<130}", "");
    for case in all_cases() {
        if !case.has_bug_parameter {
            continue;
        }
        let ft = build_testbench(&case);
        let design = elaborated(&case, Variant::Buggy);
        let mut timings = Vec::new();
        let mut fuzz_found = 0usize;
        for enabled in [true, false] {
            let mut options = default_check_options(&case, Variant::Buggy);
            options.fuzz.enabled = enabled;
            let start = Instant::now();
            let report = verify_elaborated(&design, &ft, &options).expect("verification runs");
            timings.push(start.elapsed());
            if enabled {
                for r in &report.results {
                    if r.directive == Directive::Assert
                        && r.class != PropertyClass::Liveness
                        && r.status.is_violation()
                    {
                        assert_eq!(
                            r.engine,
                            Some("fuzz"),
                            "{} buggy: safety violation {} was not closed pre-SAT",
                            case.id,
                            r.name
                        );
                        fuzz_found += 1;
                    }
                }
            }
        }
        println!(
            "{:<4} buggy: {} safety violation(s) closed pre-SAT; fuzzer on {:>9.1?}, off {:>9.1?}",
            case.id, fuzz_found, timings[0], timings[1]
        );
    }
}

/// PR 3's release-mode cold full-corpus baseline was 2.6 s (PR 4's solver
/// work brought it to ~1.3–1.4 s on the same machine).  The absolute guard
/// uses 2x headroom so noisy shared CI runners don't flake, and a relative
/// parallel-vs-sequential guard (measured in the same process, so machine
/// speed cancels out) backs it up.
const COLD_CORPUS_BUDGET: Duration = Duration::from_millis(2 * 2600);

fn orchestrator_ablation() {
    println!(
        "\nOrchestrator ablation: sequential vs. parallel(COI) vs. parallel+cache vs. disk cache, full corpus"
    );
    println!("{:-<130}", "");
    let (seq_time, seq_counts, _) = corpus_run("sequential, full model", |o| {
        o.parallel.threads = 1;
        o.parallel.slice = false;
    });
    let (par_time, par_counts, _) = corpus_run("parallel, COI slices", |_| {});
    let cache = ProofCache::new();
    let (cold_time, cold_counts, cold_renders) = {
        let cache = cache.clone();
        corpus_run("parallel + cache (cold)", move |o| {
            o.parallel.cache = Some(cache.clone());
        })
    };
    let (warm_time, warm_counts, warm_renders) = {
        let cache = cache.clone();
        corpus_run("parallel + cache (warm)", move |o| {
            o.parallel.cache = Some(cache.clone());
        })
    };

    // Disk persistence: a cache directory with a *fresh* ProofCache handle
    // opened per verify call — exactly what two separate CLI/CI processes
    // sharing a cache directory see.
    let cache_dir = std::env::temp_dir().join(format!(
        "autosva-engine-ablation-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let (disk_cold_time, disk_cold_counts, disk_cold_renders) = {
        let dir = cache_dir.clone();
        corpus_run("disk cache (cold process)", move |o| {
            o.cache.dir = Some(dir.clone());
        })
    };
    let (disk_warm_time, disk_warm_counts, disk_warm_renders) = {
        let dir = cache_dir.clone();
        corpus_run("disk cache (warm process)", move |o| {
            o.cache.dir = Some(dir.clone());
        })
    };
    let _ = std::fs::remove_dir_all(&cache_dir);

    println!("{:-<130}", "");
    let stats = cache.stats();
    println!(
        "cache: {} entries, {} hits / {} misses / {} inserts / {} rejected",
        cache.len(),
        stats.hits,
        stats.misses,
        stats.insertions,
        stats.rejected
    );
    println!(
        "speedup: parallel {:.2}x over sequential, warm cache {:.2}x over cold, disk-warm {:.2}x over disk-cold",
        seq_time.as_secs_f64() / par_time.as_secs_f64().max(1e-9),
        cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9),
        disk_cold_time.as_secs_f64() / disk_warm_time.as_secs_f64().max(1e-9),
    );

    // Regression guards: every configuration reaches the same verdicts, and
    // the cached re-runs must beat the cold runs (they answer from
    // validated cache entries instead of re-running the engines).
    assert_eq!(
        seq_counts, par_counts,
        "sequential and parallel runs disagree on corpus verdicts"
    );
    assert_eq!(
        cold_counts, warm_counts,
        "cache hits changed corpus verdicts"
    );
    assert_eq!(
        cold_renders, warm_renders,
        "cache hits changed a corpus report byte-for-byte"
    );
    assert!(
        warm_time < cold_time,
        "cached re-run ({warm_time:?}) must be faster than the cold run ({cold_time:?})"
    );
    assert_eq!(stats.rejected, 0, "cache entries failed re-validation");
    if cfg!(not(debug_assertions)) {
        assert!(
            par_time <= COLD_CORPUS_BUDGET,
            "cold parallel corpus run ({par_time:?}) regressed past the PR 3 budget \
             ({COLD_CORPUS_BUDGET:?})"
        );
        // Relative backstop, immune to machine speed: the parallel sliced
        // run must not be slower than the sequential full-model run taken
        // in this same process.
        assert!(
            par_time.as_secs_f64() <= seq_time.as_secs_f64() * 1.5,
            "parallel sliced corpus run ({par_time:?}) is slower than sequential \
             ({seq_time:?})"
        );
    }

    // Disk-persistence guards: the fresh-process warm run answers from the
    // spill file — faster than its cold run and byte-identical.
    assert_eq!(
        disk_cold_counts, disk_warm_counts,
        "disk cache changed corpus verdicts"
    );
    assert_eq!(
        disk_cold_renders, disk_warm_renders,
        "disk-warm reports must match the cold reports byte-for-byte"
    );
    assert_eq!(
        cold_renders, disk_cold_renders,
        "the disk-backed cache must not change any verdict"
    );
    assert!(
        disk_warm_time < disk_cold_time,
        "disk-warm re-run ({disk_warm_time:?}) must beat the cold run ({disk_cold_time:?})"
    );
}

/// One instrumented corpus pass writing the telemetry trajectory:
/// per-run JSON reports through the [`CheckOptions::telemetry`] file sink
/// under `target/bench-telemetry/`, and the aggregated deterministic
/// subsets as `target/BENCH_engine_ablation.json` — fixed key order and
/// byte-stable across runs on any machine, so successive commits diff
/// directly (the `BENCH_*.json` trajectory convention).
fn write_bench_trajectory() {
    println!("\nTelemetry trajectory: instrumented corpus pass");
    println!("{:-<130}", "");
    // Benches run with the package directory as CWD; anchor the output to
    // the workspace `target/` so the trajectory lands in one known place.
    let target = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let sink_dir = target.join("bench-telemetry");
    std::fs::create_dir_all(&sink_dir).expect("create telemetry sink directory");
    let mut entries: Vec<(String, String)> = Vec::new();
    for case in all_cases() {
        let variants: &[Variant] = if case.has_bug_parameter {
            &[Variant::Fixed, Variant::Buggy]
        } else {
            &[Variant::Fixed]
        };
        for &variant in variants {
            let ft = build_testbench(&case);
            let design = elaborated(&case, variant);
            let tag = format!("{}_{variant:?}", case.id);
            let mut options = default_check_options(&case, variant);
            options.telemetry.enabled = true;
            options.telemetry.json_path = Some(sink_dir.join(format!("{tag}.telemetry.json")));
            let report = verify_elaborated(&design, &ft, &options).expect("verification runs");
            let telemetry = report.telemetry.expect("telemetry attached");
            entries.push((tag, telemetry.deterministic_json()));
        }
    }
    let mut out = String::from("{\n\"schema\": \"autosva-bench engine_ablation v1\",\n");
    out.push_str("\"runs\": [\n");
    for (i, (tag, det)) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!("{{\"run\": \"{tag}\", \"telemetry\": "));
        out.push_str(det.trim_end());
        out.push('}');
    }
    out.push_str("\n]\n}\n");
    let path = target.join("BENCH_engine_ablation.json");
    std::fs::write(&path, &out).expect("write bench trajectory");
    println!(
        "wrote {} instrumented run(s): {} plus per-run sinks in {}",
        entries.len(),
        path.display(),
        sink_dir.display()
    );
}

fn main() {
    // `cargo bench ... -- --test` passes `--test`: this harness always runs
    // one verification per configuration (no statistical measurement), so
    // the flag needs no special handling beyond being accepted.
    let _ = std::env::args().find(|a| a == "--test");

    println!("Engine ablation: bounded engines vs. +PDR vs. the full cascade");
    println!("{:-<130}", "");
    for id in ["A1", "A2", "O1", "O2"] {
        let bounded = run(id, Config::BmcKind);
        let with_pdr = run(id, Config::WithPdr);
        let full = run(id, Config::Full);

        // Regression guards: the full cascade decides everything, and
        // adding PDR (with otherwise identical bounds) must never lose a
        // verdict the bounded engines had.
        let (_, _, _, unknown_full) = status_counts(&full);
        assert_eq!(
            unknown_full, 0,
            "{id}: the full cascade left properties undecided"
        );
        let (_, _, _, unknown_bounded) = status_counts(&bounded);
        let (_, _, _, unknown_pdr) = status_counts(&with_pdr);
        assert!(
            unknown_pdr <= unknown_bounded,
            "{id}: PDR lost verdicts the bounded engines had"
        );

        if id == "O2" {
            // The scaled L1.5 miss-path proof is the cliff PDR exists to
            // remove: it must be closed by a PDR invariant, not by the
            // explicit engine.
            let had = full
                .results
                .iter()
                .find(|r| r.name.contains("l15_miss_had_a_request"))
                .expect("monitor property exists");
            assert!(
                matches!(had.status.proof(), Some(Proof::Invariant { .. })),
                "O2 had_a_request must be closed by PDR, got {:?}",
                had.status
            );
        }
    }
    println!("{:-<130}", "");
    println!(
        "note: `unknown` under bmc+kind marks the reachability-dependent proofs; the PDR column closes them without the explicit cliff."
    );

    solver_ablation();
    opt_ablation();
    simulation_ablation();
    orchestrator_ablation();
    write_bench_trajectory();
}
