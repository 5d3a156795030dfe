//! `corpusbench` — the AutoSVA flow on the bundled Table III corpus,
//! measured end to end and layer by layer from outside the program.
//!
//! Every design of a pass runs the full user-visible flow:
//! `autosva_bench::build_testbench` (→ `autosva::generate_ft`), then
//! `autosva_formal::checker::verify` on the RTL source, which parses and
//! elaborates on every call.  Load shape: one process per workload, one
//! closed-loop caller (the next design starts when the previous `verify`
//! returns), `ParallelOptions::threads = 0` (all cores), options otherwise
//! `autosva_bench::default_check_options`.  The seed sets the design order
//! of every pass and `FuzzOptions::seed`; neither changes a verdict.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path corpusbench/Cargo.toml -- \
//!     --workload prove_fixed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced passes and reports the
//! per-layer metrics of the traced ones, plus the tracing overhead.  A
//! human summary goes to stderr; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  Every checked property
//! is one operation; it fails when undecided or when its verdict class
//! differs from `expected_verdicts.tsv`, and any failure exits non-zero.

mod chrome;
mod layers;
mod sys;
mod verdicts;

use autosva_bench::{build_testbench, default_check_options};
use autosva_designs::{all_cases, DesignCase, Variant};
use autosva_formal::checker::{verify, VerificationReport};
use autosva_formal::portfolio::ProofCache;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// End-to-end metrics with their units, in report order.  Peak RSS is
/// printed in the summary but not reported: which pool thread's allocator
/// arena holds the largest unrolling varies from run to run, which moves
/// `VmHWM` by up to 20% on `hunt_buggy`.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("design_s.p50", "s"),
    ("design_s.p90", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Traced passes merged into the workload's Chrome trace.
const TRACE_PASSES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Fixed variant of all seven designs, fresh proof cache each pass.
    ProveFixed,
    /// Buggy variant of the four designs with a `BUGGY` parameter, fresh
    /// proof cache each pass.
    HuntBuggy,
    /// All eleven case/variant runs against one proof cache filled in
    /// set-up.
    RerunWarm,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("prove_fixed", Workload::ProveFixed),
    ("hunt_buggy", Workload::HuntBuggy),
    ("rerun_warm", Workload::RerunWarm),
];

impl Workload {
    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .expect("listed")
            .0
    }

    fn jobs(self) -> Vec<Job> {
        let cases = all_cases();
        let job = |case: &DesignCase, variant| Job {
            case: *case,
            variant,
        };
        let fixed = cases.iter().map(|c| job(c, Variant::Fixed));
        let buggy = cases
            .iter()
            .filter(|c| c.has_bug_parameter)
            .map(|c| job(c, Variant::Buggy));
        match self {
            Workload::ProveFixed => fixed.collect(),
            Workload::HuntBuggy => buggy.collect(),
            Workload::RerunWarm => fixed.chain(buggy).collect(),
        }
    }
}

/// One design/variant run of a pass.
struct Job {
    case: DesignCase,
    variant: Variant,
}

impl Job {
    fn variant_name(&self) -> &'static str {
        match self.variant {
            Variant::Fixed => "fixed",
            Variant::Buggy => "buggy",
        }
    }

    fn label(&self) -> String {
        format!("{}-{}", self.case.id, self.variant_name())
    }
}

/// One design of one pass.
struct DesignRun {
    job: usize,
    start: Instant,
    generated: Instant,
    end: Instant,
    report: VerificationReport,
}

impl DesignRun {
    fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

struct Pass {
    start: Instant,
    wall: Duration,
    designs: Vec<DesignRun>,
}

/// Correctness tallies over every pass of a run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    undecided: u64,
    wrong: u64,
    /// Designs whose `render()` differs from their first run's.
    render_mismatches: u64,
}

struct Runner {
    workload: Workload,
    jobs: Vec<Job>,
    rng: sys::Rng,
    fuzz_seed: u64,
    /// The in-process cache of `rerun_warm`, filled in set-up.
    warm_cache: Option<ProofCache>,
    table: verdicts::Expected,
    /// First `render()` of every job: later runs must match it byte for
    /// byte (cold or cache-warm, traced or not).
    reference: Vec<Option<String>>,
    tally: Tally,
    out_dir: PathBuf,
}

impl Runner {
    fn new(workload: Workload, seed: u64) -> Runner {
        let jobs = workload.jobs();
        let mut rng = sys::Rng::new(seed);
        let fuzz_seed = rng.next_u64();
        Runner {
            workload,
            reference: jobs.iter().map(|_| None).collect(),
            jobs,
            rng,
            fuzz_seed,
            warm_cache: None,
            table: verdicts::expected_table(),
            tally: Tally::default(),
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }

    fn sink_path(&self, job: &Job) -> PathBuf {
        self.out_dir.join(format!(
            "{}.{}.sink.json",
            self.workload.name(),
            job.label()
        ))
    }

    /// Runs every job once, in a seeded order.  A traced pass turns
    /// telemetry on and writes each call's trace sink.  The caller checks
    /// the verdicts ([`Runner::check`]) outside its measurements.
    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        let cache = match self.workload {
            Workload::RerunWarm => self.warm_cache.clone(),
            _ => Some(ProofCache::new()),
        };
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        self.rng.shuffle(&mut order);
        let start = Instant::now();
        let mut designs = Vec::with_capacity(order.len());
        for job in order {
            let j = &self.jobs[job];
            let mut options = default_check_options(&j.case, j.variant);
            options.parallel.threads = 0;
            options.parallel.cache = cache.clone();
            options.fuzz.seed = self.fuzz_seed;
            if traced {
                options.telemetry.enabled = true;
                options.telemetry.trace_path = Some(self.sink_path(j));
            }
            let t0 = Instant::now();
            let ft = build_testbench(&j.case);
            let t1 = Instant::now();
            let report = verify(j.case.source, &ft, &options)
                .map_err(|e| format!("{}: verify failed: {e}", j.label()))?;
            designs.push(DesignRun {
                job,
                start: t0,
                generated: t1,
                end: Instant::now(),
                report,
            });
        }
        Ok(Pass {
            start,
            wall: start.elapsed(),
            designs,
        })
    }

    /// Compares every verdict of `pass` with the expected table and every
    /// `render()` with the job's first one.
    fn check(&mut self, pass: &Pass) {
        for d in &pass.designs {
            let j = &self.jobs[d.job];
            let c = verdicts::check(&d.report, j.case.id, j.variant_name(), &self.table);
            self.tally.attempted += c.checked;
            self.tally.undecided += c.undecided;
            self.tally.wrong += c.wrong;
            let render = d.report.render();
            match &self.reference[d.job] {
                Some(reference) if *reference != render => {
                    eprintln!("{}: render() differs from its first run", j.label());
                    self.tally.render_mismatches += 1;
                }
                Some(_) => {}
                None => self.reference[d.job] = Some(render),
            }
        }
    }

    /// One set-up: for `rerun_warm` a fresh cache filled by a cold pass,
    /// then one warm-up pass.  Returns its wall seconds.
    fn setup(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        if self.workload == Workload::RerunWarm {
            self.warm_cache = Some(ProofCache::new());
            let fill = self.pass(false)?;
            self.check(&fill);
        }
        let warm_up = self.pass(false)?;
        self.check(&warm_up);
        Ok(t0.elapsed().as_secs_f64())
    }
}

/// The outcome of one run.
struct Outcome {
    /// `(name, value, unit)` in report order.
    metrics: Vec<(String, f64, &'static str)>,
    tally: Tally,
    /// Sample counts and notes for the human summary.
    notes: Vec<String>,
}

impl Outcome {
    fn failed(&self) -> u64 {
        self.tally.undecided + self.tally.wrong
    }

    fn correct(&self) -> bool {
        self.failed() == 0 && self.tally.render_mismatches == 0 && self.tally.attempted > 0
    }
}

/// Runs one workload for `seconds` of measured passes (at least one; with
/// tracing, at least one untraced and one traced pass).
fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_reps: usize,
) -> Result<Outcome, String> {
    let mut runner = Runner::new(workload, seed);
    std::fs::create_dir_all(&runner.out_dir)
        .map_err(|e| format!("{}: {e}", runner.out_dir.display()))?;
    let mut setups = Vec::with_capacity(setup_reps);
    for _ in 0..setup_reps.max(1) {
        setups.push(runner.setup()?);
    }
    let budget = Duration::from_secs_f64(seconds);
    let mut notes = Vec::new();
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let t0 = Instant::now();
    if !trace {
        let (mut walls, mut p50, mut p90, mut cpu) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
        loop {
            let cpu0 = sys::cpu_seconds();
            let pass = runner.pass(false)?;
            cpu += sys::cpu_seconds() - cpu0;
            runner.check(&pass);
            walls.push(pass.wall.as_secs_f64());
            // Each pass holds every design once, so a percentile over its
            // designs is one design's time (nearest rank); a pooled
            // percentile would fall between two designs' tails whenever
            // the rank lands on a design boundary (the median of
            // hunt_buggy's four designs does).
            let designs: Vec<f64> = pass.designs.iter().map(DesignRun::seconds).collect();
            p50.push(sys::nearest_rank(&designs, 0.5));
            p90.push(sys::nearest_rank(&designs, 0.9));
            if t0.elapsed() >= budget {
                break;
            }
        }
        let values = [
            sys::median(&walls),
            sys::median(&p50),
            sys::median(&p90),
            cpu / walls.len() as f64,
            sys::median(&setups),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), value, unit));
        }
        notes.push(format!(
            "{} timed passes of {} designs (design_s: per-pass percentile, median over passes), \
             {} set-ups; peak_rss_mb {:.3} MiB",
            walls.len(),
            runner.jobs.len(),
            setups.len(),
            sys::peak_rss_mb()
        ));
    } else {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut samples: Vec<BTreeMap<String, f64>> = Vec::new();
        let mut merge = chrome::TraceMerge::default();
        let us = |t: Instant| (t - t0).as_micros() as u64;
        loop {
            let untraced = runner.pass(false)?;
            runner.check(&untraced);
            plain.push(untraced.wall.as_secs_f64());
            let pass = runner.pass(true)?;
            runner.check(&pass);
            traced.push(pass.wall.as_secs_f64());
            let designs: Vec<layers::DesignSample<'_>> = pass
                .designs
                .iter()
                .map(|d| layers::DesignSample {
                    report: &d.report,
                    generate_us: (d.generated - d.start).as_secs_f64() * 1e6,
                    design_us: (d.end - d.start).as_secs_f64() * 1e6,
                })
                .collect();
            samples.push(layers::pass_metrics(&designs));
            if samples.len() <= TRACE_PASSES {
                merge.bench_begin(&format!("pass {}", samples.len()), us(pass.start));
                for d in &pass.designs {
                    let j = &runner.jobs[d.job];
                    merge.bench_begin(&format!("generate_ft {}", j.label()), us(d.start));
                    merge.bench_end(us(d.generated));
                    merge.bench_begin(&format!("verify {}", j.label()), us(d.generated));
                    let sink = std::fs::read_to_string(runner.sink_path(j))
                        .map_err(|e| format!("{}: trace sink missing: {e}", j.label()))?;
                    merge.program_sink(&sink, us(d.generated))?;
                    merge.bench_end(us(d.end));
                }
                merge.bench_end(us(pass.start + pass.wall));
            }
            if t0.elapsed() >= budget {
                break;
            }
        }
        for j in &runner.jobs {
            let _ = std::fs::remove_file(runner.sink_path(j));
        }
        let path = runner
            .out_dir
            .join(format!("{}.trace.json", workload.name()));
        let summary = merge.write(&path)?;
        notes.push(format!(
            "{} traced + {} untraced passes; per-layer values are medians per traced pass; \
             trace {} ({} spans on {} tracks)",
            traced.len(),
            plain.len(),
            path.display(),
            summary.spans,
            summary.tracks
        ));
        let overhead = sys::ratio(
            sys::median(&traced) - sys::median(&plain),
            sys::median(&plain),
        );
        for (name, unit) in layers::METRICS {
            let value = if *name == "trace.overhead_frac" {
                overhead
            } else {
                let values: Vec<f64> = samples.iter().map(|s| s[*name]).collect();
                sys::median(&values)
            };
            metrics.push((name.to_string(), value, unit));
        }
        let bases: Vec<String> = layers::USEFUL_BASE
            .iter()
            .map(|(stage, base)| format!("{stage}: decided.{stage} / {base} spans"))
            .collect();
        notes.push(format!("useful ratios: {}", bases.join(", ")));
    }
    Ok(Outcome {
        metrics,
        tally: runner.tally,
        notes,
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, w)| *w)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{flag} must be a non-negative number"))
    };
    Ok(Args {
        workload,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number".to_string())?,
        seconds: number("--seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "corpusbench: {e}\nusage: corpusbench --workload <prove_fixed|hunt_buggy|rerun_warm> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    let outcome = measure(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        SETUP_REPS,
    )
    .unwrap_or_else(|e| {
        eprintln!("corpusbench: {e}");
        std::process::exit(1);
    });

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "corpusbench {} seed={} trace={} nproc={nproc} threads=all",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:26} {value:>14.6} {unit}");
    }
    for note in &outcome.notes {
        eprintln!("  ({note})");
    }
    let t = &outcome.tally;
    eprintln!(
        "  checked {} properties: decided_frac {:.6}, wrong_verdicts {}, render mismatches {}",
        t.attempted,
        sys::ratio((t.attempted - t.undecided) as f64, t.attempted as f64),
        t.wrong,
        t.render_mismatches
    );

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        t.attempted,
        outcome.failed(),
        metrics.join(", ")
    );
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names `BENCHMARK.json` declares in one section.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section exists");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    }

    fn names(outcome: &Outcome) -> Vec<String> {
        outcome.metrics.iter().map(|(n, _, _)| n.clone()).collect()
    }

    /// A one-pass run of every workload, untraced and traced.
    #[test]
    fn one_pass_of_every_workload_meets_the_contract() {
        for (name, workload) in WORKLOADS {
            let plain = measure(workload, 1, 0.0, false, 1).expect("untraced run");
            assert_eq!(names(&plain), declared("end_to_end"), "{name}");
            let traced = measure(workload, 1, 0.0, true, 1).expect("traced run");
            assert_eq!(names(&traced), declared("per_layer"), "{name}");
            for outcome in [&plain, &traced] {
                let t = &outcome.tally;
                assert!(t.attempted > 0, "{name}: nothing checked");
                assert_eq!(t.undecided, 0, "{name}: decided_frac below 1");
                assert_eq!(t.wrong, 0, "{name}: wrong verdicts");
                // Traced and untraced passes render byte-identically.
                assert_eq!(t.render_mismatches, 0, "{name}: render() differs");
                assert!(outcome.correct());
            }
            for (metric, value, _) in &plain.metrics {
                assert!(*value > 0.0, "{name}: {metric} is {value}");
            }
            let layer = |m: &str| {
                let found = traced.metrics.iter().find(|(n, _, _)| n == m);
                found.expect("reported").1
            };
            assert_eq!(layer("explicit.total_us"), 0.0, "{name}");
            assert_eq!(layer("sharing.exported"), 0.0, "{name}");
            let engines = [
                "fuzz.self_us",
                "bmc.total_us",
                "minimize.total_us",
                "pdr.total_us",
            ];
            let largest = engines
                .iter()
                .copied()
                .max_by(|a, b| layer(a).total_cmp(&layer(b)))
                .expect("engines");
            match workload {
                Workload::ProveFixed => {
                    assert_eq!(largest, "pdr.total_us", "{name}");
                    assert_eq!(layer("minimize.total_us"), 0.0, "{name}");
                }
                Workload::HuntBuggy => assert_eq!(largest, "minimize.total_us", "{name}"),
                Workload::RerunWarm => {
                    for engine in engines {
                        assert_eq!(layer(engine), 0.0, "{name}: {engine}");
                    }
                    assert_eq!(layer("cache.hit_ratio"), 1.0);
                    assert_eq!(layer("cache.misses"), 0.0);
                    assert_eq!(layer("cache.rejected"), 0.0);
                }
            }
            // Every checked property of a pass is attributed to exactly one
            // stage: the cache-hit counter and the report rows agree.
            let decided: f64 = ["cache", "fuzz", "bmc", "kind", "pdr", "explicit"]
                .iter()
                .map(|s| layer(&format!("decided.{s}")))
                .sum();
            let table = verdicts::expected_table();
            let rows = workload
                .jobs()
                .iter()
                .map(|j| {
                    let (id, variant) = (j.case.id, j.variant_name());
                    table
                        .keys()
                        .filter(|(d, v, _)| d == id && v == variant)
                        .count()
                })
                .sum::<usize>();
            assert_eq!(decided, rows as f64, "{name}");
            let path = Runner::new(workload, 1)
                .out_dir
                .join(format!("{name}.trace.json"));
            let trace = std::fs::read_to_string(path).expect("trace written");
            autosva_formal::telemetry::validate_chrome_trace(&trace).expect("valid trace");
        }
    }
}
