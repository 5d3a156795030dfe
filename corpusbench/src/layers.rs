//! Per-layer accounting of one traced pass, computed from the program's
//! public telemetry report (spans, counters) plus the benchmark's own
//! `generate_ft` span.  Layers are named after the repository's modules.

use crate::sys::ratio;
use crate::verdicts::decided_by;
use autosva_formal::checker::VerificationReport;
use autosva_formal::telemetry::{SpanRecord, TelemetryReport};
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in report order.
pub const METRICS: &[(&str, &str)] = &[
    ("frontend.generate_us", "us"),
    ("frontend.parse_us", "us"),
    ("frontend.elab_us", "us"),
    ("frontend.compile_us", "us"),
    ("frontend.lint_us", "us"),
    ("coi.slice_us", "us"),
    ("coi.slice_gates", "count"),
    ("opt.self_us", "us"),
    ("opt.passes", "count"),
    ("opt.gate_cut", "ratio"),
    ("l2s.self_us", "us"),
    ("pool.prelude_us", "us"),
    ("pool.busy_frac", "ratio"),
    ("pool.critical_path_frac", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.rejected", "count"),
    ("cache.hit_ratio", "ratio"),
    ("fuzz.self_us", "us"),
    ("fuzz.cycles", "count"),
    ("fuzz.redraws", "count"),
    ("fuzz.confirmed", "count"),
    ("bmc.total_us", "us"),
    ("solver.bmc.conflicts", "count"),
    ("solver.bmc.propagations", "count"),
    ("minimize.total_us", "us"),
    ("minimize.traces", "count"),
    ("pdr.total_us", "us"),
    ("solver.pdr.conflicts", "count"),
    ("solver.pdr.propagations", "count"),
    ("explicit.total_us", "us"),
    ("explicit.states", "count"),
    ("sharing.exported", "count"),
    ("decided.cache", "count"),
    ("decided.fuzz", "count"),
    ("decided.bmc", "count"),
    ("decided.kind", "count"),
    ("decided.pdr", "count"),
    ("decided.explicit", "count"),
    ("fuzz.useful_ratio", "ratio"),
    ("bmc.useful_ratio", "ratio"),
    ("kind.useful_ratio", "ratio"),
    ("pdr.useful_ratio", "ratio"),
    ("explicit.useful_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The span count each stage's useful ratio divides by: every stage is
/// measured against the cascade spans it ran in (k-induction runs inside
/// the `engine.bmc` spans).
pub const USEFUL_BASE: [(&str, &str); 5] = [
    ("fuzz", "engine.fuzz"),
    ("bmc", "engine.bmc"),
    ("kind", "engine.bmc"),
    ("pdr", "engine.pdr"),
    ("explicit", "engine.explicit"),
];

/// The layer a span's time belongs to.  Solver and round sub-spans
/// belong to the cascade stage that opened them, so the `bmc.solve`
/// inside counterexample minimization counts as minimization.
fn layer(phase: &str, parent: Option<&'static str>) -> &'static str {
    match phase {
        "parse" => "frontend.parse",
        "elab" => "frontend.elab",
        "compile" => "frontend.compile",
        "lint" => "frontend.lint",
        "slice" => "coi.slice",
        "opt" | "opt.pass" => "opt",
        "l2s" => "l2s",
        "cache.lookup" => "cache.lookup",
        "engine.fuzz" | "fuzz.round" => "fuzz",
        "engine.bmc" => "bmc",
        "engine.pdr" => "pdr",
        "engine.minimize" => "minimize",
        "engine.explicit" | "explicit.explore" => "explicit",
        "task" => "task",
        "bmc.solve" => parent.unwrap_or("bmc"),
        "pdr.solve" => parent.unwrap_or("pdr"),
        _ => parent.unwrap_or("other"),
    }
}

/// Microseconds of self time per layer: each span's duration minus that of
/// its direct children, summed by layer.  Spans are stored in begin order
/// and properly nested per track, so a stack of open spans recovers the
/// parent of each one.
pub fn layer_self_us(spans: &[SpanRecord]) -> BTreeMap<&'static str, u64> {
    let mut self_us: Vec<u64> = spans.iter().map(|s| s.dur_us).collect();
    let mut layers: Vec<&'static str> = Vec::with_capacity(spans.len());
    let mut open: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let stack = open.entry(span.tid).or_default();
        let end = span.start_us + span.dur_us;
        while let Some(&top) = stack.last() {
            if spans[top].start_us + spans[top].dur_us < end {
                stack.pop();
            } else {
                break;
            }
        }
        let parent = stack.last().copied();
        if let Some(p) = parent {
            self_us[p] = self_us[p].saturating_sub(span.dur_us);
        }
        layers.push(layer(span.phase, parent.map(|p| layers[p])));
        stack.push(i);
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (l, us) in layers.into_iter().zip(self_us) {
        *out.entry(l).or_insert(0) += us;
    }
    out
}

/// One design of a traced pass.
pub struct DesignSample<'a> {
    pub report: &'a VerificationReport,
    /// The benchmark's `generate_ft` span.
    pub generate_us: f64,
    /// `generate_ft` start to `verify` return.
    pub design_us: f64,
}

/// The per-layer metrics of one traced pass (every name of [`METRICS`]
/// except `trace.overhead_frac`, which compares passes).
pub fn pass_metrics(designs: &[DesignSample<'_>]) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let add = |m: &mut BTreeMap<String, f64>, k: &str, v: f64| {
        *m.entry(k.to_string()).or_insert(0.0) += v;
    };
    let (mut task_us, mut pool_capacity_us) = (0.0, 0.0);
    let (mut longest_us, mut design_us) = (0.0, 0.0);
    let mut spans_by_phase: BTreeMap<&str, f64> = BTreeMap::new();
    for d in designs {
        let t: &TelemetryReport = d
            .report
            .telemetry
            .as_ref()
            .expect("traced pass has telemetry");
        add(&mut m, "frontend.generate_us", d.generate_us);
        for (l, us) in layer_self_us(&t.spans) {
            let metric = match l {
                "frontend.parse" | "frontend.elab" | "frontend.compile" | "frontend.lint"
                | "coi.slice" | "cache.lookup" => format!("{l}_us"),
                "opt" | "l2s" | "fuzz" => format!("{l}.self_us"),
                "bmc" | "minimize" | "pdr" | "explicit" => format!("{l}.total_us"),
                _ => continue,
            };
            add(&mut m, &metric, us as f64);
        }
        add(&mut m, "coi.slice_gates", t.slice_gates as f64);
        for name in [
            "opt.passes",
            "opt.gates_before",
            "opt.gates_after",
            "cache.hits",
            "cache.misses",
            "cache.rejected",
            "fuzz.cycles",
            "fuzz.redraws",
            "fuzz.confirmed",
            "solver.bmc.conflicts",
            "solver.bmc.propagations",
            "solver.pdr.conflicts",
            "solver.pdr.propagations",
            "explicit.states",
            "sharing.exported",
        ] {
            add(&mut m, name, t.counter(name).unwrap_or(0) as f64);
        }

        // The worker pool: the serial prelude before the first task, how
        // busy the workers were once it started, and how much of the
        // design's wall time its longest task accounts for.
        let tasks: Vec<&SpanRecord> = t.spans.iter().filter(|s| s.phase == "task").collect();
        if let (Some(first), Some(last)) = (
            tasks.iter().map(|s| s.start_us).min(),
            tasks.iter().map(|s| s.start_us + s.dur_us).max(),
        ) {
            let workers = t.workers.saturating_sub(1).max(1) as f64;
            add(&mut m, "pool.prelude_us", first as f64);
            task_us += tasks.iter().map(|s| s.dur_us as f64).sum::<f64>();
            pool_capacity_us += workers * (last - first) as f64;
            longest_us += tasks.iter().map(|s| s.dur_us).max().unwrap_or(0) as f64;
            design_us += d.design_us;
        }
        for s in &t.spans {
            *spans_by_phase.entry(s.phase).or_insert(0.0) += 1.0;
        }
        // Cache hits come from the program's counter; every other verdict
        // is attributed from the report row.
        add(
            &mut m,
            "decided.cache",
            t.counter("cache.hits").unwrap_or(0) as f64,
        );
        for r in d.report.checked() {
            if let Some(stage) = decided_by(r).filter(|s| *s != "cache") {
                add(&mut m, &format!("decided.{stage}"), 1.0);
            }
        }
    }
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let spans = |phase: &str| spans_by_phase.get(phase).copied().unwrap_or(0.0);
    let gates_before = get(&m, "opt.gates_before");
    let gate_cut = if gates_before > 0.0 {
        1.0 - get(&m, "opt.gates_after") / gates_before
    } else {
        0.0
    };
    let hits = get(&m, "cache.hits");
    let lookups = hits + get(&m, "cache.misses");
    m.insert("opt.gate_cut".into(), gate_cut);
    m.insert("cache.hit_ratio".into(), ratio(hits, lookups));
    m.insert("pool.busy_frac".into(), ratio(task_us, pool_capacity_us));
    m.insert(
        "pool.critical_path_frac".into(),
        ratio(longest_us, design_us),
    );
    m.insert("minimize.traces".into(), spans("engine.minimize"));
    for (stage, base) in USEFUL_BASE {
        let decided = get(&m, &format!("decided.{stage}"));
        m.insert(format!("{stage}.useful_ratio"), ratio(decided, spans(base)));
    }
    // Keep exactly the reported names, zero-filled.
    let mut out = BTreeMap::new();
    for (k, _) in METRICS {
        if *k != "trace.overhead_frac" {
            out.insert(k.to_string(), get(&m, k));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: &'static str, tid: usize, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            phase,
            name: String::new(),
            engine: None,
            fingerprint: None,
            tid,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_follows_the_opening_stage() {
        let spans = vec![
            span("task", 1, 0, 100),
            span("engine.fuzz", 1, 0, 10),
            span("fuzz.round", 1, 1, 8),
            span("engine.minimize", 1, 10, 60),
            span("bmc.solve", 1, 11, 50),
            span("engine.pdr", 1, 70, 30),
            span("pdr.solve", 1, 70, 30),
            // A sibling that starts the microsecond its predecessor ends.
            span("slice", 0, 0, 5),
            span("opt", 0, 5, 20),
            span("opt.pass", 0, 6, 10),
        ];
        let layers = layer_self_us(&spans);
        assert_eq!(layers["task"], 0);
        assert_eq!(layers["fuzz"], 10);
        assert_eq!(layers["minimize"], 60);
        assert_eq!(layers["pdr"], 30);
        assert_eq!(layers["coi.slice"], 5);
        assert_eq!(layers["opt"], 20);
        assert!(!layers.contains_key("bmc"));
    }
}
