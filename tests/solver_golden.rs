//! Golden search counters of every checked corpus property.
//!
//! For each of the 11 Table III case/variant runs (`threads = 1`, no proof
//! cache), this test pins each checked property's deciding engine and the
//! full [`SolverStats`] the cascade spent on it against
//! `crates/designs/golden/solver_stats.json`.  The CDCL solver is
//! deterministic, so these counters are machine-independent: any change to
//! the order in which the solver decides, propagates or learns — a
//! reordered watch list, a different tie-break, a different variable
//! numbering in the unroller — shows up here, even when every verdict
//! stays the same.  A speed-up of the solver kernel that claims to keep
//! the search passes this test unregenerated.
//!
//! ```sh
//! cargo test -q --test solver_golden
//! ```

use autosva_bench::{build_testbench, default_check_options};
use autosva_designs::{all_cases, elaborated, Variant};
use autosva_formal::checker::{verify_elaborated, PropertyStatus};
use autosva_formal::sat::SolverStats;

const GOLDEN: &str = include_str!("../crates/designs/golden/solver_stats.json");

/// One JSON line per checked property, in a fixed order: the corpus runs in
/// Table III order (fixed variant first), each in report order.
fn snapshot() -> String {
    let mut lines = Vec::new();
    for case in all_cases() {
        let variants: &[Variant] = if case.has_bug_parameter {
            &[Variant::Fixed, Variant::Buggy]
        } else {
            &[Variant::Fixed]
        };
        for &variant in variants {
            let design = elaborated(&case, variant);
            let ft = build_testbench(&case);
            let mut options = default_check_options(&case, variant);
            options.parallel.threads = 1;
            let report = verify_elaborated(&design, &ft, &options)
                .unwrap_or_else(|e| panic!("{} {variant:?}: verification failed: {e}", case.id));
            for r in &report.results {
                if matches!(r.status, PropertyStatus::NotChecked(_)) {
                    continue;
                }
                let SolverStats {
                    conflicts,
                    decisions,
                    propagations,
                    restarts,
                    learnt,
                    learnt_kept,
                    learnt_deleted,
                    minimized_lits,
                    reductions,
                } = r.stats;
                lines.push(format!(
                    "  {{\"run\": \"{}_{variant:?}\", \"property\": \"{}\", \"engine\": \"{}\", \
                     \"conflicts\": {conflicts}, \"decisions\": {decisions}, \
                     \"propagations\": {propagations}, \"restarts\": {restarts}, \
                     \"learnt\": {learnt}, \"learnt_kept\": {learnt_kept}, \
                     \"learnt_deleted\": {learnt_deleted}, \"minimized_lits\": {minimized_lits}, \
                     \"reductions\": {reductions}}}",
                    case.id,
                    r.name,
                    r.engine.unwrap_or("none"),
                ));
            }
        }
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn every_checked_property_spends_the_golden_search() {
    let snapshot = snapshot();
    if snapshot != GOLDEN {
        let drift = snapshot
            .lines()
            .zip(GOLDEN.lines())
            .find(|(now, golden)| now != golden)
            .map(|(now, golden)| format!("\n  golden: {golden}\n  now:    {now}"))
            .unwrap_or_else(|| "\n  (the property lists differ in length)".to_string());
        panic!(
            "the solver's search drifted from crates/designs/golden/solver_stats.json; \
             regenerate the golden (see regenerate_golden below) only if the change to \
             the search is intentional. First difference:{drift}"
        );
    }
}

/// Regenerates `crates/designs/golden/solver_stats.json` in place.  Run
/// after an intentional change to the solver's search or to how the
/// engines encode their queries:
///
/// ```sh
/// cargo test --release --test solver_golden -- --ignored regenerate_golden
/// ```
#[test]
#[ignore = "writes the golden file; run explicitly to regenerate"]
fn regenerate_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/designs/golden/solver_stats.json"
    );
    std::fs::write(path, snapshot()).expect("write golden");
}
