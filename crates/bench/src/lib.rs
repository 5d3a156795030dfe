//! `autosva-bench` — harness shared by the benchmarks, examples and
//! integration tests that regenerate the paper's evaluation.
//!
//! The harness ties the three layers of the reproduction together: it takes a
//! design from [`autosva_designs`], generates its formal testbench with
//! [`autosva`], runs the bundled model checker from [`autosva_formal`], and
//! summarizes the outcome in the same terms the paper uses (proof rate, bugs
//! found, counterexample trace length, annotation effort).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use autosva::sva::{Directive, PropertyBody, SvaProperty};
use autosva::{generate_ft, AutosvaOptions, FormalTestbench, PropertyClass};
use autosva_designs::{DesignCase, Variant};
use autosva_formal::checker::{
    verify_elaborated, CheckOptions, PropertyStatus, VerificationReport,
};
use std::time::{Duration, Instant};

/// Generates the formal testbench for a design case, including any
/// designer-added assumptions the paper describes for that module.
///
/// # Panics
///
/// Panics if the bundled design sources fail to generate (they are tested by
/// the corpus crate, so this indicates an internal inconsistency).
pub fn build_testbench(case: &DesignCase) -> FormalTestbench {
    let mut ft = generate_ft(case.source, &AutosvaOptions::default())
        .unwrap_or_else(|e| panic!("{}: testbench generation failed: {e}", case.id));
    for (i, assumption) in case.extra_assumptions.iter().enumerate() {
        let expr = svparse::parse_expr(assumption)
            .unwrap_or_else(|e| panic!("{}: bad extra assumption: {e}", case.id));
        ft.linked_properties.push(SvaProperty {
            name: format!("designer_assumption_{i}"),
            directive: Directive::Assume,
            class: PropertyClass::Safety,
            body: PropertyBody::Invariant(expr),
            xprop_only: false,
            transaction: "designer".to_string(),
        });
    }
    ft
}

/// The check options of the evaluation harness: [`CheckOptions::default`]
/// with the elaboration options of `case`'s `variant` (its top module and
/// parameter overrides).  The engine options are the defaults, so a proof
/// cache filled by the harness also answers a [`CheckOptions::default`]
/// run of the same design.
pub fn default_check_options(case: &DesignCase, variant: Variant) -> CheckOptions {
    CheckOptions {
        elab: case.elab_options(variant),
        ..CheckOptions::default()
    }
}

/// The outcome of running one design/variant through the full flow.
#[derive(Debug, Clone)]
pub struct CaseRun {
    /// Paper identifier of the design.
    pub id: String,
    /// Table III title of the design.
    pub title: String,
    /// Which variant was verified.
    pub variant: Variant,
    /// Time spent generating the formal testbench.
    pub generation_time: Duration,
    /// Number of non-empty annotation lines the designer wrote.
    pub annotation_loc: usize,
    /// Number of unique generated properties.
    pub properties: usize,
    /// The full verification report.
    pub report: VerificationReport,
}

impl CaseRun {
    /// `true` when every checked assertion was proven.
    pub fn fully_proven(&self) -> bool {
        self.report.violations() == 0 && (self.report.proof_rate() - 1.0).abs() < f64::EPSILON
    }

    /// Names of the violated properties.
    pub fn violated_properties(&self) -> Vec<String> {
        self.report
            .results
            .iter()
            .filter(|r| r.status.is_violation())
            .map(|r| r.name.clone())
            .collect()
    }

    /// Length (in cycles) of the shortest counterexample, if any.
    pub fn shortest_cex(&self) -> Option<usize> {
        self.report
            .results
            .iter()
            .filter(|r| r.status.is_violation())
            .filter_map(|r| r.status.trace().map(|t| t.len()))
            .min()
    }
}

/// Runs the full AutoSVA flow (annotation parsing, FT generation, model
/// checking) for one design case and variant.
///
/// The design is elaborated at most once per process and variant (see
/// [`autosva_designs::elaborated`]); repeated runs — the integration suites
/// verify most corpus designs several times — skip straight to checking.
pub fn run_case(case: &DesignCase, variant: Variant) -> CaseRun {
    let t0 = Instant::now();
    let ft = build_testbench(case);
    let generation_time = t0.elapsed();
    let stats = ft.stats();
    let options = default_check_options(case, variant);
    let design = autosva_designs::elaborated(case, variant);
    let report = verify_elaborated(&design, &ft, &options)
        .unwrap_or_else(|e| panic!("{}: verification failed: {e}", case.id));
    CaseRun {
        id: case.id.to_string(),
        title: case.title.to_string(),
        variant,
        generation_time,
        annotation_loc: stats.annotation_loc,
        properties: stats.properties,
        report,
    }
}

/// Returns the per-property status counts of a report as
/// `(proven, violated, covered, unknown)`.
pub fn status_counts(report: &VerificationReport) -> (usize, usize, usize, usize) {
    let mut proven = 0;
    let mut violated = 0;
    let mut covered = 0;
    let mut unknown = 0;
    for r in &report.results {
        match r.status {
            PropertyStatus::Proven(_) | PropertyStatus::Unreachable => proven += 1,
            PropertyStatus::Violated(_) => violated += 1,
            PropertyStatus::Covered(_) => covered += 1,
            // A fault-degraded property is undecided for scoring purposes.
            PropertyStatus::Unknown | PropertyStatus::Error { .. } => unknown += 1,
            PropertyStatus::NotChecked(_) => {}
        }
    }
    (proven, violated, covered, unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosva_designs::by_id;

    #[test]
    fn testbenches_generate_for_every_case() {
        for case in autosva_designs::all_cases() {
            let ft = build_testbench(&case);
            let stats = ft.stats();
            assert!(stats.properties > 0, "{}: no properties generated", case.id);
            assert!(stats.annotation_loc > 0, "{}: no annotations", case.id);
        }
    }

    #[test]
    fn extra_assumptions_are_attached() {
        let mmu = by_id("A3").unwrap();
        let ft = build_testbench(&mmu);
        assert!(ft
            .linked_properties
            .iter()
            .any(|p| p.name.starts_with("designer_assumption_")));
    }

    #[test]
    fn generation_is_fast() {
        // The paper reports sub-second testbench generation; the whole corpus
        // should generate well within a second.
        let t0 = std::time::Instant::now();
        for case in autosva_designs::all_cases() {
            let _ = build_testbench(&case);
        }
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
    }
}
