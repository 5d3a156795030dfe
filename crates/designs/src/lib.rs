//! `autosva-designs` — the RTL design corpus used to reproduce the AutoSVA
//! paper's evaluation (Table III).
//!
//! Each entry is a simplified but behaviourally faithful model of one of the
//! seven control-critical modules the paper verifies in Ariane and OpenPiton.
//! Designs that the paper reports bugs for carry a `BUGGY` parameter: with
//! `BUGGY = 1` (the default) the module exhibits the reported defect, with
//! `BUGGY = 0` it contains the fix.  The AutoSVA annotations are embedded in
//! the interface-declaration section of every file, exactly as a designer
//! would write them.
//!
//! # Examples
//!
//! ```
//! use autosva_designs::{all_cases, by_id, Variant};
//!
//! assert_eq!(all_cases().len(), 7);
//! let mmu = by_id("A3").expect("MMU case exists");
//! assert_eq!(mmu.module, "mmu");
//! assert_eq!(mmu.params(Variant::Fixed), vec![("BUGGY".to_string(), 0)]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use autosva_formal::elab::{elaborate, ElabDesign, ElabOptions};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The open-source project a design comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Project {
    /// The 64-bit RISC-V Ariane (CVA6) core.
    Ariane,
    /// The OpenPiton manycore framework.
    OpenPiton,
}

impl std::fmt::Display for Project {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Project::Ariane => "Ariane",
            Project::OpenPiton => "OpenPiton",
        })
    }
}

/// Which variant of a design to elaborate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The design with the reported bug present (`BUGGY = 1`).
    Buggy,
    /// The design with the bug fixed (`BUGGY = 0`).
    Fixed,
}

/// The outcome the paper reports for a module (Table III), used by the
/// benchmark harness to compare against what the bundled engine finds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperOutcome {
    /// 100% of the liveness/safety properties were proven.
    FullProof,
    /// A new bug was found and, once fixed, everything proved.
    BugFoundThenProof,
    /// A previously reported (known) bug was hit.
    KnownBugHit,
    /// Some properties proved while others produced counterexamples that
    /// need extra designer assumptions.
    PartialWithCex,
}

/// One design of the evaluation corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignCase {
    /// Paper identifier (`A1`..`A5`, `O1`, `O2`).
    pub id: &'static str,
    /// Top module name.
    pub module: &'static str,
    /// Human-readable title as used in Table III.
    pub title: &'static str,
    /// Source project.
    pub project: Project,
    /// Annotated SystemVerilog source.
    pub source: &'static str,
    /// `true` when the module has a `BUGGY` parameter with a fixed variant.
    pub has_bug_parameter: bool,
    /// The outcome reported in Table III of the paper.
    pub paper_outcome: PaperOutcome,
    /// The literal Table III result text.
    pub paper_result: &'static str,
    /// Designer-added environment assumptions (SystemVerilog Boolean
    /// expressions over the interface) required to remove unrealistic
    /// counterexamples, as described in the paper's evaluation narrative.
    pub extra_assumptions: &'static [&'static str],
}

impl DesignCase {
    /// Parameter overrides selecting the requested variant.
    ///
    /// Designs without a `BUGGY` parameter return an empty list for either
    /// variant.
    pub fn params(&self, variant: Variant) -> Vec<(String, u128)> {
        if !self.has_bug_parameter {
            return Vec::new();
        }
        let value = match variant {
            Variant::Buggy => 1,
            Variant::Fixed => 0,
        };
        vec![("BUGGY".to_string(), value)]
    }

    /// `true` when the paper's headline result for this module is a proof
    /// (possibly after fixing a bug).
    pub fn proves_when_fixed(&self) -> bool {
        matches!(
            self.paper_outcome,
            PaperOutcome::FullProof | PaperOutcome::BugFoundThenProof
        )
    }

    /// Elaboration options selecting this design's top module and variant
    /// parameters (the corpus uses the default `clk_i`/`rst_ni` pins).
    pub fn elab_options(&self, variant: Variant) -> ElabOptions {
        ElabOptions {
            top: Some(self.module.to_string()),
            params: self.params(variant),
            ..ElabOptions::default()
        }
    }
}

/// Process-wide cache of elaborated corpus designs, keyed by paper id and
/// variant.
///
/// Elaboration is deterministic and the sources are compiled into the
/// binary, so every integration test (and every property of a multi-property
/// run) can share one [`ElabDesign`] instead of re-parsing and re-lowering
/// the RTL — the Table III suite is SAT-bound, not elaboration-bound, but
/// under the debug test profile the savings are still measurable.
type ElabCacheMap = HashMap<(&'static str, Variant), Arc<ElabDesign>>;

static ELAB_CACHE: OnceLock<Mutex<ElabCacheMap>> = OnceLock::new();

/// Returns the elaborated AIG model of a corpus design, cached across calls
/// (and across test threads) for the lifetime of the process.
///
/// # Panics
///
/// Panics if the bundled source fails to parse or elaborate; the corpus
/// sources are covered by this crate's own tests, so that indicates an
/// internal inconsistency.
pub fn elaborated(case: &DesignCase, variant: Variant) -> Arc<ElabDesign> {
    let cache = ELAB_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // A panicking elaboration (bad corpus source) inserts nothing, so a
    // poisoned lock leaves the map consistent — recover it rather than
    // masking the original panic for every later caller.
    let mut map = cache
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    map.entry((case.id, variant))
        .or_insert_with(|| {
            let file = svparse::parse(case.source)
                .unwrap_or_else(|e| panic!("{}: parse error: {}", case.id, e.render(case.source)));
            let design = elaborate(&file, &case.elab_options(variant))
                .unwrap_or_else(|e| panic!("{}: elaboration error: {e}", case.id));
            Arc::new(design)
        })
        .clone()
}

/// Annotated RTL source of the simplified Ariane page-table walker.
pub const PTW_SV: &str = include_str!("../rtl/ptw.sv");
/// Annotated RTL source of the simplified Ariane TLB.
pub const TLB_SV: &str = include_str!("../rtl/tlb.sv");
/// Annotated RTL source of the simplified Ariane MMU (ghost-response bug).
pub const MMU_SV: &str = include_str!("../rtl/mmu.sv");
/// Annotated RTL source of the simplified Ariane LSU load path (known bug).
pub const LSU_SV: &str = include_str!("../rtl/lsu.sv");
/// Annotated RTL source of the simplified Ariane L1-I$ controller (known bug).
pub const ICACHE_SV: &str = include_str!("../rtl/icache.sv");
/// Annotated RTL source of the OpenPiton NoC buffer (deadlock bug).
pub const NOC_BUFFER_SV: &str = include_str!("../rtl/noc_buffer.sv");
/// Annotated RTL source of the OpenPiton L1.5 miss path.
pub const L15_SV: &str = include_str!("../rtl/l15.sv");
/// Annotated RTL source of the struct-port FU/LSU request demo (S1): the
/// paper's Fig. 3 annotation style against a packed-struct port
/// (`fu_data_i.fu == LOAD`), exercising the struct-aware front end.
pub const FU_REQ_SV: &str = include_str!("../rtl/fu_req.sv");
/// Hand-flattened twin of [`FU_REQ_SV`]: same module name, ports and logic,
/// with every struct member access replaced by its explicit bit slice.  The
/// two must verify to byte-identical reports.
pub const FU_REQ_FLAT_SV: &str = include_str!("../rtl/fu_req_flat.sv");

/// The struct-port demo design and its hand-flattened twin, as
/// `(label, top module, source)` entries.  They are not part of the Table III
/// corpus ([`all_cases`] stays at seven entries) but are covered by the
/// clean-corpus lint test and the struct/flat differential test.
pub fn struct_demo_sources() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("S1-struct", "fu_req", FU_REQ_SV),
        ("S1-flat", "fu_req", FU_REQ_FLAT_SV),
    ]
}

/// Deliberately suspicious RTL that seeds one finding for every design-lint
/// code.  Not part of the Table III corpus ([`all_cases`] stays at seven
/// entries); the golden-diagnostics snapshot in `crates/designs/golden/`
/// pins the exact report the lint engine produces for it.
pub const LINT_DEMO_SV: &str = include_str!("../rtl/lint_demo.sv");

/// The lint demo as a `(label, top module, source)` entry, mirroring
/// [`struct_demo_sources`].
pub fn lint_demo_source() -> (&'static str, &'static str, &'static str) {
    ("lint-demo", "lint_demo", LINT_DEMO_SV)
}

/// The assumption the paper adds to the MMU testbench to remove the
/// DTLB-over-ITLB starvation counterexample ("one instruction cannot do many
/// DTLB lookups"): the LSU does not issue translation requests while an ITLB
/// miss is waiting for the walker.
pub const MMU_NO_STARVATION_ASSUMPTION: &str = "!(lsu_req_i && itlb_access_i && itlb_miss_i)";

/// All seven evaluated modules, in Table III order.
pub fn all_cases() -> Vec<DesignCase> {
    vec![
        DesignCase {
            id: "A1",
            module: "ptw",
            title: "Page Table Walker (PTW)",
            project: Project::Ariane,
            source: PTW_SV,
            has_bug_parameter: false,
            paper_outcome: PaperOutcome::FullProof,
            paper_result: "100% liveness/safety properties proof",
            extra_assumptions: &[],
        },
        DesignCase {
            id: "A2",
            module: "tlb",
            title: "Trans. Look. Buffer (TLB)",
            project: Project::Ariane,
            source: TLB_SV,
            has_bug_parameter: false,
            paper_outcome: PaperOutcome::FullProof,
            paper_result: "100% liveness/safety properties proof",
            extra_assumptions: &[],
        },
        DesignCase {
            id: "A3",
            module: "mmu",
            title: "Memory Mgmt. Unit (MMU)",
            project: Project::Ariane,
            source: MMU_SV,
            has_bug_parameter: true,
            paper_outcome: PaperOutcome::BugFoundThenProof,
            paper_result: "Bug found and fixed -> 100% proof",
            extra_assumptions: &[MMU_NO_STARVATION_ASSUMPTION],
        },
        DesignCase {
            id: "A4",
            module: "lsu",
            title: "Load Store Unit (LSU)",
            project: Project::Ariane,
            source: LSU_SV,
            has_bug_parameter: true,
            paper_outcome: PaperOutcome::KnownBugHit,
            paper_result: "Hit known bug (issue #538)",
            extra_assumptions: &[],
        },
        DesignCase {
            id: "A5",
            module: "icache",
            title: "L1-I$ (write-back)",
            project: Project::Ariane,
            source: ICACHE_SV,
            has_bug_parameter: true,
            paper_outcome: PaperOutcome::KnownBugHit,
            paper_result: "Hit known bug (issue #474)",
            extra_assumptions: &[],
        },
        DesignCase {
            id: "O1",
            module: "noc_buffer",
            title: "NoC Buffer",
            project: Project::OpenPiton,
            source: NOC_BUFFER_SV,
            has_bug_parameter: true,
            paper_outcome: PaperOutcome::BugFoundThenProof,
            paper_result: "Bug found and fixed -> 100% proof",
            extra_assumptions: &[],
        },
        DesignCase {
            id: "O2",
            module: "l15",
            title: "L1.5$ (private)",
            project: Project::OpenPiton,
            source: L15_SV,
            has_bug_parameter: false,
            paper_outcome: PaperOutcome::PartialWithCex,
            paper_result: "NoC Buffer proof, other CEXs",
            extra_assumptions: &[],
        },
    ]
}

/// Looks up a design case by its paper identifier (`A1`..`A5`, `O1`, `O2`).
pub fn by_id(id: &str) -> Option<DesignCase> {
    all_cases().into_iter().find(|c| c.id == id)
}

/// Looks up a design case by its top-module name.
pub fn by_module(module: &str) -> Option<DesignCase> {
    all_cases().into_iter().find(|c| c.module == module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_seven_modules() {
        let cases = all_cases();
        assert_eq!(cases.len(), 7);
        let ids: Vec<&str> = cases.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec!["A1", "A2", "A3", "A4", "A5", "O1", "O2"]);
        assert_eq!(
            cases
                .iter()
                .filter(|c| c.project == Project::Ariane)
                .count(),
            5
        );
        assert_eq!(
            cases
                .iter()
                .filter(|c| c.project == Project::OpenPiton)
                .count(),
            2
        );
    }

    #[test]
    fn lookup_by_id_and_module() {
        assert_eq!(by_id("O1").unwrap().module, "noc_buffer");
        assert_eq!(by_module("mmu").unwrap().id, "A3");
        assert!(by_id("Z9").is_none());
        assert!(by_module("missing").is_none());
    }

    #[test]
    fn variant_parameters() {
        let mmu = by_id("A3").unwrap();
        assert_eq!(mmu.params(Variant::Buggy), vec![("BUGGY".to_string(), 1)]);
        assert_eq!(mmu.params(Variant::Fixed), vec![("BUGGY".to_string(), 0)]);
        let ptw = by_id("A1").unwrap();
        assert!(ptw.params(Variant::Buggy).is_empty());
        assert!(ptw.params(Variant::Fixed).is_empty());
    }

    #[test]
    fn every_source_parses_and_contains_annotations() {
        for case in all_cases() {
            let file = svparse::parse(case.source)
                .unwrap_or_else(|e| panic!("{}: parse error: {}", case.id, e.render(case.source)));
            assert!(
                file.module(case.module).is_some(),
                "{}: module `{}` missing",
                case.id,
                case.module
            );
            assert!(
                case.source.contains("AUTOSVA"),
                "{}: missing AutoSVA annotations",
                case.id
            );
        }
    }

    #[test]
    fn bug_parameters_only_on_buggy_designs() {
        for case in all_cases() {
            assert_eq!(
                case.has_bug_parameter,
                case.source.contains("parameter BUGGY"),
                "{}: BUGGY parameter flag mismatch",
                case.id
            );
        }
    }

    #[test]
    fn paper_outcomes_match_expectations() {
        assert_eq!(by_id("A1").unwrap().paper_outcome, PaperOutcome::FullProof);
        assert_eq!(
            by_id("A3").unwrap().paper_outcome,
            PaperOutcome::BugFoundThenProof
        );
        assert_eq!(
            by_id("A4").unwrap().paper_outcome,
            PaperOutcome::KnownBugHit
        );
        assert_eq!(
            by_id("O2").unwrap().paper_outcome,
            PaperOutcome::PartialWithCex
        );
        assert!(by_id("A1").unwrap().proves_when_fixed());
        assert!(!by_id("A4").unwrap().proves_when_fixed());
    }

    #[test]
    fn elaboration_cache_returns_shared_designs() {
        let case = by_id("O1").unwrap();
        let first = elaborated(&case, Variant::Fixed);
        let second = elaborated(&case, Variant::Fixed);
        assert!(
            Arc::ptr_eq(&first, &second),
            "repeated elaborations must share one cached design"
        );
        // Variants elaborate differently and are cached separately.
        let buggy = elaborated(&case, Variant::Buggy);
        assert!(!Arc::ptr_eq(&first, &buggy));
        assert_eq!(first.top, "noc_buffer");
        assert!(first.aig.num_latches() > 0);
    }

    #[test]
    fn l15_carries_the_scaled_miss_counter() {
        // The O2 model must sit past the explicit engine's enumeration
        // cliff: ≥ 24 latches of design state, most of them the free-running
        // miss counter that only PDR can reason about efficiently.
        let case = by_id("O2").unwrap();
        let design = elaborated(&case, Variant::Fixed);
        assert!(
            design.aig.num_latches() >= 24,
            "expected ≥ 24 latches, got {}",
            design.aig.num_latches()
        );
        assert!(design.signal("miss_cnt_q").is_some());
        assert_eq!(design.width("miss_cnt_q"), Some(20));
    }

    #[test]
    fn struct_demo_and_flat_twin_share_interface() {
        let sources = struct_demo_sources();
        assert_eq!(sources.len(), 2);
        for (label, top, source) in &sources {
            let file = svparse::parse(source)
                .unwrap_or_else(|e| panic!("{label}: parse error: {}", e.render(source)));
            assert!(
                file.module(top).is_some(),
                "{label}: module `{top}` missing"
            );
            assert!(source.contains("AUTOSVA"), "{label}: missing annotations");
        }
        // The struct design carries the paper-style member-access annotation;
        // the twin spells the same condition as an explicit bit slice.
        assert!(FU_REQ_SV.contains("fu_data_i.fu == LOAD"));
        assert!(FU_REQ_FLAT_SV.contains("fu_data_i[1:0] == 2'd1"));
        // Both elaborate to the same model shape.
        let shapes: Vec<(usize, usize)> = sources
            .iter()
            .map(|(label, top, source)| {
                let file = svparse::parse(source).unwrap();
                let design = elaborate(
                    &file,
                    &ElabOptions {
                        top: Some(top.to_string()),
                        ..ElabOptions::default()
                    },
                )
                .unwrap_or_else(|e| panic!("{label}: elaboration error: {e}"));
                (design.aig.num_inputs(), design.aig.num_latches())
            })
            .collect();
        assert_eq!(shapes[0], shapes[1]);
    }

    #[test]
    fn l15_staging_push_is_gated_on_the_buffer_ready_output() {
        // The PR 1 registered-push workaround is gone: the push strobe is
        // combinationally gated on the instance's ready output.
        let src = by_id("O2").unwrap().source;
        assert!(src.contains("wire stage_push = busy_q && !pushed_q && stage_rdy;"));
        assert!(!src.contains("stage_push && stage_rdy"));
    }

    #[test]
    fn mmu_carries_the_starvation_assumption() {
        let mmu = by_id("A3").unwrap();
        assert_eq!(mmu.extra_assumptions.len(), 1);
        assert!(mmu.extra_assumptions[0].contains("itlb"));
        // The assumption must be a valid expression over the interface.
        assert!(svparse::parse_expr(mmu.extra_assumptions[0]).is_ok());
    }

    #[test]
    fn noc_buffer_annotation_is_three_lines() {
        // The paper highlights that the Mem Engine NoC-buffer testbench was
        // generated from just 3 lines of annotations.
        let src = by_id("O1").unwrap().source;
        let start = src.find("/*AUTOSVA").unwrap();
        let end = src[start..].find("*/").unwrap();
        let block = &src[start..start + end];
        let lines = block
            .lines()
            .skip(1)
            .filter(|l| !l.trim().is_empty())
            .count();
        assert_eq!(lines, 3);
    }
}
