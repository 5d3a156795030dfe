//! E1 — Table III reproduction.
//!
//! For every module of the evaluation corpus, generate the formal testbench
//! from its annotations, run the bundled model checker, and check that the
//! qualitative outcome matches what the paper reports: proofs for the
//! healthy designs, counterexamples for the buggy ones, and proofs after the
//! published fixes.

use autosva_bench::{build_testbench, default_check_options, run_case, status_counts};
use autosva_designs::{all_cases, by_id, elaborated, PaperOutcome, Variant};
use autosva_formal::bmc::{check_target_budgeted, BmcOptions};
use autosva_formal::checker::{verify_elaborated, Proof, PropertyStatus};
use autosva_formal::explicit::{self, ExplicitOptions};
use autosva_formal::interrupt::Interrupt;
use autosva_formal::pdr::{check_pdr_budgeted, PdrOptions};
use autosva_formal::sat::SolverConfig;
use autosva_formal::verdict::{Certificate, Verdict};
use std::time::Duration;

#[test]
fn a1_ptw_proves_all_properties() {
    let run = run_case(&by_id("A1").unwrap(), Variant::Fixed);
    assert!(
        run.fully_proven(),
        "PTW should fully prove:\n{}",
        run.report.render()
    );
    let (proven, violated, covered, unknown) = status_counts(&run.report);
    assert!(proven >= 4);
    assert_eq!(violated, 0);
    assert!(covered >= 2, "both transactions must be coverable");
    assert_eq!(unknown, 0, "no property may remain undecided");
}

#[test]
fn a2_tlb_proves_all_properties() {
    let run = run_case(&by_id("A2").unwrap(), Variant::Fixed);
    assert!(
        run.fully_proven(),
        "TLB should fully prove:\n{}",
        run.report.render()
    );
    // Data integrity across the lookup pipeline is part of the proof set.
    assert!(run
        .report
        .results
        .iter()
        .any(|r| r.name.contains("data_integrity") && format!("{}", r.status) == "proven"));
}

#[test]
fn a3_mmu_bug_found_and_fix_proves() {
    let case = by_id("A3").unwrap();
    assert_eq!(case.paper_outcome, PaperOutcome::BugFoundThenProof);

    let buggy = run_case(&case, Variant::Buggy);
    assert!(
        buggy.report.violations() > 0,
        "the ghost-response bug must be found"
    );
    // The ghost response violates the "every response had a request" safety
    // check, exactly as described for Bug1 in the paper.
    assert!(
        buggy
            .violated_properties()
            .iter()
            .any(|p| p.contains("mmu_lsu_had_a_request")),
        "violations: {:?}",
        buggy.violated_properties()
    );
    // The paper reports a 5-cycle trace; our simplified MMU produces a
    // comparably short one.
    assert!(buggy.shortest_cex().unwrap() <= 8);

    let fixed = run_case(&case, Variant::Fixed);
    assert!(
        fixed.fully_proven(),
        "the fixed MMU should prove 100%:\n{}",
        fixed.report.render()
    );
}

#[test]
fn a4_lsu_hits_known_bug() {
    let case = by_id("A4").unwrap();
    let buggy = run_case(&case, Variant::Buggy);
    assert!(buggy.report.violations() > 0);
    // The ongoing load killed by a later exception never completes: the
    // eventual-response liveness property is the one that fires.
    assert!(
        buggy
            .violated_properties()
            .iter()
            .any(|p| p.contains("lsu_load_eventual_response")),
        "violations: {:?}",
        buggy.violated_properties()
    );
    // The fix (not flushing the in-flight load) restores the proof.
    let fixed = run_case(&case, Variant::Fixed);
    assert!(fixed.fully_proven(), "{}", fixed.report.render());
}

#[test]
fn a5_icache_hits_known_bug() {
    let case = by_id("A5").unwrap();
    let buggy = run_case(&case, Variant::Buggy);
    assert!(buggy.report.violations() > 0);
    assert!(
        buggy
            .violated_properties()
            .iter()
            .any(|p| p.contains("icache_fetch")),
        "violations: {:?}",
        buggy.violated_properties()
    );
    let fixed = run_case(&case, Variant::Fixed);
    assert!(fixed.fully_proven(), "{}", fixed.report.render());
}

#[test]
fn o1_noc_buffer_deadlock_found_and_fix_proves() {
    let case = by_id("O1").unwrap();
    let buggy = run_case(&case, Variant::Buggy);
    assert!(
        buggy.report.violations() > 0,
        "the overflow deadlock must be found"
    );
    assert!(
        buggy
            .violated_properties()
            .iter()
            .any(|p| p.contains("noc_txn_eventual_response")),
        "violations: {:?}",
        buggy.violated_properties()
    );
    let fixed = run_case(&case, Variant::Fixed);
    assert!(
        fixed.fully_proven(),
        "the not-full fix should restore the proof:\n{}",
        fixed.report.render()
    );
}

#[test]
fn o2_l15_partial_result_matches_paper() {
    // "NoC Buffer proof, other CEXs": the miss-to-fill liveness shows
    // counterexamples caused by under-constrained return-message types,
    // while the rest of the properties (including everything related to the
    // embedded, fixed NoC buffer) hold.
    let case = by_id("O2").unwrap();
    let run = run_case(&case, Variant::Fixed);
    assert!(run.report.violations() > 0);
    assert!(run
        .violated_properties()
        .iter()
        .all(|p| p.contains("l15_miss")));
    // The safety side of the miss transaction still proves.
    assert!(run
        .report
        .results
        .iter()
        .any(|r| r.name.contains("l15_miss_had_a_request") && format!("{}", r.status) == "proven"));
    let (_, _, covered, unknown) = status_counts(&run.report);
    assert!(covered >= 2);
    assert_eq!(unknown, 0);
}

#[test]
fn o2_scaled_l15_proof_closes_via_pdr_not_explicit() {
    // The L1.5 model carries a 20-bit free-running miss counter: with the
    // testbench monitors the compiled model is far past the explicit
    // engine's enumeration cliff (the seed recorded 38.8 s at just 20
    // latches, and every counter value is now reachable), so the
    // `had_a_request` proof must be closed by the PDR stage — in seconds,
    // with an inductive-invariant certificate.
    let case = by_id("O2").unwrap();
    let run = run_case(&case, Variant::Fixed);
    assert!(
        run.report.model_latches >= 24,
        "expected the scaled model to hold >= 24 latches, got {}",
        run.report.model_latches
    );
    let had = run
        .report
        .results
        .iter()
        .find(|r| r.name.contains("l15_miss_had_a_request"))
        .expect("monitor property exists");
    assert!(
        matches!(had.status.proof(), Some(Proof::Invariant { .. })),
        "proof must come from the PDR stage, got {:?}",
        had.status
    );
    assert!(
        had.runtime < Duration::from_secs(5),
        "PDR proof took {:?}, expected seconds",
        had.runtime
    );

    // Re-derive the invariant straight from the PDR engine and validate it
    // with an independent SAT check on a fresh encoding.
    let ft = build_testbench(&case);
    let design = elaborated(&case, Variant::Fixed);
    let compiled = autosva_formal::compile::compile(&design, &ft).expect("testbench compiles");
    let bad = compiled
        .model
        .bads
        .iter()
        .find(|b| b.name.contains("l15_miss_had_a_request"))
        .map(|b| b.lit)
        .expect("monitor bad-state literal exists");
    let (result, ..) = check_pdr_budgeted(
        &compiled.model,
        &[bad],
        &PdrOptions::default(),
        SolverConfig::default(),
        &Interrupt::none(),
    );
    match result {
        Some(Verdict::Unreachable(Certificate::Invariant(invariant))) => {
            assert!(
                invariant.certify(&compiled.model, bad),
                "the L1.5 invariant must pass independent certification"
            );
        }
        other => panic!("expected a PDR proof, got {other:?}"),
    }

    // On the full 36-latch model, neither the explicit engine nor BMC with
    // k-induction to depths 25 and 10, well past the BMC stage's, can close
    // the proof, which is exactly the cliff the PDR stage removes.
    let limits = ExplicitOptions::default();
    let verdict = explicit::reach(&compiled.model, bad, &limits, &Interrupt::none());
    assert!(
        verdict.is_none(),
        "the explicit engine must not close the scaled proof on the full model, got {verdict:?}"
    );
    let bounds = BmcOptions {
        max_depth: 25,
        max_induction: 10,
    };
    let (verdict, _) = check_target_budgeted(
        &compiled.model,
        bad,
        "l15_miss_had_a_request",
        &bounds,
        SolverConfig::default(),
        &Interrupt::none(),
    );
    assert!(
        verdict.is_none(),
        "BMC must not close the scaled proof on the full model, got {verdict:?}"
    );

    // COI slicing removes the same cliff from the other side: the
    // free-running miss counter is outside the property's cone, so with
    // slicing on (the default) even the explicit engine closes the proof on
    // the slice.
    let mut options = default_check_options(&case, Variant::Fixed);
    options.disable_pdr = true;
    let report = verify_elaborated(&design, &ft, &options).expect("verification runs");
    let had = report
        .results
        .iter()
        .find(|r| r.name.contains("l15_miss_had_a_request"))
        .expect("monitor property exists");
    assert!(
        matches!(had.status.proof(), Some(Proof::Reachability)),
        "the sliced model must sit below the explicit cliff, got {:?}",
        had.status
    );
    assert!(
        had.slice_latches < report.model_latches,
        "slice ({} latches) must be strictly smaller than the model ({})",
        had.slice_latches,
        report.model_latches
    );
}

#[test]
fn l15_staging_buffer_combinational_instance_path_elaborates() {
    // Regression for the PR 1 workaround: the natural L1.5 staging-buffer
    // wiring gates the push strobe on the buffer's *ready output* in the
    // same cycle (`stage_push = ... && stage_rdy` feeding `push_val_i`).
    // That in-through-out path is acyclic per port (`push_rdy_o` depends
    // only on the buffer's own state), but an instance-atomic elaborator
    // reports a false combinational cycle — PR 1 registered the push path to
    // dodge it.  The workaround is now gone: pin both the wiring and the
    // fact that it elaborates.
    let case = by_id("O2").unwrap();
    assert!(
        case.source.contains("&& stage_rdy"),
        "l15.sv no longer wires the push strobe through the buffer's ready output"
    );
    let design = elaborated(&case, Variant::Fixed);
    assert!(design.signal("u_noc_stage.vld_q").is_some());

    // The same shape in isolation: a parent whose instance input depends
    // combinationally on another output of that same instance.
    let src = "module buf2 (input logic clk_i, input logic rst_ni,\n\
                 input logic push_i, output logic rdy_o, output logic out_o);\n\
                 logic full_q;\n\
                 always_ff @(posedge clk_i or negedge rst_ni) begin\n\
                   if (!rst_ni) full_q <= 1'b0;\n\
                   else if (push_i && rdy_o) full_q <= 1'b1;\n\
                   else full_q <= 1'b0;\n\
                 end\n\
                 assign rdy_o = !full_q;\n\
                 assign out_o = full_q;\n\
               endmodule\n\
               module top (input logic clk_i, input logic rst_ni,\n\
                 input logic req_i, output logic busy_o);\n\
                 logic rdy;\n\
                 wire push = req_i && rdy;\n\
                 buf2 u_b (.clk_i(clk_i), .rst_ni(rst_ni), .push_i(push),\n\
                           .rdy_o(rdy), .out_o(busy_o));\n\
               endmodule";
    let file = svparse::parse(src).expect("parse");
    let design = autosva_formal::elab::elaborate(
        &file,
        &autosva_formal::elab::ElabOptions {
            top: Some("top".to_string()),
            ..Default::default()
        },
    )
    .expect("the acyclic-per-port instance path must elaborate");
    assert!(design.signal("u_b.full_q").is_some());

    // Table III verdicts for O2 are unchanged by the rewiring: the safety
    // side proves, the under-constrained liveness side still shows CEXs.
    let run = run_case(&case, Variant::Fixed);
    assert!(run.report.violations() > 0);
    assert!(run
        .report
        .results
        .iter()
        .any(|r| r.name.contains("l15_miss_had_a_request") && format!("{}", r.status) == "proven"));
    let (_, _, covered, unknown) = status_counts(&run.report);
    assert!(covered >= 2);
    assert_eq!(unknown, 0);
}

#[test]
fn coi_slices_are_strictly_smaller_for_ptw_and_l15() {
    // The orchestrator checks every property on its cone-of-influence
    // slice.  For the PTW (two independent transactions) and the scaled
    // L1.5 (20-bit statistics counter no property observes) every checked
    // property's cone must be strictly smaller than the compiled model.
    for id in ["A1", "O2"] {
        let run = run_case(&by_id(id).unwrap(), Variant::Fixed);
        let checked: Vec<_> = run
            .report
            .results
            .iter()
            .filter(|r| !matches!(r.status, PropertyStatus::NotChecked(_)))
            .collect();
        assert!(!checked.is_empty(), "{id}: no checked properties");
        for r in &checked {
            assert!(
                r.slice_latches <= run.report.model_latches,
                "{id}/{}: slice ({} latches) larger than the model ({})",
                r.name,
                r.slice_latches,
                run.report.model_latches
            );
        }
        // A cone can legitimately span the whole design (the PTW
        // data-integrity check reads every latch), but for these two
        // multi-transaction / counter-carrying designs the majority of
        // properties must observe strictly less than the full model.
        let smaller = checked
            .iter()
            .filter(|r| r.slice_latches < run.report.model_latches)
            .count();
        assert!(
            smaller * 2 > checked.len(),
            "{id}: only {smaller}/{} properties have strictly smaller cones",
            checked.len()
        );
        // Slice sizes are part of the rendered report.
        assert!(run.report.render().contains("cone"), "{id}: no cone sizes");
    }

    // The L1.5 slices must specifically exclude the 20-bit miss counter.
    let o2 = run_case(&by_id("O2").unwrap(), Variant::Fixed);
    let max_slice = o2
        .report
        .results
        .iter()
        .map(|r| r.slice_latches)
        .max()
        .unwrap();
    assert!(
        max_slice + 20 <= o2.report.model_latches,
        "largest O2 cone ({max_slice} latches) should exclude the 20 counter latches (model: {})",
        o2.report.model_latches
    );
}

#[test]
fn whole_corpus_summary_matches_paper_shape() {
    // Across the corpus: every "fixed" design proves, every buggy variant
    // yields at least one counterexample, and no property is left undecided.
    for case in all_cases() {
        let fixed = run_case(&case, Variant::Fixed);
        let (_, _, _, unknown) = status_counts(&fixed.report);
        assert_eq!(unknown, 0, "{}: undecided properties", case.id);
        if case.proves_when_fixed() {
            assert!(
                fixed.fully_proven(),
                "{}: expected full proof, got\n{}",
                case.id,
                fixed.report.render()
            );
        }
        if case.has_bug_parameter {
            let buggy = run_case(&case, Variant::Buggy);
            assert!(
                buggy.report.violations() > 0,
                "{}: expected the bug to be found",
                case.id
            );
        }
    }
}
