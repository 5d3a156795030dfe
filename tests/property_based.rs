//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction: expression print/parse round trips,
//! word-level arithmetic circuits against integer semantics, annotation
//! field splitting, and packed-struct layout round trips through the
//! elaborator.

use autosva::annotation::split_field;
use autosva_formal::aig::Aig;
use autosva_formal::bmc::{check_target_budgeted, BmcOptions};
use autosva_formal::elab::{elaborate, ElabOptions};
use autosva_formal::interrupt::Interrupt;
use autosva_formal::model::Model;
use autosva_formal::psim::ParallelSim;
use autosva_formal::sat::SolverConfig;
use autosva_formal::verdict::{Certificate, Verdict};
use autosva_formal::words;
use proptest::prelude::*;
use std::fmt::Write as _;
use svparse::ast::{BinaryOp, Expr};
use svparse::pretty::print_expr;

/// Strategy producing small random expressions over a fixed signal alphabet.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        prop_oneof![
            Just("req_val"),
            Just("req_ack"),
            Just("data_q"),
            Just("cnt")
        ]
        .prop_map(Expr::ident),
        (0u128..256).prop_map(Expr::number),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::binary(
                BinaryOp::LogicalAnd,
                a,
                b
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::binary(BinaryOp::BitOr, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::binary(BinaryOp::Add, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::binary(BinaryOp::Eq, a, b)),
            inner
                .clone()
                .prop_map(|a| Expr::unary(svparse::ast::UnaryOp::LogicalNot, a)),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| Expr::Ternary {
                cond: Box::new(c),
                then_expr: Box::new(t),
                else_expr: Box::new(e),
            }),
        ]
    })
}

proptest! {
    /// Printing an expression and re-parsing it yields a tree that prints
    /// identically (print is a normal form).
    #[test]
    fn expression_print_parse_roundtrip(expr in arb_expr()) {
        let printed = print_expr(&expr);
        let reparsed = svparse::parse_expr(&printed).expect("printed expression parses");
        prop_assert_eq!(print_expr(&reparsed), printed);
    }

    /// The ripple-carry adder/subtractor circuits agree with wrapping integer
    /// arithmetic for every constant input.
    #[test]
    fn word_arithmetic_matches_integers(a in 0u128..4096, b in 0u128..4096) {
        let mut aig = Aig::new();
        let wa = words::constant(a, 12);
        let wb = words::constant(b, 12);
        let sum = words::add(&mut aig, &wa, &wb);
        let diff = words::sub(&mut aig, &wa, &wb);
        prop_assert_eq!(words::as_constant(&sum), Some((a + b) & 0xFFF));
        prop_assert_eq!(words::as_constant(&diff), Some(a.wrapping_sub(b) & 0xFFF));
        let lt = words::ult(&mut aig, &wa, &wb);
        prop_assert_eq!(lt == autosva_formal::aig::Lit::TRUE, a < b);
    }

    /// Splitting `<interface>_<suffix>` field names recovers the interface
    /// prefix for every legal suffix.
    #[test]
    fn field_splitting_recovers_interface(prefix in "[a-z][a-z0-9_]{0,12}[a-z0-9]") {
        for suffix in ["val", "ack", "transid", "transid_unique", "active", "stable", "data"] {
            let field = format!("{prefix}_{suffix}");
            if let Some((iface, parsed_suffix)) = split_field(&field) {
                // The split must reconstruct the original field name.
                prop_assert_eq!(format!("{iface}_{}", parsed_suffix.as_str()), field.clone());
            } else {
                prop_assert!(false, "field `{}` did not split", field);
            }
        }
    }

    /// Random packed-struct layouts round-trip through elaboration: member
    /// *reads* are exactly the declared bit slices of the flat signal
    /// (structural equality of AIG literals), member *writes* reassemble the
    /// whole word (proven equal to a flat mirror register by k-induction and
    /// checked against direct bit-slice semantics on random stimulus).
    #[test]
    fn packed_struct_layouts_roundtrip_through_elaboration(
        seed in 1u64..u64::MAX,
        num_fields in 1usize..5,
    ) {
        // Derive the field widths (1..=5 bits each) from the seed.
        let mut state = seed | 1;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let widths: Vec<usize> = (0..num_fields).map(|_| (rand() % 5 + 1) as usize).collect();
        let total: usize = widths.iter().sum();
        // Packed structs place the first-declared field at the MSB end.
        let offsets: Vec<usize> = {
            let mut off = total;
            widths
                .iter()
                .map(|w| {
                    off -= w;
                    off
                })
                .collect()
        };

        // Generate the design: a struct register written field-by-field from
        // slices of a flat input, a flat mirror register, and member-read
        // outputs.
        let mut src = String::from("package p_pkg;\n  typedef struct packed {\n");
        for (i, w) in widths.iter().enumerate() {
            let _ = writeln!(src, "    logic [{}:0] f{i};", w - 1);
        }
        src.push_str("  } s_t;\nendpackage\n");
        src.push_str("module s_mod (\n  input logic clk_i,\n  input logic rst_ni,\n");
        let _ = writeln!(src, "  input logic [{}:0] d_i,", total - 1);
        let _ = writeln!(src, "  output logic [{}:0] flat_o,", total - 1);
        let _ = writeln!(src, "  output logic match_o,");
        for (i, w) in widths.iter().enumerate() {
            let _ = writeln!(src, "  output logic [{}:0] f{i}_o,", w - 1);
        }
        src.push_str("  output logic dummy_o\n);\n");
        src.push_str("  p_pkg::s_t s_q;\n");
        let _ = writeln!(src, "  logic [{}:0] mirror_q;", total - 1);
        src.push_str(
            "  always_ff @(posedge clk_i or negedge rst_ni) begin\n    if (!rst_ni) begin\n      s_q <= '0;\n      mirror_q <= '0;\n    end else begin\n",
        );
        for (i, w) in widths.iter().enumerate() {
            let _ = writeln!(
                src,
                "      s_q.f{i} <= d_i[{}:{}];",
                offsets[i] + w - 1,
                offsets[i]
            );
        }
        src.push_str("      mirror_q <= d_i;\n    end\n  end\n");
        src.push_str("  assign flat_o = s_q;\n");
        src.push_str("  assign match_o = s_q == mirror_q;\n");
        for i in 0..num_fields {
            let _ = writeln!(src, "  assign f{i}_o = s_q.f{i};");
        }
        src.push_str("  assign dummy_o = 1'b0;\nendmodule\n");

        let file = svparse::parse(&src).expect("generated struct design parses");
        let design = elaborate(&file, &ElabOptions::default())
            .unwrap_or_else(|e| panic!("elaboration failed: {e}\n{src}"));

        // Member reads are exactly the declared slices of the flat signal.
        let s_q = design.signal("s_q").expect("struct register").to_vec();
        prop_assert_eq!(s_q.len(), total);
        for (i, w) in widths.iter().enumerate() {
            let field = design.signal(&format!("f{i}_o")).expect("member output");
            prop_assert_eq!(
                field,
                &s_q[offsets[i]..offsets[i] + w],
                "field f{} (offset {}, width {}) is not the declared slice",
                i,
                offsets[i],
                w
            );
        }

        // Member writes reassemble the word: the struct register equals the
        // flat mirror on every execution (k-induction proof).
        let match_bit = design.signal("match_o").expect("match output")[0];
        let model = Model::new(design.aig.clone());
        let (result, _) = check_target_budgeted(
            &model,
            match_bit.invert(),
            "struct_write_mismatch",
            &BmcOptions { max_depth: 10, max_induction: 10 },
            SolverConfig::default(),
            &Interrupt::none(),
        );
        match result {
            Some(Verdict::Unreachable(Certificate::Induction(_))) => {}
            other => prop_assert!(
                false,
                "struct/mirror equality not proven: {other:?} (widths {widths:?})"
            ),
        }

        // And against direct bit-slice semantics on random stimulus: after a
        // clock edge the struct register holds exactly the driven word.
        let model = Model::new(design.aig.clone());
        let mut sim = ParallelSim::new(&model);
        let bit_of: Vec<Option<usize>> = (0..model.aig.num_inputs())
            .map(|i| match model.aig.input_name(i) {
                "d_i" if total == 1 => Some(0),
                name => (0..total).position(|k| name == format!("d_i[{k}]")),
            })
            .collect();
        for _ in 0..16 {
            let value = rand() as u128 & ((1u128 << total) - 1);
            // Lane 0 carries the stimulus; the other lanes stay zero.
            let inputs: Vec<u64> = bit_of
                .iter()
                .map(|bit| bit.map_or(0, |k| ((value >> k) & 1) as u64))
                .collect();
            sim.step_inputs(&inputs);
            sim.advance();
            for (i, w) in widths.iter().enumerate() {
                let expect = (value >> offsets[i]) & ((1u128 << w) - 1);
                let got: u128 = s_q[offsets[i]..offsets[i] + w]
                    .iter()
                    .enumerate()
                    .map(|(k, &lit)| if sim.word(lit) & 1 == 1 { 1u128 << k } else { 0 })
                    .sum();
                prop_assert_eq!(
                    got, expect,
                    "field f{} disagrees with bit-slice semantics (widths {:?})",
                    i, &widths
                );
            }
        }
    }

    /// The generated testbench is total for any combination of optional
    /// attributes on a simple request/response pair: generation never panics
    /// and always yields at least a cover and one liveness-or-fairness
    /// property.
    #[test]
    fn generation_is_total_over_attribute_subsets(
        with_ack in any::<bool>(),
        with_transid in any::<bool>(),
        with_data in any::<bool>(),
        outgoing in any::<bool>(),
    ) {
        let mut annotations = String::from("/*AUTOSVA\n");
        let relation = if outgoing { "-out>" } else { "-in>" };
        annotations.push_str(&format!("txn: req {relation} res\n"));
        annotations.push_str("req_val = req_v\n");
        if with_ack {
            annotations.push_str("req_ack = req_a\n");
        }
        if with_transid {
            annotations.push_str("[1:0] req_transid = req_id\n[1:0] res_transid = res_id\n");
        }
        if with_data {
            annotations.push_str("[3:0] req_data = req_d\n[3:0] res_data = res_d\n");
        }
        annotations.push_str("res_val = res_v\n*/\n");
        let rtl = format!(
            "{annotations}module m (\n  input logic clk_i,\n  input logic rst_ni,\n  input logic req_v,\n  output logic req_a,\n  input logic [1:0] req_id,\n  input logic [3:0] req_d,\n  output logic res_v,\n  output logic [1:0] res_id,\n  output logic [3:0] res_d\n);\nendmodule\n"
        );
        let ft = autosva::generate_ft(&rtl, &autosva::AutosvaOptions::default())
            .expect("generation succeeds");
        let stats = ft.stats();
        prop_assert!(stats.covers >= 1);
        prop_assert!(stats.properties >= 3);
        if with_data {
            prop_assert!(ft.all_properties().iter().any(|p| p.name.contains("data_integrity")));
        }
    }
}
