//! Property generation based on transaction attributes (Section III-B,
//! Table II of the paper).
//!
//! For every validated [`Transaction`] the generator produces:
//!
//! * auxiliary modeling code (handshake wires, symbolic transaction-ID
//!   variables, outstanding-transaction counters, data sampling registers),
//! * liveness, safety, stability, uniqueness, data-integrity and
//!   X-propagation properties with the assert/assume polarity dictated by the
//!   transaction direction,
//! * a cover point witnessing that the transaction can actually happen.
//!
//! The polarity rules follow Table II: attributes marked `*` in the paper
//! (`val`, `ack`, `transid`, `data`) are *asserted* for incoming transactions
//! and *assumed* for outgoing ones; `stable` and `transid_unique` have the
//! opposite polarity; `active` is always asserted.

use crate::annotation::{RelationDir, WidthSpec};
use crate::signals::{AuxSignal, DEFAULT_COUNTER_WIDTH};
use crate::sva::{Consequent, Directive, PropertyBody, PropertyClass, SvaProperty};
use crate::transaction::Transaction;
use svparse::ast::{BinaryOp, Expr, UnaryOp};

/// Options controlling property generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropgenOptions {
    /// Convert every assumption into an assertion (the paper's
    /// `ASSERT_INPUTS` parameter, used when verifying a submodule whose
    /// inputs are driven by real logic).
    pub assert_inputs: bool,
    /// Width in bits of the outstanding-transaction counters.
    pub counter_width: u32,
    /// Generate X-propagation assertions (guarded by the `XPROP` macro and
    /// only checked in simulation).
    pub xprop: bool,
}

impl Default for PropgenOptions {
    fn default() -> Self {
        PropgenOptions {
            assert_inputs: false,
            counter_width: DEFAULT_COUNTER_WIDTH,
            xprop: true,
        }
    }
}

/// The generated model for a single transaction: its auxiliary signals and
/// properties.
#[derive(Debug, Clone, PartialEq)]
pub struct TransactionModel {
    /// The transaction this model was generated from.
    pub transaction: Transaction,
    /// Auxiliary signals (wires, counters, symbolics, sample registers).
    pub aux: Vec<AuxSignal>,
    /// Generated properties.
    pub properties: Vec<SvaProperty>,
}

/// The complete generated formal-testbench model for a DUT: every
/// transaction's auxiliary signals (deduplicated by name) and properties.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FtModel {
    /// Per-transaction models.
    pub models: Vec<TransactionModel>,
}

impl FtModel {
    /// All auxiliary signals across transactions, deduplicated by name
    /// (interfaces shared by several transactions produce identical handshake
    /// wires).
    pub fn aux_signals(&self) -> Vec<&AuxSignal> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for model in &self.models {
            for aux in &model.aux {
                if seen.insert(aux.name.clone()) {
                    out.push(aux);
                }
            }
        }
        out
    }

    /// All generated properties in transaction order.
    pub fn properties(&self) -> Vec<&SvaProperty> {
        self.models
            .iter()
            .flat_map(|m| m.properties.iter())
            .collect()
    }

    /// Number of unique properties (by full name).
    pub fn unique_property_count(&self) -> usize {
        let names: std::collections::HashSet<String> =
            self.properties().iter().map(|p| p.full_name()).collect();
        names.len()
    }
}

/// Generates the full formal-testbench model for a set of transactions.
pub fn generate(transactions: &[Transaction], opts: &PropgenOptions) -> FtModel {
    FtModel {
        models: transactions
            .iter()
            .map(|t| generate_for_transaction(t, opts))
            .collect(),
    }
}

/// Directive for attributes asserted on incoming / assumed on outgoing
/// transactions (`val`, `ack`, `transid`, `data`).
fn forward_directive(dir: RelationDir) -> Directive {
    match dir {
        RelationDir::Incoming => Directive::Assert,
        RelationDir::Outgoing => Directive::Assume,
    }
}

/// Directive for attributes assumed on incoming / asserted on outgoing
/// transactions (`stable`, `transid_unique`).
fn reverse_directive(dir: RelationDir) -> Directive {
    match dir {
        RelationDir::Incoming => Directive::Assume,
        RelationDir::Outgoing => Directive::Assert,
    }
}

fn class_for(directive: Directive, asserted_class: PropertyClass) -> PropertyClass {
    // Liveness obligations that end up assumed act as environment fairness.
    if directive == Directive::Assume && asserted_class == PropertyClass::Liveness {
        PropertyClass::Fairness
    } else {
        asserted_class
    }
}

fn and(a: Expr, b: Expr) -> Expr {
    Expr::binary(BinaryOp::LogicalAnd, a, b)
}

fn or(a: Expr, b: Expr) -> Expr {
    Expr::binary(BinaryOp::LogicalOr, a, b)
}

fn not(a: Expr) -> Expr {
    Expr::unary(UnaryOp::LogicalNot, a)
}

fn eq(a: Expr, b: Expr) -> Expr {
    Expr::binary(BinaryOp::Eq, a, b)
}

fn gt_zero(name: &str) -> Expr {
    Expr::binary(BinaryOp::Gt, Expr::ident(name), Expr::number(0))
}

fn eq_zero(name: &str) -> Expr {
    Expr::binary(BinaryOp::Eq, Expr::ident(name), Expr::number(0))
}

/// Generates auxiliary signals and properties for one transaction.
pub fn generate_for_transaction(txn: &Transaction, opts: &PropgenOptions) -> TransactionModel {
    let mut aux = Vec::new();
    let mut properties = Vec::new();
    let tname = &txn.name;
    let has_response = txn.response.val.is_some();
    let tracks_id = txn.tracks_transid();

    // ----------------------------------------------------------------
    // Auxiliary signals
    // ----------------------------------------------------------------
    let p_hsk_name = format!("{}_hsk", txn.request.name);
    if let Some(hsk) = txn.request.handshake_expr() {
        aux.push(AuxSignal::wire(p_hsk_name.clone(), hsk));
    }
    let q_hsk_name = format!("{}_hsk", txn.response.name);
    if has_response {
        if let Some(hsk) = txn.response.handshake_expr() {
            aux.push(AuxSignal::wire(q_hsk_name.clone(), hsk));
        }
    }

    let symb_name = format!("symb_{tname}_transid");
    if tracks_id {
        let width = txn
            .request
            .transid
            .as_ref()
            .and_then(|t| t.width.clone())
            .or_else(|| txn.response.transid.as_ref().and_then(|t| t.width.clone()));
        aux.push(AuxSignal::symbolic(symb_name.clone(), width));
    }

    let set_name = format!("{tname}_set");
    let response_name = format!("{tname}_response");
    let sampled_name = format!("{tname}_sampled");
    let data_sampled_name = format!("{tname}_data_sampled");

    if has_response {
        // `set`: a tracked request handshake this cycle.
        let mut set_expr = Expr::ident(p_hsk_name.clone());
        if tracks_id {
            let req_id = txn
                .request
                .transid
                .as_ref()
                .expect("tracks_id")
                .expr
                .clone();
            set_expr = and(set_expr, eq(req_id, Expr::ident(symb_name.clone())));
        }
        aux.push(AuxSignal::wire(set_name.clone(), set_expr));

        // `response`: a tracked response handshake this cycle.
        let mut resp_expr = Expr::ident(q_hsk_name.clone());
        if tracks_id {
            let res_id = txn
                .response
                .transid
                .as_ref()
                .expect("tracks_id")
                .expr
                .clone();
            resp_expr = and(resp_expr, eq(res_id, Expr::ident(symb_name.clone())));
        }
        aux.push(AuxSignal::wire(response_name.clone(), resp_expr));

        // Outstanding-transaction counter.
        aux.push(AuxSignal::counter(
            sampled_name.clone(),
            opts.counter_width,
            Expr::ident(set_name.clone()),
            Expr::ident(response_name.clone()),
        ));

        if txn.checks_data() {
            let req_data = txn.request.data.as_ref().expect("checks_data");
            aux.push(AuxSignal::sample(
                data_sampled_name.clone(),
                req_data.width.clone(),
                Expr::ident(set_name.clone()),
                req_data.expr.clone(),
            ));
        }
    }

    // ----------------------------------------------------------------
    // Cover: the transaction can actually happen.  Zero-latency responses
    // never raise the outstanding counter, so the cover also accepts a
    // request handshake in the current cycle.
    // ----------------------------------------------------------------
    let cover_body = if has_response {
        PropertyBody::Invariant(or(Expr::ident(set_name.clone()), gt_zero(&sampled_name)))
    } else {
        PropertyBody::Invariant(Expr::ident(p_hsk_name.clone()))
    };
    properties.push(SvaProperty {
        name: format!("{tname}_request_happens"),
        directive: Directive::Cover,
        class: PropertyClass::Cover,
        body: cover_body,
        xprop_only: false,
        transaction: tname.clone(),
    });

    // ----------------------------------------------------------------
    // `ack` — request is eventually accepted (or dropped when no `stable`
    // payload is declared).
    // ----------------------------------------------------------------
    if let (Some(val), Some(ack)) = (&txn.request.val, &txn.request.ack) {
        let directive = forward_directive(txn.dir);
        let target = if txn.request.stable.is_some() {
            ack.expr.clone()
        } else {
            or(not(val.expr.clone()), ack.expr.clone())
        };
        properties.push(SvaProperty {
            name: format!("{tname}_hsk_or_drop"),
            directive,
            class: class_for(directive, PropertyClass::Liveness),
            body: PropertyBody::Implication {
                antecedent: val.expr.clone(),
                consequent: Consequent::Eventually(target),
                non_overlap: false,
            },
            xprop_only: false,
            transaction: tname.clone(),
        });
    }
    // Response-side handshake: the party accepting the response is the
    // opposite of the one accepting the request.
    if let (Some(val), Some(ack)) = (&txn.response.val, &txn.response.ack) {
        let directive = forward_directive(flip(txn.dir));
        let target = if txn.response.stable.is_some() {
            ack.expr.clone()
        } else {
            or(not(val.expr.clone()), ack.expr.clone())
        };
        properties.push(SvaProperty {
            name: format!("{tname}_response_hsk_or_drop"),
            directive,
            class: class_for(directive, PropertyClass::Liveness),
            body: PropertyBody::Implication {
                antecedent: val.expr.clone(),
                consequent: Consequent::Eventually(target),
                non_overlap: false,
            },
            xprop_only: false,
            transaction: tname.clone(),
        });
    }

    // ----------------------------------------------------------------
    // `val` — every request eventually gets a response, and every response
    // had a request.
    // ----------------------------------------------------------------
    if has_response {
        let directive = forward_directive(txn.dir);
        properties.push(SvaProperty {
            name: format!("{tname}_eventual_response"),
            directive,
            class: class_for(directive, PropertyClass::Liveness),
            body: PropertyBody::Implication {
                antecedent: Expr::ident(set_name.clone()),
                consequent: Consequent::Eventually(Expr::ident(response_name.clone())),
                non_overlap: false,
            },
            xprop_only: false,
            transaction: tname.clone(),
        });
        properties.push(SvaProperty {
            name: format!("{tname}_had_a_request"),
            directive,
            class: PropertyClass::Safety,
            body: PropertyBody::Implication {
                antecedent: Expr::ident(response_name.clone()),
                consequent: Consequent::Expr(or(
                    Expr::ident(set_name.clone()),
                    gt_zero(&sampled_name),
                )),
                non_overlap: false,
            },
            xprop_only: false,
            transaction: tname.clone(),
        });
    }

    // ----------------------------------------------------------------
    // `stable` — payload held until acknowledged.
    // ----------------------------------------------------------------
    if let (Some(val), Some(ack), Some(stable)) =
        (&txn.request.val, &txn.request.ack, &txn.request.stable)
    {
        let directive = reverse_directive(txn.dir);
        properties.push(SvaProperty {
            name: format!("{tname}_stability"),
            directive,
            class: PropertyClass::Stability,
            body: PropertyBody::Implication {
                antecedent: and(val.expr.clone(), not(ack.expr.clone())),
                consequent: Consequent::Stable(stable.expr.clone()),
                non_overlap: true,
            },
            xprop_only: false,
            transaction: tname.clone(),
        });
    }
    if let (Some(val), Some(ack), Some(stable)) =
        (&txn.response.val, &txn.response.ack, &txn.response.stable)
    {
        let directive = reverse_directive(flip(txn.dir));
        properties.push(SvaProperty {
            name: format!("{tname}_response_stability"),
            directive,
            class: PropertyClass::Stability,
            body: PropertyBody::Implication {
                antecedent: and(val.expr.clone(), not(ack.expr.clone())),
                consequent: Consequent::Stable(stable.expr.clone()),
                non_overlap: true,
            },
            xprop_only: false,
            transaction: tname.clone(),
        });
    }

    // ----------------------------------------------------------------
    // `transid_unique` — at most one outstanding transaction per ID.
    // ----------------------------------------------------------------
    if (txn.request.transid_unique || txn.response.transid_unique) && has_response && tracks_id {
        let directive = reverse_directive(txn.dir);
        properties.push(SvaProperty {
            name: format!("{tname}_transid_unique"),
            directive,
            class: PropertyClass::Uniqueness,
            body: PropertyBody::Implication {
                antecedent: Expr::ident(set_name.clone()),
                consequent: Consequent::Expr(eq_zero(&sampled_name)),
                non_overlap: false,
            },
            xprop_only: false,
            transaction: tname.clone(),
        });
    }

    // ----------------------------------------------------------------
    // `data` — response data matches the (sampled) request data.
    // ----------------------------------------------------------------
    if has_response && txn.checks_data() {
        let directive = forward_directive(txn.dir);
        let req_data = txn.request.data.as_ref().expect("checks_data").expr.clone();
        let res_data = txn
            .response
            .data
            .as_ref()
            .expect("checks_data")
            .expr
            .clone();
        // If the request and response handshakes coincide (zero-latency
        // response) the data is compared directly; otherwise against the
        // sampling register.
        let expected = Expr::Ternary {
            cond: Box::new(and(Expr::ident(set_name.clone()), eq_zero(&sampled_name))),
            then_expr: Box::new(req_data),
            else_expr: Box::new(Expr::ident(data_sampled_name.clone())),
        };
        properties.push(SvaProperty {
            name: format!("{tname}_data_integrity"),
            directive,
            class: PropertyClass::DataIntegrity,
            body: PropertyBody::Implication {
                antecedent: Expr::ident(response_name.clone()),
                consequent: Consequent::Expr(eq(res_data, expected)),
                non_overlap: false,
            },
            xprop_only: false,
            transaction: tname.clone(),
        });
    }

    // ----------------------------------------------------------------
    // `active` — asserted while a transaction is outstanding.
    // ----------------------------------------------------------------
    for (side, suffix) in [(&txn.request, "request"), (&txn.response, "response")] {
        if let Some(active) = &side.active {
            if has_response {
                properties.push(SvaProperty {
                    name: format!("{tname}_{suffix}_active"),
                    directive: Directive::Assert,
                    class: PropertyClass::Safety,
                    body: PropertyBody::Implication {
                        antecedent: gt_zero(&sampled_name),
                        consequent: Consequent::Expr(active.expr.clone()),
                        non_overlap: false,
                    },
                    xprop_only: false,
                    transaction: tname.clone(),
                });
            }
        }
    }

    // ----------------------------------------------------------------
    // X-propagation assertions (simulation only).
    // ----------------------------------------------------------------
    if opts.xprop {
        for (side, suffix) in [(&txn.request, "request"), (&txn.response, "response")] {
            if let Some(val) = &side.val {
                let payload: Vec<Expr> = side
                    .payload_signals()
                    .iter()
                    .map(|s| s.expr.clone())
                    .collect();
                if payload.is_empty() {
                    continue;
                }
                let concat = if payload.len() == 1 {
                    payload.into_iter().next().expect("len checked")
                } else {
                    Expr::Concat(payload)
                };
                properties.push(SvaProperty {
                    name: format!("{tname}_{suffix}_xprop"),
                    directive: Directive::Assert,
                    class: PropertyClass::Xprop,
                    body: PropertyBody::Implication {
                        antecedent: val.expr.clone(),
                        consequent: Consequent::NotUnknown(concat),
                        non_overlap: false,
                    },
                    xprop_only: true,
                    transaction: tname.clone(),
                });
            }
        }
    }

    // ----------------------------------------------------------------
    // ASSERT_INPUTS: every assumption becomes an assertion.
    // ----------------------------------------------------------------
    if opts.assert_inputs {
        properties = properties.into_iter().map(|p| p.asserted()).collect();
    }

    TransactionModel {
        transaction: txn.clone(),
        aux,
        properties,
    }
}

fn flip(dir: RelationDir) -> RelationDir {
    match dir {
        RelationDir::Incoming => RelationDir::Outgoing,
        RelationDir::Outgoing => RelationDir::Incoming,
    }
}

/// Returns the width specification of a counter with `bits` bits.
pub fn counter_width_spec(bits: u32) -> WidthSpec {
    WidthSpec {
        msb: Expr::number(u128::from(bits.saturating_sub(1))),
        lsb: Expr::number(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::parse_annotations;
    use crate::transaction::build_transactions;
    use svparse::parse_with_comments;

    fn model_for(src: &str, module: &str, opts: &PropgenOptions) -> FtModel {
        let (file, comments) = parse_with_comments(src).unwrap();
        let module = file.module(module).unwrap();
        let block = parse_annotations(&comments, module).unwrap();
        let txns = build_transactions(&block).unwrap();
        generate(&txns, opts)
    }

    const LSU: &str = r#"
/*AUTOSVA
lsu_load: lsu_req -in> lsu_res
lsu_req_val = lsu_valid_i
lsu_req_rdy = lsu_ready_o
[2:0] lsu_req_transid = trans_id_i
[4:0] lsu_req_stable = {trans_id_i, fu_i}
lsu_res_val = load_valid_o
[2:0] lsu_res_transid = load_trans_id_o
*/
module lsu (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic lsu_valid_i,
  input  logic [2:0] trans_id_i,
  input  logic [1:0] fu_i,
  output logic lsu_ready_o,
  output logic load_valid_o,
  output logic [2:0] load_trans_id_o
);
endmodule
"#;

    fn property<'a>(ft: &'a FtModel, name: &str) -> &'a SvaProperty {
        ft.properties()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("property `{name}` not generated"))
    }

    #[test]
    fn lsu_incoming_generates_figure2_properties() {
        let ft = model_for(LSU, "lsu", &PropgenOptions::default());
        // Figure 2 of the paper: cover, stability assume, hsk-or-drop assert,
        // eventual-response assert, had-a-request assert.
        let cover = property(&ft, "lsu_load_request_happens");
        assert_eq!(cover.directive, Directive::Cover);

        let stability = property(&ft, "lsu_load_stability");
        assert_eq!(stability.directive, Directive::Assume);
        assert_eq!(stability.class, PropertyClass::Stability);
        match &stability.body {
            PropertyBody::Implication { non_overlap, .. } => assert!(*non_overlap),
            other => panic!("unexpected body {other:?}"),
        }

        let hsk = property(&ft, "lsu_load_hsk_or_drop");
        assert_eq!(hsk.directive, Directive::Assert);
        assert_eq!(hsk.class, PropertyClass::Liveness);

        let eventual = property(&ft, "lsu_load_eventual_response");
        assert_eq!(eventual.directive, Directive::Assert);
        assert_eq!(eventual.class, PropertyClass::Liveness);

        let had = property(&ft, "lsu_load_had_a_request");
        assert_eq!(had.directive, Directive::Assert);
        assert_eq!(had.class, PropertyClass::Safety);
    }

    #[test]
    fn lsu_aux_signals_generated() {
        let ft = model_for(LSU, "lsu", &PropgenOptions::default());
        let aux_names: Vec<&str> = ft.aux_signals().iter().map(|a| a.name.as_str()).collect();
        assert!(aux_names.contains(&"lsu_req_hsk"));
        assert!(aux_names.contains(&"lsu_res_hsk"));
        assert!(aux_names.contains(&"symb_lsu_load_transid"));
        assert!(aux_names.contains(&"lsu_load_set"));
        assert!(aux_names.contains(&"lsu_load_response"));
        assert!(aux_names.contains(&"lsu_load_sampled"));
        // No data attribute, so no sampling register.
        assert!(!aux_names.contains(&"lsu_load_data_sampled"));
    }

    #[test]
    fn outgoing_transaction_flips_polarity() {
        let src = r#"
/*AUTOSVA
ptw_dcache: ptw_req -out> dcache_res
ptw_req_val = req_o
ptw_req_ack = gnt_i
dcache_res_val = rvalid_i
*/
module ptw (input logic clk_i, input logic rst_ni, output logic req_o, input logic gnt_i, input logic rvalid_i);
endmodule
"#;
        let ft = model_for(src, "ptw", &PropgenOptions::default());
        // The environment must eventually grant and respond: assumptions.
        assert_eq!(
            property(&ft, "ptw_dcache_hsk_or_drop").directive,
            Directive::Assume
        );
        assert_eq!(
            property(&ft, "ptw_dcache_hsk_or_drop").class,
            PropertyClass::Fairness
        );
        assert_eq!(
            property(&ft, "ptw_dcache_eventual_response").directive,
            Directive::Assume
        );
        // The DUT must not emit more requests than responses it got... the
        // response-had-a-request check is also assumed on outgoing.
        assert_eq!(
            property(&ft, "ptw_dcache_had_a_request").directive,
            Directive::Assume
        );
    }

    #[test]
    fn assert_inputs_turns_assumes_into_asserts() {
        let src = r#"
/*AUTOSVA
t: req -out> res
req_val = a
req_ack = b
res_val = c
*/
module m (input logic clk_i, input logic rst_ni, output logic a, input logic b, input logic c);
endmodule
"#;
        let opts = PropgenOptions {
            assert_inputs: true,
            ..PropgenOptions::default()
        };
        let ft = model_for(src, "m", &opts);
        assert!(ft
            .properties()
            .iter()
            .all(|p| p.directive != Directive::Assume));
    }

    #[test]
    fn data_integrity_generated_with_sampling_register() {
        let src = r#"
/*AUTOSVA
q_txn: push -in> pop
push_val = push_valid
push_ack = push_ready
[1:0] push_transid = push_id
[7:0] push_data = push_payload
pop_val = pop_valid
[1:0] pop_transid = pop_id
[7:0] pop_data = pop_payload
*/
module q (
  input logic clk_i, input logic rst_ni,
  input logic push_valid, output logic push_ready,
  input logic [1:0] push_id, input logic [7:0] push_payload,
  output logic pop_valid, output logic [1:0] pop_id, output logic [7:0] pop_payload
);
endmodule
"#;
        let ft = model_for(src, "q", &PropgenOptions::default());
        let aux_names: Vec<&str> = ft.aux_signals().iter().map(|a| a.name.as_str()).collect();
        assert!(aux_names.contains(&"q_txn_data_sampled"));
        let integrity = property(&ft, "q_txn_data_integrity");
        assert_eq!(integrity.directive, Directive::Assert);
        assert_eq!(integrity.class, PropertyClass::DataIntegrity);
    }

    #[test]
    fn transid_unique_generated_with_reverse_polarity() {
        let src = r#"
/*AUTOSVA
t: req -in> res
req_val = a
[1:0] req_transid = id_i
req_transid_unique = 1'b1
res_val = b
[1:0] res_transid = id_o
*/
module m (input logic clk_i, input logic rst_ni, input logic a, input logic [1:0] id_i, output logic b, output logic [1:0] id_o);
endmodule
"#;
        let ft = model_for(src, "m", &PropgenOptions::default());
        let unique = property(&ft, "t_transid_unique");
        // Incoming: the environment guarantees uniqueness => assumption.
        assert_eq!(unique.directive, Directive::Assume);
        assert_eq!(unique.class, PropertyClass::Uniqueness);
    }

    #[test]
    fn active_attribute_always_asserted() {
        let src = r#"
/*AUTOSVA
dtlb_ptw: dtlb -in> ptw_update
dtlb_active = ptw_active_o
dtlb_val = dtlb_access_i && dtlb_miss_i
dtlb_ack = !ptw_active_o
ptw_update_val = ptw_update_valid_o
*/
module ptw (
  input logic clk_i, input logic rst_ni,
  input logic dtlb_access_i, input logic dtlb_miss_i,
  output logic ptw_active_o, output logic ptw_update_valid_o
);
endmodule
"#;
        let ft = model_for(src, "ptw", &PropgenOptions::default());
        let active = property(&ft, "dtlb_ptw_request_active");
        assert_eq!(active.directive, Directive::Assert);
    }

    #[test]
    fn xprop_assertions_are_guarded() {
        let ft = model_for(LSU, "lsu", &PropgenOptions::default());
        let xprops: Vec<_> = ft
            .properties()
            .into_iter()
            .filter(|p| p.class == PropertyClass::Xprop)
            .collect();
        assert!(!xprops.is_empty());
        assert!(xprops.iter().all(|p| p.xprop_only));
        let no_xprop = model_for(
            LSU,
            "lsu",
            &PropgenOptions {
                xprop: false,
                ..PropgenOptions::default()
            },
        );
        assert!(no_xprop
            .properties()
            .iter()
            .all(|p| p.class != PropertyClass::Xprop));
    }

    #[test]
    fn request_only_transaction_still_covers() {
        let src = r#"
/*AUTOSVA
t: req -in> res
req_val = a
req_ack = g
*/
module m (input logic clk_i, input logic rst_ni, input logic a, output logic g);
endmodule
"#;
        let ft = model_for(src, "m", &PropgenOptions::default());
        // No response `val`: no counters, but the handshake liveness and the
        // cover point still exist.
        assert!(property(&ft, "t_request_happens").class == PropertyClass::Cover);
        assert!(ft.properties().iter().any(|p| p.name == "t_hsk_or_drop"));
        assert!(ft
            .properties()
            .iter()
            .all(|p| p.name != "t_eventual_response"));
        assert!(ft.aux_signals().iter().all(|a| a.name != "t_sampled"));
    }

    #[test]
    fn unique_property_count_counts_names_once() {
        let ft = model_for(LSU, "lsu", &PropgenOptions::default());
        assert_eq!(ft.unique_property_count(), ft.properties().len());
        assert!(ft.unique_property_count() >= 6);
    }

    #[test]
    fn stable_without_drop_uses_strict_ack_target() {
        // With a `stable` payload declared, the request cannot be dropped:
        // the liveness target is the ack itself.
        let ft = model_for(LSU, "lsu", &PropgenOptions::default());
        let hsk = property(&ft, "lsu_load_hsk_or_drop");
        match &hsk.body {
            PropertyBody::Implication { consequent, .. } => match consequent {
                Consequent::Eventually(e) => {
                    assert_eq!(svparse::pretty::print_expr(e), "lsu_ready_o");
                }
                other => panic!("unexpected consequent {other:?}"),
            },
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn counter_width_spec_bits() {
        assert_eq!(counter_width_spec(4).const_width(), Some(4));
        assert_eq!(counter_width_spec(1).const_width(), Some(1));
    }
}
