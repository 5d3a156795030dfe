//! Compilation of an AutoSVA formal testbench into a checkable [`Model`].
//!
//! The AutoSVA core crate produces a structured testbench: auxiliary signals
//! (handshake wires, symbolic transaction IDs, outstanding-transaction
//! counters, data sampling registers) and SVA properties over the DUT
//! interface and those auxiliary signals.  This module elaborates the
//! auxiliary signals on top of the elaborated DUT and lowers every property
//! into the bad/constraint/cover/response literals the verification engines
//! understand.

use crate::aig::{Aig, Lit};
use crate::elab::{const_eval, ElabDesign, ElabError, Result};
use crate::lower::{enum_member, lower_word, range_width, Resolve, Val};
use crate::model::{BadProperty, CoverProperty, Model, ResponseProperty};
use crate::words;
use autosva::annotation::WidthSpec;
use autosva::signals::{AuxKind, AuxSignal};
use autosva::sva::{Consequent, Directive, PropertyBody, SvaProperty};
use autosva::FormalTestbench;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use svparse::ast::Expr;

/// How each property of the testbench was mapped into the model, so the
/// checker can report results per property class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledKind {
    /// Checked as a bad-state (safety) property; index into [`Model::bads`].
    Safety(usize),
    /// Checked as a liveness property; index into [`Model::liveness`].
    Liveness(usize),
    /// Checked as a cover property; index into [`Model::covers`].
    Cover(usize),
    /// Added as an invariant constraint (assumption).
    Constraint,
    /// Added as a fairness assumption.
    Fairness,
    /// Not checked by the formal engine (e.g. X-propagation assertions are
    /// simulation-only).
    Skipped(&'static str),
}

/// A property of the testbench together with its compiled form.
#[derive(Debug, Clone)]
pub struct CompiledProperty {
    /// The original SVA property.
    pub property: SvaProperty,
    /// How it is checked.
    pub kind: CompiledKind,
}

/// Facts the compiler collects as a side effect of lowering annotations, for
/// the design lint ([`crate::lint`]).  Collecting them here costs nothing and
/// keeps the lint pass from re-implementing the resolution rules.
#[derive(Debug, Clone, Default)]
pub struct CompileLintFacts {
    /// `port.field` accesses that only resolved through the *naming
    /// convention* fallback (`port_field`): requested path → bound symbol.
    /// The binding is a guess, so the lint surfaces it instead of staying
    /// silent.
    pub fallback_bindings: BTreeMap<String, String>,
    /// Auxiliary signals whose declared width disagrees with the width of the
    /// expression that defines or feeds them: (name, declared, actual,
    /// needle).  The needle is the first identifier of the offending
    /// expression — generated aux names never appear in the source verbatim,
    /// so the lint locates the finding by what the annotation actually wrote.
    pub width_mismatches: Vec<(String, usize, usize, Option<String>)>,
    /// Every design/aux symbol an annotation expression resolved to — the
    /// read set the unused-signal and coverage-gap lints start from.
    pub referenced_symbols: BTreeSet<String>,
}

/// The compiled model: the circuit with properties plus per-property mapping.
#[derive(Debug, Clone)]
pub struct CompiledTestbench {
    /// The model to check.
    pub model: Model,
    /// One entry per property of the testbench (including linked submodule
    /// properties).
    pub properties: Vec<CompiledProperty>,
    /// Bits of every auxiliary signal, for trace rendering.
    pub aux_symbols: HashMap<String, Vec<Lit>>,
    /// Side-effect facts for the design lint.
    pub lint: CompileLintFacts,
}

/// Compiles `testbench` against an already elaborated DUT.
///
/// # Errors
///
/// Fails when a property references a signal that does not exist in the
/// design, or uses an expression form outside the supported subset.
pub fn compile(design: &ElabDesign, testbench: &FormalTestbench) -> Result<CompiledTestbench> {
    let _span = crate::telemetry::span("compile", &design.top);
    let mut ctx = Compiler {
        aig: design.aig.clone(),
        symbols: design.symbols.clone(),
        params: design.params.clone(),
        types: design.types.clone(),
        signal_types: design.signal_types.clone(),
        top: design.top.clone(),
        not_first: None,
        lint: CompileLintFacts::default(),
    };

    // ------------------------------------------------------------------
    // Auxiliary signals, in dependency order (wires may reference earlier
    // wires; counters/samples reference wires).
    // ------------------------------------------------------------------
    let aux: Vec<AuxSignal> = testbench.model.aux_signals().into_iter().cloned().collect();
    // Stateless wires first pass may reference later wires in pathological
    // cases; iterate until fixed point with a bounded number of rounds.
    let mut remaining: Vec<AuxSignal> = aux.clone();
    // The last round's error of every signal still unresolved.
    let mut stuck: Vec<String> = Vec::new();
    for _ in 0..aux.len() + 2 {
        if remaining.is_empty() {
            break;
        }
        stuck.clear();
        let mut next_round = Vec::new();
        for sig in remaining {
            match ctx.elab_aux(&sig) {
                Ok(bits) => {
                    ctx.symbols.insert(sig.name.clone(), bits);
                }
                // A forward reference to a later aux wire is retried on the
                // next round; a structured error (e.g. an unknown struct
                // field) can never succeed later and fails fast.
                Err(e) if e.unknown_field.is_some() => return Err(e),
                Err(e) => {
                    stuck.push(format!("`{}`: {}", sig.name, e.message));
                    next_round.push(sig);
                }
            }
        }
        remaining = next_round;
    }
    if !remaining.is_empty() {
        // Each stuck signal with its own cause: a signal that can never
        // lower is named next to the signals waiting on it.
        return Err(ElabError::new(format!(
            "could not resolve auxiliary signals: {}",
            stuck.join("; ")
        )));
    }
    let aux_symbols: HashMap<String, Vec<Lit>> = aux
        .iter()
        .filter_map(|a| {
            ctx.symbols
                .get(&a.name)
                .map(|b| (a.name.clone(), b.clone()))
        })
        .collect();

    // ------------------------------------------------------------------
    // Properties.
    // ------------------------------------------------------------------
    let mut model = Model::new(Aig::new());
    let mut compiled = Vec::new();
    // The model's AIG is built inside ctx; swap it in at the end.
    let mut bads = Vec::new();
    let mut covers = Vec::new();
    let mut constraints = Vec::new();
    let mut liveness = Vec::new();
    let mut fairness = Vec::new();

    for prop in testbench.all_properties() {
        let kind = if prop.xprop_only {
            CompiledKind::Skipped("x-propagation checks run in simulation only")
        } else {
            match (&prop.directive, &prop.body) {
                (Directive::Cover, body) => {
                    let lit = ctx.body_holds_now(body)?;
                    covers.push(CoverProperty {
                        name: prop.full_name(),
                        lit,
                    });
                    CompiledKind::Cover(covers.len() - 1)
                }
                (Directive::Assert, PropertyBody::Invariant(e)) => {
                    let holds = ctx.expr_bool(e)?;
                    bads.push(BadProperty {
                        name: prop.full_name(),
                        lit: holds.invert(),
                    });
                    CompiledKind::Safety(bads.len() - 1)
                }
                (
                    Directive::Assert,
                    PropertyBody::Implication {
                        antecedent,
                        consequent,
                        non_overlap,
                    },
                ) => match consequent {
                    Consequent::Eventually(target) => {
                        let trigger = ctx.implication_trigger(antecedent, *non_overlap)?;
                        let target = ctx.expr_bool(target)?;
                        liveness.push(ResponseProperty {
                            name: prop.full_name(),
                            trigger,
                            target,
                        });
                        CompiledKind::Liveness(liveness.len() - 1)
                    }
                    _ => {
                        let violated =
                            ctx.implication_violated(antecedent, consequent, *non_overlap)?;
                        bads.push(BadProperty {
                            name: prop.full_name(),
                            lit: violated,
                        });
                        CompiledKind::Safety(bads.len() - 1)
                    }
                },
                (Directive::Assume, PropertyBody::Invariant(e)) => {
                    let holds = ctx.expr_bool(e)?;
                    constraints.push(holds);
                    CompiledKind::Constraint
                }
                (
                    Directive::Assume,
                    PropertyBody::Implication {
                        antecedent,
                        consequent,
                        non_overlap,
                    },
                ) => match consequent {
                    Consequent::Eventually(target) => {
                        let trigger = ctx.implication_trigger(antecedent, *non_overlap)?;
                        let target = ctx.expr_bool(target)?;
                        fairness.push(ResponseProperty {
                            name: prop.full_name(),
                            trigger,
                            target,
                        });
                        CompiledKind::Fairness
                    }
                    _ => {
                        let violated =
                            ctx.implication_violated(antecedent, consequent, *non_overlap)?;
                        constraints.push(violated.invert());
                        CompiledKind::Constraint
                    }
                },
            }
        };
        compiled.push(CompiledProperty {
            property: prop.clone(),
            kind,
        });
    }

    model.aig = ctx.aig;
    model.bads = bads;
    model.covers = covers;
    model.constraints = constraints;
    model.liveness = liveness;
    model.fairness = fairness;
    Ok(CompiledTestbench {
        model,
        properties: compiled,
        aux_symbols,
        lint: ctx.lint,
    })
}

struct Compiler {
    aig: Aig,
    symbols: HashMap<String, Vec<Lit>>,
    params: HashMap<String, u128>,
    /// Resolved user-defined types of the design (struct layouts, enum
    /// constants), so annotations can use `port.field` and enum members.
    types: crate::elab::TypeTable,
    /// Symbol name → struct layout index for struct-typed design signals.
    signal_types: HashMap<String, usize>,
    /// Name of the top module — the scope annotation identifiers resolve in
    /// (module-local enum members are registered as `top::MEMBER`).
    top: String,
    /// Lazily created "this is not the first cycle" latch, used by `$stable`
    /// and `|=>` lowering.
    not_first: Option<Lit>,
    /// Facts collected for the design lint while lowering.
    lint: CompileLintFacts,
}

impl Compiler {
    fn err(message: impl Into<String>) -> ElabError {
        ElabError::new(message)
    }

    fn not_first_cycle(&mut self) -> Lit {
        if let Some(l) = self.not_first {
            return l;
        }
        let latch = self.aig.add_latch("sva_not_first_cycle", false);
        self.aig.set_latch_next(latch, Lit::TRUE);
        self.not_first = Some(latch);
        latch
    }

    fn width_of(&self, spec: &Option<WidthSpec>) -> Result<usize> {
        match spec {
            None => Ok(1),
            Some(w) => range_width(
                const_eval(&w.msb, &self.params)?,
                const_eval(&w.lsb, &self.params)?,
            ),
        }
    }

    fn elab_aux(&mut self, sig: &AuxSignal) -> Result<Vec<Lit>> {
        match &sig.kind {
            AuxKind::Wire { def } => {
                let bits = lower_word(self, def)?;
                // The wire takes the definition's width; a disagreeing
                // declared width is kept working (legacy behaviour) but
                // reported to the lint.
                if sig.width.is_some() {
                    let declared = self.width_of(&sig.width)?;
                    if declared != bits.len() {
                        self.lint.width_mismatches.push((
                            sig.name.clone(),
                            declared,
                            bits.len(),
                            first_ident(def),
                        ));
                    }
                }
                Ok(bits)
            }
            AuxKind::Symbolic => {
                let width = self.width_of(&sig.width)?;
                // A symbolic constant: captured from a free input on the first
                // cycle and held forever, so the solver explores every value
                // while the property sees a stable quantity.
                let started = self.not_first_cycle();
                let mut bits = Vec::with_capacity(width);
                for i in 0..width {
                    let free = self.aig.add_input(format!("{}[{i}]", sig.name));
                    let hold = self.aig.add_latch(format!("{}_hold[{i}]", sig.name), false);
                    let value = self.aig.mux(started, hold, free);
                    self.aig.set_latch_next(hold, value);
                    bits.push(value);
                }
                Ok(bits)
            }
            AuxKind::Counter { incr, decr } => {
                let width = self.width_of(&sig.width)?.max(1);
                let incr = self.expr_bool(incr)?;
                let decr = self.expr_bool(decr)?;
                let bits: Vec<Lit> = (0..width)
                    .map(|i| self.aig.add_latch(format!("{}[{i}]", sig.name), false))
                    .collect();
                let one = {
                    let mut w = words::constant(0, width);
                    w[0] = incr;
                    w
                };
                let minus = {
                    let mut w = words::constant(0, width);
                    w[0] = decr;
                    w
                };
                let plus = words::add(&mut self.aig, &bits, &one);
                let next = words::sub(&mut self.aig, &plus, &minus);
                for (bit, n) in bits.iter().zip(next.iter()) {
                    self.aig.set_latch_next(*bit, *n);
                }
                Ok(bits)
            }
            AuxKind::Sample { enable, value } => {
                let value_bits = lower_word(self, value)?;
                let width = match &sig.width {
                    Some(_) => self.width_of(&sig.width)?,
                    None => value_bits.len(),
                };
                if width != value_bits.len() {
                    // The sampled value is resized to the declared width
                    // below; silently dropping (or zero-extending) bits is
                    // worth a lint warning.
                    self.lint.width_mismatches.push((
                        sig.name.clone(),
                        width,
                        value_bits.len(),
                        first_ident(value),
                    ));
                }
                let enable = self.expr_bool(enable)?;
                let bits: Vec<Lit> = (0..width)
                    .map(|i| self.aig.add_latch(format!("{}[{i}]", sig.name), false))
                    .collect();
                let value_bits = words::resize(&value_bits, width);
                let next = words::mux(&mut self.aig, enable, &value_bits, &bits);
                for (bit, n) in bits.iter().zip(next.iter()) {
                    self.aig.set_latch_next(*bit, *n);
                }
                Ok(bits)
            }
        }
    }

    /// Lowers a property body to "holds in the current cycle" (used for
    /// covers).
    fn body_holds_now(&mut self, body: &PropertyBody) -> Result<Lit> {
        match body {
            PropertyBody::Invariant(e) => self.expr_bool(e),
            PropertyBody::Implication {
                antecedent,
                consequent,
                non_overlap,
            } => {
                let violated = self.implication_violated(antecedent, consequent, *non_overlap)?;
                Ok(violated.invert())
            }
        }
    }

    /// For `a |-> s_eventually t` the liveness trigger is `a` this cycle; for
    /// `a |=> s_eventually t` it is "a held last cycle".
    fn implication_trigger(&mut self, antecedent: &Expr, non_overlap: bool) -> Result<Lit> {
        let ant = self.expr_bool(antecedent)?;
        if non_overlap {
            Ok(self.delayed(ant))
        } else {
            Ok(ant)
        }
    }

    /// Builds the "property is violated in the current cycle" literal for a
    /// (non-eventually) implication.
    fn implication_violated(
        &mut self,
        antecedent: &Expr,
        consequent: &Consequent,
        non_overlap: bool,
    ) -> Result<Lit> {
        let ant = self.expr_bool(antecedent)?;
        match consequent {
            Consequent::Expr(e) => {
                let con = self.expr_bool(e)?;
                let enable = if non_overlap { self.delayed(ant) } else { ant };
                Ok(self.aig.and(enable, con.invert()))
            }
            Consequent::Stable(e) => {
                let bits = lower_word(self, e)?;
                let prev = self.delayed_word(&bits);
                let same = self.aig.word_eq(&bits, &prev);
                let changed = same.invert();
                let enable = if non_overlap {
                    self.delayed(ant)
                } else {
                    // Overlapping $stable compares against the previous cycle,
                    // so it is only meaningful from cycle 1 onwards.
                    let nf = self.not_first_cycle();
                    self.aig.and(ant, nf)
                };
                Ok(self.aig.and(enable, changed))
            }
            Consequent::Eventually(_) => Err(Self::err(
                "eventually consequents are handled by the liveness engine",
            )),
            Consequent::NotUnknown(_) => Err(Self::err(
                "x-propagation checks cannot be lowered to the 2-state model",
            )),
        }
    }

    /// Returns a literal holding the previous-cycle value of `lit`
    /// (false at cycle 0).
    fn delayed(&mut self, lit: Lit) -> Lit {
        let latch = self.aig.add_latch("sva_delay", false);
        self.aig.set_latch_next(latch, lit);
        latch
    }

    fn delayed_word(&mut self, bits: &[Lit]) -> Vec<Lit> {
        bits.iter().map(|&b| self.delayed(b)).collect()
    }

    /// Evaluates an SVA expression to a single bit (non-zero test).
    fn expr_bool(&mut self, expr: &Expr) -> Result<Lit> {
        let bits = lower_word(self, expr)?;
        Ok(words::reduce_or(&mut self.aig, &bits))
    }
}

/// How annotation names resolve: design and auxiliary signals (recorded as
/// referenced for the lint), then the top module's parameters and enum
/// members.
impl Resolve for Compiler {
    fn aig(&mut self) -> &mut Aig {
        &mut self.aig
    }

    fn params(&self) -> &HashMap<String, u128> {
        &self.params
    }

    fn ident(&mut self, name: &str) -> Result<Val> {
        if let Some(bits) = self.symbols.get(name) {
            self.lint.referenced_symbols.insert(name.to_string());
            return Ok(Val::Word(bits.clone()));
        }
        if let Some(&value) = self.params.get(name) {
            return Ok(Val::Word(words::constant(value, 32)));
        }
        enum_member(&self.types, &self.top, name)?
            .ok_or_else(|| Self::err(format!("property references unknown signal `{name}`")))
    }

    fn member(&mut self, expr: &Expr) -> Result<Vec<Lit>> {
        let Expr::Member { base, member } = expr else {
            return Err(Self::err("expected a member access"));
        };
        // A member of a struct-typed design signal resolves through the
        // type table: `port.field` becomes the field's bit slice of the flat
        // signal (nested access walks sub-layouts).
        let mut root = expr;
        while let Expr::Member { base, .. } = root {
            root = base;
        }
        if root
            .as_ident()
            .is_some_and(|r| self.signal_types.contains_key(r))
        {
            let types = &self.signal_types;
            let (symbol, offset, width, _) = self
                .types
                .member_path(expr, &|name| Ok(types.get(name).copied()))?;
            let bits = self
                .symbols
                .get(&symbol)
                .ok_or_else(|| Self::err(format!("unknown signal `{symbol}`")))?;
            let slice = words::slice(bits, offset, width);
            self.lint.referenced_symbols.insert(symbol);
            return Ok(slice);
        }
        // Otherwise fall back to the naming convention: `port.field`
        // matches a flattened `port_field` or literal `port.field` symbol
        // when the design provides one.
        let base_name = base
            .as_ident()
            .ok_or_else(|| Self::err("unsupported nested member access"))?;
        for (guessed, candidate) in [
            (false, format!("{base_name}.{member}")),
            (true, format!("{base_name}_{member}")),
        ] {
            if let Some(bits) = self.symbols.get(&candidate) {
                self.lint.referenced_symbols.insert(candidate.clone());
                if guessed {
                    // `port_field` is a *naming-convention* guess, not a
                    // declared binding — record it for the lint.
                    self.lint
                        .fallback_bindings
                        .insert(format!("{base_name}.{member}"), candidate);
                }
                return Ok(bits.clone());
            }
        }
        Err(Self::err(format!(
            "member access `{base_name}.{member}` does not match any design signal"
        )))
    }
}

/// The leftmost identifier (or `base.member` path) inside `expr` — the
/// needle the lint uses to locate annotation-level findings in the source.
fn first_ident(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Ident(n) => Some(n.clone()),
        Expr::Member { base, member } => first_ident(base).map(|b| format!("{b}.{member}")),
        Expr::Unary { operand, .. } => first_ident(operand),
        Expr::Binary { lhs, rhs, .. } => first_ident(lhs).or_else(|| first_ident(rhs)),
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => first_ident(cond)
            .or_else(|| first_ident(then_expr))
            .or_else(|| first_ident(else_expr)),
        Expr::Index { base, index } => first_ident(base).or_else(|| first_ident(index)),
        Expr::RangeSelect { base, .. } => first_ident(base),
        Expr::Concat(items) => items.iter().find_map(first_ident),
        Expr::Replicate { value, .. } => first_ident(value),
        Expr::Call { args, .. } => args.iter().find_map(first_ident),
        Expr::Number(_) | Expr::Str(_) | Expr::Macro(_) => None,
    }
}

/// Convenience: counts compiled properties by kind.
pub fn summary(compiled: &CompiledTestbench) -> HashMap<&'static str, usize> {
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    for p in &compiled.properties {
        let key = match p.kind {
            CompiledKind::Safety(_) => "safety",
            CompiledKind::Liveness(_) => "liveness",
            CompiledKind::Cover(_) => "cover",
            CompiledKind::Constraint => "constraint",
            CompiledKind::Fairness => "fairness",
            CompiledKind::Skipped(_) => "skipped",
        };
        *counts.entry(key).or_default() += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::{elaborate, ElabOptions};
    use autosva::sva::PropertyClass;
    use autosva::{generate_ft, AutosvaOptions};

    const ECHO: &str = r#"
/*AUTOSVA
echo_txn: req -in> res
req_val = req_val
req_ack = req_ack
[1:0] req_transid = req_id
res_val = res_val
[1:0] res_transid = res_id
*/
module echo (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic req_val,
  output logic req_ack,
  input  logic [1:0] req_id,
  output logic res_val,
  output logic [1:0] res_id
);
  logic busy_q;
  logic [1:0] id_q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      busy_q <= 1'b0;
      id_q <= 2'b0;
    end else begin
      if (req_val && req_ack) begin
        busy_q <= 1'b1;
        id_q <= req_id;
      end else if (busy_q) begin
        busy_q <= 1'b0;
      end
    end
  end
  assign req_ack = !busy_q;
  assign res_val = busy_q;
  assign res_id = id_q;
endmodule
"#;

    fn compiled() -> CompiledTestbench {
        let ft = generate_ft(ECHO, &AutosvaOptions::default()).unwrap();
        let file = svparse::parse(ECHO).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        compile(&design, &ft).unwrap()
    }

    #[test]
    fn aux_signals_are_elaborated() {
        let c = compiled();
        assert!(c.aux_symbols.contains_key("req_hsk"));
        assert!(c.aux_symbols.contains_key("echo_txn_set"));
        assert!(c.aux_symbols.contains_key("echo_txn_sampled"));
        assert!(c.aux_symbols.contains_key("symb_echo_txn_transid"));
        assert_eq!(c.aux_symbols["echo_txn_sampled"].len(), 4);
        assert_eq!(c.aux_symbols["symb_echo_txn_transid"].len(), 2);
    }

    #[test]
    fn properties_are_partitioned_by_kind() {
        let c = compiled();
        let counts = summary(&c);
        assert!(counts.get("liveness").copied().unwrap_or(0) >= 1);
        assert!(counts.get("safety").copied().unwrap_or(0) >= 1);
        assert_eq!(counts.get("cover").copied().unwrap_or(0), 1);
        assert!(counts.get("skipped").copied().unwrap_or(0) >= 1);
        // The partition is total: every compiled property lands in exactly
        // one summary bucket.
        assert_eq!(counts.values().sum::<usize>(), c.properties.len());
        assert_eq!(c.model.covers.len(), 1);
        assert!(!c.model.liveness.is_empty());
        assert!(!c.model.bads.is_empty());
    }

    #[test]
    fn unknown_signal_reference_fails() {
        let src = r#"
/*AUTOSVA
t: req -in> res
req_val = does_not_exist
res_val = also_missing
*/
module broken (input logic clk_i, input logic rst_ni);
endmodule
"#;
        let ft = generate_ft(src, &AutosvaOptions::default()).unwrap();
        let file = svparse::parse(src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        assert!(compile(&design, &ft).is_err());
    }

    const STRUCT_DUT: &str = r#"
package fu_pkg;
  typedef enum logic [1:0] { FU_NONE, LOAD, STORE } fu_op_t;
  typedef struct packed {
    logic [2:0] trans_id;
    fu_op_t fu;
  } fu_data_t;
endpackage
/*AUTOSVA
fu_load: lsu_req -in> lsu_res
lsu_req_val = lsu_valid_i && fu_data_i.fu == LOAD
[2:0] lsu_req_transid = fu_data_i.trans_id
lsu_res_val = res_val_o
[2:0] lsu_res_transid = res_id_o
*/
module fu_dut (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic lsu_valid_i,
  input  fu_pkg::fu_data_t fu_data_i,
  output logic res_val_o,
  output logic [2:0] res_id_o
);
  logic busy_q;
  logic [2:0] id_q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      busy_q <= 1'b0;
      id_q   <= 3'b0;
    end else begin
      if (lsu_valid_i && fu_data_i.fu == LOAD) begin
        busy_q <= 1'b1;
        id_q   <= fu_data_i.trans_id;
      end else begin
        busy_q <= 1'b0;
      end
    end
  end
  assign res_val_o = busy_q;
  assign res_id_o  = id_q;
endmodule
"#;

    #[test]
    fn struct_member_annotations_compile_to_slices() {
        let ft = generate_ft(STRUCT_DUT, &AutosvaOptions::default()).unwrap();
        let file = svparse::parse(STRUCT_DUT).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        let c = compile(&design, &ft).expect("member-access annotations compile");
        assert!(!c.model.bads.is_empty());
        // The sampled request transid is the trans_id slice of the port.
        assert!(c.aux_symbols.contains_key("fu_load_sampled"));
    }

    #[test]
    fn annotation_with_unknown_struct_field_renders_caret_and_valid_fields() {
        // `fu_data_i.op` does not exist (the field is called `fu`): the
        // compile error must carry the field info and render a caret snippet
        // on the annotation line listing the valid fields of `fu_data_t`.
        let src = STRUCT_DUT.replace(
            "lsu_req_val = lsu_valid_i && fu_data_i.fu == LOAD",
            "lsu_req_val = lsu_valid_i && fu_data_i.op == LOAD",
        );
        let ft = generate_ft(&src, &AutosvaOptions::default()).unwrap();
        let file = svparse::parse(&src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        let err = compile(&design, &ft).unwrap_err();
        assert!(err.message.contains("no field `op`"), "{}", err.message);
        let rendered = err.render(&src);
        // Line/column point into the annotation block, the caret underlines
        // the bad field, and the struct's real fields are listed.
        assert!(rendered.contains("fu_data_i.op"), "rendered: {rendered}");
        assert!(rendered.contains("^^"), "rendered: {rendered}");
        assert!(
            rendered.contains("valid fields of `fu_data_t`: trans_id, fu"),
            "rendered: {rendered}"
        );
        // The snippet names the annotation line (line 11 of the source).
        assert!(rendered.starts_with("11:"), "rendered: {rendered}");
    }

    /// Compiles `ECHO` with its `req_val` annotation replaced by `req_val`.
    fn compile_echo_req_val(req_val: &str) -> Result<CompiledTestbench> {
        let src = ECHO.replace("req_val = req_val\n", &format!("req_val = {req_val}\n"));
        let ft = generate_ft(&src, &AutosvaOptions::default()).unwrap();
        let file = svparse::parse(&src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        compile(&design, &ft)
    }

    #[test]
    fn stuck_aux_signals_name_their_own_causes() {
        // The non-constant division makes `req_hsk` fail; every signal
        // built on it is stuck too, and the diagnostic must name the cause,
        // not just the last signal that waited on it.
        let err = compile_echo_req_val("req_val & |(req_id / req_id)").unwrap_err();
        let message = err.message;
        assert!(
            message.contains("`req_hsk`: division/modulo of non-constant operands"),
            "{message}"
        );
        assert!(message.contains("unknown signal `req_hsk`"), "{message}");
    }

    #[test]
    fn annotations_fold_clog2_and_constant_division() {
        // Annotations take the RTL expression language: `$clog2(16) / 2`
        // folds to 2, giving the same model as the literal.
        let folded = compile_echo_req_val("req_val && req_id < $clog2(16) / 2")
            .expect("$clog2 and constant division compile");
        let literal = compile_echo_req_val("req_val && req_id < 2").unwrap();
        assert_eq!(
            crate::coi::fingerprint(&folded.model),
            crate::coi::fingerprint(&literal.model)
        );
    }

    #[test]
    fn xprop_properties_are_skipped() {
        let c = compiled();
        assert!(c
            .properties
            .iter()
            .filter(|p| p.property.class == PropertyClass::Xprop)
            .all(|p| matches!(p.kind, CompiledKind::Skipped(_))));
    }
}
