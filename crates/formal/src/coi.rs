//! Per-property cone-of-influence reduction with content fingerprinting.
//!
//! AutoSVA's leverage is fan-out: one annotation line expands into many
//! properties, but each property usually *observes* only a fraction of the
//! compiled model — a response-integrity check never reads the free-running
//! statistics counter sitting next to it, and one transaction's monitors are
//! blind to another transaction's auxiliary state.  Every engine of the
//! cascade nevertheless pays for the full latch set on every property.
//!
//! This module slices the model per property: starting from the property's
//! root literals (plus every invariant constraint, which can prune paths of
//! any latch it mentions, and — for liveness — every fairness assumption),
//! it walks the transitive fanin through AND gates and latch next-state
//! functions, then rebuilds a self-contained [`Model`] containing exactly
//! the reachable nodes, in node order, and remaps the property literals.
//! That walk, rebuild and remap is one crate-private function, which the
//! AIG optimizer ([`crate::opt`]) calls as well: it keeps every property
//! instead of one, redirects each node it proved constant or equivalent to
//! its representative, and builds gates through its rewriting rules.
//! Slicing is verdict-preserving:
//!
//! * **safety / cover** — the sliced circuit computes bit-identical values
//!   for every cone signal on every input sequence, so a bad/cover literal
//!   is reachable in the slice iff it is reachable in the full model;
//! * **liveness** — a fair counterexample lasso of the slice extends to a
//!   full-model lasso (the non-cone latches are a deterministic finite
//!   system driven by free inputs: under the lasso's periodic cone inputs
//!   they eventually enter a periodic orbit, and the product of the two
//!   periods closes a genuine full-state loop on which the cone signals —
//!   hence the pending obligation and every fairness witness — repeat), and
//!   conversely a full-model lasso projects onto the cone.
//!
//! Each slice carries a stable content [`Fingerprint`] over its entire
//! functional description (structure, initial values, names, property
//! literals).  Identical cones — across buggy/fixed design variants,
//! repeated bench iterations, or properties generated from the same
//! annotation — hash identically, which is what the proof cache
//! ([`crate::portfolio::ProofCache`]) keys on.
//!
//! Downstream of the slice, the orchestrator runs the AIG optimization pass
//! ([`crate::opt`]) — constant and equivalence sweeping, two-level
//! rewriting, dead-node elimination — before handing the model to the
//! engines.  The raw slice fingerprint dedups that work (content-identical
//! slices are optimized once); the *optimized* model's own fingerprint,
//! which [`crate::opt::optimize`] returns with it, is what the proof cache
//! then keys on, since that is the model the engines and the
//! hit-validation replay actually see.

use crate::aig::{Aig, Latch, Lit, Node};
use crate::model::Model;
use std::fmt;

/// Which property of a [`Model`] a slice is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceTarget {
    /// Slice for `model.bads[i]`; the slice holds it as `bads[0]`.
    Bad(usize),
    /// Slice for `model.covers[i]`; the slice holds it as `covers[0]`.
    Cover(usize),
    /// Slice for `model.liveness[i]` (kept as `liveness[0]`) together with
    /// every fairness assumption, which liveness checking depends on.
    Liveness(usize),
}

/// A per-property slice: the reduced model plus its content fingerprint.
#[derive(Debug, Clone)]
pub struct Slice {
    /// The self-contained sliced model (the target property at index 0).
    pub model: Model,
    /// Stable content hash of everything in `model`.
    pub fingerprint: Fingerprint,
}

/// A 128-bit content hash of a sliced model, stable across processes and
/// runs (pure FNV-1a over the model's canonical description — no pointer or
/// allocation order leaks in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64, pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// Incremental FNV-1a in two 64-bit lanes with distinct offset bases, giving
/// a 128-bit digest without external dependencies.
pub(crate) struct Fnv2 {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl Fnv2 {
    pub(crate) fn new() -> Self {
        Fnv2 {
            a: 0xCBF2_9CE4_8422_2325,
            // Second lane: the standard offset basis xored with a fixed
            // constant so the lanes decorrelate from the first byte on.
            b: 0xCBF2_9CE4_8422_2325 ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub(crate) fn byte(&mut self, x: u8) {
        self.a = (self.a ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ u64::from(x.rotate_left(3))).wrapping_mul(FNV_PRIME);
    }

    fn u32(&mut self, x: u32) {
        for byte in x.to_le_bytes() {
            self.byte(byte);
        }
    }

    pub(crate) fn usize(&mut self, x: usize) {
        self.u32(x as u32);
        self.u32((x as u64 >> 32) as u32);
    }

    fn lit(&mut self, l: Lit) {
        self.u32(l.raw());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        for byte in s.bytes() {
            self.byte(byte);
        }
    }

    pub(crate) fn finish(&self) -> Fingerprint {
        Fingerprint(self.a, self.b)
    }
}

/// Computes the stable content fingerprint of a model (used directly for
/// un-sliced models, and by [`cone_of_influence`] for slices).
pub fn fingerprint(model: &Model) -> Fingerprint {
    let mut h = Fnv2::new();
    let aig = &model.aig;
    h.usize(aig.num_nodes());
    for idx in 0..aig.num_nodes() {
        match aig.node(idx) {
            Node::False => h.byte(0),
            Node::Input => h.byte(1),
            Node::Latch => h.byte(2),
            Node::And(a, b) => {
                h.byte(3);
                h.lit(a);
                h.lit(b);
            }
        }
        h.str(aig.name_of(idx).unwrap_or(""));
    }
    h.usize(aig.num_inputs());
    for &node in aig.inputs() {
        h.usize(node);
    }
    h.usize(aig.num_latches());
    for latch in aig.latches() {
        h.usize(latch.node);
        h.byte(u8::from(latch.init));
        h.lit(latch.next);
    }
    h.usize(model.bads.len());
    for bad in &model.bads {
        h.str(&bad.name);
        h.lit(bad.lit);
    }
    h.usize(model.covers.len());
    for cover in &model.covers {
        h.str(&cover.name);
        h.lit(cover.lit);
    }
    h.usize(model.constraints.len());
    for &c in &model.constraints {
        h.lit(c);
    }
    h.usize(model.liveness.len());
    for p in &model.liveness {
        h.str(&p.name);
        h.lit(p.trigger);
        h.lit(p.target);
    }
    h.usize(model.fairness.len());
    for p in &model.fairness {
        h.str(&p.name);
        h.lit(p.trigger);
        h.lit(p.target);
    }
    h.finish()
}

/// Builds the cone-of-influence slice of `model` for one property.
///
/// The slice keeps every node in the transitive fanin of the property's
/// literals, all invariant constraints (a constraint over *any* latch can
/// make full-model paths infeasible, so dropping one would be unsound), and
/// — for liveness targets — every fairness assumption.  Latch initial
/// values, input/latch/gate names and creation order are preserved, so
/// traces and invariant renderings read identically to the full model.
///
/// # Panics
///
/// Panics if the target index is out of range for `model`.
pub fn cone_of_influence(model: &Model, target: SliceTarget) -> Slice {
    let target_name = match target {
        SliceTarget::Bad(i) => &model.bads[i].name,
        SliceTarget::Cover(i) => &model.covers[i].name,
        SliceTarget::Liveness(i) => &model.liveness[i].name,
    };
    let _span = crate::telemetry::span("slice", target_name);
    let model = rebuild(model, Some(target), |_| None, Aig::and);
    let fingerprint = fingerprint(&model);
    Slice { model, fingerprint }
}

/// Every property literal of `model`: bads, covers, constraints, then the
/// trigger and target of each liveness and fairness property.
fn property_lits(model: &mut Model) -> impl Iterator<Item = &mut Lit> {
    let responses = model.liveness.iter_mut().chain(&mut model.fairness);
    model
        .bads
        .iter_mut()
        .map(|b| &mut b.lit)
        .chain(model.covers.iter_mut().map(|c| &mut c.lit))
        .chain(&mut model.constraints)
        .chain(responses.flat_map(|p| [&mut p.trigger, &mut p.target]))
}

/// Rebuilds `model` from the transitive fanin of the properties it keeps:
/// `target`'s property together with every constraint (and, for liveness,
/// every fairness assumption), or every property when `target` is `None`.
///
/// A node that `redirect` maps to a literal of a smaller node is a cut
/// point: the walk follows the representative instead of the node's own
/// fanin, and the node's fanout reads the representative's rebuilt
/// literal.  Slicing redirects nothing; the optimizer ([`crate::opt`])
/// redirects its proven constants and equivalences.  Every other reached
/// node is rebuilt in node order, keeping latch initial values, input,
/// latch and gate names, with each gate built by `and` ([`Aig::and`], or
/// the optimizer's rewriting builder).  The kept properties keep their
/// names and order.
pub(crate) fn rebuild(
    model: &Model,
    target: Option<SliceTarget>,
    redirect: impl Fn(usize) -> Option<Lit>,
    and: impl Fn(&mut Aig, Lit, Lit) -> Lit,
) -> Model {
    let aig = &model.aig;
    // The kept properties, over `model`'s literals until the remap below.
    let mut out = Model {
        constraints: model.constraints.clone(),
        ..Model::default()
    };
    match target {
        None => {
            out.bads = model.bads.clone();
            out.covers = model.covers.clone();
            out.liveness = model.liveness.clone();
            out.fairness = model.fairness.clone();
        }
        Some(SliceTarget::Bad(i)) => out.bads.push(model.bads[i].clone()),
        Some(SliceTarget::Cover(i)) => out.covers.push(model.covers[i].clone()),
        Some(SliceTarget::Liveness(i)) => {
            out.liveness.push(model.liveness[i].clone());
            out.fairness = model.fairness.clone();
        }
    }

    // Transitive fanin: latches pull in their next-state functions, and a
    // redirected node pulls in its representative.
    let mut latch_at: Vec<Option<&Latch>> = vec![None; aig.num_nodes()];
    for latch in aig.latches() {
        latch_at[latch.node] = Some(latch);
    }
    let mut reached = vec![false; aig.num_nodes()];
    reached[0] = true; // the constant node always exists
    let mut worklist: Vec<usize> = property_lits(&mut out).map(|l| l.node()).collect();
    while let Some(node) = worklist.pop() {
        if reached[node] {
            continue;
        }
        reached[node] = true;
        if let Some(rep) = redirect(node) {
            worklist.push(rep.node());
            continue;
        }
        match aig.node(node) {
            Node::False | Node::Input => {}
            Node::Latch => worklist.push(latch_at[node].expect("latch node").next.node()),
            Node::And(a, b) => worklist.extend([a.node(), b.node()]),
        }
    }

    // Rebuild in original node order (deterministic indices).
    let mut input_name: Vec<Option<&str>> = vec![None; aig.num_nodes()];
    for (i, &node) in aig.inputs().iter().enumerate() {
        input_name[node] = Some(aig.input_name(i));
    }
    let mut rebuilt = Aig::new();
    let mut map: Vec<Option<Lit>> = vec![None; aig.num_nodes()];
    map[0] = Some(Lit::FALSE);
    let map_lit = |map: &[Option<Lit>], l: Lit| {
        map[l.node()]
            .expect("a reached node is rebuilt")
            .invert_if(l.is_inverted())
    };
    let mut kept_latches: Vec<(Lit, Lit)> = Vec::new();
    for idx in 1..aig.num_nodes() {
        if let Some(rep) = redirect(idx) {
            // Representatives have smaller indices, so a reached one is
            // rebuilt already.
            map[idx] = map[rep.node()].map(|l| l.invert_if(rep.is_inverted()));
            continue;
        }
        if !reached[idx] {
            continue;
        }
        map[idx] = Some(match aig.node(idx) {
            Node::False => unreachable!("only node 0 is the constant"),
            Node::Input => rebuilt.add_input(input_name[idx].expect("input node")),
            Node::Latch => {
                let latch = latch_at[idx].expect("latch node");
                let lit = rebuilt.add_latch(aig.name_of(idx).unwrap_or("latch"), latch.init);
                kept_latches.push((lit, latch.next));
                lit
            }
            Node::And(a, b) => {
                let lit = and(&mut rebuilt, map_lit(&map, a), map_lit(&map, b));
                if let Some(name) = aig.name_of(idx) {
                    if !lit.is_const() {
                        rebuilt.set_name(lit, name);
                    }
                }
                lit
            }
        });
    }
    for (latch, next) in kept_latches {
        rebuilt.set_latch_next(latch, map_lit(&map, next));
    }
    for lit in property_lits(&mut out) {
        *lit = map_lit(&map, *lit);
    }
    out.aig = rebuilt;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BadProperty, ResponseProperty};

    /// Two independent subsystems in one AIG: a request/busy bit driven by
    /// input `req`, and a free-running 3-bit counter the property never
    /// observes.
    fn two_subsystems() -> (Model, Lit) {
        let mut aig = Aig::new();
        let req = aig.add_input("req");
        let busy = aig.add_latch("busy", false);
        let next_busy = aig.or(busy, req);
        aig.set_latch_next(busy, next_busy);
        // Unrelated counter.
        let c0 = aig.add_latch("c0", false);
        let c1 = aig.add_latch("c1", false);
        let c2 = aig.add_latch("c2", false);
        let n0 = aig.not(c0);
        let n1 = aig.xor(c1, c0);
        let carry = aig.and(c0, c1);
        let n2 = aig.xor(c2, carry);
        aig.set_latch_next(c0, n0);
        aig.set_latch_next(c1, n1);
        aig.set_latch_next(c2, n2);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "busy_without_req".into(),
            lit: busy,
        });
        (model, req)
    }

    #[test]
    fn slice_drops_unobserved_latches() {
        let (model, _) = two_subsystems();
        assert_eq!(model.aig.num_latches(), 4);
        let slice = cone_of_influence(&model, SliceTarget::Bad(0));
        assert_eq!(slice.model.aig.num_latches(), 1);
        assert_eq!(slice.model.bads.len(), 1);
        assert_eq!(slice.model.bads[0].name, "busy_without_req");
        // The surviving latch keeps its name.
        let latch = slice.model.aig.latches()[0];
        assert_eq!(slice.model.aig.name_of(latch.node), Some("busy"));
    }

    #[test]
    fn constraints_anchor_their_cone() {
        let (mut model, _) = two_subsystems();
        // A constraint over the unrelated counter forces it into the cone:
        // an infeasible constraint can cut *all* paths, so it must be kept.
        let c2 = Lit::new(model.aig.latches()[3].node, false);
        model.constraints.push(c2.invert());
        let slice = cone_of_influence(&model, SliceTarget::Bad(0));
        assert_eq!(slice.model.aig.num_latches(), 4);
        assert_eq!(slice.model.constraints.len(), 1);
    }

    #[test]
    fn identical_cones_fingerprint_identically() {
        let (model_a, _) = two_subsystems();
        let (model_b, _) = two_subsystems();
        let fa = cone_of_influence(&model_a, SliceTarget::Bad(0)).fingerprint;
        let fb = cone_of_influence(&model_b, SliceTarget::Bad(0)).fingerprint;
        assert_eq!(fa, fb);
    }

    #[test]
    fn different_init_values_fingerprint_differently() {
        let build = |init: bool| {
            let mut aig = Aig::new();
            let req = aig.add_input("req");
            let busy = aig.add_latch("busy", init);
            let next_busy = aig.or(busy, req);
            aig.set_latch_next(busy, next_busy);
            let mut model = Model::new(aig);
            model.bads.push(BadProperty {
                name: "busy_without_req".into(),
                lit: busy,
            });
            model
        };
        let fa = cone_of_influence(&build(false), SliceTarget::Bad(0)).fingerprint;
        let fb = cone_of_influence(&build(true), SliceTarget::Bad(0)).fingerprint;
        assert_ne!(fa, fb);
    }

    #[test]
    fn liveness_slice_keeps_fairness_cones() {
        let mut aig = Aig::new();
        let req = aig.add_input("req");
        let gnt = aig.add_input("gnt");
        let busy = aig.add_latch("busy", false);
        let raised = aig.or(busy, req);
        let next = aig.and(raised, gnt.invert());
        aig.set_latch_next(busy, next);
        // Unrelated latch.
        let junk = aig.add_latch("junk", false);
        aig.set_latch_next(junk, junk.invert());
        // A latch observed only through the fairness assumption.
        let fair_state = aig.add_latch("fair_state", false);
        aig.set_latch_next(fair_state, gnt);
        let mut model = Model::new(aig);
        model.liveness.push(ResponseProperty {
            name: "busy_clears".into(),
            trigger: busy,
            target: busy.invert(),
        });
        model.fairness.push(ResponseProperty {
            name: "gnt_fair".into(),
            trigger: fair_state,
            target: gnt,
        });
        let slice = cone_of_influence(&model, SliceTarget::Liveness(0));
        // `junk` is gone, `fair_state` stays (fairness root).
        assert_eq!(slice.model.aig.num_latches(), 2);
        assert_eq!(slice.model.liveness.len(), 1);
        assert_eq!(slice.model.fairness.len(), 1);
        let names: Vec<&str> = slice
            .model
            .aig
            .latches()
            .iter()
            .filter_map(|l| slice.model.aig.name_of(l.node))
            .collect();
        assert!(names.contains(&"busy"));
        assert!(names.contains(&"fair_state"));
    }

    #[test]
    fn slice_of_full_cone_is_the_whole_model() {
        // When the property observes everything, the slice is the model.
        let mut aig = Aig::new();
        let a = aig.add_latch("a", false);
        let b = aig.add_latch("b", true);
        aig.set_latch_next(a, b);
        aig.set_latch_next(b, a);
        let bad = aig.and(a, b);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "both".into(),
            lit: bad,
        });
        let slice = cone_of_influence(&model, SliceTarget::Bad(0));
        assert_eq!(slice.model.aig.num_latches(), 2);
        assert_eq!(slice.model.aig.num_ands(), model.aig.num_ands());
    }

    #[test]
    fn constant_target_slices_to_the_empty_cone() {
        let (model, _) = two_subsystems();
        let mut model = model;
        model.bads[0].lit = Lit::FALSE;
        let slice = cone_of_influence(&model, SliceTarget::Bad(0));
        assert_eq!(slice.model.aig.num_latches(), 0);
        assert_eq!(slice.model.bads[0].lit, Lit::FALSE);
    }
}
