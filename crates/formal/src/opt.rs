//! AIG static analysis and optimization between compile and the cascade.
//!
//! [`optimize`] rewrites a checked [`Model`] into a smaller, functionally
//! equivalent one.  It is applied by the checker to every cone-of-influence
//! slice before any engine runs, so BMC unrollings, PDR frames and
//! explicit-state sweeps all pay for fewer gates and latches.  Four
//! analyses cooperate:
//!
//! * **sequential latch sweeping** (van Eijk) — random sequential
//!   simulation (64 lanes of [`ParallelSim`]) partitions latches into
//!   candidate equivalence classes, one of them the latches stuck at their
//!   initial value; the candidates are then proven by SAT *induction* —
//!   assume the equivalences over a free current state, show every
//!   next-state function preserves them, refining the partition with each
//!   counterexample — and proven classes are merged onto one
//!   representative register or constant.  This is where testbench monitor
//!   state that duplicates design state (e.g. an AutoSVA transaction
//!   counter shadowing an RTL occupancy counter) collapses, and where every
//!   latch the lint's three-valued sweep proves constant
//!   ([`crate::lint::constant_latches`]) becomes a constant, which cascades
//!   through the combinational logic;
//! * **combinational gate sweeping** (FRAIG-style) — random-pattern
//!   signatures over free leaves partition AND nodes into candidate
//!   classes, a SAT miter over a free state proves unconditional
//!   equivalence, and proven nodes are merged onto the earliest
//!   representative, catching structurally-different-but-equivalent logic
//!   the hash cannot;
//! * **structural rewriting** — the rebuild funnels every AND gate through
//!   the one-level strash of [`Aig::and`] *plus* the classic two-level
//!   rules (subsumption, contradiction, or-absorption, substitution,
//!   resolution), which collapse the redundant `or(s, and(!s, e))` shapes
//!   that word-level mux lowering leaves behind;
//! * **dead-node elimination** — only logic reachable from the model's
//!   roots (bad/cover literals, invariant constraints, liveness and
//!   fairness properties) is rebuilt; unobservable latches, inputs and
//!   gates are dropped.
//!
//! The two sweeps only *prove* facts.  One pass collects them into one
//! redirect map (node to the literal of a smaller representative: a
//! constant or an earlier equivalent node) and hands it, with the rewriting
//! gate builder, to the cone-of-influence rebuild of [`crate::coi`] — the
//! same fanin walk, in-order rebuild and property remap that slices the
//! model, here keeping every property.
//!
//! Passes repeat until the content fingerprint is stable, which makes the
//! whole transformation *idempotent* — `optimize(optimize(m))` returns a
//! model fingerprint-identical to `optimize(m)` — and therefore safe to key
//! the proof cache on.  Every transformation preserves the value of every
//! kept root along every input sequence from reset (merged latches agree on
//! all reachable states — the SAT induction certifies an inductive
//! invariant — and the other three rewrites are equivalences everywhere),
//! so verdicts, counterexample traces (replayed on either model: dropped
//! inputs are provably irrelevant to all roots) and PDR invariants carry
//! over unchanged.
//!
//! Every simulation here runs on the one AIG evaluator ([`crate::psim`]) in
//! its two-valued mode: the signature simulations and the counterexample
//! refinements of both equivalence sweeps.

use crate::aig::{Aig, Lit, Node};
use crate::coi::{fingerprint, rebuild, Fingerprint};
use crate::model::Model;
use crate::psim::{leaves, Evaluator, LaneWord, Lanes, ParallelSim, ALL_LANES};
use crate::sat::SatResult;
use crate::unroll::Unroller;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// Upper bound on rewrite passes; real models stabilize in two or three.
const MAX_PASSES: usize = 8;

/// Optimizes a model: latch and gate sweeping, two-level AND rewriting and
/// dead-node elimination, repeated to a fingerprint fixpoint.  Returns the
/// optimized model and its fingerprint.
///
/// Every property literal (bads, covers, constraints, liveness, fairness)
/// is a root: the rewritten model computes bit-identical values for all of
/// them on every input sequence, latch initial values and surviving names
/// are preserved, and the bad/cover/liveness property lists keep their
/// order.  The pass is deterministic and idempotent, so content
/// fingerprints of optimized models are stable across processes and safe
/// as proof-cache keys.
pub fn optimize(model: &Model) -> (Model, Fingerprint) {
    let _span = crate::telemetry::span("opt", "");
    crate::telemetry::count("opt.gates_before", model.aig.num_ands() as u64);
    crate::telemetry::count("opt.latches_before", model.aig.num_latches() as u64);
    let mut current = model.clone();
    let mut fp = fingerprint(&current);
    for _ in 0..MAX_PASSES {
        let next = {
            let _pass_span = crate::telemetry::span("opt.pass", "");
            crate::telemetry::count("opt.passes", 1);
            one_pass(&current)
        };
        let next_fp = fingerprint(&next);
        if next_fp == fp {
            break;
        }
        current = next;
        fp = next_fp;
    }
    crate::telemetry::count("opt.gates_after", current.aig.num_ands() as u64);
    crate::telemetry::count("opt.latches_after", current.aig.num_latches() as u64);
    (current, fp)
}

/// Number of 64-bit random stimulus words per sequential simulation run.
const SEQ_SIM_STEPS: usize = 48;
/// Number of 64-bit random pattern words for combinational signatures.
const COMB_SIM_WORDS: usize = 4;
/// Fixed seed for the signature simulations (determinism across processes).
const SWEEP_SEED: u64 = 0x005E_ED0F_0DD5;

/// Settles `eval` on the frame-0 leaf values of the solver's last
/// counterexample (in every lane), which the refinement loops split their
/// candidate classes by.  Leaves outside every encoded cone read as false,
/// a valid completion.
fn settle_on_counterexample(eval: &mut Evaluator<LaneWord>, aig: &Aig, unroller: &mut Unroller) {
    for n in leaves(aig) {
        eval.set(
            n,
            LaneWord::splat(unroller.model_value(Lit::new(n, false), 0)),
        );
    }
    eval.settle();
}

/// Sequentially-proven latch equivalences: `latch node -> representative
/// literal` of the *original* AIG, where the representative is either an
/// earlier latch (possibly inverted) or a constant.
///
/// Candidates come from random sequential simulation from reset: each latch
/// is normalized by its initial value (`value XOR init`), so two latches in
/// the same candidate class agree at reset *by construction* (base case)
/// and — per simulation — on every sampled trace.  The candidates are then
/// certified by SAT induction: over a free current state satisfying all
/// candidate equivalences, every class member's next-state function must
/// agree with its representative's.  A counterexample is turned into a
/// full leaf valuation and used to split the classes; the loop repeats
/// until the whole partition is inductive.
///
/// The induction step may assume the model's invariant constraints on the
/// *current* state: engines discard any execution whose prefix violates a
/// constraint, so every state they evaluate is either the initial state
/// (which satisfies the equivalences by construction) or the successor of
/// a constraint-satisfying state (where the induction step applies).  The
/// certified equivalences therefore hold on every state any engine ever
/// evaluates, and merging preserves all verdicts, traces and invariants.
fn latch_equivalences(model: &Model) -> BTreeMap<usize, Lit> {
    let aig = &model.aig;
    let latches = aig.latches().to_vec();
    if latches.is_empty() {
        return BTreeMap::new();
    }
    let init_of: HashMap<usize, bool> = latches.iter().map(|l| (l.node, l.init)).collect();

    // --- candidate partition from random sequential runs -----------------
    //
    // Lanes (bit positions of the 64-bit words) whose stimulus has violated
    // an invariant constraint at an earlier cycle are masked out of the
    // signatures: engines never evaluate such states, so divergence there
    // must not split a candidate class.  Several short runs keep enough
    // live lanes for discrimination even under tight assumptions.
    let mut rng = StdRng::seed_from_u64(SWEEP_SEED);
    let mut signatures: Vec<Vec<u64>> = vec![Vec::new(); latches.len()];
    const SEQ_SIM_RUNS: usize = 8;
    let steps_per_run = SEQ_SIM_STEPS / SEQ_SIM_RUNS;
    let mut sim = ParallelSim::new(model);
    let mut inputs = vec![0u64; aig.num_inputs()];
    for _ in 0..SEQ_SIM_RUNS {
        sim.reset();
        let mut valid = ALL_LANES;
        for _ in 0..steps_per_run {
            for word in inputs.iter_mut() {
                *word = rng.next_u64();
            }
            sim.step_inputs(&inputs);
            for (latch, signature) in latches.iter().zip(&mut signatures) {
                // The state at this cycle is evaluated whenever every
                // *earlier* cycle satisfied the constraints, so it is
                // masked by the prefix validity (before this cycle's
                // constraint check).
                let state = sim.word(Lit::new(latch.node, false));
                signature.push((state ^ LaneWord::splat(latch.init)) & valid);
            }
            valid &= sim.constraints_word();
            sim.advance();
        }
    }
    // Normalized signature -> member latch nodes (sorted by BTreeMap).
    let mut classes: BTreeMap<Vec<u64>, Vec<usize>> = BTreeMap::new();
    for (latch, signature) in latches.iter().zip(signatures) {
        classes.entry(signature).or_default().push(latch.node);
    }
    let zero_sig = vec![0u64; SEQ_SIM_RUNS * steps_per_run];
    // Each class as (constant?, sorted members); non-constant classes keep
    // their smallest member as the representative.
    let mut partition: Vec<(bool, Vec<usize>)> = classes
        .into_iter()
        .map(|(sig, mut members)| {
            members.sort_unstable();
            (sig == zero_sig, members)
        })
        .filter(|(is_const, members)| *is_const || members.len() > 1)
        .collect();
    partition.sort_unstable_by_key(|(_, members)| members[0]);

    // --- induction refinement loop --------------------------------------
    let mut eval = Evaluator::<LaneWord>::new(aig);
    loop {
        // (member, rep) pairs to certify this round; rep==None ~ constant.
        let pairs: Vec<(usize, Option<usize>)> = partition
            .iter()
            .flat_map(|(is_const, members)| {
                let rep = if *is_const { None } else { Some(members[0]) };
                members
                    .iter()
                    .skip(usize::from(!*is_const))
                    .map(move |&m| (m, rep))
            })
            .collect();
        if pairs.is_empty() {
            return BTreeMap::new();
        }

        let mut unroller = Unroller::new(aig, false);
        unroller.ensure_frame(0);
        // The current state satisfies the invariant constraints (see the
        // soundness argument in the doc comment).
        for &c in &model.constraints {
            unroller.constrain(c, 0, true);
        }
        // Induction hypothesis: every candidate equivalence holds now.
        for &(member, rep) in &pairs {
            let m0 = unroller.lit_in_frame(Lit::new(member, false), 0);
            let m_norm = if init_of[&member] { m0.negate() } else { m0 };
            match rep {
                None => unroller.add_clause(&[m_norm.negate()]),
                Some(rep) => {
                    let r0 = unroller.lit_in_frame(Lit::new(rep, false), 0);
                    let r_norm = if init_of[&rep] { r0.negate() } else { r0 };
                    unroller.add_clause(&[m_norm.negate(), r_norm]);
                    unroller.add_clause(&[m_norm, r_norm.negate()]);
                }
            }
        }

        let mut refuted = false;
        for &(member, rep) in &pairs {
            let latch = latches.iter().find(|l| l.node == member).unwrap();
            let mn = unroller.lit_in_frame(latch.next, 0);
            let mn_norm = if init_of[&member] { mn.negate() } else { mn };
            let activate = unroller.new_free_lit();
            match rep {
                None => {
                    // activate -> member's next breaks stuck-at-init.
                    unroller.add_clause(&[activate.negate(), mn_norm]);
                }
                Some(rep) => {
                    let rep_latch = latches.iter().find(|l| l.node == rep).unwrap();
                    let rn = unroller.lit_in_frame(rep_latch.next, 0);
                    let rn_norm = if init_of[&rep] { rn.negate() } else { rn };
                    // activate -> (member_next XOR rep_next).
                    unroller.add_clause(&[activate.negate(), mn_norm, rn_norm]);
                    unroller.add_clause(&[activate.negate(), mn_norm.negate(), rn_norm.negate()]);
                }
            }
            if matches!(unroller.solve_sat(&[activate]), SatResult::Sat) {
                settle_on_counterexample(&mut eval, aig, &mut unroller);
                refuted = true;
                break;
            }
        }

        if !refuted {
            // Whole partition is inductive: emit the merges.
            let mut equiv = BTreeMap::new();
            for (member, rep) in pairs {
                let inv_member = init_of[&member];
                let target = match rep {
                    None => Lit::FALSE.invert_if(inv_member),
                    Some(rep) => Lit::new(rep, inv_member ^ init_of[&rep]),
                };
                equiv.insert(member, target);
            }
            return equiv;
        }
        // Split every class by the next-state value (normalized by init)
        // each member takes in the counterexample state.
        let next_norm = |node: usize| -> bool {
            let latch = latches.iter().find(|l| l.node == node).unwrap();
            (eval.get(latch.next) & 1 == 1) ^ latch.init
        };
        let mut refined: Vec<(bool, Vec<usize>)> = Vec::new();
        for (is_const, members) in partition {
            let (zeros, ones): (Vec<usize>, Vec<usize>) =
                members.into_iter().partition(|&m| !next_norm(m));
            if (is_const || zeros.len() > 1) && !zeros.is_empty() {
                refined.push((is_const, zeros));
            }
            if ones.len() > 1 {
                refined.push((false, ones));
            }
        }
        refined.sort_unstable_by_key(|(_, members)| members[0]);
        partition = refined;
    }
}

/// Combinationally-proven gate equivalences: `AND node -> representative
/// literal`, where the representative is any earlier node (input, latch,
/// gate or constant, possibly inverted) computing the *same function of
/// inputs and latches for every valuation* — reachability plays no role,
/// so the merge is unconditionally sound.
///
/// Random 64-bit patterns over free leaves partition all nodes into
/// candidate classes (complement-normalized on the first sampled bit); SAT
/// miters over a single free frame certify each member against the class
/// representative, counterexamples refine the partition, and the loop runs
/// until it is certified.  Only AND nodes are ever merged.
fn gate_equivalences(aig: &Aig) -> BTreeMap<usize, Lit> {
    if aig.num_ands() == 0 {
        return BTreeMap::new();
    }
    let mut rng = StdRng::seed_from_u64(SWEEP_SEED ^ 0xC0DE);
    let mut eval = Evaluator::<LaneWord>::new(aig);
    let mut signatures: Vec<Vec<u64>> = vec![Vec::new(); aig.num_nodes()];
    for _ in 0..COMB_SIM_WORDS {
        for n in leaves(aig) {
            eval.set(n, rng.next_u64());
        }
        eval.settle();
        for (sig, &word) in signatures.iter_mut().zip(eval.words()) {
            sig.push(word);
        }
    }
    // Complement-normalize each signature on its first bit.
    let mut classes: BTreeMap<Vec<u64>, Vec<(usize, bool)>> = BTreeMap::new();
    for (n, raw) in signatures.iter().enumerate() {
        let inv = raw[0] & 1 == 1;
        let sig: Vec<u64> = raw.iter().map(|&w| if inv { !w } else { w }).collect();
        classes.entry(sig).or_default().push((n, inv));
    }
    let mut partition: Vec<Vec<(usize, bool)>> = classes
        .into_values()
        .map(|mut members| {
            members.sort_unstable();
            members
        })
        .filter(|members| members.len() > 1 && members.iter().any(|&(n, _)| is_and(aig, n)))
        .collect();
    partition.sort_unstable_by_key(|members| members[0].0);

    loop {
        let pairs: Vec<(usize, bool, usize, bool)> = partition
            .iter()
            .flat_map(|members| {
                let (rep, rep_inv) = members[0];
                members
                    .iter()
                    .skip(1)
                    .filter(move |&&(n, _)| is_and(aig, n))
                    .map(move |&(n, inv)| (n, inv, rep, rep_inv))
            })
            .collect();
        if pairs.is_empty() {
            return BTreeMap::new();
        }

        let mut unroller = Unroller::new(aig, false);
        unroller.ensure_frame(0);
        let mut refuted = false;
        for &(member, inv, rep, rep_inv) in &pairs {
            let m = unroller.lit_in_frame(Lit::new(member, inv), 0);
            let r = unroller.lit_in_frame(Lit::new(rep, rep_inv), 0);
            let activate = unroller.new_free_lit();
            // activate -> (m XOR r).
            unroller.add_clause(&[activate.negate(), m, r]);
            unroller.add_clause(&[activate.negate(), m.negate(), r.negate()]);
            if matches!(unroller.solve_sat(&[activate]), SatResult::Sat) {
                settle_on_counterexample(&mut eval, aig, &mut unroller);
                refuted = true;
                break;
            }
        }

        if !refuted {
            let mut equiv = BTreeMap::new();
            for (member, inv, rep, rep_inv) in pairs {
                equiv.insert(member, Lit::new(rep, inv ^ rep_inv));
            }
            return equiv;
        }
        let mut refined: Vec<Vec<(usize, bool)>> = Vec::new();
        for members in partition {
            let (zeros, ones): (Vec<_>, Vec<_>) = members
                .into_iter()
                .partition(|&(n, inv)| eval.get(Lit::new(n, inv)) & 1 == 0);
            for side in [zeros, ones] {
                if side.len() > 1 && side.iter().any(|&(n, _)| is_and(aig, n)) {
                    refined.push(side);
                }
            }
        }
        refined.sort_unstable_by_key(|members| members[0].0);
        partition = refined;
    }
}

fn is_and(aig: &Aig, node: usize) -> bool {
    matches!(aig.node(node), Node::And(..))
}

/// One sweep of equivalence merging + rewriting rebuild + dead-node
/// elimination.
fn one_pass(model: &Model) -> Model {
    let aig = &model.aig;
    // Where each node's fanout is redirected, if anywhere: proven latch
    // equivalences and constants, then gate equivalences.  Representatives
    // always have a smaller node index, so redirections resolve in node
    // order without chains.
    let mut redirect: Vec<Option<Lit>> = vec![None; aig.num_nodes()];
    let equivalences = latch_equivalences(model)
        .into_iter()
        .chain(gate_equivalences(aig));
    for (node, rep) in equivalences {
        redirect[node] = Some(rep);
    }
    rebuild(model, None, |node| redirect[node], and_rewrite)
}

/// The two inputs of an AND node, or `None` for leaves.
fn gate_of(aig: &Aig, l: Lit) -> Option<(Lit, Lit)> {
    match aig.node(l.node()) {
        Node::And(a, b) => Some((a, b)),
        _ => None,
    }
}

/// Builds `a & b` applying the classic two-level AIG rewrite rules on top
/// of [`Aig::and`]'s one-level folding and structural hashing.
///
/// With `g = x & y` the implemented identities are:
///
/// * subsumption — `g & x = g`;
/// * contradiction — `g & !x = 0`, and `(x & y) & (u & v) = 0` when the
///   gates share a complemented literal;
/// * or-absorption — `!g & !x = !x`;
/// * substitution — `!g & x = x & !y`;
/// * resolution — `!(x & y) & !(x & !y) = !x`.
///
/// Each rule either returns an existing literal or recurses on a strictly
/// shallower pair, so the rewrite terminates; because rules fire at
/// construction time, a model rebuilt through this function contains none
/// of the redundant shapes, which is what makes [`optimize`] idempotent.
fn and_rewrite(aig: &mut Aig, a: Lit, b: Lit) -> Lit {
    if a.is_const() || b.is_const() || a == b || a == b.invert() {
        return aig.and(a, b);
    }
    for (x, y) in [(a, b), (b, a)] {
        if let Some((x0, x1)) = gate_of(aig, x) {
            if !x.is_inverted() {
                // x = x0 & x1
                if y == x0 || y == x1 {
                    return x; // subsumption
                }
                if y == x0.invert() || y == x1.invert() {
                    return Lit::FALSE; // contradiction
                }
            } else {
                // x = !(x0 & x1)
                if y == x0.invert() || y == x1.invert() {
                    return y; // or-absorption
                }
                if y == x0 {
                    return and_rewrite(aig, y, x1.invert()); // substitution
                }
                if y == x1 {
                    return and_rewrite(aig, y, x0.invert());
                }
            }
        }
    }
    if !a.is_inverted() && !b.is_inverted() {
        if let (Some((a0, a1)), Some((b0, b1))) = (gate_of(aig, a), gate_of(aig, b)) {
            // (a0 & a1) & (b0 & b1) with a shared complemented literal.
            for u in [a0, a1] {
                for v in [b0, b1] {
                    if u == v.invert() {
                        return Lit::FALSE;
                    }
                }
            }
        }
    }
    if a.is_inverted() && b.is_inverted() {
        if let (Some((a0, a1)), Some((b0, b1))) = (gate_of(aig, a), gate_of(aig, b)) {
            // Resolution: !(x & y) & !(x & !y) = !x.
            for (p, q) in [(a0, a1), (a1, a0)] {
                for (r, s) in [(b0, b1), (b1, b0)] {
                    if p == r && q == s.invert() {
                        return p.invert();
                    }
                }
            }
        }
    }
    aig.and(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BadProperty, CoverProperty, ResponseProperty};
    use proptest::prelude::*;

    /// busy bit + a latch provably stuck at reset + a dead counter.
    fn sample_model() -> Model {
        let mut aig = Aig::new();
        let req = aig.add_input("req");
        let busy = aig.add_latch("busy", false);
        let next_busy = aig.or(busy, req);
        aig.set_latch_next(busy, next_busy);
        // stuck_q holds itself: constant at its (false) reset value.
        let stuck = aig.add_latch("stuck_q", false);
        aig.set_latch_next(stuck, stuck);
        // The bad observes busy AND the stuck latch.
        let bad = aig.and(busy, stuck.invert());
        // Dead free-running toggle no root observes.
        let toggle = aig.add_latch("toggle", false);
        aig.set_latch_next(toggle, toggle.invert());
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "busy_while_clear".into(),
            lit: bad,
        });
        model
    }

    #[test]
    fn optimize_sweeps_constants_and_dead_state() {
        let model = sample_model();
        assert_eq!(model.aig.num_latches(), 3);
        let (opt, fp) = optimize(&model);
        assert_eq!(fp, fingerprint(&opt));
        // stuck_q substituted, toggle dead: only busy survives.
        assert_eq!(opt.aig.num_latches(), 1);
        assert_eq!(
            opt.aig
                .latches()
                .iter()
                .filter_map(|l| opt.aig.name_of(l.node))
                .collect::<Vec<_>>(),
            vec!["busy"]
        );
        // bad = busy & !stuck = busy & !false = busy (no gate needed).
        assert_eq!(opt.aig.num_ands(), 1); // just busy | req
    }

    #[test]
    fn rewrite_collapses_constant_branch_muxes() {
        // mux(s, TRUE, e) lowered the word-level way: or(s, and(!s, e)),
        // i.e. two gates where one suffices.
        let mut aig = Aig::new();
        let s = aig.add_input("s");
        let e = aig.add_input("e");
        let inner = aig.and(s.invert(), e);
        let redundant = aig.or(s, inner);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "m".into(),
            lit: redundant,
        });
        assert_eq!(model.aig.num_ands(), 2);
        let opt = optimize(&model).0;
        assert_eq!(opt.aig.num_ands(), 1, "or(s, !s&e) must become s|e");
    }

    #[test]
    fn optimize_is_idempotent() {
        let model = sample_model();
        let once = optimize(&model).0;
        let twice = optimize(&once).0;
        assert_eq!(fingerprint(&once), fingerprint(&twice));
    }

    #[test]
    fn optimized_model_agrees_with_original_on_random_inputs() {
        let model = sample_model();
        let opt = optimize(&model).0;
        let mut orig_sim = ParallelSim::new(&model);
        let mut opt_sim = ParallelSim::new(&opt);
        // 64 random stimulus lanes for `req`, wherever each model keeps it.
        let drive = |m: &Model, word: u64| -> Vec<u64> {
            (0..m.aig.num_inputs())
                .map(|i| {
                    if m.aig.input_name(i) == "req" {
                        word
                    } else {
                        0
                    }
                })
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(0x9E37_79B9);
        for cycle in 0..16 {
            let word = rng.next_u64();
            orig_sim.step_inputs(&drive(&model, word));
            opt_sim.step_inputs(&drive(&opt, word));
            assert_eq!(
                orig_sim.word(model.bads[0].lit),
                opt_sim.word(opt.bads[0].lit),
                "verdicts must agree in every lane at cycle {cycle}"
            );
            orig_sim.advance();
            opt_sim.advance();
        }
    }

    #[test]
    fn property_order_and_names_survive() {
        let mut model = sample_model();
        let lit = model.bads[0].lit;
        model.covers.push(CoverProperty {
            name: "c0".into(),
            lit,
        });
        model.liveness.push(ResponseProperty {
            name: "resp".into(),
            trigger: lit,
            target: lit.invert(),
        });
        let opt = optimize(&model).0;
        assert_eq!(opt.bads[0].name, "busy_while_clear");
        assert_eq!(opt.covers[0].name, "c0");
        assert_eq!(opt.liveness[0].name, "resp");
        assert_eq!(opt.constraints.len(), model.constraints.len());
    }

    /// A seeded random model whose every latch is observed by a bad
    /// property of its own, so only a merge can remove a latch.  Each latch
    /// gets a random gate of the pool as its next state, or, one time in
    /// two, one that keeps it at its reset value (`l & g` from 0, `l | g`
    /// from 1), which the three-valued sweep proves constant when `g` does
    /// not depend on a latch that moves.  Random constraints come on top.
    fn stuck_model(
        seed: u64,
        latches: usize,
        inputs: usize,
        gates: usize,
        constraints: usize,
    ) -> Model {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut aig = Aig::new();
        let mut pool: Vec<Lit> = (0..inputs)
            .map(|i| aig.add_input(format!("i{i}")))
            .collect();
        let state: Vec<(Lit, bool)> = (0..latches)
            .map(|i| {
                let init = rng.gen_bool(0.5);
                (aig.add_latch(format!("l{i}"), init), init)
            })
            .collect();
        pool.extend(state.iter().map(|&(latch, _)| latch));
        let pick = |rng: &mut StdRng, pool: &[Lit]| {
            pool[rng.gen_range(0..pool.len() as u64) as usize].invert_if(rng.gen_bool(0.5))
        };
        for _ in 0..gates {
            let (a, b) = (pick(&mut rng, &pool), pick(&mut rng, &pool));
            let gate = if rng.gen_bool(0.5) {
                aig.and(a, b)
            } else {
                aig.xor(a, b)
            };
            pool.push(gate);
        }
        for &(latch, init) in &state {
            let gate = pick(&mut rng, &pool);
            let next = match (rng.gen_bool(0.5), init) {
                (true, false) => aig.and(latch, gate),
                (true, true) => aig.or(latch, gate),
                (false, _) => gate,
            };
            aig.set_latch_next(latch, next);
        }
        let mut model = Model::new(aig);
        model.bads = state
            .iter()
            .enumerate()
            .map(|(i, &(lit, _))| BadProperty {
                name: format!("b{i}"),
                lit,
            })
            .collect();
        model.constraints = (0..constraints).map(|_| pick(&mut rng, &pool)).collect();
        model
    }

    proptest! {
        /// Every latch the lint's three-valued sweep proves constant is gone
        /// after optimization: latch sweeping puts it in its constant class,
        /// and no counterexample to induction splits it off.
        #[test]
        fn no_ternary_constant_latch_survives_optimization(
            seed in 0u64..u64::MAX,
            latches in 1usize..10,
            inputs in 0usize..4,
            gates in 0usize..24,
            constraints in 0usize..3,
        ) {
            let model = stuck_model(seed, latches, inputs, gates, constraints);
            let aig = &model.aig;
            let constant: Vec<&str> = crate::lint::constant_latches(aig)
                .iter()
                .map(|&(node, _)| aig.name_of(node).expect("named latch"))
                .collect();
            let optimized = optimize(&model).0;
            for latch in optimized.aig.latches() {
                let name = optimized.aig.name_of(latch.node).expect("named latch");
                prop_assert!(!constant.contains(&name), "seed {}: {} survived", seed, name);
            }
        }
    }
}
