//! The AIG evaluator: one gate sweep over 64 lanes, two- or three-valued.
//!
//! Every computation of gate values from leaf values goes through
//! `Evaluator`.  Nodes are created in topological order (an `And` only
//! references earlier nodes), so one pass over the AND gates in node order
//! settles the combinational logic — no event queue, no levelization pass.
//! The sweep is generic over the lane type (`Lanes`):
//!
//! * **two-valued** (`u64`): 64 independent concrete lanes, one bit each;
//!   an AND gate is a single `&`.  The stimulus fuzzer ([`crate::fuzz`]),
//!   trace [`replay`] (which builds and confirms every fuzz, BMC and PDR
//!   trace and re-validates proof-cache hits), opt's signature simulations
//!   and counterexample refinements, and the explicit engine's
//!   64-input-combination sweeps use it;
//! * **three-valued** (`Ternary`): dual rail, a `one` and a `zero` word
//!   per node, with X (unknown) where neither rail is set.  NOT swaps the
//!   rails and AND is Kleene AND (`one & one`, `zero | zero`).  The lint's
//!   constant-latch fixpoint (lint L005) and PDR's predecessor lifting use
//!   it.
//!
//! [`ParallelSim`] is the sequential driver over the two-valued mode
//! (reset, drive inputs, read monitors, clock the latches).  In the
//! checker it runs on the *optimized cone-of-influence slice* of one
//! property, so a fuzz cycle costs `slice_gates` word-ANDs for 64 concrete
//! stimulus vectors at once.

use crate::aig::{Aig, Lit, Node};
use crate::model::Model;
use crate::trace::Trace;

/// A word of 64 parallel simulation lanes, one bit per lane.
pub type LaneWord = u64;

/// All 64 lanes set.
pub const ALL_LANES: LaneWord = u64::MAX;

/// Lane masks enumerating every combination of six values across the 64
/// lanes: bit `l` of word `i` is bit `i` of the lane index `l`.
pub(crate) const LANE_MASKS: [LaneWord; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The leaf nodes (inputs and latches) of `aig`, in node order.
pub(crate) fn leaves(aig: &Aig) -> impl Iterator<Item = usize> + '_ {
    (0..aig.num_nodes()).filter(|&n| matches!(aig.node(n), Node::Input | Node::Latch))
}

/// The value of one node across 64 lanes: the mode of an [`Evaluator`].
pub(crate) trait Lanes: Copy + PartialEq {
    /// Every lane false.
    const FALSE: Self;

    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;

    /// Lane-wise NOT when `invert` is set, the value itself otherwise.
    fn invert_if(self, invert: bool) -> Self;

    /// Every lane equal to `value`.
    fn splat(value: bool) -> Self {
        Self::FALSE.invert_if(value)
    }
}

/// All-ones when `invert` is set, zero otherwise.
fn mask(invert: bool) -> LaneWord {
    LaneWord::from(invert).wrapping_neg()
}

impl Lanes for LaneWord {
    const FALSE: LaneWord = 0;

    fn and(self, other: LaneWord) -> LaneWord {
        self & other
    }

    fn invert_if(self, invert: bool) -> LaneWord {
        self ^ mask(invert)
    }
}

/// Three-valued lanes in dual-rail form: lane `l` is 1 when bit `l` of
/// `one` is set, 0 when bit `l` of `zero` is set, and X (unknown) when
/// neither is.  The evaluator never sets both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ternary {
    /// Lanes known to be 1.
    pub one: LaneWord,
    /// Lanes known to be 0.
    pub zero: LaneWord,
}

impl Ternary {
    /// Every lane unknown.
    pub const X: Ternary = Ternary { one: 0, zero: 0 };

    /// The lane-wise join: a lane stays known only where both values know
    /// it and agree.
    #[must_use]
    pub fn join(self, other: Ternary) -> Ternary {
        Ternary {
            one: self.one & other.one,
            zero: self.zero & other.zero,
        }
    }

    /// The value of lane `lane`, `None` when it is X.
    pub fn lane(self, lane: usize) -> Option<bool> {
        match ((self.one >> lane) & 1, (self.zero >> lane) & 1) {
            (1, 0) => Some(true),
            (0, 1) => Some(false),
            _ => None,
        }
    }
}

impl Lanes for Ternary {
    const FALSE: Ternary = Ternary {
        one: 0,
        zero: ALL_LANES,
    };

    fn and(self, other: Ternary) -> Ternary {
        Ternary {
            one: self.one & other.one,
            zero: self.zero | other.zero,
        }
    }

    fn invert_if(self, invert: bool) -> Ternary {
        // XOR-swap the rails in the inverted case, without a branch.
        let swap = (self.one ^ self.zero) & mask(invert);
        Ternary {
            one: self.one ^ swap,
            zero: self.zero ^ swap,
        }
    }
}

/// Gate values of one AIG over 64 lanes of type `W`.
///
/// The leaves (inputs and latches) hold whatever [`Evaluator::set`] put
/// there (every node starts at [`Lanes::FALSE`]); [`Evaluator::settle`]
/// recomputes every AND gate from them.  The evaluator keeps only the gate
/// list of the AIG it was built from, not the AIG itself.
#[derive(Debug, Clone)]
pub(crate) struct Evaluator<W> {
    /// `(output node, fanin, fanin)` of every AND gate, in node order.
    gates: Vec<(usize, Lit, Lit)>,
    /// Current value of every node.
    words: Vec<W>,
}

impl<W: Lanes> Evaluator<W> {
    /// An evaluator for `aig` with every node false.
    pub fn new(aig: &Aig) -> Self {
        let gates = (0..aig.num_nodes())
            .filter_map(|n| match aig.node(n) {
                Node::And(a, b) => Some((n, a, b)),
                _ => None,
            })
            .collect();
        Evaluator {
            gates,
            words: vec![W::FALSE; aig.num_nodes()],
        }
    }

    /// An evaluator for `aig` that settles only the AND gates in the fanin
    /// of `roots`: the values of those literals are exactly
    /// [`Evaluator::new`]'s, and every other gate stays false.
    pub fn for_roots(aig: &Aig, roots: impl IntoIterator<Item = Lit>) -> Self {
        let mut needed = vec![false; aig.num_nodes()];
        roots.into_iter().for_each(|lit| needed[lit.node()] = true);
        for n in (0..aig.num_nodes()).rev() {
            if let (true, Node::And(a, b)) = (needed[n], aig.node(n)) {
                needed[a.node()] = true;
                needed[b.node()] = true;
            }
        }
        let mut eval = Evaluator::new(aig);
        eval.gates.retain(|&(out, _, _)| needed[out]);
        eval
    }

    /// Sets the value of a leaf node.
    pub fn set(&mut self, node: usize, value: W) {
        self.words[node] = value;
    }

    /// Recomputes every AND gate from the current leaf values.
    pub fn settle(&mut self) {
        for &(out, a, b) in &self.gates {
            let value = self.get(a).and(self.get(b));
            self.words[out] = value;
        }
    }

    /// The value of a literal.
    pub fn get(&self, lit: Lit) -> W {
        self.words[lit.node()].invert_if(lit.is_inverted())
    }

    /// The value of every node, indexed by node.
    pub fn words(&self) -> &[W] {
        &self.words
    }
}

/// A bit-parallel two-state simulator of a [`Model`]: 64 stimulus lanes
/// per step.
///
/// The lifecycle of one cycle is `step_inputs` (drive the primary inputs
/// and settle the combinational logic), any number of [`ParallelSim::word`]
/// reads (monitors, constraints), then [`ParallelSim::advance`] to clock
/// the latches.  [`ParallelSim::reset`] returns every latch to its reset
/// value without rebuilding the gate list.
#[derive(Debug, Clone)]
pub struct ParallelSim<'a> {
    model: &'a Model,
    eval: Evaluator<LaneWord>,
    /// Next-state scratch of [`ParallelSim::advance`], one word per latch.
    next: Vec<LaneWord>,
}

impl<'a> ParallelSim<'a> {
    /// Creates a simulator for `model` with every latch at its reset value
    /// in all lanes.
    pub fn new(model: &'a Model) -> Self {
        let mut sim = ParallelSim {
            model,
            eval: Evaluator::new(&model.aig),
            next: Vec::with_capacity(model.aig.num_latches()),
        };
        sim.reset();
        sim
    }

    /// Returns every latch to its reset value in all lanes and clears the
    /// other nodes.
    pub fn reset(&mut self) {
        self.eval.words.fill(0);
        for latch in self.model.aig.latches() {
            self.eval.set(latch.node, LaneWord::splat(latch.init));
        }
    }

    /// The current word of a literal: bit `l` is the value in lane `l`.
    pub fn word(&self, lit: Lit) -> LaneWord {
        self.eval.get(lit)
    }

    /// Drives the primary inputs (one word per input, in input-index order;
    /// missing trailing entries read as all-zero) and settles the
    /// combinational logic.  Latch state is untouched — read monitors with
    /// [`ParallelSim::word`], then clock with [`ParallelSim::advance`].
    pub fn step_inputs(&mut self, inputs: &[LaneWord]) {
        for (i, &node) in self.model.aig.inputs().iter().enumerate() {
            self.eval.set(node, inputs.get(i).copied().unwrap_or(0));
        }
        self.eval.settle();
    }

    /// Clocks every latch: the settled next-state functions become the new
    /// latch values, in all lanes at once.
    pub fn advance(&mut self) {
        // Latch next-state literals reference the *settled* node table; the
        // two-pass copy keeps latch-to-latch feedthrough order-independent.
        let latches = self.model.aig.latches();
        self.next.clear();
        self.next
            .extend(latches.iter().map(|l| self.eval.get(l.next)));
        for (latch, &word) in latches.iter().zip(&self.next) {
            self.eval.set(latch.node, word);
        }
    }

    /// The conjunction of every invariant constraint, per lane: bit `l` is
    /// set iff all constraints hold in lane `l` this cycle.
    pub fn constraints_word(&self) -> LaneWord {
        self.model
            .constraints
            .iter()
            .fold(ALL_LANES, |acc, &c| acc & self.word(c))
    }
}

/// Replays one concrete stimulus of `cycles` cycles, where `input(cycle,
/// i)` drives input `i` at `cycle`.  The replay confirms when every
/// invariant constraint holds on every cycle and `target` fires on the last
/// one; it then returns the trace, one frame per cycle (the latch values
/// entering the cycle, the inputs driven during it).
///
/// The fuzzer, BMC, PDR and the explicit engine's safety and cover
/// searches build their traces this way from the inputs they found, so
/// every such trace is confirmed, and the proof cache re-validates a cached
/// counterexample or cover witness against the live model.
pub fn replay(
    model: &Model,
    target: Lit,
    cycles: usize,
    input: impl Fn(usize, usize) -> bool,
) -> Option<Trace> {
    let mut fired = false;
    let trace = drive(model, cycles, input, |cycle, sim| {
        fired = cycle + 1 == cycles && sim.word(target) & 1 == 1;
    })?;
    fired.then_some(trace)
}

/// The simulation under [`replay`] and the lasso replay
/// ([`crate::liveness::replay`]): drives `input(cycle, i)` for `cycles`
/// cycles from reset in lane 0 and records the trace, showing `observe`
/// each cycle once its inputs have settled.  `None` when `cycles` is 0 or
/// an invariant constraint fails on some cycle.
pub(crate) fn drive(
    model: &Model,
    cycles: usize,
    input: impl Fn(usize, usize) -> bool,
    mut observe: impl FnMut(usize, &ParallelSim<'_>),
) -> Option<Trace> {
    if cycles == 0 {
        return None;
    }
    let aig = &model.aig;
    let mut sim = ParallelSim::new(model);
    let mut inputs = vec![0; aig.num_inputs()];
    let mut trace = Trace::new(cycles);
    for cycle in 0..cycles {
        for latch in aig.latches() {
            let name = aig.name_of(latch.node).unwrap_or("latch");
            let value = sim.word(Lit::new(latch.node, false)) & 1 == 1;
            trace.record(cycle, name, value, false);
        }
        for (i, word) in inputs.iter_mut().enumerate() {
            let value = input(cycle, i);
            trace.record(cycle, aig.input_name(i), value, true);
            *word = LaneWord::from(value);
        }
        sim.step_inputs(&inputs);
        if sim.constraints_word() & 1 == 0 {
            return None;
        }
        observe(cycle, &sim);
        sim.advance();
    }
    Some(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BadProperty;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A 2-bit counter that wraps; bad when it reaches 3 with enable high.
    fn counter_model() -> Model {
        let mut aig = Aig::new();
        let en = aig.add_input("en");
        let c0 = aig.add_latch("cnt[0]", false);
        let c1 = aig.add_latch("cnt[1]", false);
        // next0 = c0 ^ en; next1 = c1 ^ (c0 & en)
        let n0 = aig.xor(c0, en);
        let carry = aig.and(c0, en);
        let n1 = aig.xor(c1, carry);
        aig.set_latch_next(c0, n0);
        aig.set_latch_next(c1, n1);
        let both = aig.and(c0, c1);
        let bad = aig.and(both, en);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "cnt_saturated_while_enabled".into(),
            lit: bad,
        });
        model
    }

    /// A seeded random sequential model: inputs, latches with random reset
    /// values, a soup of AND/OR/XOR gates, random next-state functions, a
    /// bad literal and up to two invariant constraints.
    fn random_model(seed: u64) -> Model {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut aig = Aig::new();
        let mut pool: Vec<Lit> = (0..1 + rng.gen_range(0..4))
            .map(|i| aig.add_input(format!("i{i}")))
            .collect();
        let latches: Vec<Lit> = (0..1 + rng.gen_range(0..5))
            .map(|i| aig.add_latch(format!("l{i}"), rng.gen_bool(0.5)))
            .collect();
        pool.extend(&latches);
        let pick = |rng: &mut StdRng, pool: &[Lit]| {
            pool[rng.gen_range(0..pool.len() as u64) as usize].invert_if(rng.gen_bool(0.5))
        };
        for _ in 0..4 + rng.gen_range(0..28) {
            let (a, b) = (pick(&mut rng, &pool), pick(&mut rng, &pool));
            let g = match rng.gen_range(0..3) {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            };
            pool.push(g);
        }
        for &l in &latches {
            let next = pick(&mut rng, &pool);
            aig.set_latch_next(l, next);
        }
        let bad = pick(&mut rng, &pool);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "random_bad".into(),
            lit: bad,
        });
        for _ in 0..rng.gen_range(0..3) {
            model.constraints.push(pick(&mut rng, &pool));
        }
        model
    }

    /// Recursive single-valuation reference, independent of the gate sweep:
    /// `leaf` gives input and latch values, `memo` caches visited nodes.
    fn reference(
        aig: &Aig,
        lit: Lit,
        leaf: &dyn Fn(usize) -> bool,
        memo: &mut [Option<bool>],
    ) -> bool {
        let node = lit.node();
        let value = match memo[node] {
            Some(v) => v,
            None => {
                let v = match aig.node(node) {
                    Node::False => false,
                    Node::Input | Node::Latch => leaf(node),
                    Node::And(a, b) => {
                        reference(aig, a, leaf, memo) && reference(aig, b, leaf, memo)
                    }
                };
                memo[node] = Some(v);
                v
            }
        };
        value ^ lit.is_inverted()
    }

    #[test]
    fn lanes_evolve_independently() {
        let model = counter_model();
        let mut sim = ParallelSim::new(&model);
        // Lane 0 never enables, lane 1 always, lane 2 only for two cycles.
        let lane1 = 1u64 << 1;
        let lane2 = 1u64 << 2;
        let bad = model.bads[0].lit;
        let mut fired = 0u64;
        for cycle in 0..8 {
            let word = lane1 | if cycle < 2 { lane2 } else { 0 };
            sim.step_inputs(&[word]);
            fired |= sim.word(bad);
            sim.advance();
        }
        assert_eq!(fired & 1, 0, "lane 0 held enable low, must never fire");
        assert_ne!(fired & lane1, 0, "lane 1 counts every cycle and must hit 3");
        assert_eq!(
            fired & lane2,
            0,
            "lane 2 stops counting at 2; the bad needs the count to reach 3"
        );
    }

    #[test]
    fn word_evaluation_agrees_with_a_recursive_reference() {
        // Random stimulus through all 64 lanes of random sequential models;
        // every lane is re-simulated bit-serially with the recursive
        // reference, checking every node, the constraint conjunction and
        // the clocked state on every cycle.
        for seed in 0..64 {
            let model = random_model(seed);
            let aig = &model.aig;
            let mut sim = ParallelSim::new(&model);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
            let mut states: Vec<Vec<bool>> = (0..64)
                .map(|_| aig.latches().iter().map(|l| l.init).collect())
                .collect();
            for cycle in 0..12 {
                let stimulus: Vec<u64> = (0..aig.num_inputs()).map(|_| rng.next_u64()).collect();
                sim.step_inputs(&stimulus);
                for (lane, state) in states.iter_mut().enumerate() {
                    let leaf = |node: usize| match aig.inputs().iter().position(|&n| n == node) {
                        Some(i) => (stimulus[i] >> lane) & 1 == 1,
                        None => {
                            let pos = aig.latches().iter().position(|l| l.node == node).unwrap();
                            state[pos]
                        }
                    };
                    let mut memo = vec![None; aig.num_nodes()];
                    for node in 0..aig.num_nodes() {
                        let want = reference(aig, Lit::new(node, false), &leaf, &mut memo);
                        let got = (sim.word(Lit::new(node, false)) >> lane) & 1 == 1;
                        assert_eq!(
                            got, want,
                            "seed {seed} cycle {cycle} lane {lane} node {node}"
                        );
                    }
                    let ok = model
                        .constraints
                        .iter()
                        .all(|&c| reference(aig, c, &leaf, &mut memo));
                    assert_eq!((sim.constraints_word() >> lane) & 1 == 1, ok);
                    let next: Vec<bool> = aig
                        .latches()
                        .iter()
                        .map(|l| reference(aig, l.next, &leaf, &mut memo))
                        .collect();
                    *state = next;
                }
                sim.advance();
            }
        }
    }

    #[test]
    fn fully_known_ternary_sweep_equals_the_two_valued_sweep() {
        for seed in 0..64 {
            let model = random_model(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x3A1);
            let mut two = Evaluator::<LaneWord>::new(&model.aig);
            let mut three = Evaluator::<Ternary>::new(&model.aig);
            for node in leaves(&model.aig) {
                let word = rng.next_u64();
                two.set(node, word);
                three.set(
                    node,
                    Ternary {
                        one: word,
                        zero: !word,
                    },
                );
            }
            two.settle();
            three.settle();
            for (node, (&w, &t)) in two.words().iter().zip(three.words()).enumerate() {
                assert_eq!(t, Ternary { one: w, zero: !w }, "seed {seed} node {node}");
            }
        }
    }

    #[test]
    fn known_ternary_lanes_hold_under_every_completion_of_the_x_leaves() {
        // Up to 6 leaves are X in the three-valued sweep; the two-valued
        // sweep enumerates all 2^k completions of them across its lanes
        // (LANE_MASKS: lane l gives X leaf j the value of bit j of l).
        // Wherever the three-valued sweep claims a value, every completion
        // must agree.
        let mut known_gates = 0;
        for seed in 0..256 {
            let model = random_model(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7E57);
            let mut two = Evaluator::<LaneWord>::new(&model.aig);
            let mut three = Evaluator::<Ternary>::new(&model.aig);
            let mut xs = 0;
            for node in leaves(&model.aig) {
                if xs < LANE_MASKS.len() && rng.gen_bool(0.5) {
                    two.set(node, LANE_MASKS[xs]);
                    three.set(node, Ternary::X);
                    xs += 1;
                } else {
                    let value = rng.gen_bool(0.5);
                    two.set(node, LaneWord::splat(value));
                    three.set(node, Ternary::splat(value));
                }
            }
            two.settle();
            three.settle();
            let lanes = 1u32 << xs;
            for (node, (&w, &t)) in two.words().iter().zip(three.words()).enumerate() {
                assert_eq!(t.one & t.zero, 0, "seed {seed} node {node}: both rails set");
                let known = t.lane(0);
                for lane in 1..64 {
                    assert_eq!(t.lane(lane), known, "splatted leaves give splatted gates");
                }
                if let Some(value) = known {
                    known_gates += usize::from(matches!(model.aig.node(node), Node::And(..)));
                    for lane in 0..lanes {
                        assert_eq!(
                            (w >> lane) & 1 == 1,
                            value,
                            "seed {seed} node {node}: known value broken by completion {lane}"
                        );
                    }
                }
            }
        }
        assert!(known_gates > 0, "the X leaves must not hide every gate");
    }

    #[test]
    fn ternary_and_is_kleene_and() {
        let f = Ternary::FALSE;
        let t = Ternary::splat(true);
        let x = Ternary::X;
        assert_eq!(f.and(x), f);
        assert_eq!(x.and(f), f);
        assert_eq!(t.and(t), t);
        assert_eq!(t.and(x), x);
        assert_eq!(x.and(x), x);
        assert_eq!(x.invert_if(true), x);
        assert_eq!(t.invert_if(true), f);
        assert_eq!(f.join(t), x);
        assert_eq!(t.join(t), t);
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let model = counter_model();
        let mut sim = ParallelSim::new(&model);
        sim.step_inputs(&[ALL_LANES]);
        sim.advance();
        assert_ne!(sim.word(Lit::new(model.aig.latches()[0].node, false)), 0);
        sim.reset();
        assert_eq!(sim.word(Lit::new(model.aig.latches()[0].node, false)), 0);
        assert_eq!(sim.word(Lit::new(model.aig.latches()[1].node, false)), 0);
    }

    #[test]
    fn constraints_word_conjoins_all_constraints() {
        let mut model = counter_model();
        // Constrain "enable is low" — only lanes driving 0 survive.
        let en = Lit::new(model.aig.inputs()[0], false);
        model.constraints.push(en.invert());
        let mut sim = ParallelSim::new(&model);
        sim.step_inputs(&[0xF0F0]);
        assert_eq!(sim.constraints_word(), !0xF0F0);
    }

    #[test]
    fn replay_confirms_only_a_legal_stimulus_that_fires_on_its_last_cycle() {
        let mut model = counter_model();
        let bad = model.bads[0].lit;
        // Enable held high: the count reaches 3 at cycle 3.
        let trace = replay(&model, bad, 4, |_, _| true).expect("fires at cycle 3");
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.value(3, "cnt[0]"), Some(true));
        assert_eq!(trace.value(3, "cnt[1]"), Some(true));
        assert_eq!(trace.value(0, "en"), Some(true));
        assert!(
            replay(&model, bad, 3, |_, _| true).is_none(),
            "not fired yet"
        );
        assert!(
            replay(&model, bad, 5, |_, _| true).is_none(),
            "fired, then wrapped"
        );
        assert!(replay(&model, bad, 0, |_, _| true).is_none());
        // The same stimulus violates "enable is low" on its first cycle.
        let en = Lit::new(model.aig.inputs()[0], false);
        model.constraints.push(en.invert());
        assert!(replay(&model, bad, 4, |_, _| true).is_none());
    }
}
