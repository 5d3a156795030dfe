//! Exact explicit-state engine for small designs.
//!
//! Bounded model checking finds short counterexamples and k-induction closes
//! many proofs, but properties whose proof needs reachability information
//! (e.g. "a response implies the outstanding counter is non-zero") defeat
//! plain induction.  For the design sizes of the evaluation corpus a full
//! reachable-state exploration is cheap, so this module provides an exact
//! fallback.  Each query is one budgeted breadth-first search of its own;
//! nothing outlives the call:
//!
//! * [`reach`] (safety / cover) expands the reachable states (under the
//!   invariant constraints) in discovery order, tests the target literal in
//!   every state it expands for every input valuation — 64 input valuations
//!   are evaluated at once with bit-parallel simulation of the AIG — and
//!   stops at the first hit.  States are discovered in order of depth, so
//!   the first hit is a shallowest one; its trace is replayed on the model
//!   ([`crate::psim::replay`]) from the inputs along the breadth-first path
//!   to it;
//! * [`liveness`] (liveness under fairness) adds the pending-obligation
//!   monitors to the state, builds the reachable transition graph, and
//!   searches for a strongly connected component in which the obligation
//!   stays pending while every assumed fairness is discharged — the exact
//!   automata-theoretic criterion for a counterexample lasso.

use crate::aig::Lit;
use crate::interrupt::Interrupt;
use crate::model::Model;
use crate::psim::{replay, Evaluator, LaneWord, Lanes, ALL_LANES, LANE_MASKS};
use crate::trace::Trace;
use std::collections::HashMap;

/// Options bounding the explicit exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplicitOptions {
    /// Maximum number of reachable states to enumerate before giving up.
    pub max_states: usize,
    /// Maximum number of primary inputs the engine will enumerate.
    pub max_inputs: usize,
}

impl Default for ExplicitOptions {
    fn default() -> Self {
        ExplicitOptions {
            max_states: 300_000,
            max_inputs: 20,
        }
    }
}

/// Outcome of an explicit-state query.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplicitResult {
    /// The property holds on every reachable, constraint-satisfying
    /// execution.
    Proven,
    /// The property is violated; a witness trace is attached (for covers the
    /// trace reaches the target).
    Violated(Trace),
    /// The search ran out of limits or budget and produced no verdict.
    Exceeded,
}

/// Searches the reachable states of `model` for one where `target` holds
/// under some constraint-satisfying input valuation.
///
/// A hit yields [`ExplicitResult::Violated`] with a shortest trace to it,
/// replayed on `model` (a cover's caller reads it as "covered").  Once
/// `options.max_states` stops the expansion, every state already discovered
/// is still tested, without being expanded, before the search answers
/// [`ExplicitResult::Exceeded`].  A model with more than 63 latches or
/// `options.max_inputs` inputs is `Exceeded` at once.
///
/// The [`Interrupt`] handle is charged one step and polled once per state;
/// when it fires the search answers `Exceeded`, while a hit found before
/// that stands.  Callers without a budget pass [`Interrupt::none`].
pub fn reach(
    model: &Model,
    target: Lit,
    options: &ExplicitOptions,
    interrupt: &Interrupt,
) -> ExplicitResult {
    let Some(mut search) = Search::new(model, options) else {
        return ExplicitResult::Exceeded;
    };
    match search.explore(Some(target), interrupt) {
        End::Hit { state, input } => {
            let inputs: Vec<u64> = search.path(state)[1..]
                .iter()
                .map(|&s| search.preds[s as usize].1)
                .chain([input])
                .collect();
            let trace = replay(model, target, inputs.len(), |cycle, i| {
                (inputs[cycle] >> i) & 1 == 1
            })
            .expect("an explicit counterexample replays on its model");
            ExplicitResult::Violated(trace)
        }
        End::Complete => ExplicitResult::Proven,
        End::Incomplete => ExplicitResult::Exceeded,
    }
}

/// Checks the liveness property `model.liveness[index]` under every
/// fairness assumption of `model`.
///
/// The search explores `model` with a pending-obligation monitor register
/// per fairness assumption and liveness property, so the obligations are
/// part of every state, and then looks for a reachable cycle on which the
/// obligation stays pending while every fairness obligation is discharged
/// somewhere.  Such a cycle yields [`ExplicitResult::Violated`] with the
/// stem from the initial state into it; unlike [`reach`]'s traces the stem
/// is not replayed, as its last cycle records all-zero inputs.  An
/// incomplete exploration (limits as for [`reach`], or the interrupt) is
/// [`ExplicitResult::Exceeded`].
pub fn liveness(
    model: &Model,
    index: usize,
    options: &ExplicitOptions,
    interrupt: &Interrupt,
) -> ExplicitResult {
    let (augmented, assert_pendings, fair_pendings) = model.with_pending_monitors();
    let Some(mut search) = Search::new(&augmented, options) else {
        return ExplicitResult::Exceeded;
    };
    if !matches!(search.explore(None, interrupt), End::Complete) {
        return ExplicitResult::Exceeded;
    }
    // The monitors are latches, so their values are bits of every state.
    let bit = |monitor: Lit| {
        search
            .latch_nodes
            .iter()
            .position(|&n| n == monitor.node())
            .expect("a pending monitor is a latch")
    };
    let pending_bit = bit(assert_pendings[index]);
    let fair_bits: Vec<usize> = fair_pendings.iter().map(|&l| bit(l)).collect();

    // Restrict to states where the obligation is pending and find the
    // strongly connected components of that subgraph.
    let in_sub: Vec<bool> = search
        .states
        .iter()
        .map(|&s| (s >> pending_bit) & 1 == 1)
        .collect();
    for scc in search.tarjan_sccs(&in_sub) {
        // The component must contain a cycle: more than one state, or a
        // self-loop.
        let has_cycle = scc.len() > 1 || search.succs[scc[0] as usize].contains(&scc[0]);
        if !has_cycle {
            continue;
        }
        // Every assumed fairness must be discharged somewhere in the
        // component (its pending bit low in at least one state).
        let all_fair = fair_bits.iter().all(|&bit| {
            scc.iter()
                .any(|&s| (search.states[s as usize] >> bit) & 1 == 0)
        });
        if all_fair {
            return ExplicitResult::Violated(search.stem(scc[0]));
        }
    }
    ExplicitResult::Proven
}

/// The input valuation that lane `lane` of input word `high` evaluates
/// (see `Search::evaluate`): bit `i` is the value of input `i`.
fn valuation(high: u64, lane: u32) -> u64 {
    (high << LANE_MASKS.len()) | u64::from(lane)
}

/// How a search ended.
enum End {
    /// The target holds in state `state` under the input valuation `input`.
    Hit { state: u32, input: u64 },
    /// Every reachable state was expanded.
    Complete,
    /// The state cap or the interrupt stopped the expansion.
    Incomplete,
}

/// One breadth-first search over the reachable states of a model.
struct Search<'m> {
    model: &'m Model,
    latch_nodes: Vec<usize>,
    input_nodes: Vec<usize>,
    max_states: usize,
    /// Packed latch valuation per state, in discovery order.
    states: Vec<u64>,
    index: HashMap<u64, u32>,
    /// Predecessor of each state (state index, input valuation); the initial
    /// state points to itself.
    preds: Vec<(u32, u64)>,
    /// Deduplicated successors per expanded state, recorded only by a
    /// search without a target.
    succs: Vec<Vec<u32>>,
}

impl<'m> Search<'m> {
    /// A search holding only the initial state of `model`; `None` when the
    /// model is outside the engine's limits (too many latches or inputs).
    fn new(model: &'m Model, options: &ExplicitOptions) -> Option<Search<'m>> {
        let latch_nodes: Vec<usize> = model.aig.latches().iter().map(|l| l.node).collect();
        let input_nodes: Vec<usize> = model.aig.inputs().to_vec();
        if latch_nodes.len() > 63 || input_nodes.len() > options.max_inputs {
            return None;
        }
        let init = model
            .aig
            .latches()
            .iter()
            .enumerate()
            .filter(|(_, latch)| latch.init)
            .fold(0u64, |state, (i, _)| state | 1 << i);
        Some(Search {
            model,
            latch_nodes,
            input_nodes,
            max_states: options.max_states,
            states: vec![init],
            index: HashMap::from([(init, 0)]),
            preds: vec![(0, 0)],
            succs: Vec::new(),
        })
    }

    /// Expands the states in discovery order.  With a `target`, tests it in
    /// each state before expanding that state and stops at the first hit:
    /// the lowest state index, then input word, then lane.  Without one,
    /// records each expanded state's successors.
    fn explore(&mut self, target: Option<Lit>, interrupt: &Interrupt) -> End {
        let _span = crate::telemetry::span("explicit.explore", "");
        let end = self.expand(target, interrupt);
        crate::telemetry::count("explicit.states", self.states.len() as u64);
        end
    }

    fn expand(&mut self, target: Option<Lit>, interrupt: &Interrupt) -> End {
        let model = self.model;
        let mut eval = Evaluator::new(&model.aig);
        let lanes = 1u32 << self.input_nodes.len().min(6);
        let lane_mask = ALL_LANES >> (64 - lanes);
        let words = 1u64 << self.input_nodes.len().saturating_sub(6);
        // Set once the state cap stops the expansion: the states discovered
        // so far are still tested.
        let mut capped = false;
        let mut current = 0;
        while current < self.states.len() {
            #[cfg(any(test, feature = "fault-injection"))]
            interrupt.fault("explicit.step");
            if interrupt.charge(1).is_some() || interrupt.poll().is_some() {
                return End::Incomplete;
            }
            let state = self.states[current];
            let mut succs: Vec<u32> = Vec::new();
            for high in 0..words {
                self.evaluate(&mut eval, state, high);
                let ok = model
                    .constraints
                    .iter()
                    .fold(lane_mask, |acc, &c| acc & eval.get(c));
                if let Some(hit) = target.map(|t| ok & eval.get(t)).filter(|&hit| hit != 0) {
                    return End::Hit {
                        state: current as u32,
                        input: valuation(high, hit.trailing_zeros()),
                    };
                }
                if capped || ok == 0 {
                    continue;
                }
                let next_bits: Vec<u64> = model
                    .aig
                    .latches()
                    .iter()
                    .map(|l| eval.get(l.next))
                    .collect();
                for lane in (0..lanes).filter(|lane| (ok >> lane) & 1 == 1) {
                    let next = next_bits
                        .iter()
                        .enumerate()
                        .filter(|(_, bits)| (*bits >> lane) & 1 == 1)
                        .fold(0u64, |next, (i, _)| next | 1 << i);
                    let successor = match self.index.get(&next) {
                        Some(&i) => i,
                        None if self.states.len() >= self.max_states => {
                            if target.is_none() {
                                return End::Incomplete;
                            }
                            capped = true;
                            break;
                        }
                        None => {
                            let i = self.states.len() as u32;
                            self.states.push(next);
                            self.index.insert(next, i);
                            self.preds.push((current as u32, valuation(high, lane)));
                            i
                        }
                    };
                    if target.is_none() && !succs.contains(&successor) {
                        succs.push(successor);
                    }
                }
            }
            if target.is_none() {
                self.succs.push(succs);
            }
            current += 1;
        }
        if capped {
            End::Incomplete
        } else {
            End::Complete
        }
    }

    /// Loads one packed latch state and the 64 input combinations of input
    /// word `high` into `eval` and settles it: every latch is 0 or
    /// all-ones, the low six inputs take `LANE_MASKS` (so the lanes hold
    /// all 64 combinations of them), and the rest take the bits of `high`.
    fn evaluate(&self, eval: &mut Evaluator<LaneWord>, state: u64, high: u64) {
        for (i, &node) in self.latch_nodes.iter().enumerate() {
            eval.set(node, LaneWord::splat((state >> i) & 1 == 1));
        }
        for (i, &node) in self.input_nodes.iter().enumerate() {
            let word = match LANE_MASKS.get(i) {
                Some(&lanes) => lanes,
                None => LaneWord::splat((high >> (i - LANE_MASKS.len())) & 1 == 1),
            };
            eval.set(node, word);
        }
        eval.settle();
    }

    /// Iterative Tarjan SCC over the subgraph induced by `in_sub`.
    fn tarjan_sccs(&self, in_sub: &[bool]) -> Vec<Vec<u32>> {
        let n = self.states.len();
        let mut index = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut sccs = Vec::new();
        let mut counter = 0u32;

        // Explicit DFS stack of (node, edge cursor).
        for start in 0..n {
            if !in_sub[start] || index[start] != u32::MAX {
                continue;
            }
            let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
            index[start] = counter;
            low[start] = counter;
            counter += 1;
            stack.push(start as u32);
            on_stack[start] = true;

            while let Some(&mut (node, ref mut cursor)) = dfs.last_mut() {
                let succs = &self.succs[node];
                if *cursor < succs.len() {
                    let next = succs[*cursor] as usize;
                    *cursor += 1;
                    if !in_sub[next] {
                        continue;
                    }
                    if index[next] == u32::MAX {
                        index[next] = counter;
                        low[next] = counter;
                        counter += 1;
                        stack.push(next as u32);
                        on_stack[next] = true;
                        dfs.push((next, 0));
                    } else if on_stack[next] {
                        low[node] = low[node].min(index[next]);
                    }
                } else {
                    dfs.pop();
                    if let Some(&mut (parent, _)) = dfs.last_mut() {
                        low[parent] = low[parent].min(low[node]);
                    }
                    if low[node] == index[node] {
                        let mut component = Vec::new();
                        loop {
                            let v = stack.pop().expect("scc stack");
                            on_stack[v as usize] = false;
                            component.push(v);
                            if v as usize == node {
                                break;
                            }
                        }
                        sccs.push(component);
                    }
                }
            }
        }
        sccs
    }

    /// The state indices on the BFS path from the initial state to
    /// `target`, following predecessor pointers.
    fn path(&self, target: u32) -> Vec<u32> {
        let mut path = vec![target];
        let mut cur = target;
        while cur != 0 {
            cur = self.preds[cur as usize].0;
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Reconstructs the stem of a liveness lasso, from the initial state to
    /// `target`, with all inputs low in the last cycle.  Unlike the traces of
    /// [`reach`] it is not replayed: those inputs need not satisfy the
    /// constraints.
    fn stem(&self, target: u32) -> Trace {
        let path = self.path(target);
        let cycles = path.len();
        let aig = &self.model.aig;
        let mut trace = Trace::new(cycles);
        for (cycle, &state_idx) in path.iter().enumerate() {
            let state = self.states[state_idx as usize];
            for (i, &node) in self.latch_nodes.iter().enumerate() {
                let name = aig
                    .name_of(node)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("latch{i}"));
                trace.record(cycle, &name, (state >> i) & 1 == 1, false);
            }
            // Inputs: the valuation used to reach the *next* state on the
            // path (none after the last cycle).
            let input = match path.get(cycle + 1) {
                Some(&next) => self.preds[next as usize].1,
                None => 0,
            };
            for (i, &node) in self.input_nodes.iter().enumerate() {
                let name = aig
                    .name_of(node)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("input{i}"));
                trace.record(cycle, &name, (input >> i) & 1 == 1, true);
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;
    use crate::model::{BadProperty, ResponseProperty};

    /// An unbudgeted search with the default limits.
    fn search(model: &Model, target: Lit) -> ExplicitResult {
        reach(
            model,
            target,
            &ExplicitOptions::default(),
            &Interrupt::none(),
        )
    }

    /// At most `max_states` states.
    fn capped(max_states: usize) -> ExplicitOptions {
        ExplicitOptions {
            max_states,
            ..ExplicitOptions::default()
        }
    }

    /// 3-bit saturating counter with an enable input.
    fn counter_model() -> (Model, Vec<Lit>, Lit) {
        let mut aig = Aig::new();
        let en = aig.add_input("en");
        let bits: Vec<Lit> = (0..3)
            .map(|i| aig.add_latch(format!("c{i}"), false))
            .collect();
        let all_ones = aig.and_many(&bits);
        let b0 = bits[0];
        let b1 = bits[1];
        let b2 = bits[2];
        let n0 = aig.xor(b0, Lit::TRUE);
        let c0 = b0;
        let n1 = aig.xor(b1, c0);
        let c1 = aig.and(b1, c0);
        let n2 = aig.xor(b2, c1);
        let stay = all_ones;
        let h0 = aig.mux(stay, b0, n0);
        let h1 = aig.mux(stay, b1, n1);
        let h2 = aig.mux(stay, b2, n2);
        let g0 = aig.mux(en, h0, b0);
        let g1 = aig.mux(en, h1, b1);
        let g2 = aig.mux(en, h2, b2);
        aig.set_latch_next(b0, g0);
        aig.set_latch_next(b1, g1);
        aig.set_latch_next(b2, g2);
        (Model::new(aig), bits, en)
    }

    /// The counter value 5 (`c2 & !c1 & c0`).
    fn five(model: &mut Model, bits: &[Lit]) -> Lit {
        let aig = &mut model.aig;
        let t = aig.and(bits[0], bits[2]);
        aig.and(t, bits[1].invert())
    }

    #[test]
    fn reachable_states_enumerated() {
        // The counter visits exactly 8 states: a complete search fits in 8
        // and not in 7.
        let (model, _, _) = counter_model();
        let none = Interrupt::none();
        assert_eq!(
            reach(&model, Lit::FALSE, &capped(8), &none),
            ExplicitResult::Proven
        );
        assert_eq!(
            reach(&model, Lit::FALSE, &capped(7), &none),
            ExplicitResult::Exceeded
        );
    }

    #[test]
    fn safety_violation_found_with_trace() {
        let (mut model, bits, _) = counter_model();
        let bad = five(&mut model, &bits);
        model.bads.push(BadProperty {
            name: "reaches5".into(),
            lit: bad,
        });
        match search(&model, bad) {
            ExplicitResult::Violated(trace) => {
                // Five increments: a shortest trace has six cycles.
                assert_eq!(trace.len(), 6);
                assert_eq!(trace.value(trace.len() - 1, "c0"), Some(true));
                assert_eq!(trace.value(trace.len() - 1, "c2"), Some(true));
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn unreachable_bad_is_proven() {
        let (model, _, _) = counter_model();
        assert_eq!(search(&model, Lit::FALSE), ExplicitResult::Proven);
    }

    #[test]
    fn constraints_prune_reachable_space() {
        let (mut model, bits, en) = counter_model();
        // With the enable tied low the counter never moves: one state.
        model.constraints.push(en.invert());
        let bad = {
            let aig = &mut model.aig;
            aig.or_many(&bits)
        };
        let none = Interrupt::none();
        assert_eq!(
            reach(&model, bad, &capped(1), &none),
            ExplicitResult::Proven
        );
    }

    #[test]
    fn states_discovered_before_the_cap_are_still_tested() {
        // Two latches copy two inputs.  Expanding the initial state
        // discovers `a` alone, then hits the cap of two states before
        // `b` alone or both: the discovered state still holds a hit.
        let mut aig = Aig::new();
        let x = aig.add_input("x");
        let y = aig.add_input("y");
        let a = aig.add_latch("a", false);
        let b = aig.add_latch("b", false);
        aig.set_latch_next(a, x);
        aig.set_latch_next(b, y);
        let a_alone = aig.and(a, b.invert());
        let both = aig.and(a, b);
        let model = Model::new(aig);
        let none = Interrupt::none();
        match reach(&model, a_alone, &capped(2), &none) {
            ExplicitResult::Violated(trace) => assert_eq!(trace.len(), 2),
            other => panic!("expected the discovered hit, got {other:?}"),
        }
        assert_eq!(
            reach(&model, both, &capped(2), &none),
            ExplicitResult::Exceeded
        );
    }

    #[test]
    fn a_step_budget_stops_the_search_one_state_at_a_time() {
        // The hit sits in the sixth state: the search charges one step per
        // state, and a budget of n allows n - 1 steps.
        let (mut model, bits, _) = counter_model();
        let bad = five(&mut model, &bits);
        let options = ExplicitOptions::default();
        let budget = |steps| Interrupt::new(None, Some(steps));
        assert!(matches!(
            reach(&model, bad, &options, &budget(7)),
            ExplicitResult::Violated(_)
        ));
        assert_eq!(
            reach(&model, bad, &options, &budget(6)),
            ExplicitResult::Exceeded
        );
    }

    #[test]
    fn liveness_with_and_without_fairness() {
        // busy is set by req and cleared by gnt.
        let mut aig = Aig::new();
        let req = aig.add_input("req");
        let gnt = aig.add_input("gnt");
        let busy = aig.add_latch("busy", false);
        let raised = aig.or(busy, req);
        let next = aig.and(raised, gnt.invert());
        aig.set_latch_next(busy, next);
        let mut model = Model::new(aig);
        model.liveness.push(ResponseProperty {
            name: "busy_clears".into(),
            trigger: busy,
            target: busy.invert(),
        });

        // Without fairness: the environment can withhold the grant forever.
        let (options, none) = (ExplicitOptions::default(), Interrupt::none());
        match liveness(&model, 0, &options, &none) {
            ExplicitResult::Violated(trace) => assert!(!trace.is_empty()),
            other => panic!("expected violation, got {other:?}"),
        }

        // With the fairness assumption "a pending request is eventually
        // granted" the property holds.
        model.fairness.push(ResponseProperty {
            name: "gnt_fair".into(),
            trigger: busy,
            target: gnt,
        });
        assert_eq!(liveness(&model, 0, &options, &none), ExplicitResult::Proven);
    }

    #[test]
    fn too_many_inputs_is_rejected() {
        let mut aig = Aig::new();
        for i in 0..25 {
            let _ = aig.add_input(format!("i{i}"));
        }
        let model = Model::new(aig);
        let options = ExplicitOptions {
            max_inputs: 20,
            ..ExplicitOptions::default()
        };
        let none = Interrupt::none();
        assert_eq!(
            reach(&model, Lit::TRUE, &options, &none),
            ExplicitResult::Exceeded
        );
    }
}
