//! Exact explicit-state engine for small designs.
//!
//! Bounded model checking finds short counterexamples and k-induction closes
//! many proofs, but properties whose proof needs reachability information
//! (e.g. "a response implies the outstanding counter is non-zero") defeat
//! plain induction.  For the design sizes of the evaluation corpus a full
//! reachable-state exploration is cheap, so this module provides an exact
//! fallback:
//!
//! * **safety / cover**: enumerate every reachable state (under the
//!   invariant constraints) and test the bad/cover literal for every input
//!   valuation — 64 input valuations are evaluated at once with bit-parallel
//!   simulation of the AIG.  A hit's trace is replayed on the explored
//!   model ([`crate::psim::replay`]) from the inputs along the
//!   breadth-first path to it;
//! * **liveness under fairness**: add the pending-obligation monitors to the
//!   state, build the reachable transition graph, and search for a strongly
//!   connected component in which the obligation stays pending while every
//!   assumed fairness is discharged — the exact automata-theoretic criterion
//!   for a counterexample lasso.

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
    /// The exploration exceeded its limits and produced no verdict.
    Exceeded,
}

/// The reachable-state graph of a [`Model`].
#[derive(Debug)]
pub struct ExplicitEngine {
    /// The explored model; counterexamples replay on it.
    model: Model,
    latch_nodes: Vec<usize>,
    input_nodes: Vec<usize>,
    options: ExplicitOptions,
    /// Packed latch valuation per state.
    states: Vec<u64>,
    index: HashMap<u64, u32>,
    /// Predecessor of each state (state index, input valuation); the initial
    /// state points to itself.
    preds: Vec<(u32, u64)>,
    /// Deduplicated successors per state.
    succs: Vec<Vec<u32>>,
    complete: bool,
    /// The exploration was preempted by its interrupt handle (implies
    /// `!complete`); callers must not cache or reuse the truncated graph.
    interrupted: bool,
}

impl ExplicitEngine {
    /// Builds the engine and explores the reachable state space of `model`.
    ///
    /// Returns `None` when the model is outside the engine's limits (too many
    /// latches or inputs).
    ///
    /// The [`Interrupt`] handle is polled once per frontier state.  A
    /// preempted engine reports [`ExplicitEngine::was_interrupted`] and is
    /// never complete, so every query on it answers
    /// [`ExplicitResult::Exceeded`] at worst — the truncated graph can still
    /// witness violations it already found.  Callers without a budget pass
    /// [`Interrupt::none`].
    pub fn explore_budgeted(
        model: &Model,
        options: &ExplicitOptions,
        interrupt: &Interrupt,
    ) -> Option<ExplicitEngine> {
        let latch_nodes: Vec<usize> = model.aig.latches().iter().map(|l| l.node).collect();
        let input_nodes: Vec<usize> = model.aig.inputs().to_vec();
        if latch_nodes.len() > 63 || input_nodes.len() > options.max_inputs {
            return None;
        }
        let _span = crate::telemetry::span("explicit.explore", "");
        let mut engine = ExplicitEngine {
            model: model.clone(),
            latch_nodes,
            input_nodes,
            options: *options,
            states: Vec::new(),
            index: HashMap::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            complete: false,
            interrupted: false,
        };
        engine.run(interrupt);
        crate::telemetry::count("explicit.states", engine.states.len() as u64);
        Some(engine)
    }

    fn initial_state(&self) -> u64 {
        let mut state = 0u64;
        for (i, latch) in self.model.aig.latches().iter().enumerate() {
            if latch.init {
                state |= 1 << i;
            }
        }
        state
    }

    fn num_input_words(&self) -> u64 {
        let extra = self.input_nodes.len().saturating_sub(6) as u32;
        1u64 << extra
    }

    fn lanes_in_use(&self) -> u32 {
        let low = self.input_nodes.len().min(6) as u32;
        1u32 << low
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

    /// Lanes where every invariant constraint holds.
    fn constraints_ok(&self, eval: &Evaluator<LaneWord>) -> LaneWord {
        self.model
            .constraints
            .iter()
            .fold(ALL_LANES, |acc, &c| acc & eval.get(c))
    }

    fn run(&mut self, interrupt: &Interrupt) {
        let init = self.initial_state();
        self.states.push(init);
        self.index.insert(init, 0);
        self.preds.push((0, 0));
        self.succs.push(Vec::new());

        let mut eval = Evaluator::new(&self.model.aig);
        let mut frontier = 0usize;
        while frontier < self.states.len() {
            #[cfg(any(test, feature = "fault-injection"))]
            interrupt.fault("explicit.step");
            if interrupt.charge(1).is_some() || interrupt.poll().is_some() {
                self.complete = false;
                self.interrupted = true;
                return;
            }
            let state = self.states[frontier];
            let mut local_succs: Vec<u32> = Vec::new();
            for high in 0..self.num_input_words() {
                self.evaluate(&mut eval, state, high);
                let ok = self.constraints_ok(&eval);
                if ok == 0 {
                    continue;
                }
                // Next-state bits per lane.
                let next_bits: Vec<u64> = self
                    .model
                    .aig
                    .latches()
                    .iter()
                    .map(|l| eval.get(l.next))
                    .collect();
                for lane in 0..self.lanes_in_use() {
                    if (ok >> lane) & 1 == 0 {
                        continue;
                    }
                    let mut next = 0u64;
                    for (i, bits) in next_bits.iter().enumerate() {
                        if (bits >> lane) & 1 == 1 {
                            next |= 1 << i;
                        }
                    }
                    let idx = match self.index.get(&next) {
                        Some(&i) => i,
                        None => {
                            if self.states.len() >= self.options.max_states {
                                self.complete = false;
                                return;
                            }
                            let i = self.states.len() as u32;
                            self.states.push(next);
                            self.index.insert(next, i);
                            self.preds
                                .push((frontier as u32, self.input_valuation(high, lane)));
                            self.succs.push(Vec::new());
                            i
                        }
                    };
                    if !local_succs.contains(&idx) {
                        local_succs.push(idx);
                    }
                }
            }
            self.succs[frontier] = local_succs;
            frontier += 1;
        }
        self.complete = true;
    }

    fn input_valuation(&self, high: u64, lane: u32) -> u64 {
        (high << 6) | u64::from(lane)
    }

    /// Number of reachable states enumerated.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// `true` when the whole reachable state space fit within the limits.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// `true` when the exploration was preempted by its interrupt handle
    /// before exhausting the reachable state space.  Such an engine must
    /// not be memoized: a later property would inherit its truncation.
    pub fn was_interrupted(&self) -> bool {
        self.interrupted
    }

    /// Checks a safety property: can `bad` be true in any reachable state
    /// under any constraint-satisfying input valuation?
    pub fn check_bad(&self, bad: Lit) -> ExplicitResult {
        self.search_condition(bad)
    }

    /// Checks a cover property: can `target` be reached?
    ///
    /// A reachable target yields [`ExplicitResult::Violated`] with the
    /// witness trace (the caller interprets it as "covered").
    pub fn check_cover(&self, target: Lit) -> ExplicitResult {
        self.search_condition(target)
    }

    /// Searches the reachable states for one where `condition` holds under
    /// some constraint-satisfying input valuation; the trace to it is
    /// replayed on the explored model from the inputs along the BFS path.
    fn search_condition(&self, condition: Lit) -> ExplicitResult {
        let mut eval = Evaluator::new(&self.model.aig);
        for (idx, &state) in self.states.iter().enumerate() {
            for high in 0..self.num_input_words() {
                self.evaluate(&mut eval, state, high);
                let hit = self.constraints_ok(&eval) & eval.get(condition) & self.lane_mask();
                if hit != 0 {
                    let path = self.path(idx as u32);
                    let inputs: Vec<u64> = path[1..]
                        .iter()
                        .map(|&s| self.preds[s as usize].1)
                        .chain([self.input_valuation(high, hit.trailing_zeros())])
                        .collect();
                    let trace = replay(&self.model, condition, inputs.len(), |cycle, i| {
                        (inputs[cycle] >> i) & 1 == 1
                    })
                    .expect("an explicit counterexample replays on its model");
                    return ExplicitResult::Violated(trace);
                }
            }
        }
        if self.complete {
            ExplicitResult::Proven
        } else {
            ExplicitResult::Exceeded
        }
    }

    fn lane_mask(&self) -> u64 {
        let lanes = self.lanes_in_use();
        if lanes >= 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        }
    }

    /// Checks a liveness property given the state-bit positions of its
    /// pending monitor and of the assumed-fairness pending monitors.
    ///
    /// `assert_pending` and each element of `fair_pendings` must be latch
    /// literals of the model (monitor registers), so their value is part of
    /// the packed state.
    pub fn check_liveness(&self, assert_pending: Lit, fair_pendings: &[Lit]) -> ExplicitResult {
        if !self.complete {
            return ExplicitResult::Exceeded;
        }
        let pending_bit = match self.latch_bit(assert_pending) {
            Some(b) => b,
            None => return ExplicitResult::Exceeded,
        };
        let fair_bits: Vec<usize> = match fair_pendings
            .iter()
            .map(|&l| self.latch_bit(l))
            .collect::<Option<Vec<_>>>()
        {
            Some(v) => v,
            None => return ExplicitResult::Exceeded,
        };

        // Restrict to states where the obligation is pending and find the
        // strongly connected components of that subgraph.
        let in_sub: Vec<bool> = self
            .states
            .iter()
            .map(|&s| (s >> pending_bit) & 1 == 1)
            .collect();
        let sccs = self.tarjan_sccs(&in_sub);
        for scc in &sccs {
            // The component must contain a cycle: more than one state, or a
            // self-loop.
            let has_cycle = scc.len() > 1 || self.succs[scc[0] as usize].contains(&scc[0]);
            if !has_cycle {
                continue;
            }
            // Every assumed fairness must be discharged somewhere in the
            // component (its pending bit low in at least one state).
            let all_fair = fair_bits.iter().all(|&bit| {
                scc.iter()
                    .any(|&s| (self.states[s as usize] >> bit) & 1 == 0)
            });
            if all_fair {
                let trace = self.build_trace(scc[0]);
                return ExplicitResult::Violated(trace);
            }
        }
        ExplicitResult::Proven
    }

    fn latch_bit(&self, lit: Lit) -> Option<usize> {
        if lit.is_inverted() {
            return None;
        }
        self.latch_nodes.iter().position(|&n| n == lit.node())
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
    /// `target`, with all inputs low in the last cycle.  Unlike the safety
    /// and cover traces it is not replayed: those inputs need not satisfy
    /// the constraints.
    fn build_trace(&self, target: u32) -> Trace {
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

    /// An unbudgeted exploration.
    fn explore(model: &Model, options: &ExplicitOptions) -> Option<ExplicitEngine> {
        ExplicitEngine::explore_budgeted(model, options, &Interrupt::none())
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

    #[test]
    fn reachable_states_enumerated() {
        let (model, _, _) = counter_model();
        let engine = explore(&model, &ExplicitOptions::default()).unwrap();
        assert!(engine.is_complete());
        // The counter visits exactly 8 states.
        assert_eq!(engine.num_states(), 8);
    }

    #[test]
    fn safety_violation_found_with_trace() {
        let (mut model, bits, _) = counter_model();
        let bad = {
            let aig = &mut model.aig;
            let t = aig.and(bits[0], bits[2]);
            aig.and(t, bits[1].invert())
        }; // value == 5
        model.bads.push(BadProperty {
            name: "reaches5".into(),
            lit: bad,
        });
        let engine = explore(&model, &ExplicitOptions::default()).unwrap();
        match engine.check_bad(bad) {
            ExplicitResult::Violated(trace) => {
                assert!(trace.len() >= 6);
                assert_eq!(trace.value(trace.len() - 1, "c0"), Some(true));
                assert_eq!(trace.value(trace.len() - 1, "c2"), Some(true));
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn unreachable_bad_is_proven() {
        let (model, bits, _) = counter_model();
        // The counter saturates: "value decreased below 7 after reaching 7"
        // needs a history register, so instead prove that the carry chain
        // never produces value 6 -> 5 style jumps: simply check a literal
        // that is structurally false.
        let _ = bits;
        let engine = explore(&model, &ExplicitOptions::default()).unwrap();
        assert_eq!(engine.check_bad(Lit::FALSE), ExplicitResult::Proven);
    }

    #[test]
    fn constraints_prune_reachable_space() {
        let (mut model, bits, en) = counter_model();
        // With the enable tied low the counter never moves.
        model.constraints.push(en.invert());
        let bad = {
            let aig = &mut model.aig;
            aig.or_many(&bits)
        };
        let engine = explore(&model, &ExplicitOptions::default()).unwrap();
        assert_eq!(engine.num_states(), 1);
        assert_eq!(engine.check_bad(bad), ExplicitResult::Proven);
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
        let (augmented, asserts, fairs) = model.with_pending_monitors();
        let engine = explore(&augmented, &ExplicitOptions::default()).unwrap();
        match engine.check_liveness(asserts[0], &fairs) {
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
        let (augmented, asserts, fairs) = model.with_pending_monitors();
        let engine = explore(&augmented, &ExplicitOptions::default()).unwrap();
        assert_eq!(
            engine.check_liveness(asserts[0], &fairs),
            ExplicitResult::Proven
        );
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
        assert!(explore(&model, &options).is_none());
    }
}
