//! Exact explicit-state engine for small designs.
//!
//! Bounded model checking finds short counterexamples and k-induction closes
//! many proofs, but properties whose proof needs reachability information
//! (e.g. "a response implies the outstanding counter is non-zero") defeat
//! plain induction.  For the design sizes of the evaluation corpus a full
//! reachable-state exploration is cheap, so this module provides an exact
//! cascade stage and the first half of counterexample minimization.  Each
//! query is one breadth-first search of its own; nothing outlives the call:
//!
//! * [`reach`] (safety / cover) expands the reachable states (under the
//!   invariant constraints) in discovery order, tests the target literal in
//!   every state it expands for every input valuation, and stops at the
//!   first hit.  States are discovered in order of depth, so the first hit
//!   is a shallowest one; its trace is replayed on the model
//!   ([`crate::psim::replay`]) from the inputs along the breadth-first path
//!   to it;
//! * [`shortest`] is the same search under a budget of evaluated input
//!   words, which the checker runs to minimize every fuzz and PDR
//!   counterexample: a hit is the trace [`reach`] would return, and a search
//!   out of budget reports the depth below which no trace exists, so the
//!   SAT ladder can start there;
//! * [`liveness`] (liveness under fairness) explores the model with its
//!   pending-obligation monitors, so the obligations are part of every
//!   state, builds the reachable transition graph, and searches for a
//!   strongly connected component in which the obligation stays pending
//!   while every assumed fairness is discharged — the exact
//!   automata-theoretic criterion for a counterexample lasso.  Its lasso,
//!   a stem and a loop through that component with the inputs the search
//!   found for every edge, is confirmed by the lasso replay
//!   ([`crate::liveness::replay`]);
//! * [`lasso_free`] runs [`liveness`]'s fair-component test after each
//!   breadth-first layer, under a word budget and only as deep as the lasso
//!   search looks, which runs it first: when no fair cycle lies within that
//!   depth, the SAT search is skipped.
//!
//! [`reach`] and [`liveness`] answer with the one [`Verdict`]: a trace or
//! lasso, or [`Certificate::Reachability`] once every reachable state was
//! explored; `None` when a limit or the interrupt stops the search first.
//! [`shortest`] keeps its own answer, [`Shortest`], because minimization
//! only asks for a trace or a depth, and [`lasso_free`] answers whether the
//! lasso search may be skipped.
//!
//! The kernel expands one state at a time.  It loads the state's latch
//! values once and settles the AIG once per *input word*: 64 valuations at
//! once, the six lowest inputs enumerated across the 64 lanes of
//! bit-parallel simulation and the rest fixed by the word.  A 64×64 bit
//! transpose turns the per-latch next-state words into one packed successor
//! per lane, repeated successors of the state are dropped before the
//! state-table lookup, and the table hashes a packed state with one
//! multiply.  None of this changes the discovery order: the successors of a
//! state are still visited by input word, then lane.

use crate::aig::Lit;
use crate::interrupt::Interrupt;
use crate::liveness::Monitors;
use crate::model::Model;
use crate::psim::{replay, Evaluator, LaneWord, Lanes, ALL_LANES, LANE_MASKS};
use crate::trace::Trace;
use crate::verdict::{Certificate, Verdict};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

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

/// Searches the reachable states of `model` for one where `target` holds
/// under some constraint-satisfying input valuation.
///
/// A hit yields [`Verdict::Reached`] with a shortest trace to it, replayed
/// on `model` (a cover's caller reads it as "covered"); a complete search
/// without one is [`Verdict::Unreachable`] with
/// [`Certificate::Reachability`].  Once `options.max_states` stops the
/// expansion, every state already discovered is still tested, without
/// being expanded, before the search answers `None`.  A model with more
/// than 63 latches or `options.max_inputs` inputs is `None` at once.
///
/// The [`Interrupt`] handle is charged one step and polled once per state;
/// when it fires the search answers `None`, while a hit found before that
/// stands.  Callers without a budget pass [`Interrupt::none`].
pub fn reach(
    model: &Model,
    target: Lit,
    options: &ExplicitOptions,
    interrupt: &Interrupt,
) -> Option<Verdict> {
    let mut search = Search::new(model, options)?;
    match search.explore(Some(target), interrupt) {
        End::Hit { state, input } => Some(Verdict::Reached(search.trace(target, state, input))),
        End::Complete => Some(Verdict::Unreachable(Certificate::Reachability)),
        End::Incomplete { .. } => None,
    }
}

/// How a [`shortest`] search ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Shortest {
    /// A shortest trace reaching the target, replayed on the model.
    Trace(Trace),
    /// The search ended without a hit: no trace reaches the target at a
    /// depth below this one, that is, in fewer than `depth + 1` cycles.
    NotBefore(usize),
}

/// The shortest trace reaching `target` on `model`, by [`reach`]'s search
/// under [`ExplicitOptions::default`] (the same order, so a hit is the
/// trace [`reach`] returns), stopped once it has evaluated `max_words`
/// input words.
///
/// Expanding a state evaluates 2^(inputs − 6) words, one when the model
/// has six inputs or fewer.  A search that stops before a hit, at the word
/// budget, the state limit or the [`Interrupt`], answers
/// [`Shortest::NotBefore`] with the shallowest depth it did not test
/// completely.  A model outside the default limits answers `NotBefore(0)`
/// at once.  The search opens no telemetry span and counts no states: its
/// caller's span takes the time.
pub fn shortest(model: &Model, target: Lit, max_words: u64, interrupt: &Interrupt) -> Shortest {
    let Some(mut search) = Search::new(model, &ExplicitOptions::default()) else {
        return Shortest::NotBefore(0);
    };
    match search.expand(Some(target), max_words, interrupt, |_, _| true) {
        End::Hit { state, input } => Shortest::Trace(search.trace(target, state, input)),
        End::Incomplete { depth } => Shortest::NotBefore(depth),
        // Every reachable state was tested: the target is unreachable, and
        // in particular not reached up to the deepest state.
        End::Complete => {
            let deepest = search.states.len() as u32 - 1;
            Shortest::NotBefore(search.path(deepest).len())
        }
    }
}

/// Checks a liveness property under every fairness assumption on its
/// monitored `model` ([`crate::liveness::monitored`]), whose `monitors`
/// make the obligations part of every state.
///
/// The search explores `model` completely and then looks for a reachable
/// cycle on which the obligation stays pending while every fairness monitor
/// is low somewhere: a strongly connected component of the pending states
/// with such a cycle.  It yields [`Verdict::Reached`] with a lasso: the
/// breadth-first stem to the component's earliest-discovered state, then a
/// loop inside the component from there through a state where each
/// fairness monitor is low and back, every edge with the input valuation
/// the search found for it.  The lasso is built by
/// [`crate::liveness::replay`], which confirms it.  Without such a
/// component the answer is [`Verdict::Unreachable`] with
/// [`Certificate::Reachability`].  An incomplete exploration (limits as for
/// [`reach`], or the interrupt) is `None`.
pub fn liveness(
    model: &Model,
    monitors: &Monitors,
    options: &ExplicitOptions,
    interrupt: &Interrupt,
) -> Option<Verdict> {
    let mut search = Search::new(model, options)?;
    if !matches!(search.explore(None, interrupt), End::Complete) {
        return None;
    }
    Some(match search.fair_component(monitors) {
        Some(scc) => Verdict::Reached(search.lasso(&scc, monitors)),
        None => Verdict::Unreachable(Certificate::Reachability),
    })
}

/// Whether `model` (monitored, with `monitors`) has no fair lasso whose
/// loop closes at a depth of at most `max_depth`: none of the lassos
/// [`crate::liveness::lasso_search`] looks for.
///
/// The search expands the reachable states layer by layer under
/// [`ExplicitOptions::default`], recording their successors, and after each
/// layer runs [`liveness`]'s test for a fair component on the states
/// expanded so far.  A lasso that closes at depth d runs through states
/// within d − 1 steps of reset, and its loop is a cycle of pending states
/// on which every fairness monitor is low somewhere.  So once every state
/// within `max_depth − 1` steps, or every reachable state, is expanded
/// without a fair component, no such lasso exists, and the answer is
/// `true`.  The answer is `false` at the first fair component, for a model
/// outside the default limits, once `max_words` input words have been
/// evaluated (counted as [`shortest`] counts them), and once the
/// [`Interrupt`] has fired.  Like [`shortest`], the search opens no
/// telemetry span and counts no states.
pub fn lasso_free(
    model: &Model,
    monitors: &Monitors,
    max_depth: usize,
    max_words: u64,
    interrupt: &Interrupt,
) -> bool {
    let Some(mut search) = Search::new(model, &ExplicitOptions::default()) else {
        return false;
    };
    let mut free = false;
    let end = search.expand(None, max_words, interrupt, |search, depth| {
        // Every lasso closing at depth + 1 or less has its loop among the
        // states expanded so far.
        let fair = search.fair_component(monitors).is_some();
        free = !fair && depth + 1 >= max_depth;
        !fair && !free
    });
    match end {
        End::Complete => search.fair_component(monitors).is_none(),
        End::Hit { .. } | End::Incomplete { .. } => free,
    }
}

/// The input valuation that lane `lane` of input word `high` evaluates
/// (see `Search::load_word`): bit `i` is the value of input `i`.
fn valuation(high: u64, lane: u32) -> u64 {
    (high << LANE_MASKS.len()) | u64::from(lane)
}

/// Hashes a packed state with one multiply by the 64-bit golden ratio,
/// folding the high half of the product into the low bits the table
/// indexes by.  The keys are latch valuations the search itself produces,
/// so SipHash's defence against chosen keys buys nothing here.
#[derive(Default)]
struct PackedHasher(u64);

impl Hasher for PackedHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes
            .iter()
            .for_each(|&byte| self.write_u64(u64::from(byte)));
    }

    fn write_u64(&mut self, word: u64) {
        let product = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = product ^ (product >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type PackedHash = BuildHasherDefault<PackedHasher>;

/// Transposes a 64×64 bit matrix in place: bit `j` of word `i` moves to bit
/// `i` of word `j`.  For w = 32, 16, …, 1, the round of width w swaps the
/// two off-diagonal w×w blocks inside every aligned 2w×2w block.
fn transpose(rows: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while width != 0 {
        let mut k = 0;
        while k < 64 {
            let swap = ((rows[k] >> width) ^ rows[k + width]) & mask;
            rows[k] ^= swap << width;
            rows[k + width] ^= swap;
            k = (k + width + 1) & !width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// How a search ended.
enum End {
    /// The target holds in state `state` under the input valuation `input`.
    Hit { state: u32, input: u64 },
    /// Every reachable state was expanded.
    Complete,
    /// The state cap, the word budget or the interrupt stopped the search
    /// first; no state at a depth below `depth` holds a hit.
    Incomplete { depth: usize },
}

/// One breadth-first search over the reachable states of a model.
struct Search<'m> {
    model: &'m Model,
    latch_nodes: Vec<usize>,
    input_nodes: Vec<usize>,
    max_states: usize,
    /// Packed latch valuation per state, in discovery order.
    states: Vec<u64>,
    index: HashMap<u64, u32, PackedHash>,
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
            index: [(init, 0)].into_iter().collect(),
            preds: vec![(0, 0)],
            succs: Vec::new(),
        })
    }

    /// An unbudgeted [`Search::expand`] inside the `explicit.explore` span,
    /// counting the states it discovered.
    fn explore(&mut self, target: Option<Lit>, interrupt: &Interrupt) -> End {
        let _span = crate::telemetry::span("explicit.explore", "");
        let end = self.expand(target, u64::MAX, interrupt, |_, _| true);
        crate::telemetry::count("explicit.states", self.states.len() as u64);
        end
    }

    /// Expands the states in discovery order, each only while fewer than
    /// `max_words` input words have been evaluated.  With a `target`, tests
    /// it in each state before expanding that state and stops at the first
    /// hit: the lowest state index, then input word, then lane.  Without
    /// one, records each expanded state's successors.  Once every state at
    /// some depth d is expanded and a deeper one is next, `layer(self, d)`
    /// says whether to go on; `false` ends the search there, incomplete at
    /// depth d + 1.
    fn expand(
        &mut self,
        target: Option<Lit>,
        max_words: u64,
        interrupt: &Interrupt,
        mut layer: impl FnMut(&Self, usize) -> bool,
    ) -> End {
        let model = self.model;
        let (mut eval, lane_mask, words) = self.evaluator();
        let mut spent = 0u64;
        // The depth of `states[current]`, and the index of the first state
        // deeper than it.
        let (mut depth, mut level_end) = (0, 1);
        // The depth at which the state cap stopped the expansion: the states
        // discovered so far are still tested.
        let mut capped: Option<usize> = None;
        // The successors the current state has produced so far.
        let mut seen: HashSet<u64, PackedHash> = HashSet::default();
        let mut current = 0;
        while current < self.states.len() {
            if current == level_end {
                if !layer(self, depth) {
                    return End::Incomplete { depth: depth + 1 };
                }
                depth += 1;
                level_end = self.states.len();
            }
            #[cfg(any(test, feature = "fault-injection"))]
            interrupt.fault("explicit.step");
            if interrupt.charge(1).is_some() || interrupt.poll().is_some() || spent >= max_words {
                return End::Incomplete { depth };
            }
            spent += words;
            let state = self.states[current];
            self.load_state(&mut eval, state);
            seen.clear();
            let mut succs: Vec<u32> = Vec::new();
            for high in 0..words {
                self.load_word(&mut eval, high);
                eval.settle();
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
                if capped.is_some() || ok == 0 {
                    continue;
                }
                // Word `i` holds latch `i`'s next value per lane; transposed,
                // word `lane` holds lane `lane`'s packed successor.
                let mut next_states = [0u64; 64];
                for (word, latch) in next_states.iter_mut().zip(model.aig.latches()) {
                    *word = eval.get(latch.next);
                }
                transpose(&mut next_states);
                let mut pending = ok;
                while pending != 0 {
                    let lane = pending.trailing_zeros();
                    pending &= pending - 1;
                    let next = next_states[lane as usize];
                    if !seen.insert(next) {
                        continue;
                    }
                    let successor = match self.index.get(&next) {
                        Some(&i) => i,
                        None if self.states.len() >= self.max_states => {
                            if target.is_none() {
                                return End::Incomplete { depth };
                            }
                            capped = Some(depth);
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
                    if target.is_none() {
                        succs.push(successor);
                    }
                }
            }
            if target.is_none() {
                self.succs.push(succs);
            }
            current += 1;
        }
        match capped {
            Some(depth) => End::Incomplete { depth: depth + 1 },
            None => End::Complete,
        }
    }

    /// An evaluator of the model with the low six inputs taking every
    /// combination across the lanes, the same in every input word; the mask
    /// of the lanes in use; and the number of input words per state.
    fn evaluator(&self) -> (Evaluator<LaneWord>, LaneWord, u64) {
        let mut eval = Evaluator::new(&self.model.aig);
        let inputs = self.input_nodes.len();
        let lanes = 1u32 << inputs.min(LANE_MASKS.len());
        let words = 1u64 << inputs.saturating_sub(LANE_MASKS.len());
        for (&node, &mask) in self.input_nodes.iter().zip(&LANE_MASKS) {
            eval.set(node, mask);
        }
        (eval, ALL_LANES >> (64 - lanes), words)
    }

    /// Loads the packed latch valuation `state` into `eval`, each latch 0
    /// or all-ones across the lanes.
    fn load_state(&self, eval: &mut Evaluator<LaneWord>, state: u64) {
        for (i, &node) in self.latch_nodes.iter().enumerate() {
            eval.set(node, LaneWord::splat((state >> i) & 1 == 1));
        }
    }

    /// Loads input word `high` into `eval`: input `6 + i` takes bit `i` of
    /// `high` in every lane (the low six inputs stay on `LANE_MASKS`).
    fn load_word(&self, eval: &mut Evaluator<LaneWord>, high: u64) {
        for (i, &node) in self.input_nodes.iter().enumerate().skip(LANE_MASKS.len()) {
            eval.set(
                node,
                LaneWord::splat((high >> (i - LANE_MASKS.len())) & 1 == 1),
            );
        }
    }

    /// The trace to a hit of `target` in state `state` under the input
    /// valuation `input`, replayed on the model from the inputs along the
    /// breadth-first path.
    fn trace(&self, target: Lit, state: u32, input: u64) -> Trace {
        let inputs: Vec<u64> = self.path(state)[1..]
            .iter()
            .map(|&s| self.preds[s as usize].1)
            .chain([input])
            .collect();
        replay(self.model, target, inputs.len(), |cycle, i| {
            (inputs[cycle] >> i) & 1 == 1
        })
        .expect("an explicit counterexample replays on its model")
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

    /// The bit of the monitor latch `monitor` in a packed state.
    fn bit(&self, monitor: Lit) -> usize {
        self.latch_nodes
            .iter()
            .position(|&n| n == monitor.node())
            .expect("a monitor is a latch")
    }

    /// The first strongly connected component, in Tarjan's order, of the
    /// expanded states where the obligation of `monitors` is pending that
    /// holds a cycle on which every fairness monitor is low somewhere: the
    /// loop of a fair lasso.  States not yet expanded have no recorded
    /// successors, so they are left out.
    fn fair_component(&self, monitors: &Monitors) -> Option<Vec<u32>> {
        let pending = self.bit(monitors.pending);
        let fair_bits: Vec<usize> = monitors.fairness.iter().map(|&l| self.bit(l)).collect();
        let low = |s: u32, bit: usize| (self.states[s as usize] >> bit) & 1 == 0;
        let in_sub: Vec<bool> = (0..self.states.len() as u32)
            .map(|s| (s as usize) < self.succs.len() && !low(s, pending))
            .collect();
        // Every assumed fairness must be discharged somewhere in the
        // component (its monitor low in at least one state).
        let fair = |scc: &[u32]| {
            fair_bits
                .iter()
                .all(|&bit| scc.iter().any(|&s| low(s, bit)))
        };
        self.tarjan_sccs(&in_sub).into_iter().find(|scc| {
            // The component must contain a cycle: more than one state, or a
            // self-loop.
            let has_cycle = scc.len() > 1 || self.succs[scc[0] as usize].contains(&scc[0]);
            has_cycle && fair(scc)
        })
    }

    /// The lasso through the fair component `scc` of the obligation of
    /// `monitors`: the stem to its earliest-discovered state, a loop inside
    /// the component from there through a state where each fairness monitor
    /// is low and back, and, in the last cycle, the inputs of the loop's
    /// first edge again.  Built and confirmed by
    /// [`crate::liveness::replay`].
    fn lasso(&self, scc: &[u32], monitors: &Monitors) -> Trace {
        let mut member = vec![false; self.states.len()];
        scc.iter().for_each(|&s| member[s as usize] = true);
        let entry = *scc.iter().min().expect("a component has a state");
        let mut cycle = vec![entry];
        for bit in monitors.fairness.iter().map(|&l| self.bit(l)) {
            let at = *cycle.last().expect("the loop starts at its entry");
            if (self.states[at as usize] >> bit) & 1 == 1 {
                cycle.extend(self.walk(&member, at, |s| (self.states[s as usize] >> bit) & 1 == 0));
            }
        }
        let at = *cycle.last().expect("the loop starts at its entry");
        cycle.extend(self.walk(&member, at, |s| s == entry));
        let stem = self.path(entry);
        let mut inputs: Vec<u64> = stem[1..]
            .iter()
            .map(|&s| self.preds[s as usize].1)
            .collect();
        inputs.extend(self.edge_inputs(&cycle));
        inputs.push(inputs[stem.len() - 1]);
        crate::liveness::replay(
            self.model,
            monitors,
            stem.len() - 1,
            inputs.len(),
            |c, i| (inputs[c] >> i) & 1 == 1,
        )
        .expect("an explicit lasso replays on its model")
    }

    /// The states of a shortest walk of at least one edge from `from` to a
    /// state satisfying `arrive`, inside the states marked in `member`;
    /// `from` itself is left out.
    fn walk(&self, member: &[bool], from: u32, arrive: impl Fn(u32) -> bool) -> Vec<u32> {
        let mut parent: HashMap<u32, u32> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        while let Some(state) = queue.pop_front() {
            for &next in &self.succs[state as usize] {
                if !member[next as usize] || parent.contains_key(&next) {
                    continue;
                }
                parent.insert(next, state);
                if arrive(next) {
                    let mut walk = vec![next];
                    let mut at = next;
                    while parent[&at] != from {
                        at = parent[&at];
                        walk.push(at);
                    }
                    walk.reverse();
                    return walk;
                }
                queue.push_back(next);
            }
        }
        unreachable!("a strongly connected component connects its states")
    }

    /// The input valuation of each edge of the walk `states`, the first
    /// constraint-satisfying one in the search's order (input word, then
    /// lane).
    fn edge_inputs(&self, states: &[u32]) -> Vec<u64> {
        let model = self.model;
        let (mut eval, lane_mask, words) = self.evaluator();
        states
            .windows(2)
            .map(|edge| {
                let to = self.states[edge[1] as usize];
                self.load_state(&mut eval, self.states[edge[0] as usize]);
                (0..words)
                    .find_map(|high| {
                        self.load_word(&mut eval, high);
                        eval.settle();
                        let mut hits = model
                            .constraints
                            .iter()
                            .fold(lane_mask, |acc, &c| acc & eval.get(c));
                        for (i, latch) in model.aig.latches().iter().enumerate() {
                            let want = LaneWord::splat((to >> i) & 1 == 1);
                            hits &= !(eval.get(latch.next) ^ want);
                        }
                        (hits != 0).then(|| valuation(high, hits.trailing_zeros()))
                    })
                    .expect("an explored edge has an input valuation")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;
    use crate::model::{BadProperty, ResponseProperty};
    use proptest::prelude::*;

    /// A complete search's answer without a hit.
    const PROVEN: Option<Verdict> = Some(Verdict::Unreachable(Certificate::Reachability));

    /// An unbudgeted search with the default limits.
    fn search(model: &Model, target: Lit) -> Option<Verdict> {
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
        assert_eq!(reach(&model, Lit::FALSE, &capped(8), &none), PROVEN);
        assert_eq!(reach(&model, Lit::FALSE, &capped(7), &none), None);
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
            Some(Verdict::Reached(trace)) => {
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
        assert_eq!(search(&model, Lit::FALSE), PROVEN);
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
        assert_eq!(reach(&model, bad, &capped(1), &none), PROVEN);
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
            Some(Verdict::Reached(trace)) => assert_eq!(trace.len(), 2),
            other => panic!("expected the discovered hit, got {other:?}"),
        }
        assert_eq!(reach(&model, both, &capped(2), &none), None);
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
            Some(Verdict::Reached(_))
        ));
        assert_eq!(reach(&model, bad, &options, &budget(6)), None);
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
        // The lasso replays: its last state repeats its loop start's.
        let (options, none) = (ExplicitOptions::default(), Interrupt::none());
        let (monitored, monitors) = crate::liveness::monitored(&model, 0);
        match liveness(&monitored, &monitors, &options, &none) {
            Some(Verdict::Reached(trace)) => {
                let start = trace.loop_start().expect("a lasso");
                let input = |c: usize, i: usize| {
                    let name = monitored.aig.input_name(i);
                    trace.value(c, name).unwrap_or(false)
                };
                let replayed =
                    crate::liveness::replay(&monitored, &monitors, start, trace.len(), input);
                assert_eq!(replayed, Some(trace));
            }
            other => panic!("expected violation, got {other:?}"),
        }

        // With the fairness assumption "a pending request is eventually
        // granted" the property holds.
        model.fairness.push(ResponseProperty {
            name: "gnt_fair".into(),
            trigger: busy,
            target: gnt,
        });
        let (monitored, monitors) = crate::liveness::monitored(&model, 0);
        assert_eq!(liveness(&monitored, &monitors, &options, &none), PROVEN);
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
        assert_eq!(reach(&model, Lit::TRUE, &options, &none), None);
    }

    #[test]
    fn a_word_budget_stops_the_shortest_search_at_the_depth_it_reached() {
        // One input, so one word per state, and the counter's states sit on
        // a line: state n is at depth n, and the hit is in state 5.
        let (mut model, bits, _) = counter_model();
        let bad = five(&mut model, &bits);
        let none = Interrupt::none();
        assert_eq!(shortest(&model, bad, 0, &none), Shortest::NotBefore(0));
        assert_eq!(shortest(&model, bad, 3, &none), Shortest::NotBefore(3));
        assert_eq!(shortest(&model, bad, 5, &none), Shortest::NotBefore(5));
        let Shortest::Trace(trace) = shortest(&model, bad, 6, &none) else {
            panic!("six words test the hit state");
        };
        assert_eq!(trace.len(), 6);
        // An unreachable target is not reached up to the deepest state.
        assert_eq!(
            shortest(&model, Lit::FALSE, u64::MAX, &none),
            Shortest::NotBefore(8)
        );
    }

    #[test]
    fn transpose_moves_bit_j_of_word_i_to_bit_i_of_word_j() {
        let mut rng = Rng(0x0123_4567_89AB_CDEF);
        let rows: [u64; 64] = std::array::from_fn(|_| rng.next());
        let mut columns = rows;
        transpose(&mut columns);
        for (i, row) in rows.iter().enumerate() {
            for (j, column) in columns.iter().enumerate() {
                assert_eq!((column >> i) & 1, (row >> j) & 1, "bit {j} of word {i}");
            }
        }
    }

    /// Deterministic xorshift generator for the random models below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn pick(&mut self, pool: &[Lit]) -> Lit {
            let lit = pool[(self.next() % pool.len() as u64) as usize];
            lit.invert_if(self.next() & 1 == 1)
        }
    }

    /// A random model derived from `seed`: random initial values, a soup of
    /// `gates` random gates over the inputs and latches, random next-state
    /// functions and `constraints` random constraint literals.  Returns it
    /// with a random target, a conjunction so that it is often unreachable.
    fn random_model(
        seed: u64,
        latches: usize,
        inputs: usize,
        gates: usize,
        constraints: usize,
    ) -> (Model, Lit) {
        let mut rng = Rng(seed | 1);
        let mut aig = Aig::new();
        let mut pool: Vec<Lit> = (0..inputs)
            .map(|i| aig.add_input(format!("i{i}")))
            .collect();
        let latches: Vec<Lit> = (0..latches)
            .map(|i| aig.add_latch(format!("l{i}"), rng.next() & 1 == 1))
            .collect();
        pool.extend(&latches);
        for _ in 0..gates {
            let (a, b) = (rng.pick(&pool), rng.pick(&pool));
            let gate = match rng.next() % 3 {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            };
            pool.push(gate);
        }
        for &latch in &latches {
            let next = rng.pick(&pool);
            aig.set_latch_next(latch, next);
        }
        let constraints: Vec<Lit> = (0..constraints).map(|_| rng.pick(&pool)).collect();
        let (a, b) = (rng.pick(&pool), rng.pick(&pool));
        let target = aig.and(a, b);
        let mut model = Model::new(aig);
        model.constraints = constraints;
        (model, target)
    }

    /// What the per-lane reference loop found.
    struct Reference {
        states: Vec<u64>,
        preds: Vec<(u32, u64)>,
        succs: Vec<Vec<u32>>,
        /// The hit, if one ended the search.
        hit: Option<(u32, u64)>,
        /// Whether every reachable state was expanded.
        complete: bool,
    }

    /// The successor loop the transpose kernel replaced, kept as the
    /// reference it must match: every input word evaluated from a fresh
    /// load of the state, one packed successor per lane folded over every
    /// latch, each looked up in a SipHash table, and successor lists
    /// deduplicated by a linear scan.
    fn reference_expand(
        model: &Model,
        options: &ExplicitOptions,
        target: Option<Lit>,
    ) -> Reference {
        let latch_nodes: Vec<usize> = model.aig.latches().iter().map(|l| l.node).collect();
        let input_nodes: Vec<usize> = model.aig.inputs().to_vec();
        let init = model
            .aig
            .latches()
            .iter()
            .enumerate()
            .filter(|(_, latch)| latch.init)
            .fold(0u64, |state, (i, _)| state | 1 << i);
        let mut found = Reference {
            states: vec![init],
            preds: vec![(0, 0)],
            succs: Vec::new(),
            hit: None,
            complete: false,
        };
        let mut index: HashMap<u64, u32> = HashMap::from([(init, 0)]);
        let mut eval = Evaluator::new(&model.aig);
        let lanes = 1u32 << input_nodes.len().min(6);
        let lane_mask = ALL_LANES >> (64 - lanes);
        let words = 1u64 << input_nodes.len().saturating_sub(6);
        let mut capped = false;
        let mut current = 0;
        while current < found.states.len() {
            let state = found.states[current];
            let mut succs: Vec<u32> = Vec::new();
            for high in 0..words {
                for (i, &node) in latch_nodes.iter().enumerate() {
                    eval.set(node, LaneWord::splat((state >> i) & 1 == 1));
                }
                for (i, &node) in input_nodes.iter().enumerate() {
                    let word = match LANE_MASKS.get(i) {
                        Some(&lanes) => lanes,
                        None => LaneWord::splat((high >> (i - LANE_MASKS.len())) & 1 == 1),
                    };
                    eval.set(node, word);
                }
                eval.settle();
                let ok = model
                    .constraints
                    .iter()
                    .fold(lane_mask, |acc, &c| acc & eval.get(c));
                if let Some(hit) = target.map(|t| ok & eval.get(t)).filter(|&hit| hit != 0) {
                    found.hit = Some((current as u32, valuation(high, hit.trailing_zeros())));
                    return found;
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
                    let successor = match index.get(&next) {
                        Some(&i) => i,
                        None if found.states.len() >= options.max_states => {
                            if target.is_none() {
                                return found;
                            }
                            capped = true;
                            break;
                        }
                        None => {
                            let i = found.states.len() as u32;
                            found.states.push(next);
                            index.insert(next, i);
                            found.preds.push((current as u32, valuation(high, lane)));
                            i
                        }
                    };
                    if target.is_none() && !succs.contains(&successor) {
                        succs.push(successor);
                    }
                }
            }
            if target.is_none() {
                found.succs.push(succs);
            }
            current += 1;
        }
        found.complete = !capped;
        found
    }

    proptest! {
        /// The kernel discovers the same states, in the same order and from
        /// the same predecessors, with the same successor lists and the same
        /// first hit, as the per-lane loop it replaced: with and without a
        /// target, under constraints, across several input words per state
        /// and up to the state cap.
        #[test]
        fn the_kernel_matches_the_per_lane_reference(
            seed in 1u64..u64::MAX,
            latches in 1usize..64,
            inputs in 0usize..11,
            gates in 0usize..60,
            constraints in 0usize..3,
            max_states in 1usize..300,
        ) {
            let (model, target) = random_model(seed, latches, inputs, gates, constraints);
            let options = capped(max_states);
            for target in [None, Some(target)] {
                let mut search = Search::new(&model, &options).expect("within the limits");
                let end = search.expand(target, u64::MAX, &Interrupt::none(), |_, _| true);
                let reference = reference_expand(&model, &options, target);
                prop_assert_eq!(&search.states, &reference.states);
                prop_assert_eq!(&search.preds, &reference.preds);
                prop_assert_eq!(&search.succs, &reference.succs);
                let (hit, complete) = match end {
                    End::Hit { state, input } => (Some((state, input)), false),
                    End::Complete => (None, true),
                    End::Incomplete { .. } => (None, false),
                };
                prop_assert_eq!(hit, reference.hit);
                prop_assert_eq!(complete, reference.complete);
            }
        }

        /// Under any word budget, `shortest` returns `reach`'s trace or a
        /// depth below which `reach` finds none, and so does a search the
        /// state cap stops.
        #[test]
        fn shortest_is_reach_cut_short_by_its_budget(
            seed in 1u64..u64::MAX,
            latches in 1usize..8,
            inputs in 0usize..9,
            gates in 0usize..24,
            constraints in 0usize..3,
            max_words in 0u64..48,
            max_states in 1usize..40,
        ) {
            let (model, target) = random_model(seed, latches, inputs, gates, constraints);
            let none = Interrupt::none();
            let full = reach(&model, target, &ExplicitOptions::default(), &none);
            match (shortest(&model, target, max_words, &none), full.clone()) {
                (Shortest::Trace(trace), Some(Verdict::Reached(expected))) => {
                    prop_assert_eq!(trace, expected);
                }
                (Shortest::NotBefore(depth), Some(Verdict::Reached(expected))) => {
                    prop_assert!(expected.len() > depth, "{} cycles, not before {}", expected.len(), depth);
                }
                (Shortest::NotBefore(_), Some(Verdict::Unreachable(_))) => {}
                (shortest, full) => prop_assert!(false, "{:?} against {:?}", shortest, full),
            }
            let mut search = Search::new(&model, &capped(max_states)).expect("within the limits");
            let end = search.expand(Some(target), u64::MAX, &none, |_, _| true);
            if let (End::Incomplete { depth }, Some(Verdict::Reached(expected))) = (end, &full) {
                prop_assert!(expected.len() > depth, "{} cycles, capped before {}", expected.len(), depth);
            }
        }
    }
}
