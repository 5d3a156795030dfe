//! IC3 / Property Directed Reachability over a [`Model`].
//!
//! BMC finds short counterexamples and k-induction closes shallow proofs,
//! but invariants that relate counters to control state (the shape of every
//! AutoSVA `had_a_request` obligation) defeat plain induction, and the exact
//! explicit-state fallback cliffs exponentially with the latch count.  PDR
//! fills that gap: it maintains a *trapezoid* of frames `F_0 ⊆ F_1 ⊆ … ⊆
//! F_k`, each an over-approximation of the states reachable in that many
//! steps, and refines them with clauses learnt from blocked proof
//! obligations until either a frame becomes inductive (proof, with the
//! invariant as a certificate) or an obligation chain reaches the initial
//! state (counterexample).
//!
//! [`check_pdr_budgeted`] is the one entry point and answers with the one
//! [`Verdict`]: a trace, or [`Certificate::Invariant`].  It takes a list of
//! targets and keeps one trapezoid across them, which k-liveness uses to
//! try k = 0, 1, … ([`crate::liveness::k_liveness`]); a safety or cover
//! check passes one target.
//!
//! Implementation notes (following Eén/Mishchenko/Brayton, *Efficient
//! implementation of property directed reachability*, FMCAD'11):
//!
//! * **one incremental solver** — the two-frame transition relation is
//!   encoded once through [`Unroller`]; frames are *delta-encoded* clause
//!   sets guarded by per-frame activation literals, so a query relative to
//!   `F_i` is a [`crate::sat::Solver::solve`] call assuming the activation
//!   literals of frames `i..`;
//! * **cube generalization** — blocked cubes are shrunk with the solver's
//!   final-conflict [`crate::sat::Solver::unsat_core`] and then by bounded
//!   literal dropping, always re-anchored so the cube keeps excluding the
//!   initial state;
//! * **predecessor lifting** — counterexamples-to-induction are widened
//!   from a concrete state to a cube by ternary simulation of the AIG
//!   (the dual-rail mode of the `psim` evaluator: set a latch to X;
//!   keep it dropped while every target stays determined), sweeping only
//!   the gates the next-state functions, constraints and target read.  Only the
//!   states that become proof obligations are lifted: the bad state the
//!   blocking phase starts from and the predecessor a blocking query finds.
//!   Pushing a clause up the trapezoid, dropping literals and propagating
//!   clauses only ask whether a cube is blocked, so their SAT answers read
//!   no model.  Lifting sets every leaf of the ternary evaluator anew, so
//!   skipping a lift changes no later query.  A counterexample trace is
//!   rebuilt by replaying its inputs from reset ([`crate::psim::replay`]),
//!   which also confirms it;
//! * **certificates** — a proof returns the [`Invariant`] (a CNF over latch
//!   literals) which [`Invariant::certify`] re-validates on an independent,
//!   freshly-encoded solver, one assumption query per clause.

use crate::aig::{Aig, Lit};
use crate::interrupt::Interrupt;
use crate::model::Model;
use crate::psim::{Evaluator, Lanes, Ternary};
use crate::sat::{SatLit, SatResult, SolverConfig, SolverStats};
use crate::trace::Trace;
use crate::unroll::Unroller;
use crate::verdict::{Certificate, Verdict};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Options bounding the PDR engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdrOptions {
    /// Maximum number of frames in the trapezoid before giving up.
    pub max_frames: usize,
    /// Total SAT-query budget across the run; `Unknown` when exhausted.
    pub max_queries: u64,
    /// Rounds of literal-dropping attempted when generalizing a blocked
    /// cube (on top of the unsat-core shrink, which is always applied).
    pub generalize_rounds: usize,
}

impl Default for PdrOptions {
    fn default() -> Self {
        PdrOptions {
            max_frames: 80,
            max_queries: 500_000,
            generalize_rounds: 2,
        }
    }
}

/// An inductive invariant certifying a PDR proof.
///
/// The invariant is a conjunction of clauses, each a disjunction of latch
/// literals of the checked model's AIG.  Together with the model's invariant
/// constraints it satisfies initiation (`init ⇒ Inv`), consecution
/// (`Inv ∧ constr ∧ T ⇒ Inv'`) and safety (`Inv ∧ constr ⇒ ¬bad`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invariant {
    clauses: Vec<Vec<Lit>>,
    /// Number of frames the trapezoid reached when the proof closed.
    pub frames_explored: usize,
}

impl Invariant {
    /// Rebuilds an invariant from raw clauses (disjunctions of latch
    /// literals of the target model's AIG).
    ///
    /// Used by the proof cache to reconstitute a stored certificate; the
    /// result carries no guarantee until [`Invariant::certify`] accepts it.
    pub fn from_clauses(clauses: Vec<Vec<Lit>>, frames_explored: usize) -> Invariant {
        Invariant {
            clauses,
            frames_explored,
        }
    }

    /// The clauses of the invariant (disjunctions of latch literals).
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Renders the clauses with latch names resolved against `aig`.
    pub fn render(&self, aig: &Aig) -> Vec<String> {
        self.clauses
            .iter()
            .map(|clause| {
                let lits: Vec<String> = clause
                    .iter()
                    .map(|l| {
                        let name = aig.name_of(l.node()).unwrap_or("latch");
                        if l.is_inverted() {
                            format!("!{name}")
                        } else {
                            name.to_string()
                        }
                    })
                    .collect();
                lits.join(" | ")
            })
            .collect()
    }

    /// Independently re-validates the certificate against `model` and the
    /// bad literal it was produced for.
    ///
    /// Initiation is checked syntactically (the initial state is a single
    /// concrete valuation).  Safety and consecution are checked on one
    /// fresh incremental encoding of `Inv ∧ constr ∧ T`: `bad` at frame 0,
    /// then each clause's negation at frame 1, must be unsatisfiable as
    /// assumptions.  The first satisfiable query rejects the certificate.
    /// Together the queries say exactly what the one query `Inv ∧ constr ∧
    /// T ∧ (bad ∨ ¬Inv')` would, but each assumes a few literals on the
    /// same solver instead of solving a disjunction over every clause.
    pub fn certify(&self, model: &Model, bad: Lit) -> bool {
        if !self.initiated(model) {
            return false;
        }
        let mut unroller = self.encode(model);
        let bad0 = unroller.lit_in_frame(bad, 0);
        if unroller.solve_sat(&[bad0]) != SatResult::Unsat {
            return false;
        }
        self.clauses.iter().all(|clause| {
            let violated: Vec<SatLit> = clause
                .iter()
                .map(|&l| unroller.lit_in_frame(l, 1).negate())
                .collect();
            unroller.solve_sat(&violated) == SatResult::Unsat
        })
    }

    /// Initiation: every clause holds in the initial state.
    fn initiated(&self, model: &Model) -> bool {
        let init_of: HashMap<usize, bool> = model
            .aig
            .latches()
            .iter()
            .map(|l| (l.node, l.init))
            .collect();
        self.clauses.iter().all(|clause| {
            clause.iter().any(|l| {
                init_of
                    .get(&l.node())
                    .map(|&v| v != l.is_inverted())
                    .unwrap_or(false)
            })
        })
    }

    /// A fresh two-frame encoding of `Inv ∧ constr ∧ T`: the clauses and
    /// the invariant constraints hold at frame 0.
    fn encode<'m>(&self, model: &'m Model) -> Unroller<'m> {
        let mut unroller = Unroller::new(&model.aig, false);
        for clause in &self.clauses {
            let sat_clause: Vec<SatLit> = clause
                .iter()
                .map(|&l| unroller.lit_in_frame(l, 0))
                .collect();
            unroller.add_clause(&sat_clause);
        }
        for &c in &model.constraints {
            unroller.constrain(c, 0, true);
        }
        unroller
    }

    /// The single-query check [`Invariant::certify`] replaced, kept as the
    /// reference its differential test compares against: `Inv ∧ constr ∧
    /// T ∧ (bad ∨ ¬Inv')` must be unsatisfiable.
    #[cfg(test)]
    fn certify_in_one_query(&self, model: &Model, bad: Lit) -> bool {
        if !self.initiated(model) {
            return false;
        }
        let mut unroller = self.encode(model);
        // One selector per clause: d_c ⇒ clause violated at frame 1.
        let mut violated_any: Vec<SatLit> = vec![unroller.lit_in_frame(bad, 0)];
        for clause in &self.clauses {
            let d = SatLit::pos(unroller.new_var());
            for &l in clause {
                let l1 = unroller.lit_in_frame(l, 1);
                unroller.add_clause(&[d.negate(), l1.negate()]);
            }
            violated_any.push(d);
        }
        unroller.add_clause(&violated_any);
        unroller.solve_sat(&[]) == SatResult::Unsat
    }
}

/// Checks `targets` of `model` in order on one trapezoid, until one is
/// proven unreachable; also returns the index of the target the answer is
/// about and the [`SolverStats`] of the incremental solver behind the run.
/// A safety or cover check passes its one target; k-liveness passes one per
/// k ([`crate::liveness::k_liveness`]).
///
/// A target PDR reaches hands its frames to the next one, since only the
/// target moves and every frame still over-approximates the states
/// reachable in that many steps.  The first target proven unreachable
/// answers [`Verdict::Unreachable`] with its [`Invariant`]; a reached last
/// target answers [`Verdict::Reached`] with its trace, rebuilt by
/// replaying the obligation chain's inputs.  The frame and query bounds of
/// `options` cover the whole sequence, and running out of them answers
/// `None`.  `targets` must not be empty.
///
/// The [`Interrupt`] handle is checked in the obligation queue (alongside
/// the query budget) and inside the solver's search loop; once it has
/// fired the run answers `None` or a trace, never a proof.  Callers without
/// a budget pass `SolverConfig::default()` and [`Interrupt::none`].
pub fn check_pdr_budgeted(
    model: &Model,
    targets: &[Lit],
    options: &PdrOptions,
    solver: SolverConfig,
    interrupt: &Interrupt,
) -> (Option<Verdict>, usize, SolverStats) {
    let _span = crate::telemetry::span("pdr.solve", "");
    let mut pdr = Pdr::new(model, targets[0], options, solver, interrupt.clone());
    let mut index = 0;
    let verdict = loop {
        match pdr.decide() {
            Decision::Proven(invariant) => {
                break Some(Verdict::Unreachable(Certificate::Invariant(invariant)))
            }
            Decision::Reached(chain) if index + 1 == targets.len() => {
                break Some(Verdict::Reached(pdr.trace_from_chain(chain)))
            }
            Decision::Reached(_) => {
                index += 1;
                pdr.retarget(targets[index]);
            }
            Decision::Undecided => break None,
        }
    };
    let stats = pdr.unroller.stats();
    crate::telemetry::count_solver("pdr", &stats);
    (verdict, index, stats)
}

/// A cube: a partial latch valuation, as sorted `(latch position, value)`
/// pairs.
type Cube = Vec<(usize, bool)>;

/// One clause-set delta of the trapezoid, guarded by an activation literal.
struct Frame {
    act: SatLit,
    cubes: Vec<Cube>,
}

/// A proof-obligation node; obligations chain toward the bad state through
/// `succ`, and carry the concrete input valuation driving their state into
/// the successor cube (for the final obligation: making the bad literal
/// true).
struct ObNode {
    cube: Cube,
    inputs: Vec<bool>,
    succ: Option<usize>,
}

enum BlockOutcome {
    Blocked,
    /// An obligation chain from this arena node, which contains the
    /// initial state, reaches the target.
    Cex(usize),
    /// Out of queries, or interrupted.
    Undecided,
}

/// How a run on the current target ended, before a counterexample chain is
/// replayed into a trace.
enum Decision {
    Proven(Invariant),
    /// The obligation chain from this arena node reaches the target from
    /// the initial state.
    Reached(usize),
    /// Out of frames or queries, or interrupted.
    Undecided,
}

/// Three-way answer of a relative-induction query, so an interrupted
/// solve can never be misread as "blocked" (which would over-block and
/// could close a false proof) or as a concrete predecessor.
enum RelQuery<P> {
    /// SAT: a predecessor reaches the cube; `P` is what the caller read of
    /// it (the lifted cube and its inputs, or nothing).
    Pred(P),
    /// UNSAT: the subset of the queried cube kept by the final conflict.
    Blocked(Cube),
    /// The solver was preempted before answering.
    Interrupted,
}

struct Pdr<'a> {
    model: &'a Model,
    bad: Lit,
    options: &'a PdrOptions,
    unroller: Unroller<'a>,
    /// AIG node per latch position.
    latch_nodes: Vec<usize>,
    latch_init: Vec<bool>,
    latch_next: Vec<Lit>,
    /// Frame-0 / frame-1 SAT literal per latch position.
    f0: Vec<SatLit>,
    f1: Vec<SatLit>,
    input_nodes: Vec<usize>,
    input_f0: Vec<SatLit>,
    bad0: SatLit,
    /// `frames[0]` is the initial-state frame (its activation literal guards
    /// the init unit clauses); `frames[i]` for `i ≥ 1` holds the delta cubes
    /// blocked at level `i`.
    frames: Vec<Frame>,
    queries: u64,
    arena: Vec<ObNode>,
    seq: usize,
    /// Ternary simulation for predecessor lifting (every lane alike).
    ternary: Evaluator<Ternary>,
    /// Cooperative preemption handle, checked alongside the query budget.
    interrupt: Interrupt,
}

impl<'a> Pdr<'a> {
    fn new(
        model: &'a Model,
        bad: Lit,
        options: &'a PdrOptions,
        solver: SolverConfig,
        interrupt: Interrupt,
    ) -> Self {
        let aig = &model.aig;
        let mut unroller = Unroller::with_config(aig, false, solver);
        unroller.set_interrupt(interrupt.clone());
        let latch_nodes: Vec<usize> = aig.latches().iter().map(|l| l.node).collect();
        let latch_init: Vec<bool> = aig.latches().iter().map(|l| l.init).collect();
        let latch_next: Vec<Lit> = aig.latches().iter().map(|l| l.next).collect();
        let f0: Vec<SatLit> = latch_nodes
            .iter()
            .map(|&n| unroller.lit_in_frame(Lit::new(n, false), 0))
            .collect();
        let f1: Vec<SatLit> = latch_nodes
            .iter()
            .map(|&n| unroller.lit_in_frame(Lit::new(n, false), 1))
            .collect();
        let input_nodes: Vec<usize> = aig.inputs().to_vec();
        let input_f0: Vec<SatLit> = input_nodes
            .iter()
            .map(|&n| unroller.lit_in_frame(Lit::new(n, false), 0))
            .collect();
        let bad0 = unroller.lit_in_frame(bad, 0);
        // The transition relation carries the invariant constraints on the
        // current frame, so every explored step satisfies them (the same
        // per-frame semantics the bounded engines use).
        for &c in &model.constraints {
            unroller.constrain(c, 0, true);
        }
        let init_act = SatLit::pos(unroller.new_var());
        for (pos, &sl) in f0.iter().enumerate() {
            let unit = if latch_init[pos] { sl } else { sl.negate() };
            unroller.add_clause(&[init_act.negate(), unit]);
        }
        Pdr {
            model,
            bad,
            options,
            unroller,
            latch_nodes,
            latch_init,
            latch_next,
            f0,
            f1,
            input_nodes,
            input_f0,
            bad0,
            frames: vec![Frame {
                act: init_act,
                cubes: Vec::new(),
            }],
            queries: 0,
            arena: Vec::new(),
            seq: 0,
            ternary: Self::lifting(model, bad),
            interrupt,
        }
    }

    /// The ternary evaluator of predecessor lifting: the gates the
    /// next-state functions, the constraints and the target `bad` read.
    fn lifting(model: &Model, bad: Lit) -> Evaluator<Ternary> {
        let nexts = model.aig.latches().iter().map(|l| l.next);
        let roots = nexts.chain(model.constraints.iter().copied()).chain([bad]);
        Evaluator::for_roots(&model.aig, roots)
    }

    fn over_budget(&self) -> bool {
        self.queries > self.options.max_queries
    }

    /// `true` once the interrupt handle has fired (checked at the same
    /// places as [`Pdr::over_budget`], plus after solver answers).
    fn interrupted(&self) -> bool {
        self.interrupt.triggered().is_some()
    }

    fn frame_assumptions(&self, frame: usize) -> Vec<SatLit> {
        // Delta encoding: F_i is the conjunction of the clause sets of
        // frames i.. (F_0 additionally activates the init units, and every
        // blocked clause also holds at init).
        self.frames[frame..].iter().map(|f| f.act).collect()
    }

    fn solve(&mut self, assumptions: &[SatLit]) -> SatResult {
        self.queries += 1;
        // Each query costs one budget step (the SAT loop additionally
        // charges its conflicts) and is a deadline checkpoint, so a
        // cascade of short solves cannot outlive the deadline either.
        if self.interrupt.charge(1).is_some() || self.interrupt.poll().is_some() {
            return SatResult::Interrupted;
        }
        self.unroller.solve_sat(assumptions)
    }

    fn push_frame(&mut self) {
        let act = SatLit::pos(self.unroller.new_var());
        self.frames.push(Frame {
            act,
            cubes: Vec::new(),
        });
    }

    /// The SAT literal asserting `latch(pos) == value` at `frame` (0 or 1).
    fn state_lit(&self, pos: usize, value: bool, frame1: bool) -> SatLit {
        let base = if frame1 { self.f1[pos] } else { self.f0[pos] };
        if value {
            base
        } else {
            base.negate()
        }
    }

    fn cube_contains_init(&self, cube: &Cube) -> bool {
        cube.iter().all(|&(pos, val)| self.latch_init[pos] == val)
    }

    /// Queries `F_fi ∧ ¬cube ∧ T ∧ cube'`.  On SAT returns what `read`
    /// takes from the predecessor while the solver still holds it; on UNSAT
    /// returns the subset of `cube` kept by the final conflict.
    fn relative_query<P>(
        &mut self,
        fi: usize,
        cube: &Cube,
        read: impl FnOnce(&mut Self, &Cube) -> P,
    ) -> RelQuery<P> {
        // Temporary ¬cube clause, guarded so it can be retired afterwards.
        let t = SatLit::pos(self.unroller.new_var());
        let mut neg_cube = vec![t.negate()];
        for &(pos, val) in cube {
            neg_cube.push(self.state_lit(pos, val, false).negate());
        }
        self.unroller.add_clause(&neg_cube);

        let mut assumptions = self.frame_assumptions(fi);
        assumptions.push(t);
        let primed: Vec<SatLit> = cube
            .iter()
            .map(|&(pos, val)| self.state_lit(pos, val, true))
            .collect();
        assumptions.extend_from_slice(&primed);

        let result = match self.solve(&assumptions) {
            SatResult::Sat => RelQuery::Pred(read(self, cube)),
            SatResult::Unsat => {
                let core = self.unroller.unsat_core().to_vec();
                let kept: Cube = cube
                    .iter()
                    .zip(&primed)
                    .filter(|&(_, sl)| core.contains(sl))
                    .map(|(&entry, _)| entry)
                    .collect();
                RelQuery::Blocked(kept)
            }
            SatResult::Interrupted => RelQuery::Interrupted,
        };
        // Retire the temporary clause for good.
        self.unroller.add_clause(&[t.negate()]);
        result
    }

    /// [`Pdr::relative_query`] for callers that only ask whether `cube` is
    /// blocked relative to `F_fi`: a predecessor is neither read nor lifted.
    fn blocked(&mut self, fi: usize, cube: &Cube) -> RelQuery<()> {
        self.relative_query(fi, cube, |_, _| ())
    }

    /// The frame-0 latch values and input values of the solver's model.
    fn model_state(&self) -> (Vec<bool>, Vec<bool>) {
        let read = |lits: &[SatLit]| -> Vec<bool> {
            lits.iter().map(|&sl| self.unroller.sat_value(sl)).collect()
        };
        (read(&self.f0), read(&self.input_f0))
    }

    /// Greedily widens a concrete state into a cube by dropping latch
    /// literals that the targets do not depend on (inputs stay concrete):
    /// in latch order, a latch is set to X and stays dropped while every
    /// `(lit, expected)` target is still determined to its expected value.
    fn lift(&mut self, state: Vec<bool>, inputs: &[bool], targets: &[(Lit, bool)]) -> Cube {
        for (&node, &value) in self.input_nodes.iter().zip(inputs) {
            self.ternary.set(node, Ternary::splat(value));
        }
        for (&node, &value) in self.latch_nodes.iter().zip(&state) {
            self.ternary.set(node, Ternary::splat(value));
        }
        let mut cube = Cube::new();
        for (pos, &node) in self.latch_nodes.iter().enumerate() {
            self.ternary.set(node, Ternary::X);
            self.ternary.settle();
            let hold = targets
                .iter()
                .all(|&(lit, expected)| self.ternary.get(lit).lane(0) == Some(expected));
            if !hold {
                self.ternary.set(node, Ternary::splat(state[pos]));
                cube.push((pos, state[pos]));
            }
        }
        cube
    }

    /// Lifts the bad state of the solver's model: the cube must keep the
    /// bad literal true and every invariant constraint satisfied under the
    /// witnessed inputs, which are returned with it.
    fn lift_bad(&mut self) -> (Cube, Vec<bool>) {
        let (state, inputs) = self.model_state();
        let mut targets = vec![(self.bad, true)];
        targets.extend(self.model.constraints.iter().map(|&c| (c, true)));
        (self.lift(state, &inputs, &targets), inputs)
    }

    /// Lifts the predecessor of `succ` in the solver's model: the cube must
    /// keep every next-state literal of `succ` at its value and every
    /// invariant constraint satisfied under the witnessed inputs, which
    /// are returned with it.
    fn lift_predecessor(&mut self, succ: &Cube) -> (Cube, Vec<bool>) {
        let (state, inputs) = self.model_state();
        let mut targets: Vec<(Lit, bool)> = succ
            .iter()
            .map(|&(pos, val)| (self.latch_next[pos], val))
            .collect();
        targets.extend(self.model.constraints.iter().map(|&c| (c, true)));
        (self.lift(state, &inputs, &targets), inputs)
    }

    /// Restores init exclusion after a shrink: every blocked cube must keep
    /// at least one literal disagreeing with the initial state.  `full` is
    /// the original cube the shrink started from (known init-excluding).
    fn ensure_init_excluded(&self, gen: &mut Cube, full: &Cube) {
        if !self.cube_contains_init(gen) {
            return;
        }
        let back = full
            .iter()
            .find(|&&(pos, val)| self.latch_init[pos] != val)
            .copied()
            .expect("blocked cubes exclude the initial state");
        gen.push(back);
        gen.sort_unstable();
    }

    /// Adds `cube` as a blocked clause at level `level` and prunes
    /// syntactically subsumed bookkeeping entries.
    fn add_blocked_cube(&mut self, cube: Cube, level: usize) {
        let mut clause = vec![self.frames[level].act.negate()];
        for &(pos, val) in &cube {
            clause.push(self.state_lit(pos, val, false).negate());
        }
        self.unroller.add_clause(&clause);
        // Drop syntactically subsumed entries (including exact duplicates —
        // the fresh copy is pushed below, so propagation never re-queries
        // the same cube twice from one frame).
        for frame in &mut self.frames[1..=level] {
            frame.cubes.retain(|existing| !subsumes(&cube, existing));
        }
        self.frames[level].cubes.push(cube);
    }

    fn arena_push(&mut self, cube: Cube, inputs: Vec<bool>, succ: Option<usize>) -> usize {
        self.arena.push(ObNode { cube, inputs, succ });
        self.arena.len() - 1
    }

    /// Recursively blocks a counterexample-to-induction cube at the
    /// frontier via the proof-obligation queue.
    fn block(&mut self, cube: Cube, inputs: Vec<bool>, frontier: usize) -> BlockOutcome {
        let root = self.arena_push(cube, inputs, None);
        let mut queue: BinaryHeap<Reverse<(usize, usize, usize)>> = BinaryHeap::new();
        self.seq += 1;
        queue.push(Reverse((frontier, self.seq, root)));

        while let Some(Reverse((frame, _, id))) = queue.pop() {
            #[cfg(any(test, feature = "fault-injection"))]
            self.interrupt.fault("pdr.block_cube");
            if self.over_budget() || self.interrupt.poll().is_some() {
                return BlockOutcome::Undecided;
            }
            if self.cube_contains_init(&self.arena[id].cube) {
                return BlockOutcome::Cex(id);
            }
            debug_assert!(frame >= 1, "non-init obligations sit at frame >= 1");
            let cube = self.arena[id].cube.clone();
            match self.relative_query(frame - 1, &cube, Self::lift_predecessor) {
                RelQuery::Interrupted => return BlockOutcome::Undecided,
                RelQuery::Pred((pred, pinputs)) => {
                    // A predecessor reaches the cube: chase it one frame
                    // down and retry this obligation afterwards.
                    let pid = self.arena_push(pred, pinputs, Some(id));
                    self.seq += 1;
                    queue.push(Reverse((frame - 1, self.seq, pid)));
                    self.seq += 1;
                    queue.push(Reverse((frame, self.seq, id)));
                }
                RelQuery::Blocked(core_cube) => {
                    let mut gen = core_cube;
                    self.ensure_init_excluded(&mut gen, &cube);
                    self.drop_literals(&mut gen, frame - 1);
                    // Push the clause as far up the trapezoid as it stays
                    // relatively inductive.  An interrupt stops the
                    // climb; `gen` is already blocked at `frame`, so
                    // recording it at the level reached stays sound.
                    let mut level = frame;
                    while level + 1 < self.frames.len() {
                        if self.over_budget() || self.interrupted() {
                            break;
                        }
                        match self.blocked(level, &gen) {
                            RelQuery::Blocked(_) => level += 1,
                            RelQuery::Pred(()) | RelQuery::Interrupted => break,
                        }
                    }
                    self.add_blocked_cube(gen, level);
                    // Keep chasing the same obligation deeper: it often
                    // re-blocks cheaply and speeds up convergence.
                    if level + 1 < self.frames.len() {
                        self.seq += 1;
                        queue.push(Reverse((level + 1, self.seq, id)));
                    }
                }
            }
        }
        BlockOutcome::Blocked
    }

    /// Bounded literal dropping on top of the unsat-core shrink.  Every
    /// candidate is re-validated with a relative-induction query, so the
    /// invariant "gen is blocked relative to F_fi and excludes init" is
    /// maintained throughout.
    fn drop_literals(&mut self, gen: &mut Cube, fi: usize) {
        for _ in 0..self.options.generalize_rounds {
            let mut changed = false;
            let mut idx = 0;
            while idx < gen.len() && gen.len() > 1 {
                if self.over_budget() || self.interrupted() {
                    // `gen` is valid as-is (blocked by its last accepted
                    // query); stopping the shrink early loses only
                    // generality, never soundness.
                    return;
                }
                let mut candidate = gen.clone();
                candidate.remove(idx);
                if self.cube_contains_init(&candidate) {
                    idx += 1;
                    continue;
                }
                match self.blocked(fi, &candidate) {
                    RelQuery::Blocked(mut core_cube) => {
                        self.ensure_init_excluded(&mut core_cube, &candidate);
                        *gen = core_cube;
                        changed = true;
                        idx = 0;
                    }
                    RelQuery::Pred(()) => idx += 1,
                    RelQuery::Interrupted => return,
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Clause propagation after a new frontier frame was opened.  Returns
    /// the inductive invariant when two adjacent frames become equal.
    fn propagate_clauses(&mut self) -> Option<Invariant> {
        for i in 1..self.frames.len() - 1 {
            let cubes = self.frames[i].cubes.clone();
            for cube in cubes {
                if self.over_budget() || self.interrupted() {
                    return None;
                }
                if matches!(self.blocked(i, &cube), RelQuery::Blocked(_)) {
                    // add_blocked_cube prunes the frame-i copy (it subsumes
                    // itself), completing the move to frame i + 1.
                    self.add_blocked_cube(cube, i + 1);
                }
            }
            if self.frames[i].cubes.is_empty() {
                return Some(self.extract_invariant(i + 1));
            }
        }
        None
    }

    fn extract_invariant(&self, start: usize) -> Invariant {
        let mut clauses = Vec::new();
        for frame in &self.frames[start..] {
            for cube in &frame.cubes {
                let clause: Vec<Lit> = cube
                    .iter()
                    .map(|&(pos, val)| Lit::new(self.latch_nodes[pos], val))
                    .collect();
                clauses.push(clause);
            }
        }
        Invariant {
            clauses,
            frames_explored: self.frames.len() - 1,
        }
    }

    /// Rebuilds a counterexample trace from a completed obligation chain
    /// (deepest obligation first; it contains the initial state) by
    /// replaying the chain's inputs from reset.
    fn trace_from_chain(&self, deepest: usize) -> Trace {
        let mut ids = vec![deepest];
        while let Some(next) = self.arena[*ids.last().expect("chain")].succ {
            ids.push(next);
        }
        let input = |cycle: usize, i: usize| self.arena[ids[cycle]].inputs[i];
        crate::psim::replay(self.model, self.bad, ids.len(), input)
            .expect("a PDR counterexample replays on its model")
    }

    /// Points the run at a new target.  The trapezoid stays: its frames
    /// over-approximate reachability whatever the target, and the frontier
    /// is blocked against the new target before any proof can close, which
    /// blocks every lower frame too, since each is contained in the
    /// frontier.
    fn retarget(&mut self, bad: Lit) {
        self.bad = bad;
        self.bad0 = self.unroller.lit_in_frame(bad, 0);
        self.ternary = Self::lifting(self.model, bad);
        self.arena.clear();
    }

    fn decide(&mut self) -> Decision {
        if self.frames.len() == 1 {
            // Depth 0: a bad initial state is a one-frame counterexample.
            let init_assumptions = {
                let mut a = self.frame_assumptions(0);
                a.push(self.bad0);
                a
            };
            match self.solve(&init_assumptions) {
                SatResult::Sat => {
                    let (_, inputs) = self.model_state();
                    return Decision::Reached(self.arena_push(Vec::new(), inputs, None));
                }
                SatResult::Unsat => {}
                SatResult::Interrupted => return Decision::Undecided,
            }
            self.push_frame();
        }

        loop {
            // Blocking phase: clear every counterexample-to-induction at
            // the frontier.
            loop {
                #[cfg(any(test, feature = "fault-injection"))]
                self.interrupt.fault("pdr.block_cube");
                if self.over_budget() || self.interrupted() {
                    return Decision::Undecided;
                }
                let frontier = self.frames.len() - 1;
                let mut assumptions = self.frame_assumptions(frontier);
                assumptions.push(self.bad0);
                match self.solve(&assumptions) {
                    SatResult::Unsat => break,
                    SatResult::Interrupted => return Decision::Undecided,
                    SatResult::Sat => {
                        let (cube, inputs) = self.lift_bad();
                        match self.block(cube, inputs, frontier) {
                            BlockOutcome::Blocked => {}
                            BlockOutcome::Cex(chain) => return Decision::Reached(chain),
                            BlockOutcome::Undecided => return Decision::Undecided,
                        }
                    }
                }
            }
            if self.frames.len() > self.options.max_frames {
                return Decision::Undecided;
            }
            // Between frames: garbage-collect the clause database.  Every
            // blocked-cube query retires its temporary ¬cube clause through
            // a negated activation unit, and learnt clauses satisfied at
            // level 0 accumulate with them — the blocking phase above is
            // where both pile up.
            self.unroller.simplify();
            self.push_frame();
            if let Some(invariant) = self.propagate_clauses() {
                // The solver charges a completed query's conflicts to the
                // budget on its way out, which may fire the interrupt: a
                // preempted run never reports a proof.
                if self.interrupted() {
                    return Decision::Undecided;
                }
                return Decision::Proven(invariant);
            }
        }
    }
}

/// `a` subsumes `b` when every literal of `a` occurs in `b` (so `¬a ⇒ ¬b`).
fn subsumes(a: &Cube, b: &Cube) -> bool {
    a.iter().all(|entry| b.contains(entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;
    use crate::model::BadProperty;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// An unbudgeted PDR run on `model.bads[0]` with the default solver.
    fn pdr(model: &Model, options: &PdrOptions) -> Option<Verdict> {
        let bad = model.bads[0].lit;
        let config = SolverConfig::default();
        check_pdr_budgeted(model, &[bad], options, config, &Interrupt::none()).0
    }

    /// The invariant of a PDR proof.
    fn proof(verdict: Option<Verdict>) -> Invariant {
        match verdict {
            Some(Verdict::Unreachable(Certificate::Invariant(invariant))) => invariant,
            other => panic!("expected a proof, got {other:?}"),
        }
    }

    /// A 3-bit counter that saturates at 7 (shared with the BMC tests).
    fn saturating_counter() -> (Model, Vec<Lit>) {
        let mut aig = Aig::new();
        let bits: Vec<Lit> = (0..3)
            .map(|i| aig.add_latch(format!("c{i}"), false))
            .collect();
        let all_ones = aig.and_many(&bits);
        let b0 = bits[0];
        let b1 = bits[1];
        let b2 = bits[2];
        let n0 = aig.xor(b0, Lit::TRUE);
        let carry0 = b0;
        let n1 = aig.xor(b1, carry0);
        let carry1 = aig.and(b1, carry0);
        let n2 = aig.xor(b2, carry1);
        let hold0 = aig.mux(all_ones, b0, n0);
        let hold1 = aig.mux(all_ones, b1, n1);
        let hold2 = aig.mux(all_ones, b2, n2);
        aig.set_latch_next(b0, hold0);
        aig.set_latch_next(b1, hold1);
        aig.set_latch_next(b2, hold2);
        (Model::new(aig), bits)
    }

    #[test]
    fn pdr_finds_reachable_bad_state_with_exact_trace() {
        let (mut model, bits) = saturating_counter();
        // Bad: counter value == 5 (101), reached at frame 5.
        let b = {
            let aig = &mut model.aig;
            let not1 = bits[1].invert();
            let t = aig.and(bits[0], not1);
            aig.and(t, bits[2])
        };
        model.bads.push(BadProperty {
            name: "reaches_five".into(),
            lit: b,
        });
        match pdr(&model, &PdrOptions::default()) {
            Some(Verdict::Reached(trace)) => {
                assert_eq!(trace.len(), 6);
                // Frame 5 must be the value 5 (101).
                assert_eq!(trace.value(5, "c0"), Some(true));
                assert_eq!(trace.value(5, "c1"), Some(false));
                assert_eq!(trace.value(5, "c2"), Some(true));
                // Frame 0 is reset.
                assert_eq!(trace.value(0, "c0"), Some(false));
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn pdr_proves_saturation_invariant_with_certificate() {
        // Once saturated, the counter stays saturated — the reachability
        // proof that defeats plain induction... actually provable by
        // 1-induction, but the certificate path is what matters here.
        let (mut model, bits) = saturating_counter();
        let (was_saturated, all_ones) = {
            let aig = &mut model.aig;
            let all_ones = aig.and_many(&bits);
            let was = aig.add_latch("was_saturated", false);
            let next = aig.or(was, all_ones);
            aig.set_latch_next(was, next);
            (was, all_ones)
        };
        let bad = {
            let aig = &mut model.aig;
            aig.and(was_saturated, all_ones.invert())
        };
        model.bads.push(BadProperty {
            name: "saturation_sticks".into(),
            lit: bad,
        });
        let invariant = proof(pdr(&model, &PdrOptions::default()));
        assert!(invariant.certify(&model, bad), "certificate must check");
    }

    #[test]
    fn pdr_proves_counter_never_wraps() {
        // "Counter value 0 with a sticky has-counted flag" needs
        // reachability information: it is exactly the counter-vs-state
        // shape that defeats k-induction at small depths.
        let (mut model, bits) = saturating_counter();
        let started = {
            let aig = &mut model.aig;
            let any = aig.or_many(&bits);
            let started = aig.add_latch("started", false);
            let next = aig.or(started, any);
            aig.set_latch_next(started, next);
            started
        };
        let bad = {
            let aig = &mut model.aig;
            let zero = {
                let inv: Vec<Lit> = bits.iter().map(|b| b.invert()).collect();
                aig.and_many(&inv)
            };
            aig.and(started, zero)
        };
        model.bads.push(BadProperty {
            name: "wraps_to_zero".into(),
            lit: bad,
        });
        let invariant = proof(pdr(&model, &PdrOptions::default()));
        assert!(invariant.certify(&model, bad));
        assert!(invariant.num_clauses() >= 1);
    }

    #[test]
    fn pdr_respects_constraints() {
        // A free input drives a latch; constraining the input low keeps the
        // latch low forever.
        let mut aig = Aig::new();
        let inp = aig.add_input("x");
        let q = aig.add_latch("q", false);
        aig.set_latch_next(q, inp);
        let mut model = Model::new(aig);
        model.constraints.push(inp.invert());
        model.bads.push(BadProperty {
            name: "q_high".into(),
            lit: q,
        });
        let invariant = proof(pdr(&model, &PdrOptions::default()));
        assert!(invariant.certify(&model, q));
    }

    #[test]
    fn pdr_immediate_counterexample_at_reset() {
        let mut aig = Aig::new();
        let q = aig.add_latch("q", true);
        aig.set_latch_next(q, q);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "q_high".into(),
            lit: q,
        });
        match pdr(&model, &PdrOptions::default()) {
            Some(Verdict::Reached(trace)) => {
                assert_eq!(trace.len(), 1);
                assert_eq!(trace.value(0, "q"), Some(true));
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn pdr_trivial_safety_yields_empty_invariant() {
        let (mut model, _) = saturating_counter();
        model.bads.push(BadProperty {
            name: "never".into(),
            lit: Lit::FALSE,
        });
        let invariant = proof(pdr(&model, &PdrOptions::default()));
        assert_eq!(invariant.num_clauses(), 0);
        assert!(invariant.certify(&model, Lit::FALSE));
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let (mut model, bits) = saturating_counter();
        let b = {
            let aig = &mut model.aig;
            aig.and_many(&bits)
        };
        model.bads.push(BadProperty {
            name: "saturated".into(),
            lit: b,
        });
        let tiny = PdrOptions {
            max_frames: 2,
            max_queries: 500_000,
            generalize_rounds: 0,
        };
        // The bad state is 7 steps deep: 2 frames cannot decide it.
        assert_eq!(pdr(&model, &tiny), None);
    }

    #[test]
    fn invariant_certify_rejects_bogus_certificates() {
        let (mut model, bits) = saturating_counter();
        model.bads.push(BadProperty {
            name: "never".into(),
            lit: Lit::FALSE,
        });
        // "bit 0 is always low" fails consecution (and is simply wrong).
        let bogus = Invariant {
            clauses: vec![vec![bits[0].invert()]],
            frames_explored: 1,
        };
        assert!(!bogus.certify(&model, Lit::FALSE));
        // "bit 0 is always high" fails initiation.
        let bogus_init = Invariant {
            clauses: vec![vec![bits[0]]],
            frames_explored: 1,
        };
        assert!(!bogus_init.certify(&model, Lit::FALSE));
    }

    /// A seeded random sequential model: up to 3 inputs and 6 latches with
    /// random reset values, a soup of AND/OR/XOR gates, random next-state
    /// functions, a bad literal and up to two invariant constraints.  Also
    /// returns the latches and the gate pool.
    fn random_model(rng: &mut StdRng) -> (Model, Vec<Lit>, Vec<Lit>) {
        let mut aig = Aig::new();
        let mut pool: Vec<Lit> = (0..1 + rng.gen_range(0..3))
            .map(|i| aig.add_input(format!("i{i}")))
            .collect();
        let latches: Vec<Lit> = (0..1 + rng.gen_range(0..6))
            .map(|i| aig.add_latch(format!("l{i}"), rng.gen_bool(0.5)))
            .collect();
        pool.extend(&latches);
        let pick = |rng: &mut StdRng, pool: &[Lit]| {
            pool[rng.gen_range(0..pool.len() as u64) as usize].invert_if(rng.gen_bool(0.5))
        };
        for _ in 0..4 + rng.gen_range(0..24) {
            let (a, b) = (pick(rng, &pool), pick(rng, &pool));
            let g = match rng.gen_range(0..3) {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            };
            pool.push(g);
        }
        for &l in &latches {
            let next = pick(rng, &pool);
            aig.set_latch_next(l, next);
        }
        let (a, b) = (pick(rng, &pool), pick(rng, &pool));
        let bad = aig.and(a, b);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "random_bad".into(),
            lit: bad,
        });
        for _ in 0..rng.gen_range(0..3) {
            let c = pick(rng, &pool);
            model.constraints.push(c);
        }
        (model, latches, pool)
    }

    /// A random clause set that passes initiation: every clause has one
    /// literal true in the initial state and up to two random latch
    /// literals.
    fn random_clauses(rng: &mut StdRng, model: &Model, latches: &[Lit]) -> Invariant {
        let init: HashMap<usize, bool> = model
            .aig
            .latches()
            .iter()
            .map(|l| (l.node, l.init))
            .collect();
        let latch = |rng: &mut StdRng| latches[rng.gen_range(0..latches.len() as u64) as usize];
        let clauses = (0..1 + rng.gen_range(0..4))
            .map(|_| {
                let anchor = latch(rng);
                let mut clause = vec![anchor.invert_if(!init[&anchor.node()])];
                for _ in 0..rng.gen_range(0..3) {
                    clause.push(latch(rng).invert_if(rng.gen_bool(0.5)));
                }
                clause
            })
            .collect();
        Invariant::from_clauses(clauses, 1)
    }

    /// Clause-by-clause certification answers exactly as the single query
    /// it replaced, on random models and clause sets: PDR's invariants
    /// (inductive), the same invariants with a clause dropped and random
    /// clause sets (often not inductive), each checked against its own
    /// property, a random gate (often not implied) and no property at all.
    #[test]
    fn clause_by_clause_certification_matches_the_single_query() {
        // Checked against `Lit::FALSE`: inductive or not.  Checked against
        // a target: proven, or inductive without implying the target.
        let (mut inductive, mut not_inductive, mut proven, mut not_implied) = (0, 0, 0, 0);
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xCE27_1F1E);
            let (model, latches, pool) = random_model(&mut rng);
            let bad = model.bads[0].lit;
            let mut candidates = Vec::new();
            let verdict = pdr(&model, &PdrOptions::default());
            if let Some(Verdict::Unreachable(Certificate::Invariant(invariant))) = verdict {
                for drop in 0..invariant.num_clauses() {
                    let mut clauses = invariant.clauses().to_vec();
                    clauses.remove(drop);
                    candidates.push(Invariant::from_clauses(clauses, 1));
                }
                candidates.push(invariant);
            }
            candidates.extend((0..3).map(|_| random_clauses(&mut rng, &model, &latches)));
            let other = pool[rng.gen_range(0..pool.len() as u64) as usize];
            for invariant in &candidates {
                let closed = invariant.certify_in_one_query(&model, Lit::FALSE);
                for target in [Lit::FALSE, bad, other] {
                    let expected = invariant.certify_in_one_query(&model, target);
                    assert_eq!(
                        invariant.certify(&model, target),
                        expected,
                        "seed {seed}: {:?} against {target:?}",
                        invariant.clauses()
                    );
                    match (target == Lit::FALSE, closed, expected) {
                        (true, true, _) => inductive += 1,
                        (true, false, _) => not_inductive += 1,
                        (false, true, true) => proven += 1,
                        (false, true, false) => not_implied += 1,
                        (false, false, _) => {}
                    }
                }
            }
        }
        for (what, count) in [
            ("inductive", inductive),
            ("non-inductive", not_inductive),
            ("proving", proven),
            ("non-implying", not_implied),
        ] {
            assert!(count >= 20, "only {count} {what} clause sets");
        }
    }
}
