//! Time-frame expansion of an AIG into CNF (Tseitin encoding).
//!
//! The [`Unroller`] incrementally unrolls a sequential AIG into a growing SAT
//! instance: frame 0 constrains latches to their initial values, and each new
//! frame connects latch inputs to the previous frame's next-state functions.
//! The same unroller serves bounded model checking, k-induction (where the
//! initial-state constraint is omitted) and the liveness-to-safety loop
//! checks.

use crate::aig::{Aig, Lit, Node};
use crate::sat::{SatLit, Solver, SolverConfig, SolverStats, Var};

/// The frame-map entry of an AIG node not yet encoded in that frame.
const NOT_ENCODED: Var = Var::MAX;

/// Incremental time-frame expansion of an [`Aig`] into a [`Solver`].
#[derive(Debug)]
pub struct Unroller<'a> {
    aig: &'a Aig,
    solver: Solver,
    /// For each frame, the SAT variable of every AIG node, indexed by node
    /// (`NOT_ENCODED` until the node is encoded in that frame).  The AIG is
    /// borrowed immutably, so its node count is fixed.
    frames: Vec<Vec<Var>>,
    /// Whether frame 0 constrains latches to their initial values.
    constrain_init: bool,
}

impl<'a> Unroller<'a> {
    /// Creates an unroller.  When `constrain_init` is `true`, frame 0 fixes
    /// every latch to its initial value (the normal BMC configuration); when
    /// `false`, frame-0 latches are free (used for the inductive step of
    /// k-induction).
    pub fn new(aig: &'a Aig, constrain_init: bool) -> Self {
        Unroller::with_config(aig, constrain_init, SolverConfig::default())
    }

    /// Like [`Unroller::new`], with an explicit solver feature
    /// configuration (used by the differential suite to toggle
    /// restarts/minimization/reduction).
    pub fn with_config(aig: &'a Aig, constrain_init: bool, config: SolverConfig) -> Self {
        let mut solver = Solver::with_config(config);
        // The first variable is fixed true.  Nothing reads it, but every engine's
        // search (and the pinned solver statistics) depends on the variable
        // numbering it starts.
        let true_var = solver.new_var();
        solver.add_clause(&[SatLit::pos(true_var)]);
        Unroller {
            aig,
            solver,
            frames: Vec::new(),
            constrain_init,
        }
    }

    /// The cumulative search counters of the underlying solver.
    pub fn stats(&self) -> SolverStats {
        self.solver.stats
    }

    /// Installs a cooperative preemption handle on the underlying solver
    /// (see [`Solver::set_interrupt`]).  Callers that arm one must check
    /// `Interrupt::triggered` after every query before trusting its
    /// answer: the boolean [`Unroller::solve_with`] reports an
    /// interrupted query as "not satisfiable".
    pub fn set_interrupt(&mut self, interrupt: crate::interrupt::Interrupt) {
        self.solver.set_interrupt(interrupt);
    }

    /// Allocates a fresh SAT variable in the underlying solver without tying
    /// it to any AIG node (activation literals, helper encodings).
    pub fn new_var(&mut self) -> crate::sat::Var {
        self.solver.new_var()
    }

    /// Solves under raw SAT-literal assumptions, exposing the solver-level
    /// answer (and, through [`Unroller::unsat_core`], the final conflict).
    pub fn solve_sat(&mut self, assumptions: &[SatLit]) -> crate::sat::SatResult {
        self.solver.solve(assumptions)
    }

    /// The final conflict of the last unsatisfiable [`Unroller::solve_sat`]
    /// query: the subset of the assumed literals the conflict depended on.
    pub fn unsat_core(&self) -> &[SatLit] {
        self.solver.unsat_core()
    }

    /// Garbage-collects the underlying solver's clause database (see
    /// [`Solver::simplify`]); returns `(clauses_removed, literals_removed)`.
    pub fn simplify(&mut self) -> (usize, usize) {
        self.solver.simplify()
    }

    /// The model value of a raw SAT literal after a satisfiable query
    /// (defaults to `false` for irrelevant variables).
    pub fn sat_value(&self, lit: SatLit) -> bool {
        let var_value = self.solver.value(lit.var()).unwrap_or(false);
        var_value == lit.is_positive()
    }

    /// Ensures at least `n + 1` frames exist (frames `0..=n`).
    pub fn ensure_frame(&mut self, n: usize) {
        while self.frames.len() <= n {
            self.push_frame();
        }
    }

    fn push_frame(&mut self) {
        let frame_idx = self.frames.len();
        self.frames.push(vec![NOT_ENCODED; self.aig.num_nodes()]);
        // Latch variables for this frame.
        for latch in self.aig.latches() {
            let var = self.solver.new_var();
            self.frames[frame_idx][latch.node] = var;
            if frame_idx == 0 {
                if self.constrain_init {
                    self.solver.add_clause(&[SatLit::new(var, latch.init)]);
                }
            } else {
                // Connect to the previous frame's next-state function.
                let prev_next = self.lit_in_frame(latch.next, frame_idx - 1);
                let cur = SatLit::pos(var);
                self.solver.add_clause(&[prev_next.negate(), cur]);
                self.solver.add_clause(&[prev_next, cur.negate()]);
            }
        }
    }

    /// Returns the SAT literal for an AIG literal evaluated in `frame`.
    ///
    /// The frame is created if needed; AND gates are Tseitin-encoded lazily
    /// and memoized per frame.
    pub fn lit_in_frame(&mut self, lit: Lit, frame: usize) -> SatLit {
        self.ensure_frame(frame);
        let var = self.node_var(lit.node(), frame);
        SatLit::new(var, !lit.is_inverted())
    }

    fn node_var(&mut self, node: usize, frame: usize) -> Var {
        let v = self.frames[frame][node];
        if v != NOT_ENCODED {
            return v;
        }
        let var = match self.aig.node(node) {
            Node::False => self.false_var(),
            Node::Input => self.solver.new_var(),
            Node::Latch => {
                // Latch variables are created eagerly in push_frame.
                unreachable!("latch variable missing from frame {frame}")
            }
            Node::And(a, b) => {
                let va = self.lit_in_frame(a, frame);
                let vb = self.lit_in_frame(b, frame);
                let v = self.solver.new_var();
                let out = SatLit::pos(v);
                // out <-> va & vb
                self.solver.add_clause(&[out.negate(), va]);
                self.solver.add_clause(&[out.negate(), vb]);
                self.solver.add_clause(&[va.negate(), vb.negate(), out]);
                v
            }
        };
        self.frames[frame][node] = var;
        var
    }

    fn false_var(&mut self) -> Var {
        // Reuse the constant-true variable: node 0 is FALSE, so its variable
        // must be forced false.  We instead return a dedicated variable bound
        // to false once.
        // (Handled by mapping node 0 to !true_var at call sites via lit
        // polarity: node 0 var is a fresh var forced to false.)
        let v = self.solver.new_var();
        self.solver.add_clause(&[SatLit::neg(v)]);
        v
    }

    /// Adds a clause over already-created SAT literals.
    pub fn add_clause(&mut self, lits: &[SatLit]) {
        self.solver.add_clause(lits);
    }

    /// Allocates a fresh, unconstrained SAT literal (used by callers to build
    /// helper encodings such as the simple-path constraints of k-induction).
    pub fn new_free_lit(&mut self) -> SatLit {
        SatLit::pos(self.solver.new_var())
    }

    /// Forces an AIG literal to a value in a given frame (as a permanent
    /// constraint).
    pub fn constrain(&mut self, lit: Lit, frame: usize, value: bool) {
        let sl = self.lit_in_frame(lit, frame);
        let sl = if value { sl } else { sl.negate() };
        self.solver.add_clause(&[sl]);
    }

    /// Solves under the given AIG-literal assumptions (each `(lit, frame,
    /// value)` is assumed, not asserted).
    ///
    /// Returns `true` only for a completed satisfiable answer.  Both
    /// `Unsat` and `Interrupted` collapse to `false` here — when an
    /// interrupt handle is armed (see [`Unroller::set_interrupt`]), the
    /// caller must consult `Interrupt::triggered` after the call before
    /// reading `false` as a proof of unsatisfiability.
    pub fn solve_with(&mut self, assumptions: &[(Lit, usize, bool)]) -> bool {
        let sat_assumptions: Vec<SatLit> = assumptions
            .iter()
            .map(|&(lit, frame, value)| {
                let sl = self.lit_in_frame(lit, frame);
                if value {
                    sl
                } else {
                    sl.negate()
                }
            })
            .collect();
        matches!(
            self.solver.solve(&sat_assumptions),
            crate::sat::SatResult::Sat
        )
    }

    /// After a satisfiable query, returns the model value of an AIG literal
    /// in a frame (defaulting to `false` when irrelevant).
    pub fn model_value(&mut self, lit: Lit, frame: usize) -> bool {
        let sl = self.lit_in_frame(lit, frame);
        let var_value = self.solver.value(sl.var()).unwrap_or(false);
        if sl.is_positive() {
            var_value
        } else {
            !var_value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-bit counter that wraps; bit pattern `11` is reachable at frame 3.
    fn counter_aig() -> (Aig, Lit, Lit) {
        let mut aig = Aig::new();
        let b0 = aig.add_latch("b0", false);
        let b1 = aig.add_latch("b1", false);
        // next_b0 = !b0 ; next_b1 = b1 ^ b0
        let n0 = aig.not(b0);
        let n1 = aig.xor(b1, b0);
        aig.set_latch_next(b0, n0);
        aig.set_latch_next(b1, n1);
        (aig, b0, b1)
    }

    #[test]
    fn counter_reaches_three_at_frame_three() {
        let (aig, b0, b1) = counter_aig();
        let mut unroller = Unroller::new(&aig, true);
        // Frame 0: 00, frame 1: 01, frame 2: 10, frame 3: 11.
        let both = |u: &mut Unroller, f: usize| u.solve_with(&[(b0, f, true), (b1, f, true)]);
        assert!(!both(&mut unroller, 0));
        assert!(!both(&mut unroller, 1));
        assert!(!both(&mut unroller, 2));
        assert!(both(&mut unroller, 3));
    }

    #[test]
    fn model_values_follow_counter_sequence() {
        let (aig, b0, b1) = counter_aig();
        let mut unroller = Unroller::new(&aig, true);
        assert!(unroller.solve_with(&[(b0, 3, true), (b1, 3, true)]));
        // At frame 1 the counter must be 01.
        assert!(unroller.model_value(b0, 1));
        assert!(!unroller.model_value(b1, 1));
        // At frame 2 the counter must be 10.
        assert!(!unroller.model_value(b0, 2));
        assert!(unroller.model_value(b1, 2));
    }

    #[test]
    fn without_init_constraint_any_state_is_reachable_at_frame_zero() {
        let (aig, b0, b1) = counter_aig();
        let mut unroller = Unroller::new(&aig, false);
        assert!(unroller.solve_with(&[(b0, 0, true), (b1, 0, true)]));
    }

    #[test]
    fn inputs_are_free() {
        let mut aig = Aig::new();
        let inp = aig.add_input("x");
        let q = aig.add_latch("q", false);
        aig.set_latch_next(q, inp);
        let mut unroller = Unroller::new(&aig, true);
        // q at frame 1 can be either value depending on the input.
        assert!(unroller.solve_with(&[(q, 1, true)]));
        assert!(unroller.solve_with(&[(q, 1, false)]));
        // But at frame 0 it is fixed to its init value.
        assert!(!unroller.solve_with(&[(q, 0, true)]));
    }

    #[test]
    fn constrain_fixes_values() {
        let mut aig = Aig::new();
        let inp = aig.add_input("x");
        let q = aig.add_latch("q", false);
        aig.set_latch_next(q, inp);
        let mut unroller = Unroller::new(&aig, true);
        unroller.constrain(inp, 0, false);
        assert!(!unroller.solve_with(&[(q, 1, true)]));
    }

    #[test]
    fn constant_literals_translate() {
        let aig = Aig::new();
        let mut unroller = Unroller::new(&aig, true);
        assert!(unroller.solve_with(&[(Lit::TRUE, 0, true)]));
        assert!(!unroller.solve_with(&[(Lit::TRUE, 0, false)]));
        assert!(!unroller.solve_with(&[(Lit::FALSE, 0, true)]));
    }
}
