//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! The solver is written from scratch for this reproduction: the bounded
//! model checker produces CNF instances in the tens of thousands of clauses
//! for the evaluated designs, which a watched-literal CDCL solver with
//! activity-based decisions handles comfortably.
//!
//! Features: two-watched-literal propagation, first-UIP conflict analysis
//! with clause learning, recursive learnt-clause minimization, VSIDS
//! variable activities on an indexed binary max-heap, phase saving,
//! Luby-sequence restarts, glue (LBD) tracking with periodic learnt-clause
//! database reduction, non-chronological backtracking, and incremental
//! solving under assumptions with final-conflict unsat cores.
//!
//! The search-loop features can be toggled individually through
//! [`SolverConfig`] (used by the differential test-suite and the solver
//! ablation bench); [`SolverStats`] exposes the counters that let the
//! verification report attribute runtime to solver work.

use std::fmt;

/// A propositional variable, numbered from 0.
pub type Var = usize;

/// A literal: a variable with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SatLit(u32);

impl SatLit {
    /// Creates a literal for `var` with the given polarity (`true` =
    /// positive).
    pub fn new(var: Var, positive: bool) -> SatLit {
        SatLit((var as u32) << 1 | u32::from(!positive))
    }

    /// Creates the positive literal of `var`.
    pub fn pos(var: Var) -> SatLit {
        SatLit::new(var, true)
    }

    /// Creates the negative literal of `var`.
    pub fn neg(var: Var) -> SatLit {
        SatLit::new(var, false)
    }

    /// The variable of this literal.
    pub fn var(self) -> Var {
        (self.0 >> 1) as usize
    }

    /// `true` if the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> SatLit {
        SatLit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SatLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var() + 1)
        } else {
            write!(f, "-{}", self.var() + 1)
        }
    }
}

/// Result of a satisfiability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment exists (retrieve it with
    /// [`Solver::value`]).
    Sat,
    /// No satisfying assignment exists under the given assumptions.
    Unsat,
    /// The search was preempted by the solver's [`Interrupt`] handle
    /// (deadline, step budget or cancellation) before reaching an
    /// answer.  The solver state stays valid — a later `solve` call may
    /// still conclude — but callers must never treat this as either
    /// verdict.
    ///
    /// [`Interrupt`]: crate::interrupt::Interrupt
    Interrupted,
}

/// Toggles for the modern search-loop techniques.
///
/// All features default to on; the differential tests and the solver
/// ablation bench flip them individually to show that every configuration
/// reaches the same verdicts (and what each feature contributes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Luby-sequence restarts (phases are saved, so restarts are cheap).
    pub restarts: bool,
    /// Recursive learnt-clause minimization after first-UIP analysis.
    pub minimize: bool,
    /// Periodic glue/activity-guided learnt-clause database reduction.
    pub reduce: bool,
    /// Base restart interval in conflicts (scaled by the Luby sequence).
    pub restart_base: u32,
    /// Live learnt-clause count that triggers the first `reduce_db` pass
    /// (the ceiling then grows geometrically).
    pub reduce_base: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            restarts: true,
            minimize: true,
            reduce: true,
            restart_base: 100,
            reduce_base: 2000,
        }
    }
}

impl SolverConfig {
    /// The MiniSat-era baseline: clause learning and VSIDS only, none of
    /// the modern search-loop features.
    pub fn baseline() -> Self {
        SolverConfig {
            restarts: false,
            minimize: false,
            reduce: false,
            ..SolverConfig::default()
        }
    }
}

/// Search-loop counters, cumulative over the lifetime of a [`Solver`].
///
/// Aggregated across engine stages by the checker so the verification
/// report can attribute per-property runtime to solver work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts seen.
    pub conflicts: u64,
    /// Decisions made (including assumption levels).
    pub decisions: u64,
    /// Literal propagations.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses recorded.
    pub learnt: u64,
    /// Learnt clauses surviving `reduce_db` passes (cumulative over passes).
    pub learnt_kept: u64,
    /// Learnt clauses evicted by `reduce_db`.
    pub learnt_deleted: u64,
    /// Literals removed from learnt clauses by recursive minimization.
    pub minimized_lits: u64,
    /// `reduce_db` passes run.
    pub reductions: u64,
}

impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, o: SolverStats) {
        self.conflicts += o.conflicts;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.restarts += o.restarts;
        self.learnt += o.learnt;
        self.learnt_kept += o.learnt_kept;
        self.learnt_deleted += o.learnt_deleted;
        self.minimized_lits += o.minimized_lits;
        self.reductions += o.reductions;
    }
}

impl std::ops::Add for SolverStats {
    type Output = SolverStats;
    fn add(mut self, o: SolverStats) -> SolverStats {
        self += o;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assign {
    Unassigned,
    True,
    False,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<SatLit>,
    learnt: bool,
    /// Literal-block distance ("glue"): distinct decision levels in the
    /// clause at learn time.  Low-glue clauses are kept forever.
    lbd: u32,
    /// Clause activity (bumped when the clause resolves a conflict).
    act: f64,
}

/// An indexed binary max-heap over variables, keyed by activity.
///
/// `pos[v]` is the heap slot of `v` (or `NOT_IN_HEAP`), so membership tests
/// and re-heapify-on-bump are O(1)/O(log n) — replacing the previous lazy
/// `BinaryHeap` of stale entries and its O(n) fallback scan.
#[derive(Debug, Clone, Default)]
struct VarHeap {
    heap: Vec<Var>,
    pos: Vec<usize>,
}

const NOT_IN_HEAP: usize = usize::MAX;

impl VarHeap {
    fn grow(&mut self) {
        self.pos.push(NOT_IN_HEAP);
    }

    fn contains(&self, v: Var) -> bool {
        self.pos[v] != NOT_IN_HEAP
    }

    /// Max-heap order: higher activity first, ties broken toward the lower
    /// variable index (a total order, so runs are deterministic).
    fn less(a: Var, b: Var, act: &[f64]) -> bool {
        act[a] < act[b] || (act[a] == act[b] && a > b)
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i]] = i;
        self.pos[self.heap[j]] = j;
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::less(self.heap[parent], self.heap[i], act) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut largest = i;
            if l < self.heap.len() && Self::less(self.heap[largest], self.heap[l], act) {
                largest = l;
            }
            if r < self.heap.len() && Self::less(self.heap[largest], self.heap[r], act) {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.swap(i, largest);
            i = largest;
        }
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    /// Restores heap order after `v`'s activity increased.
    fn bumped(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v], act);
        }
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        self.pos[top] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use autosva_formal::sat::{SatLit, SatResult, Solver};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var();
/// let b = solver.new_var();
/// solver.add_clause(&[SatLit::pos(a), SatLit::pos(b)]);
/// solver.add_clause(&[SatLit::neg(a)]);
/// assert_eq!(solver.solve(&[]), SatResult::Sat);
/// assert_eq!(solver.value(b), Some(true));
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    num_vars: usize,
    clauses: Vec<Clause>,
    /// watches[lit.index()] = clause indices watching that literal.
    watches: Vec<Vec<usize>>,
    assigns: Vec<Assign>,
    /// Decision level at which each variable was assigned.
    levels: Vec<usize>,
    /// Clause that implied each variable (by index), usize::MAX for decisions.
    reasons: Vec<usize>,
    /// Assignment trail.
    trail: Vec<SatLit>,
    /// Index into the trail where each decision level starts.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    qhead: usize,
    /// VSIDS activities.
    activity: Vec<f64>,
    act_inc: f64,
    /// Clause-activity increment (for learnt-clause reduction ranking).
    cla_inc: f64,
    /// Saved phases for phase saving.
    phase: Vec<bool>,
    /// Indexed max-activity heap of decision candidates.
    order: VarHeap,
    /// Scratch: conflict-analysis marks (indexed by variable).
    seen: Vec<bool>,
    /// Scratch: variables whose `seen` mark must be cleared after analysis.
    analyze_toclear: Vec<Var>,
    /// Scratch: DFS stack of the recursive clause minimization.
    min_stack: Vec<Var>,
    /// Scratch: per-decision-level stamps for LBD computation.
    lbd_stamp: Vec<u64>,
    lbd_counter: u64,
    /// Live learnt-clause count (maintained across learning and rebuilds).
    num_learnts: usize,
    /// Learnt-clause ceiling for the next `reduce_db` (0 = not yet set).
    max_learnts: usize,
    /// Restart bookkeeping: position in the Luby sequence and the conflict
    /// count at which the next restart fires.
    restart_seq: u64,
    restart_next: u64,
    /// Set to true when the clause database is unsatisfiable at level 0.
    unsat: bool,
    /// After an `Unsat` answer: the subset of the assumption literals that
    /// sufficed for unsatisfiability (the *final conflict*).
    core: Vec<SatLit>,
    /// Search-loop feature toggles.
    pub config: SolverConfig,
    /// Cumulative search counters.
    pub stats: SolverStats,
    /// Cooperative preemption handle, polled every
    /// [`INTERRUPT_POLL_INTERVAL`] search-loop iterations.  Disarmed by
    /// default (one branch per poll site).
    interrupt: crate::interrupt::Interrupt,
    /// Conflicts already charged against the interrupt's step budget.
    /// The search loop charges at its poll cadence; [`Solver::solve`]
    /// charges the remainder on exit, so the counter equals
    /// `stats.conflicts` at every query boundary and nothing is ever
    /// charged twice.
    conflicts_charged: u64,
}

const NO_REASON: usize = usize::MAX;

/// Search-loop iterations between interrupt polls.  Power of two so the
/// cadence check is a mask; coarse enough that the `Instant::now` in
/// `Interrupt::poll` is amortized to noise, fine enough that a 50 ms
/// deadline preempts a solve within a small multiple of itself.
pub(crate) const INTERRUPT_POLL_INTERVAL: u64 = 1024;

/// Propagations between interrupt polls.  The iteration cadence alone lets
/// propagation-heavy, conflict-light instances run long stretches between
/// polls (one iteration may propagate an arbitrarily long trail), which is
/// how a solve could historically overshoot its deadline well past the
/// documented small multiple; counting propagations bounds the work
/// between polls regardless of the conflict rate.
const PROPAGATION_POLL_INTERVAL: u64 = 1 << 14;

impl Solver {
    /// Creates an empty solver with the default configuration.
    pub fn new() -> Self {
        Solver {
            act_inc: 1.0,
            cla_inc: 1.0,
            config: SolverConfig::default(),
            ..Solver::default()
        }
    }

    /// Creates an empty solver with the given feature configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            config,
            ..Solver::new()
        }
    }

    /// Installs the cooperative preemption handle.  The search loop
    /// polls it every `INTERRUPT_POLL_INTERVAL` iterations and charges
    /// accumulated conflicts against its step budget; when it fires,
    /// `solve` returns [`SatResult::Interrupted`].
    pub fn set_interrupt(&mut self, interrupt: crate::interrupt::Interrupt) {
        self.interrupt = interrupt;
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses (original plus learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of live learnt clauses.
    pub fn num_learnts(&self) -> usize {
        self.num_learnts
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.num_vars;
        self.num_vars += 1;
        self.assigns.push(Assign::Unassigned);
        self.levels.push(0);
        self.reasons.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.seen.push(false);
        self.order.grow();
        self.order.insert(v, &self.activity);
        v
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Adding an empty clause, or a clause that is falsified at decision
    /// level 0, makes the instance permanently unsatisfiable.  Adding a
    /// clause after a satisfiable query invalidates the previous model (the
    /// solver returns to decision level 0 first).
    pub fn add_clause(&mut self, lits: &[SatLit]) {
        if self.unsat {
            return;
        }
        if !self.trail_lim.is_empty() {
            self.backtrack(0);
        }
        // Simplify: remove duplicates and satisfied/false literals at level 0.
        let mut simplified: Vec<SatLit> = Vec::with_capacity(lits.len());
        for &lit in lits {
            match self.lit_value(lit) {
                Some(true) => return, // already satisfied
                Some(false) => continue,
                None => {
                    if simplified.contains(&lit.negate()) {
                        return; // tautology
                    }
                    if !simplified.contains(&lit) {
                        simplified.push(lit);
                    }
                }
            }
        }
        match simplified.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(simplified[0], NO_REASON) || self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                let idx = self.clauses.len();
                self.watch(simplified[0], idx);
                self.watch(simplified[1], idx);
                self.clauses.push(Clause {
                    lits: simplified,
                    learnt: false,
                    lbd: 0,
                    act: 0.0,
                });
            }
        }
    }

    fn watch(&mut self, lit: SatLit, clause: usize) {
        self.watches[lit.index()].push(clause);
    }

    fn lit_value(&self, lit: SatLit) -> Option<bool> {
        match self.assigns[lit.var()] {
            Assign::Unassigned => None,
            Assign::True => Some(lit.is_positive()),
            Assign::False => Some(!lit.is_positive()),
        }
    }

    /// The model value of `var` after a [`SatResult::Sat`] answer.
    ///
    /// Returns `None` if the variable was irrelevant (never assigned).
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.assigns[var] {
            Assign::Unassigned => None,
            Assign::True => Some(true),
            Assign::False => Some(false),
        }
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn enqueue(&mut self, lit: SatLit, reason: usize) -> bool {
        match self.lit_value(lit) {
            Some(true) => true,
            Some(false) => false,
            None => {
                let v = lit.var();
                self.assigns[v] = if lit.is_positive() {
                    Assign::True
                } else {
                    Assign::False
                };
                self.levels[v] = self.decision_level();
                self.reasons[v] = reason;
                self.phase[v] = lit.is_positive();
                self.trail.push(lit);
                true
            }
        }
    }

    /// Unit propagation.  Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let falsified = lit.negate();
            let mut watchers = std::mem::take(&mut self.watches[falsified.index()]);
            let mut i = 0;
            while i < watchers.len() {
                let ci = watchers[i];
                // Ensure the falsified literal is in position 1.
                let (w0, w1) = {
                    let c = &mut self.clauses[ci];
                    if c.lits[0] == falsified {
                        c.lits.swap(0, 1);
                    }
                    (c.lits[0], c.lits[1])
                };
                debug_assert_eq!(w1, falsified);
                // If the other watched literal is true, the clause is satisfied.
                if self.lit_value(w0) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut found = false;
                let len = self.clauses[ci].lits.len();
                for k in 2..len {
                    let cand = self.clauses[ci].lits[k];
                    if self.lit_value(cand) != Some(false) {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[cand.index()].push(ci);
                        watchers.swap_remove(i);
                        found = true;
                        break;
                    }
                }
                if found {
                    continue;
                }
                // Clause is unit or conflicting.
                if !self.enqueue(w0, ci) {
                    // Conflict: restore remaining watchers and report.
                    self.watches[falsified.index()].append(&mut watchers);
                    return Some(ci);
                }
                i += 1;
            }
            self.watches[falsified.index()] = watchers;
        }
        None
    }

    fn bump_activity(&mut self, var: Var) {
        self.activity[var] += self.act_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
        self.order.bumped(var, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.act_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    fn bump_clause(&mut self, ci: usize) {
        if !self.clauses[ci].learnt {
            return;
        }
        self.clauses[ci].act += self.cla_inc;
        if self.clauses[ci].act > 1e20 {
            for c in &mut self.clauses {
                if c.learnt {
                    c.act *= 1e-20;
                }
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Literal-block distance of a clause under the current assignment: the
    /// number of distinct decision levels among its literals.
    fn compute_lbd(&mut self, lits: &[SatLit]) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut lbd = 0;
        for &l in lits {
            let lv = self.levels[l.var()];
            if lv >= self.lbd_stamp.len() {
                self.lbd_stamp.resize(lv + 1, 0);
            }
            if self.lbd_stamp[lv] != stamp {
                self.lbd_stamp[lv] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// First-UIP conflict analysis.  Returns the learnt clause (asserting
    /// literal in position 0, a watchable highest-level literal in position
    /// 1) and the level to backtrack to.
    ///
    /// When [`SolverConfig::minimize`] is on, the learnt clause is shrunk by
    /// recursive minimization: a literal is dropped when its reason-graph
    /// antecedents are all (transitively) already implied by the remaining
    /// clause literals.
    fn analyze(&mut self, conflict: usize) -> (Vec<SatLit>, usize) {
        let mut learnt: Vec<SatLit> = vec![SatLit::pos(0)]; // placeholder for the asserting literal
        self.analyze_toclear.clear();
        let mut counter = 0usize;
        let mut lit_opt: Option<SatLit> = None;
        let mut clause_idx = conflict;
        let mut trail_pos = self.trail.len();
        let current_level = self.decision_level();

        loop {
            self.bump_clause(clause_idx);
            // Skip position 0 of reason clauses: it holds the implied
            // literal being resolved on (established at enqueue time and
            // stable while the clause is a reason).
            let start = if lit_opt.is_none() { 0 } else { 1 };
            let len = self.clauses[clause_idx].lits.len();
            for k in start..len {
                let q = self.clauses[clause_idx].lits[k];
                let v = q.var();
                if !self.seen[v] && self.levels[v] > 0 {
                    self.seen[v] = true;
                    self.analyze_toclear.push(v);
                    self.bump_activity(v);
                    if self.levels[v] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal on the trail to resolve on.  Marks stay
            // set (the minimization pass below reads them); positions
            // strictly decrease, so each variable is resolved at most once.
            loop {
                trail_pos -= 1;
                let lit = self.trail[trail_pos];
                if self.seen[lit.var()] && self.levels[lit.var()] >= current_level {
                    lit_opt = Some(lit);
                    break;
                }
            }
            let p = lit_opt.expect("resolution literal");
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.negate();
                break;
            }
            clause_idx = self.reasons[p.var()];
            debug_assert_ne!(clause_idx, NO_REASON);
        }

        if self.config.minimize {
            self.minimize_learnt(&mut learnt);
        }

        // Clear the analysis marks (including any set during minimization).
        for i in 0..self.analyze_toclear.len() {
            let v = self.analyze_toclear[i];
            self.seen[v] = false;
        }

        // Backtrack level: second-highest level in the learnt clause.
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.levels[learnt[i].var()] > self.levels[learnt[max_i].var()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.levels[learnt[1].var()]
        };
        (learnt, backtrack_level)
    }

    /// Recursive learnt-clause minimization (MiniSat's `litRedundant`):
    /// drops clause literals whose entire reason graph is absorbed by the
    /// remaining literals.  Shorter clauses propagate faster and yield
    /// smaller PDR unsat cores.
    fn minimize_learnt(&mut self, learnt: &mut Vec<SatLit>) {
        let mut abstract_levels: u32 = 0;
        for l in &learnt[1..] {
            abstract_levels |= 1u32 << (self.levels[l.var()] & 31);
        }
        let mut idx = 1;
        while idx < learnt.len() {
            let v = learnt[idx].var();
            if self.reasons[v] != NO_REASON && self.lit_redundant(v, abstract_levels) {
                learnt.swap_remove(idx);
                self.stats.minimized_lits += 1;
            } else {
                idx += 1;
            }
        }
    }

    /// `true` when every antecedent of `v` is (transitively) implied by
    /// literals already marked `seen` — i.e. the learnt clause without `v`
    /// still covers the conflict.
    fn lit_redundant(&mut self, v: Var, abstract_levels: u32) -> bool {
        self.min_stack.clear();
        self.min_stack.push(v);
        let top = self.analyze_toclear.len();
        while let Some(u) = self.min_stack.pop() {
            let reason = self.reasons[u];
            debug_assert_ne!(reason, NO_REASON);
            let len = self.clauses[reason].lits.len();
            for k in 0..len {
                let q = self.clauses[reason].lits[k];
                let qv = q.var();
                if qv != u && !self.seen[qv] && self.levels[qv] > 0 {
                    let has_reason = self.reasons[qv] != NO_REASON;
                    let level_ok = (1u32 << (self.levels[qv] & 31)) & abstract_levels != 0;
                    if has_reason && level_ok {
                        self.seen[qv] = true;
                        self.analyze_toclear.push(qv);
                        self.min_stack.push(qv);
                    } else {
                        // A decision (or a level outside the clause) feeds
                        // this literal: not redundant.  Undo the
                        // speculative marks of this probe.
                        for i in top..self.analyze_toclear.len() {
                            let w = self.analyze_toclear[i];
                            self.seen[w] = false;
                        }
                        self.analyze_toclear.truncate(top);
                        return false;
                    }
                }
            }
        }
        true
    }

    /// MiniSat-style `analyzeFinal`: starting from the literals of a
    /// falsified clause (or a failed assumption), walks the implication
    /// graph back to the assumption decisions that entail the conflict.
    ///
    /// Must run before backtracking, while levels/reasons/trail are intact.
    /// Returns the subset of the assumption literals responsible.
    fn analyze_final(&mut self, failed: SatLit) -> Vec<SatLit> {
        if self.decision_level() == 0 {
            return Vec::new();
        }
        self.analyze_toclear.clear();
        let v = failed.var();
        if self.levels[v] > 0 {
            self.seen[v] = true;
            self.analyze_toclear.push(v);
        }
        self.analyze_final_walk()
    }

    /// [`Solver::analyze_final`] seeded with the literals of a falsified
    /// clause, read in place (no clause clone on the conflict path).
    fn analyze_final_clause(&mut self, conflict: usize) -> Vec<SatLit> {
        if self.decision_level() == 0 {
            return Vec::new();
        }
        self.analyze_toclear.clear();
        let len = self.clauses[conflict].lits.len();
        for k in 0..len {
            let lit = self.clauses[conflict].lits[k];
            let v = lit.var();
            if self.levels[v] > 0 && !self.seen[v] {
                self.seen[v] = true;
                self.analyze_toclear.push(v);
            }
        }
        self.analyze_final_walk()
    }

    fn analyze_final_walk(&mut self) -> Vec<SatLit> {
        let mut core = Vec::new();
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            if !self.seen[v] {
                continue;
            }
            let reason = self.reasons[v];
            if reason == NO_REASON {
                // A decision below the assumption prefix: by construction
                // every decision reached here is an assumption literal.
                core.push(lit);
            } else {
                // Mark the antecedents (the implied literal itself is `v`,
                // which is already seen, so marking the whole clause is
                // safe regardless of watched-literal reordering).
                for j in 0..self.clauses[reason].lits.len() {
                    let q = self.clauses[reason].lits[j];
                    let qv = q.var();
                    if qv != v && self.levels[qv] > 0 && !self.seen[qv] {
                        self.seen[qv] = true;
                        self.analyze_toclear.push(qv);
                    }
                }
            }
        }
        for i in 0..self.analyze_toclear.len() {
            let v = self.analyze_toclear[i];
            self.seen[v] = false;
        }
        core
    }

    fn backtrack(&mut self, level: usize) {
        while self.decision_level() > level {
            let start = self.trail_lim.pop().expect("trail limit");
            while self.trail.len() > start {
                let lit = self.trail.pop().expect("trail entry");
                let v = lit.var();
                self.assigns[v] = Assign::Unassigned;
                self.reasons[v] = NO_REASON;
                self.order.insert(v, &self.activity);
            }
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v] == Assign::Unassigned {
                return Some(v);
            }
        }
        // Every unassigned variable sits in the heap by construction; the
        // scan is pure insurance against an invariant slip.
        (0..self.num_vars).find(|&v| self.assigns[v] == Assign::Unassigned)
    }

    /// Garbage-collects the clause database at decision level 0.
    ///
    /// Removes every clause satisfied at level 0 — which is how clauses
    /// guarded by a *retired* activation literal (the PDR pattern: assert
    /// the negated activation as a unit) and stale learnt clauses leave the
    /// database for good — and deletes level-0-falsified literals from the
    /// clauses that remain, rebuilding the watch lists from scratch.
    ///
    /// Semantically a no-op: unit propagation already treats satisfied
    /// clauses and false literals as inert; this reclaims the memory and
    /// the watch-list traversal cost.  Returns `(clauses_removed,
    /// literals_removed)`.
    pub fn simplify(&mut self) -> (usize, usize) {
        if self.unsat {
            return (0, 0);
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return (0, 0);
        }
        self.rebuild_db(&[])
    }

    /// Evicts high-glue, low-activity learnt clauses once the live learnt
    /// count crosses the ceiling.  Clauses with glue ≤ 2 and binary clauses
    /// are kept unconditionally; of the rest, the worse half (by glue, then
    /// activity) is dropped.  Runs at decision level 0, where no surviving
    /// reason references a learnt clause, so the database can be compacted
    /// in place.
    fn reduce_db(&mut self) {
        self.stats.reductions += 1;
        let mut candidates: Vec<(u32, f64, usize)> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && c.lits.len() > 2 && c.lbd > 2)
            .map(|(i, c)| (c.lbd, c.act, i))
            .collect();
        // Worst first: highest glue, then lowest activity, then oldest.
        candidates.sort_by(|a, b| {
            b.0.cmp(&a.0)
                .then(a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.2.cmp(&b.2))
        });
        let ndelete = candidates.len() / 2;
        let mut delete = vec![false; self.clauses.len()];
        for &(_, _, i) in candidates.iter().take(ndelete) {
            delete[i] = true;
        }
        self.rebuild_db(&delete);
        self.stats.learnt_kept += self.num_learnts as u64;
    }

    /// Rebuilds the clause database at decision level 0: drops clauses
    /// satisfied at level 0 and those marked in `delete`, strips
    /// level-0-false literals, and rebuilds the watch lists.  `delete` may
    /// be shorter than the clause vector (missing entries mean keep).
    fn rebuild_db(&mut self, delete: &[bool]) -> (usize, usize) {
        debug_assert_eq!(self.decision_level(), 0);
        let old_clauses = std::mem::take(&mut self.clauses);
        for watch_list in &mut self.watches {
            watch_list.clear();
        }
        // Reasons of level-0 assignments may point at clause indices that
        // are about to be compacted away; level-0 literals are never
        // resolved on, so the references can simply be dropped.
        for i in 0..self.trail.len() {
            self.reasons[self.trail[i].var()] = NO_REASON;
        }
        self.num_learnts = 0;
        let mut removed_clauses = 0;
        let mut removed_lits = 0;
        'clauses: for (ci, mut clause) in old_clauses.into_iter().enumerate() {
            if delete.get(ci).copied().unwrap_or(false) {
                removed_clauses += 1;
                self.stats.learnt_deleted += 1;
                continue;
            }
            let mut i = 0;
            while i < clause.lits.len() {
                match self.lit_value(clause.lits[i]) {
                    Some(true) => {
                        removed_clauses += 1;
                        continue 'clauses;
                    }
                    Some(false) => {
                        clause.lits.swap_remove(i);
                        removed_lits += 1;
                    }
                    None => i += 1,
                }
            }
            // After a conflict-free level-0 propagation every surviving
            // clause has at least two unassigned literals; handle the
            // shorter shapes defensively anyway.
            match clause.lits.len() {
                0 => {
                    self.unsat = true;
                    return (removed_clauses, removed_lits);
                }
                1 => {
                    removed_clauses += 1;
                    if !self.enqueue(clause.lits[0], NO_REASON) {
                        self.unsat = true;
                        return (removed_clauses, removed_lits);
                    }
                }
                _ => {
                    let idx = self.clauses.len();
                    self.watch(clause.lits[0], idx);
                    self.watch(clause.lits[1], idx);
                    if clause.learnt {
                        self.num_learnts += 1;
                    }
                    self.clauses.push(clause);
                }
            }
        }
        if self.propagate().is_some() {
            self.unsat = true;
        }
        (removed_clauses, removed_lits)
    }

    /// After an [`SatResult::Unsat`] answer from [`Solver::solve`], the
    /// subset of the assumption literals that sufficed for the conflict (the
    /// *final conflict*).  Empty when the clause database is unsatisfiable
    /// on its own.  This is the core primitive behind activation-literal
    /// based incremental solving: the PDR engine assumes a cube literal per
    /// latch and reads back which of them an UNSAT answer actually used.
    pub fn unsat_core(&self) -> &[SatLit] {
        &self.core
    }

    /// Solves the instance under the given assumptions.
    ///
    /// Assumption literals are forced true for this query only; the clause
    /// database and learnt clauses persist between calls, enabling
    /// incremental use by the bounded model checker and the PDR engine.  On
    /// an [`SatResult::Unsat`] answer, [`Solver::unsat_core`] reports which
    /// assumptions the conflict depended on.
    pub fn solve(&mut self, assumptions: &[SatLit]) -> SatResult {
        let result = self.search(assumptions);
        // The search loop charges the step budget only at its poll
        // cadence, so conflicts spent after the last poll point would
        // otherwise never reach the budget at all — a stream of
        // sub-cadence queries could run forever on an exhausted budget.
        // Charge the tail here: the completed answer stands (the work is
        // already done), but the latch makes the caller's next budget
        // check observe the true spend.
        let tail = self.stats.conflicts - self.conflicts_charged;
        self.conflicts_charged = self.stats.conflicts;
        if tail > 0 {
            self.interrupt.charge(tail);
        }
        result
    }

    fn search(&mut self, assumptions: &[SatLit]) -> SatResult {
        self.core.clear();
        if self.unsat {
            return SatResult::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        if self.restart_next == 0 {
            self.restart_next = u64::from(self.config.restart_base.max(1));
        }
        if self.max_learnts == 0 {
            self.max_learnts = self.config.reduce_base.max(16);
        }
        // An interrupt latched before this query (deadline already past,
        // budget already spent) preempts it outright.
        if self.interrupt.poll().is_some() {
            self.backtrack(0);
            return SatResult::Interrupted;
        }
        let mut iterations: u64 = 0;
        let mut props_polled = self.stats.propagations;

        loop {
            // Cooperative preemption: every INTERRUPT_POLL_INTERVAL loop
            // iterations — or every PROPAGATION_POLL_INTERVAL propagations,
            // whichever comes first — charge the conflicts since the last
            // poll to the step budget and check the deadline/cancel
            // sources.
            iterations += 1;
            if iterations & (INTERRUPT_POLL_INTERVAL - 1) == 0
                || self.stats.propagations.wrapping_sub(props_polled) >= PROPAGATION_POLL_INTERVAL
            {
                props_polled = self.stats.propagations;
                let delta = self.stats.conflicts - self.conflicts_charged;
                self.conflicts_charged = self.stats.conflicts;
                if self.interrupt.charge(delta).is_some() || self.interrupt.poll().is_some() {
                    self.backtrack(0);
                    return SatResult::Interrupted;
                }
            }
            // Luby restart: abandon the current prefix (saved phases make
            // the replay cheap); assumptions are re-applied below.
            if self.config.restarts && self.stats.conflicts >= self.restart_next {
                self.stats.restarts += 1;
                self.restart_seq += 1;
                // `restart_base` is clamped to ≥ 1: a zero interval would
                // restart on every iteration without ever conflicting.
                self.restart_next = self.stats.conflicts
                    + u64::from(self.config.restart_base.max(1)) * luby(self.restart_seq);
                self.backtrack(0);
            }
            // Periodic learnt-clause database reduction (needs level 0:
            // reasons reference clause indices about to be compacted).
            if self.config.reduce && self.num_learnts >= self.max_learnts {
                self.backtrack(0);
                if self.propagate().is_some() {
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                self.reduce_db();
                self.max_learnts += self.max_learnts / 2;
                if self.unsat {
                    return SatResult::Unsat;
                }
            }

            // (Re-)apply assumptions at successive decision levels.
            while self.decision_level() < assumptions.len() {
                let a = assumptions[self.decision_level()];
                match self.lit_value(a) {
                    Some(true) => {
                        // Already satisfied: open an empty decision level so
                        // indexing stays aligned.
                        self.trail_lim.push(self.trail.len());
                    }
                    Some(false) => {
                        // The assumption is falsified by earlier assumptions
                        // (and the clause database): the core is `a` plus
                        // whatever forced its negation.
                        self.core = self.analyze_final(a);
                        if !self.core.contains(&a) {
                            self.core.push(a);
                        }
                        self.backtrack(0);
                        return SatResult::Unsat;
                    }
                    None => {
                        self.trail_lim.push(self.trail.len());
                        self.stats.decisions += 1;
                        let ok = self.enqueue(a, NO_REASON);
                        debug_assert!(ok);
                    }
                }
                if let Some(conflict) = self.propagate() {
                    self.core = self.analyze_final_clause(conflict);
                    self.backtrack(0);
                    return SatResult::Unsat;
                }
            }

            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() <= assumptions.len() {
                    // Conflict that depends only on assumptions (or level 0).
                    self.core = self.analyze_final_clause(conflict);
                    self.backtrack(0);
                    if self.decision_level() == 0 && assumptions.is_empty() {
                        self.unsat = true;
                    }
                    return SatResult::Unsat;
                }
                let (learnt, level) = self.analyze(conflict);
                // The (minimized) learnt clause must still be falsified by
                // the conflicting assignment — the certificate that
                // minimization only dropped redundant literals.
                debug_assert!(
                    learnt.iter().all(|&l| self.lit_value(l) == Some(false)),
                    "learnt clause not falsified at the conflict"
                );
                let lbd = self.compute_lbd(&learnt);
                self.backtrack(level);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    // Unit learnt clause: assert at level 0 so it persists;
                    // assumptions are re-applied by the outer loop.
                    self.backtrack(0);
                    if !self.enqueue(asserting, NO_REASON) {
                        // The implied unit contradicts level 0: the clause
                        // database itself is unsatisfiable.
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                    if self.propagate().is_some() {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                } else {
                    let idx = self.clauses.len();
                    self.watch(learnt[0], idx);
                    self.watch(learnt[1], idx);
                    self.clauses.push(Clause {
                        lits: learnt,
                        learnt: true,
                        lbd,
                        act: 0.0,
                    });
                    self.num_learnts += 1;
                    self.stats.learnt += 1;
                    self.bump_clause(idx);
                    if !self.enqueue(asserting, idx) {
                        self.backtrack(0);
                        return SatResult::Unsat;
                    }
                }
                self.decay_activities();
            } else {
                match self.pick_branch_var() {
                    None => return SatResult::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = SatLit::new(v, self.phase[v]);
                        let ok = self.enqueue(lit, NO_REASON);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
/// (`i` is 1-based).
fn luby(i: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut i = i;
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_encoding() {
        let a = SatLit::pos(3);
        assert_eq!(a.var(), 3);
        assert!(a.is_positive());
        assert!(!a.negate().is_positive());
        assert_eq!(a.negate().negate(), a);
        assert_eq!(a.to_string(), "4");
        assert_eq!(a.negate().to_string(), "-4");
    }

    #[test]
    fn luby_sequence_is_correct() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[SatLit::pos(a)]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[SatLit::pos(a)]);
        s.add_clause(&[SatLit::neg(a)]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        s.add_clause(&[]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn implication_chain() {
        // a -> b -> c -> d, with a forced true: all must be true.
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(&[SatLit::neg(w[0]), SatLit::pos(w[1])]);
        }
        s.add_clause(&[SatLit::pos(vars[0])]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        for &v in &vars {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: unsatisfiable.  Exercises conflict analysis.
        let mut s = Solver::new();
        // p[i][j] = pigeon i in hole j
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        // Every pigeon in some hole.
        for row in &p {
            s.add_clause(&[SatLit::pos(row[0]), SatLit::pos(row[1])]);
        }
        // No two pigeons share a hole.
        for hole in 0..2 {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in p.iter().skip(i1 + 1) {
                    s.add_clause(&[SatLit::neg(row1[hole]), SatLit::neg(row2[hole])]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn solving_under_assumptions_is_incremental() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[SatLit::pos(a), SatLit::pos(b)]);
        // Assuming !a forces b.
        assert_eq!(s.solve(&[SatLit::neg(a)]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        // Assuming !a and !b is unsat.
        assert_eq!(s.solve(&[SatLit::neg(a), SatLit::neg(b)]), SatResult::Unsat);
        // The solver remains usable afterwards.
        assert_eq!(s.solve(&[SatLit::pos(a)]), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn unsat_core_is_a_subset_of_the_assumptions() {
        // (a | b), (!a | c), (!b | c): assuming !c and a is unsat, and the
        // core must not mention the irrelevant assumption d.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let d = s.new_var();
        s.add_clause(&[SatLit::pos(a), SatLit::pos(b)]);
        s.add_clause(&[SatLit::neg(a), SatLit::pos(c)]);
        s.add_clause(&[SatLit::neg(b), SatLit::pos(c)]);
        let assumptions = [SatLit::pos(d), SatLit::neg(c), SatLit::pos(a)];
        assert_eq!(s.solve(&assumptions), SatResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(!core.is_empty());
        for l in &core {
            assert!(assumptions.contains(l), "core literal {l} not assumed");
        }
        assert!(
            !core.contains(&SatLit::pos(d)),
            "irrelevant literal in core"
        );
        // The core itself must be unsatisfiable.
        assert_eq!(s.solve(&core), SatResult::Unsat);
        // The solver stays usable and Sat answers clear the core.
        assert_eq!(s.solve(&[SatLit::pos(c)]), SatResult::Sat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn unsat_core_of_directly_conflicting_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[SatLit::pos(a), SatLit::pos(b)]);
        assert_eq!(s.solve(&[SatLit::pos(a), SatLit::neg(a)]), SatResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&SatLit::pos(a)));
        assert!(core.contains(&SatLit::neg(a)));
    }

    #[test]
    fn unsat_core_empty_when_database_is_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[SatLit::pos(a)]);
        s.add_clause(&[SatLit::neg(a)]);
        assert_eq!(s.solve(&[SatLit::pos(b)]), SatResult::Unsat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn activation_literals_retire_clauses() {
        // The PDR usage pattern: a clause guarded by an activation literal
        // participates only while the activation is assumed, and is retired
        // for good by asserting the negated activation as a unit.
        let mut s = Solver::new();
        let act = s.new_var();
        let x = s.new_var();
        s.add_clause(&[SatLit::neg(act), SatLit::pos(x)]);
        assert_eq!(
            s.solve(&[SatLit::pos(act), SatLit::neg(x)]),
            SatResult::Unsat
        );
        assert_eq!(s.solve(&[SatLit::neg(x)]), SatResult::Sat);
        s.add_clause(&[SatLit::neg(act)]);
        assert_eq!(s.solve(&[SatLit::neg(x)]), SatResult::Sat);
    }

    #[test]
    fn random_cores_are_unsat_subsets() {
        // Random instances solved under random assumptions: every Unsat
        // answer must yield a core that is (a) a subset of the assumptions
        // and (b) itself unsatisfiable.
        let mut seed: u64 = 0xDEADBEEF;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut unsat_seen = 0;
        for _ in 0..60 {
            let num_vars = 8;
            let mut s = Solver::new();
            for _ in 0..num_vars {
                s.new_var();
            }
            for _ in 0..20 {
                let clause: Vec<SatLit> = (0..3)
                    .map(|_| SatLit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                    .collect();
                s.add_clause(&clause);
            }
            let mut assumptions: Vec<SatLit> = (0..4)
                .map(|_| SatLit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                .collect();
            assumptions.dedup_by_key(|l| l.var());
            if s.solve(&assumptions) == SatResult::Unsat {
                unsat_seen += 1;
                let core = s.unsat_core().to_vec();
                for l in &core {
                    assert!(assumptions.contains(l));
                }
                assert_eq!(s.solve(&core), SatResult::Unsat, "core not unsat");
            }
        }
        assert!(unsat_seen > 0, "test never exercised the Unsat path");
    }

    #[test]
    fn simplify_removes_retired_activation_clauses() {
        let mut s = Solver::new();
        let act = s.new_var();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[SatLit::neg(act), SatLit::pos(x)]);
        s.add_clause(&[SatLit::neg(act), SatLit::pos(y)]);
        s.add_clause(&[SatLit::pos(x), SatLit::pos(y)]);
        assert_eq!(s.num_clauses(), 3);
        // Retire the activation literal for good (the PDR pattern).
        s.add_clause(&[SatLit::neg(act)]);
        let (clauses_removed, _) = s.simplify();
        assert_eq!(clauses_removed, 2);
        assert_eq!(s.num_clauses(), 1);
        // The retired clauses no longer constrain x and y.
        assert_eq!(s.solve(&[SatLit::neg(x)]), SatResult::Sat);
        assert_eq!(s.value(y), Some(true));
    }

    #[test]
    fn simplify_strips_false_literals() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[SatLit::pos(a), SatLit::pos(b), SatLit::pos(c)]);
        s.add_clause(&[SatLit::neg(a)]);
        let (clauses_removed, lits_removed) = s.simplify();
        assert_eq!(clauses_removed, 0);
        assert_eq!(lits_removed, 1);
        // The shrunk clause (b | c) still constrains correctly.
        assert_eq!(s.solve(&[SatLit::neg(b)]), SatResult::Sat);
        assert_eq!(s.value(c), Some(true));
        assert_eq!(s.solve(&[SatLit::neg(b), SatLit::neg(c)]), SatResult::Unsat);
    }

    #[test]
    fn simplify_preserves_answers_on_random_instances() {
        // Interleaving simplify() with solving must never change a verdict:
        // build the same instance into a plain solver and a simplified one
        // and compare under identical assumptions.
        let mut seed: u64 = 0xC0FFEE;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..40 {
            let num_vars = 8;
            let clauses: Vec<Vec<SatLit>> = (0..24)
                .map(|_| {
                    (0..3)
                        .map(|_| SatLit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                        .collect()
                })
                .collect();
            let mut plain = Solver::new();
            let mut gc = Solver::new();
            for _ in 0..num_vars {
                plain.new_var();
                gc.new_var();
            }
            for (i, clause) in clauses.iter().enumerate() {
                plain.add_clause(clause);
                gc.add_clause(clause);
                if i == clauses.len() / 2 {
                    // Mid-build solve generates learnt clauses to collect.
                    let _ = gc.solve(&[]);
                    gc.simplify();
                }
            }
            gc.simplify();
            let assumptions: Vec<SatLit> = (0..3)
                .map(|_| SatLit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                .collect();
            assert_eq!(
                plain.solve(&assumptions),
                gc.solve(&assumptions),
                "simplify changed the verdict on {clauses:?} under {assumptions:?}"
            );
        }
    }

    #[test]
    fn xor_chain_satisfiable() {
        // Tseitin-encoded xor chain: x1 ^ x2 ^ x3 = 1.
        let mut s = Solver::new();
        let x1 = s.new_var();
        let x2 = s.new_var();
        let x3 = s.new_var();
        let t = s.new_var(); // t = x1 ^ x2
                             // t <-> x1 xor x2
        s.add_clause(&[SatLit::neg(t), SatLit::pos(x1), SatLit::pos(x2)]);
        s.add_clause(&[SatLit::neg(t), SatLit::neg(x1), SatLit::neg(x2)]);
        s.add_clause(&[SatLit::pos(t), SatLit::neg(x1), SatLit::pos(x2)]);
        s.add_clause(&[SatLit::pos(t), SatLit::pos(x1), SatLit::neg(x2)]);
        // t xor x3 = 1  ->  t != x3
        s.add_clause(&[SatLit::pos(t), SatLit::pos(x3)]);
        s.add_clause(&[SatLit::neg(t), SatLit::neg(x3)]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        let v1 = s.value(x1).unwrap();
        let v2 = s.value(x2).unwrap();
        let v3 = s.value(x3).unwrap();
        assert!(v1 ^ v2 ^ v3);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[SatLit::pos(a), SatLit::pos(a), SatLit::pos(b)]);
        s.add_clause(&[SatLit::pos(a), SatLit::neg(a)]); // tautology: ignored
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    /// Builds a pseudo-random 3-SAT instance into `s` from `seed`.
    fn random_3sat(s: &mut Solver, seed: u64, num_vars: usize, num_clauses: usize) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        while s.num_vars() < num_vars {
            s.new_var();
        }
        for _ in 0..num_clauses {
            let clause: Vec<SatLit> = (0..3)
                .map(|_| SatLit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                .collect();
            s.add_clause(&clause);
        }
    }

    #[test]
    fn all_feature_configurations_agree() {
        // Restarts, minimization and reduction individually toggled off must
        // never change a verdict, and unsat cores must stay valid cores.
        let configs = [
            SolverConfig::default(),
            SolverConfig {
                restarts: false,
                ..SolverConfig::default()
            },
            SolverConfig {
                minimize: false,
                ..SolverConfig::default()
            },
            SolverConfig {
                reduce: false,
                ..SolverConfig::default()
            },
            SolverConfig::baseline(),
            // Aggressive settings so restarts and reduction actually fire
            // on these small instances.
            SolverConfig {
                restart_base: 2,
                reduce_base: 4,
                ..SolverConfig::default()
            },
        ];
        for seed in 1..40u64 {
            let mut verdicts = Vec::new();
            for config in configs {
                let mut s = Solver::with_config(config);
                random_3sat(&mut s, seed.wrapping_mul(0x9E3779B97F4A7C15), 10, 42);
                let assumptions = [
                    SatLit::new((seed % 10) as usize, seed % 2 == 0),
                    SatLit::new(((seed / 3) % 10) as usize, seed % 3 == 0),
                ];
                let result = s.solve(&assumptions);
                if result == SatResult::Unsat {
                    let core = s.unsat_core().to_vec();
                    for l in &core {
                        assert!(assumptions.contains(l), "core literal {l} not assumed");
                    }
                    assert_eq!(s.solve(&core), SatResult::Unsat, "core not unsat");
                }
                verdicts.push(result);
            }
            assert!(
                verdicts.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: configurations disagree: {verdicts:?}"
            );
        }
    }

    /// Encodes the pigeonhole principle PHP(holes + 1, holes) into `s`.
    fn pigeonhole(s: &mut Solver, holes: usize) {
        let p: Vec<Vec<Var>> = (0..holes + 1)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let clause: Vec<SatLit> = row.iter().map(|&v| SatLit::pos(v)).collect();
            s.add_clause(&clause);
        }
        for hole in 0..holes {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in p.iter().skip(i1 + 1) {
                    s.add_clause(&[SatLit::neg(row1[hole]), SatLit::neg(row2[hole])]);
                }
            }
        }
    }

    #[test]
    fn minimization_shrinks_learnt_clauses_and_keeps_them_falsified() {
        // Pigeonhole conflicts resolve through long implication chains, so
        // first-UIP clauses carry redundant literals.  The debug assertion
        // in `solve` checks every (minimized) learnt clause is still
        // falsified at its conflict; here we additionally require
        // minimization to actually fire, and the verdict to survive it.
        let mut with_min = Solver::new();
        let mut without_min = Solver::with_config(SolverConfig {
            minimize: false,
            ..SolverConfig::default()
        });
        pigeonhole(&mut with_min, 5);
        pigeonhole(&mut without_min, 5);
        assert_eq!(with_min.solve(&[]), SatResult::Unsat);
        assert_eq!(without_min.solve(&[]), SatResult::Unsat);
        assert!(
            with_min.stats.minimized_lits > 0,
            "minimization never removed a literal: {:?}",
            with_min.stats
        );
        assert_eq!(without_min.stats.minimized_lits, 0);
    }

    #[test]
    fn restarts_fire_and_preserve_verdicts() {
        // Pigeonhole 6-into-5: enough conflicts for several Luby restarts.
        let mut s = Solver::with_config(SolverConfig {
            restart_base: 1,
            ..SolverConfig::default()
        });
        pigeonhole(&mut s, 5);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        assert!(s.stats.restarts > 0, "no restart fired: {:?}", s.stats);
    }

    #[test]
    fn zero_restart_interval_terminates() {
        // A pathological restart_base of 0 must be clamped, not livelock
        // (restart → undo decision → re-decide → restart …).
        let mut s = Solver::with_config(SolverConfig {
            restart_base: 0,
            ..SolverConfig::default()
        });
        pigeonhole(&mut s, 4);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        let mut sat = Solver::with_config(SolverConfig {
            restart_base: 0,
            ..SolverConfig::default()
        });
        let a = sat.new_var();
        let b = sat.new_var();
        sat.add_clause(&[SatLit::pos(a), SatLit::pos(b)]);
        assert_eq!(sat.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn reduce_db_evicts_learnt_clauses_without_changing_verdicts() {
        let mut reducing = Solver::with_config(SolverConfig {
            reduce_base: 8,
            ..SolverConfig::default()
        });
        let mut plain = Solver::with_config(SolverConfig::baseline());
        pigeonhole(&mut reducing, 5);
        pigeonhole(&mut plain, 5);
        assert_eq!(reducing.solve(&[]), plain.solve(&[]));
        assert!(
            reducing.stats.reductions > 0 && reducing.stats.learnt_deleted > 0,
            "reduce_db never fired: {:?}",
            reducing.stats
        );
    }

    #[test]
    fn stats_count_search_work() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[SatLit::pos(a), SatLit::pos(b)]);
        s.add_clause(&[SatLit::neg(a), SatLit::pos(b)]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.stats.decisions > 0);
        assert!(s.stats.propagations > 0);
        let total = s.stats + SolverStats::default();
        assert_eq!(total, s.stats);
    }

    #[test]
    fn sub_cadence_solves_charge_their_conflicts_to_a_shared_budget() {
        use crate::interrupt::{Interrupt, InterruptReason};

        // One small unsat instance: every solve of it ends well before the
        // search loop's first poll, so only the charge on `solve` exit can
        // ever reach the budget.
        let solve_once = |interrupt: &Interrupt| {
            let mut s = Solver::new();
            s.set_interrupt(interrupt.clone());
            pigeonhole(&mut s, 4);
            let result = s.solve(&[]);
            assert!(s.stats.decisions + s.stats.conflicts < INTERRUPT_POLL_INTERVAL);
            assert!(s.stats.propagations < PROPAGATION_POLL_INTERVAL);
            (result, s.stats.conflicts)
        };
        let (result, per_solve) = solve_once(&Interrupt::none());
        assert_eq!(result, SatResult::Unsat);
        assert!(per_solve > 0);

        // Three solves' worth of conflicts, shared by clones of one handle.
        let interrupt = Interrupt::new(None, Some(3 * per_solve), None);
        for i in 0..3 {
            assert_eq!(interrupt.triggered(), None, "budget fired before solve {i}");
            assert_eq!(solve_once(&interrupt), (SatResult::Unsat, per_solve));
        }
        assert_eq!(interrupt.triggered(), Some(InterruptReason::Budget));
        assert_eq!(solve_once(&interrupt).0, SatResult::Interrupted);
    }

    #[test]
    fn random_3sat_instances_agree_with_brute_force() {
        // Small random instances cross-checked against exhaustive enumeration.
        let mut seed: u64 = 0x12345678;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..30 {
            let num_vars = 6;
            let num_clauses = 18;
            let clauses: Vec<Vec<SatLit>> = (0..num_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = (next() % num_vars as u64) as usize;
                            SatLit::new(v, next() % 2 == 0)
                        })
                        .collect()
                })
                .collect();
            // Brute force.
            let mut brute_sat = false;
            'outer: for bits in 0..(1u32 << num_vars) {
                for clause in &clauses {
                    let ok = clause.iter().any(|l| {
                        let val = (bits >> l.var()) & 1 == 1;
                        if l.is_positive() {
                            val
                        } else {
                            !val
                        }
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = Solver::new();
            for _ in 0..num_vars {
                s.new_var();
            }
            for clause in &clauses {
                s.add_clause(clause);
            }
            let result = s.solve(&[]);
            assert_eq!(
                result == SatResult::Sat,
                brute_sat,
                "solver disagrees with brute force on {clauses:?}"
            );
            if result == SatResult::Sat {
                // Verify the model actually satisfies every clause.
                for clause in &clauses {
                    assert!(clause.iter().any(|l| {
                        let val = s.value(l.var()).unwrap_or(false);
                        if l.is_positive() {
                            val
                        } else {
                            !val
                        }
                    }));
                }
            }
        }
    }
}
