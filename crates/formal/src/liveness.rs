//! Liveness on the checked cone: a loop-constrained lasso search,
//! k-liveness proofs and the one lasso replay.
//!
//! A liveness obligation `G (trigger -> F target)` is checked on its cone
//! plus one pending-obligation monitor register per response property
//! ([`monitored`]): the obligation's monitor is high while a trigger waits
//! for its target, and each fairness assumption's monitor is high while the
//! environment owes a response.  A counterexample is a fair *lasso*: a
//! reachable loop on which the obligation stays pending while every
//! fairness monitor is low somewhere, the criterion the explicit engine's
//! SCC check uses too ([`crate::explicit::liveness`]).  Two SAT engines
//! decide it:
//!
//! * [`lasso_search`] — bounded model checking with a loop constraint
//!   (Biere, Cimatti, Clarke and Zhu, TACAS 1999): at depth `d` the state
//!   at frame `d` repeats the state at some frame `j < d`, the obligation
//!   is pending at frames `j..d`, every fairness monitor is low at some
//!   frame of `j..d`, and the constraints hold on every frame.  Each depth
//!   is one query under one activation literal, so the first lasso found
//!   is a shortest one.  A budgeted breadth-first search
//!   ([`crate::explicit::lasso_free`]) runs first: when it shows that no
//!   fair cycle lies within the search depth, the SAT search is skipped,
//!   which is where a property that k-liveness then proves used to spend
//!   most of its time;
//! * [`k_liveness`] — proofs by counting (Claessen and Sörensson, "A
//!   Liveness Checking Algorithm that Counts", FMCAD 2012) on the
//!   [`KLiveness`] model, which adds one "seen" bit per fairness assumption
//!   and a counter of the fairness rounds completed while the obligation
//!   stays pending, reset when it is discharged.  A fair lasso completes a
//!   round on every pass through its loop, so a PDR invariant showing that
//!   the counter never reaches k + 1 rules every fair lasso out.  One PDR
//!   trapezoid serves k = 0, 1, … up to a fixed bound: only the target
//!   moves.
//!
//! Both answer with the one [`Verdict`]: the lasso search a fair lasso,
//! k-liveness a [`Certificate::KLiveness`].  Every lasso a liveness engine
//! reports, and every lasso the proof cache returns, is built or confirmed
//! by [`replay`].

use crate::aig::{Aig, Lit};
use crate::interrupt::Interrupt;
use crate::model::Model;
use crate::pdr::{check_pdr_budgeted, PdrOptions};
use crate::sat::{SatLit, SatResult, SolverConfig, SolverStats};
use crate::trace::Trace;
use crate::unroll::Unroller;
use crate::verdict::{Certificate, Verdict};

/// The largest k a k-liveness proof is attempted at: a counter of four
/// bits.  Every corpus liveness proof closes at k ≤ 2.  Without fairness
/// assumptions every pending cycle completes a round, so k is the longest
/// the obligation can stay pending.
const MAX_K: usize = 14;

/// Width of the k-liveness round counter, enough to count to `MAX_K + 1`.
const COUNTER_BITS: usize = (usize::BITS - (MAX_K + 1).leading_zeros()) as usize;

/// The pending-obligation monitors of one liveness property, latches of
/// its monitored model ([`monitored`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Monitors {
    /// High while the obligation waits for its target.
    pub pending: Lit,
    /// One per fairness assumption: high while the environment owes its
    /// response.
    pub fairness: Vec<Lit>,
}

/// `model` plus one pending-obligation monitor per fairness assumption and
/// liveness property, with the monitors of `model.liveness[index]`.
pub fn monitored(model: &Model, index: usize) -> (Model, Monitors) {
    let (monitored, pendings, fairness) = model.with_pending_monitors();
    let monitors = Monitors {
        pending: pendings[index],
        fairness,
    };
    (monitored, monitors)
}

/// The lane-0 value of `lit` in the simulator's settled cycle.
fn bit(sim: &crate::psim::ParallelSim<'_>, lit: Lit) -> bool {
    sim.word(lit) & 1 == 1
}

/// Replays a lasso of `cycles` cycles on the monitored `model`, where
/// `input(cycle, i)` drives input `i` at `cycle`, and returns its trace,
/// marked with `loop_start`, when it is a fair lasso: every invariant
/// constraint holds on every cycle, the state of the last cycle equals the
/// state at `loop_start`, the obligation is pending from `loop_start` on,
/// and every fairness monitor is low on some cycle of the loop (from
/// `loop_start` to the cycle before the last).
///
/// The lasso search, the explicit engine and the proof cache confirm every
/// lasso they report this way.
pub fn replay(
    model: &Model,
    monitors: &Monitors,
    loop_start: usize,
    cycles: usize,
    input: impl Fn(usize, usize) -> bool,
) -> Option<Trace> {
    if loop_start + 1 >= cycles {
        return None;
    }
    let latches: Vec<Lit> = model
        .aig
        .latches()
        .iter()
        .map(|l| Lit::new(l.node, false))
        .collect();
    let mut start = Vec::new();
    let mut repeated = false;
    let mut pending = true;
    let mut discharged = vec![false; monitors.fairness.len()];
    let trace = crate::psim::drive(model, cycles, input, |cycle, sim| {
        if cycle < loop_start {
            return;
        }
        pending &= bit(sim, monitors.pending);
        if cycle == loop_start {
            start = latches.iter().map(|&l| bit(sim, l)).collect();
        }
        if cycle + 1 == cycles {
            repeated = latches
                .iter()
                .map(|&l| bit(sim, l))
                .eq(start.iter().copied());
        } else {
            for (seen, &f) in discharged.iter_mut().zip(&monitors.fairness) {
                *seen |= !bit(sim, f);
            }
        }
    })?;
    let fair = repeated && pending && discharged.iter().all(|&seen| seen);
    fair.then(|| trace.with_loop_start(loop_start))
}

/// Searches `model` (monitored, with `monitors`) for a fair lasso whose
/// loop closes at a depth of at most `max_depth`: the trace has at most
/// `max_depth + 1` cycles, its last state repeating an earlier one.
/// Depths are tried in increasing order, so a lasso found is a shortest
/// one; it comes back as [`Verdict::Reached`], built by [`replay`].  No
/// lasso up to `max_depth` is `None`: the search proves nothing.
///
/// First, [`crate::explicit::lasso_free`] looks for a fair cycle within
/// `max_depth` by breadth-first search, under a budget of `max_words`
/// evaluated input words.  When it shows there is none, the answer is
/// `None` with no solver work.  Otherwise (a fair cycle, a cone outside the
/// explicit limits, the budget spent, or the interrupt) the SAT search runs
/// from depth 1 as it would without the filter, so every lasso it reports
/// is the same; `max_words = 0` runs the SAT search alone.
///
/// The [`Interrupt`] handle is charged and polled once per state of the
/// filter, and polled at every depth step and inside the SAT search; when
/// it fires the search answers `None`.  The search records a `bmc.solve`
/// span, which covers the filter too, and counts as BMC solver work.
pub fn lasso_search(
    model: &Model,
    monitors: &Monitors,
    max_depth: usize,
    max_words: u64,
    solver: SolverConfig,
    interrupt: &Interrupt,
) -> (Option<Verdict>, SolverStats) {
    let _span = crate::telemetry::span("bmc.solve", "");
    if crate::explicit::lasso_free(model, monitors, max_depth, max_words, interrupt) {
        return (None, SolverStats::default());
    }
    let mut search = LassoSearch::new(model, monitors, solver, interrupt);
    let lasso = search.run(max_depth);
    let stats = search.unroller.stats();
    crate::telemetry::count_solver("bmc", &stats);
    (lasso.map(Verdict::Reached), stats)
}

/// The incremental unrolling behind [`lasso_search`].
struct LassoSearch<'a> {
    model: &'a Model,
    monitors: &'a Monitors,
    unroller: Unroller<'a>,
    latches: Vec<Lit>,
    interrupt: &'a Interrupt,
}

impl<'a> LassoSearch<'a> {
    fn new(
        model: &'a Model,
        monitors: &'a Monitors,
        solver: SolverConfig,
        interrupt: &'a Interrupt,
    ) -> Self {
        let mut unroller = Unroller::with_config(&model.aig, true, solver);
        unroller.set_interrupt(interrupt.clone());
        let latches = model
            .aig
            .latches()
            .iter()
            .map(|l| Lit::new(l.node, false))
            .collect();
        LassoSearch {
            model,
            monitors,
            unroller,
            latches,
            interrupt,
        }
    }

    fn constrain(&mut self, frame: usize) {
        for &c in &self.model.constraints {
            self.unroller.constrain(c, frame, true);
        }
    }

    /// A fresh literal that implies the loop from frame `start` back from
    /// frame `end`: the two states are equal, the obligation is pending at
    /// `start..end`, and each fairness monitor is low somewhere in
    /// `start..end`.
    fn loop_literal(&mut self, start: usize, end: usize) -> SatLit {
        let selected = self.unroller.new_free_lit();
        for i in 0..self.latches.len() {
            let a = self.unroller.lit_in_frame(self.latches[i], start);
            let b = self.unroller.lit_in_frame(self.latches[i], end);
            self.unroller
                .add_clause(&[selected.negate(), a.negate(), b]);
            self.unroller
                .add_clause(&[selected.negate(), a, b.negate()]);
        }
        for frame in start..end {
            let pending = self.unroller.lit_in_frame(self.monitors.pending, frame);
            self.unroller.add_clause(&[selected.negate(), pending]);
        }
        for i in 0..self.monitors.fairness.len() {
            let mut clause = vec![selected.negate()];
            for frame in start..end {
                let owed = self.unroller.lit_in_frame(self.monitors.fairness[i], frame);
                clause.push(owed.negate());
            }
            self.unroller.add_clause(&clause);
        }
        selected
    }

    /// The first fair lasso by depth, if any up to `max_depth` before the
    /// interrupt fires.
    fn run(&mut self, max_depth: usize) -> Option<Trace> {
        self.constrain(0);
        for depth in 1..=max_depth {
            #[cfg(any(test, feature = "fault-injection"))]
            self.interrupt.fault("bmc.depth_step");
            if self.interrupt.poll().is_some() {
                return None;
            }
            self.constrain(depth);
            let active = self.unroller.new_free_lit();
            let loops: Vec<SatLit> = (0..depth)
                .map(|start| self.loop_literal(start, depth))
                .collect();
            let mut some_loop = vec![active.negate()];
            some_loop.extend_from_slice(&loops);
            self.unroller.add_clause(&some_loop);
            match self.unroller.solve_sat(&[active]) {
                // A satisfiable answer is a genuine lasso even if the
                // interrupt fired concurrently.
                SatResult::Sat => return Some(self.lasso(depth, &loops)),
                SatResult::Interrupted => return None,
                SatResult::Unsat => {}
            }
            // This depth's loops can no longer be chosen.
            self.unroller.add_clause(&[active.negate()]);
        }
        None
    }

    /// The lasso of a satisfiable query at `depth`: each frame's inputs and
    /// the first loop start the model selects, replayed from reset.
    fn lasso(&mut self, depth: usize, loops: &[SatLit]) -> Trace {
        let start = loops
            .iter()
            .position(|&l| self.unroller.sat_value(l))
            .expect("a satisfied lasso query selects a loop");
        let nodes = self.model.aig.inputs();
        let inputs: Vec<Vec<bool>> = (0..=depth)
            .map(|frame| {
                let value = |&node: &usize| self.unroller.model_value(Lit::new(node, false), frame);
                nodes.iter().map(value).collect()
            })
            .collect();
        replay(self.model, self.monitors, start, depth + 1, |cycle, i| {
            inputs[cycle][i]
        })
        .expect("a BMC lasso replays on its model")
    }
}

/// The k-liveness model of a liveness property: its monitored model plus
/// one "seen" bit per fairness assumption and a counter of the fairness
/// rounds completed while the obligation stays pending.
///
/// A round completes in a cycle where the obligation is pending and every
/// fairness monitor has been low since the last round (or is low now); it
/// clears the seen bits and counts.  A cycle without the obligation
/// pending clears the seen bits and the counter.  The model is a function
/// of the monitored model alone, so a stored invariant re-certifies on the
/// model a later run builds from the same cone.
#[derive(Debug, Clone)]
pub struct KLiveness {
    /// The monitored model with the seen bits and the counter added; no
    /// properties, and the monitored model's constraints.
    pub model: Model,
    /// `targets[k]`: the counter at k + 1, the bad state of k-liveness at
    /// `k`.
    targets: Vec<Lit>,
}

impl KLiveness {
    /// Builds the k-liveness model of the obligation with `monitors` on its
    /// monitored `model`.
    pub fn new(model: &Model, monitors: &Monitors) -> KLiveness {
        let mut aig = model.aig.clone();
        let pending = monitors.pending;
        let seen: Vec<Lit> = (0..monitors.fairness.len())
            .map(|i| aig.add_latch(format!("klive_seen{i}"), false))
            .collect();
        let count: Vec<Lit> = (0..COUNTER_BITS)
            .map(|b| aig.add_latch(format!("klive_count[{b}]"), false))
            .collect();
        // Each fairness monitor is low now or was since the last round.
        let served: Vec<Lit> = seen
            .iter()
            .zip(&monitors.fairness)
            .map(|(&s, &owed)| aig.or(s, owed.invert()))
            .collect();
        let all_served = aig.and_many(&served);
        let round = aig.and(pending, all_served);
        let keep = aig.and(pending, round.invert());
        for (&s, &served) in seen.iter().zip(&served) {
            let next = aig.and(keep, served);
            aig.set_latch_next(s, next);
        }
        let mut carry = round;
        for &bit in &count {
            let sum = aig.xor(bit, carry);
            carry = aig.and(bit, carry);
            let next = aig.and(pending, sum);
            aig.set_latch_next(bit, next);
        }
        let targets = (1..=MAX_K + 1)
            .map(|rounds| equals(&mut aig, &count, rounds))
            .collect();
        let mut klive = Model::new(aig);
        klive.constraints = model.constraints.clone();
        KLiveness {
            model: klive,
            targets,
        }
    }

    /// The bad state of k-liveness at `k`; `None` beyond the largest k the
    /// checker attempts.
    pub fn target(&self, k: usize) -> Option<Lit> {
        self.targets.get(k).copied()
    }
}

/// `word == value`, for a constant `value`.
fn equals(aig: &mut Aig, word: &[Lit], value: usize) -> Lit {
    let bits: Vec<Lit> = word
        .iter()
        .enumerate()
        .map(|(b, &lit)| {
            if (value >> b) & 1 == 1 {
                lit
            } else {
                lit.invert()
            }
        })
        .collect();
    aig.and_many(&bits)
}

/// Proves the obligation of `klive` by k-liveness: PDR on the k-liveness
/// model asks whether the counter can reach k + 1, for k = 0, 1, … up to a
/// fixed bound, on one trapezoid ([`check_pdr_budgeted`]).  The first
/// unreachable count is [`Verdict::Unreachable`] with
/// [`Certificate::KLiveness`]; a count reached at the bound, or PDR out of
/// `options`' frame or query budget (which covers every k), is `None`.
/// k-liveness never finds a lasso.
///
/// The [`Interrupt`] handle is checked as [`check_pdr_budgeted`] checks
/// it; once it has fired the run answers `None`, never a proof.  The run
/// records a `pdr.solve` span and counts as PDR solver work.
pub fn k_liveness(
    klive: &KLiveness,
    options: &PdrOptions,
    solver: SolverConfig,
    interrupt: &Interrupt,
) -> (Option<Verdict>, SolverStats) {
    let (verdict, k, stats) =
        check_pdr_budgeted(&klive.model, &klive.targets, options, solver, interrupt);
    let proof = match verdict {
        Some(Verdict::Unreachable(Certificate::Invariant(invariant))) => {
            Some(Verdict::Unreachable(Certificate::KLiveness {
                k,
                invariant,
            }))
        }
        _ => None,
    };
    (proof, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ResponseProperty;

    /// A request/grant handshake: `busy` rises with `req` and falls with
    /// `gnt`.  The liveness property "every request is granted" has its
    /// pending monitor; with `fair`, the assumption "a busy handshake is
    /// eventually granted" has one too; with `constrained`, `req` and `gnt`
    /// never rise together.
    fn handshake(fair: bool, constrained: bool) -> (Model, Monitors) {
        let mut aig = Aig::new();
        let req = aig.add_input("req");
        let gnt = aig.add_input("gnt");
        let busy = aig.add_latch("busy", false);
        let raised = aig.or(busy, req);
        let next = aig.and(raised, gnt.invert());
        aig.set_latch_next(busy, next);
        let both = aig.and(req, gnt);
        let mut model = Model::new(aig);
        model.liveness.push(ResponseProperty {
            name: "granted".into(),
            trigger: req,
            target: gnt,
        });
        if fair {
            model.fairness.push(ResponseProperty {
                name: "gnt_fair".into(),
                trigger: busy,
                target: gnt,
            });
        }
        if constrained {
            model.constraints.push(both.invert());
        }
        monitored(&model, 0)
    }

    /// `req` and `gnt` per cycle, as `(req, gnt)` pairs.
    fn stimulus(cycles: &[(bool, bool)]) -> impl Fn(usize, usize) -> bool + '_ {
        move |cycle, i| {
            if i == 0 {
                cycles[cycle].0
            } else {
                cycles[cycle].1
            }
        }
    }

    /// Requested in cycle 0, then never granted: the state of cycle 1
    /// repeats in cycle 2.
    const STARVED: [(bool, bool); 3] = [(true, false), (false, false), (false, false)];

    #[test]
    fn a_fair_lasso_replays_with_its_loop_start() {
        let (model, monitors) = handshake(false, true);
        let trace = replay(&model, &monitors, 1, 3, stimulus(&STARVED)).expect("a fair lasso");
        assert_eq!((trace.len(), trace.loop_start()), (3, Some(1)));
        assert_eq!(trace.value(2, "live0_pending"), Some(true));
    }

    #[test]
    fn the_replay_rejects_a_loop_back_to_another_state() {
        let (model, monitors) = handshake(true, false);
        // The obligation is pending in cycles 1 and 2 and the grant is
        // owed only from cycle 2 on, so the loop from cycle 1 is pending
        // and fair, but cycle 2's state is not cycle 1's.
        assert_eq!(replay(&model, &monitors, 1, 3, stimulus(&STARVED)), None);
    }

    #[test]
    fn the_replay_rejects_an_obligation_discharged_inside_the_loop() {
        let (model, monitors) = handshake(false, false);
        // Granted in cycle 1, requested again in cycle 2: cycle 3 repeats
        // cycle 1's state, but the obligation was discharged in cycle 2.
        let cycles = [(true, false), (false, true), (true, false), (false, false)];
        assert_eq!(replay(&model, &monitors, 1, 4, stimulus(&cycles)), None);
        // The loop from cycle 3 on (one idle cycle) is a fair lasso.
        let cycles = [
            (true, false),
            (false, true),
            (true, false),
            (false, false),
            (false, false),
        ];
        assert!(replay(&model, &monitors, 3, 5, stimulus(&cycles)).is_some());
    }

    #[test]
    fn the_replay_rejects_a_loop_that_never_discharges_a_fairness_assumption() {
        // The starved handshake stays busy, so the environment owes its
        // grant on every cycle of the loop from cycle 2 on.
        let cycles = [
            (true, false),
            (false, false),
            (false, false),
            (false, false),
        ];
        let (model, monitors) = handshake(true, false);
        assert_eq!(replay(&model, &monitors, 2, 4, stimulus(&cycles)), None);
        let (model, monitors) = handshake(false, false);
        assert!(replay(&model, &monitors, 2, 4, stimulus(&cycles)).is_some());
    }

    #[test]
    fn the_replay_rejects_a_constraint_broken_on_the_closing_cycle() {
        let (model, monitors) = handshake(false, true);
        // The closing cycle raises `req` and `gnt` together; its state still
        // repeats cycle 1's.
        let cycles = [(true, false), (false, false), (true, true)];
        assert_eq!(replay(&model, &monitors, 1, 3, stimulus(&cycles)), None);
        let (model, monitors) = handshake(false, false);
        assert!(replay(&model, &monitors, 1, 3, stimulus(&cycles)).is_some());
    }

    /// An unbudgeted lasso search to `depth`, its filter included.
    fn search(model: &Model, monitors: &Monitors, depth: usize) -> Option<Verdict> {
        let (none, config) = (Interrupt::none(), SolverConfig::default());
        lasso_search(model, monitors, depth, u64::MAX, config, &none).0
    }

    /// An unbudgeted k-liveness run with the default PDR bounds.
    fn prove(klive: &KLiveness) -> Option<Verdict> {
        let options = PdrOptions::default();
        k_liveness(klive, &options, SolverConfig::default(), &Interrupt::none()).0
    }

    #[test]
    fn the_lasso_search_finds_the_shortest_starvation_and_k_liveness_the_fair_proof() {
        let (model, monitors) = handshake(false, true);
        match search(&model, &monitors, 5) {
            Some(Verdict::Reached(trace)) => {
                // Requested in cycle 0, pending in cycle 1, repeated in 2.
                assert_eq!((trace.len(), trace.loop_start()), (3, Some(1)));
            }
            other => panic!("expected a lasso, got {other:?}"),
        }
        assert_eq!(search(&model, &monitors, 1), None);
        let klive = KLiveness::new(&model, &monitors);
        assert_eq!(prove(&klive), None);

        let (model, monitors) = handshake(true, true);
        assert_eq!(search(&model, &monitors, 8), None);
        let klive = KLiveness::new(&model, &monitors);
        match prove(&klive) {
            Some(Verdict::Unreachable(Certificate::KLiveness { k, invariant })) => {
                let bad = klive.target(k).expect("within the bound");
                assert!(invariant.certify(&klive.model, bad));
            }
            other => panic!("expected a k-liveness proof, got {other:?}"),
        }
    }

    /// The lasso search under a word budget for its filter, with the
    /// filter's own answer.
    fn filtered(
        model: &Model,
        monitors: &Monitors,
        max_words: u64,
        interrupt: &Interrupt,
    ) -> (bool, Option<Verdict>, SolverStats) {
        let free = crate::explicit::lasso_free(model, monitors, 5, max_words, interrupt);
        let config = SolverConfig::default();
        let (verdict, stats) = lasso_search(model, monitors, 5, max_words, config, interrupt);
        (free, verdict, stats)
    }

    #[test]
    fn the_filter_skips_the_sat_search_only_where_no_fair_cycle_fits() {
        let none = Interrupt::none();
        // The fair handshake has no fair cycle: no solver work.
        let (model, monitors) = handshake(true, true);
        let (free, verdict, stats) = filtered(&model, &monitors, u64::MAX, &none);
        assert_eq!((free, verdict, stats), (true, None, SolverStats::default()));
        // The starved one has a fair cycle: the SAT search finds the lasso
        // it finds alone.
        let (model, monitors) = handshake(false, true);
        let (free, verdict, _) = filtered(&model, &monitors, u64::MAX, &none);
        assert!(!free);
        assert!(matches!(verdict, Some(Verdict::Reached(_))));
        assert_eq!(verdict, filtered(&model, &monitors, 0, &none).1);
    }

    #[test]
    fn the_sat_search_runs_where_the_filter_cannot_decide() {
        // The fair handshake has no fair cycle, so only the filter's limits,
        // its word budget or its interrupt leave it to the SAT search.
        // `idle` latches and `free` inputs that nothing reads widen it.
        let fair = |idle: usize, free: usize| {
            let (mut model, monitors) = handshake(true, true);
            for i in 0..idle {
                let latch = model.aig.add_latch(format!("idle{i}"), false);
                model.aig.set_latch_next(latch, latch);
            }
            for i in 0..free {
                let _ = model.aig.add_input(format!("free{i}"));
            }
            (model, monitors)
        };
        let none = Interrupt::none();
        // Outside the explicit limits, with 64 latches or 21 inputs, and
        // without a word to spend.
        for (idle, free, max_words) in [(61, 0, u64::MAX), (0, 19, u64::MAX), (0, 0, 0)] {
            let (model, monitors) = fair(idle, free);
            let shape = (model.aig.num_latches(), model.aig.inputs().len(), max_words);
            let (free, verdict, stats) = filtered(&model, &monitors, max_words, &none);
            assert_eq!((free, verdict), (false, None), "{shape:?}");
            assert_ne!(stats, SolverStats::default(), "{shape:?}: no SAT search");
        }
        // An interrupt that has already fired stops both halves.
        let fired = Interrupt::new(None, None);
        fired.fire(crate::interrupt::InterruptReason::Timeout);
        let (model, monitors) = fair(0, 0);
        let (free, verdict, _) = filtered(&model, &monitors, u64::MAX, &fired);
        assert_eq!((free, verdict), (false, None));
    }

    #[test]
    fn the_k_liveness_targets_stop_at_the_bound() {
        let (model, monitors) = handshake(true, false);
        let klive = KLiveness::new(&model, &monitors);
        assert!(klive.target(MAX_K).is_some());
        assert_eq!(klive.target(MAX_K + 1), None);
        let added = klive.model.aig.num_latches() - model.aig.num_latches();
        assert_eq!(added, monitors.fairness.len() + COUNTER_BITS);
    }

    #[test]
    fn rounds_count_fairness_discharged_on_different_cycles() {
        // A request is never answered, while the environment owes two
        // responses in turn, as a toggle flips: each is discharged every
        // other cycle, never both on one cycle.  So the starvation is a fair
        // lasso, and no k-liveness proof may exist.
        let mut aig = Aig::new();
        let req = aig.add_input("req");
        let toggle = aig.add_latch("toggle", false);
        aig.set_latch_next(toggle, toggle.invert());
        let mut model = Model::new(aig);
        model.liveness.push(ResponseProperty {
            name: "answered".into(),
            trigger: req,
            target: Lit::FALSE,
        });
        for (name, target) in [("even", toggle), ("odd", toggle.invert())] {
            model.fairness.push(ResponseProperty {
                name: name.into(),
                trigger: Lit::TRUE,
                target,
            });
        }
        let (model, monitors) = monitored(&model, 0);
        let limits = crate::explicit::ExplicitOptions::default();
        let none = Interrupt::none();
        let exact = crate::explicit::liveness(&model, &monitors, &limits, &none);
        assert!(matches!(exact, Some(Verdict::Reached(_))));
        assert!(matches!(
            search(&model, &monitors, 6),
            Some(Verdict::Reached(_))
        ));
        let klive = KLiveness::new(&model, &monitors);
        assert_eq!(prove(&klive), None);
    }

    /// A request waits `latency` cycles for its response, counted down
    /// from the request: the obligation stays pending for `latency`
    /// cycles, each a round, so k-liveness holds first at k = latency.
    fn delayed_response(latency: u128) -> (Model, Monitors) {
        let mut aig = Aig::new();
        let req = aig.add_input("req");
        let width = 3;
        let timer: Vec<Lit> = (0..width)
            .map(|b| aig.add_latch(format!("timer[{b}]"), false))
            .collect();
        let idle = crate::words::reduce_or(&mut aig, &timer).invert();
        let one = crate::words::constant(1, width);
        let counted = crate::words::sub(&mut aig, &timer, &one);
        let start = aig.and(idle, req);
        let loaded = crate::words::constant(latency, width);
        let running = crate::words::mux(&mut aig, idle, &timer, &counted);
        let next = crate::words::mux(&mut aig, start, &loaded, &running);
        for (&latch, &next) in timer.iter().zip(&next) {
            aig.set_latch_next(latch, next);
        }
        let done = crate::words::eq(&mut aig, &timer, &one);
        let mut model = Model::new(aig);
        model.liveness.push(ResponseProperty {
            name: "answered".into(),
            trigger: start,
            target: done,
        });
        monitored(&model, 0)
    }

    #[test]
    fn incremental_k_liveness_proves_at_the_k_of_a_fresh_pdr_per_k() {
        let none = Interrupt::none();
        let options = PdrOptions::default();
        for latency in 1..=5 {
            let (model, monitors) = delayed_response(latency);
            let klive = KLiveness::new(&model, &monitors);
            let fresh = (0..=MAX_K).find(|&k| {
                let bad = klive.target(k).expect("within the bound");
                let config = SolverConfig::default();
                let (verdict, ..) =
                    check_pdr_budgeted(&klive.model, &[bad], &options, config, &none);
                matches!(verdict, Some(Verdict::Unreachable(_)))
            });
            let incremental = match prove(&klive) {
                Some(Verdict::Unreachable(Certificate::KLiveness { k, .. })) => Some(k),
                other => panic!("latency {latency}: {other:?}"),
            };
            assert_eq!(incremental, fresh, "latency {latency}");
            assert_eq!(incremental, Some(latency as usize), "latency {latency}");
        }
    }
}
