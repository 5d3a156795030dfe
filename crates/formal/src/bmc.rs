//! Bounded model checking and k-induction over a [`Model`].
//!
//! [`check_target_budgeted`] is the one entry point.  It searches for a
//! trace reaching a target literal with increasing bound; when none is
//! found it attempts a k-induction proof strengthened with simple-path
//! (loop-free) constraints, which makes the method complete for
//! finite-state designs given enough depth.  It answers with the one
//! [`Verdict`]: a reached target with its trace (a counterexample for a bad
//! state, a witness for a cover), or an unreachable one with the induction
//! depth as its [`Certificate`].

use crate::aig::Lit;
use crate::interrupt::Interrupt;
use crate::model::Model;
use crate::sat::{SolverConfig, SolverStats};
use crate::trace::Trace;
use crate::unroll::Unroller;
use crate::verdict::{Certificate, Verdict};

/// Options controlling the bounded engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BmcOptions {
    /// Maximum bound explored when searching for counterexamples.
    pub max_depth: usize,
    /// Maximum induction depth attempted when proving.
    pub max_induction: usize,
}

impl Default for BmcOptions {
    fn default() -> Self {
        BmcOptions {
            max_depth: 40,
            max_induction: 30,
        }
    }
}

fn apply_constraints(unroller: &mut Unroller<'_>, constraints: &[Lit], frame: usize) {
    for &c in constraints {
        unroller.constrain(c, frame, true);
    }
}

/// The counterexample of a satisfiable unrolling to `depth`: each frame's
/// inputs, read from the SAT model and replayed from reset, which confirms
/// that the constraints hold throughout and `target` fires on the last of
/// the `depth + 1` frames.
fn extract_trace(model: &Model, unroller: &mut Unroller<'_>, target: Lit, depth: usize) -> Trace {
    let nodes = model.aig.inputs();
    let inputs: Vec<Vec<bool>> = (0..=depth)
        .map(|frame| {
            let value = |&node: &usize| unroller.model_value(Lit::new(node, false), frame);
            nodes.iter().map(value).collect()
        })
        .collect();
    crate::psim::replay(model, target, depth + 1, |cycle, i| inputs[cycle][i])
        .expect("a BMC counterexample replays on its model")
}

/// The question every bounded check asks: can `target` be reached on
/// `model`?  A reached target comes back as [`Verdict::Reached`] with its
/// trace, an unreachable one as [`Verdict::Unreachable`] with the closing
/// induction depth ([`Certificate::Induction`]), and `None` when the bounds
/// or the [`Interrupt`] stop the check first.  `name` labels the telemetry
/// span; the returned [`SolverStats`] aggregate the BMC and induction
/// solvers.
///
/// The [`Interrupt`] handle is polled at every depth step and inside the
/// SAT search loops; once it has fired the check answers `None` or a
/// trace, never a proof.  Callers without a budget pass
/// `SolverConfig::default()` and [`Interrupt::none`].
pub fn check_target_budgeted(
    model: &Model,
    target: Lit,
    name: &str,
    options: &BmcOptions,
    solver: SolverConfig,
    interrupt: &Interrupt,
) -> (Option<Verdict>, SolverStats) {
    let _span = crate::telemetry::span("bmc.solve", name);
    let induction = Some(options.max_induction);
    let (verdict, stats) = ladder(
        model,
        target,
        0,
        options.max_depth,
        induction,
        solver,
        interrupt,
    );
    crate::telemetry::count_solver("bmc", &stats);
    (verdict, stats)
}

/// The BMC ladder alone over the depths `from..=max_depth`, for a caller
/// that knows no trace reaches `target` below depth `from`: the frames
/// below it are unrolled and constrained but never queried, and no
/// induction query is asked.  It answers [`Verdict::Reached`] with a
/// shortest trace, or `None` when none is found up to `max_depth` or the
/// interrupt fires.  Spans and counters as for [`check_target_budgeted`].
pub(crate) fn ladder_from(
    model: &Model,
    target: Lit,
    name: &str,
    from: usize,
    max_depth: usize,
    solver: SolverConfig,
    interrupt: &Interrupt,
) -> (Option<Verdict>, SolverStats) {
    let _span = crate::telemetry::span("bmc.solve", name);
    let (verdict, stats) = ladder(model, target, from, max_depth, None, solver, interrupt);
    crate::telemetry::count_solver("bmc", &stats);
    (verdict, stats)
}

/// The uninstrumented BMC loop behind [`check_target_budgeted`] and
/// [`ladder_from`]: a counterexample query at every depth of
/// `from..=max_depth`, each followed by a k-induction attempt up to depth
/// `max_induction`, if any.
fn ladder(
    model: &Model,
    bad: Lit,
    from: usize,
    max_depth: usize,
    max_induction: Option<usize>,
    solver: SolverConfig,
    interrupt: &Interrupt,
) -> (Option<Verdict>, SolverStats) {
    let mut bmc = Unroller::with_config(&model.aig, true, solver);
    let mut induction = Induction::new(model, bad, solver);
    bmc.set_interrupt(interrupt.clone());
    induction.unroller.set_interrupt(interrupt.clone());
    for depth in 0..from.min(max_depth + 1) {
        apply_constraints(&mut bmc, &model.constraints, depth);
    }
    let verdict = 'ladder: {
        for depth in from..=max_depth {
            #[cfg(any(test, feature = "fault-injection"))]
            interrupt.fault("bmc.depth_step");
            if interrupt.poll().is_some() {
                break 'ladder None;
            }
            apply_constraints(&mut bmc, &model.constraints, depth);
            if bmc.solve_with(&[(bad, depth, true)]) {
                // A satisfiable answer is a genuine model even if the
                // interrupt fired concurrently: extract the counterexample.
                let trace = extract_trace(model, &mut bmc, bad, depth);
                break 'ladder Some(Verdict::Reached(trace));
            }
            if interrupt.triggered().is_some() {
                // The "no counterexample at this depth" answer may be an
                // interrupted solve in disguise; never unroll further.
                break 'ladder None;
            }
            // Try to close a k-induction proof at this depth before
            // unrolling further; `depth` counterexample-free frames form
            // the base case.
            if max_induction.is_some_and(|max| depth <= max)
                && try_induction_at(depth)
                && induction.step_holds(depth)
            {
                // `step_holds` negates a boolean solve: an interrupted
                // query would read as "step holds".  The latch check keeps
                // an interrupted solve from becoming a proof.
                let proven = Verdict::Unreachable(Certificate::Induction(depth));
                break 'ladder interrupt.triggered().is_none().then_some(proven);
            }
        }
        None
    };
    (verdict, bmc.stats() + induction.stats())
}

/// Induction is attempted at every small depth and then every third depth.
fn try_induction_at(depth: usize) -> bool {
    depth <= 3 || depth.is_multiple_of(3)
}

/// Incrementally maintained k-induction instance.
///
/// All constraints of the inductive step grow monotonically with the depth
/// (`!bad` in earlier frames, per-frame invariant constraints, pairwise
/// loop-free-path constraints), while `bad` in the last frame is only ever
/// *assumed* — so one shared transition-relation unrolling serves every
/// attempt, each deeper attempt asserting just the delta instead of
/// re-encoding the whole instance from scratch.
struct Induction<'a> {
    model: &'a Model,
    bad: Lit,
    unroller: Unroller<'a>,
    latch_lits: Vec<Lit>,
    /// Deepest frame already constrained, or `None` before the first
    /// attempt.
    constrained: Option<usize>,
}

impl Induction<'_> {
    fn stats(&self) -> SolverStats {
        self.unroller.stats()
    }
}

impl<'a> Induction<'a> {
    fn new(model: &'a Model, bad: Lit, solver: SolverConfig) -> Self {
        Induction {
            model,
            bad,
            // No initial-state constraint: the step starts from any state.
            unroller: Unroller::with_config(&model.aig, false, solver),
            latch_lits: model
                .aig
                .latches()
                .iter()
                .map(|l| Lit::new(l.node, false))
                .collect(),
            constrained: None,
        }
    }

    /// Asserts that at least one latch differs between frames `i` and `j`.
    fn assert_frames_differ(&mut self, i: usize, j: usize) {
        let mut diffs: Vec<crate::sat::SatLit> = Vec::with_capacity(self.latch_lits.len());
        for idx in 0..self.latch_lits.len() {
            let lit = self.latch_lits[idx];
            let a = self.unroller.lit_in_frame(lit, i);
            let b = self.unroller.lit_in_frame(lit, j);
            let d = self.unroller.new_free_lit();
            self.unroller.add_clause(&[d.negate(), a, b]);
            self.unroller
                .add_clause(&[d.negate(), a.negate(), b.negate()]);
            diffs.push(d);
        }
        self.unroller.add_clause(&diffs);
    }

    /// Checks whether the k-induction step holds at depth `k`: from any
    /// loop-free path of `k + 1` states that satisfies the constraints and
    /// avoids the bad state in its first `k` frames, the last frame cannot
    /// be bad.
    fn step_holds(&mut self, k: usize) -> bool {
        let new_from = self.constrained.map_or(0, |p| p + 1);
        for frame in new_from..=k {
            apply_constraints(&mut self.unroller, &self.model.constraints, frame);
        }
        // `!bad` must cover frames 0..k; earlier attempts asserted it up to
        // their own `k - 1`.
        let bad_from = self.constrained.map_or(0, |p| p);
        for frame in bad_from..k {
            self.unroller.constrain(self.bad, frame, false);
        }
        // New pairwise simple-path constraints involving the new frames.
        if !self.latch_lits.is_empty() {
            for j in new_from..=k {
                for i in 0..j {
                    self.assert_frames_differ(i, j);
                }
            }
        }
        self.constrained = Some(k);
        // `bad` at frame `k` is assumed, not asserted, so deeper attempts
        // remain satisfiable-compatible with this instance.
        !self.unroller.solve_with(&[(self.bad, k, true)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;
    use crate::model::BadProperty;
    use crate::model::CoverProperty;

    /// An unbudgeted check of `target` with the default solver.
    fn check(model: &Model, target: Lit, options: &BmcOptions) -> Option<Verdict> {
        let config = SolverConfig::default();
        check_target_budgeted(model, target, "", options, config, &Interrupt::none()).0
    }

    /// Whether `verdict` is a k-induction proof.
    fn proven(verdict: &Option<Verdict>) -> bool {
        matches!(
            verdict,
            Some(Verdict::Unreachable(Certificate::Induction(_)))
        )
    }

    /// A 3-bit counter that saturates at 7.
    fn saturating_counter() -> (Model, Vec<Lit>) {
        let mut aig = Aig::new();
        let bits: Vec<Lit> = (0..3)
            .map(|i| aig.add_latch(format!("c{i}"), false))
            .collect();
        let all_ones = aig.and_many(&bits);
        // increment unless saturated
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
    fn bmc_finds_reachable_bad_state() {
        let (mut model, bits) = saturating_counter();
        // Bad: counter value == 5 (101).
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
        let result = check(&model, model.bads[0].lit, &BmcOptions::default());
        match result {
            Some(Verdict::Reached(trace)) => {
                assert_eq!(trace.len(), 6); // value 5 reached at frame 5
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn induction_proves_unreachable_bad_state() {
        let (mut model, bits) = saturating_counter();
        // The counter saturates at 7 and never wraps to 0 again after
        // reaching 1: "counter == 0 and we have been at 1" is unreachable.
        // Simpler: prove the counter never goes *backwards* from 7 to 6 ...
        // Here: bad = (value == 7) && next would be 0 is impossible; instead
        // prove that "value 7 then value 0" cannot happen by checking a
        // helper latch.  Keep it simple: bad = false literal is trivially
        // proven.
        let bad = Lit::FALSE;
        let _ = &bits;
        model.bads.push(BadProperty {
            name: "never".into(),
            lit: bad,
        });
        let result = check(&model, model.bads[0].lit, &BmcOptions::default());
        assert!(proven(&result), "got {result:?}");
    }

    #[test]
    fn induction_proves_saturation_invariant() {
        // Once saturated (all ones), the counter stays saturated: the bad
        // state "was saturated previously but is not saturated now" is
        // unreachable and provable by 1-induction.
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
        let result = check(&model, model.bads[0].lit, &BmcOptions::default());
        assert!(proven(&result), "got {result:?}");
    }

    #[test]
    fn constraints_restrict_paths() {
        // A free input drives a latch; with the constraint "input is low" the
        // latch can never become high.
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
        let result = check(&model, model.bads[0].lit, &BmcOptions::default());
        assert!(proven(&result), "got {result:?}");
    }

    #[test]
    fn cover_finds_witness() {
        let (mut model, bits) = saturating_counter();
        let target = {
            let aig = &mut model.aig;
            aig.and_many(&bits)
        };
        model.covers.push(CoverProperty {
            name: "saturates".into(),
            lit: target,
        });
        match check(&model, model.covers[0].lit, &BmcOptions::default()) {
            Some(Verdict::Reached(trace)) => assert_eq!(trace.len(), 8),
            other => panic!("expected cover witness, got {other:?}"),
        }
    }

    #[test]
    fn cover_unreachable_is_reported() {
        let (mut model, bits) = saturating_counter();
        // Value 0 with the "was saturated" flag set is unreachable because
        // the counter saturates; simpler: cover literal FALSE is unreachable.
        let _ = bits;
        model.covers.push(CoverProperty {
            name: "never".into(),
            lit: Lit::FALSE,
        });
        assert!(proven(&check(
            &model,
            model.covers[0].lit,
            &BmcOptions::default()
        )));
    }

    #[test]
    fn unknown_when_bounds_too_small() {
        let (mut model, bits) = saturating_counter();
        let b = {
            let aig = &mut model.aig;
            aig.and_many(&bits)
        };
        model.bads.push(BadProperty {
            name: "saturated".into(),
            lit: b,
        });
        // The counter needs 7 steps to saturate; a bound of 3 must not find
        // it, and induction cannot prove it (it is actually reachable).
        let result = check(
            &model,
            model.bads[0].lit,
            &BmcOptions {
                max_depth: 3,
                max_induction: 3,
            },
        );
        assert_eq!(result, None);
    }

    #[test]
    fn trace_contains_latch_values() {
        let (mut model, bits) = saturating_counter();
        let b = {
            let aig = &mut model.aig;
            let t = aig.and(bits[0], bits[1]);
            aig.and(t, bits[2].invert())
        };
        model.bads.push(BadProperty {
            name: "reaches_three".into(),
            lit: b,
        });
        let Some(Verdict::Reached(trace)) =
            check(&model, model.bads[0].lit, &BmcOptions::default())
        else {
            panic!("counterexample expected");
        };
        assert_eq!(trace.len(), 4);
        // Frame 3: c0=1, c1=1, c2=0.
        assert_eq!(trace.value(3, "c0"), Some(true));
        assert_eq!(trace.value(3, "c1"), Some(true));
        assert_eq!(trace.value(3, "c2"), Some(false));
        // Frame 0 is the reset state.
        assert_eq!(trace.value(0, "c0"), Some(false));
    }
}
