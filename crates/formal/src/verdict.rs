//! The one answer every engine gives.
//!
//! Every checked property asks one question: can its target be reached?
//! For a safety assertion or a cover the target is a literal of its cone;
//! for a liveness obligation it is a fair lasso of its cone with the
//! pending-obligation monitors ([`crate::liveness`]).  A decided answer is a
//! [`Verdict`]: yes with a trace, or no with a [`Certificate`].
//!
//! BMC with k-induction ([`crate::bmc`]), PDR ([`crate::pdr`]), the lasso
//! search and k-liveness ([`crate::liveness`]) and the explicit engine's
//! searches ([`crate::explicit`]) answer `Option<Verdict>`.  `None` means
//! undecided: within the engine's bounds, or because the task's
//! [`crate::interrupt::Interrupt`] fired, which the handle itself records.
//! An engine never answers [`Verdict::Unreachable`] once its interrupt has
//! fired.  The proof cache ([`crate::portfolio::ProofCache`]) stores,
//! re-checks and returns the same verdict, and the checker turns it into a
//! report status.

use crate::pdr::Invariant;
use crate::trace::Trace;

/// A decided answer to "can the target be reached?".  Artifacts are in the
/// terms of the model the property was checked on: its cone, plus the
/// pending-obligation monitors for liveness.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Yes: the counterexample (safety), the lasso (liveness, with its
    /// [`Trace::loop_start`]) or the witness (cover), replayed on the model.
    Reached(Trace),
    /// No, and why.
    Unreachable(Certificate),
}

/// Why a target cannot be reached.
#[derive(Debug, Clone, PartialEq)]
pub enum Certificate {
    /// k-induction closed at this depth.
    Induction(usize),
    /// A PDR inductive invariant.
    Invariant(Invariant),
    /// k-liveness at `k`: at most `k` fairness rounds complete while the
    /// obligation stays pending.
    KLiveness {
        /// The least k at which the round counter stays bounded.
        k: usize,
        /// A PDR invariant of the k-liveness model
        /// ([`crate::liveness::KLiveness`]) that keeps its round counter
        /// below k + 1.
        invariant: Invariant,
    },
    /// Exhaustive reachable-state enumeration by the explicit engine.
    Reachability,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::{Aig, Lit};
    use crate::bmc::{check_target_budgeted, BmcOptions};
    use crate::explicit::{self, ExplicitOptions};
    use crate::interrupt::Interrupt;
    use crate::liveness::{self, k_liveness, lasso_search, KLiveness, Monitors};
    use crate::model::{Model, ResponseProperty};
    use crate::pdr::{check_pdr_budgeted, PdrOptions};
    use crate::sat::SolverConfig;
    use crate::words;

    /// Width of the two factors.
    const WIDTH: usize = 5;
    /// 26 × 26: two factors of `WIDTH` bits reach it.
    const REACHABLE: u128 = 676;
    /// 12 × 47: no two factors of `WIDTH` bits reach it.
    const UNREACHABLE: u128 = 564;

    /// Two `WIDTH`-bit registers, loaded from inputs on every cycle, and the
    /// literal "their product is `n`".  Whether `n` is reachable or not, a
    /// SAT engine must search a multiplier: each engine spends 11 to 134
    /// conflicts on the two products below, so small budgets fire.
    fn factoring(n: u128) -> (Model, Lit) {
        let mut aig = Aig::new();
        let mut factor = |name: &str| -> Vec<Lit> {
            let inputs: Vec<Lit> = (0..WIDTH)
                .map(|i| aig.add_input(format!("{name}_in[{i}]")))
                .collect();
            let latches: Vec<Lit> = (0..WIDTH)
                .map(|i| aig.add_latch(format!("{name}[{i}]"), false))
                .collect();
            for (&latch, &input) in latches.iter().zip(&inputs) {
                aig.set_latch_next(latch, input);
            }
            words::resize(&latches, 2 * WIDTH)
        };
        let (a, b) = (factor("a"), factor("b"));
        let product = words::mul(&mut aig, &a, &b);
        let target = words::eq(&mut aig, &product, &words::constant(n, 2 * WIDTH));
        (Model::new(aig), target)
    }

    /// `factoring(n)` with the obligation "a product of `n` is answered",
    /// which nothing answers, on its monitored model: a fair lasso exists
    /// exactly when the product can be `n`.
    fn starving(n: u128) -> (Model, Monitors) {
        let (mut model, target) = factoring(n);
        model.liveness.push(ResponseProperty {
            name: "answered".into(),
            trigger: target,
            target: Lit::FALSE,
        });
        liveness::monitored(&model, 0)
    }

    /// Runs `engine` unbudgeted and then under a sweep of step budgets.  The
    /// unbudgeted run must answer `expected`: reached (`Some(true)`),
    /// unreachable (`Some(false)`) or undecided.  Every trace must pass
    /// `replays`, and a run whose interrupt has fired must answer `None` or
    /// a trace.  At least one budget must fire the interrupt.
    fn sweep(
        what: &str,
        expected: Option<bool>,
        engine: impl Fn(&Interrupt) -> Option<Verdict>,
        replays: impl Fn(&Trace) -> bool,
    ) {
        let check = |verdict: &Option<Verdict>, interrupt: &Interrupt, budget: &str| match verdict {
            Some(Verdict::Reached(trace)) => {
                assert!(
                    replays(trace),
                    "{what}, {budget}: the trace does not replay"
                )
            }
            Some(Verdict::Unreachable(certificate)) => assert!(
                interrupt.triggered().is_none(),
                "{what}, {budget}: {certificate:?} although the interrupt fired"
            ),
            None => {}
        };
        let unbudgeted = engine(&Interrupt::none());
        check(&unbudgeted, &Interrupt::none(), "no budget");
        let decided = unbudgeted
            .as_ref()
            .map(|verdict| matches!(verdict, Verdict::Reached(_)));
        assert_eq!(decided, expected, "{what}: {unbudgeted:?}");
        let budgets = (1..16).chain((4..13).map(|shift| 1 << shift));
        let mut fired = 0;
        for budget in budgets {
            let interrupt = Interrupt::new(None, Some(budget));
            let verdict = engine(&interrupt);
            check(&verdict, &interrupt, &format!("budget {budget}"));
            fired += usize::from(interrupt.triggered().is_some());
        }
        assert!(fired > 0, "{what}: no budget fired the interrupt");
    }

    #[test]
    fn no_engine_answers_unreachable_once_its_interrupt_has_fired() {
        let config = SolverConfig::default();
        let limits = ExplicitOptions::default();
        for (n, reached) in [(REACHABLE, true), (UNREACHABLE, false)] {
            let (model, target) = factoring(n);
            let replays = |trace: &Trace| {
                let input = |cycle, i| trace.value(cycle, model.aig.input_name(i)) == Some(true);
                crate::psim::replay(&model, target, trace.len(), input).as_ref() == Some(trace)
            };
            let bounds = BmcOptions::default();
            let bmc = |interrupt: &Interrupt| {
                check_target_budgeted(&model, target, "", &bounds, config, interrupt).0
            };
            sweep(&format!("BMC, {n}"), Some(reached), bmc, replays);
            let pdr = |interrupt: &Interrupt| {
                let options = PdrOptions::default();
                check_pdr_budgeted(&model, &[target], &options, config, interrupt).0
            };
            sweep(&format!("PDR, {n}"), Some(reached), pdr, replays);
            let reach = |interrupt: &Interrupt| explicit::reach(&model, target, &limits, interrupt);
            sweep(
                &format!("explicit reach, {n}"),
                Some(reached),
                reach,
                replays,
            );

            let (model, monitors) = starving(n);
            let replays = |trace: &Trace| {
                let input = |cycle, i| trace.value(cycle, model.aig.input_name(i)) == Some(true);
                let start = trace.loop_start().expect("a lasso");
                liveness::replay(&model, &monitors, start, trace.len(), input).as_ref()
                    == Some(trace)
            };
            // An unlimited word budget, so the breadth-first filter in front
            // of the SAT search runs until it decides or its interrupt fires.
            let lassos = |interrupt: &Interrupt| {
                lasso_search(&model, &monitors, 6, u64::MAX, config, interrupt).0
            };
            sweep(
                &format!("lasso search, {n}"),
                reached.then_some(true),
                lassos,
                replays,
            );
            let klive = KLiveness::new(&model, &monitors);
            let counting = |interrupt: &Interrupt| {
                k_liveness(&klive, &PdrOptions::default(), config, interrupt).0
            };
            let proven = (!reached).then_some(false);
            sweep(&format!("k-liveness, {n}"), proven, counting, replays);
            let scc =
                |interrupt: &Interrupt| explicit::liveness(&model, &monitors, &limits, interrupt);
            sweep(
                &format!("explicit liveness, {n}"),
                Some(reached),
                scc,
                replays,
            );
        }
    }
}
