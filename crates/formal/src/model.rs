//! The checked model: an AIG plus properties, constraints and fairness.
//!
//! A [`Model`] is what the verification engines consume.  It contains:
//!
//! * **bad-state literals** — safety assertions, violated when the literal is
//!   true in a reachable state;
//! * **cover literals** — reachability targets (SVA `cover property`);
//! * **invariant constraints** — safety assumptions that restrict the
//!   explored paths (SVA `assume property` of non-temporal shape);
//! * **response properties** — liveness obligations of the form
//!   `G (trigger -> F target)`, split into asserted obligations and assumed
//!   environment fairness.
//!
//! Liveness is reduced to safety with the standard liveness-to-safety (L2S)
//! loop-detection construction in [`Model::to_liveness_safety`].

use crate::aig::{Aig, Lit};

/// A named safety obligation: the design is buggy if `lit` can be true.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadProperty {
    /// Property name (the SVA label).
    pub name: String,
    /// Literal that is true exactly when the property is violated.
    pub lit: Lit,
}

/// A named reachability target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverProperty {
    /// Property name (the SVA label).
    pub name: String,
    /// Literal to be reached.
    pub lit: Lit,
}

/// A response (liveness) property `G (trigger -> F target)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseProperty {
    /// Property name (the SVA label).
    pub name: String,
    /// Literal that raises the obligation.
    pub trigger: Lit,
    /// Literal that discharges the obligation.
    pub target: Lit,
}

/// A sequential design together with everything to verify about it.
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// The circuit.
    pub aig: Aig,
    /// Safety assertions (bad-state literals).
    pub bads: Vec<BadProperty>,
    /// Cover targets.
    pub covers: Vec<CoverProperty>,
    /// Invariant assumptions: every explored state must satisfy all of these.
    pub constraints: Vec<Lit>,
    /// Asserted liveness obligations.
    pub liveness: Vec<ResponseProperty>,
    /// Assumed environment fairness (liveness assumptions).
    pub fairness: Vec<ResponseProperty>,
}

/// The result of the liveness-to-safety transformation: a new [`Model`] whose
/// bad literals correspond one-to-one to the original liveness assertions.
#[derive(Debug, Clone)]
pub struct LivenessSafetyModel {
    /// The transformed model (safety only).
    pub model: Model,
    /// Names of the original liveness properties, in the same order as
    /// `model.bads`.
    pub property_names: Vec<String>,
}

impl Model {
    /// Creates an empty model around an existing circuit.
    pub fn new(aig: Aig) -> Self {
        Model {
            aig,
            ..Model::default()
        }
    }

    /// Builds a "pending obligation" monitor register for a response
    /// property: set when the trigger fires without the target, cleared by
    /// the target.
    fn pending_monitor(aig: &mut Aig, name: &str, prop: &ResponseProperty) -> Lit {
        let pending = aig.add_latch(format!("{name}_pending"), false);
        // pending' = (pending | trigger) & !target
        let raised = aig.or(pending, prop.trigger);
        let next = aig.and(raised, prop.target.invert());
        aig.set_latch_next(pending, next);
        pending
    }

    /// Adds pending-obligation monitor registers for every fairness
    /// assumption and then every liveness assertion, returning the
    /// augmented model together with the liveness and the fairness monitor
    /// literals.
    ///
    /// The returned literals are latch outputs of the augmented circuit, so
    /// the explicit engine's liveness check ([`crate::explicit::liveness`])
    /// reads the obligation status directly from the packed state;
    /// [`Model::to_liveness_safety`] builds its loop detection on the same
    /// monitors.
    pub(crate) fn with_pending_monitors(&self) -> (Model, Vec<Lit>, Vec<Lit>) {
        let mut aig = self.aig.clone();
        let fair_pendings: Vec<Lit> = self
            .fairness
            .iter()
            .enumerate()
            .map(|(i, f)| Self::pending_monitor(&mut aig, &format!("fair{i}"), f))
            .collect();
        let assert_pendings: Vec<Lit> = self
            .liveness
            .iter()
            .enumerate()
            .map(|(i, p)| Self::pending_monitor(&mut aig, &format!("live{i}"), p))
            .collect();
        let model = Model {
            aig,
            bads: self.bads.clone(),
            covers: self.covers.clone(),
            constraints: self.constraints.clone(),
            liveness: self.liveness.clone(),
            fairness: self.fairness.clone(),
        };
        (model, assert_pendings, fair_pendings)
    }

    /// Applies the liveness-to-safety transformation.
    ///
    /// For every asserted response property `G (a -> F b)` the transformed
    /// model contains a bad state that is reachable exactly when the original
    /// model has a reachable *fair lasso* on which the obligation stays
    /// pending forever while every assumed fairness property is honoured.
    ///
    /// The construction (Biere/Artho/Schuppan), on one pending-obligation
    /// monitor register per fairness assumption and liveness assertion:
    ///
    /// * a free oracle input `l2s_save` snapshots the full latch state into
    ///   shadow registers (once),
    /// * `always_pending` tracks that the obligation has been pending at
    ///   every cycle since the snapshot,
    /// * one `fair_seen` register per assumed fairness property records that
    ///   its own pending flag was *low* at some cycle since the snapshot
    ///   (i.e. the environment obligation was not permanently withheld),
    /// * the bad state fires when the current state equals the snapshot, the
    ///   assertion obligation was pending throughout, and every fairness
    ///   witness was seen.
    pub fn to_liveness_safety(&self) -> LivenessSafetyModel {
        let (monitored, assert_pendings, fair_pendings) = self.with_pending_monitors();
        let mut aig = monitored.aig;
        let mut property_names = Vec::new();
        let mut bads = Vec::new();

        // Snapshot machinery.  The snapshot covers every latch of the
        // *augmented* design (original latches plus the pending monitors), so
        // a state match closes a genuine loop of the product automaton.
        let original_latches: Vec<Lit> = aig
            .latches()
            .iter()
            .map(|l| Lit::new(l.node, false))
            .collect();

        let save = aig.add_input("l2s_save");
        let saved = aig.add_latch("l2s_saved", false);
        let pulse = aig.and(save, saved.invert());
        let saved_next = aig.or(saved, pulse);
        aig.set_latch_next(saved, saved_next);

        // Shadow registers.
        let mut shadows = Vec::with_capacity(original_latches.len());
        for (i, &latch) in original_latches.iter().enumerate() {
            let shadow = aig.add_latch(format!("l2s_shadow{i}"), false);
            let next = aig.mux(pulse, latch, shadow);
            aig.set_latch_next(shadow, next);
            shadows.push(shadow);
        }

        // `state == shadow` for the original (augmented) latches.
        let eq_bits: Vec<Lit> = original_latches
            .iter()
            .zip(&shadows)
            .map(|(&a, &b)| aig.xnor(a, b))
            .collect();
        let state_matches = aig.and_many(&eq_bits);

        // Window-active signal: the snapshot cycle itself or any later cycle.
        let in_window = aig.or(pulse, saved);

        // Fairness witnesses: pending_i was low at some cycle in the window.
        let mut fair_seen_all = Lit::TRUE;
        for (i, &fp) in fair_pendings.iter().enumerate() {
            let seen = aig.add_latch(format!("l2s_fair_seen{i}"), false);
            let low_now = fp.invert();
            let windowed_low = aig.and(in_window, low_now);
            let keep = aig.and(seen, saved);
            let next = aig.or(keep, windowed_low);
            aig.set_latch_next(seen, next);
            // The witness for the *current* cycle also counts, so the check
            // uses `seen | (in_window & low_now)`.
            let seen_now = aig.or(seen, windowed_low);
            fair_seen_all = aig.and(fair_seen_all, seen_now);
        }

        for (i, prop) in self.liveness.iter().enumerate() {
            let pending = assert_pendings[i];
            // always_pending: the obligation held at every cycle in the window.
            let always = aig.add_latch(format!("l2s_always_pending{i}"), true);
            let still = aig.and(always, pending);
            let windowed = aig.mux(in_window, still, Lit::TRUE);
            aig.set_latch_next(always, windowed);
            let always_now = aig.and(always, pending);

            // Bad: we are back at the snapshot with the obligation pending
            // throughout and all fairness witnesses observed.
            let loop_closed = aig.and(saved, state_matches);
            let bad = aig.and_many(&[loop_closed, always_now, fair_seen_all]);
            bads.push(BadProperty {
                name: prop.name.clone(),
                lit: bad,
            });
            property_names.push(prop.name.clone());
        }

        let model = Model {
            aig,
            bads,
            covers: Vec::new(),
            constraints: self.constraints.clone(),
            liveness: Vec::new(),
            fairness: Vec::new(),
        };
        LivenessSafetyModel {
            model,
            property_names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny design: a request input sets a busy flag, a grant input clears
    /// it.  The liveness property "busy is eventually cleared" holds only if
    /// we assume the grant eventually arrives.
    fn busy_design() -> (Model, Lit, Lit, Lit) {
        let mut aig = Aig::new();
        let req = aig.add_input("req");
        let gnt = aig.add_input("gnt");
        let busy = aig.add_latch("busy", false);
        // busy' = (busy | req) & !gnt
        let raised = aig.or(busy, req);
        let next = aig.and(raised, gnt.invert());
        aig.set_latch_next(busy, next);
        let model = Model::new(aig);
        (model, req, gnt, busy)
    }

    #[test]
    fn l2s_produces_one_bad_per_liveness_assertion() {
        let (mut model, _req, _gnt, busy) = busy_design();
        model.liveness.push(ResponseProperty {
            name: "busy_clears".into(),
            trigger: busy,
            target: busy.invert(),
        });
        let l2s = model.to_liveness_safety();
        assert_eq!(l2s.model.bads.len(), 1);
        assert_eq!(l2s.property_names, vec!["busy_clears".to_string()]);
        // The transformed model gained shadow latches and monitors.
        assert!(l2s.model.aig.num_latches() > model.aig.num_latches());
        assert!(l2s.model.liveness.is_empty());
    }

    #[test]
    fn l2s_with_fairness_adds_witness_latches() {
        let (mut model, req, gnt, busy) = busy_design();
        model.liveness.push(ResponseProperty {
            name: "busy_clears".into(),
            trigger: busy,
            target: busy.invert(),
        });
        model.fairness.push(ResponseProperty {
            name: "gnt_fair".into(),
            trigger: req,
            target: gnt,
        });
        let without_fair = {
            let mut m = Model::new(model.aig.clone());
            m.liveness = model.liveness.clone();
            m.to_liveness_safety()
        };
        let with_fair = model.to_liveness_safety();
        assert!(
            with_fair.model.aig.num_latches() > without_fair.model.aig.num_latches(),
            "fairness monitors must add latches"
        );
    }

    #[test]
    fn constraints_are_preserved_by_l2s() {
        let (mut model, req, _gnt, busy) = busy_design();
        model.constraints.push(req);
        model.liveness.push(ResponseProperty {
            name: "p".into(),
            trigger: busy,
            target: busy.invert(),
        });
        let l2s = model.to_liveness_safety();
        assert_eq!(l2s.model.constraints, vec![req]);
    }
}
