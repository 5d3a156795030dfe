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
//! Liveness is checked on the model itself, with one pending-obligation
//! monitor register per response property added
//! ([`crate::liveness::monitored`]): a lasso search, k-liveness proofs and
//! the explicit engine's SCC check all read the obligations from those
//! monitors (see [`crate::liveness`]).

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
    /// every liveness engine reads the obligation status from the state: the
    /// lasso search and the explicit engine's SCC check directly, k-liveness
    /// through its round counter (see [`crate::liveness`]).
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
    fn monitors_add_one_pending_latch_per_obligation() {
        let (mut model, _req, _gnt, busy) = busy_design();
        model.liveness.push(ResponseProperty {
            name: "busy_clears".into(),
            trigger: busy,
            target: busy.invert(),
        });
        let (monitored, pendings, fair) = model.with_pending_monitors();
        assert_eq!(monitored.aig.num_latches(), model.aig.num_latches() + 1);
        assert_eq!(pendings.len(), 1);
        assert!(fair.is_empty());
        assert_eq!(
            monitored.aig.name_of(pendings[0].node()),
            Some("live0_pending")
        );
        assert_eq!(monitored.liveness, model.liveness);
    }

    #[test]
    fn fairness_assumptions_get_monitors_of_their_own() {
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
        let (monitored, pendings, fair) = model.with_pending_monitors();
        assert_eq!(monitored.aig.num_latches(), model.aig.num_latches() + 2);
        assert_eq!(monitored.aig.name_of(fair[0].node()), Some("fair0_pending"));
        assert_ne!(fair[0], pendings[0]);
    }

    #[test]
    fn constraints_are_preserved_by_the_monitors() {
        let (mut model, req, _gnt, busy) = busy_design();
        model.constraints.push(req);
        model.liveness.push(ResponseProperty {
            name: "p".into(),
            trigger: busy,
            target: busy.invert(),
        });
        let (monitored, _, _) = model.with_pending_monitors();
        assert_eq!(monitored.constraints, vec![req]);
    }
}
