//! Fault-injection harness: named injection sites inside the engines where
//! a test (the unit tests and the contract suite, `tests/contracts.rs`)
//! can force a panic, a spurious timeout, or a delay at a precise point in
//! the cascade.
//!
//! Compiled only under `cfg(any(test, feature = "fault-injection"))`;
//! production builds carry no trace of it.  Faults are per run: a test
//! lists them in [`CheckOptions::faults`], each naming a site, an action
//! and the property whose task it fires in.  The checker attaches to each
//! task's [`Interrupt`] only the faults that name the task's property, and
//! the engines hit their sites through that handle, at the places where
//! they poll it:
//!
//! ```ignore
//! #[cfg(any(test, feature = "fault-injection"))]
//! interrupt.fault("pdr.block_cube");
//! ```
//!
//! So concurrent runs in one process, and the tasks of one run, never see
//! each other's faults.  The sites are `prepare`, `fuzz.round`,
//! `bmc.depth_step`, `pdr.block_cube` and `explicit.step`, which fires once
//! per state of every explicit-engine search (counterexample
//! minimization's and the lasso search's filter included).  `prepare`
//! fires once per checked property's task, before the task slices its
//! cone; preparation runs before the task's deadline starts and polls no
//! interrupt, so only a panic or a delay acts there (a panic makes the row
//! `ERROR in task`).
//!
//! The three actions map to the three fault classes the containment
//! layer must absorb:
//!
//! * [`FaultAction::Panic`] — the site panics with a recognizable
//!   message, exercising `catch_unwind` → `PropertyStatus::Error`;
//! * [`FaultAction::Timeout`] — the site latches [`InterruptReason::Timeout`]
//!   on the task's interrupt handle, exercising the cooperative
//!   preemption paths deterministically (no wall clock involved);
//! * [`FaultAction::Delay`] — the site sleeps, for schedule-perturbation
//!   tests.
//!
//! [`CheckOptions::faults`]: crate::checker::CheckOptions::faults
//! [`Interrupt`]: crate::interrupt::Interrupt
//! [`InterruptReason::Timeout`]: crate::interrupt::InterruptReason::Timeout

use std::time::Duration;

/// What a fault does at its site.
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Panic with `fault injected at <site>`.
    Panic,
    /// Latch a spurious [`InterruptReason::Timeout`] on the task's
    /// interrupt handle.
    ///
    /// [`InterruptReason::Timeout`]: crate::interrupt::InterruptReason::Timeout
    Timeout,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
}

/// One injected fault of a run: `action` at every hit of `site` in the
/// task of `property`.
#[derive(Debug, Clone)]
pub struct Fault {
    /// The injection site, such as `"bmc.depth_step"`.
    pub site: &'static str,
    /// What the site does when hit.
    pub action: FaultAction,
    /// The full name of the property whose task the fault fires in.
    pub property: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interrupt::{Interrupt, InterruptReason};
    use std::panic::catch_unwind;

    fn fault(site: &'static str, action: FaultAction, property: &str) -> Vec<Fault> {
        vec![Fault {
            site,
            action,
            property: property.to_string(),
        }]
    }

    #[test]
    fn unarmed_points_are_no_ops() {
        let interrupt = Interrupt::new(None, None);
        interrupt.fault("tests.nothing_armed");
        Interrupt::none().fault("tests.nothing_armed");
        assert_eq!(interrupt.triggered(), None);
    }

    /// A fault lives on the handle it was attached to and on that handle's
    /// clones; a handle built without it never fires.
    #[test]
    fn guard_disarms_on_drop() {
        let faults = fault("tests.guarded", FaultAction::Timeout, "as__guarded");
        let armed = Interrupt::new(None, None).with_faults(&faults, "as__guarded");
        armed.clone().fault("tests.guarded");
        assert_eq!(armed.triggered(), Some(InterruptReason::Timeout));
        drop(armed);
        let fresh = Interrupt::new(None, None);
        fresh.fault("tests.guarded"); // must not fire anything
        assert_eq!(fresh.triggered(), None);
    }

    #[test]
    fn property_filter_gates_the_fault() {
        let faults = fault("tests.filtered", FaultAction::Panic, "as__someone_else");
        Interrupt::none()
            .with_faults(&faults, "as__this_test")
            .fault("tests.filtered"); // filter mismatch: no panic
        Interrupt::none().fault("tests.filtered"); // no faults at all: no panic
    }

    #[test]
    fn panic_action_panics_with_the_site_name() {
        let faults = fault("tests.boom", FaultAction::Panic, "as__boom");
        let interrupt = Interrupt::none().with_faults(&faults, "as__boom");
        let caught = catch_unwind(|| interrupt.fault("tests.boom"));
        let payload = caught.expect_err("site must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert_eq!(msg, "fault injected at tests.boom");
    }

    #[test]
    fn timeout_action_latches_the_current_interrupt() {
        let faults = fault(
            "tests.spurious_timeout",
            FaultAction::Timeout,
            "as__timeout_probe",
        );
        let interrupt = Interrupt::new(None, None).with_faults(&faults, "as__timeout_probe");
        interrupt.fault("tests.spurious_timeout");
        assert_eq!(interrupt.triggered(), Some(InterruptReason::Timeout));
    }

    /// One hit of a fault's site fires the fault once; hits of other sites
    /// fire nothing.
    #[test]
    fn arm_once_fires_exactly_once() {
        let faults = fault("tests.once", FaultAction::Panic, "as__once_probe");
        let interrupt = Interrupt::none().with_faults(&faults, "as__once_probe");
        let panics = ["tests.before", "tests.once", "tests.after"]
            .into_iter()
            .filter(|site| catch_unwind(|| interrupt.fault(site)).is_err())
            .count();
        assert_eq!(panics, 1);
    }
}
