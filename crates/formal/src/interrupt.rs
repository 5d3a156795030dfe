//! Per-task interrupt and budget handles for cooperative engine
//! preemption.
//!
//! Every long-running loop in the verification cascade — the CDCL search
//! loop, PDR's obligation queue, the explicit engine's frontier sweep,
//! BMC's depth steps and the fuzzer's rounds — polls a shared
//! [`Interrupt`] handle so a per-property wall-clock deadline or a step
//! budget can stop a solve *inside* the engine rather than between
//! cascade stages.  An interrupted solve
//! surfaces as an explicit `Interrupted` outcome (never as a fake
//! `Sat`/`Unsat`), which the checker maps to
//! [`PropertyStatus::Unknown`] with a note naming the engine that was
//! preempted.
//!
//! The handle is deliberately cheap: a disarmed [`Interrupt`] (the
//! default) is a `None` and both [`Interrupt::poll`] and
//! [`Interrupt::triggered`] cost one branch.  An armed handle reads one
//! relaxed atomic on the fast path; `Instant::now` is only consulted by
//! `poll`, which callers invoke at a coarse cadence (every N conflicts,
//! once per frontier state, once per unrolling depth).
//!
//! Once any source fires, the handle latches: every later `poll` and
//! `triggered` reports the same [`InterruptReason`].  The latch is what
//! keeps downstream verdicts sound — engines check [`Interrupt::triggered`]
//! after a solve before trusting its result, so a solve that raced the
//! deadline can never be misread as a completed proof.
//!
//! Each property task gets a handle of its own, and with the
//! fault-injection harness compiled in (see `crate::faults`) that handle
//! also carries the faults the run lists for the task's property: the
//! engines hit them through `Interrupt::fault` where they poll.  The
//! module keeps no global or thread-local state.
//!
//! [`PropertyStatus::Unknown`]: crate::checker::PropertyStatus::Unknown

#[cfg(any(test, feature = "fault-injection"))]
use crate::faults::{Fault, FaultAction};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why an [`Interrupt`] fired.  Ordered by precedence: once a reason is
/// latched, later sources cannot overwrite it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptReason {
    /// The wall-clock deadline passed.
    Timeout,
    /// The step/conflict budget was exhausted.
    Budget,
}

impl InterruptReason {
    fn from_code(code: u8) -> Option<InterruptReason> {
        match code {
            1 => Some(InterruptReason::Timeout),
            2 => Some(InterruptReason::Budget),
            _ => None,
        }
    }

    fn code(self) -> u8 {
        match self {
            InterruptReason::Timeout => 1,
            InterruptReason::Budget => 2,
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Wall-clock point past which `poll` fires `Timeout`.
    deadline: Option<Instant>,
    /// Remaining step budget; `u64::MAX` means unbounded.  Saturates at
    /// zero, at which point `charge` fires `Budget`.
    budget: AtomicU64,
    /// Sticky latch: 0 = live, else an `InterruptReason` code.
    fired: AtomicU8,
}

impl Inner {
    /// Latches `reason` if nothing fired yet; returns the reason that is
    /// latched after the call (first writer wins).
    fn latch(&self, reason: InterruptReason) -> InterruptReason {
        match self
            .fired
            .compare_exchange(0, reason.code(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => reason,
            Err(prev) => InterruptReason::from_code(prev).unwrap_or(reason),
        }
    }
}

/// Shared, cloneable interrupt handle.  The default handle is disarmed
/// and never fires; [`Interrupt::new`] arms a deadline, a step budget,
/// both or neither.
#[derive(Debug, Clone, Default)]
pub struct Interrupt {
    inner: Option<Arc<Inner>>,
    /// The injected faults of the task this handle belongs to.
    #[cfg(any(test, feature = "fault-injection"))]
    faults: Vec<Fault>,
}

impl Interrupt {
    /// A handle that never fires.  Polling it is a single branch.
    pub fn none() -> Interrupt {
        Interrupt::default()
    }

    /// Arms a handle.  `deadline` is an absolute wall-clock point,
    /// `budget` a number of abstract steps (SAT conflicts, PDR queries,
    /// explicit states...).  Passing `None` for both still produces an
    /// armed handle that only fires via [`Interrupt::fire`] (fault
    /// injection uses this).
    pub fn new(deadline: Option<Instant>, budget: Option<u64>) -> Interrupt {
        Interrupt {
            inner: Some(Arc::new(Inner {
                deadline,
                budget: AtomicU64::new(budget.unwrap_or(u64::MAX)),
                fired: AtomicU8::new(0),
            })),
            #[cfg(any(test, feature = "fault-injection"))]
            faults: Vec::new(),
        }
    }

    /// Checks both sources — the sticky latch and the deadline — and
    /// returns the latched reason if any fired.  Call
    /// this at a coarse cadence (it reads the clock).
    pub fn poll(&self) -> Option<InterruptReason> {
        let inner = self.inner.as_deref()?;
        if let Some(reason) = InterruptReason::from_code(inner.fired.load(Ordering::Relaxed)) {
            return Some(reason);
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Some(inner.latch(InterruptReason::Timeout));
            }
        }
        None
    }

    /// Deducts `steps` from the budget and fires `Budget` on
    /// exhaustion.  Does not read the clock; combine with [`poll`] at
    /// the same call site when a deadline is also armed.
    ///
    /// [`poll`]: Interrupt::poll
    pub fn charge(&self, steps: u64) -> Option<InterruptReason> {
        let inner = self.inner.as_deref()?;
        if let Some(reason) = InterruptReason::from_code(inner.fired.load(Ordering::Relaxed)) {
            return Some(reason);
        }
        if inner.budget.load(Ordering::Relaxed) == u64::MAX {
            return None; // unbounded sentinel: never decremented
        }
        let before = inner.budget.fetch_sub(steps, Ordering::Relaxed);
        if before <= steps {
            // The subtraction may have wrapped, but the latch below is
            // what every later call observes, so the wrapped value is
            // never misread as a fresh budget.
            return Some(inner.latch(InterruptReason::Budget));
        }
        None
    }

    /// The sticky latch alone: cheap enough for per-result checks.
    /// Engines consult this *after* a solve before trusting its verdict,
    /// so an interrupted solve can never be misread as conclusive.
    pub fn triggered(&self) -> Option<InterruptReason> {
        let inner = self.inner.as_deref()?;
        InterruptReason::from_code(inner.fired.load(Ordering::Relaxed))
    }

    /// Latches `reason` directly.  Fault injection uses this to force a
    /// deterministic "timeout" without waiting on the wall clock.
    pub fn fire(&self, reason: InterruptReason) {
        if let Some(inner) = self.inner.as_deref() {
            inner.latch(reason);
        }
    }

    /// Attaches the faults of `faults` that name `property`, making this
    /// the handle of that property's task.
    #[cfg(any(test, feature = "fault-injection"))]
    pub(crate) fn with_faults(mut self, faults: &[Fault], property: &str) -> Interrupt {
        self.faults = faults
            .iter()
            .filter(|fault| fault.property == property)
            .cloned()
            .collect();
        self
    }

    /// A named fault-injection site: performs the action of every attached
    /// fault at `site`.  Engines call it where they poll this handle.
    #[cfg(any(test, feature = "fault-injection"))]
    pub(crate) fn fault(&self, site: &str) {
        for fault in self.faults.iter().filter(|fault| fault.site == site) {
            match fault.action {
                FaultAction::Panic => panic!("fault injected at {site}"),
                FaultAction::Timeout => self.fire(InterruptReason::Timeout),
                FaultAction::Delay(pause) => std::thread::sleep(pause),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disarmed_handle_never_fires() {
        let i = Interrupt::none();
        assert!(i.inner.is_none());
        assert_eq!(i.poll(), None);
        assert_eq!(i.charge(1_000_000), None);
        assert_eq!(i.triggered(), None);
        i.fire(InterruptReason::Timeout);
        assert_eq!(i.triggered(), None, "firing a disarmed handle is a no-op");
    }

    #[test]
    fn deadline_fires_and_latches() {
        let i = Interrupt::new(Some(Instant::now()), None);
        assert_eq!(i.poll(), Some(InterruptReason::Timeout));
        assert_eq!(i.triggered(), Some(InterruptReason::Timeout));
        // A later budget exhaustion cannot overwrite the latch.
        assert_eq!(i.charge(u64::MAX / 4), Some(InterruptReason::Timeout));
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let i = Interrupt::new(Instant::now().checked_add(Duration::from_secs(3600)), None);
        assert_eq!(i.poll(), None);
        assert_eq!(i.triggered(), None);
    }

    #[test]
    fn budget_fires_after_exhaustion() {
        let i = Interrupt::new(None, Some(10));
        assert_eq!(i.charge(4), None);
        assert_eq!(i.charge(4), None);
        assert_eq!(i.charge(4), Some(InterruptReason::Budget));
        assert_eq!(i.triggered(), Some(InterruptReason::Budget));
        assert_eq!(i.poll(), Some(InterruptReason::Budget));
    }

    #[test]
    fn cancel_flag_is_observed_by_poll() {
        // Once the deadline has passed, a reason fired through one clone
        // is still what `poll` reports on another: the latch wins.
        let a = Interrupt::new(Some(Instant::now()), None);
        let b = a.clone();
        a.fire(InterruptReason::Budget);
        assert_eq!(b.poll(), Some(InterruptReason::Budget));
        assert_eq!(b.triggered(), Some(InterruptReason::Budget));
    }

    #[test]
    fn clones_share_the_latch() {
        let a = Interrupt::new(None, None);
        let b = a.clone();
        a.fire(InterruptReason::Budget);
        assert_eq!(b.triggered(), Some(InterruptReason::Budget));
    }

    /// A task's context travels with the task: its handle carries the
    /// faults naming its property (clones handed to the engines included),
    /// and the stage tag the task keeps in a local survives an unwind, so
    /// the panic handler can still name the engine.
    #[test]
    fn task_context_tracks_engine_tags() {
        let faults = [Fault {
            site: "pdr.block_cube",
            action: FaultAction::Timeout,
            property: "as__probe".to_string(),
        }];
        let probe = Interrupt::new(None, None).with_faults(&faults, "as__probe");
        let sibling = Interrupt::new(None, None).with_faults(&faults, "as__sibling");
        let engine = probe.clone();
        engine.fault("pdr.block_cube");
        sibling.fault("pdr.block_cube");
        assert_eq!(probe.triggered(), Some(InterruptReason::Timeout));
        assert_eq!(sibling.triggered(), None, "a sibling task has no faults");

        let stage = std::cell::Cell::new("task");
        let panic = [Fault {
            action: FaultAction::Panic,
            ..faults[0].clone()
        }];
        let task = Interrupt::none().with_faults(&panic, "as__probe");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stage.set("pdr");
            task.fault("pdr.block_cube");
        }));
        assert!(unwound.is_err());
        assert_eq!(stage.get(), "pdr");
    }
}
