//! Counterexample and witness traces.
//!
//! A [`Trace`] is a finite sequence of cycles, each recording the value of
//! every primary input and latch of the checked model.  Traces are produced
//! by the bounded model checker and rendered as a compact waveform-style
//! table, mirroring how a hardware designer would read a formal tool's
//! counterexample.
//!
//! A liveness counterexample is a *lasso*: a trace whose last state repeats
//! the state at an earlier cycle, its loop start
//! ([`Trace::loop_start`]), so the cycles from the loop start on repeat
//! forever.

use std::collections::BTreeMap;
use std::fmt;

/// The value of one signal across all cycles of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalTrace {
    /// Signal name.
    pub name: String,
    /// `true` if the signal is a primary input (as opposed to a latch).
    pub is_input: bool,
    /// Value per cycle.
    pub values: Vec<bool>,
}

/// A finite counterexample or witness trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    cycles: usize,
    signals: BTreeMap<String, SignalTrace>,
    /// The cycle whose state the last cycle repeats, for a lasso.
    loop_start: Option<usize>,
}

impl Trace {
    /// Creates an empty trace with the given number of cycles.
    pub fn new(cycles: usize) -> Self {
        Trace {
            cycles,
            signals: BTreeMap::new(),
            loop_start: None,
        }
    }

    /// The trace as a lasso whose last state repeats the state at cycle
    /// `start`.
    #[must_use]
    pub fn with_loop_start(self, start: usize) -> Trace {
        Trace {
            loop_start: Some(start),
            ..self
        }
    }

    /// For a lasso, the cycle whose state the last cycle repeats: the
    /// cycles from there to the one before the last loop forever.  `None`
    /// for a finite trace.
    pub fn loop_start(&self) -> Option<usize> {
        self.loop_start
    }

    /// Number of cycles in the trace.
    pub fn len(&self) -> usize {
        self.cycles
    }

    /// `true` if the trace has no cycles.
    pub fn is_empty(&self) -> bool {
        self.cycles == 0
    }

    /// Records the value of `signal` at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is outside the trace length.
    pub fn record(&mut self, cycle: usize, signal: &str, value: bool, is_input: bool) {
        assert!(cycle < self.cycles, "cycle {cycle} out of range");
        let entry = self
            .signals
            .entry(signal.to_string())
            .or_insert_with(|| SignalTrace {
                name: signal.to_string(),
                is_input,
                values: vec![false; self.cycles],
            });
        entry.values[cycle] = value;
    }

    /// The value of `signal` at `cycle`, if the signal was recorded.
    pub fn value(&self, cycle: usize, signal: &str) -> Option<bool> {
        self.signals
            .get(signal)
            .and_then(|s| s.values.get(cycle).copied())
    }

    /// Iterates over the recorded signals in name order.
    pub fn signals(&self) -> impl Iterator<Item = &SignalTrace> {
        self.signals.values()
    }

    /// Number of recorded signals.
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// Renders the trace as a waveform-style text table.
    ///
    /// Signals whose value never changes and stays zero are omitted to keep
    /// counterexamples readable, unless `full` is requested.
    pub fn render(&self, full: bool) -> String {
        let mut out = String::new();
        let name_width = self
            .signals
            .values()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(6)
            .max(6);
        out.push_str(&format!("{:name_width$} |", "cycle"));
        for c in 0..self.cycles {
            out.push_str(&format!(" {c:2}"));
        }
        out.push('\n');
        out.push_str(&"-".repeat(name_width + 1 + 3 * self.cycles + 1));
        out.push('\n');
        for sig in self.signals.values() {
            if !full && sig.values.iter().all(|v| !v) {
                continue;
            }
            out.push_str(&format!("{:name_width$} |", sig.name));
            for &v in &sig.values {
                out.push_str(if v { "  1" } else { "  0" });
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let mut t = Trace::new(3);
        t.record(0, "req", true, true);
        t.record(2, "gnt", true, false);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.value(0, "req"), Some(true));
        assert_eq!(t.value(1, "req"), Some(false));
        assert_eq!(t.value(2, "gnt"), Some(true));
        assert_eq!(t.value(0, "missing"), None);
        assert_eq!(t.num_signals(), 2);
    }

    #[test]
    fn render_hides_all_zero_signals_by_default() {
        let mut t = Trace::new(2);
        t.record(0, "busy", true, false);
        t.record(0, "idle_signal", false, false);
        let compact = t.render(false);
        assert!(compact.contains("busy"));
        assert!(!compact.contains("idle_signal"));
        let full = t.render(true);
        assert!(full.contains("idle_signal"));
    }

    #[test]
    fn display_matches_compact_render() {
        let mut t = Trace::new(1);
        t.record(0, "x", true, true);
        assert_eq!(t.to_string(), t.render(false));
    }

    #[test]
    #[should_panic]
    fn out_of_range_cycle_panics() {
        let mut t = Trace::new(2);
        t.record(5, "x", true, true);
    }

    #[test]
    fn signal_iteration_is_sorted() {
        let mut t = Trace::new(1);
        t.record(0, "zeta", true, true);
        t.record(0, "alpha", true, true);
        let names: Vec<&str> = t.signals().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
