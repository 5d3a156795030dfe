//! `autosva-formal` — the formal-verification substrate of the AutoSVA
//! reproduction.
//!
//! The original AutoSVA hands its generated testbenches to commercial or
//! external tools (JasperGold, SymbiYosys).  This crate provides an
//! equivalent, self-contained backend so the paper's evaluation can be
//! regenerated without proprietary software:
//!
//! * [`elab`] — elaboration of the parsed SystemVerilog subset into a
//!   sequential And-Inverter Graph ([`aig`]), with parameters, small
//!   unpacked arrays, `always_ff`/`always_comb`, and module hierarchy;
//! * [`compile`] — lowering of an AutoSVA [`autosva::FormalTestbench`]
//!   (auxiliary signals + SVA properties) onto the elaborated design, with
//!   the same expression lowering the elaborator uses for RTL;
//! * [`sat`] — a from-scratch CDCL SAT solver (watched literals, first-UIP
//!   learning, VSIDS-style decisions, incremental assumptions);
//! * [`model`] — the checked-model representation: the circuit, its
//!   safety, cover and liveness properties, its invariant constraints and
//!   its fairness assumptions;
//! * [`verdict`] — the one answer every engine gives: a target reached,
//!   with a trace, or unreachable, with a certificate; `None` when an
//!   engine leaves it undecided;
//! * [`unroll`], [`bmc`] — Tseitin time-frame expansion, bounded model
//!   checking and k-induction with loop-free-path strengthening;
//! * [`pdr`] — an IC3/PDR property-directed-reachability engine (frame
//!   trapezoid, proof-obligation queue, unsat-core/ternary-sim cube
//!   generalization) producing certified inductive invariants;
//! * [`liveness`] — liveness under fairness on the checked cone plus its
//!   pending-obligation monitors: a loop-constrained lasso search,
//!   k-liveness proofs on PDR, and the one lasso replay;
//! * [`explicit`] — an exact explicit-state engine (bit-parallel
//!   breadth-first reachability and fairness-aware SCC analysis): a
//!   cascade stage for small designs and liveness under fairness, the
//!   first half of counterexample minimization, whose budgeted search
//!   finds the shortest trace before any SAT query, and the filter in
//!   front of the lasso search, whose budgeted search skips it where no
//!   fair cycle lies within its depth;
//! * [`coi`] — per-property cone-of-influence slicing with stable content
//!   fingerprints, so every property is checked on exactly the circuit it
//!   observes;
//! * [`portfolio`] — the parallel orchestration layer: a self-scheduling
//!   worker pool over `std::thread`, per-property budgets, and a
//!   fingerprint-keyed proof cache of verdicts, the cascade's first stage,
//!   whose hits are replayed (traces and lassos), re-certified (invariants)
//!   or re-proven (induction depths read from disk);
//! * [`psim`] — the one AIG evaluator: a gate sweep over 64 lanes per
//!   machine word, two-valued (simulation, trace replay, opt's signatures,
//!   the explicit engine) or three-valued in dual-rail form (lint's
//!   constant sweep, PDR's cube lifting), plus the sequential
//!   [`psim::ParallelSim`] driver and the one trace [`psim::replay`];
//! * [`fuzz`] — the stimulus fuzzer that runs the simulator *before* any
//!   SAT engine: seeded-random, reset-directed and constraint-respecting
//!   lanes hunt for shallow safety bugs, and every hit is replay-confirmed
//!   so the cascade only ever sees survivors;
//! * [`vcd`] — a standards-conformant VCD waveform writer (plus structural
//!   validator) that dumps every counterexample and witness trace with
//!   hierarchical signal names recovered from the elaborated design;
//! * [`telemetry`] — the observability layer: structured spans and a
//!   counter/gauge metrics registry recorded across every pipeline stage
//!   (per-worker lock-free-ish buffers, merged at run end), with a
//!   fixed-key-order JSON run report, a Chrome trace-event sink (one
//!   track per pool worker) and a human summary in the timed rendering —
//!   all behind `CheckOptions::telemetry`, zero-cost when off;
//! * [`interrupt`] — the fault-containment layer's cooperative
//!   preemption handle: a per-property wall-clock deadline and step
//!   budget polled inside every engine loop, so
//!   `property_timeout` interrupts a solve in flight instead of waiting
//!   for the cascade stage to finish (an interrupted property degrades
//!   to `Unknown`; a panicking one to `Error` — the run always renders
//!   a complete report);
//! * [`checker`] — the driver tying everything together: one loop walks
//!   each property through the stage list cache → fuzz → BMC (with
//!   k-induction, or the lasso search for liveness) → PDR → explicit on
//!   its own slice, concurrently, stopping at the first stage that decides,
//!   and produces deterministic per-property reports with counterexample
//!   [`trace`]s and the deciding stage as provenance.
//!
//! # Quick start
//!
//! ```
//! use autosva::{generate_ft, AutosvaOptions};
//! use autosva_formal::checker::{verify, CheckOptions};
//!
//! let rtl = "\
//! /*AUTOSVA
//! t: req -in> res
//! */
//! module handshake (
//!   input  logic clk_i,
//!   input  logic rst_ni,
//!   input  logic req_val,
//!   output logic req_ack,
//!   output logic res_val
//! );
//!   assign req_ack = 1'b1;
//!   assign res_val = req_val;
//! endmodule";
//! let testbench = generate_ft(rtl, &AutosvaOptions::default())?;
//! let report = verify(rtl, &testbench, &CheckOptions::default())?;
//! assert_eq!(report.violations(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aig;
pub mod bmc;
pub mod checker;
pub mod coi;
pub mod compile;
pub mod elab;
pub mod explicit;
#[cfg(any(test, feature = "fault-injection"))]
pub mod faults;
pub mod fuzz;
pub mod interrupt;
pub mod lint;
pub mod liveness;
mod lower;
pub mod model;
pub mod opt;
pub mod pdr;
pub mod portfolio;
pub mod psim;
#[cfg(test)]
mod robustness_tests;
pub mod sat;
pub mod telemetry;
pub mod trace;
pub mod unroll;
pub mod vcd;
pub mod verdict;
pub mod words;
