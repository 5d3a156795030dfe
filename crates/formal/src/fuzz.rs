//! Pre-cascade stimulus fuzzing over the bit-parallel simulator.
//!
//! Most of the Table III bugs are shallow: a few cycles of the right
//! stimulus reach the bad state.  This module hunts for them *before* any
//! SAT engine runs, by driving the 64-lane word evaluator
//! ([`crate::psim`]) over the property's optimized cone-of-influence slice
//! with a mix of stimulus strategies, split across the lanes of every word:
//!
//! * **seeded-random** — uniform per-bit stimulus from the deterministic
//!   [`rand::rngs::StdRng`] stream;
//! * **biased** — the same stream thinned toward all-zero (quiet
//!   interfaces) and toward all-one (saturating handshakes), one lane group
//!   each;
//! * **reset-directed** — lanes that hold every input low for a
//!   round-dependent warm-up window after reset before going random,
//!   approximating directed post-reset sequences;
//! * **constraint-respecting** — a lane whose stimulus would falsify an
//!   invariant assumption gets its inputs redrawn (a bounded number of
//!   times per cycle) until the assumptions hold again; lanes still
//!   violating after the redraw budget are retired for the rest of the
//!   round.  Plain rejection sampling dies within a few cycles under a
//!   restrictive environment; per-cycle redrawing keeps the whole lane
//!   population inside the legal stimulus space, so no spurious violation
//!   can be reported and deep-but-legal paths stay reachable.
//!
//! A lane that reaches a bad state is **replayed on its own**
//! ([`crate::psim::replay`], lane 0 of a fresh simulation of its concrete
//! per-cycle stimulus): only if the replay confirms the violation — every
//! constraint holds on every cycle and the bad fires at the final cycle —
//! does the fuzzer report its trace.  The SAT cascade only ever sees the
//! survivors.
//!
//! The search is fully deterministic: fixed seed, fixed lane-group layout,
//! first-hit-cycle/lowest-lane extraction order.

use crate::model::Model;
use crate::psim::{replay, LaneWord, ParallelSim, ALL_LANES};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lanes 0–15: uniform random stimulus.
const RANDOM_LANES: LaneWord = 0x0000_0000_0000_FFFF;
/// Lanes 16–31: stimulus biased low (each input high with p = 1/4).
const LOW_LANES: LaneWord = 0x0000_0000_FFFF_0000;
/// Lanes 32–47: stimulus biased high (each input high with p = 3/4).
const HIGH_LANES: LaneWord = 0x0000_FFFF_0000_0000;
/// Lanes 48–63: reset-directed — all inputs held low through a warm-up
/// window, then uniform random.
const RESET_LANES: LaneWord = 0xFFFF_0000_0000_0000;

/// Per-cycle redraw attempts for lanes whose stimulus falsifies an
/// invariant assumption before they are retired for the round.
const CONSTRAINT_REDRAWS: usize = 8;

/// Independent restarts per property, each from a derived seed and a
/// different reset-directed warm-up window.
const ROUNDS: usize = 4;

/// Simulated cycles per round (the depth horizon of the search).  The
/// per-property budget is `ROUNDS * CYCLES` simulated cycles, each carrying
/// 64 stimulus lanes: 65 536 concrete stimulus-cycles per safety property
/// before the first SAT query.
const CYCLES: usize = 256;

/// Stimulus-fuzzer knobs (part of [`crate::checker::CheckOptions`]).
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Run the fuzz stage before the SAT cascade for safety properties.
    /// The reported verdicts are unaffected either way (a confirmed hit is
    /// a true violation and is re-minimized before reporting); the knob
    /// exists for byte-identity checks of the two paths.
    pub enabled: bool,
    /// Base seed of the deterministic stimulus stream.
    pub seed: u64,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            enabled: true,
            seed: 0xDAC2_2021,
        }
    }
}

/// Work counters of one fuzz run (one safety property).  Deterministic
/// for a fixed model, seed and budget — the search itself is — so they are
/// safe to surface in the telemetry registry's deterministic section.
/// Plumbed into [`crate::checker::PropertyResult::fuzz`] so `engine: fuzz`
/// verdicts are no longer stats-blind in the timed rendering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzStats {
    /// Rounds (restarts) executed.
    pub rounds: u64,
    /// Concrete stimulus-cycles simulated (live lanes × cycles).
    pub cycles: u64,
    /// Lanes retired for a round: constraint violators past the redraw
    /// budget, plus replay mismatches.
    pub lanes_retired: u64,
    /// Per-cycle input redraws forced by falsified assumptions.
    pub redraws: u64,
    /// Candidate hits replayed on their own (see [`crate::psim::replay`]).
    pub replays: u64,
    /// Replays that confirmed the violation (0 or 1: the search stops at
    /// the first confirmed hit).
    pub confirmed: u64,
}

/// Fuzzes safety property `model.bads[bad_index]` within the fixed
/// budget.  Returns the trace of the first replay-confirmed violation
/// (deterministic: earliest round, then earliest cycle, then lowest lane;
/// inputs and latches per cycle, the bad state firing at the final cycle),
/// or `None` when the budget drains without a confirmed hit, plus the work
/// counters of the search (see [`FuzzStats`]).  Each executed round is
/// recorded as a `"fuzz.round"` telemetry span; the counters also feed the
/// `fuzz.*` entries of the metrics registry.
///
/// The [`Interrupt`] handle is polled at every round start and once per
/// simulated cycle.  An interrupted search simply reports no hit — the
/// fuzzer can only ever *find* violations, so stopping early loses no
/// soundness; the caller reads the handle to distinguish "budget
/// drained" from "preempted".  Callers without a budget pass
/// [`Interrupt::none`].
///
/// [`Interrupt`]: crate::interrupt::Interrupt
/// [`Interrupt::none`]: crate::interrupt::Interrupt::none
pub fn fuzz_safety_budgeted(
    model: &Model,
    bad_index: usize,
    options: &FuzzOptions,
    interrupt: &crate::interrupt::Interrupt,
) -> (Option<Trace>, FuzzStats) {
    let mut stats = FuzzStats::default();
    let hit = fuzz_safety_inner(model, bad_index, options, &mut stats, interrupt);
    crate::telemetry::count("fuzz.rounds", stats.rounds);
    crate::telemetry::count("fuzz.cycles", stats.cycles);
    crate::telemetry::count("fuzz.lanes_retired", stats.lanes_retired);
    crate::telemetry::count("fuzz.redraws", stats.redraws);
    crate::telemetry::count("fuzz.replays", stats.replays);
    crate::telemetry::count("fuzz.confirmed", stats.confirmed);
    (hit, stats)
}

fn fuzz_safety_inner(
    model: &Model,
    bad_index: usize,
    options: &FuzzOptions,
    stats: &mut FuzzStats,
    interrupt: &crate::interrupt::Interrupt,
) -> Option<Trace> {
    let bad = model.bads[bad_index].lit;
    let name = &model.bads[bad_index].name;
    let num_inputs = model.aig.num_inputs();
    let mut sim = ParallelSim::new(model);
    let mut inputs = vec![0u64; num_inputs];
    // Per-cycle stimulus history of the round, for replaying a lane.
    let mut history: Vec<Vec<LaneWord>> = Vec::with_capacity(CYCLES);

    for round in 0..ROUNDS {
        #[cfg(any(test, feature = "fault-injection"))]
        interrupt.fault("fuzz.round");
        if interrupt.poll().is_some() {
            return None;
        }
        let _round_span = crate::telemetry::span("fuzz.round", name);
        stats.rounds += 1;
        // SplitMix-style round-seed derivation keeps the rounds' streams
        // decorrelated even for adjacent base seeds.
        let round_seed = options
            .seed
            .wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = StdRng::seed_from_u64(round_seed);
        let warmup = 2 + 3 * round;
        sim.reset();
        history.clear();
        let mut alive = ALL_LANES;

        for cycle in 0..CYCLES {
            if interrupt.charge(1).is_some() || interrupt.poll().is_some() {
                return None;
            }
            for word in inputs.iter_mut() {
                let a = rng.next_u64();
                let b = rng.next_u64();
                let mut w = (a & RANDOM_LANES)
                    | (a & b & LOW_LANES)
                    | ((a | b) & HIGH_LANES)
                    | (a & RESET_LANES);
                if cycle < warmup {
                    w &= !RESET_LANES;
                }
                *word = w;
            }
            sim.step_inputs(&inputs);
            // Constraint-respecting: redraw the inputs of lanes whose
            // stimulus falsifies an assumption this cycle (assumptions mix
            // current inputs with latch state, so a fresh draw usually
            // lands back inside the legal space), then retire whichever
            // lanes still violate after the redraw budget.
            let mut ok = sim.constraints_word();
            for _ in 0..CONSTRAINT_REDRAWS {
                let violating = alive & !ok;
                if violating == 0 {
                    break;
                }
                stats.redraws += u64::from(violating.count_ones());
                for word in inputs.iter_mut() {
                    *word = (*word & !violating) | (rng.next_u64() & violating);
                }
                sim.step_inputs(&inputs);
                ok = sim.constraints_word();
            }
            history.push(inputs.clone());
            stats.lanes_retired += u64::from((alive & !ok).count_ones());
            alive &= ok;
            if alive == 0 {
                break;
            }
            stats.cycles += u64::from(alive.count_ones());
            let mut hits = sim.word(bad) & alive;
            while hits != 0 {
                let lane = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                stats.replays += 1;
                let lane_input = |cycle: usize, i: usize| (history[cycle][i] >> lane) & 1 == 1;
                if let Some(trace) = replay(model, bad, history.len(), lane_input) {
                    stats.confirmed += 1;
                    return Some(trace);
                }
                // A replay mismatch would mean the lane's recorded stimulus
                // does not reproduce its hit; retire the lane and keep
                // searching.
                stats.lanes_retired += 1;
                alive &= !(1 << lane);
            }
            sim.advance();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Lit;
    use crate::compile::compile;
    use crate::elab::{elaborate, ElabOptions};
    use crate::interrupt::Interrupt;
    use autosva::{generate_ft, AutosvaOptions};

    const ECHO_BAD: &str = r#"
/*AUTOSVA
t: req -in> res
req_val = req_val
req_ack = req_ack
res_val = res_val
*/
module echo (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic req_val,
  output logic req_ack,
  output logic res_val
);
  assign req_ack = 1'b1;
  assign res_val = !req_val;
endmodule
"#;

    const ECHO_GOOD: &str = r#"
/*AUTOSVA
t: req -in> res
req_val = req_val
req_ack = req_ack
res_val = res_val
*/
module echo (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic req_val,
  output logic req_ack,
  output logic res_val
);
  logic busy_q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) busy_q <= 1'b0;
    else if (req_val && req_ack) busy_q <= 1'b1;
    else busy_q <= 1'b0;
  end
  assign req_ack = !busy_q;
  assign res_val = busy_q;
endmodule
"#;

    fn compiled(src: &str) -> Model {
        let ft = generate_ft(src, &AutosvaOptions::default()).unwrap();
        let file = svparse::parse(src).unwrap();
        let design = elaborate(&file, &ElabOptions::default()).unwrap();
        compile(&design, &ft).unwrap().model
    }

    /// An unbudgeted fuzz run with its work counters.
    fn fuzz(model: &Model, index: usize, options: &FuzzOptions) -> (Option<Trace>, FuzzStats) {
        fuzz_safety_budgeted(model, index, options, &Interrupt::none())
    }

    fn safety_index(model: &Model, needle: &str) -> usize {
        model
            .bads
            .iter()
            .position(|b| b.name.contains(needle))
            .expect("safety property exists")
    }

    #[test]
    fn finds_the_ghost_response_and_confirms_by_replay() {
        let model = compiled(ECHO_BAD);
        let index = safety_index(&model, "had_a_request");
        let trace = fuzz(&model, index, &FuzzOptions::default())
            .0
            .expect("the ghost response is a shallow bug");
        // The confirmed trace must replay again, independently, to itself.
        let input =
            |cycle: usize, i: usize| trace.value(cycle, model.aig.input_name(i)).unwrap_or(false);
        let again = replay(&model, model.bads[index].lit, trace.len(), input);
        assert_eq!(again, Some(trace));
    }

    #[test]
    fn healthy_design_yields_no_hit() {
        let model = compiled(ECHO_GOOD);
        let index = safety_index(&model, "had_a_request");
        assert!(fuzz(&model, index, &FuzzOptions::default()).0.is_none());
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let model = compiled(ECHO_BAD);
        let index = safety_index(&model, "had_a_request");
        let a = fuzz(&model, index, &FuzzOptions::default()).0.unwrap();
        let b = fuzz(&model, index, &FuzzOptions::default()).0.unwrap();
        assert_eq!(a, b);
        // A different seed still finds the shallow bug.
        let other = FuzzOptions {
            seed: 7,
            ..FuzzOptions::default()
        };
        assert!(fuzz(&model, index, &other).0.is_some());
    }

    #[test]
    fn stats_count_the_search_work_deterministically() {
        let model = compiled(ECHO_BAD);
        let index = safety_index(&model, "had_a_request");
        let (hit, stats) = fuzz(&model, index, &FuzzOptions::default());
        assert!(hit.is_some());
        assert_eq!(stats.confirmed, 1);
        assert!(stats.replays >= 1);
        assert!(stats.cycles > 0);
        assert!(stats.rounds >= 1);
        let (_, again) = fuzz(&model, index, &FuzzOptions::default());
        assert_eq!(stats, again, "counters must be deterministic per seed");
        // A clean design drains the full round budget without confirming.
        let good = compiled(ECHO_GOOD);
        let gindex = safety_index(&good, "had_a_request");
        let (ghit, gstats) = fuzz(&good, gindex, &FuzzOptions::default());
        assert!(ghit.is_none());
        assert_eq!(gstats.confirmed, 0);
        assert_eq!(gstats.rounds, ROUNDS as u64);
    }

    #[test]
    fn constraint_blocking_the_bug_yields_no_hit() {
        // Assume requests are always pending: the ghost response (response
        // while req_val is low) becomes unreachable stimulus, and the
        // constraint-respecting lane mask must prevent any report.
        let mut model = compiled(ECHO_BAD);
        let index = safety_index(&model, "had_a_request");
        let req = (0..model.aig.num_inputs())
            .position(|i| model.aig.input_name(i) == "req_val")
            .map(|i| Lit::new(model.aig.inputs()[i], false))
            .expect("req_val input");
        model.constraints.push(req);
        assert!(fuzz(&model, index, &FuzzOptions::default()).0.is_none());
    }
}
