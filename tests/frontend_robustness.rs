//! Front-end robustness fuzzing: malformed RTL yields diagnostics, never a
//! panic.
//!
//! Every corpus source is mutated by seeded byte edits — deletions,
//! duplications and single-byte overwrites with SystemVerilog punctuation,
//! digits and identifier characters — and pushed through the whole front
//! end: `generate_ft` (lex, parse, annotations, property generation), then
//! `verify` (parse, elaboration, compilation, lint) with every engine and
//! the fuzzer off, under a front-end deadline.  Each mutant must come back
//! as `Ok` or as an error whose rendering is non-empty.  This is the RTL
//! counterpart of `cache_corruption.rs`, which does the same for the
//! proof-cache spill file.
//!
//! Fixed inputs splice oversized constants — huge widths, replications,
//! literals and overflowing constant arithmetic, in RTL and in annotations —
//! into a well-formed design.  Each must be diagnosed promptly, in a debug
//! and in a release build alike, instead of exhausting memory, outliving
//! the deadline or panicking on overflow.

use autosva::{generate_ft, AutosvaOptions};
use autosva_designs::all_cases;
use autosva_formal::checker::{verify, CheckOptions};
use autosva_formal::fuzz::FuzzOptions;
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Mutants per run, spread round-robin over the corpus designs.
const MUTANTS: usize = 128;

/// Bytes an overwrite may write: SystemVerilog punctuation, digits and
/// identifier characters.
const ALPHABET: &[u8] = b"()[]{};:,.=<>!&|^~?+-*/%#@'`\"$_0123456789azAZqx";

/// Applies 1–3 seeded edits to `source`.
fn mutate(source: &str, rng: &mut TestRng) -> String {
    let mut bytes = source.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() as u64) as usize;
        match rng.below(3) {
            // Delete up to 8 bytes.
            0 => {
                let end = (at + 1 + rng.below(8) as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            // Duplicate up to 12 bytes somewhere else.
            1 => {
                let end = (at + 1 + rng.below(12) as usize).min(bytes.len());
                let chunk = bytes[at..end].to_vec();
                let to = rng.below(bytes.len() as u64 + 1) as usize;
                bytes.splice(to..to, chunk);
            }
            // Overwrite one byte.
            _ => bytes[at] = ALPHABET[rng.below(ALPHABET.len() as u64) as usize],
        }
    }
    // An edit may split a multi-byte character; the front end takes text.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs the front end on `source`: `Ok` when it accepts the design, the
/// rendered diagnostic otherwise.
fn front_end(source: &str) -> Result<(), String> {
    let ft = generate_ft(source, &AutosvaOptions::default()).map_err(|e| e.render(source))?;
    let mut options = CheckOptions {
        disable_bmc: true,
        disable_pdr: true,
        disable_explicit: true,
        fuzz: FuzzOptions {
            enabled: false,
            ..FuzzOptions::default()
        },
        frontend_timeout: Some(Duration::from_secs(2)),
        ..CheckOptions::default()
    };
    options.parallel.threads = 1;
    verify(source, &ft, &options)
        .map(|_| ())
        .map_err(|e| e.render(source))
}

#[test]
fn mutated_corpus_sources_yield_diagnostics_not_panics() {
    let cases = all_cases();
    let mut rng = TestRng::new(0xF0E5_12D0_0B57);
    let (mut accepted, mut diagnosed) = (0, 0);
    for i in 0..MUTANTS {
        let case = &cases[i % cases.len()];
        let source = mutate(case.source, &mut rng);
        match catch_unwind(AssertUnwindSafe(|| front_end(&source))) {
            Ok(Ok(())) => accepted += 1,
            Ok(Err(diagnostic)) => {
                assert!(
                    !diagnostic.trim().is_empty(),
                    "mutant {i} of {}: empty diagnostic",
                    case.id
                );
                diagnosed += 1;
            }
            Err(_) => panic!(
                "mutant {i} of {} panicked the front end; source:\n{source}",
                case.id
            ),
        }
    }
    // Both outcomes occur: the edits neither always break the design nor
    // always miss the parser.
    assert!(
        accepted > 0 && diagnosed > 0,
        "{accepted} ok, {diagnosed} errors"
    );
}

/// A well-formed design the fixed inputs splice oversized constants into.
const BASE: &str = r#"
/*AUTOSVA
t: req -in> res
req_val = req_val
req_ack = req_ack
[1:0] req_transid = req_id
res_val = res_val
[1:0] res_transid = res_id
*/
module base (
  input  logic clk_i,
  input  logic rst_ni,
  input  logic req_val,
  output logic req_ack,
  input  logic [1:0] req_id,
  output logic res_val,
  output logic [1:0] res_id
);
  logic busy_q;
  logic [1:0] id_q;
  logic [3:0] x;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      busy_q <= 1'b0;
      id_q <= 2'b0;
    end else begin
      busy_q <= req_val && req_ack;
      id_q <= req_id;
    end
  end
  assign x = {busy_q, id_q, req_val};
  assign req_ack = !busy_q;
  assign res_val = busy_q;
  assign res_id = id_q;
endmodule
"#;

/// `(what, text in BASE, replacement, expected diagnostic fragment)`.
const OVERSIZED: &[(&str, &str, &str, &str)] = &[
    (
        "RTL replication",
        "assign req_ack = !busy_q;",
        "assign req_ack = |{40'hFFFFFFFFFF{1'b1}};",
        "replication is too large",
    ),
    (
        "annotation replication",
        "req_ack = req_ack\n",
        "req_ack = req_ack && |{40'hFFFFFFFFFF{1'b1}}\n",
        "replication is too large",
    ),
    (
        "packed width",
        "logic [3:0] x;",
        "logic [40'hFFFFFFFFFF:0] x;",
        "range [1099511627775:0] is too large",
    ),
    (
        "array length",
        "logic [3:0] x;",
        "logic [3:0] x;\n  logic [1:0] mem [0:40'hFFFFFFFF];",
        "range [0:4294967295] is too large",
    ),
    (
        "annotation width",
        "[1:0] req_transid = req_id",
        "[40'hFFFFFFFFFF:0] req_transid = req_id",
        "range [1099511627775:0] is too large",
    ),
    (
        "part-select",
        "assign req_ack = !busy_q;",
        "assign req_ack = |x[40'hFFFFFFFFFF:0];",
        "range [1099511627775:0] is too large",
    ),
    (
        "literal",
        "assign req_ack = !busy_q;",
        "assign req_ack = |4000000000'd1;",
        "literal `4000000000'd1` is too large",
    ),
    (
        "reversed target select",
        "assign x = {busy_q, id_q, req_val};",
        "assign x[1:3] = 2'b11;",
        "part-select target `x[1:3]` names its LSB first",
    ),
    (
        "shifted localparam",
        "logic [3:0] x;",
        "logic [3:0] x;\n  localparam P = 1 << 200;",
        "128-bit",
    ),
    (
        "power localparam",
        "logic [3:0] x;",
        "logic [3:0] x;\n  localparam P = 10 ** 60;",
        "128-bit",
    ),
    (
        "folded power",
        "assign req_ack = !busy_q;",
        "assign req_ack = |(8'd10 ** 8'd60);",
        "exceeds 128 bits",
    ),
];

#[test]
fn oversized_constants_are_diagnosed_within_the_deadline() {
    assert_eq!(front_end(BASE), Ok(()), "the base design must be accepted");
    for &(what, from, to, expected) in OVERSIZED {
        assert_eq!(BASE.matches(from).count(), 1, "{what}: splice point");
        let source = BASE.replace(from, to);
        let (done, finished) = mpsc::channel();
        let run = std::thread::spawn(move || {
            let result = front_end(&source);
            let _ = done.send(());
            result
        });
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(30)) {
            panic!("{what}: the front end did not return within 30 s");
        }
        let diagnostic = match run.join() {
            Ok(result) => result.expect_err(what),
            Err(_) => panic!("{what}: the front end panicked"),
        };
        assert!(
            diagnostic.contains(expected),
            "{what}: expected `{expected}` in the diagnostic, got: {diagnostic}"
        );
    }
}
