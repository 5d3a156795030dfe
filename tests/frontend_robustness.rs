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

use autosva::{generate_ft, AutosvaOptions};
use autosva_designs::all_cases;
use autosva_formal::checker::{verify, CheckOptions};
use autosva_formal::fuzz::FuzzOptions;
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
