//! Proof-cache corruption fuzzing (fault-containment satellite).
//!
//! The on-disk spill file is advisory: any corruption — bit flips,
//! truncation, garbage bytes — must never panic the loader and must never
//! change a verdict.  [`ProofCache::open`] keeps the clean prefix of the
//! file and drops everything from the first damaged line on; every
//! surviving entry is still re-validated on lookup.  So a run against a
//! corrupted cache renders byte-identically to a cache-less run.

use autosva::{generate_ft, AutosvaOptions};
use autosva_bench::{build_testbench, default_check_options};
use autosva_designs::{by_id, elaborated, Variant};
use autosva_formal::checker::{verify, verify_elaborated, CheckOptions};
use autosva_formal::portfolio::ProofCache;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::OnceLock;
use std::time::Duration;

const ECHO: &str = r#"
/*AUTOSVA
cache_txn: req -in> res
req_val = req_val
req_ack = req_ack
[1:0] req_transid = req_id
res_val = res_val
[1:0] res_transid = res_id
*/
module cache_echo (
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
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      busy_q <= 1'b0;
      id_q <= 2'b0;
    end else begin
      if (req_val && req_ack) begin
        busy_q <= 1'b1;
        id_q <= req_id;
      end else if (busy_q) begin
        busy_q <= 1'b0;
      end
    end
  end
  assign req_ack = !busy_q;
  assign res_val = busy_q;
  assign res_id = id_q;
endmodule
"#;

fn run_render(cache_dir: Option<PathBuf>) -> String {
    let ft = generate_ft(ECHO, &AutosvaOptions::default()).unwrap();
    let mut options = CheckOptions::default();
    options.parallel.cache = cache_dir.map(ProofCache::open);
    verify(ECHO, &ft, &options).unwrap().render()
}

/// The cache-less report and a pristine spill file, computed once.
fn fixtures() -> &'static (String, Vec<u8>) {
    static FIXTURES: OnceLock<(String, Vec<u8>)> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let baseline = run_render(None);
        let seed_dir =
            std::env::temp_dir().join(format!("autosva-cache-corrupt-seed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&seed_dir);
        let cached = run_render(Some(seed_dir.clone()));
        assert_eq!(
            baseline, cached,
            "cache-backed run diverged before any corruption"
        );
        let bytes = std::fs::read(seed_dir.join("proofs.cache")).expect("spill file written");
        assert!(
            !bytes.is_empty(),
            "spill file is empty — nothing to corrupt"
        );
        let _ = std::fs::remove_dir_all(&seed_dir);
        (baseline, bytes)
    })
}

proptest! {
    #[test]
    fn corrupted_spill_files_never_panic_or_change_verdicts(
        kind in 0usize..3,
        pos in 0usize..65_536,
        mask in 1u8..255,
    ) {
        let (baseline, pristine) = fixtures();
        let mut bytes = pristine.clone();
        let pos = pos % bytes.len();
        match kind {
            // One flipped byte.
            0 => bytes[pos] ^= mask,
            // Truncation mid-file (a crashed writer's torn tail).
            1 => bytes.truncate(pos),
            // A run of three clobbered bytes (may break UTF-8 entirely,
            // which must degrade to "no cache", not a panic).
            _ => {
                for i in 0..3 {
                    let p = (pos + i) % bytes.len();
                    bytes[p] ^= mask;
                }
            }
        }

        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "autosva-cache-corrupt-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("proofs.cache"), &bytes).unwrap();

        // Opening the corrupted file must not panic, and the clean prefix
        // (whatever it is) must load as ordinary advisory entries.
        let _cache = ProofCache::open(&dir);

        // A full run against the corrupted cache re-validates every hit,
        // re-proves every reject, and renders exactly the cache-less report.
        let render = run_render(Some(dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(&render, baseline);
    }
}

/// Rewrites the outcome of `property`'s entry in a spill file to a
/// k-induction proof at `depth`.  The entry must hold a PDR invariant.
fn forge_induction_depth(spill: &str, property: &str, depth: usize) -> String {
    let mut out = Vec::new();
    let mut lines = spill.lines();
    let mut forged = 0;
    while let Some(line) = lines.next() {
        out.push(line.to_string());
        if line.starts_with("entry ") && line.ends_with(&format!(" {property}")) {
            let outcome = lines.next().expect("the entry has an outcome");
            let clauses: usize = outcome
                .strip_prefix("invariant ")
                .and_then(|rest| rest.split(' ').nth(1))
                .and_then(|count| count.parse().ok())
                .unwrap_or_else(|| panic!("{property} is not PDR-proven: {outcome}"));
            lines.by_ref().take(clauses).for_each(drop);
            out.push(format!("induction {depth}"));
            forged += 1;
        }
    }
    assert_eq!(forged, 1, "{property} should have one spill entry");
    out.join("\n") + "\n"
}

/// A spill entry claiming a k-induction proof deeper than the run's own
/// induction bound is rejected without a re-proof.  Re-proving this
/// 13-latch cone at depth 40 costs far more than the whole run, which must
/// return promptly with the cold run's verdicts.
#[test]
fn a_forged_induction_depth_is_rejected_without_stalling_the_run() {
    let case = by_id("O1").expect("O1 is in the corpus");
    let ft = build_testbench(&case);
    let design = elaborated(&case, Variant::Fixed);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("forged-induction-depth");
    let _ = std::fs::remove_dir_all(&dir);
    let mut options = default_check_options(&case, Variant::Fixed);
    options.parallel.cache = Some(ProofCache::open(&dir));
    let cold = verify_elaborated(&design, &ft, &options).expect("cold run");

    let spill = dir.join("proofs.cache");
    let text = std::fs::read_to_string(&spill).expect("spill file written");
    let forged = forge_induction_depth(&text, "as__noc_txn_had_a_request", 40);
    std::fs::write(&spill, forged).expect("rewrite the spill file");

    // A fresh cache loads the forged spill file.
    options.parallel.cache = Some(ProofCache::open(&dir));
    let (done, finished) = mpsc::channel();
    let warm = std::thread::spawn(move || {
        let report = verify_elaborated(&design, &ft, &options).expect("warm run");
        let _ = done.send(());
        report
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60)) {
        panic!("the warm run did not return within 60 s");
    }
    let warm = warm.join().expect("the warm run panicked");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(warm.render(), cold.render());
    assert_eq!(warm.cache_stats.expect("disk cache").rejected, 1);
}

/// A run with BMC off cannot minimize the fuzzer's counterexamples, so it
/// must not cache them, and a cache entry answers only runs with the same
/// engine options: a later default run sharing the cache of a fuzz-alone
/// run and a BMC-off run renders like a cold default run.  A5 and O1 buggy
/// have the deepest fuzz hits (32 and 17 cycles once minimized, far longer
/// as the fuzzer found them).  A BMC-off run proves by PDR what a default
/// run proves by k-induction (A2 fixed) and finds 6-cycle liveness
/// counterexamples where a default run finds 4 (A4 buggy).
#[test]
fn a_bmc_off_run_caches_no_unminimized_trace() {
    // Each run, and whether the fuzzer finds a safety bug in it (A4's bug
    // breaks a liveness property only).
    let runs = [
        ("A5", Variant::Buggy, true),
        ("O1", Variant::Buggy, true),
        ("A4", Variant::Buggy, false),
        ("A2", Variant::Fixed, false),
    ];
    for (id, variant, fuzz_hit) in runs {
        let case = by_id(id).expect("in the corpus");
        let ft = build_testbench(&case);
        let design = elaborated(&case, variant);
        let options = default_check_options(&case, variant);
        let cold = verify_elaborated(&design, &ft, &options).expect("cold run");

        let cache = ProofCache::new();
        let mut fuzz_alone = options.clone();
        fuzz_alone.disable_bmc = true;
        fuzz_alone.disable_pdr = true;
        fuzz_alone.disable_explicit = true;
        fuzz_alone.parallel.cache = Some(cache.clone());
        let hunt = verify_elaborated(&design, &ft, &fuzz_alone).expect("fuzz-alone run");
        assert_eq!(
            hunt.violations() > 0,
            fuzz_hit,
            "{id}: fuzz-alone violations"
        );
        assert_eq!(
            cache.stats().insertions,
            0,
            "{id}: the fuzz-alone run cached a verdict"
        );

        let mut bmc_off = options.clone();
        bmc_off.disable_bmc = true;
        bmc_off.parallel.cache = Some(cache.clone());
        verify_elaborated(&design, &ft, &bmc_off).expect("BMC-off run");
        assert!(
            cache.stats().insertions > 0,
            "{id}: the BMC-off run cached nothing"
        );

        let mut shared = options;
        shared.parallel.cache = Some(cache);
        let after = verify_elaborated(&design, &ft, &shared).expect("default run");
        assert_eq!(
            after.render(),
            cold.render(),
            "{id}: render after a BMC-off run"
        );
    }
}
