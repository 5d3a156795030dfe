//! Parallel verification orchestration: scheduling, budgets and the proof
//! cache.
//!
//! The checker turns every property of a testbench into an independent task
//! on its own cone-of-influence slice (see [`crate::coi`]); this module
//! supplies the machinery that runs those tasks:
//!
//! * [`ParallelOptions`] — the orchestration knobs on
//!   [`crate::checker::CheckOptions`]: worker count (`threads = 1` is the
//!   sequential escape hatch), opt on/off, an optional per-property time
//!   budget, and an optional [`ProofCache`];
//! * `run_ordered` — a self-scheduling worker pool over [`std::thread`]
//!   (no external dependencies): idle workers steal the next property index
//!   from a shared atomic queue head and results land in annotation order.
//!   Statuses are deterministic — every engine is single-threaded and runs
//!   on an identical slice regardless of interleaving — so a report
//!   assembled from a parallel run renders byte-identically to a
//!   sequential one;
//! * [`ProofCache`] — a process-wide store of [`Verdict`]s, the answer every
//!   engine gives, keyed by *slice fingerprint + engine options + property
//!   name*, run by the checker as the first stage of every property's
//!   cascade.  Identical cones (buggy/fixed design variants, repeated
//!   bench iterations, properties stamped out by the same annotation)
//!   checked with the same engine options reuse verdicts instead of
//!   re-running engines.  Which certificates cross the disk and how each
//!   artifact is re-checked are decided here, once: a trace is replayed
//!   through the two-state simulator on every hit, a lasso through the
//!   lasso replay ([`crate::liveness::replay`]), and an artifact of another
//!   kind of property than the one looked up (a lasso for a safety
//!   property, say) never validates; a PDR invariant must name latches of
//!   the live slice and certify with an independent SAT check on every hit,
//!   and a k-liveness invariant likewise on the k-liveness model built
//!   from the live slice; a k-induction depth is trusted when this process
//!   stored it and re-proven on the first hit after loading it from disk
//!   (or rejected outright when it exceeds the BMC stage's induction bound);
//!   an explicit-reachability proof never leaves the process and is
//!   trusted.  An entry that fails its check is evicted and the property
//!   re-verified from scratch, unless the task's budget cut the check
//!   short: that is a miss, and the entry stays.  The cache spills to disk
//!   ([`ProofCache::open`]/[`ProofCache::flush`]).  Alongside the verdicts,
//!   a cache also memoizes, in process only, the optimized form of every
//!   cone slice an opt-on run prepared, so a re-run of unchanged RTL skips
//!   the optimizer.

use crate::aig::Lit;
use crate::bmc::{check_target_budgeted, BmcOptions};
use crate::checker::BMC_BOUNDS;
use crate::coi::Fingerprint;
use crate::interrupt::Interrupt;
use crate::liveness::{KLiveness, Monitors};
use crate::model::Model;
use crate::pdr::Invariant;
use crate::sat::SolverConfig;
use crate::trace::Trace;
use crate::verdict::{Certificate, Verdict};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::str::Lines;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Orchestration options for a verification run (part of
/// [`crate::checker::CheckOptions`]).
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Number of worker threads; `0` uses every available core, `1` is the
    /// fully sequential escape hatch.
    pub threads: usize,
    /// Run the AIG static-analysis/optimization pass ([`crate::opt`]) on
    /// each property's cone-of-influence slice before the engine cascade:
    /// sequential latch sweeping (constants included), combinational gate
    /// sweeping, two-level rewriting and dead-node elimination, all
    /// verdict-preserving.
    pub opt: bool,
    /// Wall-clock budget per property; a property still undecided when its
    /// budget runs out between engine stages reports
    /// [`crate::checker::PropertyStatus::Unknown`] with an explanatory note.
    /// Budgets make outcomes timing-dependent, so the default is `None`.
    pub property_timeout: Option<Duration>,
    /// Share verified verdicts across runs keyed by slice fingerprint: the
    /// first stage of every property's cascade looks the property up here.
    pub cache: Option<ProofCache>,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            threads: 0,
            opt: true,
            property_timeout: None,
            cache: None,
        }
    }
}

impl ParallelOptions {
    /// The effective worker count: `threads`, or every available core when
    /// `threads == 0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

/// Runs `run(item)` for every item on up to `threads` workers and returns
/// the results in item order.
///
/// Workers self-schedule from a shared queue head, so long-running
/// properties never block short ones behind a static partition.
///
/// # Fault containment
///
/// The checker wraps engine work in its own `catch_unwind`, but this pool
/// is the last line of defense: a panic that escapes `run` is caught here
/// so one poisoned item cannot tear down the scope at join time and lose
/// every completed verdict.  The panicking item's slot stays `None`; the
/// result mutex is recovered from poisoning rather than propagating it.
pub(crate) fn run_ordered<T, R, F>(
    items: &[T],
    threads: usize,
    telemetry: &crate::telemetry::Telemetry,
    run: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len().max(1));
    if workers <= 1 {
        // Sequential escape hatch: runs on the calling thread, which is
        // already inside the run's telemetry scope (track 0).
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                crate::telemetry::gauge("pool.queue_depth", items.len().saturating_sub(i) as u64);
                catch_unwind(AssertUnwindSafe(|| run(item))).ok()
            })
            .collect();
    }
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Each pool worker records onto its own telemetry track
                // (a fresh per-worker buffer; no-op when telemetry is off).
                let _telemetry_scope = crate::telemetry::enter(telemetry);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    crate::telemetry::gauge(
                        "pool.queue_depth",
                        items.len().saturating_sub(i) as u64,
                    );
                    let r = catch_unwind(AssertUnwindSafe(|| run(&items[i])));
                    // Recover rather than propagate poisoning: the vector
                    // of `Option` slots is always in a consistent state
                    // (each slot is written exactly once, after its run),
                    // so a panic elsewhere cannot have corrupted it.
                    let mut slots = results.lock().unwrap_or_else(PoisonError::into_inner);
                    if let Ok(r) = r {
                        slots[i] = Some(r);
                    }
                }
            });
        }
    });
    results.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Counters describing the effectiveness of a [`ProofCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (after successful re-validation).
    pub hits: u64,
    /// Lookups that found no entry, or whose check of the entry the task's
    /// budget cut short (the entry stays).
    pub misses: u64,
    /// Verdicts stored.
    pub insertions: u64,
    /// Entries evicted because re-validation (trace replay, invariant
    /// certification or an induction re-proof) failed.
    pub rejected: u64,
    /// Entries loaded from the on-disk spill at open time.
    pub loaded: u64,
    /// Cones whose optimized slice came from the slice memo instead of
    /// being optimized again.
    pub slices_reused: u64,
}

impl CacheStats {
    /// The counter delta since `earlier` (a snapshot from the same cache):
    /// what one run contributed.  `loaded` is kept absolute — it describes
    /// the open, not the run.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            loaded: self.loaded,
            slices_reused: self.slices_reused.saturating_sub(earlier.slices_reused),
        }
    }
}

/// The key of a cached verdict: the content fingerprint of the checked
/// slice, a digest of the engine options that shaped the verdict's
/// artifact, and the property's full name.  Keys order as the spill file
/// lists them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct CacheKey {
    pub fingerprint: Fingerprint,
    pub config: u64,
    pub property: String,
}

/// What a cached verdict must show on the live model to be returned.
#[derive(Clone, Copy)]
pub(crate) enum Goal<'a> {
    /// A trace reaching this literal, or a certificate that none does
    /// (safety, cover).
    Reach(Lit),
    /// A fair lasso of the obligation with these monitors, or a k-liveness
    /// certificate over this k-liveness model (liveness).
    Lasso(&'a Monitors, &'a KLiveness),
}

/// A stored verdict plus its provenance: entries loaded from the on-disk
/// spill are re-validated more aggressively than entries produced by this
/// process (the spill file is a trust boundary; the in-process store is
/// not).
#[derive(Debug, Clone)]
struct CacheEntry {
    verdict: Verdict,
    /// Loaded from disk and not yet re-validated by this process.
    unvalidated: bool,
}

/// A cone slice in the form the engines check: the optimized slice when
/// opt is on, the raw one otherwise, and for a liveness property that
/// slice with its pending-obligation monitors, and its k-liveness model.
#[derive(Debug, Clone)]
pub(crate) struct PreparedSlice {
    /// The model the engines check.
    pub model: Arc<Model>,
    /// The slice's own fingerprint (without monitors), which keys its
    /// verdicts.
    pub fingerprint: Fingerprint,
    /// Latches and AND gates of the slice, without monitors.
    pub cone: (usize, usize),
    /// For liveness, the obligation's monitors and its k-liveness model.
    pub liveness: Option<Arc<(Monitors, KLiveness)>>,
}

#[derive(Default)]
struct CacheInner {
    entries: HashMap<CacheKey, CacheEntry>,
    /// Prepared slices keyed by raw slice fingerprint.  Never spilled: a
    /// model loaded from disk could only be trusted by optimizing again.
    slices: HashMap<Fingerprint, PreparedSlice>,
    stats: CacheStats,
    /// On-disk spill file (None for a purely in-memory cache).
    path: Option<PathBuf>,
    /// Entries changed since the last flush.
    dirty: bool,
}

/// A process-wide proof cache shared by verification runs (cheaply cloneable
/// handle; clones share the same store).
///
/// The checker runs the cache as the first stage of every property's
/// cascade: a later stage's decided verdict is stored, and a lookup returns
/// a stored verdict only after its artifact passed its check (see the
/// module documentation).
///
/// Each verdict is keyed by the slice fingerprint, a digest of the engine
/// options that shape its artifact (which stages ran and the solver
/// features) and the property name, so a run takes only what a run with
/// the same engine options stored and renders like a cold run.
///
/// A cache opened with [`ProofCache::open`] is backed by a versioned
/// on-disk spill file (`autosva-proof-cache v4`): entries load at open time
/// (corruption-tolerant — a truncated or garbled file yields the readable
/// prefix, never an error, and a file of another version loads empty) and
/// [`ProofCache::flush`] writes them back atomically, so repeated CLI/CI
/// invocations reuse proofs across processes.  The spill file is a trust
/// boundary, so only verdicts whose artifact can be independently
/// re-checked cross it: traces (`reached`, replayed on every hit), lassos
/// (`lasso`, with their loop start, replayed by the lasso replay on every
/// hit), PDR invariants (`invariant`, re-certified on every hit),
/// k-liveness invariants (`kliveness`, with their k, re-certified on every
/// hit on the k-liveness model built from the live slice) and induction
/// depths (`induction`, re-proven on the first hit after loading; entries
/// stored by this process stay trusted on the fingerprint match).  Whether
/// a trace is a counterexample or a witness, and whether an unreachable
/// target is a proof or an unreachable cover, follows from the property's
/// kind, so a cover's certificate crosses the disk like an assertion's.
/// Parsed artifacts are bounds-checked (depth, clause, cycle and signal
/// caps, a loop start inside its trace, a k within the checker's bound;
/// invariant literals must name latches of the live model), so an
/// oversized forgery rejects cheaply instead of hanging the re-proof or
/// panicking the encoder.  Explicit-engine reachability proofs have no
/// re-checkable artifact and stay process-local: they are neither written
/// to nor parsed from the spill file.  A stale, garbled or hand-forged file
/// can therefore cost a re-verification but never mislead a report.
///
/// The cache also memoizes prepared cone slices for opt-on runs, keyed by
/// the raw slice fingerprint: the optimized slice and its fingerprint (for
/// liveness, with its monitors and k-liveness model).  A later run over a
/// content-identical cone reuses them instead of optimizing again (counted
/// by [`CacheStats::slices_reused`]); the optimizer is deterministic, so
/// the reused slice is the one the run would have built.  The memo lives in
/// process only: [`ProofCache::flush`] never writes it, [`ProofCache::open`]
/// starts it empty, and [`ProofCache::clear`] drops it.
///
/// See the module documentation for the validation performed on hits.
#[derive(Clone, Default)]
pub struct ProofCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl fmt::Debug for ProofCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("ProofCache")
            .field("entries", &inner.entries.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl ProofCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ProofCache::default()
    }

    /// Opens a disk-backed cache in `dir` (created if missing), loading any
    /// entries a previous process spilled there.
    ///
    /// Loading is corruption-tolerant: a missing, truncated, garbled or
    /// version-mismatched spill file yields whatever prefix parses cleanly
    /// (possibly nothing) — the cache always opens.  Call
    /// [`ProofCache::flush`] (the checker does so after every run) to write
    /// the current entries back.
    pub fn open(dir: impl AsRef<Path>) -> ProofCache {
        let dir = dir.as_ref();
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(CACHE_FILE);
        let cache = ProofCache::new();
        {
            let mut inner = cache.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if let Ok(text) = std::fs::read_to_string(&path) {
                inner.entries = parse_cache_file(&text);
                inner.stats.loaded = inner.entries.len() as u64;
            }
            inner.path = Some(path);
        }
        cache
    }

    /// The spill file backing this cache, if it was opened with
    /// [`ProofCache::open`].
    pub fn spill_path(&self) -> Option<PathBuf> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .path
            .clone()
    }

    /// Writes the entries to the on-disk spill file (atomically, via a
    /// temporary file and rename).  A no-op for in-memory caches and when
    /// nothing changed since the last flush.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing or renaming the spill file.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(path) = inner.path.clone() else {
            return Ok(());
        };
        if !inner.dirty {
            return Ok(());
        }
        let mut entries: Vec<(&CacheKey, &CacheEntry)> = inner.entries.iter().collect();
        // Deterministic file contents regardless of hash-map order.
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut text = String::new();
        text.push_str(CACHE_HEADER);
        text.push('\n');
        for (key, entry) in entries {
            render_cache_entry(&mut text, key, &entry.verdict);
        }
        let tmp = path.with_extension("tmp");
        {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            file.write_all(text.as_bytes())?;
            file.flush()?;
        }
        std::fs::rename(&tmp, &path)?;
        inner.dirty = false;
        Ok(())
    }

    /// Number of stored verdicts.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss/insert/reject counters.
    pub fn stats(&self) -> CacheStats {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats
    }

    /// Drops every entry and every memoized slice (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.entries.clear();
        inner.slices.clear();
        inner.dirty = true;
    }

    /// The prepared slice memoized under raw slice fingerprint `raw` (a hit
    /// counts toward [`CacheStats::slices_reused`]), or else `prepare()`'s,
    /// memoized.  `prepare` runs without the lock, so two runs racing on
    /// one cone may both prepare it; the first insert wins, and both
    /// results are identical, the optimizer being deterministic.
    pub(crate) fn prepared_slice(
        &self,
        raw: Fingerprint,
        prepare: impl FnOnce() -> PreparedSlice,
    ) -> PreparedSlice {
        {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(slice) = inner.slices.get(&raw).cloned() {
                inner.stats.slices_reused += 1;
                return slice;
            }
        }
        let slice = prepare();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.slices.entry(raw).or_insert(slice).clone()
    }

    /// Stores a verdict (last write wins).
    pub(crate) fn store(&self, key: CacheKey, verdict: Verdict) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.stats.insertions += 1;
        inner.entries.insert(
            key,
            CacheEntry {
                verdict,
                unvalidated: false,
            },
        );
        inner.dirty = true;
    }

    /// Looks up and re-validates a verdict for a property checked on
    /// `model` (the slice, with the monitors for liveness) that must show
    /// `goal`.
    ///
    /// The entry (if any) was produced on a slice with the same content
    /// fingerprint, so a failed check indicates a hash collision or a
    /// corrupted entry — the entry is evicted and `None` returned so the
    /// property is re-verified from scratch.  A check that failed because
    /// `interrupt` fired (the task's budget ran out during a re-proof) says
    /// nothing about the entry: it counts as a miss and the entry stays.
    /// The BMC stage's induction bound and `interrupt`, the task budget,
    /// bound the re-proof of a disk-loaded k-induction entry.
    pub(crate) fn lookup(
        &self,
        key: &CacheKey,
        model: &Model,
        goal: Goal<'_>,
        interrupt: &Interrupt,
    ) -> Option<Verdict> {
        let entry = {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            match inner.entries.get(key) {
                Some(entry) => entry.clone(),
                None => {
                    inner.stats.misses += 1;
                    return None;
                }
            }
        };
        // Validation runs outside the lock: certification and replay are
        // real engine work and must not serialize the worker pool.  An
        // artifact of another kind of property than `goal`'s never
        // validates: a lasso answers no safety or cover goal, nor does a
        // safety or cover certificate a liveness one.
        let valid = match (&entry.verdict, goal) {
            (Verdict::Reached(trace), Goal::Reach(target)) => {
                trace.loop_start().is_none() && replay_confirms(model, target, trace)
            }
            (Verdict::Reached(trace), Goal::Lasso(monitors, _)) => {
                lasso_confirms(model, monitors, trace)
            }
            // In-process entries are trusted on the fingerprint match (the
            // verdict was computed by this process); disk-loaded entries
            // are re-proven at their recorded depth once.  A depth beyond
            // the BMC stage's induction bound cannot come from any run and
            // is rejected without a re-proof, whose cost grows steeply with
            // the depth.
            (Verdict::Unreachable(Certificate::Induction(depth)), Goal::Reach(target)) => {
                !entry.unvalidated
                    || (*depth <= BMC_BOUNDS.max_induction
                        && induction_reproves(model, target, &key.property, *depth, interrupt))
            }
            (Verdict::Unreachable(Certificate::Invariant(invariant)), Goal::Reach(target)) => {
                clauses_fit_model(model, invariant.clauses()) && invariant.certify(model, target)
            }
            (
                Verdict::Unreachable(Certificate::KLiveness { k, invariant }),
                Goal::Lasso(_, klive),
            ) => klive.target(*k).is_some_and(|bad| {
                clauses_fit_model(&klive.model, invariant.clauses())
                    && invariant.certify(&klive.model, bad)
            }),
            // Never spilled to disk, so always this process's own verdict.
            (Verdict::Unreachable(Certificate::Reachability), _) => true,
            (Verdict::Unreachable(_), _) => false,
        };
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if valid {
            inner.stats.hits += 1;
            if entry.unvalidated {
                // The disk-loaded entry survived validation against the
                // live model: treat it as in-process from here on.
                if let Some(stored) = inner.entries.get_mut(key) {
                    stored.unvalidated = false;
                }
            }
            Some(entry.verdict)
        } else if interrupt.triggered().is_some() {
            inner.stats.misses += 1;
            None
        } else {
            inner.stats.rejected += 1;
            inner.entries.remove(key);
            inner.dirty = true;
            None
        }
    }
}

/// Spill-file name inside the cache directory.
const CACHE_FILE: &str = "proofs.cache";
/// Version header; bump on any format change (older files are ignored,
/// which is safe: the cache is advisory).  Version 2 tags entries by
/// artifact alone (`induction`, `invariant`, `reached`), so a version 1
/// reader would take a cover's `invariant` entry for a proof.  Version 3
/// adds the engine-options digest to every entry line, so a version 2
/// entry, which has none, could answer a run with other options.  Version
/// 4 checks liveness on the slice with its monitors instead of a
/// liveness-to-safety product, and adds the `lasso` (a trace with its loop
/// start) and `kliveness` (an invariant with its k) tags; a version 3
/// liveness entry speaks of the product's latches.
const CACHE_HEADER: &str = "autosva-proof-cache v4";
/// Sanity bounds on parsed entries.  Legitimate artifacts sit far below
/// these (induction depths ≤ the BMC stage's induction bound, traces of a
/// few dozen cycles on the corpus, invariants ≤ a few hundred clauses);
/// anything larger is a forged or corrupted entry, dropped at parse time so
/// that a huge count cannot allocate unboundedly before validation could
/// say no.  The depth bound does not make a re-proof cheap, because its
/// cost grows steeply with the depth even on a small cone, so
/// `ProofCache::lookup` also rejects any induction depth above the BMC
/// stage's bound before re-proving.
const MAX_CACHE_DEPTH: usize = 256;
const MAX_CACHE_CLAUSES: usize = 65_536;
const MAX_CACHE_CYCLES: usize = 65_536;
const MAX_CACHE_SIGNALS: usize = 65_536;

/// Percent-escapes a property name so it survives the line-oriented format.
fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape_name(escaped: &str) -> Option<String> {
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = chars.next()?;
        let lo = chars.next()?;
        let byte = u8::from_str_radix(&format!("{hi}{lo}"), 16).ok()?;
        out.push(byte as char);
    }
    Some(out)
}

fn render_trace(out: &mut String, trace: &Trace) {
    if let Some(start) = trace.loop_start() {
        let _ = write!(out, "{start} ");
    }
    let _ = writeln!(out, "{} {}", trace.len(), trace.num_signals());
    for sig in trace.signals() {
        let bits: String = sig
            .values
            .iter()
            .map(|&v| if v { '1' } else { '0' })
            .collect();
        let _ = writeln!(
            out,
            "signal {} {} {}",
            u8::from(sig.is_input),
            bits,
            escape_name(&sig.name)
        );
    }
}

/// Serializes one cache entry into the line-oriented spill format.  An
/// explicit-reachability proof writes nothing: it has no artifact another
/// process could re-check.
fn render_cache_entry(out: &mut String, key: &CacheKey, verdict: &Verdict) {
    let entry = format!(
        "entry {:016x} {:016x} {:016x} {}",
        key.fingerprint.0,
        key.fingerprint.1,
        key.config,
        escape_name(&key.property)
    );
    match verdict {
        Verdict::Reached(trace) => {
            let tag = match trace.loop_start() {
                Some(_) => "lasso",
                None => "reached",
            };
            let _ = write!(out, "{entry}\n{tag} ");
            render_trace(out, trace);
        }
        Verdict::Unreachable(Certificate::Induction(depth)) => {
            let _ = writeln!(out, "{entry}\ninduction {depth}");
        }
        Verdict::Unreachable(Certificate::Invariant(invariant)) => {
            let _ = write!(out, "{entry}\ninvariant ");
            render_invariant(out, invariant);
        }
        Verdict::Unreachable(Certificate::KLiveness { k, invariant }) => {
            let _ = write!(out, "{entry}\nkliveness {k} ");
            render_invariant(out, invariant);
        }
        Verdict::Unreachable(Certificate::Reachability) => {}
    }
}

/// An invariant's frame and clause counts, then one `clause` line each.
fn render_invariant(out: &mut String, invariant: &Invariant) {
    let (frames, clauses) = (invariant.frames_explored, invariant.clauses());
    let _ = writeln!(out, "{frames} {}", clauses.len());
    for clause in clauses {
        out.push_str("clause");
        for lit in clause {
            let _ = write!(out, " {}", lit.raw());
        }
        out.push('\n');
    }
}

fn parse_clauses(lines: &mut Lines<'_>, count: usize) -> Option<Vec<Vec<Lit>>> {
    let mut clauses = Vec::with_capacity(count);
    for _ in 0..count {
        let line = lines.next()?;
        let mut fields = line.split(' ');
        if fields.next()? != "clause" {
            return None;
        }
        let mut clause = Vec::new();
        for field in fields {
            let raw: u32 = field.parse().ok()?;
            clause.push(Lit::new((raw >> 1) as usize, raw & 1 == 1));
        }
        clauses.push(clause);
    }
    Some(clauses)
}

fn parse_trace(header: &str, lines: &mut Lines<'_>) -> Option<Trace> {
    let mut fields = header.split(' ');
    let cycles: usize = fields.next()?.parse().ok()?;
    let num_signals: usize = fields.next()?.parse().ok()?;
    if cycles > MAX_CACHE_CYCLES || num_signals > MAX_CACHE_SIGNALS {
        return None;
    }
    let mut trace = Trace::new(cycles);
    for _ in 0..num_signals {
        let line = lines.next()?;
        let mut fields = line.split(' ');
        if fields.next()? != "signal" {
            return None;
        }
        let is_input = match fields.next()? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        let bits = fields.next()?;
        let name = unescape_name(fields.next()?)?;
        if bits.len() != cycles || fields.next().is_some() {
            return None;
        }
        for (cycle, bit) in bits.chars().enumerate() {
            let value = match bit {
                '0' => false,
                '1' => true,
                _ => return None,
            };
            trace.record(cycle, &name, value, is_input);
        }
    }
    Some(trace)
}

/// Parses an invariant's header (`<frames> <clauses>`) and clause lines.
fn parse_invariant(header: &str, lines: &mut Lines<'_>) -> Option<Invariant> {
    let mut fields = header.split(' ');
    let frames: usize = fields.next()?.parse().ok()?;
    let count: usize = fields.next()?.parse().ok()?;
    if count > MAX_CACHE_CLAUSES || fields.next().is_some() {
        return None;
    }
    Some(Invariant::from_clauses(
        parse_clauses(lines, count)?,
        frames,
    ))
}

/// Parses one entry's verdict (the `entry` line was already consumed);
/// returns `None` on any malformed line.
fn parse_verdict(lines: &mut Lines<'_>) -> Option<Verdict> {
    let line = lines.next()?;
    let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
    let certificate = match tag {
        "reached" => return Some(Verdict::Reached(parse_trace(rest, lines)?)),
        "lasso" => {
            let (start, header) = rest.split_once(' ')?;
            let start: usize = start.parse().ok()?;
            let trace = parse_trace(header, lines)?;
            // The replay on a hit checks the rest of the lasso.
            if start >= trace.len() {
                return None;
            }
            return Some(Verdict::Reached(trace.with_loop_start(start)));
        }
        "induction" => {
            let depth: usize = rest.parse().ok()?;
            // Real induction depths are two orders below this; the lookup
            // bounds the re-proof by the BMC stage's induction bound.
            if depth > MAX_CACHE_DEPTH {
                return None;
            }
            Certificate::Induction(depth)
        }
        "invariant" => Certificate::Invariant(parse_invariant(rest, lines)?),
        "kliveness" => {
            let (k, header) = rest.split_once(' ')?;
            // The lookup rejects a k beyond the checker's own bound.
            let k: usize = k.parse().ok()?;
            let invariant = parse_invariant(header, lines)?;
            Certificate::KLiveness { k, invariant }
        }
        // Explicit-reachability proofs are never written; an unknown tag
        // stops the load at the clean prefix, so a forged one cannot
        // smuggle an unvalidatable verdict in.
        _ => return None,
    };
    Some(Verdict::Unreachable(certificate))
}

/// Parses a spill file, keeping every entry up to the first corruption.
/// Loaded entries are marked `unvalidated`: the file is a trust boundary,
/// so the first hit on each re-validates its artifact against the live
/// model before the verdict is reused.
fn parse_cache_file(text: &str) -> HashMap<CacheKey, CacheEntry> {
    let mut entries = HashMap::new();
    let mut lines = text.lines();
    if lines.next() != Some(CACHE_HEADER) {
        return entries;
    }
    while let Some(line) = lines.next() {
        let mut fields = line.split(' ');
        let parsed = (|| {
            if fields.next()? != "entry" {
                return None;
            }
            let hi = u64::from_str_radix(fields.next()?, 16).ok()?;
            let lo = u64::from_str_radix(fields.next()?, 16).ok()?;
            let config = u64::from_str_radix(fields.next()?, 16).ok()?;
            let property = unescape_name(fields.next()?)?;
            let key = CacheKey {
                fingerprint: Fingerprint(hi, lo),
                config,
                property,
            };
            let verdict = parse_verdict(&mut lines)?;
            Some((key, verdict))
        })();
        match parsed {
            Some((key, verdict)) => {
                entries.insert(
                    key,
                    CacheEntry {
                        verdict,
                        unvalidated: true,
                    },
                );
            }
            // Corrupted entry: stop here, keep the clean prefix.
            None => break,
        }
    }
    entries
}

/// `true` when every clause literal references a latch node of `model` —
/// the only shape `Invariant::certify` accepts without panicking.  A
/// forged or hash-colliding entry whose literals point past the model's
/// node table must reject cleanly instead of indexing out of bounds.
fn clauses_fit_model(model: &Model, clauses: &[Vec<Lit>]) -> bool {
    let latches: std::collections::HashSet<usize> =
        model.aig.latches().iter().map(|l| l.node).collect();
    clauses
        .iter()
        .flatten()
        .all(|l| latches.contains(&l.node()))
}

/// Re-validates a cached k-induction verdict by actually re-proving it:
/// BMC up to the recorded depth must stay counterexample-free and the
/// induction step must close by then.  The caller caps the depth at the
/// BMC stage's induction bound (the deep proofs go to PDR and carry
/// certificates instead) and the task's interrupt bounds the rest, so a
/// stale or forged entry turns into a rejection rather than a bogus
/// "proven" row or a stalled run.
fn induction_reproves(
    model: &Model,
    target: Lit,
    name: &str,
    depth: usize,
    interrupt: &Interrupt,
) -> bool {
    let bound = BmcOptions {
        max_depth: depth,
        max_induction: depth,
    };
    let config = SolverConfig::default();
    let (verdict, _) = check_target_budgeted(model, target, name, &bound, config, interrupt);
    matches!(verdict, Some(Verdict::Unreachable(_)))
}

/// Replays a cached trace against the live model (see
/// [`crate::psim::replay`]): the target literal must fire at the final
/// cycle and every invariant constraint must hold throughout.
fn replay_confirms(model: &Model, target: Lit, trace: &Trace) -> bool {
    let input =
        |cycle: usize, i: usize| trace.value(cycle, model.aig.input_name(i)).unwrap_or(false);
    crate::psim::replay(model, target, trace.len(), input).is_some()
}

/// Replays a cached lasso against the live monitored model (see
/// [`crate::liveness::replay`]): it must be a fair lasso back to its loop
/// start, with every invariant constraint holding throughout.
fn lasso_confirms(model: &Model, monitors: &Monitors, trace: &Trace) -> bool {
    let input =
        |cycle: usize, i: usize| trace.value(cycle, model.aig.input_name(i)).unwrap_or(false);
    trace.loop_start().is_some_and(|start| {
        crate::liveness::replay(model, monitors, start, trace.len(), input).is_some()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;
    use crate::model::BadProperty;
    use std::time::Instant;

    /// Looks `key()` up with no budget.
    fn lookup(cache: &ProofCache, model: &Model, target: Lit) -> Option<Verdict> {
        cache.lookup(&key(), model, Goal::Reach(target), &Interrupt::none())
    }

    /// A k-induction proof at `depth`.
    fn induction(depth: usize) -> Verdict {
        Verdict::Unreachable(Certificate::Induction(depth))
    }

    /// A PDR proof with `clauses` at `frames`.
    fn invariant(clauses: Vec<Vec<Lit>>, frames: usize) -> Verdict {
        Verdict::Unreachable(Certificate::Invariant(Invariant::from_clauses(
            clauses, frames,
        )))
    }

    #[test]
    fn run_ordered_preserves_item_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = run_ordered(
            &items,
            8,
            &crate::telemetry::Telemetry::disabled(),
            |&item| item * 2,
        );
        let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_ordered_sequential_matches_parallel() {
        let items: Vec<usize> = (0..32).collect();
        let seq = run_ordered(&items, 1, &crate::telemetry::Telemetry::disabled(), |&x| {
            x + 1
        });
        let par = run_ordered(&items, 4, &crate::telemetry::Telemetry::disabled(), |&x| {
            x + 1
        });
        assert_eq!(seq, par);
    }

    #[test]
    fn cancelled_items_yield_none() {
        // The pool contains a panic that escapes an item's run: that item
        // yields `None` and every other item completes.
        let items: Vec<usize> = (0..8).collect();
        for threads in [1, 4] {
            let out = run_ordered(
                &items,
                threads,
                &crate::telemetry::Telemetry::disabled(),
                |&x| {
                    assert_ne!(x, 3, "item 3 panics");
                    x
                },
            );
            let expected: Vec<Option<usize>> =
                items.iter().map(|&x| (x != 3).then_some(x)).collect();
            assert_eq!(out, expected, "{threads} worker(s)");
        }
    }

    #[test]
    fn effective_threads_resolves_auto() {
        let auto = ParallelOptions::default();
        assert!(auto.effective_threads() >= 1);
        let one = ParallelOptions {
            threads: 1,
            ..ParallelOptions::default()
        };
        assert_eq!(one.effective_threads(), 1);
    }

    /// One latch driven by one input, bad when the latch is high.
    fn tiny_model() -> (Model, Lit) {
        let mut aig = Aig::new();
        let x = aig.add_input("x");
        let q = aig.add_latch("q", false);
        aig.set_latch_next(q, x);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "q_high".into(),
            lit: q,
        });
        (model, q)
    }

    fn key() -> CacheKey {
        CacheKey {
            fingerprint: Fingerprint(1, 2),
            config: 3,
            property: "q_high".into(),
        }
    }

    #[test]
    fn violated_entries_replay_on_hit() {
        let (model, q) = tiny_model();
        let cache = ProofCache::new();
        // A genuine 2-cycle counterexample: x=1 at cycle 0, q=1 at cycle 1.
        let mut trace = Trace::new(2);
        trace.record(0, "x", true, true);
        trace.record(1, "q", true, false);
        cache.store(key(), Verdict::Reached(trace));
        match lookup(&cache, &model, q) {
            Some(Verdict::Reached(t)) => assert_eq!(t.len(), 2),
            other => panic!("expected replayed violation, got {other:?}"),
        }
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn bogus_traces_are_evicted() {
        let (model, q) = tiny_model();
        let cache = ProofCache::new();
        // x never high: the bad state is not reached and replay must fail.
        let mut trace = Trace::new(2);
        trace.record(0, "x", false, true);
        cache.store(key(), Verdict::Reached(trace));
        assert!(lookup(&cache, &model, q).is_none());
        assert_eq!(cache.stats().rejected, 1);
        assert!(cache.is_empty(), "failed entries must be evicted");
    }

    #[test]
    fn invariants_are_recertified_on_hit() {
        // busy-sticky model where "!q" is NOT inductive (input can set q):
        // a bogus invariant entry must be rejected.
        let (model, q) = tiny_model();
        let cache = ProofCache::new();
        cache.store(key(), invariant(vec![vec![q.invert()]], 1));
        assert!(lookup(&cache, &model, q).is_none());
        assert_eq!(cache.stats().rejected, 1);

        // A model where the latch really never rises (next = FALSE): the
        // empty invariant certifies (q is initially low and stays low).
        let mut aig = Aig::new();
        let q2 = aig.add_latch("q", false);
        aig.set_latch_next(q2, Lit::FALSE);
        let mut safe = Model::new(aig);
        safe.bads.push(BadProperty {
            name: "q_high".into(),
            lit: q2,
        });
        cache.store(key(), invariant(vec![vec![q2.invert()]], 1));
        match lookup(&cache, &safe, q2) {
            Some(Verdict::Unreachable(Certificate::Invariant(inv))) => {
                assert_eq!(inv.num_clauses(), 1)
            }
            other => panic!("expected certified invariant, got {other:?}"),
        }
    }

    /// A unique scratch directory under the target tmpdir.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("autosva-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_cache_round_trips_every_outcome_kind() {
        let dir = scratch_dir("roundtrip");
        let cache = ProofCache::open(&dir);
        assert_eq!(cache.stats().loaded, 0);

        let mut trace = Trace::new(3);
        trace.record(0, "x", true, true);
        trace.record(2, "q", true, false);
        trace.record(1, "name with spaces", false, false);
        let entry = |name: &str| CacheKey {
            fingerprint: Fingerprint(0xABCD, 42),
            config: 7,
            property: name.into(),
        };
        let inv_clauses = vec![vec![Lit::new(3, true), Lit::new(7, false)], vec![]];
        cache.store(entry("ind"), induction(9));
        cache.store(entry("inv"), invariant(inv_clauses.clone(), 4));
        cache.store(
            entry("reach"),
            Verdict::Unreachable(Certificate::Reachability),
        );
        cache.store(entry("cex"), Verdict::Reached(trace.clone()));
        cache.flush().expect("flush succeeds");

        // A "fresh process": a new handle over the same directory.  The
        // kind with no re-checkable artifact is process-local and must not
        // have crossed the disk boundary.
        let reloaded = ProofCache::open(&dir);
        assert_eq!(reloaded.len(), 3);
        assert_eq!(reloaded.stats().loaded, 3);
        let entries = &reloaded.inner.lock().expect("lock").entries;
        assert!(
            entries.get(&entry("reach")).is_none(),
            "explicit-reachability verdicts must not persist"
        );
        match entries.get(&entry("ind")).map(|e| &e.verdict) {
            Some(Verdict::Unreachable(Certificate::Induction(9))) => {}
            other => panic!("induction entry corrupted: {other:?}"),
        }
        match entries.get(&entry("inv")).map(|e| &e.verdict) {
            Some(Verdict::Unreachable(Certificate::Invariant(inv))) => {
                assert_eq!(inv.clauses(), &inv_clauses);
                assert_eq!(inv.frames_explored, 4);
            }
            other => panic!("invariant entry corrupted: {other:?}"),
        }
        match entries.get(&entry("cex")).map(|e| &e.verdict) {
            Some(Verdict::Reached(t)) => assert_eq!(t, &trace),
            other => panic!("trace entry corrupted: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_flush_is_deterministic_and_idempotent() {
        let dir = scratch_dir("determinism");
        let cache = ProofCache::open(&dir);
        for i in 0..8u64 {
            cache.store(
                CacheKey {
                    fingerprint: Fingerprint(i, i * 3),
                    config: i,
                    property: format!("p{i}"),
                },
                induction(i as usize),
            );
        }
        cache.flush().expect("flush");
        let path = cache.spill_path().expect("persistent cache has a path");
        let first = std::fs::read_to_string(&path).expect("spill file exists");
        // Reload and re-flush (after a dirtying store of identical content):
        // the file must be byte-identical despite hash-map iteration order.
        let reloaded = ProofCache::open(&dir);
        reloaded.store(
            CacheKey {
                fingerprint: Fingerprint(0, 0),
                config: 0,
                property: "p0".into(),
            },
            induction(0),
        );
        reloaded.flush().expect("flush");
        let second = std::fs::read_to_string(&path).expect("spill file exists");
        assert_eq!(first, second, "spill file must be deterministic");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_spill_files_load_their_clean_prefix() {
        let dir = scratch_dir("corruption");
        let cache = ProofCache::open(&dir);
        cache.store(
            CacheKey {
                fingerprint: Fingerprint(1, 1),
                config: 1,
                property: "a".into(),
            },
            induction(1),
        );
        cache.store(
            CacheKey {
                fingerprint: Fingerprint(2, 2),
                config: 1,
                property: "b".into(),
            },
            induction(2),
        );
        cache.flush().expect("flush");
        let path = cache.spill_path().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        // Truncated mid-entry: the clean prefix loads, nothing panics.
        let cut = text.len() - 5;
        std::fs::write(&path, &text[..cut]).unwrap();
        let truncated = ProofCache::open(&dir);
        assert!(
            truncated.len() < 2,
            "truncated file must drop the torn entry"
        );

        // Garbage (including invalid UTF-8): loads empty.
        std::fs::write(&path, b"!!! not a cache file !!!\x00\xff binary junk").unwrap();
        assert!(ProofCache::open(&dir).is_empty());

        // Wrong version: ignored wholesale.
        std::fs::write(
            &path,
            text.replace(CACHE_HEADER, "autosva-proof-cache v999"),
        )
        .unwrap();
        assert!(ProofCache::open(&dir).is_empty());

        // Interior corruption: entries before the bad line survive.
        let mut lines: Vec<&str> = text.lines().collect();
        let n = lines.len();
        lines.insert(n - 1, "entry zzzz not-hex garbage");
        std::fs::write(&path, lines.join("\n")).unwrap();
        let partial = ProofCache::open(&dir);
        assert_eq!(partial.len(), 1, "prefix before the corruption must load");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slice_memo_keeps_the_first_insert_and_stays_in_process() {
        let dir = scratch_dir("slice-memo");
        let cache = ProofCache::open(&dir);
        let raw = Fingerprint(7, 7);
        let prepared = |fp: u64| PreparedSlice {
            model: Arc::new(tiny_model().0),
            fingerprint: Fingerprint(fp, fp),
            cone: (1, 0),
            liveness: None,
        };
        // A second run memoizes the same cone while the first one is still
        // preparing it (no lock is held meanwhile): its entry wins.
        let winner = cache.prepared_slice(raw, || {
            cache.prepared_slice(raw, || prepared(1));
            prepared(2)
        });
        assert_eq!(winner.fingerprint.0, 1);
        let hit = cache.prepared_slice(raw, || panic!("the cone is memoized"));
        assert!(Arc::ptr_eq(&hit.model, &winner.model));
        assert_eq!(cache.stats().slices_reused, 1);

        // The spill file carries verdicts only, and `clear` drops the memo.
        cache.store(key(), induction(1));
        cache.flush().expect("flush");
        let reopened = ProofCache::open(&dir);
        assert_eq!(reopened.len(), 1);
        assert_eq!(
            reopened.prepared_slice(raw, || prepared(3)).fingerprint.0,
            3
        );
        cache.clear();
        assert_eq!(cache.prepared_slice(raw, || prepared(4)).fingerprint.0, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_cache_flush_is_a_noop() {
        let cache = ProofCache::new();
        cache.store(key(), induction(1));
        assert!(cache.spill_path().is_none());
        cache.flush().expect("no-op flush succeeds");
    }

    #[test]
    fn property_names_escape_and_unescape() {
        for name in ["plain", "with space", "perc%ent", "new\nline", "a%20b"] {
            assert_eq!(
                unescape_name(&escape_name(name)).as_deref(),
                Some(name),
                "round trip failed for {name:?}"
            );
        }
        assert_eq!(unescape_name("dangling%2"), None);
    }

    /// A latch that never rises (next = FALSE): "q high" is provable by
    /// induction at depth 0.
    fn safe_model() -> (Model, Lit) {
        let mut aig = Aig::new();
        let q = aig.add_latch("q", false);
        aig.set_latch_next(q, Lit::FALSE);
        let mut model = Model::new(aig);
        model.bads.push(BadProperty {
            name: "q_high".into(),
            lit: q,
        });
        (model, q)
    }

    #[test]
    fn in_process_induction_entries_hit_directly() {
        // Entries stored by this process are trusted on the fingerprint
        // match (pre-persistence semantics): no re-proof on hit.
        let (model, q) = tiny_model();
        let cache = ProofCache::new();
        cache.store(key(), induction(3));
        match lookup(&cache, &model, q) {
            Some(Verdict::Unreachable(Certificate::Induction(depth))) => assert_eq!(depth, 3),
            other => panic!("expected induction hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 0, 1));
        // A different property name misses.
        let other_key = CacheKey {
            fingerprint: Fingerprint(1, 2),
            config: 3,
            property: "other".into(),
        };
        let none = Interrupt::none();
        assert!(cache
            .lookup(&other_key, &model, Goal::Reach(q), &none)
            .is_none());
        assert_eq!(cache.stats().misses, 1);
        // So does the same property checked with other engine options.
        let other_options = CacheKey { config: 4, ..key() };
        assert!(cache
            .lookup(&other_options, &model, Goal::Reach(q), &none)
            .is_none());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn disk_loaded_induction_entries_reprove_on_first_hit() {
        let dir = scratch_dir("induction-reprove");
        let (model, q) = safe_model();
        {
            let cache = ProofCache::open(&dir);
            cache.store(key(), induction(1));
            cache.flush().expect("flush");
        }
        // Fresh process: the loaded entry re-proves against the live model
        // (which really is 1-inductive) and then hits directly.
        let cache = ProofCache::open(&dir);
        for _ in 0..2 {
            match lookup(&cache, &model, q) {
                Some(Verdict::Unreachable(Certificate::Induction(depth))) => assert_eq!(depth, 1),
                other => panic!("expected induction hit, got {other:?}"),
            }
        }
        assert_eq!(cache.stats().rejected, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_induction_entries_deeper_than_the_run_bound_reject_without_a_reproof() {
        // The safe model really is 1-inductive, so a re-proof one step
        // beyond the BMC stage's induction bound would succeed: only the
        // bound can reject this entry.
        let dir = scratch_dir("induction-too-deep");
        {
            let cache = ProofCache::open(&dir);
            cache.store(key(), induction(BMC_BOUNDS.max_induction + 1));
            cache.flush().expect("flush");
        }
        let (model, q) = safe_model();
        let cache = ProofCache::open(&dir);
        assert!(lookup(&cache, &model, q).is_none());
        assert_eq!(cache.stats().rejected, 1);
        assert!(cache.is_empty(), "rejected entries must be evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn preempted_revalidation_keeps_the_entry() {
        // A valid disk entry whose re-proof the task's deadline cuts short
        // is a miss, not a rejection: it stays, and a lookup with budget
        // hits it.
        let dir = scratch_dir("induction-preempted");
        {
            let cache = ProofCache::open(&dir);
            cache.store(key(), induction(1));
            cache.flush().expect("flush");
        }
        let (model, q) = safe_model();
        let cache = ProofCache::open(&dir);
        let expired = Interrupt::new(Some(Instant::now()), None);
        assert!(cache
            .lookup(&key(), &model, Goal::Reach(q), &expired)
            .is_none());
        let stats = cache.stats();
        assert_eq!((stats.rejected, stats.misses), (0, 1));
        assert_eq!(cache.len(), 1, "a preempted check must keep the entry");
        match lookup(&cache, &model, q) {
            Some(Verdict::Unreachable(Certificate::Induction(depth))) => assert_eq!(depth, 1),
            other => panic!("expected induction hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bogus_disk_induction_entries_are_rejected() {
        // The bad state of tiny_model is reachable (the input drives the
        // latch), so a disk-loaded "proven by induction" verdict is a lie —
        // the first-hit re-proof must reject and evict it.
        let dir = scratch_dir("induction-bogus");
        {
            let cache = ProofCache::open(&dir);
            cache.store(key(), induction(3));
            cache.flush().expect("flush");
        }
        let (model, q) = tiny_model();
        let cache = ProofCache::open(&dir);
        assert!(lookup(&cache, &model, q).is_none());
        assert_eq!(cache.stats().rejected, 1);
        assert!(cache.is_empty(), "rejected entries must be evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_spill_entries_reject_cleanly() {
        // Hand-forged entries with out-of-range artifacts must be rejected
        // at parse or validation time — never hang, allocate unboundedly,
        // or panic.
        let dir = scratch_dir("forged");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("proofs.cache");
        // The slice fingerprint and the options digest of `key()`.
        let fp = "0000000000000001 0000000000000002 0000000000000003";
        // (a) absurd induction depth: rejected at parse time.
        std::fs::write(
            &path,
            format!("{CACHE_HEADER}\nentry {fp} q_high\ninduction 999999999\n"),
        )
        .unwrap();
        assert!(ProofCache::open(&dir).is_empty());
        // (b) absurd clause count: rejected before any allocation.
        std::fs::write(
            &path,
            format!("{CACHE_HEADER}\nentry {fp} q_high\ninvariant 1 4000000000\n"),
        )
        .unwrap();
        assert!(ProofCache::open(&dir).is_empty());
        // (c) absurd trace bounds: rejected at parse time.
        std::fs::write(
            &path,
            format!("{CACHE_HEADER}\nentry {fp} q_high\nreached 4000000000 0\n"),
        )
        .unwrap();
        assert!(ProofCache::open(&dir).is_empty());
        // (d) invariant clause referencing a node beyond the model: parses,
        // but validation rejects instead of panicking in the encoder.
        let (model, q) = tiny_model();
        std::fs::write(
            &path,
            format!("{CACHE_HEADER}\nentry {fp} q_high\ninvariant 1 1\nclause 99999\n"),
        )
        .unwrap();
        let cache = ProofCache::open(&dir);
        assert_eq!(cache.len(), 1);
        assert!(lookup(&cache, &model, q).is_none());
        assert_eq!(cache.stats().rejected, 1);
        // (e) a genuine counterexample hits as `reached`, and re-tagged
        // `lasso 0` it parses but is rejected: a lasso answers no safety
        // goal.
        let counterexample = "2 2\nsignal 1 10 x\nsignal 0 01 q";
        for (tag, genuine) in [("reached", true), ("lasso 0", false)] {
            let text = format!("{CACHE_HEADER}\nentry {fp} q_high\n{tag} {counterexample}\n");
            std::fs::write(&path, text).unwrap();
            let cache = ProofCache::open(&dir);
            assert_eq!(cache.len(), 1, "{tag}");
            assert_eq!(lookup(&cache, &model, q).is_some(), genuine, "{tag}");
            assert_eq!(cache.stats().rejected, u64::from(!genuine), "{tag}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A liveness obligation "every request is granted" (`granted`) or,
    /// with `always`, one whose target always holds, on its monitored
    /// model, with its monitors and k-liveness model.
    fn liveness_model(always: bool) -> (Model, Monitors, KLiveness) {
        let mut aig = Aig::new();
        let req = aig.add_input("req");
        let gnt = aig.add_input("gnt");
        let mut model = Model::new(aig);
        model.liveness.push(crate::model::ResponseProperty {
            name: "granted".into(),
            trigger: req,
            target: if always { Lit::TRUE } else { gnt },
        });
        let (model, monitors) = crate::liveness::monitored(&model, 0);
        let klive = KLiveness::new(&model, &monitors);
        (model, monitors, klive)
    }

    #[test]
    fn lassos_and_k_liveness_proofs_cross_the_disk_and_recheck() {
        let dir = scratch_dir("liveness-roundtrip");
        let none = Interrupt::none();
        // Requested in cycle 0 and never granted: cycle 2 repeats cycle 1.
        let (starved, starved_monitors, starved_klive) = liveness_model(false);
        let input = |cycle: usize, i: usize| cycle == 0 && i == 0;
        let lasso = crate::liveness::replay(&starved, &starved_monitors, 1, 3, input)
            .expect("a fair lasso");
        let (granted, monitors, klive) = liveness_model(true);
        let (proof, _) = crate::liveness::k_liveness(
            &klive,
            &crate::pdr::PdrOptions::default(),
            SolverConfig::default(),
            &none,
        );
        let Some(Verdict::Unreachable(proof)) = proof else {
            panic!("expected a k-liveness proof, got {proof:?}");
        };
        let Certificate::KLiveness { k, .. } = proof else {
            panic!("expected a k-liveness certificate, got {proof:?}");
        };
        let key = |name: &str| CacheKey {
            property: name.into(),
            ..key()
        };
        {
            let cache = ProofCache::open(&dir);
            cache.store(key("lasso"), Verdict::Reached(lasso.clone()));
            cache.store(key("proof"), Verdict::Unreachable(proof));
            cache.flush().expect("flush");
        }
        let cache = ProofCache::open(&dir);
        assert_eq!(cache.len(), 2);
        let starved_goal = Goal::Lasso(&starved_monitors, &starved_klive);
        match cache.lookup(&key("lasso"), &starved, starved_goal, &none) {
            Some(Verdict::Reached(hit)) => assert_eq!(hit, lasso),
            other => panic!("expected the lasso, got {other:?}"),
        }
        let goal = Goal::Lasso(&monitors, &klive);
        match cache.lookup(&key("proof"), &granted, goal, &none) {
            Some(Verdict::Unreachable(Certificate::KLiveness { k: hit, .. })) => assert_eq!(hit, k),
            other => panic!("expected the k-liveness proof, got {other:?}"),
        }
        // A lasso of the starved obligation is no lasso of the granted one.
        assert!(cache.lookup(&key("lasso"), &granted, goal, &none).is_none());
        assert_eq!(cache.stats().rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_liveness_entries_reject_cleanly() {
        let dir = scratch_dir("forged-liveness");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("proofs.cache");
        let fp = "0000000000000001 0000000000000002 0000000000000003";
        let (model, monitors, klive) = liveness_model(true);
        let goal = Goal::Lasso(&monitors, &klive);
        let none = Interrupt::none();
        // (a) a loop start outside its trace: rejected at parse time.
        std::fs::write(
            &path,
            format!("{CACHE_HEADER}\nentry {fp} q_high\nlasso 3 3 0\n"),
        )
        .unwrap();
        assert!(ProofCache::open(&dir).is_empty());
        // (b) a k beyond the checker's bound: parses, and the lookup
        // rejects it without certifying anything.
        assert_eq!(klive.target(99), None);
        std::fs::write(
            &path,
            format!("{CACHE_HEADER}\nentry {fp} q_high\nkliveness 99 1 0\n"),
        )
        .unwrap();
        let cache = ProofCache::open(&dir);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key(), &model, goal, &none).is_none());
        assert_eq!(cache.stats().rejected, 1);
        // (c) a clause over a latch the k-liveness model lacks, next to one
        // the initial state satisfies: rejected instead of panicking in the
        // encoder.
        let idle = monitors.pending.invert().raw();
        std::fs::write(
            &path,
            format!("{CACHE_HEADER}\nentry {fp} q_high\nkliveness 0 1 1\nclause {idle} 199998\n"),
        )
        .unwrap();
        let cache = ProofCache::open(&dir);
        assert!(cache.lookup(&key(), &model, goal, &none).is_none());
        assert_eq!(cache.stats().rejected, 1);
        // (d) a safety certificate answers no liveness goal.
        std::fs::write(
            &path,
            format!("{CACHE_HEADER}\nentry {fp} q_high\ninvariant 1 0\n"),
        )
        .unwrap();
        let cache = ProofCache::open(&dir);
        assert!(cache.lookup(&key(), &model, goal, &none).is_none());
        assert_eq!(cache.stats().rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
