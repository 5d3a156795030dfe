//! Parallel verification orchestration: scheduling, budgets and the proof
//! cache.
//!
//! The checker turns every property of a testbench into an independent task
//! on its own cone-of-influence slice (see [`crate::coi`]); this module
//! supplies the machinery that runs those tasks:
//!
//! * [`ParallelOptions`] — the orchestration knobs on
//!   [`crate::checker::CheckOptions`]: worker count (`threads = 1` is the
//!   sequential escape hatch), slicing on/off, an optional per-property time
//!   budget, first-violation cancellation, and an optional [`ProofCache`];
//! * `run_ordered` — a self-scheduling worker pool over [`std::thread`]
//!   (no external dependencies): idle workers steal the next property index
//!   from a shared atomic queue head, results land in annotation order, and
//!   a shared cancellation flag stops the fleet early.  Statuses are
//!   deterministic — every engine is single-threaded and runs on an
//!   identical slice regardless of interleaving — so a report assembled
//!   from a parallel run renders byte-identically to a sequential one;
//! * [`ProofCache`] — a process-wide store keyed by *slice fingerprint +
//!   property name*.  Identical cones (buggy/fixed design variants,
//!   repeated bench iterations, properties stamped out by the same
//!   annotation) reuse verdicts instead of re-running engines.  Cache hits
//!   are never trusted blindly where an artifact can be re-checked: PDR
//!   invariants are re-certified against the slice with an independent SAT
//!   check, counterexample/witness traces are replayed through the
//!   two-state simulator, and disk-loaded k-induction verdicts are
//!   re-proven at their recorded depth on first use; entries that fail
//!   validation are evicted and the property is re-verified from scratch.
//!   The cache can spill to disk
//!   ([`ProofCache::open`]/[`ProofCache::flush`]) — only these
//!   re-checkable kinds cross the process boundary.  Alongside the
//!   verdicts, a cache also memoizes, in process only, the optimized form
//!   of every cone slice an opt-on run prepared, so a re-run of unchanged
//!   RTL skips the optimizer and the liveness-to-safety transform.

use crate::aig::Lit;
use crate::coi::Fingerprint;
use crate::model::Model;
use crate::pdr::Invariant;
use crate::trace::Trace;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Orchestration options for a verification run (part of
/// [`crate::checker::CheckOptions`]).
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Number of worker threads; `0` uses every available core, `1` is the
    /// fully sequential escape hatch.
    pub threads: usize,
    /// Check each property on its cone-of-influence slice instead of the
    /// full compiled model (verdict-preserving; see [`crate::coi`]).
    pub slice: bool,
    /// Run the AIG static-analysis/optimization pass ([`crate::opt`]) on
    /// each property slice before the engine cascade: constant sweeping,
    /// sequential latch sweeping, combinational gate sweeping and dead-node
    /// elimination, all verdict-preserving.  Only applies when `slice` is
    /// on — the `slice: false` escape hatch keeps the exact
    /// pre-orchestrator behaviour, untouched model included.
    pub opt: bool,
    /// Wall-clock budget per property; a property still undecided when its
    /// budget runs out between engine stages reports
    /// [`crate::checker::PropertyStatus::Unknown`] with an explanatory note.
    /// Budgets make outcomes timing-dependent, so the default is `None`.
    pub property_timeout: Option<Duration>,
    /// Raise the shared cancellation flag as soon as any property is
    /// violated; properties not yet started report `Unknown`.  Useful for
    /// bug-hunting sweeps; off by default because it makes reports depend on
    /// scheduling order.
    pub stop_on_violation: bool,
    /// Share verified verdicts across runs keyed by slice fingerprint.
    pub cache: Option<ProofCache>,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            threads: 0,
            slice: true,
            opt: true,
            property_timeout: None,
            stop_on_violation: false,
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

/// Runs `run(i, &items[i])` for every item on up to `threads` workers and
/// returns the results in item order.
///
/// Workers self-schedule from a shared queue head, so long-running
/// properties never block short ones behind a static partition.
///
/// # Cancellation semantics
///
/// When `cancel` is raised, items not yet *started* yield `None`; items
/// whose run already started are never preempted here — they complete
/// normally (or wind down early by observing the flag themselves, e.g.
/// through an [`crate::interrupt::Interrupt`] carrying it) and their
/// results are kept.  A slot is therefore `None` only for "never ran",
/// not "ran and was discarded".
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
    cancel: &AtomicBool,
    telemetry: &crate::telemetry::Telemetry,
    run: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len().max(1));
    if workers <= 1 {
        // Sequential escape hatch: runs on the calling thread, which is
        // already inside the run's telemetry scope (track 0).
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                if cancel.load(Ordering::Relaxed) {
                    None
                } else {
                    crate::telemetry::gauge(
                        "pool.queue_depth",
                        items.len().saturating_sub(i) as u64,
                    );
                    catch_unwind(AssertUnwindSafe(|| run(i, item))).ok()
                }
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
                    if cancel.load(Ordering::Relaxed) {
                        continue;
                    }
                    crate::telemetry::gauge(
                        "pool.queue_depth",
                        items.len().saturating_sub(i) as u64,
                    );
                    let r = catch_unwind(AssertUnwindSafe(|| run(i, &items[i])));
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
    /// Lookups that found no entry.
    pub misses: u64,
    /// Verdicts stored.
    pub insertions: u64,
    /// Entries evicted because re-validation (invariant certification or
    /// trace replay) failed.
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
/// slice plus the property's full name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub fingerprint: Fingerprint,
    pub property: String,
}

/// A verdict as stored in the cache (artifacts in slice-literal terms).
#[derive(Debug, Clone)]
pub(crate) enum CachedOutcome {
    /// k-induction proof at the recorded depth.
    Induction {
        /// Induction depth.
        depth: usize,
    },
    /// PDR proof; the invariant clauses are re-certified on every hit.
    Invariant {
        /// Invariant clauses over slice latch literals.
        clauses: Vec<Vec<Lit>>,
        /// Frames explored when the proof closed.
        frames: usize,
    },
    /// Explicit-engine (exhaustive reachability) proof.
    Reachability,
    /// Cover target proven unreachable; when PDR produced the proof the
    /// invariant certificate is kept and re-checked on hits.
    Unreachable {
        /// `(clauses, frames)` of the PDR certificate, if one exists.
        certificate: Option<(Vec<Vec<Lit>>, usize)>,
    },
    /// Counterexample; replayed through the simulator on every hit.
    Violated(Trace),
    /// Cover witness; replayed through the simulator on every hit.
    Covered(Trace),
}

/// A cache hit after successful re-validation, in engine terms.
#[derive(Debug, Clone)]
pub(crate) enum CachedVerdict {
    /// k-induction proof.
    Induction {
        /// Induction depth.
        depth: usize,
    },
    /// Re-certified PDR invariant.
    Invariant(Invariant),
    /// Explicit-engine proof.
    Reachability,
    /// Cover target unreachable.
    Unreachable,
    /// Replayed counterexample.
    Violated(Trace),
    /// Replayed cover witness.
    Covered(Trace),
}

/// A stored verdict plus its provenance: entries loaded from the on-disk
/// spill are re-validated more aggressively than entries produced by this
/// process (the spill file is a trust boundary; the in-process store is
/// not).
#[derive(Debug, Clone)]
struct CacheEntry {
    outcome: CachedOutcome,
    /// Loaded from disk and not yet re-validated by this process.
    unvalidated: bool,
}

/// A cone slice in the form the engines check: the optimized slice when
/// opt is on, the raw one otherwise.
#[derive(Debug, Clone)]
pub(crate) struct PreparedSlice {
    /// The slice model.
    pub model: Arc<Model>,
    /// `model`'s own fingerprint, which keys its verdicts.
    pub fingerprint: Fingerprint,
    /// The (optimized) liveness-to-safety product of `model`, built for the
    /// first liveness property that needs it.
    pub l2s: Option<Arc<Model>>,
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
/// A cache opened with [`ProofCache::open`] is backed by a versioned
/// on-disk spill file: entries load at open time (corruption-tolerant — a
/// truncated or garbled file yields the readable prefix, never an error)
/// and [`ProofCache::flush`] writes them back atomically, so repeated
/// CLI/CI invocations reuse proofs across processes.  The spill file is a
/// trust boundary, so only verdict kinds whose artifact can be
/// independently re-checked ever cross it: invariants (re-certified on
/// every hit), traces (replayed on every hit) and induction proofs
/// (re-proven at their recorded depth on the first hit after loading;
/// entries stored by this process stay trusted on the fingerprint match).
/// Parsed artifacts are bounds-checked (depth, clause, cycle and signal
/// caps; invariant literals must name latches of the live model), so an
/// oversized forgery rejects cheaply instead of hanging the re-proof or
/// panicking the encoder.  Verdicts with no re-checkable artifact —
/// explicit-engine reachability and certificate-less unreachability —
/// stay process-local: they are neither written to nor parsed from the
/// spill file.  A stale, garbled or hand-forged file can therefore cost a
/// re-verification but never mislead a report.
///
/// The cache also memoizes prepared cone slices for opt-on runs, keyed by
/// the raw slice fingerprint: the optimized slice, its fingerprint and its
/// optimized liveness-to-safety product.  A later run over a
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
        entries.sort_by(|a, b| {
            (a.0.fingerprint.0, a.0.fingerprint.1, &a.0.property).cmp(&(
                b.0.fingerprint.0,
                b.0.fingerprint.1,
                &b.0.property,
            ))
        });
        let mut text = String::new();
        text.push_str(CACHE_HEADER);
        text.push('\n');
        for (key, entry) in entries {
            // Verdicts without an independently re-checkable artifact are
            // process-local: the spill file is a trust boundary and a hit
            // on these kinds could not be re-validated.
            if matches!(
                entry.outcome,
                CachedOutcome::Reachability | CachedOutcome::Unreachable { certificate: None }
            ) {
                continue;
            }
            render_cache_entry(&mut text, key, &entry.outcome);
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

    /// Attaches the liveness-to-safety `product` to the slice memoized
    /// under `raw` (the first product attached wins) and returns the
    /// attached one.
    pub(crate) fn memo_l2s(&self, raw: Fingerprint, product: Arc<Model>) -> Arc<Model> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.slices.get_mut(&raw) {
            Some(slice) => Arc::clone(slice.l2s.get_or_insert(product)),
            None => product,
        }
    }

    /// Stores a verdict (last write wins).
    pub(crate) fn store(&self, key: CacheKey, outcome: CachedOutcome) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.stats.insertions += 1;
        inner.entries.insert(
            key,
            CacheEntry {
                outcome,
                unvalidated: false,
            },
        );
        inner.dirty = true;
    }

    /// Looks up and re-validates a verdict for a property checked on
    /// `model` with bad/cover literal `target`.
    ///
    /// The entry (if any) was produced on a slice with the same content
    /// fingerprint, so validation failure indicates a hash collision or a
    /// corrupted entry — the entry is evicted and `None` returned so the
    /// property is re-verified from scratch.
    pub(crate) fn lookup(
        &self,
        key: &CacheKey,
        model: &Model,
        target: Lit,
    ) -> Option<CachedVerdict> {
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
        let unvalidated = entry.unvalidated;
        // Validation runs outside the lock: certification and replay are
        // real engine work and must not serialize the worker pool.
        let verdict = match entry.outcome {
            CachedOutcome::Induction { depth } => {
                // In-process entries are trusted on the fingerprint match
                // (the verdict was computed by this process); disk-loaded
                // entries are re-proven at their recorded depth once.
                if !unvalidated || induction_reproves(model, target, depth) {
                    Some(CachedVerdict::Induction { depth })
                } else {
                    None
                }
            }
            // Process-local kind (never spilled to disk): trusted on the
            // fingerprint match, exactly as before persistence existed.
            CachedOutcome::Reachability => Some(CachedVerdict::Reachability),
            CachedOutcome::Invariant { clauses, frames } => {
                if clauses_fit_model(model, &clauses) {
                    let invariant = Invariant::from_clauses(clauses, frames);
                    if invariant.certify(model, target) {
                        Some(CachedVerdict::Invariant(invariant))
                    } else {
                        None
                    }
                } else {
                    None
                }
            }
            CachedOutcome::Unreachable { certificate } => match certificate {
                None => Some(CachedVerdict::Unreachable),
                Some((clauses, frames)) => {
                    if clauses_fit_model(model, &clauses) {
                        let invariant = Invariant::from_clauses(clauses, frames);
                        if invariant.certify(model, target) {
                            Some(CachedVerdict::Unreachable)
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                }
            },
            CachedOutcome::Violated(trace) => {
                if replay_confirms(model, target, &trace) {
                    Some(CachedVerdict::Violated(trace))
                } else {
                    None
                }
            }
            CachedOutcome::Covered(trace) => {
                if replay_confirms(model, target, &trace) {
                    Some(CachedVerdict::Covered(trace))
                } else {
                    None
                }
            }
        };
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match verdict {
            Some(v) => {
                inner.stats.hits += 1;
                if unvalidated {
                    // The disk-loaded entry survived validation against the
                    // live model: treat it as in-process from here on.
                    if let Some(entry) = inner.entries.get_mut(key) {
                        entry.unvalidated = false;
                    }
                }
                Some(v)
            }
            None => {
                inner.stats.rejected += 1;
                inner.entries.remove(key);
                inner.dirty = true;
                None
            }
        }
    }
}

/// Spill-file name inside the cache directory.
const CACHE_FILE: &str = "proofs.cache";
/// Version header; bump on any format change (older files are ignored,
/// which is safe: the cache is advisory).
const CACHE_HEADER: &str = "autosva-proof-cache v1";
/// Sanity bounds on parsed entries.  Legitimate artifacts sit far below
/// these (induction depths ≤ the configured `max_induction`, traces ≤ the
/// BMC bound, invariants ≤ a few hundred clauses); anything larger is a
/// forged or corrupted entry, and the bound keeps its *rejection* cheap —
/// without it, a huge induction depth would hang the re-proof and a huge
/// clause count would allocate unboundedly before validation could say no.
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

fn render_clauses(out: &mut String, clauses: &[Vec<Lit>]) {
    for clause in clauses {
        out.push_str("clause");
        for lit in clause {
            let _ = write!(out, " {}", lit.raw());
        }
        out.push('\n');
    }
}

fn render_trace(out: &mut String, trace: &Trace) {
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

/// Serializes one cache entry into the line-oriented spill format.
fn render_cache_entry(out: &mut String, key: &CacheKey, outcome: &CachedOutcome) {
    let _ = writeln!(
        out,
        "entry {:016x} {:016x} {}",
        key.fingerprint.0,
        key.fingerprint.1,
        escape_name(&key.property)
    );
    match outcome {
        CachedOutcome::Induction { depth } => {
            let _ = writeln!(out, "induction {depth}");
        }
        CachedOutcome::Invariant { clauses, frames } => {
            let _ = writeln!(out, "invariant {frames} {}", clauses.len());
            render_clauses(out, clauses);
        }
        CachedOutcome::Reachability => out.push_str("reachability\n"),
        CachedOutcome::Unreachable { certificate } => match certificate {
            None => out.push_str("unreachable\n"),
            Some((clauses, frames)) => {
                let _ = writeln!(out, "unreachable-cert {frames} {}", clauses.len());
                render_clauses(out, clauses);
            }
        },
        CachedOutcome::Violated(trace) => {
            out.push_str("violated ");
            render_trace(out, trace);
        }
        CachedOutcome::Covered(trace) => {
            out.push_str("covered ");
            render_trace(out, trace);
        }
    }
}

/// Line-cursor over the spill file; every parse helper returns `Option` so
/// any corruption aborts the current entry without panicking.
struct CacheLines<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> CacheLines<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.lines.next()
    }
}

fn parse_clauses(lines: &mut CacheLines<'_>, count: usize) -> Option<Vec<Vec<Lit>>> {
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

fn parse_trace(header: &str, lines: &mut CacheLines<'_>) -> Option<Trace> {
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

/// Parses one entry (the `entry` line was already consumed and split into
/// `key`); returns `None` on any malformed line.
fn parse_outcome(lines: &mut CacheLines<'_>) -> Option<CachedOutcome> {
    let line = lines.next()?;
    let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
    match tag {
        "induction" => {
            let depth: usize = rest.parse().ok()?;
            // A forged depth would make the hit-time re-proof arbitrarily
            // expensive; real induction depths are two orders below this.
            if depth > MAX_CACHE_DEPTH {
                return None;
            }
            Some(CachedOutcome::Induction { depth })
        }
        "invariant" | "unreachable-cert" => {
            let mut fields = rest.split(' ');
            let frames: usize = fields.next()?.parse().ok()?;
            let count: usize = fields.next()?.parse().ok()?;
            if count > MAX_CACHE_CLAUSES {
                return None;
            }
            let clauses = parse_clauses(lines, count)?;
            Some(if tag == "invariant" {
                CachedOutcome::Invariant { clauses, frames }
            } else {
                CachedOutcome::Unreachable {
                    certificate: Some((clauses, frames)),
                }
            })
        }
        // "reachability" and certificate-less "unreachable" are never
        // written (process-local kinds, see `flush`); an unknown tag stops
        // the load at the clean prefix, so a forged one cannot smuggle an
        // unvalidatable verdict in.
        "violated" => Some(CachedOutcome::Violated(parse_trace(rest, lines)?)),
        "covered" => Some(CachedOutcome::Covered(parse_trace(rest, lines)?)),
        _ => None,
    }
}

/// Parses a spill file, keeping every entry up to the first corruption.
/// Loaded entries are marked `unvalidated`: the file is a trust boundary,
/// so the first hit on each re-validates its artifact against the live
/// model before the verdict is reused.
fn parse_cache_file(text: &str) -> HashMap<CacheKey, CacheEntry> {
    let mut entries = HashMap::new();
    let mut lines = CacheLines {
        lines: text.lines(),
    };
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
            let property = unescape_name(fields.next()?)?;
            let key = CacheKey {
                fingerprint: Fingerprint(hi, lo),
                property,
            };
            let outcome = parse_outcome(&mut lines)?;
            Some((key, outcome))
        })();
        match parsed {
            Some((key, outcome)) => {
                entries.insert(
                    key,
                    CacheEntry {
                        outcome,
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
/// induction step must close by then.  Cheap — recorded depths are small
/// (the deep proofs go to PDR and carry certificates instead) — and it
/// turns a stale or forged entry into a rejection rather than a bogus
/// "proven" row.
fn induction_reproves(model: &Model, target: Lit, depth: usize) -> bool {
    let Some(index) = model.bads.iter().position(|b| b.lit == target) else {
        return false;
    };
    matches!(
        crate::bmc::check_safety(
            model,
            index,
            &crate::bmc::BmcOptions {
                max_depth: depth,
                max_induction: depth,
            },
        ),
        crate::bmc::SafetyResult::Proven { .. }
    )
}

/// Replays a cached trace against the live model (see
/// [`crate::psim::replay`]): the target literal must fire at the final
/// cycle and every invariant constraint must hold throughout.
fn replay_confirms(model: &Model, target: Lit, trace: &Trace) -> bool {
    let input =
        |cycle: usize, i: usize| trace.value(cycle, model.aig.input_name(i)).unwrap_or(false);
    crate::psim::replay(model, target, trace.len(), input).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;
    use crate::model::BadProperty;

    #[test]
    fn run_ordered_preserves_item_order() {
        let items: Vec<usize> = (0..64).collect();
        let cancel = AtomicBool::new(false);
        let out = run_ordered(
            &items,
            8,
            &cancel,
            &crate::telemetry::Telemetry::disabled(),
            |i, &item| {
                assert_eq!(i, item);
                item * 2
            },
        );
        let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_ordered_sequential_matches_parallel() {
        let items: Vec<usize> = (0..32).collect();
        let cancel = AtomicBool::new(false);
        let seq = run_ordered(
            &items,
            1,
            &cancel,
            &crate::telemetry::Telemetry::disabled(),
            |_, &x| x + 1,
        );
        let par = run_ordered(
            &items,
            4,
            &cancel,
            &crate::telemetry::Telemetry::disabled(),
            |_, &x| x + 1,
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn cancelled_items_yield_none() {
        let items: Vec<usize> = (0..8).collect();
        let cancel = AtomicBool::new(true);
        let out = run_ordered(
            &items,
            4,
            &cancel,
            &crate::telemetry::Telemetry::disabled(),
            |_, &x| x,
        );
        assert!(out.iter().all(Option::is_none));
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
        cache.store(key(), CachedOutcome::Violated(trace));
        match cache.lookup(&key(), &model, q) {
            Some(CachedVerdict::Violated(t)) => assert_eq!(t.len(), 2),
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
        cache.store(key(), CachedOutcome::Violated(trace));
        assert!(cache.lookup(&key(), &model, q).is_none());
        assert_eq!(cache.stats().rejected, 1);
        assert!(cache.is_empty(), "failed entries must be evicted");
    }

    #[test]
    fn invariants_are_recertified_on_hit() {
        // busy-sticky model where "!q" is NOT inductive (input can set q):
        // a bogus invariant entry must be rejected.
        let (model, q) = tiny_model();
        let cache = ProofCache::new();
        cache.store(
            key(),
            CachedOutcome::Invariant {
                clauses: vec![vec![q.invert()]],
                frames: 1,
            },
        );
        assert!(cache.lookup(&key(), &model, q).is_none());
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
        cache.store(
            key(),
            CachedOutcome::Invariant {
                clauses: vec![vec![q2.invert()]],
                frames: 1,
            },
        );
        match cache.lookup(&key(), &safe, q2) {
            Some(CachedVerdict::Invariant(inv)) => assert_eq!(inv.num_clauses(), 1),
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
            property: name.into(),
        };
        let inv_clauses = vec![vec![Lit::new(3, true), Lit::new(7, false)], vec![]];
        cache.store(entry("ind"), CachedOutcome::Induction { depth: 9 });
        cache.store(
            entry("inv"),
            CachedOutcome::Invariant {
                clauses: inv_clauses.clone(),
                frames: 4,
            },
        );
        cache.store(entry("reach"), CachedOutcome::Reachability);
        cache.store(
            entry("unreach"),
            CachedOutcome::Unreachable { certificate: None },
        );
        cache.store(
            entry("unreach-cert"),
            CachedOutcome::Unreachable {
                certificate: Some((inv_clauses.clone(), 2)),
            },
        );
        cache.store(entry("cex"), CachedOutcome::Violated(trace.clone()));
        cache.store(entry("wit"), CachedOutcome::Covered(trace.clone()));
        cache.flush().expect("flush succeeds");

        // A "fresh process": a new handle over the same directory.  The
        // two kinds with no re-checkable artifact are process-local and
        // must not have crossed the disk boundary.
        let reloaded = ProofCache::open(&dir);
        assert_eq!(reloaded.len(), 5);
        assert_eq!(reloaded.stats().loaded, 5);
        let entries = &reloaded.inner.lock().expect("lock").entries;
        assert!(
            entries.get(&entry("reach")).is_none(),
            "explicit-reachability verdicts must not persist"
        );
        assert!(
            entries.get(&entry("unreach")).is_none(),
            "certificate-less unreachability verdicts must not persist"
        );
        match entries.get(&entry("ind")).map(|e| &e.outcome) {
            Some(CachedOutcome::Induction { depth: 9 }) => {}
            other => panic!("induction entry corrupted: {other:?}"),
        }
        match entries.get(&entry("inv")).map(|e| &e.outcome) {
            Some(CachedOutcome::Invariant { clauses, frames: 4 }) => {
                assert_eq!(clauses, &inv_clauses);
            }
            other => panic!("invariant entry corrupted: {other:?}"),
        }
        match entries.get(&entry("unreach-cert")).map(|e| &e.outcome) {
            Some(CachedOutcome::Unreachable {
                certificate: Some((clauses, 2)),
            }) => assert_eq!(clauses, &inv_clauses),
            other => panic!("certificate entry corrupted: {other:?}"),
        }
        match entries.get(&entry("cex")).map(|e| &e.outcome) {
            Some(CachedOutcome::Violated(t)) => assert_eq!(t, &trace),
            other => panic!("trace entry corrupted: {other:?}"),
        }
        match entries.get(&entry("wit")).map(|e| &e.outcome) {
            Some(CachedOutcome::Covered(t)) => assert_eq!(t, &trace),
            other => panic!("witness entry corrupted: {other:?}"),
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
                    property: format!("p{i}"),
                },
                CachedOutcome::Induction { depth: i as usize },
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
                property: "p0".into(),
            },
            CachedOutcome::Induction { depth: 0 },
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
                property: "a".into(),
            },
            CachedOutcome::Induction { depth: 1 },
        );
        cache.store(
            CacheKey {
                fingerprint: Fingerprint(2, 2),
                property: "b".into(),
            },
            CachedOutcome::Induction { depth: 2 },
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
        std::fs::write(&path, text.replace("v1", "v999")).unwrap();
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
            l2s: None,
        };
        // A second run memoizes the same cone while the first one is still
        // preparing it (no lock is held meanwhile): its entry wins.
        let winner = cache.prepared_slice(raw, || {
            cache.prepared_slice(raw, || prepared(1));
            prepared(2)
        });
        assert_eq!(winner.fingerprint.0, 1);
        let first = Arc::new(safe_model().0);
        let attached = cache.memo_l2s(raw, Arc::clone(&first));
        assert!(Arc::ptr_eq(
            &cache.memo_l2s(raw, Arc::new(safe_model().0)),
            &attached
        ));
        let hit = cache.prepared_slice(raw, || panic!("the cone is memoized"));
        assert!(Arc::ptr_eq(
            hit.l2s.as_ref().expect("product attached"),
            &first
        ));
        assert_eq!(cache.stats().slices_reused, 1);

        // The spill file carries verdicts only, and `clear` drops the memo.
        cache.store(key(), CachedOutcome::Induction { depth: 1 });
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
        cache.store(key(), CachedOutcome::Induction { depth: 1 });
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
        cache.store(key(), CachedOutcome::Induction { depth: 3 });
        match cache.lookup(&key(), &model, q) {
            Some(CachedVerdict::Induction { depth }) => assert_eq!(depth, 3),
            other => panic!("expected induction hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 0, 1));
        // A different property name misses.
        let other_key = CacheKey {
            fingerprint: Fingerprint(1, 2),
            property: "other".into(),
        };
        assert!(cache.lookup(&other_key, &model, q).is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn disk_loaded_induction_entries_reprove_on_first_hit() {
        let dir = scratch_dir("induction-reprove");
        let (model, q) = safe_model();
        {
            let cache = ProofCache::open(&dir);
            cache.store(key(), CachedOutcome::Induction { depth: 1 });
            cache.flush().expect("flush");
        }
        // Fresh process: the loaded entry re-proves against the live model
        // (which really is 1-inductive) and then hits directly.
        let cache = ProofCache::open(&dir);
        for _ in 0..2 {
            match cache.lookup(&key(), &model, q) {
                Some(CachedVerdict::Induction { depth }) => assert_eq!(depth, 1),
                other => panic!("expected induction hit, got {other:?}"),
            }
        }
        assert_eq!(cache.stats().rejected, 0);
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
            cache.store(key(), CachedOutcome::Induction { depth: 3 });
            cache.flush().expect("flush");
        }
        let (model, q) = tiny_model();
        let cache = ProofCache::open(&dir);
        assert!(cache.lookup(&key(), &model, q).is_none());
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
        let fp = "0000000000000001 0000000000000002";
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
            format!("{CACHE_HEADER}\nentry {fp} q_high\nviolated 4000000000 0\n"),
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
        assert!(cache.lookup(&key(), &model, q).is_none());
        assert_eq!(cache.stats().rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
