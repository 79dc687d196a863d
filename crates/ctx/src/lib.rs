//! Unified execution context for the synthesis pipeline.
//!
//! Every pipeline entry point takes one [`ExecCtx`], which carries:
//!
//! * the [`Trace`] handle (spans, counters, gauges),
//! * an optional thread-safe content-addressed [`ArtifactCache`] keyed by
//!   deterministic [`ContentKey`]s over stage inputs,
//! * an optional persistent [`ArtifactStore`] tier behind the in-memory
//!   cache (implemented by `onoc-store`'s `DiskStore`), so artifacts
//!   survive process restarts: lookups fall through memory → store →
//!   compute and computed artifacts are written through to both,
//! * an optional wall-clock deadline,
//! * a thread budget for parallel harness stages.
//!
//! Content keys are derived with [`ContentHasher`], a deterministic
//! 128-bit streaming hash. Types describe how they feed the hasher via
//! [`ContentHash`]; the derived key of a pipeline stage covers every
//! input the stage's output depends on, so equal keys imply equal
//! artifacts.
//!
//! The cache stores artifacts as `Arc<dyn Any + Send + Sync>` under a
//! `(stage, key)` pair and is bounded: inserting beyond capacity evicts
//! the least-recently-used entry. Hits, misses and evictions are counted
//! and can be published into a trace via
//! [`ExecCtx::publish_cache_stats`]. A poisoned cache lock surfaces as
//! the typed [`CacheError::Poisoned`] instead of a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use onoc_trace::{lock_or_recover, Trace};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Resolves a user-facing thread budget: `0` means one worker per
/// available core, anything else is taken literally.
///
/// This is the *only* place where the workspace consults
/// [`std::thread::available_parallelism`]; every other layer
/// receives its worker count through an [`ExecCtx`] (or an explicit
/// argument) so a single `--threads N` flag governs the whole pipeline.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    match requested {
        // onoc-lint: allow(L3, reason = "the one sanctioned probe of machine parallelism")
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// A deterministic 128-bit content key over a stage's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContentKey(pub [u64; 2]);

impl fmt::Display for ContentKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A deterministic streaming hasher producing [`ContentKey`]s.
///
/// Two decorrelated FNV-1a lanes over the same byte stream. The hash is
/// stable across runs, platforms and thread counts — unlike
/// [`std::collections::hash_map::DefaultHasher`], which is randomly
/// seeded per process — so it is safe to use for cache keys that must be
/// reproducible.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    lo: u64,
    hi: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        ContentHasher {
            lo: FNV_OFFSET,
            hi: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        self.hi = (self.hi.rotate_left(5) ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Feeds a 64-bit integer (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a pointer-sized integer.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a float through a canonicalized bit pattern: `-0.0`
    /// normalizes to `+0.0` (the two compare equal, so semantically
    /// identical configurations must produce identical keys) and every
    /// NaN collapses to one canonical quiet NaN. Without this, a negative
    /// zero in a bandwidth or loss config would mint a second key for the
    /// same input — a spurious recompute in memory, and a persistent
    /// duplicate file once artifacts live on disk.
    pub fn write_f64(&mut self, v: f64) {
        const CANONICAL_NAN: u64 = 0x7ff8_0000_0000_0000;
        let bits = if v.is_nan() {
            CANONICAL_NAN
        } else if v == 0.0 {
            0 // +0.0; also reached for -0.0, which compares equal
        } else {
            v.to_bits()
        };
        self.write_u64(bits);
    }

    /// Feeds a string, length-prefixed so concatenations cannot collide.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The key over everything written so far.
    #[must_use]
    pub fn finish(&self) -> ContentKey {
        ContentKey([self.lo, self.hi])
    }
}

/// Types that can feed their content into a [`ContentHasher`].
///
/// Implementations must be deterministic (no address- or iteration-order
/// dependence) and must cover every field that influences downstream
/// results.
pub trait ContentHash {
    /// Feeds `self` into the hasher.
    fn content_hash(&self, hasher: &mut ContentHasher);
}

impl ContentHash for bool {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_u8(u8::from(*self));
    }
}

impl ContentHash for u32 {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_u64(u64::from(*self));
    }
}

impl ContentHash for u64 {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_u64(*self);
    }
}

impl ContentHash for usize {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_usize(*self);
    }
}

impl ContentHash for f64 {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_f64(*self);
    }
}

impl ContentHash for str {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_str(self);
    }
}

impl ContentHash for String {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_str(self);
    }
}

impl<T: ContentHash + ?Sized> ContentHash for &T {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        (**self).content_hash(hasher);
    }
}

impl<T: ContentHash> ContentHash for Option<T> {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        match self {
            None => hasher.write_u8(0),
            Some(v) => {
                hasher.write_u8(1);
                v.content_hash(hasher);
            }
        }
    }
}

impl<T: ContentHash> ContentHash for [T] {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_usize(self.len());
        for v in self {
            v.content_hash(hasher);
        }
    }
}

impl<T: ContentHash> ContentHash for Vec<T> {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        self.as_slice().content_hash(hasher);
    }
}

impl ContentHash for Duration {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_u64(self.as_secs());
        hasher.write_u64(u64::from(self.subsec_nanos()));
    }
}

/// Error from the artifact cache.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheError {
    /// The cache mutex was poisoned by a panicking thread; the cached
    /// state can no longer be trusted.
    Poisoned,
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Poisoned => write!(f, "artifact cache lock was poisoned"),
        }
    }
}

impl std::error::Error for CacheError {}

/// The context's wall-clock deadline has already passed.
///
/// Returned by [`ExecCtx::check_deadline`]; pipeline drivers surface it
/// as a typed error so callers can distinguish "ran out of budget" from
/// a genuine synthesis failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded {
    /// How far past the deadline the check ran. Zero when the deadline
    /// expired at the very instant of the check.
    pub overdue: Duration,
}

impl fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadline exceeded by {:?}", self.overdue)
    }
}

impl std::error::Error for DeadlineExceeded {}

/// A type-erased cached artifact.
pub type Artifact = Arc<dyn Any + Send + Sync>;

/// Counters of one [`ArtifactCache`].
///
/// Snapshots are coherent: every counter is maintained under the same
/// lock that guards the map, so `hits + misses == gets` holds in *every*
/// snapshot, no matter how many threads are hammering the cache while it
/// is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a stored artifact.
    pub hits: u64,
    /// Lookups that found nothing (or a type-mismatched entry).
    pub misses: u64,
    /// Entries dropped to respect the capacity bound, plus type-mismatched
    /// entries evicted by [`ArtifactCache::get_as`].
    pub evictions: u64,
    /// Total lookups issued (always exactly `hits + misses`).
    pub gets: u64,
    /// Artifacts currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups; zero when nothing was looked up.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheEntry {
    value: Artifact,
    last_used: u64,
}

struct CacheInner {
    map: BTreeMap<(&'static str, ContentKey), CacheEntry>,
    /// Every entry of `map` under its `last_used` tick, so the LRU victim
    /// is the first entry here instead of the result of a scan.
    by_use: BTreeMap<u64, (&'static str, ContentKey)>,
    tick: u64,
    // Counters live *inside* the lock-protected state, not in separate
    // atomics: a `stats` snapshot taken under the lock is then coherent
    // by construction (hits + misses == gets, and the entry count agrees
    // with the lookups that produced it). With separate Relaxed atomics a
    // snapshot could observe a hit whose `gets` increment had not landed
    // yet — harmless for a single counter, but it breaks the invariants
    // the server's admission/metrics layer wants to assert on.
    hits: u64,
    misses: u64,
    evictions: u64,
    gets: u64,
}

impl CacheInner {
    /// The next use tick; ticks are strictly monotonic, so no two entries
    /// ever share one.
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Removes `(stage, key)` from the map and the use index.
    fn remove(&mut self, slot: (&'static str, ContentKey)) {
        if let Some(entry) = self.map.remove(&slot) {
            self.by_use.remove(&entry.last_used);
        }
    }
}

/// A thread-safe content-addressed artifact store with LRU eviction.
///
/// Entries are keyed by a `(stage, key)` pair: the stage name namespaces
/// keys so two stages with identical inputs never alias each other's
/// artifacts. The map is a `BTreeMap`, so no behaviour — including the
/// eviction victim, which is chosen by a strictly monotonic use tick —
/// depends on randomized iteration order. A second `BTreeMap` orders the
/// entries by that tick, so finding the victim costs a logarithmic
/// update per lookup and insert instead of a scan of the whole map.
pub struct ArtifactCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl ArtifactCache {
    /// Default capacity: enough for a full benchmark × strategy grid.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A cache holding at most `capacity` artifacts (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                map: BTreeMap::new(),
                by_use: BTreeMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                gets: 0,
            }),
        }
    }

    /// Looks up the artifact stored for `(stage, key)`.
    ///
    /// # Errors
    ///
    /// [`CacheError::Poisoned`] when the cache lock was poisoned.
    pub fn get(
        &self,
        stage: &'static str,
        key: ContentKey,
    ) -> Result<Option<Artifact>, CacheError> {
        Ok(self.lookup(stage, key, Some, |v| Some(v.clone()))?.ok())
    }

    /// Looks up the artifact stored for `(stage, key)` at type `T`.
    ///
    /// Unlike [`get`](Self::get) followed by a caller-side downcast, a
    /// stored entry of the *wrong* type counts as a miss (the caller will
    /// recompute, so counting it as a hit would overstate the hit rate)
    /// and the mismatched entry is evicted: it can never satisfy this
    /// call site again, and leaving it in place would force every future
    /// lookup of the key through the same failed downcast.
    ///
    /// # Errors
    ///
    /// [`CacheError::Poisoned`] when the cache lock was poisoned.
    pub fn get_as<T: Send + Sync + 'static>(
        &self,
        stage: &'static str,
        key: ContentKey,
    ) -> Result<Option<Arc<T>>, CacheError> {
        Ok(self.select_as(stage, key, |v| Some(Arc::clone(v)))?.ok())
    }

    /// [`get_as`](Self::get_as) for an artifact that answers only some
    /// lookups: `select` picks this lookup's answer from the stored
    /// artifact, and a stored artifact it picks nothing from counts as a
    /// miss. Returns the answer, or on a miss the stored artifact (if
    /// any), so that the caller can extend it and store it again. `select`
    /// runs under the cache lock.
    ///
    /// # Errors
    ///
    /// [`CacheError::Poisoned`] when the cache lock was poisoned.
    pub fn select_as<T: Send + Sync + 'static, R>(
        &self,
        stage: &'static str,
        key: ContentKey,
        select: impl FnOnce(&Arc<T>) -> Option<R>,
    ) -> Result<Result<R, Option<Arc<T>>>, CacheError> {
        self.lookup(stage, key, |a| a.downcast::<T>().ok(), select)
    }

    /// The one lookup behind [`get`](Self::get) and
    /// [`select_as`](Self::select_as): `cast` views the stored artifact
    /// (`None` evicts it as the wrong type) and `select` answers from it.
    fn lookup<V, R>(
        &self,
        stage: &'static str,
        key: ContentKey,
        cast: impl FnOnce(Artifact) -> Option<V>,
        select: impl FnOnce(&V) -> Option<R>,
    ) -> Result<Result<R, Option<V>>, CacheError> {
        let mut inner = self.inner.lock().map_err(|_| CacheError::Poisoned)?;
        let tick = inner.next_tick();
        // Counters tick while the lock is held so a `stats` snapshot
        // (which also takes the lock) always sees hit/miss totals
        // consistent with the entry count.
        inner.gets += 1;
        let Some(entry) = inner.map.get_mut(&(stage, key)) else {
            inner.misses += 1;
            return Ok(Err(None));
        };
        let Some(value) = cast(entry.value.clone()) else {
            inner.remove((stage, key));
            inner.misses += 1;
            inner.evictions += 1;
            return Ok(Err(None));
        };
        let used = std::mem::replace(&mut entry.last_used, tick);
        inner.by_use.remove(&used);
        inner.by_use.insert(tick, (stage, key));
        match select(&value) {
            Some(answer) => {
                inner.hits += 1;
                Ok(Ok(answer))
            }
            None => {
                inner.misses += 1;
                Ok(Err(Some(value)))
            }
        }
    }

    /// Stores `value` under `(stage, key)`, evicting the least-recently
    /// used artifact when the capacity bound would be exceeded.
    ///
    /// # Errors
    ///
    /// [`CacheError::Poisoned`] when the cache lock was poisoned.
    pub fn insert(
        &self,
        stage: &'static str,
        key: ContentKey,
        value: Artifact,
    ) -> Result<(), CacheError> {
        let mut inner = self.inner.lock().map_err(|_| CacheError::Poisoned)?;
        let tick = inner.next_tick();
        inner.remove((stage, key));
        inner.map.insert(
            (stage, key),
            CacheEntry {
                value,
                last_used: tick,
            },
        );
        inner.by_use.insert(tick, (stage, key));
        while inner.map.len() > self.capacity {
            let Some((_, victim)) = inner.by_use.pop_first() else {
                break;
            };
            inner.map.remove(&victim);
            inner.evictions += 1;
        }
        Ok(())
    }

    /// A snapshot of the hit/miss/eviction/get counters and the entry
    /// count.
    ///
    /// The snapshot is taken while holding the inner lock, and every
    /// counter lives *in* the lock-protected state, so the published
    /// totals are mutually consistent: `hits + misses == gets` in every
    /// snapshot, and a concurrent burst of lookups can never yield a
    /// snapshot whose counters disagree with the map state those lookups
    /// produced.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        // Statistics are diagnostics: a poisoned map is still safe to
        // *count*, so recover rather than misreport zero entries.
        let inner = lock_or_recover(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            gets: inner.gets,
            entries: inner.map.len(),
        }
    }
}

/// Counters of a persistent artifact-store tier (see [`ArtifactStore`]).
///
/// All counts are cumulative over the lifetime of the store handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups answered with a validated record.
    pub hits: u64,
    /// Lookups that found no record for the key.
    pub misses: u64,
    /// Records skipped because framing or checksum validation failed.
    /// Corruption is detected, counted and *skipped* — never trusted and
    /// never fatal; the caller recomputes instead.
    pub corrupt: u64,
    /// Records skipped because they carry an unknown (future) format
    /// version.
    pub version_skips: u64,
    /// Records written.
    pub writes: u64,
    /// Best-effort writes that failed (e.g. a full or read-only disk).
    pub write_errors: u64,
}

/// A persistent second tier behind the in-memory [`ArtifactCache`]:
/// byte-level storage of serialized artifacts keyed by `(stage, key)`.
///
/// Implementations (see the `onoc-store` crate's `DiskStore`) must be
/// *infallible at the API boundary*: a lookup that cannot be satisfied —
/// missing, truncated, checksum-mismatched or version-skewed record —
/// returns `None` and is counted in [`StoreStats`], and a failed write is
/// counted rather than surfaced, so persistence problems degrade to
/// recomputation instead of failing the pipeline.
pub trait ArtifactStore: Send + Sync + fmt::Debug {
    /// Loads the validated payload stored for `(stage, key)`, or `None`
    /// on a miss / corrupt record / version mismatch (each counted).
    fn load(&self, stage: &str, key: ContentKey) -> Option<Vec<u8>>;

    /// Stores `payload` under `(stage, key)`, best-effort.
    fn save(&self, stage: &str, key: ContentKey, payload: &[u8]);

    /// A snapshot of the store's counters.
    fn stats(&self) -> StoreStats;
}

/// The unified execution context threaded through every pipeline entry
/// point: trace handle, optional artifact cache, optional persistent
/// artifact store, optional deadline and a thread budget.
///
/// Cloning is cheap — the trace and the cache are shared handles — so a
/// context can be handed to worker threads freely.
///
/// ```
/// use onoc_ctx::{ArtifactCache, ExecCtx};
/// use std::sync::Arc;
///
/// let ctx = ExecCtx::default()
///     .with_cache(Arc::new(ArtifactCache::default()))
///     .with_threads(4);
/// assert_eq!(ctx.threads(), 4);
/// assert!(ctx.cache().is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExecCtx {
    trace: Trace,
    cache: Option<Arc<ArtifactCache>>,
    memo: Option<Arc<ArtifactCache>>,
    store: Option<Arc<dyn ArtifactStore>>,
    deadline: Option<Instant>,
    threads: usize,
}

impl ExecCtx {
    /// Default capacity of the fine-grained memo tier (see
    /// [`ExecCtx::memo`]): sub-ring construction produces thousands of
    /// small entries per synthesis, so the memo is sized well above the
    /// artifact cache to keep whole-stage artifacts and memo entries from
    /// evicting each other.
    pub const MEMO_CAPACITY: usize = 65_536;

    /// A context with no tracing, no cache, no deadline and the default
    /// thread budget (0 = "let the callee decide").
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A context with a fresh default-capacity artifact cache and memo
    /// tier enabled.
    #[must_use]
    pub fn cached() -> Self {
        Self::default()
            .with_cache(Arc::new(ArtifactCache::default()))
            .with_memo(Arc::new(ArtifactCache::new(Self::MEMO_CAPACITY)))
    }

    /// Replaces the trace handle.
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Attaches a (possibly shared) artifact cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Detaches the artifact cache: every stage recomputes.
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Attaches a (possibly shared) memo tier: a second, larger
    /// [`ArtifactCache`] holding *fine-grained* sub-results — per-sub-ring
    /// construction, refinement and routing units — keyed by exactly the
    /// slice of the input each unit depends on. Kept separate from the
    /// whole-stage artifact cache so the many small memo entries cannot
    /// evict full-stage artifacts (and vice versa).
    #[must_use]
    pub fn with_memo(mut self, memo: Arc<ArtifactCache>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Detaches the memo tier: every sub-result recomputes.
    #[must_use]
    pub fn without_memo(mut self) -> Self {
        self.memo = None;
        self
    }

    /// Attaches a persistent artifact store as the tier behind the
    /// in-memory cache: stage lookups fall through memory → store →
    /// compute, and computed artifacts are written through to both.
    #[must_use]
    pub fn with_store(mut self, store: Arc<dyn ArtifactStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Detaches the persistent artifact store.
    #[must_use]
    pub fn without_store(mut self) -> Self {
        self.store = None;
        self
    }

    /// Sets a wall-clock deadline. Stages that take time limits clamp
    /// them to the remaining budget.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the thread budget (0 = "let the callee decide", typically one
    /// worker per core).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The trace handle.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The attached artifact cache, if any.
    #[must_use]
    pub fn cache(&self) -> Option<&Arc<ArtifactCache>> {
        self.cache.as_ref()
    }

    /// The attached memo tier, if any.
    #[must_use]
    pub fn memo(&self) -> Option<&Arc<ArtifactCache>> {
        self.memo.as_ref()
    }

    /// The attached persistent artifact store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<dyn ArtifactStore>> {
        self.store.as_ref()
    }

    /// The wall-clock deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The thread budget (0 = unset).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Time left until the deadline; `None` without a deadline, zero when
    /// it has already passed.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            // onoc-lint: allow(L4, reason = "deadline arithmetic against the ctx budget, not a measurement")
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Fails when the wall-clock deadline has passed; a no-op without a
    /// deadline.
    ///
    /// Pipeline drivers call this *between* stages so a deadline that
    /// expires mid-pipeline aborts before the next stage starts, and at
    /// entry so an already-expired deadline fails fast instead of running
    /// the full pipeline.
    ///
    /// # Errors
    ///
    /// [`DeadlineExceeded`] when the deadline has passed, carrying how far
    /// overdue the check ran.
    pub fn check_deadline(&self) -> Result<(), DeadlineExceeded> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        // onoc-lint: allow(L4, reason = "deadline arithmetic against the ctx budget, not a measurement")
        let now = Instant::now();
        if now >= deadline {
            Err(DeadlineExceeded {
                overdue: now - deadline,
            })
        } else {
            Ok(())
        }
    }

    /// Looks up a typed artifact for `(stage, key)` and counts the
    /// hit/miss both in the cache and as `cache/...` trace counters. A
    /// detached cache is a silent miss without counters; an entry of the
    /// wrong type counts as a miss (and is evicted, see
    /// [`ArtifactCache::get_as`]).
    ///
    /// # Errors
    ///
    /// [`CacheError::Poisoned`] when the cache lock was poisoned.
    pub fn cache_get<T: Send + Sync + 'static>(
        &self,
        stage: &'static str,
        key: ContentKey,
    ) -> Result<Option<Arc<T>>, CacheError> {
        let Some(cache) = &self.cache else {
            return Ok(None);
        };
        let hit = cache.get_as::<T>(stage, key)?;
        self.count_lookup("cache", stage, hit.is_some());
        Ok(hit)
    }

    /// Stores a typed artifact under `(stage, key)` and returns the
    /// shared handle. With a detached cache the value is merely wrapped.
    ///
    /// # Errors
    ///
    /// [`CacheError::Poisoned`] when the cache lock was poisoned.
    pub fn cache_put<T: Send + Sync + 'static>(
        &self,
        stage: &'static str,
        key: ContentKey,
        value: T,
    ) -> Result<Arc<T>, CacheError> {
        let arc = Arc::new(value);
        if let Some(cache) = &self.cache {
            cache.insert(stage, key, arc.clone())?;
        }
        Ok(arc)
    }

    /// Looks up the typed memo entry for `(unit, key)` and lets `select`
    /// pick this lookup's answer from it (see
    /// [`ArtifactCache::select_as`]). The hit/miss is counted as `memo/...`
    /// trace counters, and a stored entry that `select` picks nothing from
    /// counts as a miss, so hits plus misses are the lookups. Returns the
    /// answer, or on a miss the stored entry (if any) for the caller to
    /// extend. A detached memo tier is a silent miss; a poisoned memo lock
    /// is treated as a miss as well — memoization is an accelerator, never
    /// a failure source.
    ///
    /// # Errors
    ///
    /// `Err` is a miss, not a failure: it carries the stored entry, if any.
    pub fn memo_get<T: Send + Sync + 'static, R>(
        &self,
        unit: &'static str,
        key: ContentKey,
        select: impl FnOnce(&Arc<T>) -> Option<R>,
    ) -> Result<R, Option<Arc<T>>> {
        let Some(memo) = &self.memo else {
            return Err(None);
        };
        let found = memo.select_as(unit, key, select).unwrap_or(Err(None));
        self.count_lookup("memo", unit, found.is_ok());
        found
    }

    /// Counts one `tier` lookup for `stage` as `{tier}/hits` and
    /// `{tier}/{stage}/hits` (or `misses`). The per-stage name is only
    /// built when tracing is on, so an untraced lookup allocates nothing.
    fn count_lookup(&self, tier: &str, stage: &str, hit: bool) {
        if !self.trace.is_enabled() {
            return;
        }
        let outcome = if hit { "hits" } else { "misses" };
        self.trace.incr(&format!("{tier}/{outcome}"), 1);
        self.trace.incr(&format!("{tier}/{stage}/{outcome}"), 1);
    }

    /// Stores a typed memo entry under `(unit, key)` and returns the
    /// shared handle. With a detached memo tier (or a poisoned lock) the
    /// value is merely wrapped.
    pub fn memo_put<T: Send + Sync + 'static>(
        &self,
        unit: &'static str,
        key: ContentKey,
        value: T,
    ) -> Arc<T> {
        let arc = Arc::new(value);
        if let Some(memo) = &self.memo {
            let _ = memo.insert(unit, key, arc.clone());
        }
        arc
    }

    /// A stats snapshot of the attached cache, if any.
    #[must_use]
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// A stats snapshot of the attached memo tier, if any.
    #[must_use]
    pub fn memo_stats(&self) -> Option<CacheStats> {
        self.memo.as_ref().map(|c| c.stats())
    }

    /// A stats snapshot of the attached persistent store, if any.
    #[must_use]
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// Publishes the cache totals as trace gauges (`cache/entries`,
    /// `cache/evictions`, `cache/hit_rate`) and, when a persistent store
    /// is attached, its counters as `cache/disk_*` gauges. No-op without
    /// a cache or store.
    pub fn publish_cache_stats(&self) {
        if let Some(stats) = self.cache_stats() {
            self.trace.gauge("cache/entries", stats.entries as f64);
            self.trace.gauge("cache/evictions", stats.evictions as f64);
            self.trace.gauge("cache/hit_rate", stats.hit_rate());
        }
        if let Some(stats) = self.memo_stats() {
            self.trace.gauge("memo/entries", stats.entries as f64);
            self.trace.gauge("memo/evictions", stats.evictions as f64);
            self.trace.gauge("memo/hit_rate", stats.hit_rate());
        }
        if let Some(stats) = self.store_stats() {
            self.trace.gauge("cache/disk_hits", stats.hits as f64);
            self.trace.gauge("cache/disk_misses", stats.misses as f64);
            self.trace.gauge("cache/disk_corrupt", stats.corrupt as f64);
            self.trace
                .gauge("cache/disk_version_skips", stats.version_skips as f64);
            self.trace.gauge("cache/disk_writes", stats.writes as f64);
            self.trace
                .gauge("cache/disk_write_errors", stats.write_errors as f64);
        }
    }
}

/// Deterministic iteration over a [`HashMap`](std::collections::HashMap):
/// its entries sorted by key.
///
/// `HashMap`/`HashSet` iteration order is the hasher's and varies between
/// processes, so any output-producing path that walks a hash map must
/// route through this adapter (or use a `BTreeMap` outright) to keep the
/// byte-identity contract of DESIGN.md §16. `onoc-lint`'s L7 rule
/// enforces exactly that: iterating a hash container directly in an
/// output-producing crate is a finding; iterating the `Vec` this returns
/// is not.
#[must_use]
pub fn sorted_entries<K: Ord, V, S>(map: &std::collections::HashMap<K, V, S>) -> Vec<(&K, &V)> {
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    entries
}

/// Deterministic iteration over a hash map's keys: sorted ascending.
/// The key-only companion of [`sorted_entries`]; also the sanctioned way
/// to walk a [`HashSet`](std::collections::HashSet) — view it as a
/// `HashMap<K, ()>` or collect it into a `BTreeSet` instead.
#[must_use]
pub fn sorted_keys<K: Ord, V, S>(map: &std::collections::HashMap<K, V, S>) -> Vec<&K> {
    let mut keys: Vec<&K> = map.keys().collect();
    keys.sort();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_deterministic_and_sensitive() {
        let key = |f: &dyn Fn(&mut ContentHasher)| {
            let mut h = ContentHasher::new();
            f(&mut h);
            h.finish()
        };
        let a = key(&|h| h.write_str("abc"));
        let b = key(&|h| h.write_str("abc"));
        assert_eq!(a, b);
        assert_ne!(a, key(&|h| h.write_str("abd")));
        // Length prefixing: ("ab", "c") never collides with ("a", "bc").
        let ab_c = key(&|h| {
            h.write_str("ab");
            h.write_str("c");
        });
        let a_bc = key(&|h| {
            h.write_str("a");
            h.write_str("bc");
        });
        assert_ne!(ab_c, a_bc);
        // Floats hash by canonicalized bit pattern: semantically equal
        // inputs produce equal keys, distinct values distinct keys.
        assert_ne!(key(&|h| h.write_f64(1.0)), key(&|h| h.write_f64(2.0)));
    }

    #[test]
    fn f64_hash_canonicalizes_signed_zero_and_nan() {
        let key = |v: f64| {
            let mut h = ContentHasher::new();
            h.write_f64(v);
            h.finish()
        };
        // -0.0 == 0.0, so the two must share one content key; before the
        // fix they hashed by raw bit pattern and diverged.
        assert_eq!(key(0.0), key(-0.0));
        // Every NaN payload collapses to one canonical key.
        let other_nan = f64::from_bits(0x7ff8_0000_0000_0001);
        assert!(other_nan.is_nan());
        assert_eq!(key(f64::NAN), key(other_nan));
        assert_eq!(key(f64::NAN), key(-f64::NAN));
        // Canonicalization must not fold distinct ordinary values.
        assert_ne!(key(0.0), key(f64::MIN_POSITIVE));
        assert_ne!(key(1.0), key(-1.0));
    }

    #[test]
    fn cache_counts_hits_misses_and_evicts_lru() {
        let cache = ArtifactCache::new(2);
        let key = |n: u64| ContentKey([n, n]);
        assert!(cache.get("s", key(1)).unwrap().is_none());
        cache.insert("s", key(1), Arc::new(1u32)).unwrap();
        cache.insert("s", key(2), Arc::new(2u32)).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get("s", key(1)).unwrap().is_some());
        cache.insert("s", key(3), Arc::new(3u32)).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(cache.get("s", key(2)).unwrap().is_none(), "2 was evicted");
        assert!(cache.get("s", key(1)).unwrap().is_some());
        assert!(cache.get("s", key(3)).unwrap().is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert!((stats.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn lru_index_matches_a_reference_model() {
        // Random lookups and inserts past capacity against a plain LRU
        // list (front = least recently used): every answer, every counter
        // and the surviving entries must agree. A lookup that finds its
        // entry touches it, whether at the wrong type (which evicts it),
        // rejected by `select` (a miss) or a hit.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        for capacity in 1..=6usize {
            let cache = ArtifactCache::new(capacity);
            let mut model: Vec<((&'static str, ContentKey), u64)> = Vec::new();
            let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
            for step in 0..2_000u64 {
                let stage = ["a", "b"][next(2) as usize];
                let slot = (stage, ContentKey([next(9), 0]));
                let found = model.iter().position(|(s, _)| *s == slot);
                match next(4) {
                    0 => {
                        cache.insert(slot.0, slot.1, Arc::new(step)).unwrap();
                        if let Some(i) = found {
                            model.remove(i);
                        }
                        model.push((slot, step));
                        if model.len() > capacity {
                            model.remove(0);
                            evictions += 1;
                        }
                    }
                    1 => {
                        // The wrong type: a miss that evicts the entry.
                        let got = cache.get_as::<String>(slot.0, slot.1).unwrap();
                        assert!(got.is_none());
                        misses += 1;
                        if let Some(i) = found {
                            model.remove(i);
                            evictions += 1;
                        }
                    }
                    op => {
                        // `select` accepts even values only on op 3.
                        let got = cache
                            .select_as(slot.0, slot.1, |v: &Arc<u64>| {
                                (op == 2 || v.is_multiple_of(2)).then_some(**v)
                            })
                            .unwrap();
                        let want = found.map(|i| {
                            let entry = model.remove(i);
                            model.push(entry);
                            entry.1
                        });
                        match (got, want) {
                            (Ok(v), Some(w)) => {
                                assert_eq!(v, w);
                                hits += 1;
                            }
                            (Err(Some(v)), Some(w)) => {
                                assert_eq!((*v, op, w % 2), (w, 3, 1));
                                misses += 1;
                            }
                            (Err(None), None) => misses += 1,
                            other => panic!("step {step}: {other:?}"),
                        }
                    }
                }
                let stats = cache.stats();
                assert_eq!(
                    (stats.hits, stats.misses, stats.evictions, stats.entries),
                    (hits, misses, evictions, model.len()),
                    "capacity {capacity}, step {step}"
                );
            }
            for (slot, value) in model {
                let got = cache.get_as::<u64>(slot.0, slot.1).unwrap();
                assert_eq!(got.as_deref(), Some(&value));
            }
        }
    }

    #[test]
    fn stage_names_namespace_keys() {
        let cache = ArtifactCache::default();
        let key = ContentKey([7, 7]);
        cache.insert("a", key, Arc::new(1u32)).unwrap();
        assert!(cache.get("b", key).unwrap().is_none());
        assert!(cache.get("a", key).unwrap().is_some());
    }

    #[test]
    fn ctx_typed_roundtrip_and_type_mismatch() {
        let ctx = ExecCtx::cached();
        let key = ContentKey([1, 2]);
        ctx.cache_put("stage", key, 42u32).unwrap();
        let hit: Option<Arc<u32>> = ctx.cache_get("stage", key).unwrap();
        assert_eq!(hit.as_deref(), Some(&42));
        // Same slot read at the wrong type: a miss, not a panic.
        let wrong: Option<Arc<String>> = ctx.cache_get("stage", key).unwrap();
        assert!(wrong.is_none());
    }

    #[test]
    fn type_mismatch_counts_a_miss_and_evicts_the_entry() {
        // Regression test: `get` used to count a type-mismatched entry as
        // a *hit* even though the caller's downcast failed and the stage
        // recomputed, so the published hit rate overstated cache utility.
        let cache = ArtifactCache::default();
        let key = ContentKey([3, 4]);
        cache.insert("stage", key, Arc::new(42u32)).unwrap();
        let wrong: Option<Arc<String>> = cache.get_as("stage", key).unwrap();
        assert!(wrong.is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 0, "a failed downcast must not count a hit");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 1, "the mismatched entry is evicted");
        assert_eq!(stats.entries, 0);
        // The slot is free again: a correctly-typed insert works.
        cache.insert("stage", key, Arc::new(1u32)).unwrap();
        let right: Option<Arc<u32>> = cache.get_as("stage", key).unwrap();
        assert_eq!(right.as_deref(), Some(&1));
    }

    #[test]
    fn stats_snapshot_is_internally_consistent_under_load() {
        // Counters tick under the same lock that guards the map, so any
        // concurrent snapshot must satisfy the bookkeeping invariant of
        // the get-then-put protocol below: every stored entry was
        // inserted after a counted miss, hence entries ≤ misses. Before
        // the fix, counters ticked after the lock was dropped, so a
        // snapshot could observe the inserted entry before its miss.
        let cache = Arc::new(ArtifactCache::new(64));
        std::thread::scope(|scope| {
            let snapshotter = {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for _ in 0..500 {
                        let s = cache.stats();
                        assert!(s.entries as u64 <= s.misses, "torn snapshot: {s:?}");
                    }
                })
            };
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let key = ContentKey([t, i % 32]);
                        if cache.get_as::<u64>("s", key).unwrap().is_none() {
                            cache.insert("s", key, Arc::new(i)).unwrap();
                        }
                    }
                });
            }
            snapshotter.join().unwrap();
        });
    }

    #[test]
    fn detached_cache_is_passthrough() {
        let ctx = ExecCtx::default();
        let key = ContentKey([0, 0]);
        let stored = ctx.cache_put("stage", key, 5u32).unwrap();
        assert_eq!(*stored, 5);
        let hit: Option<Arc<u32>> = ctx.cache_get("stage", key).unwrap();
        assert!(hit.is_none());
        assert!(ctx.cache_stats().is_none());
    }

    #[test]
    fn cross_thread_sharing() {
        let ctx = ExecCtx::cached();
        let key = ContentKey([9, 9]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        if ctx.cache_get::<u64>("s", key).unwrap().is_none() {
                            ctx.cache_put("s", key, 11u64).unwrap();
                        }
                    }
                });
            }
        });
        let stats = ctx.cache_stats().unwrap();
        assert!(stats.hits >= 4 * 50 - 4, "late lookups must hit");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn resolve_threads_maps_zero_to_machine_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn stats_gets_always_equals_hits_plus_misses() {
        let cache = ArtifactCache::new(4);
        let key = |n: u64| ContentKey([n, n]);
        for i in 0..10u64 {
            let _ = cache.get("s", key(i % 3)).unwrap();
            if i % 2 == 0 {
                cache.insert("s", key(i % 3), Arc::new(i)).unwrap();
            }
        }
        let s = cache.stats();
        assert_eq!(s.gets, 10);
        assert_eq!(s.hits + s.misses, s.gets);
    }

    #[test]
    fn check_deadline_passes_then_fails() {
        // No deadline: always fine.
        assert!(ExecCtx::default().check_deadline().is_ok());
        // A generous deadline passes.
        let ctx = ExecCtx::default().with_deadline(Instant::now() + Duration::from_secs(60));
        assert!(ctx.check_deadline().is_ok());
        // An already-expired deadline fails with a typed error carrying a
        // sensible overdue amount.
        let ctx = ExecCtx::default().with_deadline(Instant::now() - Duration::from_millis(5));
        let err = ctx.check_deadline().unwrap_err();
        assert!(err.overdue >= Duration::from_millis(5), "overdue {err}");
    }

    #[test]
    fn deadline_remaining() {
        let ctx = ExecCtx::default();
        assert!(ctx.remaining().is_none());
        let ctx = ctx.with_deadline(Instant::now() + Duration::from_secs(60));
        let rem = ctx.remaining().unwrap();
        assert!(rem > Duration::from_secs(50) && rem <= Duration::from_secs(60));
    }

    #[test]
    fn sorted_entries_orders_by_key_regardless_of_insertion() {
        let mut forward = std::collections::HashMap::new();
        let mut backward = std::collections::HashMap::new();
        for i in 0..64u32 {
            forward.insert(i, i * 2);
            backward.insert(63 - i, (63 - i) * 2);
        }
        let a: Vec<(u32, u32)> = sorted_entries(&forward)
            .into_iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        let b: Vec<(u32, u32)> = sorted_entries(&backward)
            .into_iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        assert_eq!(a, b);
        assert_eq!(a.first(), Some(&(0, 0)));
        assert_eq!(a.last(), Some(&(63, 126)));
    }

    #[test]
    fn sorted_keys_matches_entry_order() {
        let mut map = std::collections::HashMap::new();
        for word in ["zeta", "alpha", "mu"] {
            map.insert(word.to_string(), ());
        }
        let keys: Vec<&str> = sorted_keys(&map).into_iter().map(String::as_str).collect();
        assert_eq!(keys, vec!["alpha", "mu", "zeta"]);
        let from_entries: Vec<&str> = sorted_entries(&map)
            .into_iter()
            .map(|(k, ())| k.as_str())
            .collect();
        assert_eq!(keys, from_entries);
    }
}
