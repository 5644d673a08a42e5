//! Pluggable storage behind the engine's multi-window parts.
//!
//! The paper's engine holds every multi-window graph resident (§4.1). This
//! module generalizes that into a [`TcsrStorage`] store serving the same
//! window-slice read API from three backends:
//!
//! - [`StorageBackend::Resident`] — the historical layout: every part's
//!   arrays live in memory for the whole run (fastest, largest).
//! - [`StorageBackend::Compressed`] — parts rest as delta-varint
//!   [`CompressedPart`] blobs and are decoded on touch into a bounded
//!   cache; typically 3-6x smaller at rest.
//! - [`StorageBackend::OnDisk`] — parts rest in a `tempopr.tcsr.v1` file
//!   ([`tempopr_graph::TcsrFile`]) and are paged in per part-shard; only
//!   the CRC'd section table and the vertex maps stay resident.
//!
//! Decoded parts are bit-identical to built parts (the codec round-trip is
//! exact), so ranks are bit-identical across backends — the differential
//! suites enforce this. Per-part vertex maps and window ranges are always
//! resident regardless of backend: warm-start carry, resume re-seeding,
//! and failed-window output assembly must not depend on a decode
//! succeeding.
//!
//! ## Budget semantics
//!
//! The shard cache holds at most `slots` decoded parts — cached, pinned,
//! or mid-decode — and evicts *before* decoding, so a run's decoded
//! working set is bounded by the `slots` largest parts: exactly the
//! footprint [`tempopr_graph::plan_partition`] charges against the
//! `memory_budget` when given the same slot count (workers plus prefetch
//! depth; a serial non-pipelined walk has one slot and recovers the
//! historical one-decoded-part rule). Parts a caller keeps pinned past
//! their slot's turn still cannot be evicted (correctness first); the
//! `storage.resident_bytes` gauge is an atomic high-water mark covering
//! decodes still in flight, so any overshoot is measured, never hidden.
//!
//! ## Concurrency
//!
//! Fetches decode *outside* the cache lock, so independent parts decode
//! concurrently under a shard worker pool; two fetches of the same part
//! rendezvous on a condvar and share one decode. Speculative
//! [`TcsrStorage::prefetch`] calls take a free slot when one exists and
//! decline otherwise — a prefetch never pushes the occupancy past `slots`.

use crate::error::EngineError;
use std::ops::{Deref, Range};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use tempopr_graph::multiwindow::PartitionStrategy;
use tempopr_graph::{
    CompressedPart, DecodeScratch, EncodedPartition, EventLog, MultiWindowGraph, MultiWindowSet,
    PartMeta, StorageError, StorageProfile, TcsrFile, TcsrFileWriter, VertexId, WindowSpec,
};
use tempopr_telemetry::Telemetry;

/// Where the multi-window parts rest between touches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// Every part resident in memory for the whole run (the historical
    /// layout and the default).
    #[default]
    Resident,
    /// Parts rest as delta-varint compressed blobs, decoded on touch into
    /// a bounded shard cache.
    Compressed,
    /// Parts rest in a `tempopr.tcsr.v1` file under `dir`, paged in per
    /// part-shard. The file (`parts.tcsr`) is written at engine build time
    /// and left in place — the caller owns the directory's lifetime.
    OnDisk {
        /// Directory holding (or to hold) the `parts.tcsr` file.
        dir: PathBuf,
    },
}

impl StorageBackend {
    /// The planner profile whose footprint rule matches this backend.
    pub fn profile(&self) -> StorageProfile {
        match self {
            StorageBackend::Resident => StorageProfile::Resident,
            StorageBackend::Compressed => StorageProfile::Compressed,
            StorageBackend::OnDisk { .. } => StorageProfile::OnDisk,
        }
    }
}

impl std::fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageBackend::Resident => f.write_str("resident"),
            StorageBackend::Compressed => f.write_str("compressed"),
            StorageBackend::OnDisk { .. } => f.write_str("ondisk"),
        }
    }
}

/// A handle on one fetched multi-window part, dereferencing to the part
/// itself. Resident parts are borrowed; decoded parts are shared with the
/// cache (holding the handle pins the part against eviction).
pub enum PartRef<'a> {
    /// Borrowed from the resident [`MultiWindowSet`].
    Borrowed(&'a MultiWindowGraph),
    /// A decoded part shared with the shard cache.
    Shared(Arc<MultiWindowGraph>),
}

impl Deref for PartRef<'_> {
    type Target = MultiWindowGraph;

    fn deref(&self) -> &MultiWindowGraph {
        match self {
            PartRef::Borrowed(g) => g,
            PartRef::Shared(a) => a,
        }
    }
}

enum Backing {
    Resident(MultiWindowSet),
    Compressed(Vec<CompressedPart>),
    OnDisk(TcsrFile),
}

struct CacheEntry {
    part: usize,
    arc: Arc<MultiWindowGraph>,
    bytes: usize,
}

struct Cache {
    /// Decoded parts, most recently used first.
    entries: Vec<CacheEntry>,
    /// Decodes in flight: `(part, reserved bytes)`. A slot is occupied
    /// from reservation to insertion, so concurrent fetches of the same
    /// part dedup here and occupancy accounting never lags allocation.
    in_flight: Vec<(usize, usize)>,
    /// Sum of the entries' array-only footprints.
    decoded_bytes: usize,
    /// Idle decode-scratch buffers (on-disk page-in reuses them; at most
    /// one per slot).
    scratch_pool: Vec<DecodeScratch>,
    /// Total capacity of every scratch buffer, pooled or checked out.
    scratch_bytes: usize,
}

impl Cache {
    fn occupancy(&self) -> usize {
        self.entries.len() + self.in_flight.len()
    }

    fn reserved_bytes(&self) -> usize {
        self.in_flight.iter().map(|&(_, b)| b).sum()
    }
}

/// The engine's part store: one of the three backends plus the resident
/// per-part metadata, the shard cache, and its telemetry.
pub struct TcsrStorage {
    backend: StorageBackend,
    backing: Backing,
    /// Per-part metadata for the non-resident backends (empty when the
    /// [`MultiWindowSet`] itself is resident and already holds it).
    metas: Vec<PartMeta>,
    spec: WindowSpec,
    num_global_vertices: usize,
    /// Always-resident storage-owned bytes: all part arrays (resident), or
    /// blobs/section-table plus the metadata maps (compressed/on-disk).
    base_bytes: usize,
    /// Total encoded payload bytes (0 for the resident backend).
    compressed_total: usize,
    /// Decoded parts the cache may hold at once (cached + in flight) —
    /// what the budget planner charged. Mandatory fetches can exceed it
    /// only when every resident part is pinned by an outstanding handle.
    slots: usize,
    cache: Mutex<Cache>,
    /// Signals in-flight decodes completing (or failing), so a concurrent
    /// fetch of the same part shares the one decode instead of doubling it.
    decoded_ready: Condvar,
    /// High-water mark of `base + decoded + in-flight + scratch`, updated
    /// by atomic max so concurrent decodes never under-report.
    peak_resident: AtomicUsize,
    /// Fault injection: parts whose fetch fails with a synthetic i/o
    /// error (testing only; empty in production).
    fail_parts: Vec<usize>,
    tele: Telemetry,
}

impl TcsrStorage {
    /// Builds the store for `log` under `spec` with `num_parts` requested
    /// parts and `slots` cache slots (clamped to at least one). The
    /// non-resident backends take over `planned`, the partition the budget
    /// planner built to measure, or stream the build part by part
    /// ([`EncodedPartition::build`]), so peak build memory stays near one
    /// decoded part plus the encoded blobs.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        log: &EventLog,
        spec: WindowSpec,
        num_parts: usize,
        planned: Option<EncodedPartition>,
        symmetric: bool,
        strategy: PartitionStrategy,
        backend: &StorageBackend,
        slots: usize,
        tele: Telemetry,
    ) -> Result<TcsrStorage, EngineError> {
        let num_global_vertices = log.num_vertices();
        let encoded = || match planned {
            Some(partition) => {
                tele.add("storage.plan.reused", 1);
                Ok(partition)
            }
            None => EncodedPartition::build(log, spec, num_parts, symmetric, strategy),
        };
        let (backing, metas, base_bytes, compressed_total) = match backend {
            StorageBackend::Resident => {
                let set = MultiWindowSet::build(log, spec, num_parts, symmetric, strategy)?;
                let base = set.graphs().iter().map(|g| g.storage_bytes()).sum();
                (Backing::Resident(set), Vec::new(), base, 0)
            }
            StorageBackend::Compressed => {
                let EncodedPartition { parts, metas } = encoded()?;
                let total: usize = parts.iter().map(|p| p.payload_len()).sum();
                let base =
                    parts.iter().map(|p| p.memory_bytes()).sum::<usize>() + meta_bytes(&metas);
                (Backing::Compressed(parts), metas, base, total)
            }
            StorageBackend::OnDisk { dir } => {
                let EncodedPartition { parts, metas } = encoded()?;
                std::fs::create_dir_all(dir).map_err(StorageError::from)?;
                let path = dir.join("parts.tcsr");
                let mut writer = TcsrFileWriter::create(&path, parts.len(), num_global_vertices)?;
                for part in &parts {
                    writer.append(part)?;
                }
                writer.finish()?;
                drop(parts);
                let file = TcsrFile::open(&path)?;
                let total: usize = (0..file.num_parts()).map(|p| file.section_len(p)).sum();
                let base = file.memory_bytes() + meta_bytes(&metas);
                (Backing::OnDisk(file), metas, base, total)
            }
        };
        Ok(TcsrStorage {
            backend: backend.clone(),
            backing,
            metas,
            spec,
            num_global_vertices,
            base_bytes,
            compressed_total,
            slots: slots.max(1),
            cache: Mutex::new(Cache {
                entries: Vec::new(),
                in_flight: Vec::new(),
                decoded_bytes: 0,
                scratch_pool: Vec::new(),
                scratch_bytes: 0,
            }),
            decoded_ready: Condvar::new(),
            peak_resident: AtomicUsize::new(base_bytes),
            fail_parts: Vec::new(),
            tele,
        })
    }

    /// The backend this store serves from.
    pub fn backend(&self) -> &StorageBackend {
        &self.backend
    }

    /// The window spec covered.
    pub fn spec(&self) -> &WindowSpec {
        &self.spec
    }

    /// Number of multi-window parts.
    pub fn num_parts(&self) -> usize {
        match &self.backing {
            Backing::Resident(set) => set.num_parts(),
            _ => self.metas.len(),
        }
    }

    /// Decoded-part cache slots the budget was charged for.
    pub fn cache_slots(&self) -> usize {
        self.slots
    }

    /// Size of the global vertex universe.
    pub fn num_global_vertices(&self) -> usize {
        self.num_global_vertices
    }

    /// The global window range part `p` serves (always resident).
    pub fn part_windows(&self, p: usize) -> Range<usize> {
        match &self.backing {
            Backing::Resident(set) => set.graphs()[p].windows(),
            _ => self.metas[p].windows.clone(),
        }
    }

    /// The index of the part serving global window `window`.
    pub fn part_index_of(&self, window: usize) -> usize {
        match &self.backing {
            Backing::Resident(set) => set.graphs().partition_point(|g| g.windows().end <= window),
            _ => self.metas.partition_point(|m| m.windows.end <= window),
        }
    }

    /// Part `p`'s sorted local→global vertex map (always resident).
    pub fn vertex_map(&self, p: usize) -> &[VertexId] {
        match &self.backing {
            Backing::Resident(set) => set.graphs()[p].vertex_map(),
            _ => &self.metas[p].vertex_map,
        }
    }

    /// Marks `parts` as failing every fetch with a synthetic i/o error —
    /// the deterministic stand-in for a decode/page-in fault mid-run
    /// (testing only; see [`crate::config::FaultPlan::fetch_failures`]).
    pub fn inject_fetch_failures(&mut self, parts: &[usize]) {
        self.fail_parts = parts.to_vec();
    }

    /// Fetches part `p`: a borrow for the resident backend, a cache-shared
    /// decode for the others. Holding the returned handle pins the decoded
    /// part against eviction.
    pub fn part(&self, p: usize) -> Result<PartRef<'_>, StorageError> {
        if self.fail_parts.contains(&p) {
            return Err(StorageError::Io(std::io::Error::other(format!(
                "injected fetch failure for part {p}"
            ))));
        }
        match &self.backing {
            Backing::Resident(set) => Ok(PartRef::Borrowed(&set.graphs()[p])),
            _ => Ok(PartRef::Shared(self.fetch(p)?)),
        }
    }

    /// Whether part `p` is immediately servable with its window index
    /// built — the prefetcher's "nothing left to overlap" test.
    pub fn part_ready(&self, p: usize) -> bool {
        match &self.backing {
            Backing::Resident(set) => set.graphs()[p].window_index_built().is_some(),
            _ => lock(&self.cache)
                .entries
                .iter()
                .any(|e| e.part == p && e.arc.window_index_built().is_some()),
        }
    }

    /// Speculatively decodes part `p` into a *free* cache slot, returning
    /// whether the part is cached afterwards (decoded now, or already
    /// there). Declines — leaving occupancy and budget untouched — when
    /// the part is resident-backed, mid-decode on another thread, or no
    /// slot can be freed; decode errors are swallowed (the mandatory
    /// fetch of the same part surfaces them). This is the
    /// double-buffering half of the shard pipeline: with `slots` =
    /// workers + prefetch depth, the prefetch of part k+1 overlaps part
    /// k's compute without ever pushing residency past the certified
    /// budget.
    pub fn prefetch(&self, p: usize) -> bool {
        if matches!(self.backing, Backing::Resident(_))
            || p >= self.num_parts()
            || self.fail_parts.contains(&p)
        {
            return false;
        }
        let mut cache = lock(&self.cache);
        if cache.entries.iter().any(|e| e.part == p) {
            return true;
        }
        if cache.in_flight.iter().any(|&(q, _)| q == p) {
            return false;
        }
        self.evict_for_slot(&mut cache);
        if cache.occupancy() >= self.slots {
            self.tele.add("storage.prefetch_skipped", 1);
            return false;
        }
        self.tele.add("storage.prefetch_decodes", 1);
        self.decode_into_cache(cache, p).is_ok()
    }

    fn fetch(&self, p: usize) -> Result<Arc<MultiWindowGraph>, StorageError> {
        let mut cache = lock(&self.cache);
        loop {
            if let Some(pos) = cache.entries.iter().position(|e| e.part == p) {
                let entry = cache.entries.remove(pos);
                let arc = entry.arc.clone();
                cache.entries.insert(0, entry);
                self.tele.add("storage.cache_hits", 1);
                return Ok(arc);
            }
            if cache.in_flight.iter().any(|&(q, _)| q == p) {
                // Another thread is decoding this very part: wait for its
                // insert (or failure) and re-check instead of decoding the
                // same bytes twice.
                cache = self
                    .decoded_ready
                    .wait(cache)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            break;
        }
        // Evict before decoding so the transient peak stays within the
        // slot-charged budget; a mandatory fetch proceeds even when every
        // resident part is pinned (the gauge records any overshoot).
        self.evict_for_slot(&mut cache);
        self.decode_into_cache(cache, p)
    }

    /// Evicts unpinned entries, least recently used first, until a slot is
    /// free (or nothing evictable remains).
    fn evict_for_slot(&self, cache: &mut Cache) {
        let mut i = cache.entries.len();
        while i > 0 && cache.occupancy() >= self.slots {
            i -= 1;
            if Arc::strong_count(&cache.entries[i].arc) == 1 {
                let evicted = cache.entries.remove(i);
                cache.decoded_bytes -= evicted.bytes;
                self.tele.add("storage.shards_evicted", 1);
            }
        }
    }

    /// Reserves a slot for part `p`, decodes it *outside* the lock, and
    /// inserts it most-recently-used. The caller has already checked for a
    /// hit and an in-flight duplicate and made room.
    fn decode_into_cache(
        &self,
        mut cache: MutexGuard<'_, Cache>,
        p: usize,
    ) -> Result<Arc<MultiWindowGraph>, StorageError> {
        let reserved = self.metas.get(p).map_or(0, |m| m.decoded_bytes);
        cache.in_flight.push((p, reserved));
        let mut scratch = cache.scratch_pool.pop().unwrap_or_default();
        let before = scratch.memory_bytes();
        // Pre-charge the scratch growth this page-in will cause
        // (`read_part` grows by exact reservation to the section length),
        // so the high-water mark covers the decode while it runs.
        let expected = match &self.backing {
            Backing::OnDisk(file) => before.max(file.section_len(p)),
            _ => before,
        };
        cache.scratch_bytes += expected - before;
        self.note_resident(&cache);
        drop(cache);
        let decoded = match &self.backing {
            // `part()` serves the resident backend by borrow and never
            // routes it here; kept as a typed error, not a panic.
            Backing::Resident(_) => Err(StorageError::BadHeader(
                "resident backend has no shard cache".into(),
            )),
            Backing::Compressed(parts) => parts[p].decode(),
            Backing::OnDisk(file) => file.read_part(p, &mut scratch),
        };
        let mut cache = lock(&self.cache);
        cache.scratch_bytes += scratch.memory_bytes();
        cache.scratch_bytes -= expected;
        if cache.scratch_pool.len() < self.slots {
            cache.scratch_pool.push(scratch);
        } else {
            cache.scratch_bytes -= scratch.memory_bytes();
        }
        if let Some(pos) = cache.in_flight.iter().position(|&(q, _)| q == p) {
            cache.in_flight.remove(pos);
        }
        let decoded = match decoded {
            Ok(g) => g,
            Err(e) => {
                drop(cache);
                self.decoded_ready.notify_all();
                return Err(e);
            }
        };
        self.tele.add("storage.decodes", 1);
        let bytes = decoded.storage_bytes();
        let arc = Arc::new(decoded);
        cache.decoded_bytes += bytes;
        cache.entries.insert(
            0,
            CacheEntry {
                part: p,
                arc: arc.clone(),
                bytes,
            },
        );
        self.note_resident(&cache);
        drop(cache);
        self.decoded_ready.notify_all();
        Ok(arc)
    }

    /// Folds the current residency into the atomic high-water mark.
    fn note_resident(&self, cache: &Cache) {
        let resident =
            self.base_bytes + cache.decoded_bytes + cache.reserved_bytes() + cache.scratch_bytes;
        self.peak_resident.fetch_max(resident, Ordering::Relaxed);
    }

    /// Storage-owned resident bytes right now: the always-resident base
    /// plus decoded parts (cached and in flight) and the decode scratch.
    pub fn resident_bytes(&self) -> usize {
        match &self.backing {
            Backing::Resident(_) => self.base_bytes,
            _ => {
                let cache = lock(&self.cache);
                self.base_bytes + cache.decoded_bytes + cache.reserved_bytes() + cache.scratch_bytes
            }
        }
    }

    /// High-water mark of [`TcsrStorage::resident_bytes`] over the store's
    /// lifetime — what the memory budget is judged against. Maintained by
    /// atomic max at every reservation and insertion, so concurrent
    /// decodes can only raise it, never overwrite it with a lower
    /// last-write value.
    pub fn peak_resident_bytes(&self) -> usize {
        match &self.backing {
            Backing::Resident(_) => self.base_bytes,
            _ => self.peak_resident.load(Ordering::Relaxed),
        }
    }

    /// Total encoded payload bytes (0 for the resident backend) — the
    /// numerator of the compression ratio.
    pub fn compressed_bytes(&self) -> usize {
        self.compressed_total
    }

    /// Full multi-window footprint including lazily built window indexes
    /// of whatever is currently materialized (the historical
    /// `memory.multiwindow_bytes` gauge).
    pub fn memory_bytes(&self) -> usize {
        match &self.backing {
            Backing::Resident(set) => set.memory_bytes(),
            _ => {
                let cache = lock(&self.cache);
                self.base_bytes
                    + cache.scratch_bytes
                    + cache
                        .entries
                        .iter()
                        .map(|e| e.arc.memory_bytes())
                        .sum::<usize>()
            }
        }
    }
}

fn meta_bytes(metas: &[PartMeta]) -> usize {
    metas
        .iter()
        .map(|m| {
            m.vertex_map.len() * std::mem::size_of::<VertexId>() + std::mem::size_of::<PartMeta>()
        })
        .sum()
}

/// Poison-tolerant lock (cache state is always consistent; a panicked
/// window is isolated and reported elsewhere).
fn lock(m: &Mutex<Cache>) -> MutexGuard<'_, Cache> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempopr_graph::Event;

    fn sample_log() -> EventLog {
        let events: Vec<Event> = (0..400u32)
            .map(|i| Event::new((i * 13 + 2) % 40, (i * 7 + 5) % 40, i as i64))
            .filter(|e| e.u != e.v)
            .collect();
        EventLog::from_unsorted(events, 40).unwrap()
    }

    fn backends(dir: &std::path::Path) -> Vec<StorageBackend> {
        vec![
            StorageBackend::Resident,
            StorageBackend::Compressed,
            StorageBackend::OnDisk {
                dir: dir.to_path_buf(),
            },
        ]
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tempopr_core_storage_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn build(
        log: &EventLog,
        spec: WindowSpec,
        parts: usize,
        backend: &StorageBackend,
        slots: usize,
        tele: Telemetry,
    ) -> TcsrStorage {
        TcsrStorage::build(
            log,
            spec,
            parts,
            None,
            true,
            PartitionStrategy::EqualWindows,
            backend,
            slots,
            tele,
        )
        .unwrap()
    }

    #[test]
    fn all_backends_serve_identical_parts() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 80, 30).unwrap();
        let dir = tmpdir("parity");
        let stores: Vec<TcsrStorage> = backends(&dir)
            .iter()
            .map(|b| build(&log, spec, 4, b, 1, Telemetry::noop()))
            .collect();
        let reference = &stores[0];
        for store in &stores[1..] {
            assert_eq!(store.num_parts(), reference.num_parts());
            assert_eq!(store.num_global_vertices(), reference.num_global_vertices());
            for p in 0..reference.num_parts() {
                assert_eq!(store.part_windows(p), reference.part_windows(p));
                assert_eq!(store.vertex_map(p), reference.vertex_map(p));
                let a = store.part(p).unwrap();
                let b = reference.part(p).unwrap();
                assert_eq!(a.tcsr().col_indices(), b.tcsr().col_indices());
                assert_eq!(a.tcsr().timestamps(), b.tcsr().timestamps());
                assert_eq!(a.tcsr().row_offsets(), b.tcsr().row_offsets());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_takes_over_the_partition_its_plan_built() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 80, 30).unwrap();
        let dir = tmpdir("handover");
        for backend in backends(&dir) {
            let profile = backend.profile();
            let strategy = PartitionStrategy::EqualWindows;
            // The tightest feasible budget: the bound cannot decide it.
            let required =
                tempopr_graph::plan_partition(&log, &spec, 1, true, strategy, profile, 1)
                    .1
                    .unwrap_err()
                    .required;
            let (stats, plan) =
                tempopr_graph::plan_partition(&log, &spec, required, true, strategy, profile, 1);
            let plan = plan.unwrap();
            let resident = backend == StorageBackend::Resident;
            assert_eq!(plan.encoded.is_none(), resident, "{backend}");
            assert_eq!(stats.trial_builds == 0, resident, "{backend}");
            let tele = Telemetry::enabled();
            let planned = TcsrStorage::build(
                &log,
                spec,
                plan.parts,
                plan.encoded,
                true,
                strategy,
                &backend,
                1,
                tele.clone(),
            )
            .unwrap();
            // Taken over, not rebuilt — and the same store a build of its
            // own would have made.
            assert_eq!(
                tele.report().counter("storage.plan.reused"),
                u64::from(!resident),
                "{backend}"
            );
            let fresh = build(&log, spec, plan.parts, &backend, 1, Telemetry::noop());
            assert_eq!(planned.num_parts(), fresh.num_parts());
            assert_eq!(planned.compressed_bytes(), fresh.compressed_bytes());
            assert_eq!(planned.peak_resident_bytes(), fresh.peak_resident_bytes());
            for p in 0..fresh.num_parts() {
                assert_eq!(planned.part_windows(p), fresh.part_windows(p));
                assert_eq!(planned.vertex_map(p), fresh.vertex_map(p));
                let (a, b) = (planned.part(p).unwrap(), fresh.part(p).unwrap());
                assert_eq!(a.tcsr(), b.tcsr(), "{backend} part {p}");
            }
            // The walk above, one part at a time, stayed within the plan.
            assert!(
                resident || planned.peak_resident_bytes() <= required,
                "{backend}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_order_walk_evicts_and_stays_within_one_decoded_part() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 80, 30).unwrap();
        let tele = Telemetry::enabled();
        let store = build(&log, spec, 4, &StorageBackend::Compressed, 1, tele.clone());
        let mut worst_part = 0usize;
        for p in 0..store.num_parts() {
            let part = store.part(p).unwrap();
            worst_part = worst_part.max(part.storage_bytes());
            drop(part);
        }
        let report = tele.report();
        assert_eq!(report.counter("storage.decodes"), store.num_parts() as u64);
        assert_eq!(
            report.counter("storage.shards_evicted"),
            store.num_parts() as u64 - 1
        );
        // Peak = always-resident base + the worst single decoded part.
        assert!(store.peak_resident_bytes() <= store.compressed_bytes_base() + worst_part);
        // Touching a cached part is a hit, not a decode.
        let _again = store.part(store.num_parts() - 1).unwrap();
        assert_eq!(tele.report().counter("storage.cache_hits"), 1);
    }

    #[test]
    fn multi_slot_cache_keeps_slots_parts_and_bounds_peak() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 80, 30).unwrap();
        let dir = tmpdir("slots");
        for backend in backends(&dir) {
            if backend == StorageBackend::Resident {
                continue;
            }
            let tele = Telemetry::enabled();
            let store = build(&log, spec, 4, &backend, 2, tele.clone());
            let mut sizes: Vec<usize> = Vec::new();
            for p in 0..store.num_parts() {
                let part = store.part(p).unwrap();
                sizes.push(part.storage_bytes());
                drop(part);
            }
            let report = tele.report();
            // Two slots: the walk evicts two fewer times than one slot
            // would, and re-touching either of the last two parts is a hit.
            assert_eq!(report.counter("storage.decodes"), 4);
            assert_eq!(report.counter("storage.shards_evicted"), 2, "{backend}");
            let _a = store.part(2).unwrap();
            let _b = store.part(3).unwrap();
            assert_eq!(tele.report().counter("storage.cache_hits"), 2, "{backend}");
            // Peak stays within base + the two largest decoded parts (+
            // per-slot scratch for the on-disk page-in path).
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            let two_largest: usize = sizes.iter().take(2).sum();
            let scratch = 2 * store.compressed_bytes();
            assert!(
                store.peak_resident_bytes()
                    <= store.compressed_bytes_base() + two_largest + scratch,
                "{backend}: peak {} base {} parts {}",
                store.peak_resident_bytes(),
                store.compressed_bytes_base(),
                two_largest,
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefetch_fills_free_slot_and_declines_when_full() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 80, 30).unwrap();
        let tele = Telemetry::enabled();
        let store = build(&log, spec, 4, &StorageBackend::Compressed, 2, tele.clone());
        // Pin part 0, prefetch part 1 into the second slot.
        let pinned = store.part(0).unwrap();
        assert!(store.prefetch(1));
        // The mandatory fetch of the prefetched part is a cache hit (and
        // pins it).
        let pinned1 = store.part(1).unwrap();
        assert_eq!(tele.report().counter("storage.cache_hits"), 1);
        // Both slots pinned: a further prefetch declines rather than
        // evicting a pinned part or overshooting the budget.
        assert!(!store.prefetch(2));
        // An already-cached part reports available without a new decode;
        // out of range is a no-op.
        assert!(store.prefetch(1));
        assert!(!store.prefetch(99));
        let report = tele.report();
        assert_eq!(report.counter("storage.prefetch_decodes"), 1);
        assert_eq!(report.counter("storage.prefetch_skipped"), 1);
        assert_eq!(report.counter("storage.decodes"), 2);
        drop(pinned1);
        drop(pinned);
        // With both pins released, a prefetch may evict the
        // least-recently-used part to make room for part 2.
        assert!(store.prefetch(2));
        assert_eq!(tele.report().counter("storage.shards_evicted"), 1);
    }

    #[test]
    fn concurrent_fetches_share_decodes_and_record_true_peak() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 80, 30).unwrap();
        let dir = tmpdir("concurrent");
        for backend in backends(&dir) {
            if backend == StorageBackend::Resident {
                continue;
            }
            let tele = Telemetry::enabled();
            let store = build(&log, spec, 4, &backend, 4, tele.clone());
            std::thread::scope(|s| {
                for t in 0..4 {
                    let store = &store;
                    s.spawn(move || {
                        for p in 0..store.num_parts() {
                            // Every thread touches every part, rotated so
                            // fetches collide both on distinct parts
                            // (concurrent decodes) and the same part
                            // (in-flight rendezvous).
                            let part = store.part((p + t) % store.num_parts()).unwrap();
                            assert!(part.storage_bytes() > 0);
                        }
                    });
                }
            });
            let report = tele.report();
            // Four slots, four parts: each part decoded exactly once; the
            // 12 remaining touches are hits, never duplicate decodes.
            assert_eq!(report.counter("storage.decodes"), 4, "{backend}");
            assert_eq!(report.counter("storage.cache_hits"), 12, "{backend}");
            // The high-water mark covers everything at once.
            assert!(store.peak_resident_bytes() >= store.resident_bytes());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_fetch_failure_is_a_typed_error() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 80, 30).unwrap();
        let mut store = build(
            &log,
            spec,
            3,
            &StorageBackend::Compressed,
            1,
            Telemetry::noop(),
        );
        store.inject_fetch_failures(&[1]);
        assert!(store.part(0).is_ok());
        match store.part(1) {
            Err(StorageError::Io(e)) => {
                assert!(e.to_string().contains("injected fetch failure"), "{e}");
            }
            other => panic!("expected injected Io error, got {:?}", other.map(|_| ())),
        }
        // A failing part never occupies a slot, and prefetching it declines.
        assert!(!store.prefetch(1));
        assert!(store.part(2).is_ok());
    }

    #[test]
    fn pinned_parts_survive_eviction() {
        let log = sample_log();
        let spec = WindowSpec::covering(&log, 80, 30).unwrap();
        let store = build(
            &log,
            spec,
            3,
            &StorageBackend::Compressed,
            1,
            Telemetry::noop(),
        );
        let pinned = store.part(0).unwrap();
        let _other = store.part(1).unwrap();
        // Part 0 is pinned by `pinned`; refetching it must be a cache hit
        // serving the same allocation.
        let refetched = store.part(0).unwrap();
        match (&pinned, &refetched) {
            (PartRef::Shared(a), PartRef::Shared(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("compressed backend must share decoded parts"),
        }
    }

    impl TcsrStorage {
        /// Test-only: the always-resident base for budget assertions.
        fn compressed_bytes_base(&self) -> usize {
            self.base_bytes
        }
    }
}
