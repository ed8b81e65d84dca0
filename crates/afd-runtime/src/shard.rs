//! A sharded many-peer monitor with lock-free suspicion reads.
//!
//! [`RuntimeMonitor`](crate::monitor::RuntimeMonitor) keeps every watched
//! process behind one `&mut self`, which is exactly right for tens of
//! peers and exactly wrong for ten thousand: every `level()` query
//! contends with intake, and a snapshot walks the whole detector map
//! while frames queue up. [`ShardedMonitor`] splits the watch set across
//! `N` shards (hash of the [`ProcessId`]), drains the transport **once**
//! per [`tick`](ShardedMonitor::tick), dispatches decoded heartbeats to
//! shards in per-shard batches, and then *publishes* each shard's
//! suspicion levels into a row table that [`SnapshotReader`]s consume
//! without taking any lock — readers never block intake, and intake
//! never blocks readers.
//!
//! # The row table
//!
//! Each shard owns one [`ShardCell`], rewritten in place by its single
//! writer: a peers column (ascending ids) that changes only when
//! membership does, a dense column of levels (`f64` bits), and one
//! durable record per slot (the seven checkpoint words behind a per-row
//! seqlock word). A membership seqlock guards the peers column; each
//! row's version guards its record; a level is one word. So a point
//! read is one binary search plus one load, and a bulk reader (a full
//! snapshot, a checkpoint dump) is consistent *per row* and restarts
//! only if membership changes under it — never because rows were
//! refreshed meanwhile, however often that happens. Everything is plain
//! atomics — no locks, no RMWs, no unsafe code.
//!
//! # Publishing: full, dirty flush, refresh sweep
//!
//! [`tick`](ShardedMonitor::tick) (and a lockstep engine epoch) writes
//! every row at one `now`, exactly as a full-table snapshot would. A
//! free-running [`ParallelShardEngine`](crate::engine::ParallelShardEngine)
//! worker instead publishes evidence, not tables: each `publish_every`
//! epoch it first *flushes* the rows accepted since the last epoch —
//! O(changed peers), so a heartbeat is visible about one epoch after it
//! was accepted — and then *sweeps* the silent rows oldest-first in
//! bounded steps, draining its rings between steps and skipping rows
//! already written this epoch, so a silent peer's level keeps accruing.
//! (A table small enough to walk in well under an epoch is published
//! whole instead; the worker chooses by row count.) Every row write evaluates the detector at a fresh clock reading, so
//! no row's evaluation time ever goes backwards and a level falls only
//! after an accepted heartbeat.
//!
//! [`SnapshotReader::published_at`] is a per-shard watermark: every
//! published row was evaluated at or after it. After a tick it is the
//! tick time. In free-running mode it trails real time by about one
//! sweep pass — a silent row is at most that stale — while rows with
//! fresh evidence are at most one epoch stale. Callers that need
//! exact-`now` values use the `&mut` paths ([`ShardedMonitor::level`] /
//! [`ShardedMonitor::snapshot`]), which evaluate detectors directly.
//!
//! # Equivalence
//!
//! With `shards = 1` the intake pipeline is behaviourally identical to
//! `RuntimeMonitor`: frames are stamped per decode in drain order and the
//! accept path (serial-number freshness, then watch check, then detector
//! update) is the same code shape — property tests in `tests/sharded.rs`
//! assert equality against a `RuntimeMonitor` fed the same frames.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use afd_core::accrual::{AccrualFailureDetector, DetectorSeed};
use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::service::MonitoringService;

use crate::clock::Clock;
use crate::error::TransportError;
use crate::monitor::MonitorStats;
use crate::seq::{classify, SeqVerdict};
use crate::transport::{FrameBatch, Transport};
use crate::wire::{Heartbeat, WireDecoder};

/// Slots in the reusable intake arena drained per
/// [`recv_batch`](Transport::recv_batch) call.
pub(crate) const INTAKE_BATCH_SLOTS: usize = 512;

pub(crate) type DetectorFactory<D> = Box<dyn FnMut(ProcessId) -> D + Send>;

/// Fibonacci-hashes a process id onto a shard index. A multiplicative
/// hash (rather than `id % shards`) keeps sequentially assigned ids from
/// striding into the same shard when the shard count shares a factor
/// with the id allocation pattern.
#[inline]
pub(crate) fn shard_index(process: ProcessId, shards: usize) -> usize {
    let h = u64::from(process.as_u32()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards.max(1)
}

/// Sizing for a [`ShardedMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards the watch set is partitioned into (floored at 1).
    pub shards: usize,
    /// Maximum watched processes per shard. Row tables are fixed-size
    /// atomic arrays (they are shared with lock-free readers and cannot
    /// grow), so capacity is declared up front; [`ShardedMonitor::watch`]
    /// fails with [`ShardCapacityError`] when a shard is full.
    pub slots_per_shard: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 8,
            slots_per_shard: 4096,
        }
    }
}

/// A shard refused a new watch because its row table is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCapacityError {
    /// The shard that is at capacity.
    pub shard: usize,
    /// Its configured slot count.
    pub capacity: usize,
}

impl fmt::Display for ShardCapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} is at capacity ({} watched processes); raise \
             ShardConfig::slots_per_shard or add shards",
            self.shard, self.capacity
        )
    }
}

impl std::error::Error for ShardCapacityError {}

/// What one [`tick`](ShardedMonitor::tick) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickReport {
    /// Frames drained from the transport (including corrupt ones).
    pub drained: usize,
    /// Heartbeats accepted into detectors.
    pub accepted: usize,
    /// Largest per-shard dispatch batch this tick.
    pub max_batch: usize,
    /// Clock time spent dispatching batches and publishing snapshots
    /// (zero under a virtual clock that nobody advances).
    pub dispatch: Duration,
}

/// Aggregated counters for a [`ShardedMonitor`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardedStats {
    /// Counters summed across shards; `corrupt` counts frames that failed
    /// decoding *before* any shard was chosen, so it appears only here.
    pub totals: MonitorStats,
    /// Per-shard intake counters (each shard's `corrupt` is always 0).
    pub per_shard: Vec<MonitorStats>,
    /// Watched processes per shard, for balance inspection.
    pub peers_per_shard: Vec<usize>,
    /// Ticks executed so far.
    pub ticks: u64,
}

/// Bit in [`PeerDurable::flags`]: the detector produced a seed.
pub(crate) const DURABLE_HAS_SEED: u64 = 1;
/// Bit in [`PeerDurable::flags`]: the seed carries a last-heartbeat time.
pub(crate) const DURABLE_HAS_LAST_HB: u64 = 1 << 1;
/// Bit in [`PeerDurable::flags`]: a highest sequence number was recorded.
pub(crate) const DURABLE_HAS_SEQ: u64 = 1 << 2;

/// The durable state of one published peer, flattened to seven `u64`
/// words so it can cross the row table as plain atomics (and land
/// byte-for-byte in a checkpoint segment record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PeerDurable {
    /// `DURABLE_*` presence bits.
    pub(crate) flags: u64,
    /// Highest heartbeat sequence accepted (replay-rejection state).
    pub(crate) highest_seq: u64,
    /// Last heartbeat arrival, in nanoseconds.
    pub(crate) last_hb_nanos: u64,
    /// Inter-arrival samples in the detector window.
    pub(crate) samples: u64,
    /// Window mean, as `f64` bits.
    pub(crate) mean_bits: u64,
    /// Window population variance, as `f64` bits.
    pub(crate) var_bits: u64,
    /// Auxiliary detector counter (see [`DetectorSeed::heartbeats_seen`]).
    pub(crate) heartbeats_seen: u64,
}

impl PeerDurable {
    /// Flattens a detector seed plus replay state into one record.
    pub(crate) fn from_state(seed: Option<DetectorSeed>, highest_seq: Option<u64>) -> Self {
        let mut flags = 0u64;
        if highest_seq.is_some() {
            flags |= DURABLE_HAS_SEQ;
        }
        let mut last_hb_nanos = 0;
        let mut samples = 0;
        let mut mean_bits = 0;
        let mut var_bits = 0;
        let mut heartbeats_seen = 0;
        if let Some(seed) = seed {
            flags |= DURABLE_HAS_SEED;
            if let Some(last) = seed.last_heartbeat {
                flags |= DURABLE_HAS_LAST_HB;
                last_hb_nanos = last.as_nanos();
            }
            samples = seed.samples;
            mean_bits = seed.mean.to_bits();
            var_bits = seed.population_variance.to_bits();
            heartbeats_seen = seed.heartbeats_seen;
        }
        PeerDurable {
            flags,
            highest_seq: highest_seq.unwrap_or(0),
            last_hb_nanos,
            samples,
            mean_bits,
            var_bits,
            heartbeats_seen,
        }
    }

    /// The detector seed carried by this record, if any.
    pub(crate) fn seed(&self) -> Option<DetectorSeed> {
        if self.flags & DURABLE_HAS_SEED == 0 {
            return None;
        }
        let last_heartbeat = if self.flags & DURABLE_HAS_LAST_HB != 0 {
            Some(Timestamp::from_nanos(self.last_hb_nanos))
        } else {
            None
        };
        Some(DetectorSeed {
            last_heartbeat,
            samples: self.samples,
            mean: f64::from_bits(self.mean_bits),
            population_variance: f64::from_bits(self.var_bits),
            heartbeats_seen: self.heartbeats_seen,
        })
    }

    /// The recorded highest sequence number, if any.
    pub(crate) fn highest(&self) -> Option<u64> {
        if self.flags & DURABLE_HAS_SEQ != 0 {
            Some(self.highest_seq)
        } else {
            None
        }
    }

    /// The record as seven words, in field order (the row-table layout).
    fn words(&self) -> [u64; 7] {
        [
            self.flags,
            self.highest_seq,
            self.last_hb_nanos,
            self.samples,
            self.mean_bits,
            self.var_bits,
            self.heartbeats_seen,
        ]
    }

    /// The inverse of [`words`](Self::words).
    fn from_words(w: [u64; 7]) -> Self {
        PeerDurable {
            flags: w[0],
            highest_seq: w[1],
            last_hb_nanos: w[2],
            samples: w[3],
            mean_bits: w[4],
            var_bits: w[5],
            heartbeats_seen: w[6],
        }
    }
}

/// One published durable record: the seven [`PeerDurable`] words behind
/// a per-row seqlock word, laid out as one cache line so a row write
/// touches one line rather than seven parallel columns.
#[repr(align(64))]
struct Row {
    /// Seqlock: odd while the writer rewrites this row.
    version: AtomicU64,
    /// The seven [`PeerDurable`] words, in [`PeerDurable::words`] order.
    durable: [AtomicU64; 7],
}

impl Row {
    fn new() -> Self {
        Row {
            version: AtomicU64::new(0),
            durable: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Rewrites the record in place. Single writer: the shard's owner.
    fn store(&self, durable: &PeerDurable) {
        // Seqlock enter: mark odd, then fence so the word writes cannot be
        // observed before the mark.
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        for (slot, word) in self.durable.iter().zip(durable.words()) {
            slot.store(word, Ordering::Relaxed);
        }
        // Seqlock exit (even again): release-orders every word write
        // before the mark readers synchronize with.
        self.version.store(v.wrapping_add(2), Ordering::Release);
    }

    /// A consistent copy of the durable record. Retries only while a
    /// write of *this* row straddles the read, so a bulk reader never
    /// waits on the rest of the table being rewritten.
    fn load_durable(&self) -> PeerDurable {
        loop {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 & 1 == 0 {
                let words = std::array::from_fn(|k| self.durable[k].load(Ordering::Relaxed));
                // Acquire fence keeps the word loads above the re-check.
                fence(Ordering::Acquire);
                if self.version.load(Ordering::Relaxed) == v1 {
                    return PeerDurable::from_words(words);
                }
            }
            std::hint::spin_loop();
        }
    }
}

/// The watermark word, on a cache line of its own: the owner stores it
/// after every sweep step, and it must not evict the `layout` word that
/// every point read loads.
#[repr(align(64))]
struct Watermark(AtomicU64);

/// A shard's published table, rewritten in place: per slot a peer id, a
/// suspicion level and a durable record. The peers column (ascending
/// ids, for binary search) changes only when membership does.
///
/// Two kinds of seqlock guard it. The `layout` word covers the peers
/// column and the row count; it moves only when the owner rewrites
/// membership, so a reader of any size retries at most once per
/// watch-set change. Each row's own `version` word covers that row's
/// durable record, so a bulk reader is consistent per row and never
/// restarts because some other row was refreshed. A level is a single
/// word and needs no version. The levels live in a dense column of
/// their own: point reads hit it at random, and eight levels to a cache
/// line keep that footprint an eighth of the rows'. The `watermark` is a
/// lower bound on the evaluation time of every row.
pub(crate) struct ShardCell {
    /// Seqlock over `peers` and `len`: odd while membership is rewritten.
    layout: AtomicU64,
    /// Number of live rows.
    len: AtomicUsize,
    /// Every published row was evaluated at or after this time (nanos).
    watermark: Watermark,
    /// Peer ids, ascending (the service iterates a `BTreeMap`).
    peers: Vec<AtomicU32>,
    /// Suspicion levels as `f64` bits, parallel to `peers`.
    levels: Vec<AtomicU64>,
    /// Durable records, parallel to `peers`.
    rows: Vec<Row>,
}

impl ShardCell {
    pub(crate) fn new(slots: usize) -> Self {
        ShardCell {
            layout: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            watermark: Watermark(AtomicU64::new(0)),
            peers: (0..slots).map(|_| AtomicU32::new(0)).collect(),
            levels: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            rows: (0..slots).map(|_| Row::new()).collect(),
        }
    }

    fn capacity(&self) -> usize {
        self.rows.len()
    }

    /// Opens a membership rewrite; pass the result to
    /// [`end_layout`](Self::end_layout). Single writer.
    fn begin_layout(&self) -> u64 {
        let s = self.layout.load(Ordering::Relaxed);
        self.layout.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        s
    }

    /// Writes slot `i` of the peers column; callers hold the layout odd.
    fn set_peer(&self, i: usize, process: ProcessId) {
        self.peers[i].store(process.as_u32(), Ordering::Relaxed);
    }

    /// Closes a membership rewrite with `len` live rows.
    fn end_layout(&self, s: u64, len: usize) {
        self.len.store(len, Ordering::Relaxed);
        self.layout.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Rewrites slot `i` from detector `d` evaluated at `now`: its level
    /// word, then its durable record (seed plus replay state `highest`).
    fn write_row<D: AccrualFailureDetector>(
        &self,
        i: usize,
        d: &mut D,
        highest: Option<u64>,
        now: Timestamp,
    ) {
        let level = d.suspicion_level(now);
        self.levels[i].store(level.value().to_bits(), Ordering::Relaxed);
        self.rows[i].store(&PeerDurable::from_state(d.save_seed(), highest));
    }

    /// Publishes the evaluation-time lower bound, after the row writes
    /// it covers.
    fn set_watermark(&self, at: Timestamp) {
        self.watermark.0.store(at.as_nanos(), Ordering::Release);
    }

    fn watermark(&self) -> Timestamp {
        Timestamp::from_nanos(self.watermark.0.load(Ordering::Acquire))
    }

    /// The id in slot `i` of the peers column.
    fn peer(&self, i: usize) -> ProcessId {
        ProcessId::new(self.peers[i].load(Ordering::Relaxed))
    }

    /// Binary-searches the first `len` peers for `process`.
    fn position(&self, process: ProcessId, len: usize) -> Option<usize> {
        let target = process.as_u32();
        let mut lo = 0usize;
        let mut hi = len;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.peers[mid].load(Ordering::Relaxed) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < len && self.peers[lo].load(Ordering::Relaxed) == target).then_some(lo)
    }

    /// Runs `read` against a consistent peers column (and its length),
    /// retrying only while a membership rewrite straddles the attempt.
    fn with_layout<R>(&self, mut read: impl FnMut(usize) -> R) -> R {
        loop {
            let s1 = self.layout.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let len = self.len.load(Ordering::Relaxed).min(self.capacity());
                let out = read(len);
                // Acquire fence keeps the column loads above the re-check.
                fence(Ordering::Acquire);
                if self.layout.load(Ordering::Relaxed) == s1 {
                    return out;
                }
            }
            std::hint::spin_loop();
        }
    }

    /// The published level of `process`: one binary search plus one word.
    fn lookup(&self, process: ProcessId) -> Option<SuspicionLevel> {
        self.with_layout(|len| {
            self.position(process, len).map(|i| {
                let bits = self.levels[i].load(Ordering::Relaxed);
                SuspicionLevel::clamped(f64::from_bits(bits))
            })
        })
    }

    /// Copies every published (peer, level) row, ascending by id, and
    /// returns the watermark read before the copy: each copied level was
    /// evaluated at or after it.
    fn read_all(&self, out: &mut Vec<(ProcessId, SuspicionLevel)>) -> Timestamp {
        let at = self.watermark();
        self.with_layout(|len| {
            out.clear();
            for (i, level) in self.levels.iter().take(len).enumerate() {
                let bits = level.load(Ordering::Relaxed);
                out.push((self.peer(i), SuspicionLevel::clamped(f64::from_bits(bits))));
            }
        });
        at
    }

    /// Copies every published durable record (ascending by id), each one
    /// consistent within its row, and returns the watermark read before
    /// the copy.
    pub(crate) fn read_durable(&self, out: &mut Vec<(ProcessId, PeerDurable)>) -> Timestamp {
        let at = self.watermark();
        self.with_layout(|len| {
            out.clear();
            for (i, row) in self.rows.iter().take(len).enumerate() {
                out.push((self.peer(i), row.load_durable()));
            }
        });
        at
    }
}

/// A cloneable, lock-free view of the shards' published row tables.
///
/// Readers never block the shard writers and never take a lock. A point
/// read ([`level`](Self::level)) retries only if a membership rewrite
/// overlaps it; a bulk read ([`snapshot`](Self::snapshot), a checkpoint
/// dump) is consistent per row and likewise restarts only on a
/// membership rewrite, never because rows were refreshed meanwhile.
#[derive(Clone)]
pub struct SnapshotReader {
    cells: Arc<Vec<Arc<ShardCell>>>,
}

impl fmt::Debug for SnapshotReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("shards", &self.cells.len())
            .finish()
    }
}

impl SnapshotReader {
    /// Builds a reader over `cells` — shared with
    /// [`ParallelShardEngine`](crate::engine::ParallelShardEngine), whose
    /// workers publish into the same row tables.
    pub(crate) fn from_cells(cells: Arc<Vec<Arc<ShardCell>>>) -> Self {
        SnapshotReader { cells }
    }

    /// The published suspicion level of `process` (`None` if it was not
    /// watched at that shard's last membership publish).
    pub fn level(&self, process: ProcessId) -> Option<SuspicionLevel> {
        let idx = shard_index(process, self.cells.len());
        self.cells.get(idx)?.lookup(process)
    }

    /// The union of every shard's published table, ascending by id.
    pub fn snapshot(&self) -> Vec<(ProcessId, SuspicionLevel)> {
        // lint:allow(no-alloc-in-hot-path, owned-snapshot API; callers on the query path, not the intake path)
        let mut out = Vec::new();
        // lint:allow(no-alloc-in-hot-path, owned-snapshot API; callers on the query path, not the intake path)
        let mut scratch = Vec::new();
        for cell in self.cells.iter() {
            cell.read_all(&mut scratch);
            out.append(&mut scratch);
        }
        out.sort_unstable_by_key(|&(p, _)| p);
        out
    }

    /// The oldest shard watermark: every published level was evaluated
    /// at or after this time. `Timestamp::ZERO` before the first publish.
    /// Reads one word per shard.
    pub fn published_at(&self) -> Timestamp {
        self.cells
            .iter()
            .map(|cell| cell.watermark())
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Number of shards behind this reader.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Copies shard `shard`'s published durable table into `out`,
    /// returning its watermark (`None` for an out-of-range shard).
    ///
    /// This is the accessor the checkpointer dumps through: it reads only
    /// the published row table, so the dump never touches worker-owned
    /// detector state and runs entirely off the hot path.
    pub(crate) fn durable_shard(
        &self,
        shard: usize,
        out: &mut Vec<(ProcessId, PeerDurable)>,
    ) -> Option<Timestamp> {
        self.cells.get(shard).map(|cell| cell.read_durable(out))
    }
}

/// Worker-private bookkeeping for one published row.
#[derive(Debug, Clone, Copy, Default)]
struct RowMark {
    /// The publish epoch that last wrote the row.
    written: u64,
    /// Start time (nanos) of the epoch whose publish last visited the
    /// row in row order (a full publish or the refresh sweep). Visits run
    /// in row order and epochs in time order, so from the sweep cursor
    /// onwards, cyclically, these never decrease.
    visited_at: u64,
}

/// Rows one shard's publishes wrote, cumulative. `dirty / epochs` is
/// the mean number of changed peers per epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PublishRows {
    /// Publish epochs begun (full publishes and dirty flushes).
    pub(crate) epochs: u64,
    /// Rows written by dirty flushes: peers accepted since the epoch
    /// before.
    pub(crate) dirty: u64,
    /// Rows written by the refresh sweep and by full publishes.
    pub(crate) sweep: u64,
}

/// A dirty flush larger than `1/FULL_FLUSH_SHARE` of the table (and than
/// one sweep chunk) publishes the whole table instead: one in-order walk
/// beats that many point lookups.
const FULL_FLUSH_SHARE: usize = 8;

/// Rows one refresh-sweep step visits in a free-running worker before
/// it drains its rings again (about 70 µs of φ evaluation).
pub(crate) const SWEEP_CHUNK: usize = 256;

/// One shard: a detector service plus its freshness state, counters and
/// published row table. Crate-visible so
/// [`ParallelShardEngine`](crate::engine::ParallelShardEngine) workers
/// can own shards and run the *same* accept/publish code the
/// single-threaded monitor runs — equivalence by construction.
///
/// Publishing comes in three forms. [`publish`](Self::publish) writes
/// every row at one `now` (ticks, lockstep epochs, restores).
/// [`flush`](Self::flush) begins a free-running epoch by writing only
/// the rows accepted since the last one. [`sweep`](Self::sweep) then
/// refreshes silent rows oldest-first, a bounded step at a time, skipping
/// rows already written in the current epoch.
pub(crate) struct Shard<D> {
    pub(crate) service: MonitoringService<D, DetectorFactory<D>>,
    pub(crate) highest_seq: BTreeMap<ProcessId, u64>,
    pub(crate) stats: MonitorStats,
    pub(crate) cell: Arc<ShardCell>,
    pub(crate) rows_written: PublishRows,
    /// Live rows in the published table.
    rows: usize,
    /// The watch set changed since the peers column was written.
    layout_stale: bool,
    /// Peers accepted since the last epoch began (with repeats);
    /// preallocated to the table's capacity and never grown. Once full it
    /// stops recording, and the next epoch publishes every row.
    dirty: Vec<ProcessId>,
    /// Per-row bookkeeping, parallel to the table.
    marks: Vec<RowMark>,
    epoch: u64,
    epoch_at: Timestamp,
    /// Next row the refresh sweep visits.
    cursor: usize,
    /// A refresh pass is under way.
    sweeping: bool,
}

impl<D: AccrualFailureDetector> Shard<D> {
    /// Builds an empty shard publishing into `cell`.
    pub(crate) fn new(factory: DetectorFactory<D>, cell: Arc<ShardCell>) -> Self {
        let slots = cell.capacity();
        Shard {
            service: MonitoringService::new(factory),
            highest_seq: BTreeMap::new(),
            stats: MonitorStats::default(),
            cell,
            rows_written: PublishRows::default(),
            rows: 0,
            layout_stale: true,
            dirty: Vec::with_capacity(slots),
            marks: (0..slots).map(|_| RowMark::default()).collect(),
            epoch: 0,
            epoch_at: Timestamp::ZERO,
            cursor: 0,
            sweeping: false,
        }
    }

    /// Starts watching `process`; its row appears at the next publish.
    pub(crate) fn watch(&mut self, process: ProcessId) -> bool {
        let newly = self.service.watch(process);
        self.layout_stale |= newly;
        newly
    }

    /// Stops watching `process`; its row disappears at the next publish.
    pub(crate) fn unwatch(&mut self, process: ProcessId) -> Option<D> {
        let gone = self.service.unwatch(process);
        self.layout_stale |= gone.is_some();
        gone
    }

    /// Algorithm 4, lines 8–10 — the same accept path as
    /// [`RuntimeMonitor`](crate::monitor::RuntimeMonitor), against this
    /// shard's own freshness map. An accepted heartbeat marks its row
    /// dirty for the next [`flush`](Self::flush).
    pub(crate) fn accept(&mut self, hb: Heartbeat, now: Timestamp) -> bool {
        if let Some(&highest) = self.highest_seq.get(&hb.sender) {
            match classify(hb.seq, highest) {
                SeqVerdict::Fresh => {}
                SeqVerdict::Duplicate => {
                    self.stats.duplicate += 1;
                    return false;
                }
                SeqVerdict::Stale => {
                    self.stats.stale += 1;
                    return false;
                }
            }
        }
        if !self.service.heartbeat(hb.sender, now) {
            self.stats.unwatched += 1;
            return false;
        }
        self.highest_seq.insert(hb.sender, hb.seq);
        self.stats.accepted += 1;
        if self.dirty.len() < self.dirty.capacity() {
            self.dirty.push(hb.sender);
        }
        true
    }

    fn begin_epoch(&mut self, now: Timestamp) {
        self.epoch += 1;
        self.epoch_at = now;
        self.rows_written.epochs += 1;
    }

    /// Publishes every row — level and durable record, both taken at
    /// `now` — rewriting the peers column first if membership changed.
    /// Each durable record rides its row's seqlock, so a checkpointer gets
    /// every peer's seed and replay state as one consistent record
    /// without ever borrowing the (worker-owned) detectors.
    pub(crate) fn publish(&mut self, now: Timestamp) {
        self.begin_epoch(now);
        let cell = &*self.cell;
        let highest = &self.highest_seq;
        let marks = &mut self.marks;
        let epoch = self.epoch;
        let layout = self.layout_stale.then(|| cell.begin_layout());
        let capacity = cell.capacity();
        let mut n = 0usize;
        self.service.for_each_mut(|p, d| {
            if n < capacity {
                if layout.is_some() {
                    cell.set_peer(n, p);
                }
                cell.write_row(n, d, highest.get(&p).copied(), now);
                marks[n] = RowMark {
                    written: epoch,
                    visited_at: now.as_nanos(),
                };
                n += 1;
            }
        });
        if let Some(s) = layout {
            cell.end_layout(s, n);
        }
        cell.set_watermark(now);
        self.rows = n;
        self.layout_stale = false;
        self.dirty.clear();
        self.cursor = 0;
        self.sweeping = false;
        self.rows_written.sweep += n as u64;
    }

    /// Begins a free-running epoch at `now`: writes the rows accepted
    /// since the last epoch (O(changed peers)) and starts a refresh pass
    /// if none is under way. Falls back to a full [`publish`](Self::publish)
    /// when membership changed or the dirty set is a large share of the
    /// table.
    pub(crate) fn flush(&mut self, now: Timestamp) {
        let full = self.dirty.len() == self.dirty.capacity();
        let large = self.dirty.len() > (self.rows / FULL_FLUSH_SHARE).max(SWEEP_CHUNK);
        if self.layout_stale || full || large {
            self.publish(now);
            return;
        }
        self.begin_epoch(now);
        for &p in &self.dirty {
            let Some(i) = self.cell.position(p, self.rows) else {
                continue;
            };
            if self.marks[i].written == self.epoch {
                continue; // a repeat: already written this epoch
            }
            let Some(d) = self.service.detector_mut(p) else {
                continue;
            };
            self.cell
                .write_row(i, d, self.highest_seq.get(&p).copied(), now);
            self.marks[i].written = self.epoch;
            self.rows_written.dirty += 1;
        }
        self.dirty.clear();
        self.sweeping = true;
    }

    /// Live rows in the published table.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// `true` while a refresh pass has rows left to visit.
    pub(crate) fn sweeping(&self) -> bool {
        self.sweeping && !self.layout_stale
    }

    /// One refresh-sweep step: visits up to `budget` rows from the
    /// cursor, re-evaluating at `now` each one not yet written in this
    /// epoch, then advances the watermark. `now` must be a fresh clock
    /// reading, so every row's evaluation times never go backwards.
    /// Returns the rows written.
    pub(crate) fn sweep(&mut self, now: Timestamp, budget: usize) -> usize {
        if !self.sweeping() {
            return 0;
        }
        let start = self.cursor;
        let end = start.saturating_add(budget.max(1)).min(self.rows);
        let cell = &*self.cell;
        let highest = &self.highest_seq;
        let (epoch, epoch_at) = (self.epoch, self.epoch_at.as_nanos());
        let mut written = 0usize;
        if start < end {
            let rows = self.service.range_mut(cell.peer(start));
            for (mark, (i, (p, d))) in self.marks[start..end]
                .iter_mut()
                .zip((start..end).zip(rows))
            {
                if mark.written != epoch {
                    cell.write_row(i, d, highest.get(&p).copied(), now);
                    mark.written = epoch;
                    written += 1;
                }
                mark.visited_at = epoch_at;
            }
        }
        if end >= self.rows {
            self.cursor = 0;
            self.sweeping = false;
        } else {
            self.cursor = end;
        }
        // The row at the cursor holds the oldest visit: rows after it
        // were visited later in the previous pass, rows before it in
        // this one, and every write since only made a row fresher.
        let oldest = match self.marks.get(self.cursor) {
            Some(mark) if self.rows > 0 => Timestamp::from_nanos(mark.visited_at),
            _ => self.epoch_at,
        };
        cell.set_watermark(oldest);
        self.rows_written.sweep += written as u64;
        written
    }
}

/// A monitor for many peers: sharded intake, epoch-published reads.
///
/// Drive it by calling [`tick`](ShardedMonitor::tick) on whatever cadence
/// the deployment wants (the chaos harness calls it on virtual time).
/// Hand [`reader`](ShardedMonitor::reader) clones to every thread that
/// queries suspicion levels.
pub struct ShardedMonitor<T, C, D> {
    transport: T,
    clock: C,
    config: ShardConfig,
    shards: Vec<Shard<D>>,
    reader: SnapshotReader,
    /// Reusable zero-allocation intake arena.
    intake: FrameBatch,
    /// Per-shard dispatch batches, reused across ticks.
    batches: Vec<Vec<(Heartbeat, Timestamp)>>,
    /// Wire decoder holding the v2 intern table across ticks.
    decoder: WireDecoder,
    corrupt: u64,
    ticks: u64,
    liveness: Arc<AtomicU64>,
    batch_hist: Option<afd_obs::Histogram>,
    dispatch_hist: Option<afd_obs::Histogram>,
}

impl<T, C, D> fmt::Debug for ShardedMonitor<T, C, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedMonitor")
            .field("config", &self.config)
            .field("ticks", &self.ticks)
            .finish_non_exhaustive()
    }
}

impl<T, C, D> ShardedMonitor<T, C, D>
where
    T: Transport,
    C: Clock,
    D: AccrualFailureDetector,
{
    /// Creates a sharded monitor; `factory` is cloned once per shard and
    /// builds one detector per watched process (as in
    /// [`RuntimeMonitor::new`](crate::monitor::RuntimeMonitor::new)).
    pub fn new(
        transport: T,
        clock: C,
        config: ShardConfig,
        factory: impl FnMut(ProcessId) -> D + Send + Clone + 'static,
    ) -> Self {
        let config = ShardConfig {
            shards: config.shards.max(1),
            slots_per_shard: config.slots_per_shard.max(1),
        };
        let cells: Vec<Arc<ShardCell>> = (0..config.shards)
            .map(|_| Arc::new(ShardCell::new(config.slots_per_shard)))
            .collect();
        let shards = cells
            .iter()
            .map(|cell| {
                Shard::new(
                    Box::new(factory.clone()) as DetectorFactory<D>,
                    Arc::clone(cell),
                )
            })
            .collect();
        // lint:allow(no-alloc-in-hot-path, one-time construction; the batches are reused across every tick)
        let batches = (0..config.shards).map(|_| Vec::new()).collect();
        ShardedMonitor {
            transport,
            clock,
            config,
            shards,
            reader: SnapshotReader::from_cells(Arc::new(cells)),
            intake: FrameBatch::with_capacity(INTAKE_BATCH_SLOTS),
            batches,
            decoder: WireDecoder::new(),
            corrupt: 0,
            ticks: 0,
            liveness: Arc::new(AtomicU64::new(0)),
            batch_hist: None,
            dispatch_hist: None,
        }
    }

    /// The shard `process` routes to.
    pub fn shard_of(&self, process: ProcessId) -> usize {
        shard_index(process, self.shards.len())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Starts monitoring `process` (routed to its shard).
    ///
    /// Returns `Ok(true)` if newly watched, `Ok(false)` if already
    /// watched.
    ///
    /// # Errors
    ///
    /// Returns [`ShardCapacityError`] if the target shard's row table
    /// is full — published tables are fixed-size atomic arrays shared with
    /// readers and cannot grow.
    pub fn watch(&mut self, process: ProcessId) -> Result<bool, ShardCapacityError> {
        let idx = self.shard_of(process);
        let shard = &mut self.shards[idx];
        if !shard.service.is_watching(process) && shard.service.len() >= self.config.slots_per_shard
        {
            return Err(ShardCapacityError {
                shard: idx,
                capacity: self.config.slots_per_shard,
            });
        }
        Ok(shard.watch(process))
    }

    /// Stops monitoring `process`. As with
    /// [`RuntimeMonitor::unwatch`](crate::monitor::RuntimeMonitor::unwatch),
    /// the highest sequence number seen from it is retained so replays
    /// after a re-watch stay rejected. The published entry disappears at
    /// the next tick.
    pub fn unwatch(&mut self, process: ProcessId) -> Option<D> {
        let idx = self.shard_of(process);
        self.shards[idx].unwatch(process)
    }

    /// Drains the transport once, dispatches decoded heartbeats to their
    /// shards in batches, and publishes every row of every shard at one
    /// `now`.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if the transport itself failed; decode
    /// failures, duplicates, and stale frames are absorbed into
    /// [`ShardedStats`].
    pub fn tick(&mut self) -> Result<TickReport, TransportError> {
        // lint:allow(relaxed-atomics-audit, monotone liveness tick; the watchdog only needs eventual progress, no cross-thread ordering)
        self.liveness.fetch_add(1, Ordering::Relaxed);
        for batch in &mut self.batches {
            batch.clear();
        }
        let mut drained = 0usize;
        loop {
            self.intake.clear();
            let got = self.transport.recv_batch(&mut self.intake)?;
            drained += got;
            for frame in self.intake.iter() {
                match self.decoder.decode(frame) {
                    Ok(hb) => {
                        // Stamp per decoded frame (not per tick): one "now"
                        // for a whole drained backlog would collapse its
                        // inter-arrival samples to zero.
                        let now = self.clock.now();
                        let idx = shard_index(hb.sender, self.shards.len());
                        self.batches[idx].push((hb, now));
                    }
                    Err(_) => self.corrupt += 1,
                }
            }
            // A short batch means the transport is drained.
            if got < self.intake.capacity() {
                break;
            }
        }
        let mut accepted = 0usize;
        let mut max_batch = 0usize;
        let dispatch_start = self.clock.now();
        for (idx, batch) in self.batches.iter_mut().enumerate() {
            max_batch = max_batch.max(batch.len());
            if let Some(h) = &self.batch_hist {
                h.observe(batch.len() as f64);
            }
            let shard = &mut self.shards[idx];
            for (hb, at) in batch.drain(..) {
                if shard.accept(hb, at) {
                    accepted += 1;
                }
            }
        }
        let now = self.clock.now();
        for shard in &mut self.shards {
            shard.publish(now);
        }
        let dispatch = now.saturating_duration_since(dispatch_start);
        if let Some(h) = &self.dispatch_hist {
            h.observe(dispatch.as_nanos() as f64);
        }
        self.ticks += 1;
        Ok(TickReport {
            drained,
            accepted,
            max_batch,
            dispatch,
        })
    }

    /// The exact-`now` suspicion level of `process`, evaluated against
    /// its detector (not the published epoch). Requires `&mut self`; use
    /// a [`SnapshotReader`] for the lock-free path.
    pub fn level(&mut self, process: ProcessId) -> Option<SuspicionLevel> {
        let now = self.clock.now();
        let idx = self.shard_of(process);
        self.shards[idx].service.suspicion_level(process, now)
    }

    /// The exact-`now` accrual snapshot of every watched process across
    /// all shards, ascending by id.
    pub fn snapshot(&mut self) -> Vec<(ProcessId, SuspicionLevel)> {
        let now = self.clock.now();
        // lint:allow(no-alloc-in-hot-path, owned-snapshot API; callers on the query path, not the intake path)
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.extend(shard.service.snapshot(now));
        }
        out.sort_unstable_by_key(|&(p, _)| p);
        out
    }

    /// The exact-`now` snapshot of one shard, for balance inspection and
    /// the union property tests.
    pub fn shard_snapshot(&mut self, shard: usize) -> Vec<(ProcessId, SuspicionLevel)> {
        let now = self.clock.now();
        match self.shards.get_mut(shard) {
            Some(s) => s.service.snapshot(now),
            // lint:allow(no-alloc-in-hot-path, empty vec on the out-of-range query path)
            None => Vec::new(),
        }
    }

    /// A cloneable lock-free reader over the published row tables.
    pub fn reader(&self) -> SnapshotReader {
        self.reader.clone()
    }

    /// Publishes every row of every shard and dumps the tables as a
    /// new checkpoint generation through `ckpt`.
    ///
    /// This is the explicit Lockstep-style cadence; FreeRunning
    /// deployments hand [`reader`](ShardedMonitor::reader) to a
    /// [`CheckpointDaemon`](crate::persist::CheckpointDaemon) instead.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`](crate::persist::PersistError) if the sink
    /// fails.
    pub fn checkpoint<S: crate::persist::SegmentSink>(
        &mut self,
        ckpt: &mut crate::persist::Checkpointer<S>,
    ) -> Result<crate::persist::CheckpointReport, crate::persist::PersistError> {
        let now = self.clock.now();
        for shard in &mut self.shards {
            shard.publish(now);
        }
        ckpt.checkpoint(&self.reader, &self.clock)
    }

    /// Bulk-imports peers recovered by
    /// [`Checkpointer::restore`](crate::persist::Checkpointer::restore):
    /// re-watches each (routing by the *current* shard count, so the
    /// checkpoint survives a shard-count change across restarts), seeds
    /// its detector with the saved window moments, and re-arms replay
    /// rejection with the saved highest sequence number. Finishes by
    /// publishing every shard, so the first post-restore reader query
    /// already serves the restored levels at pre-crash quality.
    ///
    /// Peers whose target shard is full are dropped and counted in
    /// [`RestoreImport::capacity_rejected`](crate::persist::RestoreImport).
    pub fn restore(
        &mut self,
        peers: &[crate::persist::RestoredPeer],
    ) -> crate::persist::RestoreImport {
        let mut import = crate::persist::RestoreImport::default();
        for peer in peers {
            if self.watch(peer.process).is_err() {
                import.capacity_rejected += 1;
                continue;
            }
            import.watched += 1;
            let idx = self.shard_of(peer.process);
            if let Some(seq) = peer.highest_seq {
                self.shards[idx].highest_seq.insert(peer.process, seq);
            }
            if let Some(seed) = &peer.seed {
                if let Some(d) = self.shards[idx].service.detector_mut(peer.process) {
                    d.restore_seed(seed);
                    import.seeded += 1;
                }
            }
        }
        let now = self.clock.now();
        for shard in &mut self.shards {
            shard.publish(now);
        }
        import
    }

    /// Direct access to the detector for `process`.
    pub fn detector_mut(&mut self, process: ProcessId) -> Option<&mut D> {
        let idx = self.shard_of(process);
        self.shards[idx].service.detector_mut(process)
    }

    /// The transport the monitor drains.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The transport, mutably.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Aggregated and per-shard counters.
    pub fn stats(&self) -> ShardedStats {
        let mut totals = MonitorStats {
            corrupt: self.corrupt,
            ..MonitorStats::default()
        };
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut peers_per_shard = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            totals.accepted += shard.stats.accepted;
            totals.stale += shard.stats.stale;
            totals.duplicate += shard.stats.duplicate;
            totals.unwatched += shard.stats.unwatched;
            per_shard.push(shard.stats);
            peers_per_shard.push(shard.service.len());
        }
        ShardedStats {
            totals,
            per_shard,
            peers_per_shard,
            ticks: self.ticks,
        }
    }

    /// Binds per-tick histograms (`shard.batch_size`,
    /// `shard.dispatch_nanos`) so every subsequent
    /// [`tick`](ShardedMonitor::tick) records its intake batch sizes and
    /// dispatch latency into `registry`.
    pub fn bind_metrics(&mut self, registry: &afd_obs::Registry) {
        self.batch_hist = Some(registry.histogram(
            "shard.batch_size",
            &[1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0],
        ));
        self.dispatch_hist =
            Some(registry.histogram("shard.dispatch_nanos", &[1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9]));
    }

    /// Publishes the aggregate counters into `registry` under
    /// `sharded.*`, plus per-shard peer-count gauges
    /// (`shard.<i>.peers`).
    pub fn export_metrics(&self, registry: &afd_obs::Registry) {
        let stats = self.stats();
        registry
            .counter("sharded.accepted")
            .set(stats.totals.accepted);
        registry
            .counter("sharded.corrupt")
            .set(stats.totals.corrupt);
        registry.counter("sharded.stale").set(stats.totals.stale);
        registry
            .counter("sharded.duplicate")
            .set(stats.totals.duplicate);
        registry
            .counter("sharded.unwatched")
            .set(stats.totals.unwatched);
        registry.counter("sharded.ticks").set(stats.ticks);
        registry
            .gauge("sharded.shards")
            .set(self.shards.len() as f64);
        let total_peers: usize = stats.peers_per_shard.iter().sum();
        registry.gauge("sharded.peers").set(total_peers as f64);
        for (i, peers) in stats.peers_per_shard.iter().enumerate() {
            registry
                .gauge(&format!("shard.{i}.peers"))
                .set(*peers as f64);
        }
    }

    /// A handle to the liveness counter, bumped on every
    /// [`tick`](ShardedMonitor::tick); hand it to a
    /// [`Watchdog`](crate::supervisor::Watchdog).
    pub fn liveness(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.liveness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::transport::ChannelTransport;
    use afd_detectors::simple::SimpleAccrual;

    fn rig(
        config: ShardConfig,
    ) -> (
        ChannelTransport,
        ShardedMonitor<ChannelTransport, VirtualClock, SimpleAccrual>,
        VirtualClock,
    ) {
        let (tx, rx) = ChannelTransport::pair();
        let clock = VirtualClock::new();
        let mon = ShardedMonitor::new(rx, clock.clone(), config, |_| {
            SimpleAccrual::new(Timestamp::ZERO)
        });
        (tx, mon, clock)
    }

    fn frame(sender: u32, seq: u64) -> Vec<u8> {
        Heartbeat {
            sender: ProcessId::new(sender),
            seq,
            sent_at: Timestamp::from_secs(seq),
        }
        .encode()
        .to_vec()
    }

    #[test]
    fn heartbeats_reach_shard_detectors() {
        let (mut tx, mut mon, clock) = rig(ShardConfig::default());
        let p = ProcessId::new(1);
        mon.watch(p).unwrap();
        clock.set(Timestamp::from_secs(5));
        tx.send(&frame(1, 1)).unwrap();
        let report = mon.tick().unwrap();
        assert_eq!(report.drained, 1);
        assert_eq!(report.accepted, 1);
        clock.set(Timestamp::from_secs(8));
        assert_eq!(mon.level(p).unwrap().value(), 3.0);
    }

    #[test]
    fn peers_spread_across_shards() {
        let (_tx, mut mon, _clock) = rig(ShardConfig {
            shards: 8,
            slots_per_shard: 64,
        });
        for id in 0..256 {
            mon.watch(ProcessId::new(id)).unwrap();
        }
        let stats = mon.stats();
        assert_eq!(stats.peers_per_shard.iter().sum::<usize>(), 256);
        let max = stats.peers_per_shard.iter().max().copied().unwrap_or(0);
        let min = stats.peers_per_shard.iter().min().copied().unwrap_or(0);
        assert!(min > 0, "every shard should get some of 256 peers");
        assert!(max <= 64, "no shard should be wildly overloaded: {stats:?}");
    }

    #[test]
    fn capacity_overflow_is_a_typed_error() {
        let (_tx, mut mon, _clock) = rig(ShardConfig {
            shards: 1,
            slots_per_shard: 2,
        });
        mon.watch(ProcessId::new(1)).unwrap();
        mon.watch(ProcessId::new(2)).unwrap();
        // Re-watching an existing peer is fine even at capacity.
        assert_eq!(mon.watch(ProcessId::new(1)), Ok(false));
        let err = mon.watch(ProcessId::new(3)).unwrap_err();
        assert_eq!(
            err,
            ShardCapacityError {
                shard: 0,
                capacity: 2
            }
        );
        // Unwatching frees the slot.
        mon.unwatch(ProcessId::new(2));
        assert_eq!(mon.watch(ProcessId::new(3)), Ok(true));
    }

    #[test]
    fn reader_serves_published_levels_without_mut() {
        let (mut tx, mut mon, clock) = rig(ShardConfig {
            shards: 4,
            slots_per_shard: 16,
        });
        for id in 1..=8 {
            mon.watch(ProcessId::new(id)).unwrap();
        }
        clock.set(Timestamp::from_secs(10));
        for id in 1..=8 {
            tx.send(&frame(id, 1)).unwrap();
        }
        mon.tick().unwrap();
        clock.set(Timestamp::from_secs(14));
        mon.tick().unwrap(); // republish at t = 14

        let reader = mon.reader();
        assert_eq!(reader.published_at(), Timestamp::from_secs(14));
        // SimpleAccrual: level = elapsed since last heartbeat = 4 s.
        for id in 1..=8 {
            let lvl = reader.level(ProcessId::new(id)).unwrap();
            assert_eq!(lvl.value(), 4.0);
        }
        assert_eq!(reader.level(ProcessId::new(99)), None);
        let snap = reader.snapshot();
        assert_eq!(snap.len(), 8);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "ascending ids");
    }

    #[test]
    fn reader_lags_by_at_most_one_tick() {
        let (mut tx, mut mon, clock) = rig(ShardConfig {
            shards: 2,
            slots_per_shard: 4,
        });
        let p = ProcessId::new(7);
        mon.watch(p).unwrap();
        clock.set(Timestamp::from_secs(1));
        tx.send(&frame(7, 1)).unwrap();
        mon.tick().unwrap();
        let reader = mon.reader();
        let before = reader.level(p).unwrap();

        // A fresher heartbeat arrives but no tick has run: the reader
        // still serves the old epoch.
        clock.set(Timestamp::from_secs(2));
        tx.send(&frame(7, 2)).unwrap();
        assert_eq!(reader.level(p).unwrap(), before);

        mon.tick().unwrap();
        assert_eq!(reader.level(p).unwrap().value(), 0.0);
    }

    #[test]
    fn duplicate_and_stale_are_counted_per_shard_and_in_totals() {
        let (mut tx, mut mon, clock) = rig(ShardConfig {
            shards: 4,
            slots_per_shard: 8,
        });
        let p = ProcessId::new(3);
        mon.watch(p).unwrap();
        clock.set(Timestamp::from_secs(1));
        tx.send(&frame(3, 5)).unwrap();
        tx.send(&frame(3, 5)).unwrap(); // duplicate
        tx.send(&frame(3, 4)).unwrap(); // stale
        tx.send(&frame(3, 6)).unwrap(); // fresh
        tx.send(b"garbage").unwrap(); // corrupt
        let report = mon.tick().unwrap();
        assert_eq!(report.drained, 5);
        assert_eq!(report.accepted, 2);
        let stats = mon.stats();
        assert_eq!(stats.totals.accepted, 2);
        assert_eq!(stats.totals.duplicate, 1);
        assert_eq!(stats.totals.stale, 1);
        assert_eq!(stats.totals.corrupt, 1);
        let idx = mon.shard_of(p);
        assert_eq!(stats.per_shard[idx].accepted, 2);
        assert_eq!(stats.per_shard[idx].corrupt, 0, "corrupt is pre-shard");
    }

    #[test]
    fn concurrent_readers_never_observe_torn_snapshots() {
        let (mut tx, mut mon, clock) = rig(ShardConfig {
            shards: 2,
            slots_per_shard: 32,
        });
        let peers: Vec<u32> = (1..=16).collect();
        for &id in &peers {
            mon.watch(ProcessId::new(id)).unwrap();
        }
        let reader = mon.reader();
        let done = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reader = reader.clone();
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    for _ in 0..300 {
                        let snap = reader.snapshot();
                        // Published tables are always a full, id-sorted
                        // epoch: never a partial write.
                        assert!(snap.len() <= 16);
                        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
                        for (_, lvl) in &snap {
                            assert!(lvl.value().is_finite());
                        }
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();

        // Keep publishing until every reader has finished its reads, so
        // the readers genuinely race ongoing publishes.
        let mut round = 0u64;
        while done.load(Ordering::SeqCst) < 4 {
            round += 1;
            clock.set(Timestamp::from_secs(round));
            for &id in &peers {
                tx.send(&frame(id, round)).unwrap();
            }
            mon.tick().unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mon.stats().totals.accepted, 16 * round);
    }

    #[test]
    fn export_metrics_covers_totals_and_shards() {
        let (mut tx, mut mon, clock) = rig(ShardConfig {
            shards: 2,
            slots_per_shard: 8,
        });
        let registry = afd_obs::Registry::new();
        mon.bind_metrics(&registry);
        mon.watch(ProcessId::new(1)).unwrap();
        clock.set(Timestamp::from_secs(1));
        tx.send(&frame(1, 1)).unwrap();
        mon.tick().unwrap();
        mon.export_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sharded.accepted"), Some(1));
        assert_eq!(snap.counter("sharded.ticks"), Some(1));
        assert_eq!(snap.gauge("sharded.peers"), Some(1.0));
        assert_eq!(snap.gauge("sharded.shards"), Some(2.0));
        let per_shard: f64 = (0..2)
            .map(|i| snap.gauge(&format!("shard.{i}.peers")).unwrap_or(0.0))
            .sum();
        assert_eq!(per_shard, 1.0);
    }

    #[test]
    fn tick_bumps_liveness_for_the_watchdog() {
        let (_tx, mut mon, _clock) = rig(ShardConfig::default());
        let liveness = mon.liveness();
        assert_eq!(liveness.load(Ordering::Relaxed), 0);
        mon.tick().unwrap();
        mon.tick().unwrap();
        assert_eq!(liveness.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn disconnected_transport_surfaces_typed_error() {
        let (tx, mut mon, _clock) = rig(ShardConfig::default());
        drop(tx);
        assert_eq!(mon.tick(), Err(TransportError::Disconnected));
    }

    #[test]
    fn published_at_reads_only_the_watermark_words() {
        let (_tx, mut mon, clock) = rig(ShardConfig {
            shards: 3,
            slots_per_shard: 8,
        });
        for id in 1..=9 {
            mon.watch(ProcessId::new(id)).unwrap();
        }
        clock.set(Timestamp::from_secs(5));
        mon.tick().unwrap();
        let reader = mon.reader();
        // Hold every shard's membership seqlock odd, as a writer stalled
        // mid-rewrite would: a reader that touched the tables would spin
        // here forever, while the watermark stays one load per shard.
        let held: Vec<u64> = reader.cells.iter().map(|c| c.begin_layout()).collect();
        assert_eq!(reader.published_at(), Timestamp::from_secs(5));
        for (cell, s) in reader.cells.iter().zip(held) {
            let len = cell.len.load(Ordering::Relaxed);
            cell.end_layout(s, len);
        }
        assert_eq!(reader.snapshot().len(), 9);
    }

    /// A detector whose level is the nanoseconds since its last heartbeat
    /// (or since zero), so a published row names its own evaluation
    /// time exactly: last heartbeat (from the durable words) + level.
    #[derive(Default)]
    struct NanosSinceHeartbeat {
        last: Option<Timestamp>,
        seen: u64,
    }

    impl AccrualFailureDetector for NanosSinceHeartbeat {
        fn record_heartbeat(&mut self, arrival: Timestamp) {
            self.last = Some(arrival);
            self.seen += 1;
        }

        fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
            let since = self.last.unwrap_or(Timestamp::ZERO);
            SuspicionLevel::clamped(now.saturating_duration_since(since).as_nanos() as f64)
        }

        fn save_seed(&self) -> Option<DetectorSeed> {
            Some(DetectorSeed {
                last_heartbeat: self.last,
                samples: 0,
                mean: 0.0,
                population_variance: 0.0,
                heartbeats_seen: self.seen,
            })
        }
    }

    /// Accruement and Upper Bound through the reader while the refresh
    /// sweep covers the table only part-way per step: every row shows its
    /// detector's level at that row's own write time, write times never
    /// go backwards, a level falls only after an accepted heartbeat, and
    /// `published_at()` never claims more freshness than any row has.
    #[test]
    fn partial_sweep_keeps_accruement_and_upper_bound_through_the_reader() {
        const PEERS: u32 = 7;
        const BUDGET: usize = 3;
        let cell = Arc::new(ShardCell::new(8));
        let factory: DetectorFactory<NanosSinceHeartbeat> =
            Box::new(|_| NanosSinceHeartbeat::default());
        let mut shard = Shard::new(factory, Arc::clone(&cell));
        let reader = SnapshotReader::from_cells(Arc::new(vec![cell]));
        for id in 0..PEERS {
            shard.watch(ProcessId::new(id));
        }
        // The model: heartbeats accepted per peer, and, per publish-call
        // time, how many each peer had accepted by then.
        let mut accepted = [0u64; PEERS as usize];
        let mut calls: BTreeMap<u64, [u64; PEERS as usize]> = BTreeMap::new();
        let mut last_write = [0u64; PEERS as usize];
        let mut last_seen = [(0.0f64, 0u64); PEERS as usize];
        let mut partial_views = 0usize;
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };

        let mut t = 1_000u64;
        shard.publish(Timestamp::from_nanos(t));
        calls.insert(t, accepted);
        let mut durable = Vec::with_capacity(8);
        for step in 0..40u64 {
            t += 1_000 + step * 7;
            for id in 0..PEERS {
                if next() % 5 == 0 {
                    let hb = Heartbeat {
                        sender: ProcessId::new(id),
                        seq: accepted[id as usize] + 1,
                        sent_at: Timestamp::ZERO,
                    };
                    assert!(shard.accept(hb, Timestamp::from_nanos(t)));
                    accepted[id as usize] += 1;
                }
            }
            // An epoch starts every other step; sweep steps run between.
            if step % 2 == 0 {
                t += 10;
                shard.flush(Timestamp::from_nanos(t));
                calls.insert(t, accepted);
            }
            t += 10;
            shard.sweep(Timestamp::from_nanos(t), BUDGET);
            calls.insert(t, accepted);

            let levels = reader.snapshot();
            reader.durable_shard(0, &mut durable).unwrap();
            let watermark = reader.published_at().as_nanos();
            assert_eq!(levels.len(), PEERS as usize);
            let mut writes = Vec::with_capacity(PEERS as usize);
            for ((p, level), (q, d)) in levels.iter().zip(&durable) {
                assert_eq!(p, q);
                let i = p.index();
                let written = d.last_hb_nanos + level.value() as u64;
                writes.push(written);
                let Some(model) = calls.get(&written) else {
                    panic!("{p}: level {} names no publish call", level.value());
                };
                // The row is its detector as of the write: exactly the
                // heartbeats accepted before that call.
                assert_eq!(d.heartbeats_seen, model[i], "{p} at {written}");
                assert!(written >= last_write[i], "{p}: evaluation went back");
                let (prev_level, prev_seen) = last_seen[i];
                assert!(
                    level.value() >= prev_level || d.heartbeats_seen > prev_seen,
                    "{p}: level fell with no heartbeat"
                );
                assert!(watermark <= written, "{p}: watermark past a row");
                last_write[i] = written;
                last_seen[i] = (level.value(), d.heartbeats_seen);
            }
            if writes.iter().any(|&w| w != t) {
                partial_views += 1;
            }
        }
        assert!(partial_views > 10, "the sweep never left rows behind");
        assert!(shard.rows_written.dirty > 0, "no dirty flush wrote a row");
    }

    #[test]
    fn dirty_flush_publishes_accepted_rows_before_the_sweep() {
        let cell = Arc::new(ShardCell::new(4));
        let factory: DetectorFactory<NanosSinceHeartbeat> =
            Box::new(|_| NanosSinceHeartbeat::default());
        let mut shard = Shard::new(factory, Arc::clone(&cell));
        let reader = SnapshotReader::from_cells(Arc::new(vec![cell]));
        for id in 0..4 {
            shard.watch(ProcessId::new(id));
        }
        shard.publish(Timestamp::from_nanos(100));
        let hb = Heartbeat {
            sender: ProcessId::new(2),
            seq: 1,
            sent_at: Timestamp::ZERO,
        };
        assert!(shard.accept(hb, Timestamp::from_nanos(150)));
        shard.flush(Timestamp::from_nanos(200));
        // The flush wrote only the accepted row; the rest wait for the
        // sweep, and the watermark still covers them.
        assert_eq!(reader.level(ProcessId::new(2)).unwrap().value(), 50.0);
        assert_eq!(reader.level(ProcessId::new(1)).unwrap().value(), 100.0);
        assert_eq!(reader.published_at(), Timestamp::from_nanos(100));
        assert!(shard.sweeping());
        assert_eq!(shard.sweep(Timestamp::from_nanos(300), 2), 2);
        assert_eq!(reader.published_at(), Timestamp::from_nanos(100));
        // Row 2 was written in this epoch, so the sweep skips it.
        assert_eq!(shard.sweep(Timestamp::from_nanos(400), 2), 1);
        assert!(!shard.sweeping());
        assert_eq!(reader.level(ProcessId::new(2)).unwrap().value(), 50.0);
        assert_eq!(reader.level(ProcessId::new(3)).unwrap().value(), 400.0);
        assert_eq!(reader.published_at(), Timestamp::from_nanos(200));
        let rows = shard.rows_written;
        assert_eq!((rows.epochs, rows.dirty, rows.sweep), (2, 1, 4 + 3));
    }

    #[test]
    fn zero_shard_config_is_floored_to_one() {
        let (_tx, mut mon, _clock) = rig(ShardConfig {
            shards: 0,
            slots_per_shard: 0,
        });
        assert_eq!(mon.shard_count(), 1);
        mon.watch(ProcessId::new(1)).unwrap();
        assert!(mon.watch(ProcessId::new(2)).is_err(), "slots floored to 1");
    }
}
