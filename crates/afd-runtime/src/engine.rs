//! The parallel shard-worker pipeline.
//!
//! [`ShardedMonitor`](crate::shard::ShardedMonitor) partitions peers
//! across shards but still advances every shard on one thread, so its
//! throughput ceiling is a single core. [`ParallelShardEngine`] lifts
//! that ceiling with a fixed topology:
//!
//! ```text
//!   transport ──► intake thread ──► SPSC ring ──► worker 0 ──► ShardCell 0
//!     (recv_batch,  decode + route)  SPSC ring ──► worker 1 ──► ShardCell 1
//!      zero alloc)                       …             …            …
//!                                                            SnapshotReader
//! ```
//!
//! One intake thread drains the transport through a reusable
//! [`FrameBatch`] arena (zero heap allocations per frame), decodes each
//! frame, stamps the *batch's* arrival once (clock reads are amortized
//! across the batch; the stamp skew a frame can see is bounded by its
//! own batch's decode time — see DESIGN.md §7j), groups the decoded
//! heartbeats by destination shard, and publishes each group into a
//! bounded SPSC [`heartbeat_ring`](crate::ring::heartbeat_ring) with a
//! single batched seqlock advance
//! ([`push_batch`](crate::ring::RingProducer::push_batch)). One worker thread
//! per shard owns that shard's `MonitoringService` — the *same*
//! [`Shard`](crate::shard) accept/publish code the single-threaded
//! monitor runs — and publishes into the same in-place row tables, so
//! [`SnapshotReader`] works unchanged against a parallel engine. A
//! free-running worker publishes each epoch's accepted rows first and
//! refreshes silent rows in bounded sweep steps between ring drains (see
//! [`shard`](crate::shard)), so fresh evidence is visible about one epoch
//! after it is accepted however large the table.
//!
//! # Backpressure is loss
//!
//! A full ring evicts its oldest entry (counted, exported via
//! [`export_metrics`](ParallelShardEngine::export_metrics)) instead of
//! blocking intake. The paper's detectors are *defined* over lossy
//! channels: a frame dropped at a full ring is indistinguishable from
//! one dropped by UDP, and dropping the oldest keeps the freshest
//! evidence, which is exactly what an accrual detector wants.
//!
//! # Lockstep mode
//!
//! [`EngineMode::Lockstep`] trades the intake thread for explicit
//! [`tick`](ParallelShardEngine::tick) calls: the driver drains the
//! transport, routes frames into the rings, and releases all workers for
//! exactly one barrier-synchronized epoch. With a frozen
//! [`VirtualClock`](crate::clock::VirtualClock) per tick this reproduces
//! the single-threaded [`ShardedMonitor`] frame-for-frame — the
//! equivalence proptest in `tests/engine.rs` holds it to that — while
//! still exercising the real worker threads and rings.
//!
//! # Supervision
//!
//! Worker panics are detected by drop guards that poison the tick
//! barrier (lockstep) or raise per-worker flags (free-running); both
//! surface as [`EngineError::WorkerPanicked`]. Every thread bumps a
//! liveness counter that [`register_health`](ParallelShardEngine::register_health)
//! wires into a [`HealthBoard`](crate::supervisor::HealthBoard), and
//! [`shutdown`](ParallelShardEngine::shutdown) (or drop) joins every
//! thread.
//!
//! # Multi-lane intake
//!
//! [`start_lanes`](ParallelShardEngine::start_lanes) replaces the single
//! intake thread with one per transport *lane* (typically the sockets of
//! a [`MultiUdpTransport`](crate::lane::MultiUdpTransport)):
//!
//! ```text
//!   lane 0 ──► intake 0 ──┐ L×W SPSC rings ┌──► worker 0 ──► ShardCell 0
//!   lane 1 ──► intake 1 ──┤ (one per       ├──► worker 1 ──► ShardCell 1
//!     …           …       │  lane×worker   │       …             …
//!   lane L ──► intake L ──┘  pair)         └──► worker W ──► ShardCell W
//! ```
//!
//! Each lane×worker pair gets its own ring, preserving the rings'
//! single-producer/single-consumer invariant without any cross-lane
//! locking; workers round-robin their per-lane consumers. Lane intakes
//! decode through a per-lane [`WireDecoder`], so v1 and compact v2
//! delta frames mix freely on every socket, and publish per-lane frame
//! counters plus per-stage wall-clock profiles (decode vs route, with
//! workers timing detector update) exported via
//! [`export_metrics`](ParallelShardEngine::export_metrics) — the
//! numbers that find the real bottleneck on a multi-core host.

use std::fmt;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use afd_core::accrual::AccrualFailureDetector;
use afd_core::process::ProcessId;
use afd_core::time::{Duration, Timestamp};

use crate::clock::Clock;
use crate::error::{EngineError, TransportError};
use crate::monitor::MonitorStats;
use crate::ring::{heartbeat_ring, RingConsumer, RingProducer, RingWatch};
use crate::shard::{shard_index, DetectorFactory, Shard, ShardCapacityError, ShardCell};
use crate::shard::{PublishRows, SnapshotReader, INTAKE_BATCH_SLOTS, SWEEP_CHUNK};
use crate::supervisor::HealthBoard;
use crate::transport::{FrameBatch, Transport};
use crate::wire::{Heartbeat, WireDecoder, FRAME_LEN};

/// Frames a free-running worker drains from its ring per loop iteration
/// before re-checking stop/publish, so one flooded ring cannot starve
/// the publish cadence.
const WORKER_DRAIN_CAP: usize = 1024;

/// Tables up to this many rows are published whole at each free-running
/// epoch instead of flushed and swept: a whole pass costs under half a
/// millisecond of φ evaluation, and splitting it would rewrite most level
/// cache lines twice per epoch (once by the flush, once by the sweep),
/// which measured a 16% slower median point read on a 1 100-row table.
const WHOLE_TABLE_ROWS: usize = 8 * SWEEP_CHUNK;

/// Sizing and cadence for a [`ParallelShardEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads — one per shard (floored at 1).
    pub workers: usize,
    /// Maximum watched processes per shard (row tables are
    /// fixed-size, as in [`ShardConfig`](crate::shard::ShardConfig)).
    pub slots_per_shard: usize,
    /// Slots per intake→worker ring (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Slots in the intake thread's reusable [`FrameBatch`] arena.
    pub batch_slots: usize,
    /// How often a free-running worker begins a publish epoch (flushing
    /// the rows accepted since the last one), on the engine clock's
    /// timeline. Zero begins one every loop.
    pub publish_every: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            slots_per_shard: 4096,
            ring_capacity: 1024,
            batch_slots: INTAKE_BATCH_SLOTS,
            publish_every: Duration::from_millis(1),
        }
    }
}

/// How the engine's threads are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// No intake thread; the caller drives barrier-synchronized epochs
    /// with [`tick`](ParallelShardEngine::tick). Deterministic under a
    /// virtual clock — equivalent to `ShardedMonitor` frame-for-frame.
    Lockstep,
    /// A dedicated intake thread drains the transport continuously and
    /// workers run unsynchronized — the production topology.
    FreeRunning,
}

/// What one lockstep [`tick`](ParallelShardEngine::tick) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineTickReport {
    /// Frames drained from the transport (including corrupt ones).
    pub drained: usize,
    /// Heartbeats accepted into detectors this epoch.
    pub accepted: u64,
}

/// Cumulative per-stage wall-clock nanoseconds, measured on the engine
/// clock by the lane intake threads (decode, route) and the workers
/// (detector update, publish). Decode and route are zero outside
/// multi-lane runs; update and publish are timed in every mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageNanos {
    /// Wire decode, summed across lane intakes.
    pub decode: u64,
    /// Stamp + hash-route into the rings, summed across lane intakes.
    pub route: u64,
    /// Ring drain + detector update, summed across workers.
    pub update: u64,
    /// Publishing into the row tables (dirty flushes, refresh-sweep
    /// steps and full publishes), summed across workers.
    pub publish: u64,
}

/// Aggregated counters for a [`ParallelShardEngine`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Counters summed across workers; `corrupt` counts frames that
    /// failed decoding on the intake side.
    pub totals: MonitorStats,
    /// Per-worker intake counters (each worker's `corrupt` is always 0).
    pub per_worker: Vec<MonitorStats>,
    /// Watched processes per shard, for balance inspection.
    pub peers_per_shard: Vec<usize>,
    /// Frames evicted by drop-oldest ring backpressure, cumulative
    /// across engine runs.
    pub ring_dropped: u64,
    /// Frames the intake path pulled off the transport (all lanes).
    pub intake_frames: u64,
    /// Lockstep epochs executed so far.
    pub ticks: u64,
    /// Frames each lane intake decoded, lane-indexed (empty outside
    /// multi-lane runs).
    pub per_lane_frames: Vec<u64>,
    /// Frames each lane intake rejected at decode, lane-indexed.
    pub per_lane_corrupt: Vec<u64>,
    /// Per-stage wall-clock profile of the pipeline.
    pub stage: StageNanos,
}

/// Counters the intake path (thread or lockstep driver) publishes.
/// Single-writer: exactly one intake exists per engine run.
/// `liveness` is its own `Arc` so a [`HealthBoard`] can track it.
#[derive(Default)]
struct IntakeShared {
    liveness: Arc<AtomicU64>,
    frames: AtomicU64,
    corrupt: AtomicU64,
    panicked: AtomicBool,
    fault: Mutex<Option<TransportError>>,
}

impl IntakeShared {
    /// Single-writer add: a plain load+store pair is exact because only
    /// the intake side writes this counter.
    fn add(counter: &AtomicU64, n: u64) {
        counter.store(
            counter.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }
}

/// Counters one lane's intake thread publishes, on top of the shared
/// intake fields. Single-writer: one thread per lane.
#[derive(Default)]
struct LaneShared {
    intake: IntakeShared,
    /// Wall-clock nanos spent decoding frames, on the engine clock.
    decode_nanos: AtomicU64,
    /// Wall-clock nanos spent stamping + routing into rings.
    route_nanos: AtomicU64,
}

/// Counters one worker publishes. Single-writer per worker.
#[derive(Default)]
struct WorkerShared {
    liveness: Arc<AtomicU64>,
    accepted: AtomicU64,
    stale: AtomicU64,
    duplicate: AtomicU64,
    unwatched: AtomicU64,
    loops: AtomicU64,
    busy_loops: AtomicU64,
    /// Wall-clock nanos spent draining rings into detectors, on the
    /// engine clock.
    update_nanos: AtomicU64,
    /// Wall-clock nanos spent publishing, on the engine clock.
    publish_nanos: AtomicU64,
    publish_epochs: AtomicU64,
    publish_dirty: AtomicU64,
    publish_sweep: AtomicU64,
    panicked: AtomicBool,
}

impl WorkerShared {
    fn store_stats(&self, stats: &MonitorStats) {
        self.accepted.store(stats.accepted, Ordering::Relaxed);
        self.stale.store(stats.stale, Ordering::Relaxed);
        self.duplicate.store(stats.duplicate, Ordering::Relaxed);
        self.unwatched.store(stats.unwatched, Ordering::Relaxed);
    }

    fn store_publish(&self, rows: &PublishRows) {
        self.publish_epochs.store(rows.epochs, Ordering::Relaxed);
        self.publish_dirty.store(rows.dirty, Ordering::Relaxed);
        self.publish_sweep.store(rows.sweep, Ordering::Relaxed);
    }

    fn load_publish(&self) -> PublishRows {
        PublishRows {
            epochs: self.publish_epochs.load(Ordering::Relaxed),
            dirty: self.publish_dirty.load(Ordering::Relaxed),
            sweep: self.publish_sweep.load(Ordering::Relaxed),
        }
    }

    fn load_stats(&self) -> MonitorStats {
        MonitorStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            corrupt: 0,
            stale: self.stale.load(Ordering::Relaxed),
            duplicate: self.duplicate.load(Ordering::Relaxed),
            unwatched: self.unwatched.load(Ordering::Relaxed),
        }
    }
}

/// The lockstep tick barrier: the driver announces an epoch (with its
/// publish timestamp), parked workers run exactly one drain+publish, and
/// the driver waits for all of them. A worker panic poisons the barrier.
struct PhaseState {
    epoch: u64,
    publish_at: u64,
    running: usize,
    stop: bool,
    poisoned: Option<usize>,
}

struct PhaseBarrier {
    state: Mutex<PhaseState>,
    begin_cv: Condvar,
    done_cv: Condvar,
}

enum WorkerSignal {
    Run { epoch: u64, publish_at: Timestamp },
    Stop,
}

impl PhaseBarrier {
    fn new() -> Arc<Self> {
        Arc::new(PhaseBarrier {
            state: Mutex::new(PhaseState {
                epoch: 0,
                publish_at: 0,
                running: 0,
                stop: false,
                poisoned: None,
            }),
            begin_cv: Condvar::new(),
            done_cv: Condvar::new(),
        })
    }

    /// Locks the state, recovering from mutex poisoning: the state is
    /// plain counters, valid regardless of where a panicking thread
    /// stopped, and worker panics are reported through `poisoned`.
    fn lock(&self) -> MutexGuard<'_, PhaseState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn begin(&self, workers: usize, publish_at: Timestamp) {
        let mut s = self.lock();
        s.epoch = s.epoch.wrapping_add(1);
        s.publish_at = publish_at.as_nanos();
        s.running = workers;
        drop(s);
        self.begin_cv.notify_all();
    }

    fn wait_done(&self) -> Result<(), EngineError> {
        let mut s = self.lock();
        loop {
            if let Some(worker) = s.poisoned {
                return Err(EngineError::WorkerPanicked { worker });
            }
            if s.running == 0 {
                return Ok(());
            }
            s = match self.done_cv.wait(s) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    fn wait_begin(&self, last_epoch: u64) -> WorkerSignal {
        let mut s = self.lock();
        loop {
            if s.stop {
                return WorkerSignal::Stop;
            }
            if s.epoch != last_epoch {
                return WorkerSignal::Run {
                    epoch: s.epoch,
                    publish_at: Timestamp::from_nanos(s.publish_at),
                };
            }
            s = match self.begin_cv.wait(s) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    fn done(&self) {
        let mut s = self.lock();
        s.running = s.running.saturating_sub(1);
        let finished = s.running == 0;
        drop(s);
        if finished {
            self.done_cv.notify_all();
        }
    }

    fn stop(&self) {
        let mut s = self.lock();
        s.stop = true;
        drop(s);
        self.begin_cv.notify_all();
    }

    fn poison(&self, worker: usize) {
        let mut s = self.lock();
        s.poisoned = Some(worker);
        s.running = s.running.saturating_sub(1);
        drop(s);
        self.done_cv.notify_all();
    }
}

/// Poisons the barrier and raises the worker's panic flag if the worker
/// unwinds; a clean exit drops this without effect.
struct WorkerPanicGuard {
    worker: usize,
    barrier: Option<Arc<PhaseBarrier>>,
    shared: Arc<WorkerShared>,
}

impl Drop for WorkerPanicGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.panicked.store(true, Ordering::Release);
            if let Some(barrier) = &self.barrier {
                barrier.poison(self.worker);
            }
        }
    }
}

/// Raises the intake panic flag if the intake thread unwinds.
struct IntakePanicGuard {
    shared: Arc<IntakeShared>,
}

impl Drop for IntakePanicGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.panicked.store(true, Ordering::Release);
        }
    }
}

/// Raises a lane intake's panic flag if its thread unwinds.
struct LanePanicGuard {
    shared: Arc<LaneShared>,
}

impl Drop for LanePanicGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.intake.panicked.store(true, Ordering::Release);
        }
    }
}

/// One running worker thread plus its observers (one ring watch per
/// feeding intake — a single entry except in multi-lane runs).
struct WorkerHandle<D> {
    handle: JoinHandle<Shard<D>>,
    watches: Vec<RingWatch>,
}

impl<D> WorkerHandle<D> {
    fn ring_depth(&self) -> usize {
        self.watches.iter().map(RingWatch::len).sum()
    }

    fn ring_dropped(&self) -> u64 {
        self.watches.iter().map(RingWatch::dropped).sum()
    }
}

enum EngineState<T, D> {
    /// Threads down; shards owned inline. `watch`/`unwatch` live here.
    Idle { transport: T, shards: Vec<Shard<D>> },
    /// Lockstep: driver owns the transport, rings, and tick barrier.
    Lockstep {
        transport: T,
        batch: FrameBatch,
        /// Per-destination scratch, one bucket per worker ring, reused
        /// across ticks so grouping never allocates in steady state.
        groups: Vec<Vec<Heartbeat>>,
        producers: Vec<RingProducer>,
        barrier: Arc<PhaseBarrier>,
        workers: Vec<WorkerHandle<D>>,
    },
    /// Free-running: intake thread owns the transport (returned on join).
    Free {
        intake: JoinHandle<T>,
        stop: Arc<AtomicBool>,
        workers: Vec<WorkerHandle<D>>,
    },
    /// Multi-lane free-running: one intake thread per lane owns its lane
    /// transport; the engine's own transport `T` sits parked (its intake
    /// loop never runs — heartbeats arrive on the lanes).
    FreeLanes {
        transport: T,
        intakes: Vec<JoinHandle<Box<dyn Transport>>>,
        stop: Arc<AtomicBool>,
        workers: Vec<WorkerHandle<D>>,
    },
    /// A worker panicked and its shard state is gone; terminal.
    Failed { worker: usize },
}

/// A multi-core monitor: batched zero-allocation intake, SPSC rings, one
/// worker thread per shard, lock-free epoch-snapshot reads.
///
/// Build it stopped, [`watch`](ParallelShardEngine::watch) the peer set,
/// then [`start`](ParallelShardEngine::start) in either mode. Readers
/// obtained from [`reader`](ParallelShardEngine::reader) stay valid
/// across start/shutdown cycles.
pub struct ParallelShardEngine<T, C, D> {
    clock: C,
    config: EngineConfig,
    cells: Arc<Vec<Arc<ShardCell>>>,
    state: EngineState<T, D>,
    intake_shared: Arc<IntakeShared>,
    /// One entry per lane while (and after) a multi-lane run; reset by
    /// the next [`start_lanes`](Self::start_lanes).
    lane_shared: Vec<Arc<LaneShared>>,
    worker_shared: Vec<Arc<WorkerShared>>,
    peers_per_shard: Vec<usize>,
    /// Ring drops accumulated from finished runs (live rings are read
    /// through their watches).
    ring_dropped_past: u64,
    ticks: u64,
}

impl<T, C, D> fmt::Debug for ParallelShardEngine<T, C, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match &self.state {
            EngineState::Idle { .. } => "idle",
            EngineState::Lockstep { .. } => "lockstep",
            EngineState::Free { .. } => "free-running",
            EngineState::FreeLanes { .. } => "free-lanes",
            EngineState::Failed { .. } => "failed",
        };
        f.debug_struct("ParallelShardEngine")
            .field("config", &self.config)
            .field("state", &state)
            .finish_non_exhaustive()
    }
}

impl<T, C, D> ParallelShardEngine<T, C, D>
where
    T: Transport + Send + 'static,
    C: Clock + Clone + Send + 'static,
    D: AccrualFailureDetector + Send + 'static,
{
    /// Creates a stopped engine; `factory` is cloned once per shard and
    /// builds one detector per watched process.
    pub fn new(
        transport: T,
        clock: C,
        config: EngineConfig,
        factory: impl FnMut(ProcessId) -> D + Send + Clone + 'static,
    ) -> Self {
        let config = EngineConfig {
            workers: config.workers.max(1),
            slots_per_shard: config.slots_per_shard.max(1),
            ring_capacity: config.ring_capacity.max(2),
            batch_slots: config.batch_slots.max(1),
            publish_every: config.publish_every,
        };
        let cells: Vec<Arc<ShardCell>> = (0..config.workers)
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
        let worker_shared = (0..config.workers)
            .map(|_| Arc::new(WorkerShared::default()))
            .collect();
        ParallelShardEngine {
            clock,
            config,
            cells: Arc::new(cells),
            state: EngineState::Idle { transport, shards },
            intake_shared: Arc::new(IntakeShared::default()),
            // lint:allow(no-alloc-in-hot-path, one-time construction)
            lane_shared: Vec::new(),
            worker_shared,
            // lint:allow(no-alloc-in-hot-path, one-time construction)
            peers_per_shard: vec![0; config.workers],
            ring_dropped_past: 0,
            ticks: 0,
        }
    }

    /// Number of shards (= worker threads when running).
    pub fn shard_count(&self) -> usize {
        self.config.workers
    }

    /// The shard `process` routes to.
    pub fn shard_of(&self, process: ProcessId) -> usize {
        shard_index(process, self.config.workers)
    }

    /// Starts monitoring `process`. Only valid while stopped — the watch
    /// set is distributed to worker threads at [`start`](Self::start).
    ///
    /// # Errors
    ///
    /// [`EngineError::Running`] if workers are up,
    /// [`EngineError::WorkerPanicked`] if the engine already failed, and
    /// [`EngineError::Capacity`] if the target shard is full.
    pub fn watch(&mut self, process: ProcessId) -> Result<bool, EngineError> {
        let idx = shard_index(process, self.config.workers);
        let shard = match &mut self.state {
            EngineState::Idle { shards, .. } => &mut shards[idx],
            EngineState::Failed { worker } => {
                return Err(EngineError::WorkerPanicked { worker: *worker })
            }
            _ => return Err(EngineError::Running),
        };
        if !shard.service.is_watching(process) && shard.service.len() >= self.config.slots_per_shard
        {
            return Err(EngineError::Capacity(ShardCapacityError {
                shard: idx,
                capacity: self.config.slots_per_shard,
            }));
        }
        let newly = shard.watch(process);
        if newly {
            self.peers_per_shard[idx] += 1;
        }
        Ok(newly)
    }

    /// Stops monitoring `process`. Only valid while stopped.
    ///
    /// # Errors
    ///
    /// [`EngineError::Running`] if workers are up.
    pub fn unwatch(&mut self, process: ProcessId) -> Result<Option<D>, EngineError> {
        let idx = shard_index(process, self.config.workers);
        match &mut self.state {
            EngineState::Idle { shards, .. } => {
                let gone = shards[idx].unwatch(process);
                if gone.is_some() {
                    self.peers_per_shard[idx] = self.peers_per_shard[idx].saturating_sub(1);
                }
                Ok(gone)
            }
            EngineState::Failed { worker } => Err(EngineError::WorkerPanicked { worker: *worker }),
            _ => Err(EngineError::Running),
        }
    }

    /// Dumps the currently published row tables as a new checkpoint
    /// generation through `ckpt`.
    ///
    /// Valid in **any** state: the dump reads only the published row
    /// tables, never worker-owned detector state, so in
    /// [`EngineMode::FreeRunning`] it runs concurrently with intake and
    /// workers (a [`CheckpointDaemon`](crate::persist::CheckpointDaemon)
    /// over [`reader`](Self::reader) gives the periodic cadence), and in
    /// [`EngineMode::Lockstep`] it is called explicitly between
    /// [`tick`](Self::tick)s.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`](crate::persist::PersistError) if the sink
    /// fails.
    pub fn checkpoint<S: crate::persist::SegmentSink>(
        &self,
        ckpt: &mut crate::persist::Checkpointer<S>,
    ) -> Result<crate::persist::CheckpointReport, crate::persist::PersistError> {
        ckpt.checkpoint(&self.reader(), &self.clock)
    }

    /// Bulk-imports peers recovered by
    /// [`Checkpointer::restore`](crate::persist::Checkpointer::restore):
    /// re-watches each, seeds its detector with the saved window moments,
    /// re-arms replay rejection, and publishes every shard so readers see
    /// pre-crash-quality levels before the first worker tick. Peers whose
    /// shard is full are counted in
    /// [`RestoreImport::capacity_rejected`](crate::persist::RestoreImport).
    ///
    /// Only valid while stopped, like [`watch`](Self::watch) — the watch
    /// set is distributed to worker threads at [`start`](Self::start).
    ///
    /// # Errors
    ///
    /// [`EngineError::Running`] if workers are up,
    /// [`EngineError::WorkerPanicked`] if the engine already failed.
    pub fn restore(
        &mut self,
        peers: &[crate::persist::RestoredPeer],
    ) -> Result<crate::persist::RestoreImport, EngineError> {
        match &self.state {
            EngineState::Idle { .. } => {}
            EngineState::Failed { worker } => {
                return Err(EngineError::WorkerPanicked { worker: *worker })
            }
            _ => return Err(EngineError::Running),
        }
        let mut import = crate::persist::RestoreImport::default();
        for peer in peers {
            match self.watch(peer.process) {
                Ok(_) => import.watched += 1,
                Err(EngineError::Capacity(_)) => {
                    import.capacity_rejected += 1;
                    continue;
                }
                Err(e) => return Err(e),
            }
            let idx = self.shard_of(peer.process);
            let EngineState::Idle { shards, .. } = &mut self.state else {
                return Err(EngineError::Running);
            };
            if let Some(seq) = peer.highest_seq {
                shards[idx].highest_seq.insert(peer.process, seq);
            }
            if let Some(seed) = &peer.seed {
                if let Some(d) = shards[idx].service.detector_mut(peer.process) {
                    d.restore_seed(seed);
                    import.seeded += 1;
                }
            }
        }
        let now = self.clock.now();
        if let EngineState::Idle { shards, .. } = &mut self.state {
            for shard in shards {
                shard.publish(now);
            }
        }
        Ok(import)
    }

    /// Spawns the rings and worker threads (plus the intake thread in
    /// [`EngineMode::FreeRunning`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::Running`] if already started,
    /// [`EngineError::WorkerPanicked`] if the engine already failed.
    pub fn start(&mut self, mode: EngineMode) -> Result<(), EngineError> {
        match &self.state {
            EngineState::Idle { .. } => {}
            EngineState::Failed { worker } => {
                return Err(EngineError::WorkerPanicked { worker: *worker })
            }
            _ => return Err(EngineError::Running),
        }
        let (transport, shards) =
            match mem::replace(&mut self.state, EngineState::Failed { worker: usize::MAX }) {
                EngineState::Idle { transport, shards } => (transport, shards),
                // Unreachable: checked Idle above; the placeholder keeps the
                // state machine total without panicking.
                other => {
                    self.state = other;
                    return Err(EngineError::Running);
                }
            };

        let mut producers = Vec::with_capacity(self.config.workers);
        let mut consumers = Vec::with_capacity(self.config.workers);
        for _ in 0..self.config.workers {
            let (tx, rx) = heartbeat_ring(self.config.ring_capacity);
            producers.push(tx);
            consumers.push(rx);
        }

        match mode {
            EngineMode::Lockstep => {
                let barrier = PhaseBarrier::new();
                let workers = shards
                    .into_iter()
                    .zip(consumers)
                    .enumerate()
                    .map(|(idx, (shard, ring))| {
                        let watch = ring.watch();
                        let barrier = Arc::clone(&barrier);
                        let shared = Arc::clone(&self.worker_shared[idx]);
                        let clock = self.clock.clone();
                        let handle = std::thread::spawn(move || {
                            lockstep_worker(idx, shard, ring, barrier, shared, clock)
                        });
                        WorkerHandle {
                            handle,
                            // lint:allow(no-alloc-in-hot-path, one-time construction at start)
                            watches: vec![watch],
                        }
                    })
                    .collect();
                self.state = EngineState::Lockstep {
                    transport,
                    batch: FrameBatch::with_capacity(self.config.batch_slots),
                    groups: (0..self.config.workers)
                        .map(|_| Vec::with_capacity(self.config.batch_slots))
                        .collect(),
                    producers,
                    barrier,
                    workers,
                };
            }
            EngineMode::FreeRunning => {
                let stop = Arc::new(AtomicBool::new(false));
                let workers = shards
                    .into_iter()
                    .zip(consumers)
                    .enumerate()
                    .map(|(idx, (shard, ring))| {
                        let watch = ring.watch();
                        let stop = Arc::clone(&stop);
                        let shared = Arc::clone(&self.worker_shared[idx]);
                        let clock = self.clock.clone();
                        let publish_every = self.config.publish_every;
                        let handle = std::thread::spawn(move || {
                            // lint:allow(no-alloc-in-hot-path, one-time construction at start)
                            free_worker(shard, vec![ring], clock, stop, shared, publish_every)
                        });
                        WorkerHandle {
                            handle,
                            // lint:allow(no-alloc-in-hot-path, one-time construction at start)
                            watches: vec![watch],
                        }
                    })
                    .collect();
                let clock = self.clock.clone();
                let shared = Arc::clone(&self.intake_shared);
                let intake_stop = Arc::clone(&stop);
                let batch_slots = self.config.batch_slots;
                let intake = std::thread::spawn(move || {
                    intake_loop(
                        transport,
                        clock,
                        producers,
                        shared,
                        intake_stop,
                        batch_slots,
                    )
                });
                self.state = EngineState::Free {
                    intake,
                    stop,
                    workers,
                };
            }
        }
        Ok(())
    }

    /// Spawns one intake thread per transport *lane* plus free-running
    /// workers, wired through lane×worker SPSC rings (see the module
    /// docs). The engine's own transport sits parked until
    /// [`shutdown`](Self::shutdown); heartbeats arrive on the lanes,
    /// decoded through a per-lane [`WireDecoder`] that accepts both v1
    /// and compact v2 delta frames.
    ///
    /// Lane transports are consumed: shutdown drops them (they are bound
    /// sockets), so each `start_lanes` takes freshly bound lanes —
    /// typically [`MultiUdpTransport::into_lanes`](crate::lane::MultiUdpTransport::into_lanes).
    ///
    /// # Errors
    ///
    /// [`EngineError::Running`] if already started,
    /// [`EngineError::WorkerPanicked`] if the engine already failed, and
    /// [`EngineError::Transport`] if `lanes` is empty.
    pub fn start_lanes<L: Transport + 'static>(
        &mut self,
        lanes: Vec<L>,
    ) -> Result<(), EngineError> {
        match &self.state {
            EngineState::Idle { .. } => {}
            EngineState::Failed { worker } => {
                return Err(EngineError::WorkerPanicked { worker: *worker })
            }
            _ => return Err(EngineError::Running),
        }
        if lanes.is_empty() {
            return Err(EngineError::Transport(TransportError::Io(
                "start_lanes requires at least one lane".into(),
            )));
        }
        let (transport, shards) =
            match mem::replace(&mut self.state, EngineState::Failed { worker: usize::MAX }) {
                EngineState::Idle { transport, shards } => (transport, shards),
                // Unreachable: checked Idle above; the placeholder keeps the
                // state machine total without panicking.
                other => {
                    self.state = other;
                    return Err(EngineError::Running);
                }
            };

        // One ring per lane×worker pair: lane l's intake is the only
        // producer and worker w the only consumer of ring (l, w), so the
        // SPSC invariant holds with no cross-lane locking.
        let workers_n = self.config.workers;
        let mut lane_producers: Vec<Vec<RingProducer>> = Vec::with_capacity(lanes.len());
        let mut worker_rings: Vec<Vec<RingConsumer>> = (0..workers_n)
            .map(|_| Vec::with_capacity(lanes.len()))
            .collect();
        for _ in 0..lanes.len() {
            let mut producers = Vec::with_capacity(workers_n);
            for rings in worker_rings.iter_mut() {
                let (tx, rx) = heartbeat_ring(self.config.ring_capacity);
                producers.push(tx);
                rings.push(rx);
            }
            lane_producers.push(producers);
        }
        self.lane_shared = (0..lanes.len())
            .map(|_| Arc::new(LaneShared::default()))
            .collect();

        let stop = Arc::new(AtomicBool::new(false));
        let workers = shards
            .into_iter()
            .zip(worker_rings)
            .enumerate()
            .map(|(idx, (shard, rings))| {
                let watches = rings.iter().map(RingConsumer::watch).collect();
                let stop = Arc::clone(&stop);
                let shared = Arc::clone(&self.worker_shared[idx]);
                let clock = self.clock.clone();
                let publish_every = self.config.publish_every;
                let handle = std::thread::spawn(move || {
                    free_worker(shard, rings, clock, stop, shared, publish_every)
                });
                WorkerHandle { handle, watches }
            })
            .collect();

        let intakes = lanes
            .into_iter()
            .zip(lane_producers)
            .enumerate()
            .map(|(idx, (lane, producers))| {
                let shared = Arc::clone(&self.lane_shared[idx]);
                let stop = Arc::clone(&stop);
                let clock = self.clock.clone();
                let batch_slots = self.config.batch_slots;
                std::thread::spawn(move || {
                    lane_intake_loop(
                        Box::new(lane) as Box<dyn Transport>,
                        clock,
                        producers,
                        shared,
                        stop,
                        batch_slots,
                    )
                })
            })
            .collect();

        self.state = EngineState::FreeLanes {
            transport,
            intakes,
            stop,
            workers,
        };
        Ok(())
    }

    /// Runs one lockstep epoch: drain the transport, route every frame,
    /// release all workers through the barrier, wait for them.
    ///
    /// # Errors
    ///
    /// [`EngineError::NotRunning`] / [`EngineError::NotLockstep`] in the
    /// wrong state, [`EngineError::Transport`] if the transport failed,
    /// [`EngineError::WorkerPanicked`] if a worker died.
    pub fn tick(&mut self) -> Result<EngineTickReport, EngineError> {
        let (transport, batch, groups, producers, barrier, workers) = match &mut self.state {
            EngineState::Lockstep {
                transport,
                batch,
                groups,
                producers,
                barrier,
                workers,
            } => (transport, batch, groups, producers, barrier, workers),
            EngineState::Idle { .. } => return Err(EngineError::NotRunning),
            EngineState::Free { .. } | EngineState::FreeLanes { .. } => {
                return Err(EngineError::NotLockstep)
            }
            EngineState::Failed { worker } => {
                return Err(EngineError::WorkerPanicked { worker: *worker })
            }
        };
        IntakeShared::add(&self.intake_shared.liveness, 1);
        let mut drained = 0usize;
        let mut corrupt = 0u64;
        let mut frames = 0u64;
        loop {
            batch.clear();
            let got = transport
                .recv_batch(batch)
                .map_err(EngineError::Transport)?;
            drained += got;
            // One stamp per drained batch. Under the frozen virtual
            // clock of a lockstep tick this is byte-identical to the
            // per-frame stamps `ShardedMonitor::tick` takes — the
            // equivalence proptest holds the engine to that.
            let now = self.clock.now();
            for frame in batch.iter() {
                match <&[u8; FRAME_LEN]>::try_from(frame) {
                    Ok(exact) => match Heartbeat::decode_exact(exact) {
                        Ok(hb) => {
                            frames += 1;
                            groups[shard_index(hb.sender, producers.len())].push(hb);
                        }
                        Err(_) => corrupt += 1,
                    },
                    Err(_) => corrupt += 1,
                }
            }
            // Publish each destination's group with one seqlock/tail
            // advance; per-ring FIFO order is batch order, as before.
            for (idx, group) in groups.iter_mut().enumerate() {
                if !group.is_empty() {
                    producers[idx].push_batch(group, now);
                    group.clear();
                }
            }
            if got < batch.capacity() {
                break;
            }
        }
        IntakeShared::add(&self.intake_shared.frames, frames);
        IntakeShared::add(&self.intake_shared.corrupt, corrupt);

        // Workers are parked between epochs, so their published stats are
        // quiescent on both sides of the barrier.
        let before: u64 = self
            .worker_shared
            .iter()
            .map(|w| w.accepted.load(Ordering::Acquire))
            .sum();
        barrier.begin(workers.len(), self.clock.now());
        barrier.wait_done()?;
        let after: u64 = self
            .worker_shared
            .iter()
            .map(|w| w.accepted.load(Ordering::Acquire))
            .sum();
        self.ticks += 1;
        Ok(EngineTickReport {
            drained,
            accepted: after.saturating_sub(before),
        })
    }

    /// Joins every thread and returns the engine to the stopped state,
    /// preserving all detector state (a later [`start`](Self::start)
    /// resumes where monitoring left off).
    ///
    /// # Errors
    ///
    /// [`EngineError::WorkerPanicked`] if any thread died — the engine is
    /// then terminally failed, since the dead worker's shard is gone.
    pub fn shutdown(&mut self) -> Result<(), EngineError> {
        let state = mem::replace(&mut self.state, EngineState::Failed { worker: usize::MAX });
        match state {
            EngineState::Idle { .. } => {
                self.state = state;
                Ok(())
            }
            EngineState::Failed { worker } => {
                self.state = EngineState::Failed { worker };
                Err(EngineError::WorkerPanicked { worker })
            }
            EngineState::Lockstep {
                transport,
                batch: _,
                groups: _,
                producers,
                barrier,
                workers,
            } => {
                barrier.stop();
                // Rings must outlive the workers' final drain.
                let shards = self.join_workers(workers)?;
                drop(producers);
                self.state = EngineState::Idle { transport, shards };
                Ok(())
            }
            EngineState::Free {
                intake,
                stop,
                workers,
            } => {
                stop.store(true, Ordering::Release);
                let transport = match intake.join() {
                    Ok(t) => t,
                    Err(_) => {
                        // Intake owned the transport; both are gone.
                        self.state = EngineState::Failed { worker: usize::MAX };
                        return Err(EngineError::WorkerPanicked { worker: usize::MAX });
                    }
                };
                let shards = self.join_workers(workers)?;
                self.state = EngineState::Idle { transport, shards };
                Ok(())
            }
            EngineState::FreeLanes {
                transport,
                intakes,
                stop,
                workers,
            } => {
                stop.store(true, Ordering::Release);
                let mut lane_panicked = false;
                for intake in intakes {
                    // Lane transports are dropped here: lanes are bound
                    // sockets, so a later `start_lanes` rebinds fresh ones.
                    lane_panicked |= intake.join().is_err();
                }
                if lane_panicked {
                    self.state = EngineState::Failed { worker: usize::MAX };
                    return Err(EngineError::WorkerPanicked { worker: usize::MAX });
                }
                let shards = self.join_workers(workers)?;
                self.state = EngineState::Idle { transport, shards };
                Ok(())
            }
        }
    }

    /// Joins workers, folding their rings' drop counts into the running
    /// total. On a panicked worker the engine stays `Failed`.
    fn join_workers(
        &mut self,
        workers: Vec<WorkerHandle<D>>,
    ) -> Result<Vec<Shard<D>>, EngineError> {
        let mut shards = Vec::with_capacity(workers.len());
        let mut panicked = None;
        for (idx, worker) in workers.into_iter().enumerate() {
            self.ring_dropped_past = self.ring_dropped_past.wrapping_add(worker.ring_dropped());
            match worker.handle.join() {
                Ok(shard) => shards.push(shard),
                Err(_) => panicked = Some(idx),
            }
        }
        match panicked {
            Some(worker) => {
                self.state = EngineState::Failed { worker };
                Err(EngineError::WorkerPanicked { worker })
            }
            None => Ok(shards),
        }
    }

    /// The transport, readable while the engine is stopped (a running
    /// engine's intake side owns it). Useful for draining fault-injector
    /// statistics after [`shutdown`](Self::shutdown).
    pub fn transport(&self) -> Option<&T> {
        match &self.state {
            EngineState::Idle { transport, .. } => Some(transport),
            _ => None,
        }
    }

    /// A cloneable lock-free reader over the published row tables —
    /// the identical [`SnapshotReader`] type the sharded monitor serves.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader::from_cells(Arc::clone(&self.cells))
    }

    /// A transport fault the free-running intake thread hit, if any.
    /// The intake thread stops on the first fault; workers keep serving
    /// reads until [`shutdown`](Self::shutdown).
    pub fn intake_fault(&self) -> Option<TransportError> {
        let own = match self.intake_shared.fault.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        };
        if own.is_some() {
            return own;
        }
        self.lane_shared
            .iter()
            .find_map(|lane| match lane.intake.fault.lock() {
                Ok(g) => g.clone(),
                Err(p) => p.into_inner().clone(),
            })
    }

    /// Aggregated counters. Callable in any state; while running, values
    /// are the workers' latest published snapshots.
    pub fn stats(&self) -> EngineStats {
        let mut totals = MonitorStats {
            corrupt: self.intake_shared.corrupt.load(Ordering::Relaxed),
            ..MonitorStats::default()
        };
        let mut per_worker = Vec::with_capacity(self.worker_shared.len());
        for shared in &self.worker_shared {
            let stats = shared.load_stats();
            totals.accepted += stats.accepted;
            totals.stale += stats.stale;
            totals.duplicate += stats.duplicate;
            totals.unwatched += stats.unwatched;
            per_worker.push(stats);
        }
        let mut per_lane_frames = Vec::with_capacity(self.lane_shared.len());
        let mut per_lane_corrupt = Vec::with_capacity(self.lane_shared.len());
        let mut stage = StageNanos::default();
        let mut lane_frames_total = 0u64;
        for lane in &self.lane_shared {
            let frames = lane.intake.frames.load(Ordering::Relaxed);
            let corrupt = lane.intake.corrupt.load(Ordering::Relaxed);
            per_lane_frames.push(frames);
            per_lane_corrupt.push(corrupt);
            lane_frames_total += frames;
            totals.corrupt += corrupt;
            stage.decode += lane.decode_nanos.load(Ordering::Relaxed);
            stage.route += lane.route_nanos.load(Ordering::Relaxed);
        }
        for shared in &self.worker_shared {
            stage.update += shared.update_nanos.load(Ordering::Relaxed);
            stage.publish += shared.publish_nanos.load(Ordering::Relaxed);
        }
        EngineStats {
            totals,
            per_worker,
            peers_per_shard: self.peers_per_shard.clone(),
            ring_dropped: self.ring_dropped_total(),
            intake_frames: self.intake_shared.frames.load(Ordering::Relaxed) + lane_frames_total,
            ticks: self.ticks,
            per_lane_frames,
            per_lane_corrupt,
            stage,
        }
    }

    /// Total frames evicted by drop-oldest ring backpressure, across all
    /// workers and surviving engine restarts.
    pub fn ring_dropped_total(&self) -> u64 {
        let live: u64 = match &self.state {
            EngineState::Lockstep { workers, .. }
            | EngineState::Free { workers, .. }
            | EngineState::FreeLanes { workers, .. } => {
                workers.iter().map(WorkerHandle::ring_dropped).sum()
            }
            _ => 0,
        };
        self.ring_dropped_past.wrapping_add(live)
    }

    /// Tracks the intake thread and every worker on `board`, labeled
    /// `engine.intake` and `engine.worker.<i>`.
    pub fn register_health(&self, board: &mut HealthBoard, now: Timestamp) {
        board.track(
            "engine.intake",
            Arc::clone(&self.intake_shared.liveness),
            now,
        );
        for (idx, shared) in self.worker_shared.iter().enumerate() {
            board.track(
                format!("engine.worker.{idx}"),
                Arc::clone(&shared.liveness),
                now,
            );
        }
        for (idx, lane) in self.lane_shared.iter().enumerate() {
            board.track(
                format!("engine.lane.{idx}"),
                Arc::clone(&lane.intake.liveness),
                now,
            );
        }
    }

    /// `Some(worker)` if any worker (or the intake thread) has panicked
    /// since the last start — the poisoned-worker signal the watchdog
    /// layer consumes without blocking on a join.
    pub fn poisoned(&self) -> Option<usize> {
        if let EngineState::Failed { worker } = &self.state {
            return Some(*worker);
        }
        if self.intake_shared.panicked.load(Ordering::Acquire) {
            return Some(usize::MAX);
        }
        if self
            .lane_shared
            .iter()
            .any(|lane| lane.intake.panicked.load(Ordering::Acquire))
        {
            return Some(usize::MAX);
        }
        self.worker_shared
            .iter()
            .position(|w| w.panicked.load(Ordering::Acquire))
    }

    /// Publishes the engine's counters into `registry` under `engine.*`:
    /// aggregate totals, per-stage nanos (`engine.stage.*_nanos`),
    /// per-worker ring depth/drop gauges, per-worker publish rows
    /// (`engine.worker.<i>.publish_rows.{dirty,sweep}`, with
    /// `publish_epochs`), and per-worker utilization (fraction of loop
    /// iterations that processed frames). The publish rows stay out of
    /// [`EngineStats`]: a free-running worker keeps refreshing silent
    /// rows while intake is idle, so they move when nothing else does.
    pub fn export_metrics(&self, registry: &afd_obs::Registry) {
        let stats = self.stats();
        registry
            .counter("engine.accepted")
            .set(stats.totals.accepted);
        registry.counter("engine.corrupt").set(stats.totals.corrupt);
        registry.counter("engine.stale").set(stats.totals.stale);
        registry
            .counter("engine.duplicate")
            .set(stats.totals.duplicate);
        registry
            .counter("engine.unwatched")
            .set(stats.totals.unwatched);
        registry
            .counter("engine.intake.frames")
            .set(stats.intake_frames);
        registry
            .counter("engine.ring.dropped")
            .set(stats.ring_dropped);
        registry.counter("engine.ticks").set(stats.ticks);
        registry
            .gauge("engine.workers")
            .set(self.config.workers as f64);
        registry
            .gauge("engine.peers")
            .set(stats.peers_per_shard.iter().sum::<usize>() as f64);
        let live_workers: Option<&Vec<WorkerHandle<D>>> = match &self.state {
            EngineState::Lockstep { workers, .. }
            | EngineState::Free { workers, .. }
            | EngineState::FreeLanes { workers, .. } => Some(workers),
            _ => None,
        };
        for (idx, shared) in self.worker_shared.iter().enumerate() {
            if let Some(workers) = live_workers {
                registry
                    .gauge(&format!("engine.worker.{idx}.ring_depth"))
                    .set(workers[idx].ring_depth() as f64);
                registry
                    .counter(&format!("engine.worker.{idx}.ring_dropped"))
                    .set(workers[idx].ring_dropped());
            }
            let loops = shared.loops.load(Ordering::Relaxed);
            let busy = shared.busy_loops.load(Ordering::Relaxed);
            let utilization = if loops == 0 {
                0.0
            } else {
                busy as f64 / loops as f64
            };
            registry
                .gauge(&format!("engine.worker.{idx}.utilization"))
                .set(utilization);
            registry
                .counter(&format!("engine.worker.{idx}.update_nanos"))
                .set(shared.update_nanos.load(Ordering::Relaxed));
            registry
                .counter(&format!("engine.worker.{idx}.publish_nanos"))
                .set(shared.publish_nanos.load(Ordering::Relaxed));
            let rows = shared.load_publish();
            registry
                .counter(&format!("engine.worker.{idx}.publish_epochs"))
                .set(rows.epochs);
            registry
                .counter(&format!("engine.worker.{idx}.publish_rows.dirty"))
                .set(rows.dirty);
            registry
                .counter(&format!("engine.worker.{idx}.publish_rows.sweep"))
                .set(rows.sweep);
        }
        for (idx, lane) in self.lane_shared.iter().enumerate() {
            registry
                .counter(&format!("engine.lane.{idx}.frames"))
                .set(lane.intake.frames.load(Ordering::Relaxed));
            registry
                .counter(&format!("engine.lane.{idx}.corrupt"))
                .set(lane.intake.corrupt.load(Ordering::Relaxed));
            registry
                .counter(&format!("engine.lane.{idx}.decode_nanos"))
                .set(lane.decode_nanos.load(Ordering::Relaxed));
            registry
                .counter(&format!("engine.lane.{idx}.route_nanos"))
                .set(lane.route_nanos.load(Ordering::Relaxed));
        }
        if !self.lane_shared.is_empty() {
            registry
                .gauge("engine.lanes")
                .set(self.lane_shared.len() as f64);
            registry
                .counter("engine.stage.decode_nanos")
                .set(stats.stage.decode);
            registry
                .counter("engine.stage.route_nanos")
                .set(stats.stage.route);
        }
        registry
            .counter("engine.stage.update_nanos")
            .set(stats.stage.update);
        registry
            .counter("engine.stage.publish_nanos")
            .set(stats.stage.publish);
    }
}

impl<T, C, D> Drop for ParallelShardEngine<T, C, D> {
    /// Join-on-drop backstop: stops and joins any running threads so an
    /// engine falling out of scope never leaks spinning workers.
    fn drop(&mut self) {
        match mem::replace(&mut self.state, EngineState::Failed { worker: usize::MAX }) {
            EngineState::Lockstep {
                barrier, workers, ..
            } => {
                barrier.stop();
                for worker in workers {
                    let _ = worker.handle.join();
                }
            }
            EngineState::Free {
                intake,
                stop,
                workers,
            } => {
                stop.store(true, Ordering::Release);
                let _ = intake.join();
                for worker in workers {
                    let _ = worker.handle.join();
                }
            }
            EngineState::FreeLanes {
                intakes,
                stop,
                workers,
                ..
            } => {
                stop.store(true, Ordering::Release);
                for intake in intakes {
                    let _ = intake.join();
                }
                for worker in workers {
                    let _ = worker.handle.join();
                }
            }
            EngineState::Idle { .. } | EngineState::Failed { .. } => {}
        }
    }
}

/// Lockstep worker: park on the barrier, run exactly one drain+publish
/// per epoch, report done. The publish writes every row at the epoch's
/// timestamp. Returns its shard on stop for state handback.
fn lockstep_worker<C: Clock, D: AccrualFailureDetector>(
    idx: usize,
    mut shard: Shard<D>,
    mut ring: RingConsumer,
    barrier: Arc<PhaseBarrier>,
    shared: Arc<WorkerShared>,
    clock: C,
) -> Shard<D> {
    let _guard = WorkerPanicGuard {
        worker: idx,
        barrier: Some(Arc::clone(&barrier)),
        shared: Arc::clone(&shared),
    };
    let mut epoch = 0u64;
    loop {
        match barrier.wait_begin(epoch) {
            WorkerSignal::Stop => break,
            WorkerSignal::Run {
                epoch: next,
                publish_at,
            } => {
                epoch = next;
                let drain_start = clock.now();
                while let Some((hb, at)) = ring.pop() {
                    shard.accept(hb, at);
                }
                let publish_start = clock.now();
                shard.publish(publish_at);
                let publish_end = clock.now();
                IntakeShared::add(
                    &shared.update_nanos,
                    publish_start
                        .saturating_duration_since(drain_start)
                        .as_nanos(),
                );
                IntakeShared::add(
                    &shared.publish_nanos,
                    publish_end
                        .saturating_duration_since(publish_start)
                        .as_nanos(),
                );
                shared.store_stats(&shard.stats);
                shared.store_publish(&shard.rows_written);
                IntakeShared::add(&shared.liveness, 1);
                barrier.done();
            }
        }
    }
    shard
}

/// Free-running worker: drain its rings round-robin (bounded total per
/// iteration); every `publish_every`, flush the rows accepted since the
/// last epoch (or publish a small table whole); between drains, take one
/// bounded refresh-sweep step over the silent rows; yield when idle. On
/// stop, drain what's left and publish every row once more. Takes one
/// ring per feeding intake — a single ring normally, one per lane under
/// [`ParallelShardEngine::start_lanes`].
fn free_worker<C: Clock, D: AccrualFailureDetector>(
    mut shard: Shard<D>,
    mut rings: Vec<RingConsumer>,
    clock: C,
    stop: Arc<AtomicBool>,
    shared: Arc<WorkerShared>,
    publish_every: Duration,
) -> Shard<D> {
    let _guard = WorkerPanicGuard {
        worker: 0,
        barrier: None,
        shared: Arc::clone(&shared),
    };
    // Publish every row (the watch set as of start) so readers see it
    // immediately.
    let mut last_publish = clock.now();
    shard.publish(last_publish);
    shared.store_publish(&shard.rows_written);
    loop {
        // Order matters: read stop *before* the final drain so no frame
        // pushed before the stop store can be missed.
        let stopping = stop.load(Ordering::Acquire);
        let drain_start = clock.now();
        let mut processed = 0usize;
        // Round-robin across rings; a dry pass over every ring ends the
        // drain even with budget left, so one empty lane can't spin.
        let mut dry = 0usize;
        let mut next = 0usize;
        while processed < WORKER_DRAIN_CAP && dry < rings.len() {
            match rings[next].pop() {
                Some((hb, at)) => {
                    shard.accept(hb, at);
                    processed += 1;
                    dry = 0;
                }
                None => dry += 1,
            }
            next = (next + 1) % rings.len();
        }
        let now = clock.now();
        if processed > 0 {
            IntakeShared::add(
                &shared.update_nanos,
                now.saturating_duration_since(drain_start).as_nanos(),
            );
        }
        let finishing = stopping && processed == 0;
        let due = now.saturating_duration_since(last_publish) >= publish_every;
        let mut published = false;
        if finishing {
            shard.publish(now);
            published = true;
        } else if !stopping {
            if due {
                if shard.rows() <= WHOLE_TABLE_ROWS {
                    shard.publish(now);
                } else {
                    shard.flush(now);
                }
                last_publish = now;
                published = true;
            }
            // One bounded refresh step, evaluated at its own clock
            // reading, then back to the rings.
            if shard.sweeping() {
                shard.sweep(clock.now(), SWEEP_CHUNK);
                published = true;
            }
        }
        if published {
            IntakeShared::add(
                &shared.publish_nanos,
                clock.now().saturating_duration_since(now).as_nanos(),
            );
            shared.store_publish(&shard.rows_written);
        }
        if processed > 0 || published {
            shared.store_stats(&shard.stats);
        }
        IntakeShared::add(&shared.liveness, 1);
        IntakeShared::add(&shared.loops, 1);
        if processed > 0 {
            IntakeShared::add(&shared.busy_loops, 1);
        } else if finishing {
            break;
        } else if !shard.sweeping() {
            std::thread::yield_now();
        }
    }
    shard
}

/// Free-running intake: drain the transport through the reusable arena,
/// decode, stamp, route. Stops on the cooperative flag or the first
/// transport fault (recorded for [`ParallelShardEngine::intake_fault`]).
/// Returns the transport on exit for state handback.
fn intake_loop<T: Transport, C: Clock>(
    mut transport: T,
    clock: C,
    mut producers: Vec<RingProducer>,
    shared: Arc<IntakeShared>,
    stop: Arc<AtomicBool>,
    batch_slots: usize,
) -> T {
    let _guard = IntakePanicGuard {
        shared: Arc::clone(&shared),
    };
    let mut batch = FrameBatch::with_capacity(batch_slots);
    let shards = producers.len();
    // Per-destination scratch, reused across batches: grouping a batch
    // by worker ring is allocation-free in steady state.
    let mut groups: Vec<Vec<Heartbeat>> = (0..shards)
        .map(|_| Vec::with_capacity(batch_slots))
        .collect();
    while !stop.load(Ordering::Acquire) {
        batch.clear();
        match transport.recv_batch(&mut batch) {
            Ok(0) => {
                IntakeShared::add(&shared.liveness, 1);
                std::thread::yield_now();
            }
            Ok(got) => {
                let mut corrupt = 0u64;
                let mut frames = 0u64;
                // One stamp per drained batch: every frame in it shares
                // this arrival. The skew a frame can see is bounded by
                // the batch's own decode+route time (see DESIGN.md §7j).
                let now = clock.now();
                for frame in batch.iter() {
                    match <&[u8; FRAME_LEN]>::try_from(frame) {
                        Ok(exact) => match Heartbeat::decode_exact(exact) {
                            Ok(hb) => {
                                frames += 1;
                                groups[shard_index(hb.sender, shards)].push(hb);
                            }
                            Err(_) => corrupt += 1,
                        },
                        Err(_) => corrupt += 1,
                    }
                }
                for (idx, group) in groups.iter_mut().enumerate() {
                    if !group.is_empty() {
                        producers[idx].push_batch(group, now);
                        group.clear();
                    }
                }
                let _ = got;
                IntakeShared::add(&shared.frames, frames);
                IntakeShared::add(&shared.corrupt, corrupt);
                IntakeShared::add(&shared.liveness, 1);
            }
            Err(fault) => {
                let mut slot = match shared.fault.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                *slot = Some(fault);
                break;
            }
        }
    }
    transport
}

/// One lane's intake: drain the lane transport through a reusable arena,
/// decode every frame through a per-lane [`WireDecoder`] (v1 and v2
/// delta frames mix freely), stamp, and hash-route into this lane's
/// per-worker rings. Each batch is timed in two passes on the engine
/// clock — decode, then stamp+route — feeding the per-stage profile in
/// [`EngineStats::stage`]. Stops on the cooperative flag or the first
/// transport fault.
fn lane_intake_loop<C: Clock>(
    mut transport: Box<dyn Transport>,
    clock: C,
    mut producers: Vec<RingProducer>,
    shared: Arc<LaneShared>,
    stop: Arc<AtomicBool>,
    batch_slots: usize,
) -> Box<dyn Transport> {
    let _guard = LanePanicGuard {
        shared: Arc::clone(&shared),
    };
    let mut batch = FrameBatch::with_capacity(batch_slots);
    let mut decoder = WireDecoder::new();
    // Scratch for the decode pass, reused across batches: allocation-free
    // in steady state (capacity equals the arena's slot count).
    let mut scratch: Vec<Heartbeat> = Vec::with_capacity(batch_slots);
    let shards = producers.len();
    // Per-destination scratch for the route pass, also reused: a drained
    // batch publishes with one seqlock advance per (ring, group) instead
    // of one per frame.
    let mut groups: Vec<Vec<Heartbeat>> = (0..shards)
        .map(|_| Vec::with_capacity(batch_slots))
        .collect();
    while !stop.load(Ordering::Acquire) {
        batch.clear();
        match transport.recv_batch(&mut batch) {
            Ok(0) => {
                IntakeShared::add(&shared.intake.liveness, 1);
                std::thread::yield_now();
            }
            Ok(_) => {
                let mut corrupt = 0u64;
                scratch.clear();
                let decode_start = clock.now();
                for frame in batch.iter() {
                    match decoder.decode(frame) {
                        Ok(hb) => scratch.push(hb),
                        Err(_) => corrupt += 1,
                    }
                }
                // One stamp per batch, doubling as the stage boundary:
                // every frame of this batch arrives at `route_start`.
                // The skew against its true socket-drain moment is
                // bounded by the batch's decode time (DESIGN.md §7j).
                let route_start = clock.now();
                let frames = scratch.len() as u64;
                for hb in scratch.drain(..) {
                    groups[shard_index(hb.sender, shards)].push(hb);
                }
                for (idx, group) in groups.iter_mut().enumerate() {
                    if !group.is_empty() {
                        producers[idx].push_batch(group, route_start);
                        group.clear();
                    }
                }
                let route_end = clock.now();
                IntakeShared::add(
                    &shared.decode_nanos,
                    route_start
                        .saturating_duration_since(decode_start)
                        .as_nanos(),
                );
                IntakeShared::add(
                    &shared.route_nanos,
                    route_end.saturating_duration_since(route_start).as_nanos(),
                );
                IntakeShared::add(&shared.intake.frames, frames);
                IntakeShared::add(&shared.intake.corrupt, corrupt);
                IntakeShared::add(&shared.intake.liveness, 1);
            }
            Err(fault) => {
                let mut slot = match shared.intake.fault.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                *slot = Some(fault);
                break;
            }
        }
    }
    transport
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::transport::ChannelTransport;
    use afd_detectors::simple::SimpleAccrual;

    type Engine = ParallelShardEngine<ChannelTransport, VirtualClock, SimpleAccrual>;

    fn rig(config: EngineConfig) -> (ChannelTransport, Engine, VirtualClock) {
        let (tx, rx) = ChannelTransport::pair();
        let clock = VirtualClock::new();
        let engine = ParallelShardEngine::new(rx, clock.clone(), config, |_| {
            SimpleAccrual::new(Timestamp::ZERO)
        });
        (tx, engine, clock)
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
    fn lockstep_tick_accepts_and_publishes() {
        let (mut tx, mut engine, clock) = rig(EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        });
        for id in 0..6u32 {
            engine.watch(ProcessId::new(id)).unwrap();
        }
        engine.start(EngineMode::Lockstep).unwrap();
        clock.set(Timestamp::from_secs(5));
        for id in 0..6u32 {
            tx.send(&frame(id, 1)).unwrap();
        }
        tx.send(b"garbage").unwrap();
        let report = engine.tick().unwrap();
        assert_eq!(report.drained, 7);
        assert_eq!(report.accepted, 6);

        let reader = engine.reader();
        assert_eq!(reader.published_at(), Timestamp::from_secs(5));
        assert_eq!(reader.snapshot().len(), 6);
        for id in 0..6u32 {
            assert_eq!(reader.level(ProcessId::new(id)).unwrap().value(), 0.0);
        }
        let stats = engine.stats();
        assert_eq!(stats.totals.accepted, 6);
        assert_eq!(stats.totals.corrupt, 1);
        assert_eq!(stats.ticks, 1);
        engine.shutdown().unwrap();
    }

    #[test]
    fn watch_is_rejected_while_running_and_resumes_after_shutdown() {
        let (_tx, mut engine, _clock) = rig(EngineConfig::default());
        engine.watch(ProcessId::new(1)).unwrap();
        engine.start(EngineMode::Lockstep).unwrap();
        assert_eq!(engine.watch(ProcessId::new(2)), Err(EngineError::Running));
        assert!(matches!(
            engine.unwatch(ProcessId::new(1)),
            Err(EngineError::Running)
        ));
        engine.shutdown().unwrap();
        assert_eq!(engine.watch(ProcessId::new(2)), Ok(true));
        // Detector state survived the stop/start cycle.
        assert_eq!(engine.watch(ProcessId::new(1)), Ok(false));
    }

    #[test]
    fn capacity_error_is_typed() {
        let (_tx, mut engine, _clock) = rig(EngineConfig {
            workers: 1,
            slots_per_shard: 1,
            ..EngineConfig::default()
        });
        engine.watch(ProcessId::new(1)).unwrap();
        assert!(matches!(
            engine.watch(ProcessId::new(2)),
            Err(EngineError::Capacity(_))
        ));
    }

    #[test]
    fn tick_requires_lockstep_mode() {
        let (_tx, mut engine, _clock) = rig(EngineConfig {
            workers: 2,
            publish_every: Duration::ZERO,
            ..EngineConfig::default()
        });
        assert_eq!(engine.tick().unwrap_err(), EngineError::NotRunning);
        engine.start(EngineMode::FreeRunning).unwrap();
        assert_eq!(engine.tick().unwrap_err(), EngineError::NotLockstep);
        engine.shutdown().unwrap();
    }

    #[test]
    fn free_running_processes_without_ticks() {
        let (mut tx, mut engine, clock) = rig(EngineConfig {
            workers: 2,
            publish_every: Duration::ZERO,
            ..EngineConfig::default()
        });
        for id in 0..4u32 {
            engine.watch(ProcessId::new(id)).unwrap();
        }
        engine.start(EngineMode::FreeRunning).unwrap();
        clock.set(Timestamp::from_secs(1));
        for id in 0..4u32 {
            tx.send(&frame(id, 1)).unwrap();
        }
        // Settle: free-running acceptance is asynchronous.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.stats().totals.accepted < 4 {
            assert!(
                std::time::Instant::now() < deadline,
                "stalled: {:?}",
                engine.stats()
            );
            std::thread::yield_now();
        }
        engine.shutdown().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.totals.accepted, 4);
        assert_eq!(stats.intake_frames, 4);
        let reader = engine.reader();
        assert_eq!(reader.snapshot().len(), 4);
    }

    #[test]
    fn export_metrics_and_health_registration_cover_every_worker() {
        let (mut tx, mut engine, clock) = rig(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        engine.watch(ProcessId::new(1)).unwrap();
        engine.start(EngineMode::Lockstep).unwrap();
        clock.set(Timestamp::from_secs(1));
        tx.send(&frame(1, 1)).unwrap();
        engine.tick().unwrap();

        let registry = afd_obs::Registry::new();
        engine.export_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.accepted"), Some(1));
        assert_eq!(snap.counter("engine.intake.frames"), Some(1));
        assert_eq!(snap.counter("engine.ring.dropped"), Some(0));
        assert_eq!(snap.gauge("engine.workers"), Some(2.0));
        for idx in 0..2 {
            assert!(snap
                .gauge(&format!("engine.worker.{idx}.ring_depth"))
                .is_some());
            assert!(snap
                .gauge(&format!("engine.worker.{idx}.utilization"))
                .is_some());
        }

        let mut board = HealthBoard::new(Duration::from_secs(5));
        engine.register_health(&mut board, clock.now());
        assert_eq!(board.len(), 3, "intake + two workers");
        // Ticking keeps every label alive on the board's timeline.
        clock.advance(Duration::from_secs(4));
        engine.tick().unwrap();
        assert!(board.observe(clock.now()).is_empty());
        engine.shutdown().unwrap();
    }

    #[test]
    fn publish_stage_and_rows_are_exported_in_every_mode() {
        let sum = |snap: &afd_obs::Snapshot, leaf: &str| -> u64 {
            (0..2)
                .map(|i| snap.counter(&format!("engine.worker.{i}.{leaf}")).unwrap())
                .sum()
        };
        // Lockstep: each tick publishes every row of every shard.
        let (mut tx, mut engine, clock) = rig(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        for id in 0..4u32 {
            engine.watch(ProcessId::new(id)).unwrap();
        }
        engine.start(EngineMode::Lockstep).unwrap();
        clock.set(Timestamp::from_secs(1));
        tx.send(&frame(1, 1)).unwrap();
        engine.tick().unwrap();
        let registry = afd_obs::Registry::new();
        engine.export_metrics(&registry);
        let snap = registry.snapshot();
        assert!(snap.counter("engine.stage.publish_nanos").is_some());
        assert_eq!(sum(&snap, "publish_epochs"), 2);
        assert_eq!(sum(&snap, "publish_rows.sweep"), 4);
        assert_eq!(sum(&snap, "publish_rows.dirty"), 0);
        engine.shutdown().unwrap();

        // Free-running on a real clock, with shards too large to publish
        // whole each epoch: accepted rows go out through dirty flushes,
        // and the publish stage takes measurable time.
        const PEERS: u32 = 4 * WHOLE_TABLE_ROWS as u32;
        let (mut tx, rx) = ChannelTransport::pair();
        let mut engine = ParallelShardEngine::new(
            rx,
            crate::clock::SystemClock::new(),
            EngineConfig {
                workers: 2,
                slots_per_shard: PEERS as usize,
                ..EngineConfig::default()
            },
            |_| SimpleAccrual::new(Timestamp::ZERO),
        );
        for id in 0..PEERS {
            engine.watch(ProcessId::new(id)).unwrap();
        }
        engine.start(EngineMode::FreeRunning).unwrap();
        for id in 0..4u32 {
            tx.send(&frame(id, 1)).unwrap();
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let registry = afd_obs::Registry::new();
        loop {
            engine.export_metrics(&registry);
            let snap = registry.snapshot();
            if sum(&snap, "publish_rows.dirty") >= 4 {
                assert!(snap.counter("engine.stage.publish_nanos").unwrap() > 0);
                assert!(sum(&snap, "publish_rows.sweep") >= u64::from(PEERS));
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no dirty flush");
            std::thread::yield_now();
        }
        engine.shutdown().unwrap();
    }

    #[test]
    fn multi_lane_udp_intake_mixes_v1_and_v2_frames() {
        use crate::lane::MultiUdpTransport;
        use crate::transport::NullTransport;
        use crate::wire::{DeltaEncoder, MAX_V2_FRAME};

        let clock = VirtualClock::new();
        let mut engine = ParallelShardEngine::new(
            NullTransport,
            clock.clone(),
            EngineConfig {
                workers: 2,
                publish_every: Duration::ZERO,
                ..EngineConfig::default()
            },
            |_| SimpleAccrual::new(Timestamp::ZERO),
        );
        for id in 0..6u32 {
            engine.watch(ProcessId::new(id)).unwrap();
        }
        let multi = MultiUdpTransport::bind("127.0.0.1:0".parse().unwrap(), 2).unwrap();
        let addrs = multi.local_addrs().unwrap();
        engine.start_lanes(multi.into_lanes()).unwrap();
        clock.set(Timestamp::from_secs(1));

        let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        // Peers 1..6 speak v1, each to the lane its id hashes to.
        for id in 1..6u32 {
            let lane = MultiUdpTransport::lane_for(id, 2);
            sock.send_to(&frame(id, 1), addrs[lane]).unwrap();
        }
        // Peer 0 speaks v2: an intern frame then a compact delta through
        // the same lane (same per-lane decoder holds the intern table).
        let lane0 = MultiUdpTransport::lane_for(0, 2);
        let mut enc =
            DeltaEncoder::new(ProcessId::new(0), 7, std::time::Duration::from_secs(1), 64);
        let mut buf = [0u8; MAX_V2_FRAME];
        for seq in 1..=2u64 {
            let hb = Heartbeat {
                sender: ProcessId::new(0),
                seq,
                sent_at: Timestamp::from_secs(seq),
            };
            let n = enc.encode(&hb, &mut buf);
            assert!(n > 0, "encoder produced a frame");
            sock.send_to(&buf[..n], addrs[lane0]).unwrap();
        }
        // Garbage long enough to clear the lane's short-datagram filter.
        sock.send_to(&[0xAAu8; 16], addrs[lane0]).unwrap();

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let stats = engine.stats();
            if stats.totals.accepted >= 7 && stats.totals.corrupt >= 1 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "stalled: {stats:?}");
            std::thread::yield_now();
        }
        let stats = engine.stats();
        assert_eq!(stats.per_lane_frames.len(), 2);
        assert_eq!(stats.per_lane_frames.iter().sum::<u64>(), 7);
        assert_eq!(stats.per_lane_corrupt.iter().sum::<u64>(), 1);
        assert_eq!(stats.intake_frames, 7);

        let registry = afd_obs::Registry::new();
        engine.export_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("engine.lanes"), Some(2.0));
        let lane_frames = snap.counter("engine.lane.0.frames").unwrap()
            + snap.counter("engine.lane.1.frames").unwrap();
        assert_eq!(lane_frames, 7);
        assert!(snap.counter("engine.stage.decode_nanos").is_some());
        assert!(snap.counter("engine.stage.route_nanos").is_some());
        assert!(snap.counter("engine.stage.update_nanos").is_some());
        for idx in 0..2 {
            assert!(snap
                .counter(&format!("engine.worker.{idx}.update_nanos"))
                .is_some());
        }

        let mut board = HealthBoard::new(Duration::from_secs(5));
        engine.register_health(&mut board, clock.now());
        assert_eq!(board.len(), 5, "intake + 2 workers + 2 lanes");

        engine.shutdown().unwrap();
        // The parked engine transport came back through shutdown.
        assert!(engine.transport().is_some());
        let reader = engine.reader();
        assert_eq!(reader.snapshot().len(), 6);
    }

    #[test]
    fn start_lanes_rejects_empty_and_running() {
        let (_tx, mut engine, _clock) = rig(EngineConfig::default());
        assert!(matches!(
            engine.start_lanes(Vec::<crate::lane::UdpLane>::new()),
            Err(EngineError::Transport(_))
        ));
        engine.start(EngineMode::Lockstep).unwrap();
        let lane = crate::lane::UdpLane::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        assert!(matches!(
            engine.start_lanes(vec![lane]),
            Err(EngineError::Running)
        ));
        engine.shutdown().unwrap();
    }

    #[test]
    fn multi_lane_engine_restarts_in_plain_modes() {
        use crate::lane::MultiUdpTransport;
        use crate::transport::NullTransport;

        let clock = VirtualClock::new();
        let mut engine = ParallelShardEngine::new(
            NullTransport,
            clock.clone(),
            EngineConfig {
                workers: 2,
                publish_every: Duration::ZERO,
                ..EngineConfig::default()
            },
            |_| SimpleAccrual::new(Timestamp::ZERO),
        );
        engine.watch(ProcessId::new(1)).unwrap();
        let multi = MultiUdpTransport::bind("127.0.0.1:0".parse().unwrap(), 2).unwrap();
        engine.start_lanes(multi.into_lanes()).unwrap();
        assert!(matches!(engine.tick(), Err(EngineError::NotLockstep)));
        engine.shutdown().unwrap();
        // Detector state survives; a plain free-running start still works
        // against the (null) engine transport.
        assert_eq!(engine.watch(ProcessId::new(1)), Ok(false));
        engine.start(EngineMode::FreeRunning).unwrap();
        engine.shutdown().unwrap();
    }

    #[test]
    fn shutdown_and_drop_are_idempotent_and_clean() {
        let (_tx, mut engine, _clock) = rig(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        engine.shutdown().unwrap(); // idle: no-op
        engine.start(EngineMode::Lockstep).unwrap();
        engine.shutdown().unwrap();
        engine.start(EngineMode::Lockstep).unwrap();
        // Dropped while running: Drop joins everything.
    }
}
