//! The live rig: engine set-up, the open-loop generator and the reader.
//!
//! Topology: one in-process `ChannelTransport` lane and one worker
//! (`ParallelShardEngine::start_lanes`), driven by two load threads — the
//! generator (the calling thread) and the reader (a scoped thread).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use afd_core::accrual::AccrualFailureDetector;
use afd_core::process::ProcessId;
use afd_core::time::{Duration as FdDuration, Timestamp};
use afd_detectors::phi::{PhiAccrual, PhiConfig};
use afd_detectors::simple::SimpleAccrual;
use afd_runtime::{
    ChannelTransport, CheckpointConfig, Checkpointer, Clock, DeltaEncoder, EngineConfig,
    FrameBatch, Heartbeat, MemSink, ParallelShardEngine, SnapshotReader, Transport, TransportError,
    VirtualClock, FRAME_LEN, MAX_V2_FRAME,
};

use crate::arith::{self, Ledger, ProbeRead, ProbeTrack, Step};
use crate::pin;
use crate::spec::{Detector, Spec, Wire, LATE_LIMIT_MS};
use crate::trace::{Spans, Stream};
use crate::wall;

/// Frames the transport channel holds before it drops the oldest.
const CHANNEL_CAP: usize = 1 << 16;
/// Every wait for the pipeline to settle gives up after this long.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(20);
/// Longest the generator sleeps between send batches.
const GEN_QUANTUM: Duration = Duration::from_micros(200);
/// Most frames the generator sends in one pass of its loop.
const GEN_BATCH: u64 = 2048;
/// The reader's pause between bursts of due reads and probe polls.
const READER_NAP: Duration = Duration::from_micros(50);
/// Reader cadence for the Accruement sweep over every probe peer.
const SWEEP_EVERY: Duration = Duration::from_millis(5);
/// Traced-run cadence for sampling the ring-depth gauge.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);
/// Traced-run cadence for sampling reader staleness; each sample copies
/// every shard's published table, so it runs ten times less often.
const STALENESS_EVERY: Duration = Duration::from_millis(20);
/// Full rounds of heartbeats `fleet` replays into its warm engine.
pub const FLEET_WARM_ROUNDS: u64 = 6;

/// Monotonic time on the workload's timeline. It stands still at
/// `shift` until [`resume`](Self::resume) — set-up takes no workload
/// time, so a restored engine meets its senders exactly on their rhythm
/// — and then runs on from `shift`.
#[derive(Debug, Clone)]
pub struct BenchClock {
    shift: u64,
    resumed: Arc<OnceLock<Instant>>,
}

impl BenchClock {
    pub fn frozen_at(shift: u64) -> Self {
        BenchClock {
            shift,
            resumed: Arc::new(OnceLock::new()),
        }
    }

    pub fn running_at(shift: u64) -> Self {
        let clock = BenchClock::frozen_at(shift);
        clock.resume();
        clock
    }

    pub fn resume(&self) {
        self.resumed.get_or_init(wall::now);
    }

    pub fn ns(&self) -> u64 {
        self.shift
            + self
                .resumed
                .get()
                .map_or(0, |t| t.elapsed().as_nanos() as u64)
    }
}

impl Clock for BenchClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_nanos(self.ns())
    }
}

/// SplitMix64: small, seedable and good enough for schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)` nanoseconds.
    pub fn between(&mut self, lo: Duration, hi: Duration) -> u64 {
        let (lo, hi) = (lo.as_nanos() as u64, hi.as_nanos() as u64);
        lo + (self.unit() * (hi - lo) as f64) as u64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A detector the rig can build for any workload.
pub trait BenchDetector: AccrualFailureDetector + Send + 'static {
    fn build(p: &DetParams, id: ProcessId, now: Timestamp) -> Self;
}

/// What a detector factory needs from the workload.
#[derive(Debug, Clone, Copy)]
pub struct DetParams {
    pub window: usize,
    pub interval: Duration,
    pub probe_gap_min: Duration,
    pub first_probe: u32,
}

impl DetParams {
    pub fn of(spec: &Spec) -> Self {
        DetParams {
            window: match spec.detector {
                Detector::Phi { window } => window,
                Detector::Simple => 1,
            },
            interval: spec.interval,
            probe_gap_min: spec.probe_gap.0,
            first_probe: spec.first_probe(),
        }
    }
}

impl BenchDetector for PhiAccrual {
    /// Workload peers get a `window`-sample φ that trusts its window
    /// after the default five samples. Probe peers keep φ's bootstrap
    /// prior for good (`min_samples` above the window) with a mean of a
    /// quarter of the shortest probe gap: their level is then a strictly
    /// increasing function of the time since their last probe, clearly
    /// positive by the next probe, so every reset shows as a decrease.
    fn build(p: &DetParams, id: ProcessId, _now: Timestamp) -> Self {
        let nanos = |d: Duration| FdDuration::from_nanos(d.as_nanos() as u64);
        let config = if id.as_u32() >= p.first_probe {
            PhiConfig {
                window_size: p.window,
                min_samples: p.window + 1,
                initial_interval: nanos(p.probe_gap_min / 4),
                ..PhiConfig::default()
            }
        } else {
            PhiConfig {
                window_size: p.window,
                initial_interval: nanos(p.interval),
                ..PhiConfig::default()
            }
        };
        PhiAccrual::new(config).expect("workload φ configuration is valid")
    }
}

impl BenchDetector for SimpleAccrual {
    fn build(_p: &DetParams, _id: ProcessId, now: Timestamp) -> Self {
        SimpleAccrual::new(now)
    }
}

/// The engine's lane: a channel endpoint that, when traced, samples the
/// channel depth on every drain. Its first drain binds the intake thread
/// to the placement's intake CPU.
pub struct DepthLane {
    inner: ChannelTransport,
    sample: Arc<AtomicBool>,
    depth_max: Arc<AtomicU64>,
    pin: Option<usize>,
}

impl DepthLane {
    fn new(inner: ChannelTransport, sample: Arc<AtomicBool>, depth_max: Arc<AtomicU64>) -> Self {
        DepthLane {
            inner,
            sample,
            depth_max,
            pin: pin::placement().map(|p| p.intake),
        }
    }
}

impl Transport for DepthLane {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.inner.send(frame)
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.inner.try_recv()
    }

    fn recv_batch(&mut self, batch: &mut FrameBatch) -> Result<usize, TransportError> {
        if let Some(cpu) = self.pin.take() {
            pin::bind_current(cpu);
        }
        if self.sample.load(Ordering::Relaxed) {
            let depth = self.inner.rx_depth() as u64;
            self.depth_max.fetch_max(depth, Ordering::Relaxed);
        }
        self.inner.recv_batch(batch)
    }
}

pub type Engine<D, C> = ParallelShardEngine<ChannelTransport, C, D>;

/// A started engine plus the handles the bench drives it through.
pub struct Monitor<D: BenchDetector> {
    pub engine: Engine<D, BenchClock>,
    pub feed: ChannelTransport,
    pub clock: BenchClock,
    /// Set while the traced run's nominal phase samples channel depth.
    pub depth_sampling: Arc<AtomicBool>,
    pub depth_max: Arc<AtomicU64>,
}

fn engine_config(spec: &Spec) -> EngineConfig {
    EngineConfig {
        workers: 1,
        slots_per_shard: spec.watched() as usize,
        ring_capacity: spec.ring_capacity,
        publish_every: FdDuration::from_nanos(spec.publish_every.as_nanos() as u64),
        ..EngineConfig::default()
    }
}

fn new_engine<D: BenchDetector, C: Clock + Clone + Send + 'static>(
    spec: &Spec,
    clock: C,
    config: EngineConfig,
) -> Engine<D, C> {
    let params = DetParams::of(spec);
    let (_, parked) = ChannelTransport::pair_bounded(1);
    let factory_clock = clock.clone();
    ParallelShardEngine::new(parked, clock, config, move |id| {
        D::build(&params, id, factory_clock.now())
    })
}

/// A stopped engine sized and configured for `spec`.
pub fn bare_engine<D: BenchDetector>(spec: &Spec, clock: BenchClock) -> Engine<D, BenchClock> {
    new_engine::<D, _>(spec, clock, engine_config(spec))
}

/// Starts `engine` on `lane` with its threads placed: the worker
/// inherits the worker CPU from the calling thread, the intake binds
/// itself on its first drain, and the calling thread — the generator,
/// and the reader it spawns later — ends on the load CPU.
fn start_placed<D: BenchDetector, C: Clock + Clone + Send + 'static>(
    engine: &mut Engine<D, C>,
    lane: DepthLane,
) -> Result<(), afd_runtime::EngineError> {
    let place = pin::placement();
    if let Some(p) = place {
        pin::bind_current(p.worker);
    }
    let started = engine.start_lanes(vec![lane]);
    if let Some(p) = place {
        pin::bind_current(p.load);
    }
    started
}

fn start<D: BenchDetector>(
    mut engine: Engine<D, BenchClock>,
    clock: BenchClock,
    last: u32,
) -> Result<Monitor<D>, String> {
    let (feed, lane) = ChannelTransport::pair_bounded(CHANNEL_CAP);
    let depth_sampling = Arc::new(AtomicBool::new(false));
    let depth_max = Arc::new(AtomicU64::new(0));
    let lane = DepthLane::new(lane, Arc::clone(&depth_sampling), Arc::clone(&depth_max));
    start_placed(&mut engine, lane).map_err(|e| format!("start_lanes: {e}"))?;
    // Set-up ends when readers can see every watched peer: the worker's
    // first publish after start.
    let reader = engine.reader();
    let deadline = wall::now() + SETTLE_TIMEOUT;
    while reader.level(ProcessId::new(0)).is_none() || reader.level(ProcessId::new(last)).is_none()
    {
        if wall::now() > deadline {
            return Err("no epoch published after start".into());
        }
        // Sleep, not spin: the engine's threads need both cores now.
        wall::nap(Duration::from_micros(20));
    }
    Ok(Monitor {
        engine,
        feed,
        clock,
        depth_sampling,
        depth_max,
    })
}

/// Fresh set-up: a new engine, a `watch` of every peer, and start.
pub fn setup_fresh<D: BenchDetector>(spec: &Spec, clock: BenchClock) -> Result<Monitor<D>, String> {
    let mut engine = bare_engine::<D>(spec, clock.clone());
    for id in 0..spec.watched() {
        engine
            .watch(ProcessId::new(id))
            .map_err(|e| format!("watch: {e}"))?;
    }
    start(engine, clock, spec.watched() - 1)
}

/// Restart set-up: `Checkpointer::restore`, the engine's bulk restore,
/// a fresh `watch` of the probe peers (they are not in the checkpoint),
/// and start. Returns the monitor and the restore time alone.
pub fn setup_restore<D: BenchDetector>(
    spec: &Spec,
    clock: BenchClock,
    sink: MemSink,
) -> Result<(Monitor<D>, f64), String> {
    let t0 = wall::now();
    let mut ckpt = Checkpointer::new(sink, CheckpointConfig::default());
    let restored = ckpt.restore(&clock).map_err(|e| format!("restore: {e}"))?;
    let mut engine = bare_engine::<D>(spec, clock.clone());
    let import = engine
        .restore(&restored.peers)
        .map_err(|e| format!("engine restore: {e}"))?;
    let restore_s = t0.elapsed().as_secs_f64();
    if import.watched != u64::from(spec.peers) || import.capacity_rejected != 0 {
        return Err(format!(
            "restore imported {import:?} of {} peers",
            spec.peers
        ));
    }
    for id in spec.first_probe()..spec.watched() {
        engine
            .watch(ProcessId::new(id))
            .map_err(|e| format!("watch: {e}"))?;
    }
    Ok((start(engine, clock, spec.watched() - 1)?, restore_s))
}

/// The workload's senders: a seeded round-robin order over the peers,
/// their sequence numbers and, for v2, their running delta encoders.
pub struct Senders {
    order: Vec<u32>,
    pos: usize,
    seqs: Vec<u64>,
    encoders: Vec<DeltaEncoder>,
    loss: Rng,
    path_loss: f64,
    probe_seqs: Vec<u64>,
}

impl Senders {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let mut order: Vec<u32> = (0..spec.peers).collect();
        rng.shuffle(&mut order);
        let mut seqs = vec![1u64; spec.peers as usize];
        let encoders = match spec.wire {
            Wire::V1 => Vec::new(),
            Wire::V2 { resync_every } => (0..spec.peers)
                .map(|id| {
                    // A sender that has been running for a while: its
                    // next intern frame is a seeded 1..=resync beats away.
                    let mut enc =
                        DeltaEncoder::new(ProcessId::new(id), id, spec.interval, resync_every);
                    let pre = rng.below(u64::from(resync_every));
                    let mut buf = [0u8; MAX_V2_FRAME];
                    for _ in 0..pre {
                        let hb = heartbeat(id, seqs[id as usize], 0);
                        enc.encode(&hb, &mut buf);
                        seqs[id as usize] += 1;
                    }
                    enc
                })
                .collect(),
        };
        Senders {
            order,
            pos: 0,
            seqs,
            encoders,
            loss: Rng::new(seed, 2),
            path_loss: spec.path_loss,
            probe_seqs: vec![1u64; spec.probes as usize],
        }
    }

    /// The next round-robin heartbeat, scheduled at `sched_ns`.
    fn next(&mut self, sched_ns: u64) -> Heartbeat {
        let id = self.order[self.pos];
        self.pos = (self.pos + 1) % self.order.len();
        let seq = self.seqs[id as usize];
        self.seqs[id as usize] += 1;
        heartbeat(id, seq, sched_ns)
    }

    /// Encodes `hb` in the workload's wire format into `buf`, returning
    /// the frame length; a v2 sender's encoder advances.
    fn encode(&mut self, hb: &Heartbeat, buf: &mut [u8; MAX_V2_FRAME], spans: &mut Spans) -> usize {
        let t0 = spans.start();
        let n = match self.encoders.get_mut(hb.sender.as_u32() as usize) {
            Some(encoder) => encoder.encode(hb, buf),
            None => {
                buf[..FRAME_LEN].copy_from_slice(&hb.encode());
                FRAME_LEN
            }
        };
        spans.end("wire.encode", t0);
        n
    }

    /// Whether the path loses the frame about to be sent.
    fn path_lost(&mut self) -> bool {
        self.path_loss > 0.0 && self.loss.unit() < self.path_loss
    }

    fn probe_frame(
        &mut self,
        spec: &Spec,
        probe: usize,
        sched_ns: u64,
    ) -> [u8; afd_runtime::FRAME_LEN] {
        let seq = self.probe_seqs[probe];
        self.probe_seqs[probe] += 1;
        heartbeat(spec.first_probe() + probe as u32, seq, sched_ns).encode()
    }
}

fn heartbeat(id: u32, seq: u64, sent_ns: u64) -> Heartbeat {
    Heartbeat {
        sender: ProcessId::new(id),
        seq,
        sent_at: Timestamp::from_nanos(sent_ns),
    }
}

/// Builds `fleet`'s pre-restart history, untimed: a warm engine on a
/// virtual clock takes [`FLEET_WARM_ROUNDS`] rounds of heartbeats, then
/// checkpoints into memory. The history travels as v1 while each
/// sender's delta encoder runs alongside, so the restarted monitor meets
/// encoders mid-cycle, as after a real restart, whatever the warm
/// engine's own decoder learned. Returns the checkpoint and
/// the virtual time the history ends at.
pub fn warm_checkpoint<D: BenchDetector>(
    spec: &Spec,
    senders: &mut Senders,
) -> Result<(MemSink, u64), String> {
    const CHUNK: u64 = 4096;
    const BACKLOG: u64 = 16_384;
    let clock = VirtualClock::new();
    let t0 = 1_000_000_000u64;
    clock.set(Timestamp::from_nanos(t0));
    let warm_spec = Spec {
        probes: 0,
        ..spec.clone()
    };
    let config = EngineConfig {
        ring_capacity: 1 << 16,
        publish_every: FdDuration::from_secs(1_000_000),
        ..engine_config(&warm_spec)
    };
    let mut engine = new_engine::<D, _>(&warm_spec, clock.clone(), config);
    for id in 0..spec.peers {
        engine
            .watch(ProcessId::new(id))
            .map_err(|e| format!("warm watch: {e}"))?;
    }
    let (mut feed, lane) = ChannelTransport::pair_bounded(CHANNEL_CAP);
    let lane = DepthLane::new(lane, Arc::default(), Arc::default());
    start_placed(&mut engine, lane).map_err(|e| format!("warm start: {e}"))?;
    let period = spec.interval.as_nanos() as u64 / u64::from(spec.peers);
    let total = FLEET_WARM_ROUNDS * u64::from(spec.peers);
    let mut discard = [0u8; MAX_V2_FRAME];
    let mut spans = Spans::off();
    let mut sent = 0u64;
    let mut k = 0u64;
    let deadline = wall::now() + Duration::from_secs(60);
    while k < total {
        let end = (k + CHUNK).min(total);
        clock.set(Timestamp::from_nanos(t0 + end * period));
        for j in k..end {
            let hb = senders.next(t0 + j * period);
            senders.encode(&hb, &mut discard, &mut spans);
            feed.send(&hb.encode())
                .map_err(|e| format!("warm send: {e}"))?;
            sent += 1;
        }
        k = end;
        // Advance the clock only once intake has stamped this chunk, and
        // keep the worker's backlog well inside its ring.
        loop {
            let s = engine.stats();
            if s.intake_frames + s.totals.corrupt >= sent && s.totals.accepted + BACKLOG >= sent {
                break;
            }
            if wall::now() > deadline {
                return Err(format!("warm stalled: {s:?}"));
            }
            std::thread::yield_now();
        }
    }
    while engine.stats().totals.accepted < sent {
        if wall::now() > deadline {
            return Err(format!("warm drain stalled: {:?}", engine.stats()));
        }
        wall::nap(Duration::from_millis(1));
    }
    engine
        .shutdown()
        .map_err(|e| format!("warm shutdown: {e}"))?;
    let s = engine.stats();
    if s.totals.accepted != sent || s.ring_dropped != 0 || feed.tx_dropped() != 0 {
        return Err(format!("warm lost frames: sent {sent}, {s:?}"));
    }
    let mut ckpt = Checkpointer::new(MemSink::new(), CheckpointConfig::default());
    engine
        .checkpoint(&mut ckpt)
        .map_err(|e| format!("warm checkpoint: {e}"))?;
    Ok((ckpt.into_sink(), clock.now().as_nanos()))
}

/// One phase of the generator's schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    pub kind: PhaseKind,
    pub rate_hbps: f64,
    pub duration: Duration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    Warmup,
    Nominal,
    Ladder,
}

/// Signals from the generator to the reader for one probe peer.
#[derive(Default)]
struct ProbeSignal {
    sent: AtomicU64,
    sched: AtomicU64,
    phase: AtomicU64,
}

/// State shared between the generator and the reader.
struct Shared {
    /// Phase index the reader attributes uniform reads to; `IDLE` while
    /// the generator settles between phases.
    phase: AtomicUsize,
    stop: AtomicBool,
    probes: Vec<ProbeSignal>,
    observed: AtomicU64,
}

const IDLE: usize = usize::MAX;

/// What the reader saw in one phase.
#[derive(Debug, Default, Clone)]
pub struct PhaseReads {
    pub read_ns: Vec<f64>,
    pub suspected: u64,
    pub missing: u64,
    pub ages_ms: Vec<f64>,
    /// Probes overtaken by a later probe before their reset showed.
    pub probes_lost: u64,
}

/// What the reader saw over a run.
#[derive(Debug, Default)]
pub struct ReaderOut {
    pub phases: Vec<PhaseReads>,
    pub violations: u64,
    pub missing_probe_levels: u64,
    pub staleness_ms: Vec<f64>,
    pub lagged_reads: u64,
}

/// What one phase did, as the generator measured it.
#[derive(Debug, Clone, Default)]
pub struct PhaseOut {
    pub kind: Option<PhaseKind>,
    pub rate_hbps: f64,
    pub seconds: f64,
    pub ledger: Ledger,
    pub bytes: u64,
    pub late_ms: Vec<f64>,
    pub probes_sent: u64,
    pub probes_unseen: u64,
}

/// What a whole run measured.
pub struct RunOut {
    pub phases: Vec<PhaseOut>,
    pub reads: ReaderOut,
    pub ring_depth_max: f64,
    pub worker_busy: f64,
    pub stage_decode_ns: u64,
    pub stage_route_ns: u64,
    pub stage_update_ns: u64,
    pub lane_frames: u64,
    pub checkpoint_ms: Vec<f64>,
    pub checkpoint_bytes: u64,
    pub rss_mb: f64,
    pub missing_at_end: u64,
    /// The nominal phase's frames, recorded in the traced run.
    pub stream: Stream,
    pub spans: Spans,
}

/// The ledger as the engine, the channel and the generator count it.
fn ledger<D: BenchDetector>(m: &Monitor<D>, offered: u64) -> Ledger {
    let s = m.engine.stats();
    Ledger {
        offered,
        accepted: s.totals.accepted,
        stale: s.totals.stale,
        duplicate: s.totals.duplicate,
        unwatched: s.totals.unwatched,
        decode_rejected: s.totals.corrupt,
        ring_evicted: s.ring_dropped,
        channel_dropped: m.feed.tx_dropped(),
    }
}

/// Waits until every offered frame sits in a ledger bucket (the
/// quiescence rule) and every probe sent has been seen by the reader,
/// or, if frames were evicted, until the wait times out.
fn settle<D: BenchDetector>(
    m: &Monitor<D>,
    shared: &Shared,
    offered: u64,
    probes_sent: u64,
    publish_every: Duration,
) -> Result<(Ledger, u64), String> {
    let deadline = wall::now() + SETTLE_TIMEOUT;
    let l = loop {
        let l = ledger(m, offered);
        if l.balanced() {
            break l;
        }
        if l.accounted() > l.offered || wall::now() > deadline {
            return Err(format!("frame conservation failed: {l:?}"));
        }
        wall::nap(Duration::from_micros(200));
    };
    // A probe's reset shows at the next publish after it is accepted.
    let probe_deadline = wall::now() + publish_every * 3 + Duration::from_secs(2);
    loop {
        let seen = shared.observed.load(Ordering::Acquire);
        if seen >= probes_sent {
            return Ok((l, 0));
        }
        if wall::now() > probe_deadline {
            return Ok((l, probes_sent - seen));
        }
        wall::nap(Duration::from_micros(200));
    }
}

fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs every phase against a started monitor and returns what the
/// generator, the reader and the engine's counters recorded.
pub fn drive<D: BenchDetector>(
    spec: &Spec,
    m: &mut Monitor<D>,
    senders: &mut Senders,
    phases: &[Phase],
    seed: u64,
    traced: bool,
) -> Result<RunOut, String> {
    let shared = Shared {
        phase: AtomicUsize::new(IDLE),
        stop: AtomicBool::new(false),
        probes: (0..spec.probes).map(|_| ProbeSignal::default()).collect(),
        observed: AtomicU64::new(0),
    };
    let reader = m.engine.reader();
    m.clock.resume();
    let clock = m.clock.clone();
    std::thread::scope(|scope| {
        let shared = &shared;
        let reader_thread =
            scope.spawn(move || read_loop(spec, &reader, clock, shared, phases, seed, traced));
        let generated = generate(spec, m, senders, phases, seed, traced, shared);
        shared.stop.store(true, Ordering::Release);
        let reads = reader_thread
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        let mut out = generated?;
        out.reads = reads;
        Ok(out)
    })
}

fn generate<D: BenchDetector>(
    spec: &Spec,
    m: &mut Monitor<D>,
    senders: &mut Senders,
    phases: &[Phase],
    seed: u64,
    traced: bool,
    shared: &Shared,
) -> Result<RunOut, String> {
    let mut spans = if traced { Spans::on() } else { Spans::off() };
    let mut probe_rng = Rng::new(seed, 3);
    let mut buf = [0u8; MAX_V2_FRAME];
    let registry = afd_obs::Registry::new();
    let mut ckpt = Checkpointer::new(MemSink::new(), CheckpointConfig::default());
    let mut out = RunOut {
        phases: Vec::new(),
        reads: ReaderOut::default(),
        ring_depth_max: 0.0,
        worker_busy: 0.0,
        stage_decode_ns: 0,
        stage_route_ns: 0,
        stage_update_ns: 0,
        lane_frames: 0,
        checkpoint_ms: Vec::new(),
        checkpoint_bytes: 0,
        rss_mb: 0.0,
        missing_at_end: 0,
        stream: Stream::default(),
        spans: Spans::off(),
    };
    let mut offered = 0u64;
    let mut probes_sent = 0u64;
    // Prime every probe peer with one untracked heartbeat: before its
    // first heartbeat a φ level is zero, so a first probe could not show
    // as a decrease.
    for p in 0..spec.probes as usize {
        let frame = senders.probe_frame(spec, p, m.clock.ns());
        m.feed.send(&frame).map_err(|e| format!("send: {e}"))?;
        offered += 1;
    }
    let (mut before, _) = settle(m, shared, offered, 0, spec.publish_every)?;
    let stage_before = m.engine.stats();
    let mut next_ckpt = spec
        .checkpoint_every
        .map(|every| m.clock.ns() + every.as_nanos() as u64);
    // Each probe peer keeps one seeded schedule across phases, and every
    // gap, the first included, is at least the minimum: a probe's reset
    // then always shows as a decrease of its level.
    let first = m.clock.ns();
    let mut next_probe: Vec<u64> = (0..spec.probes)
        .map(|_| first + probe_rng.between(spec.probe_gap.0, spec.probe_gap.1))
        .collect();
    for (idx, phase) in phases.iter().enumerate() {
        let period = 1e9 / phase.rate_hbps;
        let start = m.clock.ns();
        let end = start + phase.duration.as_nanos() as u64;
        for at in &mut next_probe {
            *at = (*at).max(start);
        }
        let mut k = 0u64;
        let mut po = PhaseOut {
            kind: Some(phase.kind),
            rate_hbps: phase.rate_hbps,
            late_ms: Vec::with_capacity(phase.duration.as_micros() as usize / 50),
            ..PhaseOut::default()
        };
        let probes_before = probes_sent;
        let mut next_sample = start;
        let record = traced && phase.kind == PhaseKind::Nominal;
        m.depth_sampling.store(record, Ordering::Relaxed);
        shared.phase.store(idx, Ordering::Release);
        loop {
            let now = m.clock.ns();
            if now >= end {
                break;
            }
            // At most one batch per pass, so a generator that falls
            // behind shows as growing lateness rather than one long pass.
            let due = (((now - start) as f64 / period) as u64 + 1).min(k + GEN_BATCH);
            let batch_first = k;
            while k < due {
                let sched = start + (k as f64 * period) as u64;
                k += 1;
                let hb = senders.next(sched);
                let n = senders.encode(&hb, &mut buf, &mut spans);
                if !senders.path_lost() {
                    let t0 = spans.start();
                    m.feed.send(&buf[..n]).map_err(|e| format!("send: {e}"))?;
                    spans.end("transport.send", t0);
                    offered += 1;
                    po.bytes += n as u64;
                    if record {
                        out.stream.push(&buf[..n], sched);
                    }
                }
            }
            if k > batch_first {
                // The batch's first frame was the latest to leave.
                let sched = start + (batch_first as f64 * period) as u64;
                po.late_ms
                    .push(m.clock.ns().saturating_sub(sched) as f64 / 1e6);
            }
            let mut next_event = start + (k as f64 * period) as u64;
            for (p, at) in next_probe.iter_mut().enumerate() {
                if *at <= now {
                    let sched = *at;
                    let frame = senders.probe_frame(spec, p, sched);
                    let sig = &shared.probes[p];
                    sig.sched.store(sched, Ordering::Relaxed);
                    sig.phase.store(idx as u64, Ordering::Relaxed);
                    // Signal before sending: a reset the reader sees is
                    // then always preceded by its pending probe.
                    sig.sent.fetch_add(1, Ordering::Release);
                    m.feed.send(&frame).map_err(|e| format!("send: {e}"))?;
                    offered += 1;
                    probes_sent += 1;
                    po.bytes += frame.len() as u64;
                    if record {
                        out.stream.push(&frame, sched);
                    }
                    *at = sched + probe_rng.between(spec.probe_gap.0, spec.probe_gap.1);
                }
                next_event = next_event.min(*at);
            }
            if let Some(at) = next_ckpt {
                if now >= at {
                    let t0 = wall::now();
                    let report = m
                        .engine
                        .checkpoint(&mut ckpt)
                        .map_err(|e| format!("checkpoint: {e}"))?;
                    let took = t0.elapsed();
                    spans.record("persist.checkpoint", took.as_nanos() as u64);
                    out.checkpoint_ms.push(took.as_secs_f64() * 1e3);
                    out.checkpoint_bytes = report.bytes as u64;
                    let every = spec.checkpoint_every.unwrap_or_default().as_nanos() as u64;
                    next_ckpt = Some(at + every);
                }
            }
            if record && now >= next_sample {
                let t0 = spans.start();
                m.engine.export_metrics(&registry);
                spans.end("engine.export_metrics", t0);
                let depth = registry.gauge("engine.worker.0.ring_depth").get();
                out.ring_depth_max = out.ring_depth_max.max(depth);
                next_sample = now + SAMPLE_EVERY.as_nanos() as u64;
            }
            let now = m.clock.ns();
            if next_event > now {
                let wait = Duration::from_nanos(next_event - now).min(GEN_QUANTUM);
                if wait > Duration::from_micros(50) {
                    wall::nap(wait);
                } else {
                    std::thread::yield_now();
                }
            }
        }
        po.seconds = (m.clock.ns() - start) as f64 / 1e9;
        m.depth_sampling.store(false, Ordering::Relaxed);
        shared.phase.store(IDLE, Ordering::Release);
        let (after, unseen) = settle(m, shared, offered, probes_sent, spec.publish_every)?;
        po.ledger = after.since(&before);
        po.probes_sent = probes_sent - probes_before;
        po.probes_unseen = unseen;
        before = after;
        let evicted = po.ledger.ring_evicted + po.ledger.channel_dropped;
        let po_offered = po.ledger.offered;
        if phase.kind == PhaseKind::Nominal {
            m.engine.export_metrics(&registry);
            out.worker_busy = registry.gauge("engine.worker.0.utilization").get();
            // Before the ladder's overload steps fill the queues.
            out.rss_mb = rss_mb();
        }
        out.phases.push(po);
        // A step past the allowance ends the climb: its backlog would
        // spill into the next step.
        if phase.kind == PhaseKind::Ladder
            && evicted as f64 > arith::EVICTION_ALLOWANCE * po_offered as f64
        {
            break;
        }
    }
    let stage = m.engine.stats();
    out.stage_decode_ns = stage.stage.decode - stage_before.stage.decode;
    out.stage_route_ns = stage.stage.route - stage_before.stage.route;
    out.stage_update_ns = stage.stage.update - stage_before.stage.update;
    out.lane_frames = stage.per_lane_frames.iter().sum::<u64>()
        + stage.per_lane_corrupt.iter().sum::<u64>()
        - stage_before.per_lane_frames.iter().sum::<u64>()
        - stage_before.per_lane_corrupt.iter().sum::<u64>();
    let snapshot = m.engine.reader().snapshot();
    let watched = spec.watched() as usize;
    let present = snapshot
        .iter()
        .filter(|(p, _)| (p.as_u32() as usize) < watched)
        .count();
    out.missing_at_end = (watched - present.min(watched)) as u64;
    out.spans = spans;
    Ok(out)
}

/// The reader's view of every probe peer.
struct ProbeTracks {
    tracks: Vec<ProbeTrack>,
    /// Probes of each peer the reader has registered.
    seen: Vec<u64>,
    /// Peers with a probe awaiting its reset.
    pending: Vec<usize>,
}

impl ProbeTracks {
    fn new(probes: usize) -> Self {
        ProbeTracks {
            tracks: vec![ProbeTrack::default(); probes],
            seen: vec![0; probes],
            pending: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.tracks.len()
    }

    /// Registers probe peer `p`'s newly signalled probes.
    fn sync(&mut self, p: usize, shared: &Shared) {
        let sig = &shared.probes[p];
        let sent = sig.sent.load(Ordering::Acquire);
        if sent > self.seen[p] {
            let sched = sig.sched.load(Ordering::Relaxed);
            let tag = sig.phase.load(Ordering::Relaxed) as usize;
            for _ in self.seen[p]..sent {
                self.tracks[p].sent(sched, tag);
            }
            self.seen[p] = sent;
            if !self.pending.contains(&p) {
                self.pending.push(p);
            }
        }
    }
}

fn read_loop(
    spec: &Spec,
    reader: &SnapshotReader,
    clock: BenchClock,
    shared: &Shared,
    phases: &[Phase],
    seed: u64,
    traced: bool,
) -> ReaderOut {
    let mut rng = Rng::new(seed, 4);
    // Sized up front, so the samples' memory does not vary resident size
    // from run to run.
    let mut out = ReaderOut {
        phases: phases
            .iter()
            .map(|p| PhaseReads {
                read_ns: Vec::with_capacity(
                    (spec.read_hz * p.duration.as_secs_f64() * 1.1) as usize,
                ),
                ..PhaseReads::default()
            })
            .collect(),
        ..ReaderOut::default()
    };
    let mut tracks = ProbeTracks::new(spec.probes as usize);
    let read_period = (1e9 / spec.read_hz) as u64;
    let poll_every = spec.probe_poll.as_nanos() as u64;
    let mut next_read = clock.ns();
    let mut next_poll = next_read;
    let mut next_sweep = next_read;
    let mut next_sample = next_read;
    let first_probe = spec.first_probe();
    while !shared.stop.load(Ordering::Acquire) {
        let now = clock.ns();
        let phase = shared.phase.load(Ordering::Acquire);
        // Uniform reads of live workload peers, on a fixed schedule.
        if now >= next_read {
            if now - next_read > 10_000_000 {
                // More than 10 ms behind: skip ahead, and count it.
                out.lagged_reads += (now - next_read) / read_period;
                next_read = now;
            }
            while next_read <= now {
                next_read += read_period;
                let id = ProcessId::new(rng.below(u64::from(spec.peers)) as u32);
                let t0 = wall::now();
                let level = reader.level(id);
                let dt = t0.elapsed().as_nanos() as f64;
                if phase != IDLE {
                    let ph = &mut out.phases[phase];
                    ph.read_ns.push(dt);
                    match level {
                        Some(l) if l.value() >= spec.threshold => ph.suspected += 1,
                        Some(_) => {}
                        None => ph.missing += 1,
                    }
                }
                black_box(level);
            }
        }
        for p in 0..tracks.len() {
            tracks.sync(p, shared);
        }
        let sweep = now >= next_sweep;
        if sweep || now >= next_poll {
            let targets: Vec<usize> = if sweep {
                (0..tracks.len()).collect()
            } else {
                tracks.pending.clone()
            };
            for p in targets {
                let id = ProcessId::new(first_probe + p as u32);
                let Some(level) = reader.level(id) else {
                    out.missing_probe_levels += 1;
                    continue;
                };
                // Sync after reading the level: a reset visible in the
                // level implies its probe's signal is visible here.
                tracks.sync(p, shared);
                match tracks.tracks[p].read(level.value(), clock.ns()) {
                    ProbeRead::Quiet => {}
                    ProbeRead::Violation => out.violations += 1,
                    ProbeRead::Reset { age_ns, tag, lost } => {
                        if let Some(ph) = out.phases.get_mut(tag) {
                            ph.ages_ms.push(age_ns as f64 / 1e6);
                        }
                        for t in &lost {
                            if let Some(ph) = out.phases.get_mut(*t) {
                                ph.probes_lost += 1;
                            }
                        }
                        shared
                            .observed
                            .fetch_add(1 + lost.len() as u64, Ordering::Release);
                        tracks.pending.retain(|&q| q != p);
                    }
                }
            }
            next_poll = now + poll_every;
            if sweep {
                next_sweep = now + SWEEP_EVERY.as_nanos() as u64;
            }
        }
        let nominal = phases
            .get(phase)
            .is_some_and(|p| p.kind == PhaseKind::Nominal);
        if traced && nominal && now >= next_sample {
            let published = reader.published_at().as_nanos();
            out.staleness_ms
                .push(clock.ns().saturating_sub(published) as f64 / 1e6);
            next_sample = now + STALENESS_EVERY.as_nanos() as u64;
        }
        // Sleep between bursts rather than spin or yield: the engine's
        // threads get the core, and every burst starts from the same
        // cold-cache state whichever thread the reader shares a core with.
        wall::nap(READER_NAP);
    }
    out
}

/// The ladder as measured: the nominal phase first, then each step.
pub fn steps(phases: &[PhaseOut], reads: &ReaderOut) -> Vec<Step> {
    phases
        .iter()
        .zip(&reads.phases)
        .filter(|(p, _)| matches!(p.kind, Some(PhaseKind::Nominal | PhaseKind::Ladder)))
        .map(|(p, r)| {
            let ages = arith::sorted(r.ages_ms.clone());
            let late = arith::sorted(p.late_ms.clone());
            let late_tail = arith::percentile(&late, 0.99).or_else(|| late.last().copied());
            Step {
                offered_hbps: p.rate_hbps,
                offered: p.ledger.offered,
                achieved_hbps: p.ledger.offered as f64 / p.seconds.max(1e-9),
                evicted: p.ledger.ring_evicted + p.ledger.channel_dropped,
                age_tail_ms: arith::percentile(&ages, 0.9),
                valid: late_tail.is_some_and(|l| l <= LATE_LIMIT_MS),
            }
        })
        .collect()
}
