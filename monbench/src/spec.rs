//! The three workloads: what each offers, reads and checks.

use std::time::Duration;

/// Which detector every peer of a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// φ accrual with a `window`-sample window.
    Phi { window: usize },
    /// Elapsed-time accrual.
    Simple,
}

/// How the workload's peers encode heartbeats. Probes always use v1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Fixed 28-byte frames.
    V1,
    /// Delta frames with an intern frame every `resync_every` beats.
    V2 { resync_every: u32 },
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub detector: Detector,
    /// Peers beating at the nominal rate (probe peers are extra).
    pub peers: u32,
    /// Each peer's heartbeat interval at the nominal rate.
    pub interval: Duration,
    /// Worker publish cadence.
    pub publish_every: Duration,
    /// Slots in the intake→worker ring.
    pub ring_capacity: usize,
    /// Uniform `SnapshotReader::level` reads per second.
    pub read_hz: f64,
    pub wire: Wire,
    /// Share of workload frames lost on the path before the transport.
    pub path_loss: f64,
    /// Set-up restores a warmed checkpoint instead of watching afresh.
    pub restart: bool,
    /// The generator checkpoints into memory on this cadence.
    pub checkpoint_every: Option<Duration>,
    /// Dedicated probe peers and the range their gaps are drawn from.
    pub probes: u32,
    pub probe_gap: (Duration, Duration),
    /// How often the reader polls probes with a reset pending: the
    /// resolution of evidence age.
    pub probe_poll: Duration,
    /// Offered rates above nominal, ascending (heartbeats per second).
    /// Today's code sustains the lower step and fails the upper one by a
    /// wide margin on a 2-core host: a step near the knee would pass or
    /// fail with the host's scheduling from run to run.
    pub ladder: &'static [f64],
    /// A ladder step is sustained only if its evidence-age tail stays
    /// within this limit.
    pub age_limit_ms: f64,
    /// Level at or above which a read counts as a suspicion: φ 8, or
    /// three intervals of silence for elapsed-time accrual.
    pub threshold: f64,
    /// Timed set-ups per run; the median is reported.
    pub setups: usize,
    /// Untimed warm-up at the nominal rate before measuring.
    pub warmup: Duration,
    /// Epochs replayed through a `ShardedMonitor` in the traced run.
    pub replay_epochs: usize,
}

impl Spec {
    /// The nominal offered rate, heartbeats per second (probes aside).
    pub fn nominal_hbps(&self) -> f64 {
        f64::from(self.peers) / self.interval.as_secs_f64()
    }

    /// Every watched peer, probes included.
    pub fn watched(&self) -> u32 {
        self.peers + self.probes
    }

    /// The first probe peer's id; workload peers are `0..peers`.
    pub fn first_probe(&self) -> u32 {
        self.peers
    }
}

/// Generator lateness (p99 over send batches) beyond which a phase is
/// invalid: the offered rate was not the scheduled one.
pub const LATE_LIMIT_MS: f64 = 50.0;

/// Workload names, in the order the benchmark lists them.
pub const NAMES: [&str; 3] = ["hot", "flood", "fleet"];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Spec> {
    let ms = Duration::from_millis;
    match name {
        // 1k φ peers beating every 10 ms: the working set fits in cache
        // and reads run as fast as writes.
        "hot" => Some(Spec {
            name: "hot",
            detector: Detector::Phi { window: 100 },
            peers: 1_000,
            interval: ms(10),
            publish_every: ms(1),
            // Holds 160 ms of nominal intake, so a scheduler stall of the
            // worker on a shared host queues frames instead of evicting
            // them; the default 1024 slots (10 ms) evicted up to 0.3% at
            // the nominal rate for no reason in the monitor.
            ring_capacity: 1 << 14,
            read_hz: 200_000.0,
            wire: Wire::V1,
            path_loss: 0.0,
            restart: false,
            checkpoint_every: None,
            probes: 100,
            probe_gap: (ms(50), ms(150)),
            probe_poll: Duration::from_micros(50),
            ladder: &[150_000.0, 3_200_000.0],
            age_limit_ms: 20.0,
            threshold: 8.0,
            setups: 21,
            warmup: ms(1_000),
            replay_epochs: 500,
        }),
        // 250k elapsed-time peers in one shard, publish once a second:
        // the per-heartbeat accept path dominates.
        "flood" => Some(Spec {
            name: "flood",
            detector: Detector::Simple,
            peers: 250_000,
            interval: ms(2_500),
            publish_every: ms(1_000),
            // Holds 300 ms of nominal intake, so the once-a-second publish
            // of 250k rows stalls the worker without evicting: the accept
            // path, not publish, sets this workload's capacity.
            ring_capacity: 1 << 15,
            read_hz: 20_000.0,
            wire: Wire::V1,
            path_loss: 0.0,
            restart: false,
            checkpoint_every: None,
            probes: 1_000,
            probe_gap: (ms(3_000), ms(5_000)),
            probe_poll: ms(2),
            ladder: &[300_000.0, 1_200_000.0],
            age_limit_ms: 2_000.0,
            threshold: 7.5,
            setups: 5,
            warmup: ms(1_000),
            replay_epochs: 3,
        }),
        // 250k φ peers beating every 25 s behind a restart: full-table
        // publish dominates, deltas resync after the restore.
        "fleet" => Some(Spec {
            name: "fleet",
            detector: Detector::Phi { window: 100 },
            peers: 250_000,
            interval: ms(25_000),
            publish_every: ms(1),
            ring_capacity: 1024,
            read_hz: 20_000.0,
            wire: Wire::V2 { resync_every: 64 },
            path_loss: 0.01,
            restart: true,
            checkpoint_every: Some(ms(1_000)),
            probes: 500,
            probe_gap: (ms(1_000), ms(2_000)),
            probe_poll: Duration::from_micros(500),
            ladder: &[80_000.0, 1_280_000.0],
            age_limit_ms: 500.0,
            threshold: 8.0,
            setups: 3,
            warmup: ms(0),
            replay_epochs: 20,
        }),
        _ => None,
    }
}
