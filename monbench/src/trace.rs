//! The traced run's instruments: span aggregates around the bench's own
//! calls, the single-threaded replay that attributes wall time to
//! layers, the wire re-decode by error kind, and standalone detector
//! costs. All of it measures from outside the program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use afd_core::process::ProcessId;
use afd_core::time::Timestamp;
use afd_runtime::{
    ChannelTransport, CheckpointConfig, Checkpointer, Clock, MemSink, ShardConfig, ShardedMonitor,
    Transport, WireDecoder, WireError,
};

use crate::rig::{BenchClock, BenchDetector, DetParams, Rng};
use crate::spec::Spec;
use crate::wall;

/// Count, total and maximum duration of one named span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// In-memory span aggregates, keyed by layer boundary. A disabled set
/// records nothing and reads no clock.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    on: bool,
    map: BTreeMap<&'static str, SpanAgg>,
}

impl Spans {
    pub fn on() -> Self {
        Spans {
            on: true,
            map: BTreeMap::new(),
        }
    }

    pub fn off() -> Self {
        Spans::default()
    }

    pub fn start(&self) -> Option<Instant> {
        self.on.then(wall::now)
    }

    pub fn end(&mut self, name: &'static str, started: Option<Instant>) {
        if let Some(t0) = started {
            self.record(name, t0.elapsed().as_nanos() as u64);
        }
    }

    pub fn record(&mut self, name: &'static str, ns: u64) {
        if !self.on {
            return;
        }
        let agg = self.map.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += ns;
        agg.max_ns = agg.max_ns.max(ns);
    }

    /// Mean nanoseconds per span, if any were recorded.
    pub fn mean_ns(&self, name: &str) -> Option<f64> {
        self.map
            .get(name)
            .filter(|a| a.count > 0)
            .map(|a| a.total_ns as f64 / a.count as f64)
    }

    /// One JSON object, `{name: {count, total_ns, max_ns}}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .map
            .iter()
            .map(|(k, a)| {
                format!(
                    "\"{k}\": {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                    a.count, a.total_ns, a.max_ns
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The frames the generator handed to the transport, in order, packed
/// into one buffer, with each frame's scheduled send time.
#[derive(Debug, Default)]
pub struct Stream {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    sched: Vec<u64>,
}

impl Stream {
    pub fn push(&mut self, frame: &[u8], sched_ns: u64) {
        self.bytes.extend_from_slice(frame);
        self.ends.push(self.bytes.len());
        self.sched.push(sched_ns);
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    pub fn frames(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.frame(i))
    }
}

/// Decode outcomes of the delivered stream, re-decoded by the bench.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeKinds {
    pub unknown_intern: u64,
    pub checksum: u64,
    pub other: u64,
    pub ns_per_frame: f64,
}

impl DecodeKinds {
    pub fn rejected(&self) -> u64 {
        self.unknown_intern + self.checksum + self.other
    }
}

/// Re-decodes `stream` with a fresh `WireDecoder` — the state the
/// engine's lane decoder starts from — and counts failures by kind.
pub fn redecode(stream: &Stream) -> DecodeKinds {
    let mut decoder = WireDecoder::new();
    let mut kinds = DecodeKinds::default();
    let t0 = wall::now();
    for frame in stream.frames() {
        match decoder.decode(frame) {
            Ok(hb) => {
                black_box(hb);
            }
            Err(WireError::UnknownIntern(_)) => kinds.unknown_intern += 1,
            Err(WireError::ChecksumMismatch) => kinds.checksum += 1,
            Err(_) => kinds.other += 1,
        }
    }
    kinds.ns_per_frame = t0.elapsed().as_nanos() as f64 / stream.len().max(1) as f64;
    kinds
}

/// Layer self-times of the single-threaded replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub epochs: usize,
    pub frames: usize,
    pub wall_ns: f64,
    pub feed_ns: f64,
    pub decode_ns: f64,
    pub accept_ns: f64,
    pub publish_ns: f64,
    /// Mean wall time of one empty tick: publish alone.
    pub publish_ms: f64,
}

impl Replay {
    /// Replay wall time not covered by any layer's self-time, as a
    /// share of the wall time.
    pub fn residual_frac(&self) -> f64 {
        let covered = self.feed_ns + self.decode_ns + self.accept_ns + self.publish_ns;
        (self.wall_ns - covered) / self.wall_ns.max(1.0)
    }
}

/// Replays the first `spec.replay_epochs` publish epochs of the
/// delivered stream through a one-shard `ShardedMonitor` with the same
/// peers, detector and publish cadence. Each epoch feeds its frames,
/// runs `tick()` (its `TickReport.dispatch` is the accept time), then
/// an empty `tick()` whose wall time is publish alone; the non-empty
/// tick's own publish is taken to cost the same. Decode is attributed
/// at `decode_ns_per_frame`, the bench's own re-decode rate.
pub fn replay<D: BenchDetector>(
    spec: &Spec,
    stream: &Stream,
    restore_from: Option<MemSink>,
    clock: BenchClock,
    decode_ns_per_frame: f64,
) -> Result<Replay, String> {
    let epoch_ns = spec.publish_every.as_nanos() as u64;
    let sched = &stream.sched;
    let first = *sched.first().ok_or("replay: empty stream")?;
    // A probe can leave just after workload frames scheduled later than
    // it, so the send order is only nearly sorted by schedule: an epoch
    // runs until the first frame scheduled past it.
    let epoch_of = |i: usize| sched[i].saturating_sub(first) / epoch_ns;
    let mut epochs: Vec<(usize, usize)> = Vec::new();
    let mut lo = 0usize;
    while lo < stream.len() && epochs.len() < spec.replay_epochs {
        let epoch = epoch_of(lo);
        let mut hi = lo;
        while hi < stream.len() && epoch_of(hi) <= epoch {
            hi += 1;
        }
        epochs.push((lo, hi));
        lo = hi;
    }
    let widest = epochs.iter().map(|(a, b)| b - a).max().unwrap_or(1);
    let (mut feed, rx) = ChannelTransport::pair_bounded(widest + 1);
    let params = DetParams::of(spec);
    let mut monitor = ShardedMonitor::new(
        rx,
        clock.clone(),
        ShardConfig {
            shards: 1,
            slots_per_shard: spec.watched() as usize,
        },
        {
            let clock = clock.clone();
            move |id| D::build(&params, id, clock.now())
        },
    );
    let probes_from = match restore_from {
        Some(sink) => {
            let mut ckpt = Checkpointer::new(sink, CheckpointConfig::default());
            let restored = ckpt
                .restore(&clock)
                .map_err(|e| format!("replay restore: {e}"))?;
            monitor.restore(&restored.peers);
            spec.first_probe()
        }
        None => 0,
    };
    for id in probes_from..spec.watched() {
        monitor
            .watch(ProcessId::new(id))
            .map_err(|e| format!("replay watch: {e}"))?;
    }
    let mut r = Replay {
        epochs: epochs.len(),
        ..Replay::default()
    };
    let mut empty_ns = 0.0;
    let wall = wall::now();
    for &(lo, hi) in &epochs {
        let t0 = wall::now();
        for i in lo..hi {
            feed.send(stream.frame(i))
                .map_err(|e| format!("replay send: {e}"))?;
        }
        let t1 = wall::now();
        let report = monitor.tick().map_err(|e| format!("replay tick: {e}"))?;
        let t2 = wall::now();
        monitor.tick().map_err(|e| format!("replay tick: {e}"))?;
        let t3 = wall::now();
        r.feed_ns += (t1 - t0).as_nanos() as f64;
        r.accept_ns += report.dispatch.as_nanos() as f64;
        let empty = (t3 - t2).as_nanos() as f64;
        empty_ns += empty;
        r.publish_ns += 2.0 * empty;
        r.frames += report.drained;
    }
    r.wall_ns = wall.elapsed().as_nanos() as f64;
    if feed.tx_dropped() != 0 || r.frames != epochs.last().map_or(0, |e| e.1) {
        return Err(format!(
            "replay lost frames: {} of {}",
            r.frames,
            stream.len()
        ));
    }
    r.decode_ns = decode_ns_per_frame * r.frames as f64;
    r.publish_ms = empty_ns / r.epochs.max(1) as f64 / 1e6;
    Ok(r)
}

/// Standalone detector costs at the workload's own schedule: `rounds`
/// round-robin beats for every peer (`record_heartbeat`), then one full
/// pass of `suspicion_level` + `save_seed` one interval after the last
/// round began, so each detector is queried at a uniform phase of its
/// interval, as a publish would. Returns `(update_ns, level_ns)`.
pub fn detector_costs<D: BenchDetector>(spec: &Spec, rounds: u64, seed: u64) -> (f64, f64) {
    let params = DetParams::of(spec);
    let n = spec.peers as usize;
    let base = 1_000_000_000u64;
    let interval = spec.interval.as_nanos() as u64;
    let mut dets: Vec<D> = (0..spec.peers)
        .map(|id| D::build(&params, ProcessId::new(id), Timestamp::from_nanos(base)))
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, 5).shuffle(&mut order);
    let step = interval / n as u64;
    let t0 = wall::now();
    for r in 0..rounds {
        for (slot, &i) in order.iter().enumerate() {
            let at = base + interval + r * interval + slot as u64 * step;
            dets[i].record_heartbeat(Timestamp::from_nanos(at));
        }
    }
    let update_ns = t0.elapsed().as_nanos() as f64 / (rounds as usize * n) as f64;
    let query = Timestamp::from_nanos(base + interval + rounds * interval);
    let mut passes = Vec::new();
    for pass in 0..3u64 {
        let at = Timestamp::from_nanos(query.as_nanos() + pass * step);
        let t1 = wall::now();
        for d in &mut dets {
            black_box(d.suspicion_level(at));
            black_box(d.save_seed());
        }
        passes.push(t1.elapsed().as_nanos() as f64 / n as f64);
    }
    let level_ns = crate::arith::median(&passes).unwrap_or(0.0);
    (update_ns, level_ns)
}
