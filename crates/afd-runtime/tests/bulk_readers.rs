//! Bulk readers against a free-running engine that publishes every
//! millisecond.
//!
//! A checkpoint dump and a full snapshot copy every row of a 100k-peer
//! table while the worker keeps rewriting rows underneath them. Both must
//! finish: a reader that restarts whenever *any* row changes during its
//! copy would never complete against 1 ms epochs. A watchdog thread turns
//! a hang into a test failure with a message instead of a stuck suite.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use afd_core::process::ProcessId;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::simple::SimpleAccrual;
use afd_runtime::engine::{EngineConfig, EngineMode, ParallelShardEngine};
use afd_runtime::persist::{CheckpointConfig, Checkpointer, MemSink};
use afd_runtime::transport::{ChannelTransport, Transport};
use afd_runtime::wire::Heartbeat;
use afd_runtime::{Clock, SystemClock};

const PEERS: u32 = 100_000;
/// Each bulk read gets this long; a few hundred milliseconds suffice
/// even in an unoptimized build.
const DEADLINE: std::time::Duration = std::time::Duration::from_secs(60);

/// Aborts the test binary with `what` unless [`Watchdog::done`] is called
/// within [`DEADLINE`].
struct Watchdog {
    done: Arc<AtomicBool>,
}

impl Watchdog {
    fn arm(what: &'static str) -> Self {
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        std::thread::spawn(move || {
            let start = std::time::Instant::now();
            while !flag.load(Ordering::Acquire) {
                if start.elapsed() > DEADLINE {
                    eprintln!("{what} did not finish within {DEADLINE:?}: bulk-reader livelock");
                    std::process::exit(101);
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        });
        Watchdog { done }
    }

    fn done(self) {
        self.done.store(true, Ordering::Release);
    }
}

fn frame(sender: u32, seq: u64) -> [u8; afd_runtime::wire::FRAME_LEN] {
    Heartbeat {
        sender: ProcessId::new(sender),
        seq,
        sent_at: Timestamp::ZERO,
    }
    .encode()
}

#[test]
fn checkpoint_and_snapshot_finish_under_millisecond_epochs() {
    let clock = SystemClock::new();
    let (mut tx, rx) = ChannelTransport::pair_bounded(1 << 16);
    let config = EngineConfig {
        workers: 1,
        slots_per_shard: PEERS as usize,
        ring_capacity: 1 << 14,
        batch_slots: 512,
        publish_every: Duration::from_millis(1),
    };
    let start = clock.now();
    let mut engine =
        ParallelShardEngine::new(rx, clock, config, move |_| SimpleAccrual::new(start));
    for id in 0..PEERS {
        engine.watch(ProcessId::new(id)).unwrap();
    }
    let reader = engine.reader();
    engine.start(EngineMode::FreeRunning).unwrap();

    // A steady feed, round-robin over the peers, for as long as the bulk
    // reads run.
    let stop = Arc::new(AtomicBool::new(false));
    let feed_stop = Arc::clone(&stop);
    let feeder = std::thread::spawn(move || {
        let mut seq = 0u64;
        while !feed_stop.load(Ordering::Acquire) {
            seq += 1;
            for id in (0..PEERS).step_by(499) {
                tx.send(&frame(id, seq)).unwrap();
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        tx
    });
    // Let heartbeats land and a few epochs pass before reading.
    let deadline = std::time::Instant::now() + DEADLINE;
    while engine.stats().totals.accepted < 10_000 {
        assert!(std::time::Instant::now() < deadline, "feed stalled");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let mut ckpt = Checkpointer::new(MemSink::new(), CheckpointConfig::default());
    let dog = Watchdog::arm("ParallelShardEngine::checkpoint");
    let report = engine.checkpoint(&mut ckpt).unwrap();
    dog.done();
    assert_eq!(report.peers, PEERS as usize);

    let dog = Watchdog::arm("SnapshotReader::snapshot");
    let snapshot = reader.snapshot();
    dog.done();
    assert_eq!(snapshot.len(), PEERS as usize);
    assert!(snapshot.windows(2).all(|w| w[0].0 < w[1].0));

    stop.store(true, Ordering::Release);
    let _tx = feeder.join().unwrap();
    engine.shutdown().unwrap();

    // The dump restores, and what it restores checkpoints back to itself.
    let restored = ckpt.restore(&clock).unwrap();
    assert_eq!(restored.peers.len(), PEERS as usize);
    let fed = restored
        .peers
        .iter()
        .filter(|p| p.highest_seq.is_some())
        .count();
    assert!(fed > 0, "no heartbeat reached the checkpoint");
    for peer in &restored.peers {
        let seed = peer.seed.expect("every simple detector persists");
        assert_eq!(
            peer.highest_seq.is_some(),
            seed.heartbeats_seen > 0,
            "{}: replay state and seed disagree",
            peer.process
        );
    }
    let (_tx2, rx2) = ChannelTransport::pair();
    let mut fresh =
        ParallelShardEngine::new(rx2, clock, config, move |_| SimpleAccrual::new(start));
    let import = fresh.restore(&restored.peers).unwrap();
    assert_eq!(import.watched, u64::from(PEERS));
    let mut again = Checkpointer::new(MemSink::new(), CheckpointConfig::default());
    fresh.checkpoint(&mut again).unwrap();
    let round_trip = again.restore(&clock).unwrap();
    assert_eq!(round_trip.peers, restored.peers);
}
