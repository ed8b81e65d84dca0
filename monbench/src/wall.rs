//! Real time, the benchmark's only source of it.
//!
//! The repository's lint keeps library code on the `Clock` abstraction
//! so it can run under `VirtualClock`. The benchmark is the opposite
//! case: it times the monitor from outside in wall-clock time and paces
//! its load threads by real sleeps, so every such call goes through
//! here.

use std::time::{Duration, Instant};

/// The current wall-clock instant.
pub fn now() -> Instant {
    // lint:allow(clock-discipline, the benchmark times the monitor from outside in wall-clock time and never runs under VirtualClock)
    Instant::now()
}

/// Sleeps the calling thread for `d` of real time.
pub fn nap(d: Duration) {
    // lint:allow(no-thread-sleep, the benchmark's generator and reader pace themselves in real time)
    std::thread::sleep(d)
}
