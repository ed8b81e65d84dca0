//! The benchmark's own arithmetic: percentiles, ladder selection, the
//! frame ledger and the evidence-age detector. Everything here is pure,
//! so the unit tests below pin it down independently of any run.

use std::collections::VecDeque;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise its tail is a handful of outliers.
pub const TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `sorted` by nearest rank, or `None`
/// when fewer than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts `samples` in place (NaN-free input) and returns it, for
/// [`percentile`].
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The median of unsorted `values` (mean of the two middle values for
/// an even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Share of a step's offered frames that may be evicted before the step
/// counts as not sustained. A single scheduler stall of the worker can
/// evict a few hundred frames at any rate; a rate the pipeline cannot
/// keep up with evicts continuously, far beyond this share.
pub const EVICTION_ALLOWANCE: f64 = 0.005;

/// One step of the offered-rate ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Rate the generator was asked to offer (heartbeats per second).
    pub offered_hbps: f64,
    /// Frames per second the generator actually offered.
    pub achieved_hbps: f64,
    /// Frames offered to the transport during the step.
    pub offered: u64,
    /// Frames evicted by the ring or dropped by the channel.
    pub evicted: u64,
    /// Evidence-age tail of the step's probes, if reportable.
    pub age_tail_ms: Option<f64>,
    /// The generator kept to its schedule (lateness within the limit).
    pub valid: bool,
}

impl Step {
    /// A step is sustained when at most [`EVICTION_ALLOWANCE`] of its
    /// frames were evicted, its evidence-age tail is known and within
    /// `age_limit_ms`, and the generator kept to schedule.
    pub fn sustained(&self, age_limit_ms: f64) -> bool {
        self.valid
            && self.evicted as f64 <= EVICTION_ALLOWANCE * self.offered as f64
            && self.age_tail_ms.is_some_and(|a| a <= age_limit_ms)
    }
}

/// The highest step of an ascending ladder that is sustained, counting
/// only the unbroken run of sustained steps from the bottom: a step
/// above the first failure does not count, because its input followed
/// an overload.
pub fn max_sustained(steps: &[Step], age_limit_ms: f64) -> Option<Step> {
    steps
        .iter()
        .take_while(|s| s.sustained(age_limit_ms))
        .last()
        .copied()
}

/// Where every frame offered to the monitor's transport ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Frames handed to the transport (deliberate path loss excluded).
    pub offered: u64,
    /// Accepted into a detector.
    pub accepted: u64,
    /// Rejected as stale by the freshness filter.
    pub stale: u64,
    /// Rejected as a duplicate by the freshness filter.
    pub duplicate: u64,
    /// From a peer nobody watches.
    pub unwatched: u64,
    /// Rejected by the wire decoder.
    pub decode_rejected: u64,
    /// Evicted from a full intake→worker ring.
    pub ring_evicted: u64,
    /// Dropped by a full transport channel.
    pub channel_dropped: u64,
}

impl Ledger {
    /// The sum of every outcome bucket.
    pub fn accounted(&self) -> u64 {
        self.accepted
            + self.stale
            + self.duplicate
            + self.unwatched
            + self.decode_rejected
            + self.ring_evicted
            + self.channel_dropped
    }

    /// Conservation: every offered frame sits in exactly one bucket.
    pub fn balanced(&self) -> bool {
        self.accounted() == self.offered
    }

    /// Bucket-wise difference `self − earlier` (counters only grow).
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        Ledger {
            offered: self.offered - earlier.offered,
            accepted: self.accepted - earlier.accepted,
            stale: self.stale - earlier.stale,
            duplicate: self.duplicate - earlier.duplicate,
            unwatched: self.unwatched - earlier.unwatched,
            decode_rejected: self.decode_rejected - earlier.decode_rejected,
            ring_evicted: self.ring_evicted - earlier.ring_evicted,
            channel_dropped: self.channel_dropped - earlier.channel_dropped,
        }
    }
}

/// What one read of a probe peer's published level showed.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeRead {
    /// No decrease: nothing to report.
    Quiet,
    /// The level decreased after probes were sent: the newest probe's
    /// reset is visible, `age_ns` after its scheduled send. Older probes
    /// still pending were lost on the way (their own resets would have
    /// shown first) and are counted in `lost`.
    Reset {
        age_ns: u64,
        tag: usize,
        lost: Vec<usize>,
    },
    /// The level decreased although no probe was pending: the
    /// published level broke Accruement.
    Violation,
}

/// Tracks one probe peer's published level to find the first read that
/// shows each probe's reset.
///
/// A probe peer sends nothing but probes, so between probes its level
/// may only grow (Accruement, Prop. 1). The first read whose level is
/// below the previous read, after a probe was sent, is the read that
/// makes the probe's evidence visible.
#[derive(Debug, Clone, Default)]
pub struct ProbeTrack {
    last: Option<f64>,
    pending: VecDeque<(u64, usize)>,
}

impl ProbeTrack {
    /// Records a probe scheduled at `sched_ns`, in the order sent; `tag`
    /// comes back with its age.
    pub fn sent(&mut self, sched_ns: u64, tag: usize) {
        self.pending.push_back((sched_ns, tag));
    }

    /// Feeds one read of the level taken at `at_ns`.
    pub fn read(&mut self, level: f64, at_ns: u64) -> ProbeRead {
        let decreased = self.last.is_some_and(|prev| level < prev);
        self.last = Some(level);
        if !decreased {
            return ProbeRead::Quiet;
        }
        if self.pending.is_empty() {
            return ProbeRead::Violation;
        }
        let (sched, tag) = self.pending.pop_back().unwrap_or_default();
        ProbeRead::Reset {
            age_ns: at_ns.saturating_sub(sched),
            tag,
            lost: self.pending.drain(..).map(|(_, t)| t).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(500.0));
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        // 999 of 1000: only one sample lies beyond.
        assert_eq!(percentile(&s, 0.999), None);
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.9), Some(90.0));
        assert_eq!(percentile(&small, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
        // Exactly ten beyond is enough.
        let s20: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s20, 0.5), Some(10.0));
        assert_eq!(percentile(&s20, 0.55), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    fn step(rate: f64, evicted: u64, age: Option<f64>, valid: bool) -> Step {
        Step {
            offered_hbps: rate,
            achieved_hbps: rate * 0.99,
            offered: 1000,
            evicted,
            age_tail_ms: age,
            valid,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_failure() {
        // Five of a thousand frames evicted is within the allowance.
        assert!(step(100.0, 5, Some(1.0), true).sustained(5.0));
        let ladder = [
            step(100.0, 0, Some(1.0), true),
            step(200.0, 0, Some(2.0), true),
            step(400.0, 6, Some(2.0), true),
            step(800.0, 0, Some(2.0), true),
        ];
        assert_eq!(
            max_sustained(&ladder, 5.0).map(|s| s.offered_hbps),
            Some(200.0)
        );
        // The age limit fails a step just as eviction does.
        assert_eq!(
            max_sustained(&ladder, 1.5).map(|s| s.offered_hbps),
            Some(100.0)
        );
        // An unknown tail or a lagging generator never counts as sustained.
        let unknown = [step(100.0, 0, None, true), step(200.0, 0, Some(1.0), true)];
        assert_eq!(max_sustained(&unknown, 5.0), None);
        let lagging = [
            step(100.0, 0, Some(1.0), true),
            step(200.0, 0, Some(1.0), false),
        ];
        assert_eq!(
            max_sustained(&lagging, 5.0).map(|s| s.offered_hbps),
            Some(100.0)
        );
    }

    #[test]
    fn ledger_balances_only_when_every_frame_is_placed() {
        let mut l = Ledger {
            offered: 100,
            accepted: 89,
            stale: 1,
            duplicate: 2,
            unwatched: 0,
            decode_rejected: 3,
            ring_evicted: 4,
            channel_dropped: 0,
        };
        assert!(!l.balanced(), "one frame still in flight");
        l.channel_dropped = 1;
        assert!(l.balanced());
        let later = Ledger {
            offered: 150,
            accepted: 138,
            ..l
        };
        let d = later.since(&l);
        assert_eq!((d.offered, d.accepted, d.stale), (50, 49, 0));
        assert!(!d.balanced());
    }

    #[test]
    fn probe_track_sees_resets_and_flags_unexplained_decreases() {
        let mut t = ProbeTrack::default();
        assert_eq!(t.read(1.0, 10), ProbeRead::Quiet);
        assert_eq!(t.read(2.0, 20), ProbeRead::Quiet);
        // Equal is not a decrease.
        assert_eq!(t.read(2.0, 25), ProbeRead::Quiet);
        t.sent(30, 0);
        assert_eq!(t.read(2.5, 40), ProbeRead::Quiet);
        assert_eq!(
            t.read(0.1, 55),
            ProbeRead::Reset {
                age_ns: 25,
                tag: 0,
                lost: vec![]
            }
        );
        // A decrease with nothing pending breaks Accruement.
        assert_eq!(t.read(0.2, 60), ProbeRead::Quiet);
        assert_eq!(t.read(0.05, 70), ProbeRead::Violation);
        // Two probes pending at one reset: the newest is seen, the older
        // was lost.
        t.sent(80, 1);
        t.sent(90, 2);
        assert_eq!(
            t.read(0.0, 100),
            ProbeRead::Reset {
                age_ns: 10,
                tag: 2,
                lost: vec![1]
            }
        );
    }
}
