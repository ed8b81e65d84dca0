//! `monbench`: one command for the monitor's end-to-end and per-layer
//! metrics on the `hot`, `flood` and `fleet` workloads.
//!
//! ```text
//! cargo run --release --manifest-path monbench/Cargo.toml -- \
//!     --workload hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced on the same seed and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod arith;
mod pin;
mod rig;
mod spec;
mod trace;
mod wall;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use afd_detectors::phi::PhiAccrual;
use afd_detectors::simple::SimpleAccrual;
use afd_runtime::MemSink;

use rig::{BenchClock, BenchDetector, Monitor, Phase, PhaseKind, RunOut, Senders};
use spec::{Detector, Spec};

/// The generator and the reader.
const LOAD_THREADS: u32 = 2;
/// One lane intake and one worker.
const ENGINE_THREADS: u32 = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A named metric with its unit.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("monbench: {e}");
            eprintln!("usage: monbench --workload <hot|flood|fleet> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::by_name(&args.workload) else {
        eprintln!(
            "monbench: unknown workload {:?}; known: {}",
            args.workload,
            spec::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let result = match spec.detector {
        Detector::Phi { .. } => run::<PhiAccrual>(&spec, &args),
        Detector::Simple => run::<SimpleAccrual>(&spec, &args),
    };
    match result {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", final_line(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("monbench: {}: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}

fn final_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// JSON has no NaN or infinity; a metric that cannot be measured fails
/// the run before it gets here, so this only guards the format.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Wall time a whole invocation may take before it gives up on another
/// attempt at a valid run.
const RUN_BUDGET: Duration = Duration::from_secs(150);

/// Measures `spec` until an attempt is valid. An invalid attempt — the
/// generator lagged its schedule, or the nominal rate was not sustained
/// — measured the host rather than the monitor: it is discarded, its
/// reason kept in `discarded`, and the same seed is measured again while
/// another attempt as long as the last still fits in [`RUN_BUDGET`].
fn valid_live<D: BenchDetector>(
    spec: &Spec,
    args: &Args,
    traced: bool,
    started: Instant,
    discarded: &mut Vec<String>,
) -> Result<Live, String> {
    let seconds = Duration::from_secs(args.seconds.max(1));
    loop {
        let t0 = wall::now();
        match live::<D>(spec, args.seed, seconds, traced)? {
            Attempt::Valid(l) => return Ok(l),
            Attempt::Invalid(why) => {
                discarded.push(why);
                if started.elapsed() + t0.elapsed().mul_f64(1.2) > RUN_BUDGET {
                    return Err(format!(
                        "invalid run, and no time left for another attempt: {}",
                        discarded.join("; ")
                    ));
                }
            }
        }
    }
}

fn run<D: BenchDetector>(spec: &Spec, args: &Args) -> Result<Report, String> {
    let started = wall::now();
    let mut discarded = Vec::new();
    let base = valid_live::<D>(spec, args, false, started, &mut discarded)?;
    let mut notes = vec![format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host_cores\": {}, \"load_threads\": {LOAD_THREADS}, \"engine_threads\": {ENGINE_THREADS}, \"placement\": {}, \"gen_late_p99_ms\": {}, \"nominal_frames\": {}, \"ladder\": {}}}",
        spec.name,
        args.seed,
        pin::host_cpus(),
        pin::placement().map_or("null".into(), |p| format!(
            "{{\"worker\": {}, \"intake\": {}, \"load\": {}}}",
            p.worker, p.intake, p.load
        )),
        num(base.late_p99_ms),
        base.ledger_json,
        base.ladder_json
    )];
    if !args.trace {
        notes.extend(discarded.iter().map(|d| format!("attempt discarded: {d}")));
        notes.extend(base.problems.iter().map(|p| format!("check failed: {p}")));
        return Ok(Report {
            correct: base.problems.is_empty(),
            attempted: base.attempted,
            failed: base.failed,
            metrics: base.e2e,
            notes,
        });
    }
    let traced = valid_live::<D>(spec, args, true, started, &mut discarded)?;
    let mut metrics = traced.layers;
    let overhead = (traced.age_p50_ms - base.age_p50_ms) / base.age_p50_ms;
    metrics.push(m("trace.overhead_frac", "ratio", overhead));
    notes.push(format!("{{\"spans\": {}}}", traced.spans_json));
    notes.extend(discarded.iter().map(|d| format!("attempt discarded: {d}")));
    let problems: Vec<&String> = base.problems.iter().chain(&traced.problems).collect();
    notes.extend(problems.iter().map(|p| format!("check failed: {p}")));
    Ok(Report {
        correct: problems.is_empty(),
        attempted: traced.attempted,
        failed: traced.failed,
        metrics,
        notes,
    })
}

/// One measured pass of a workload, untraced or traced.
struct Live {
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    age_p50_ms: f64,
    late_p99_ms: f64,
    ladder_json: String,
    ledger_json: String,
    spans_json: String,
}

/// The outcome of one attempt at a [`Live`] pass.
enum Attempt {
    Valid(Live),
    /// The attempt measured the host, not the monitor; why.
    Invalid(String),
}

fn phases(spec: &Spec, seconds: Duration) -> Vec<Phase> {
    let mut out = Vec::new();
    if !spec.warmup.is_zero() {
        out.push(Phase {
            kind: PhaseKind::Warmup,
            rate_hbps: spec.nominal_hbps(),
            duration: spec.warmup,
        });
    }
    // Three fifths of the measured time at the nominal rate, where every
    // end-to-end metric but the capacity is taken; the rest climbs the
    // ladder.
    let nominal = seconds * 3 / 5;
    out.push(Phase {
        kind: PhaseKind::Nominal,
        rate_hbps: spec.nominal_hbps(),
        duration: nominal,
    });
    let step = (seconds - nominal) / spec.ladder.len().max(1) as u32;
    out.extend(spec.ladder.iter().map(|&rate| Phase {
        kind: PhaseKind::Ladder,
        rate_hbps: rate,
        duration: step,
    }));
    out
}

fn tail(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    let sorted = arith::sorted(samples.to_vec());
    arith::percentile(&sorted, q).ok_or_else(|| {
        format!(
            "{what}: {} samples are too few for the {q} quantile",
            sorted.len()
        )
    })
}

fn live<D: BenchDetector>(
    spec: &Spec,
    seed: u64,
    seconds: Duration,
    traced: bool,
) -> Result<Attempt, String> {
    let plan = phases(spec, seconds);
    let mut senders = Senders::new(spec, seed);
    let (sink, history_end) = if spec.restart {
        rig::warm_checkpoint::<D>(spec, &mut senders)?
    } else {
        (MemSink::new(), 0)
    };

    // The first set-up is kept and measured; more follow the run, so
    // their freed memory does not sit in the measured resident size.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut restore_s: Vec<f64> = Vec::new();
    let mut set_up = || -> Result<Monitor<D>, String> {
        let clock = BenchClock::frozen_at(history_end);
        let sink_copy = sink.clone();
        let t0 = wall::now();
        let monitor = if spec.restart {
            let (monitor, r) = rig::setup_restore::<D>(spec, clock, sink_copy)?;
            restore_s.push(r);
            monitor
        } else {
            rig::setup_fresh::<D>(spec, clock)?
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(monitor)
    };
    let mut monitor = set_up()?;
    let run = rig::drive(spec, &mut monitor, &mut senders, &plan, seed, traced)?;
    let end_clock = monitor.clock.ns();
    let depth_max = monitor.depth_max.load(std::sync::atomic::Ordering::Relaxed);

    // Per-layer persistence costs for workloads that do not checkpoint
    // on their own: one timed checkpoint of the live engine, then a
    // timed restore into a fresh engine.
    let mut persist = None;
    if traced && spec.checkpoint_every.is_none() {
        let mut ckpt = afd_runtime::Checkpointer::new(MemSink::new(), Default::default());
        let t0 = wall::now();
        let report = monitor
            .engine
            .checkpoint(&mut ckpt)
            .map_err(|e| format!("checkpoint: {e}"))?;
        let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
        persist = Some((checkpoint_ms, report.bytes as u64, ckpt.into_sink()));
    }
    monitor
        .engine
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;
    drop(monitor);
    for _ in 1..spec.setups {
        let mut extra = set_up()?;
        extra
            .engine
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
    }

    let nominal_idx = run
        .phases
        .iter()
        .position(|p| p.kind == Some(PhaseKind::Nominal))
        .ok_or("no nominal phase")?;
    let nominal = &run.phases[nominal_idx];
    let reads = &run.reads.phases[nominal_idx];
    let problems = check(spec, &run);

    let late_p99_ms = tail(&nominal.late_ms, 0.99, "generator lateness")?;
    if late_p99_ms > spec::LATE_LIMIT_MS {
        return Ok(Attempt::Invalid(format!(
            "generator lateness p99 {late_p99_ms:.3} ms exceeds {} ms",
            spec::LATE_LIMIT_MS
        )));
    }
    let age_p50_ms = tail(&reads.ages_ms, 0.5, "evidence age")?;
    let age_p90_ms = tail(&reads.ages_ms, 0.9, "evidence age")?;
    let steps = rig::steps(&run.phases, &run.reads);
    let l = nominal.ledger;
    let ledger_json = format!(
        "{{\"offered\": {}, \"accepted\": {}, \"stale\": {}, \"duplicate\": {}, \"unwatched\": {}, \"decode_rejected\": {}, \"ring_evicted\": {}, \"channel_dropped\": {}, \"lagged_reads\": {}}}",
        l.offered, l.accepted, l.stale, l.duplicate, l.unwatched, l.decode_rejected, l.ring_evicted, l.channel_dropped, run.reads.lagged_reads
    );
    let ladder_json = format!(
        "[{}]",
        steps
            .iter()
            .map(|s| format!(
                "{{\"offered_hbps\": {}, \"achieved_hbps\": {:.1}, \"evicted\": {}, \"age_tail_ms\": {}, \"valid\": {}}}",
                s.offered_hbps,
                s.achieved_hbps,
                s.evicted,
                s.age_tail_ms.map_or("null".into(), |a| format!("{a:.3}")),
                s.valid
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let Some(max_rate) = arith::max_sustained(&steps, spec.age_limit_ms).map(|s| s.achieved_hbps)
    else {
        return Ok(Attempt::Invalid(format!(
            "the nominal rate was not sustained: {ladder_json}"
        )));
    };
    let read_count = reads.read_ns.len() as f64;
    let e2e = vec![
        m("setup_s", "s", arith::median(&setup_s).unwrap_or(0.0)),
        m("max_rate_hbps", "hb/s", max_rate),
        m("evidence_age_p50_ms", "ms", age_p50_ms),
        m("evidence_age_p90_ms", "ms", age_p90_ms),
        m("read_p50_ns", "ns", tail(&reads.read_ns, 0.5, "reads")?),
        m("read_p90_ns", "ns", tail(&reads.read_ns, 0.9, "reads")?),
        m(
            "hb_delivered_frac",
            "ratio",
            nominal.ledger.accepted as f64 / nominal.ledger.offered.max(1) as f64,
        ),
        m(
            "query_accuracy_frac",
            "ratio",
            1.0 - reads.suspected as f64 / read_count.max(1.0),
        ),
        m(
            "wire_bytes_per_hb",
            "B",
            nominal.bytes as f64 / nominal.ledger.offered.max(1) as f64,
        ),
        m("rss_mb", "MB", run.rss_mb),
    ];

    let mut layers = Vec::new();
    if traced {
        layers = per_layer::<D>(
            spec,
            seed,
            &run,
            nominal_idx,
            &restore_s,
            persist,
            sink,
            end_clock,
            depth_max,
            late_p99_ms,
        )?;
    }
    Ok(Attempt::Valid(Live {
        e2e,
        layers,
        problems,
        attempted: reads.read_ns.len() as u64,
        failed: reads.missing,
        age_p50_ms,
        late_p99_ms,
        ladder_json,
        ledger_json,
        spans_json: run.spans.to_json(),
    }))
}

/// The correctness checks every run must pass.
fn check(spec: &Spec, run: &RunOut) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, p) in run.phases.iter().enumerate() {
        if !p.ledger.balanced() {
            problems.push(format!("phase {i}: frames not conserved: {:?}", p.ledger));
        }
        // A probe may go unseen only as one of the frames the ring or
        // channel evicted.
        let evicted = p.ledger.ring_evicted + p.ledger.channel_dropped;
        let unseen = p.probes_unseen + run.reads.phases[i].probes_lost;
        if unseen > evicted {
            problems.push(format!(
                "phase {i}: {unseen} of {} probes never seen, but only {evicted} frames evicted",
                p.probes_sent
            ));
        }
        if run.reads.phases[i].missing > 0 {
            problems.push(format!(
                "phase {i}: level() returned None for a watched peer {} times",
                run.reads.phases[i].missing
            ));
        }
    }
    if run.reads.violations > 0 {
        problems.push(format!(
            "a probe's published level decreased {} times with no probe sent (Accruement)",
            run.reads.violations
        ));
    }
    if run.reads.missing_probe_levels > 0 || run.missing_at_end > 0 {
        problems.push(format!(
            "watched peers without a published level: {} probe reads, {} of {} at the end",
            run.reads.missing_probe_levels,
            run.missing_at_end,
            spec.watched()
        ));
    }
    problems
}

#[allow(clippy::too_many_arguments)]
fn per_layer<D: BenchDetector>(
    spec: &Spec,
    seed: u64,
    run: &RunOut,
    nominal_idx: usize,
    restore_s: &[f64],
    persist: Option<(f64, u64, MemSink)>,
    history: MemSink,
    end_clock: u64,
    depth_max: u64,
    late_p99_ms: f64,
) -> Result<Vec<Metric>, String> {
    let nominal = &run.phases[nominal_idx];
    let l = nominal.ledger;
    let kinds = trace::redecode(&run.stream);
    if kinds.rejected() != l.decode_rejected {
        return Err(format!(
            "re-decode rejected {} frames, the engine {}",
            kinds.rejected(),
            l.decode_rejected
        ));
    }
    let accepted_all: u64 = run.phases.iter().map(|p| p.ledger.accepted).sum();
    let frames = run.lane_frames.max(1) as f64;

    // Persistence: fleet checkpoints on its own and restores at set-up;
    // the others get one timed checkpoint and restore after the run.
    let (checkpoint_ms, checkpoint_bytes, restore) = match persist {
        Some((ms, bytes, sink)) => {
            let clock = BenchClock::running_at(end_clock);
            let t0 = wall::now();
            let mut ckpt = afd_runtime::Checkpointer::new(sink, Default::default());
            let restored = ckpt.restore(&clock).map_err(|e| format!("restore: {e}"))?;
            let mut engine: rig::Engine<D, BenchClock> = rig::bare_engine(spec, clock);
            engine
                .restore(&restored.peers)
                .map_err(|e| format!("engine restore: {e}"))?;
            let restore = t0.elapsed().as_secs_f64();
            drop(engine);
            (ms, bytes, restore)
        }
        None => (
            arith::median(&run.checkpoint_ms).ok_or("no checkpoint ran")?,
            run.checkpoint_bytes,
            arith::median(restore_s).unwrap_or(0.0),
        ),
    };

    let history = spec.restart.then_some(history);
    let replay = trace::replay::<D>(
        spec,
        &run.stream,
        history,
        BenchClock::running_at(end_clock),
        kinds.ns_per_frame,
    )?;
    let rounds = match spec.detector {
        Detector::Phi { window } if !spec.restart => window as u64 + 20,
        _ if spec.restart => rig::FLEET_WARM_ROUNDS + 1,
        _ => 4,
    };
    let (update_ns, level_ns) = trace::detector_costs::<D>(spec, rounds, seed);
    let staleness = arith::median(&run.reads.staleness_ms).ok_or("no staleness samples")?;

    Ok(vec![
        m("transport.dropped", "count", l.channel_dropped as f64),
        m("transport.depth_max", "count", depth_max as f64),
        m("wire.decode_ns", "ns", run.stage_decode_ns as f64 / frames),
        m("wire.rejected", "count", l.decode_rejected as f64),
        m(
            "wire.rejected.unknown_intern",
            "count",
            kinds.unknown_intern as f64,
        ),
        m("wire.rejected.checksum", "count", kinds.checksum as f64),
        m("wire.rejected.other", "count", kinds.other as f64),
        m(
            "wire.encode_ns",
            "ns",
            run.spans.mean_ns("wire.encode").unwrap_or(0.0),
        ),
        m("ring.route_ns", "ns", run.stage_route_ns as f64 / frames),
        m("ring.dropped", "count", l.ring_evicted as f64),
        m("ring.depth_max", "count", run.ring_depth_max),
        m(
            "shard.update_ns",
            "ns",
            run.stage_update_ns as f64 / accepted_all.max(1) as f64,
        ),
        m("shard.rejected.stale", "count", l.stale as f64),
        m("shard.rejected.duplicate", "count", l.duplicate as f64),
        m("shard.rejected.unwatched", "count", l.unwatched as f64),
        m("shard.publish_ms", "ms", replay.publish_ms),
        m("shard.staleness_p50_ms", "ms", staleness),
        m("engine.worker_busy", "ratio", run.worker_busy),
        m("detector.update_ns", "ns", update_ns),
        m("detector.level_ns", "ns", level_ns),
        m("persist.restore_s", "s", restore),
        m("persist.checkpoint_ms", "ms", checkpoint_ms),
        m("persist.checkpoint_bytes", "B", checkpoint_bytes as f64),
        m("gen.late_p99_ms", "ms", late_p99_ms),
        m("trace.residual_frac", "ratio", replay.residual_frac()),
        m("host.cores", "count", pin::host_cpus() as f64),
        m("host.load_threads", "count", f64::from(LOAD_THREADS)),
        m("host.engine_threads", "count", f64::from(ENGINE_THREADS)),
    ])
}
