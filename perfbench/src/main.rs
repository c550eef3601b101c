//! `richnote-perfbench`: the repository's same-host benchmark.
//!
//! ```text
//! richnote-perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs the shipped `richnote-server` binary as a
//! child process over loopback, drives the named workload, checks the
//! daemon's outputs, and prints the end-to-end metrics. With `--trace 1`
//! it replays the same generated inputs single-threaded through each
//! layer's public functions with spans around every call, runs the
//! daemon with observability on and off, and prints the per-layer
//! ledger. The last stdout line is one JSON object; a failed check
//! prints `"correct": false` with no metrics and exits nonzero. See
//! `perfbench/README.md`.

mod daemon;
mod drive;
mod gen;
mod net;
mod replay;
mod stats;

use drive::{closed_rep, open_rep, Outcome, Rep, Shape};
use gen::{Frames, Inputs};
use replay::{replay, Layer, Spans, Tracer, Untraced};
use richnote_core::scheduler::RichNoteScheduler;
use richnote_core::{Policy, PolicyName};
use richnote_obs::rsrc::{set_alloc_counting, CountingAlloc};
use richnote_server::codec::CodecKind;
use richnote_server::ServerConfig;
use stats::{median, samples_for_tail, tail, Latency, PubLedger};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Exact per-layer allocation counts in the traced replay.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Fewest daemon lifetimes per run (`setup_s` is their median).
const MIN_REPS: usize = 6;
/// A run that has not gathered its samples by now fails.
const RUN_CAP_SECS: f64 = 150.0;

/// `week_replay`: the top `WEEK_USERS` of a `WEEK_POPULATION`-user trace
/// (the population-to-simulated ratio of the repository's repro harness).
const WEEK_POPULATION: usize = 2_000;
const WEEK_USERS: usize = 1_000;
/// `compat_fanout`'s population.
const FANOUT_USERS: usize = 1_000;
/// `round_fleet`'s fleet size, ticks per lifetime, tick period and
/// publication rate.
const FLEET_USERS: usize = 12_500;
const FLEET_TICKS: u64 = 100;
const FLEET_TICK_NS: u64 = 20_000_000;
const FLEET_PUBS_PER_S: u64 = 2_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WeekReplay,
    RoundFleet,
    CompatFanout,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "week_replay" => Some(Workload::WeekReplay),
            "round_fleet" => Some(Workload::RoundFleet),
            "compat_fanout" => Some(Workload::CompatFanout),
            _ => None,
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::WeekReplay | Workload::RoundFleet => {
                Shape { codec: CodecKind::Binary, report: false, spans: None, adaptive: false }
            }
            Workload::CompatFanout => Shape {
                codec: CodecKind::Json,
                report: true,
                spans: Some((65_536, 64)),
                adaptive: true,
            },
        }
    }

    /// Closed-loop workloads replay a fixed trace and are checked
    /// against the reference; the open-loop one races ticks against
    /// publications and is not deterministic.
    fn open_loop(self) -> bool {
        self == Workload::RoundFleet
    }

    /// The range `ledger.unattributed_frac` is expected to fall in: the
    /// share of daemon region CPU the replay cannot see (socket syscalls,
    /// thread wake-ups, lock handoffs). Each range is the values of
    /// traced runs on seeds 1–3 widened by 0.1 on both sides (README.md,
    /// "Ledger tolerance").
    fn unattributed_tolerance(self) -> (f64, f64) {
        match self {
            Workload::WeekReplay => (0.25, 0.55),
            Workload::RoundFleet => (0.2, 0.6),
            Workload::CompatFanout => (0.0, 0.4),
        }
    }

    /// Inputs of one daemon lifetime.
    fn inputs(self, seed: u64) -> Inputs {
        match self {
            Workload::WeekReplay => gen::week_replay(seed, WEEK_POPULATION, WEEK_USERS),
            Workload::CompatFanout => gen::compat_fanout(seed, FANOUT_USERS),
            Workload::RoundFleet => gen::round_fleet(
                seed,
                FLEET_USERS,
                FLEET_TICKS * FLEET_TICK_NS,
                FLEET_TICK_NS,
                FLEET_PUBS_PER_S,
            ),
        }
    }
}

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(&value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number(&flag, &value)?),
            "--seconds" => seconds = Some(number(&flag, &value)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad value {value:?} for {flag}"))
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Everything a run reports.
struct Report {
    ledger: PubLedger,
    metrics: Vec<Metric>,
    /// Findings printed under the table; they do not fail the run.
    warnings: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("richnote-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace { traced_run(&args) } else { measured_run(&args) };
    match result {
        Ok(report) => {
            print_report(&report);
            ExitCode::SUCCESS
        }
        Err((ledger, why)) => {
            eprintln!("richnote-perfbench: check failed: {why}");
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                ledger.attempted.max(1),
                ledger.failed().max(1)
            );
            ExitCode::FAILURE
        }
    }
}

/// End-to-end metrics printed in the table but left out of the JSON
/// result, and so out of `BENCHMARK.json`, which gates `setup_s`,
/// `cpu_ms_per_tick`, `utility_per_mb` and `peak_rss_mb`: the ones that
/// hold still on a host whose co-tenants steal CPU for minutes at a
/// time. Wall-clock figures, set-up wall time included, move with the
/// steal by more than any bound the gate allows, and `cpu_us_per_pub` is
/// `cpu_ms_per_tick` times a ratio the inputs fix (README.md, "Gated
/// metrics").
const UNGATED: [&str; 7] = [
    "setup_wall_s",
    "pubs_per_s",
    "cpu_us_per_pub",
    "tick_p50_ms",
    "tick_p99_ms",
    "ack_p50_us",
    "ack_p99_us",
];

fn print_report(r: &Report) {
    println!("{:<30} {:>16}  unit", "metric", "value");
    for (name, value, unit) in &r.metrics {
        let note = if UNGATED.contains(name) { "  (not gated)" } else { "" };
        println!("{name:<30} {value:>16.6}  {unit}{note}");
    }
    for w in &r.warnings {
        println!("warning: {w}");
        eprintln!("richnote-perfbench: warning: {w}");
    }
    println!(
        "{:<30} {:>16.6}  ratio  ({} of {} publications)",
        "fail_frac",
        r.ledger.fail_frac(),
        r.ledger.failed(),
        r.ledger.attempted
    );
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .filter(|(name, _, _)| !UNGATED.contains(name))
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.ledger.attempted,
        r.ledger.failed(),
        metrics.join(", ")
    );
}

type RunResult = Result<Report, (PubLedger, String)>;

/// Runs the reference replay with the workload's policy type.
fn reference<T: Tracer>(
    inputs: &Inputs,
    shape: &Shape,
    cfg: &ServerConfig,
    seed: u64,
    tracer: &mut T,
) -> replay::Replayed {
    if shape.adaptive {
        let factory: fn() -> Box<dyn Policy + Send> = PolicyName::Adaptive.factory();
        replay(inputs, shape, cfg, factory, seed, tracer)
    } else {
        let factory: fn() -> RichNoteScheduler = || RichNoteScheduler::builder().build();
        replay(inputs, shape, cfg, factory, seed, tracer)
    }
}

/// The "sharded = reference" invariant for one daemon lifetime.
fn check_rep(rep: &Rep, want: Option<&Outcome>, ticks: usize) -> Result<(), String> {
    if rep.ledger.failed() != 0 {
        return Err(format!(
            "{} of {} publications failed (errors {}, refused {}, shed {}, unacked {})",
            rep.ledger.failed(),
            rep.ledger.attempted,
            rep.ledger.errors,
            rep.ledger.refused,
            rep.ledger.shed,
            rep.ledger.unacked()
        ));
    }
    if rep.outcome.rounds != ticks as u64 {
        return Err(format!("daemon ran {} rounds for {ticks} ticks", rep.outcome.rounds));
    }
    if rep.outcome.selected == 0 {
        return Err("the daemon selected nothing".into());
    }
    let Some(want) = want else { return Ok(()) };
    let got = &rep.outcome;
    let same_quality = match (got.delivered_bytes, want.delivered_bytes) {
        (None, _) => true, // metrics off: nothing exported to compare
        (Some(g), Some(w)) => {
            g == w
                && got
                    .utility_per_mb
                    .zip(want.utility_per_mb)
                    .is_some_and(|(g, w)| (g - w).abs() <= 1e-9 * w.abs())
        }
        (Some(_), None) => false,
    };
    if got.selected != want.selected
        || got.deliveries_digest != want.deliveries_digest
        || !same_quality
    {
        return Err(format!(
            "sharded daemon differs from the single-threaded reference: daemon {got:?}, \
             reference {want:?}"
        ));
    }
    Ok(())
}

/// The less disturbed half (rounded up) of a run's lifetimes, which the
/// wall-clock metrics are computed from. Lifetimes of one run
/// are identical work, so they differ only by what the host did to them.
/// They are ranked by a signal of the host alone, blind to the code under
/// test: the share of host CPU time the hypervisor stole during the
/// region. A daemon that is slow in some lifetimes and not others is not
/// filtered out by it.
fn quiet_half(reps: &[Rep]) -> Vec<&Rep> {
    let mut quiet: Vec<&Rep> = reps.iter().collect();
    quiet.sort_by(|a, b| a.steal_frac.total_cmp(&b.steal_frac));
    quiet.truncate(reps.len().div_ceil(2));
    quiet
}

/// One daemon lifetime, checked.
fn one_rep(
    args: &Args,
    inputs: &Inputs,
    frames: &Frames,
    shape: &Shape,
    want: Option<&Outcome>,
    obs_off: bool,
    ledger: &mut PubLedger,
) -> Result<Rep, String> {
    let rep = if args.workload.open_loop() {
        open_rep(&args.server, shape, inputs, frames, obs_off)
    } else {
        closed_rep(&args.server, shape, inputs, frames, obs_off)
    }?;
    ledger.absorb(&rep.ledger);
    check_rep(&rep, want, inputs.ticks())?;
    Ok(rep)
}

fn pooled(reps: &[&Rep], pick: impl Fn(&Rep) -> &Vec<f64>) -> Result<Latency, String> {
    let mut all: Vec<f64> = reps.iter().flat_map(|r| pick(r).iter().copied()).collect();
    let need = samples_for_tail(0.99);
    let lat = Latency::of(&mut all).ok_or("no latency samples")?;
    if lat.p99.is_none() {
        return Err(format!("only {} samples; the p99 needs {need}", lat.n));
    }
    Ok(lat)
}

fn med(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let v: Vec<f64> = reps.iter().map(|r| f(r)).collect();
    median(&v).unwrap_or(f64::NAN)
}

/// `--trace 0`: the end-to-end metrics.
fn measured_run(args: &Args) -> RunResult {
    set_alloc_counting(false);
    let mut ledger = PubLedger::default();
    let fail = |ledger: &PubLedger, e: String| (*ledger, e);
    let w = args.workload;
    let shape = w.shape();
    let inputs = w.inputs(args.seed);
    let traced = shape.spans.is_some();
    let frames = Frames::encode(&inputs, args.seed, shape.codec, traced, &shape.tick_request())
        .map_err(|e| fail(&ledger, e))?;
    let want = (!w.open_loop()).then(|| {
        let cfg = shape.config(false);
        reference(&inputs, &shape, &cfg, args.seed, &mut Untraced).outcome
    });
    let started = Instant::now();
    // A warm-up lifetime, checked like the others but not measured: the
    // first daemon after the reference replay runs on a host the replay
    // just left, and reads differently from the ones after it.
    one_rep(args, &inputs, &frames, &shape, want.as_ref(), false, &mut ledger)
        .map_err(|e| fail(&ledger, e))?;
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let region: f64 = reps.iter().map(|r| r.region_s).sum();
        if reps.len() >= MIN_REPS && region >= args.seconds {
            break;
        }
        if started.elapsed().as_secs_f64() > RUN_CAP_SECS {
            return Err(fail(&ledger, format!("samples still short after {RUN_CAP_SECS} s")));
        }
        let rep = one_rep(args, &inputs, &frames, &shape, want.as_ref(), false, &mut ledger)
            .map_err(|e| fail(&ledger, e))?;
        eprintln!(
            "lifetime {}: set-up {:.3} s cpu, region {:.3} s, {:.4} ms cpu/tick, steal {:.3}",
            reps.len() + 1,
            rep.setup_cpu_s,
            rep.region_s,
            rep.cpu_ns as f64 / 1e6 / rep.region_ticks as f64,
            rep.steal_frac
        );
        reps.push(rep);
    }
    let all = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let setup_s = all(|r| r.setup_cpu_s).unwrap_or(f64::NAN);
    let setup_wall_s = all(|r| r.setup_s).unwrap_or(f64::NAN);
    let peak_rss = all(|r| r.peak_rss_mb);
    // CPU time leaves out stolen time, so CPU figures need no filter.
    let cpu_per_pub = all(|r| r.cpu_ns as f64 / 1e3 / r.region_pubs as f64);
    let cpu_per_tick = all(|r| r.cpu_ns as f64 / 1e6 / r.region_ticks as f64);
    let upm = all(|r| r.outcome.utility_per_mb.unwrap_or(f64::NAN));
    let lifetimes = reps.len();
    let region_s: f64 = reps.iter().map(|r| r.region_s).sum();
    let reps = quiet_half(&reps);
    // The tick p99 is left out where the quieter half holds too few ticks
    // for the tail rule (a lifetime ticks 168 times on the closed loops,
    // 100 times on `round_fleet`).
    let mut ticks: Vec<f64> = reps.iter().flat_map(|r| r.tick_ms.iter().copied()).collect();
    let ticks = Latency::of(&mut ticks).ok_or_else(|| fail(&ledger, "no tick samples".into()))?;
    // Every rep acks thousands of publications, so each has its own p99;
    // the run reports the median rep's.
    let mut per_rep = Vec::new();
    for r in &reps {
        per_rep.push(pooled(&[r], |r| &r.ack_us).map_err(|e| fail(&ledger, format!("acks: {e}")))?);
    }
    let ack_p50 = median(&per_rep.iter().map(|l| l.p50).collect::<Vec<_>>());
    let ack_p99 = median(&per_rep.iter().filter_map(|l| l.p99).collect::<Vec<_>>());
    let mut metrics = vec![
        ("setup_s", setup_s, "s"),
        ("setup_wall_s", setup_wall_s, "s"),
        ("pubs_per_s", med(&reps, |r| r.region_pubs as f64 / r.region_s), "1/s"),
        ("cpu_us_per_pub", cpu_per_pub.unwrap_or(f64::NAN), "us"),
        ("cpu_ms_per_tick", cpu_per_tick.unwrap_or(f64::NAN), "ms"),
        ("tick_p50_ms", ticks.p50, "ms"),
        ("ack_p50_us", ack_p50.unwrap_or(f64::NAN), "us"),
        ("ack_p99_us", ack_p99.unwrap_or(f64::NAN), "us"),
        ("utility_per_mb", upm.unwrap_or(f64::NAN), "U/MB"),
        ("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MB"),
    ];
    if w.open_loop() {
        // The open loop publishes at a fixed rate and its CPU is mostly
        // rounds: publication throughput and CPU per publication say
        // nothing of its own.
        metrics.retain(|(name, _, _)| !matches!(*name, "pubs_per_s" | "cpu_us_per_pub"));
    }
    match ticks.p99 {
        Some(p99) => {
            let at = metrics.iter().position(|m| m.0 == "tick_p50_ms").map_or(0, |i| i + 1);
            metrics.insert(at, ("tick_p99_ms", p99, "ms"));
        }
        None => println!(
            "tick_p99_ms left out: {} ticks in the quieter half, the tail rule needs {}",
            ticks.n,
            samples_for_tail(0.99)
        ),
    }
    println!(
        "{lifetimes} daemon lifetimes, {region_s:.2} s measured, {:.2} s in all",
        started.elapsed().as_secs_f64()
    );
    finish(ledger, metrics)
}

fn finish(ledger: PubLedger, metrics: Vec<Metric>) -> RunResult {
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err((ledger, format!("metric {name} is not finite ({value})")));
    }
    Ok(Report { ledger, metrics, warnings: Vec::new() })
}

/// `--trace 1`: the per-layer ledger.
fn traced_run(args: &Args) -> RunResult {
    let mut ledger = PubLedger::default();
    let fail = |ledger: &PubLedger, e: String| (*ledger, e);
    let w = args.workload;
    let shape = w.shape();
    let inputs = w.inputs(args.seed);
    let traced = shape.spans.is_some();
    let frames = Frames::encode(&inputs, args.seed, shape.codec, traced, &shape.tick_request())
        .map_err(|e| fail(&ledger, e))?;
    // The daemon's default configuration gives the outcome its lifetimes
    // must match. The spans come from the observability-off one, so each
    // layer's span holds only that layer's work and observability is
    // costed once, by the daemon A/B below.
    let want = reference(&inputs, &shape, &shape.config(false), args.seed, &mut Untraced).outcome;
    let cfg = shape.config(true);
    let mut spans = Spans::default();
    let traced = reference(&inputs, &shape, &cfg, args.seed, &mut spans);
    set_alloc_counting(false);
    let plain = reference(&inputs, &shape, &cfg, args.seed, &mut Untraced);
    let selections = |o: &Outcome| (o.selected, o.rounds, o.deliveries_digest);
    if selections(&traced.outcome) != selections(&plain.outcome)
        || selections(&plain.outcome) != selections(&want)
    {
        return Err(fail(&ledger, "the replays selected differently".into()));
    }
    let c = &traced.counts;
    let shard_region_selected = c.shard_selected;
    if c.mirror_selected != shard_region_selected {
        return Err(fail(
            &ledger,
            format!(
                "core select mirror chose {} items, the shards {shard_region_selected}",
                c.mirror_selected
            ),
        ));
    }

    // Observability on/off A/B: three interleaved pairs, each lifetime
    // checked against the reference where the workload is deterministic.
    let want = (!w.open_loop()).then_some(&want);
    let mut reps = Vec::new();
    for obs_off in [false, true].repeat(3) {
        let rep = one_rep(args, &inputs, &frames, &shape, want, obs_off, &mut ledger)
            .map_err(|e| fail(&ledger, e))?;
        reps.push((obs_off, rep));
    }
    let on: Vec<&Rep> = reps.iter().filter(|(off, _)| !off).map(|(_, r)| r).collect();
    let off: Vec<&Rep> = reps.iter().filter(|(off, _)| *off).map(|(_, r)| r).collect();
    let tick_p50 = |reps: &[&Rep]| {
        let v: Vec<f64> = reps.iter().flat_map(|r| r.tick_ms.iter().copied()).collect();
        median(&v).unwrap_or(f64::NAN)
    };
    let cpu_on = med(&on, |r| r.cpu_ns as f64);
    let cpu_off = med(&off, |r| r.cpu_ns as f64);

    let g = |l: Layer| spans.get(l);
    let pubs = c.pubs.max(1) as f64;
    let overhead = (traced.wall_s - c.mirror_ns as f64 / 1e9) / plain.wall_s - 1.0;
    // Daemon-side self time of the region, scaled to the daemon's ack
    // batching (it acks once per drained read, not per publication).
    let ack_frames = on
        .iter()
        .filter_map(|r| {
            let batches = r.ack_batches? as f64;
            Some(batches * r.region_pubs as f64 / r.ledger.attempted.max(1) as f64)
        })
        .sum::<f64>()
        / on.len().max(1) as f64;
    let layer_ns =
        [Layer::Decode, Layer::Route, Layer::Pop, Layer::Ingest, Layer::Round, Layer::Report]
            .iter()
            .map(|&l| g(l).ns as f64)
            .sum::<f64>()
            + g(Layer::Ack).ns_per_call() * ack_frames;
    let obs_ns = (cpu_on - cpu_off).max(0.0);
    let late: Vec<f64> = {
        let mut v: Vec<f64> = on.iter().flat_map(|r| r.late_us.iter().copied()).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let late_p99 = tail(&late, 0.99).or_else(|| late.last().copied()).unwrap_or(0.0);
    let unattributed = 1.0 - (layer_ns + obs_ns) / cpu_on;
    let (lo, hi) = w.unattributed_tolerance();
    let mut warnings = Vec::new();
    if !(lo..=hi).contains(&unattributed) {
        warnings.push(format!(
            "ledger.unattributed_frac {unattributed:.3} is outside its tolerance [{lo}, {hi}]: \
             a layer may be missing from the ledger or counted twice"
        ));
    }
    let metrics = vec![
        ("codec.encode_ns", g(Layer::Encode).ns_per_call(), "ns"),
        ("codec.decode_ns", g(Layer::Decode).ns_per_call(), "ns"),
        ("codec.ack_ns", g(Layer::Ack).ns_per_call(), "ns"),
        ("codec.report_us", g(Layer::Report).ns_per_call() / 1e3, "us"),
        ("codec.bytes_per_pub", c.pub_bytes as f64 / pubs, "B"),
        (
            "codec.allocs_per_pub",
            (g(Layer::Encode).allocs + g(Layer::Decode).allocs + g(Layer::Ack).allocs) as f64
                / pubs,
            "count",
        ),
        ("router.route_ns", g(Layer::Route).ns_per_call(), "ns"),
        ("router.fanout", c.matched as f64 / pubs, "count"),
        ("router.allocs_per_pub", g(Layer::Route).allocs as f64 / pubs, "count"),
        ("router.subscribe_us", spans.setup[Layer::Subscribe as usize].ns_per_call() / 1e3, "us"),
        ("queue.pop_ns", g(Layer::Pop).ns as f64 / c.matched.max(1) as f64, "ns"),
        ("shard.ingest_ns", g(Layer::Ingest).ns_per_call(), "ns"),
        ("shard.round_us", g(Layer::Round).ns_per_call() / 1e3, "us"),
        (
            "shard.round_ns_per_user",
            g(Layer::Round).ns as f64 / c.users_visited.max(1) as f64,
            "ns",
        ),
        (
            "shard.allocs_per_round",
            g(Layer::Round).allocs as f64 / g(Layer::Round).n.max(1) as f64,
            "count",
        ),
        ("core.select_ns_per_user", g(Layer::Select).ns_per_call(), "ns"),
        (
            "core.items_per_select",
            c.mirror_selected as f64 / g(Layer::Select).n.max(1) as f64,
            "count",
        ),
        ("obs.tick_us", (tick_p50(&on) - tick_p50(&off)) * 1e3, "us"),
        ("obs.cpu_frac", (cpu_on - cpu_off) / cpu_on, "ratio"),
        ("ledger.unattributed_frac", unattributed, "ratio"),
        (
            "ledger.tick_unattributed_us",
            tick_p50(&on) * 1e3 - median(&c.tick_layer_ns).unwrap_or(0.0) / 1e3,
            "us",
        ),
        ("ledger.trace_overhead_frac", overhead, "ratio"),
        ("loadgen.late_p99_us", late_p99, "us"),
    ];
    let mut report = finish(ledger, metrics)?;
    report.warnings = warnings;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::UNGATED;

    /// The JSON result carries every metric `BENCHMARK.json` names, end
    /// to end and per layer, and none of the table-only ones.
    #[test]
    fn json_result_matches_the_benchmark_spec() {
        let spec = include_str!("../../BENCHMARK.json");
        for name in UNGATED {
            assert!(!spec.contains(&format!("\"name\": \"{name}\"")), "{name} is gated");
        }
        for name in ["setup_s", "cpu_ms_per_tick", "codec.encode_ns", "loadgen.late_p99_us"] {
            assert!(spec.contains(&format!("\"name\": \"{name}\"")), "{name} is missing");
        }
    }
}
