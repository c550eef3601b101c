//! The load generator: one daemon child per repetition, driven over
//! loopback by at most two threads on at most two connections.
//!
//! * Closed loop (`week_replay`, `compat_fanout`): one connection; the
//!   main thread pipelines requests under a publication window while a
//!   reader thread timestamps every response as it arrives.
//! * Open loop (`round_fleet`): a tick connection whose thread sends one
//!   tick per period and waits for each answer, beside a publish
//!   connection whose thread sends publications at a fixed rate and
//!   reads acks between sends. Both time requests from their due times.

use crate::daemon::{host_times, process_cpu_ns, steal_frac, Daemon};
use crate::gen::{Frames, Inputs, Op};
use crate::net::{connect, FrameIn, FrameOut};
use crate::stats::{run_open_loop, PubLedger, WallClock};
use richnote_obs::MetricValue;
use richnote_server::codec::CodecKind;
use richnote_server::wire::{ErrorCode, Request, Response};
use richnote_server::{PolicyName, RegistrySnapshot, SampleRate, ServerConfig};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Most publications in flight (sent, not yet acked) in a closed loop.
const PUB_WINDOW: u64 = 2048;
/// Most subscriptions awaiting their `Subscribed` answer.
const SUB_WINDOW: u64 = 1024;
/// Buffered request bytes that force a send.
const FLUSH_BYTES: usize = 32 * 1024;

/// What a workload asks of the daemon and the load generator.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Frame codec both sides speak.
    pub codec: CodecKind,
    /// Ticks are `TickReport` (deliveries serialised back).
    pub report: bool,
    /// Span tracing in the daemon as `(trace ring capacity, keep 1 in
    /// N)`; publications then carry trace ids.
    pub spans: Option<(usize, u64)>,
    /// Shards run `--policy adaptive` (the boxed-policy shard path).
    pub adaptive: bool,
}

impl Shape {
    /// The daemon's flags; `obs_off` adds the observability-off trio.
    pub fn daemon_args(&self, obs_off: bool) -> Vec<String> {
        let mut args = vec!["--shards".to_string(), "2".into(), "--codec".into()];
        args.push(self.codec.wire_name().into());
        if self.adaptive {
            args.extend(["--policy", "adaptive"].map(String::from));
        }
        if let Some((capacity, one_in)) = self.spans {
            args.extend(["--trace-capacity".into(), capacity.to_string()]);
            args.extend(["--trace-sample".into(), format!("1/{one_in}")]);
        }
        if obs_off {
            args.extend(["--history-capacity", "0", "--no-metrics", "--no-rsrc"].map(String::from));
        }
        args
    }

    /// The same daemon configuration, for the in-process reference;
    /// `obs_off` mirrors [`Shape::daemon_args`].
    pub fn config(&self, obs_off: bool) -> ServerConfig {
        let mut b = ServerConfig::builder().shards(2).codec(self.codec);
        if obs_off {
            b = b.history_capacity(0).metrics_enabled(false).rsrc_enabled(false);
        }
        if self.adaptive {
            b = b.policy(PolicyName::Adaptive);
        }
        if let Some((capacity, one_in)) = self.spans {
            b = b.trace_capacity(capacity).trace_sample(SampleRate::one_in(one_in));
        }
        b.build().expect("the workload's daemon configuration is valid")
    }

    /// The request each tick sends.
    pub fn tick_request(&self) -> Request {
        if self.report {
            Request::TickReport { rounds: 1 }
        } else {
            Request::Tick { rounds: 1 }
        }
    }
}

/// The selection outcome a run can be checked on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Notifications selected across all ticks.
    pub selected: u64,
    /// Rounds completed per shard.
    pub rounds: u64,
    /// FNV-1a over every reported delivery (`TickReport` workloads).
    pub deliveries_digest: u64,
    /// Delivered bytes from the quality families (`None` with metrics
    /// off).
    pub delivered_bytes: Option<u64>,
    /// Delivered utility per MB from the quality families.
    pub utility_per_mb: Option<f64>,
}

/// FNV-1a step.
pub fn fnv(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Delivered bytes and utility per MB from a merged registry snapshot.
pub fn quality_of(snap: &RegistrySnapshot) -> (Option<u64>, Option<f64>) {
    let Some(util) = snap.family("richnote_utility_total") else { return (None, None) };
    let bytes = snap.counter_total("richnote_delivered_bytes_total");
    let utility: f64 = util
        .series
        .iter()
        .map(|s| match s.value {
            MetricValue::Gauge(v) => v,
            _ => 0.0,
        })
        .sum();
    let per_mb = (bytes > 0).then(|| utility / (bytes as f64 / 1e6));
    (Some(bytes), per_mb)
}

/// Measurements of one repetition (one daemon lifetime).
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Spawn → handshake → subscriptions + warm-up done, seconds.
    pub setup_s: f64,
    /// CPU time the daemon and the load generator spent on set-up, s.
    pub setup_cpu_s: f64,
    /// Wall seconds of the measured region.
    pub region_s: f64,
    /// Publications acked in the region.
    pub region_pubs: u64,
    /// Ticks answered in the region.
    pub region_ticks: u64,
    /// Daemon CPU over the region, ns (all threads).
    pub cpu_ns: u64,
    /// Region tick latencies, ms.
    pub tick_ms: Vec<f64>,
    /// Region publication ack latencies (due → ack read), µs.
    pub ack_us: Vec<f64>,
    /// How late the generator put region frames on the wire, µs.
    pub late_us: Vec<f64>,
    /// Publication accounting over the whole repetition.
    pub ledger: PubLedger,
    /// What the daemon selected.
    pub outcome: Outcome,
    /// Daemon peak RSS, MB.
    pub peak_rss_mb: f64,
    /// Cumulative ack frames the daemon wrote (`None` with metrics off).
    pub ack_batches: Option<u64>,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// region.
    pub steal_frac: f64,
}

/// Where responses come from: a reader thread's channel (closed loop)
/// or inline reads on the sending thread (open loop).
trait Inbox {
    /// The next response and its arrival instant, waiting until
    /// `deadline` (`None` = indefinitely). `Ok(None)` on timeout.
    fn next(&mut self, deadline: Option<Instant>) -> Result<Option<(Response, Instant)>, String>;
}

type Stamped = Result<(Response, Instant), String>;

struct ThreadInbox(mpsc::Receiver<Stamped>);

impl Inbox for ThreadInbox {
    fn next(&mut self, deadline: Option<Instant>) -> Result<Option<(Response, Instant)>, String> {
        let got = match deadline {
            None => self.0.recv().map_err(|_| "reader thread ended".to_string())?,
            Some(d) => match self.0.recv_timeout(d.saturating_duration_since(Instant::now())) {
                Ok(v) => v,
                Err(mpsc::RecvTimeoutError::Timeout) => return Ok(None),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("reader thread ended".into())
                }
            },
        };
        got.map(Some)
    }
}

struct InlineInbox(FrameIn);

impl Inbox for InlineInbox {
    fn next(&mut self, deadline: Option<Instant>) -> Result<Option<(Response, Instant)>, String> {
        let resp = match deadline {
            None => Some(self.0.recv()?),
            Some(d) => self.0.recv_until(d)?,
        };
        Ok(resp.map(|r| (r, Instant::now())))
    }
}

/// One connection's sending side plus response bookkeeping.
struct Sender<I: Inbox> {
    out: FrameOut,
    inbox: I,
    /// Last publication sequence number sent.
    seq: u64,
    /// Due instant of publication `s` at index `s - 1`.
    due: Vec<Instant>,
    /// First sequence number not yet flushed.
    unflushed: u64,
    subs_pending: u64,
    ledger: PubLedger,
    /// Whether ack/late samples are being kept (the measured region).
    sampling: bool,
    ack_us: Vec<f64>,
    late_us: Vec<f64>,
}

impl<I: Inbox> Sender<I> {
    fn new(out: FrameOut, inbox: I) -> Self {
        Sender {
            out,
            inbox,
            seq: 0,
            due: Vec::new(),
            unflushed: 1,
            subs_pending: 0,
            ledger: PubLedger::default(),
            sampling: false,
            ack_us: Vec::new(),
            late_us: Vec::new(),
        }
    }

    fn flush(&mut self) -> Result<(), String> {
        if self.out.pending() == 0 {
            return Ok(());
        }
        self.out.flush()?;
        let now = Instant::now();
        if self.sampling {
            for s in self.unflushed..=self.seq {
                self.late_us.push(now.duration_since(self.due[s as usize - 1]).as_secs_f64() * 1e6);
            }
        }
        self.unflushed = self.seq + 1;
        Ok(())
    }

    /// Handles one response; hands back anything that is not a `PubAck`
    /// or a `Subscribed`.
    fn absorb(&mut self, resp: Response, at: Instant) -> Result<Option<Response>, String> {
        match resp {
            Response::PubAck { seq } => {
                if seq > self.seq || seq < self.ledger.acked_through {
                    return Err(format!("PubAck {seq} outside 1..={}", self.seq));
                }
                if self.sampling {
                    for s in self.ledger.acked_through + 1..=seq {
                        let due = self.due[s as usize - 1];
                        self.ack_us.push(at.saturating_duration_since(due).as_secs_f64() * 1e6);
                    }
                }
                self.ledger.acked_through = seq;
                Ok(None)
            }
            Response::Subscribed => {
                self.subs_pending = self.subs_pending.checked_sub(1).ok_or("stray Subscribed")?;
                Ok(None)
            }
            Response::Error { code, message } => {
                match code {
                    ErrorCode::Draining => self.ledger.refused += 1,
                    _ => self.ledger.errors += 1,
                }
                Err(format!("daemon error {code:?}: {message}"))
            }
            other => Ok(Some(other)),
        }
    }

    /// Processes responses until `deadline` passes (or one arrives, when
    /// `deadline` is `None`); returns a non-ack response if one came.
    fn pump(&mut self, deadline: Option<Instant>) -> Result<Option<(Response, Instant)>, String> {
        while let Some((resp, at)) = self.inbox.next(deadline)? {
            if let Some(other) = self.absorb(resp, at)? {
                return Ok(Some((other, at)));
            }
            if deadline.is_none() {
                break;
            }
        }
        Ok(None)
    }

    /// Reads acks until every publication sent is acked or `deadline`
    /// passes (the ledger then counts the rest as unacked).
    fn settle(&mut self, deadline: Instant) -> Result<(), String> {
        while self.ledger.acked_through < self.seq {
            let Some((resp, at)) = self.inbox.next(Some(deadline))? else { break };
            Self::expect_no_other(self.absorb(resp, at)?.map(|r| (r, at)))?;
        }
        Ok(())
    }

    fn expect_no_other(got: Option<(Response, Instant)>) -> Result<(), String> {
        match got {
            None => Ok(()),
            Some((r, _)) => Err(format!("unexpected response {r:?}")),
        }
    }

    /// Sends an encoded `Subscribe` with the window applied.
    fn subscribe(&mut self, frame: &[u8]) -> Result<(), String> {
        while self.subs_pending >= SUB_WINDOW {
            self.flush()?;
            let got = self.pump(None)?;
            Self::expect_no_other(got)?;
        }
        self.out.push_bytes(frame);
        self.subs_pending += 1;
        if self.out.pending() >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Sends an encoded `Publish` (the next sequence number's) with the
    /// window applied; `due` is `None` in a closed loop (due once the
    /// window admits it) or the scheduled instant.
    fn publish(&mut self, frame: &[u8], due: Option<Instant>) -> Result<(), String> {
        while self.seq - self.ledger.acked_through >= PUB_WINDOW {
            self.flush()?;
            let got = self.pump(None)?;
            Self::expect_no_other(got)?;
        }
        self.seq += 1;
        self.ledger.attempted += 1;
        self.due.push(due.unwrap_or_else(Instant::now));
        self.out.push_bytes(frame);
        if due.is_some() || self.out.pending() >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// A strict request/response exchange after everything sent so far
    /// has been answered; returns the response and its latency.
    fn request(&mut self, req: &Request) -> Result<(Response, Duration), String> {
        self.exchange(|out| out.push(req))
    }

    /// [`Sender::request`] for a request `push` puts in the buffer.
    fn exchange(
        &mut self,
        push: impl FnOnce(&mut FrameOut) -> Result<(), String>,
    ) -> Result<(Response, Duration), String> {
        self.flush()?;
        while self.subs_pending > 0 {
            let got = self.pump(None)?;
            Self::expect_no_other(got)?;
        }
        let sent = Instant::now();
        push(&mut self.out)?;
        self.out.flush()?;
        loop {
            if let Some((resp, at)) = self.pump(None)? {
                return Ok((resp, at.saturating_duration_since(sent)));
            }
        }
    }

    /// One encoded tick; folds its answer into `outcome`.
    fn tick(&mut self, frame: &[u8], outcome: &mut Outcome) -> Result<Duration, String> {
        let (resp, took) = self.exchange(|out| {
            out.push_bytes(frame);
            Ok(())
        })?;
        fold_tick(outcome, resp)?;
        Ok(took)
    }

    /// Runs `ops` closed-loop; op `i` sends frame `first + i`.
    fn run_ops(
        &mut self,
        ops: &[Op],
        frames: &Frames,
        first: usize,
        outcome: &mut Outcome,
        ticks: &mut Vec<f64>,
    ) -> Result<(), String> {
        for (i, op) in ops.iter().enumerate() {
            let frame = frames.frame(first + i);
            match op {
                Op::Sub(..) => self.subscribe(frame)?,
                Op::Pub(..) => self.publish(frame, None)?,
                Op::Tick => {
                    let took = self.tick(frame, outcome)?;
                    ticks.push(took.as_secs_f64() * 1e3);
                }
            }
        }
        Ok(())
    }

    /// Final `Stats` read plus `Shutdown`.
    fn finish(&mut self, rep: &mut Rep) -> Result<(), String> {
        let (resp, _) = self.request(&Request::Stats)?;
        let Response::StatsSnapshot { snapshot, .. } = resp else {
            return Err(format!("expected StatsSnapshot, got {resp:?}"));
        };
        if snapshot.family("richnote_pubs_total").is_some() {
            self.ledger.shed = snapshot.counter_total("richnote_queue_dropped_total");
            rep.ack_batches = Some(snapshot.counter_total("richnote_ack_batches_total"));
        }
        let (bytes, per_mb) = quality_of(&snapshot);
        rep.outcome.delivered_bytes = bytes;
        rep.outcome.utility_per_mb = per_mb;
        let (resp, _) = self.request(&Request::Shutdown)?;
        if resp != Response::ShuttingDown {
            return Err(format!("expected ShuttingDown, got {resp:?}"));
        }
        Ok(())
    }
}

/// Folds a `Ticked` / `TickReport` answer into `outcome`.
pub fn fold_tick(outcome: &mut Outcome, resp: Response) -> Result<(), String> {
    match resp {
        Response::Ticked { rounds, selected } => {
            outcome.rounds = rounds;
            outcome.selected += selected;
        }
        Response::TickReport { rounds, deliveries } => {
            outcome.rounds = rounds;
            outcome.selected += deliveries.len() as u64;
            for d in &deliveries {
                let mut h = fnv(outcome.deliveries_digest, d.round);
                h = fnv(h, d.user.value());
                h = fnv(h, d.content.value());
                outcome.deliveries_digest = fnv(h, u64::from(d.level));
            }
        }
        other => return Err(format!("expected a tick answer, got {other:?}")),
    }
    Ok(())
}

/// CPU seconds of set-up: the daemon's whole life so far plus what this
/// process spent since `own0`.
fn setup_cpu_s(daemon: &Daemon, own0: u64) -> Result<f64, String> {
    let own = process_cpu_ns(std::process::id())?.saturating_sub(own0);
    Ok((daemon.cpu_ns()? + own) as f64 / 1e9)
}

/// One closed-loop repetition: spawn, set up, replay the region, check
/// out, shut down.
pub fn closed_rep(
    bin: &Path,
    shape: &Shape,
    inputs: &Inputs,
    frames: &Frames,
    obs_off: bool,
) -> Result<Rep, String> {
    let started = Instant::now();
    let own0 = process_cpu_ns(std::process::id())?;
    let daemon = Daemon::spawn(bin, &shape.daemon_args(obs_off))?;
    let stream = connect(daemon.addr, shape.codec, 1)?;
    let read_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let (tx, rx) = mpsc::channel::<Stamped>();
    let codec = shape.codec;
    let reader = std::thread::spawn(move || {
        let mut input = FrameIn::new(read_half, codec);
        loop {
            let got = input.recv().map(|r| (r, Instant::now()));
            let stop = matches!(got, Err(_) | Ok((Response::ShuttingDown, _)));
            if tx.send(got).is_err() || stop {
                break;
            }
        }
    });
    let mut sender = Sender::new(FrameOut::new(stream, codec), ThreadInbox(rx));
    let mut rep = Rep::default();
    let result = (|| {
        let mut setup_ticks = Vec::new();
        sender.run_ops(&inputs.setup, frames, 0, &mut rep.outcome, &mut setup_ticks)?;
        rep.setup_s = started.elapsed().as_secs_f64();
        rep.setup_cpu_s = setup_cpu_s(&daemon, own0)?;

        let cpu0 = daemon.cpu_ns()?;
        let host0 = host_times()?;
        let region_start = Instant::now();
        let acked0 = sender.ledger.acked_through;
        sender.sampling = true;
        let first = inputs.setup.len();
        sender.run_ops(&inputs.region, frames, first, &mut rep.outcome, &mut rep.tick_ms)?;
        sender.sampling = false;
        rep.region_s = region_start.elapsed().as_secs_f64();
        rep.cpu_ns = daemon.cpu_ns()? - cpu0;
        rep.steal_frac = steal_frac(host0, host_times()?);
        rep.region_pubs = sender.ledger.acked_through - acked0;
        rep.region_ticks = rep.tick_ms.len() as u64;
        rep.peak_rss_mb = daemon.peak_rss_mb()?;
        sender.finish(&mut rep)
    })();
    // The reader ends on ShuttingDown, an error, or the socket closing.
    if result.is_err() {
        drop(daemon);
        let _ = reader.join();
        return result.map(|_| rep);
    }
    reader.join().map_err(|_| "reader thread panicked".to_string())?;
    daemon.wait(Duration::from_secs(10))?;
    rep.ack_us = std::mem::take(&mut sender.ack_us);
    rep.late_us = std::mem::take(&mut sender.late_us);
    rep.ledger = sender.ledger;
    Ok(rep)
}

/// One open-loop repetition: closed-loop set-up on the publish
/// connection, then the scheduled region on both connections at once.
pub fn open_rep(
    bin: &Path,
    shape: &Shape,
    inputs: &Inputs,
    frames: &Frames,
    obs_off: bool,
) -> Result<Rep, String> {
    let started = Instant::now();
    let own0 = process_cpu_ns(std::process::id())?;
    let daemon = Daemon::spawn(bin, &shape.daemon_args(obs_off))?;
    let pub_stream = connect(daemon.addr, shape.codec, 1)?;
    let tick_stream = connect(daemon.addr, shape.codec, 2)?;
    let read_half = pub_stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut sender = Sender::new(
        FrameOut::new(pub_stream, shape.codec),
        InlineInbox(FrameIn::new(read_half, shape.codec)),
    );
    let mut rep = Rep::default();
    let mut setup_ticks = Vec::new();
    sender.run_ops(&inputs.setup, frames, 0, &mut rep.outcome, &mut setup_ticks)?;
    rep.setup_s = started.elapsed().as_secs_f64();
    rep.setup_cpu_s = setup_cpu_s(&daemon, own0)?;

    let cpu0 = daemon.cpu_ns()?;
    let host0 = host_times()?;
    // Both schedules share one origin a little in the future, so neither
    // thread starts late.
    let origin = Instant::now() + Duration::from_millis(5);
    let acked0 = sender.ledger.acked_through;
    let tick_req = shape.tick_request();
    let ticks = std::thread::scope(|scope| -> Result<(Vec<f64>, Vec<f64>, Outcome), String> {
        let tick_thread = scope.spawn(|| -> Result<(Vec<f64>, Vec<f64>, Outcome), String> {
            let read_half = tick_stream.try_clone().map_err(|e| format!("clone: {e}"))?;
            let mut out = FrameOut::new(tick_stream, shape.codec);
            let mut input = FrameIn::new(read_half, shape.codec);
            let mut outcome = Outcome::default();
            let mut clock = WallClock::at(origin);
            let times = run_open_loop(&mut clock, &inputs.open_ticks, |_, _| {
                out.push(&tick_req)?;
                out.flush()?;
                fold_tick(&mut outcome, input.recv()?)
            })?;
            let ms = |v: &[u64]| v.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>();
            Ok((ms(&times.latency_ns), ms(&times.late_ns), outcome))
        });
        sender.sampling = true;
        let pub_result = (|| {
            let first = inputs.setup.len() + inputs.region.len();
            for (j, (due, _, _)) in inputs.open_pubs.iter().enumerate() {
                let due = origin + Duration::from_nanos(*due);
                let got = sender.pump(Some(due))?;
                Sender::<InlineInbox>::expect_no_other(got)?;
                sender.publish(frames.frame(first + j), Some(due))?;
            }
            // Every publication must be acked within a grace period.
            let deadline = Instant::now() + Duration::from_secs(5);
            sender.settle(deadline)
        })();
        sender.sampling = false;
        let ticks = tick_thread.join().map_err(|_| "tick thread panicked".to_string())?;
        pub_result?;
        ticks
    })?;
    rep.region_s = origin.elapsed().as_secs_f64();
    rep.cpu_ns = daemon.cpu_ns()? - cpu0;
    rep.steal_frac = steal_frac(host0, host_times()?);
    let (tick_ms, tick_late_ms, outcome) = ticks;
    rep.tick_ms = tick_ms;
    rep.region_ticks = rep.tick_ms.len() as u64;
    rep.outcome.selected += outcome.selected;
    rep.outcome.rounds = outcome.rounds;
    rep.region_pubs = sender.ledger.acked_through - acked0;
    rep.peak_rss_mb = daemon.peak_rss_mb()?;
    sender.finish(&mut rep)?;
    daemon.wait(Duration::from_secs(10))?;
    rep.ack_us = std::mem::take(&mut sender.ack_us);
    rep.late_us = std::mem::take(&mut sender.late_us);
    rep.late_us.extend(tick_late_ms.iter().map(|ms| ms * 1e3));
    rep.ledger = sender.ledger;
    Ok(rep)
}
