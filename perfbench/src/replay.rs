//! The in-process reference: the same generated inputs replayed on one
//! thread through each layer's public functions — client encode, server
//! decode, router match + queue push, queue pop, shard ingest, shard
//! round, tick-answer encode — with a span around every call.
//!
//! It serves three purposes: the per-layer ledger (span self time and
//! exact allocation counts per layer), the single-threaded baseline, and
//! the determinism reference the sharded daemon must equal.

use crate::drive::{fold_tick, quality_of, Outcome, Shape};
use crate::gen::{publish, Inputs, Op};
use richnote_core::policy::NoopObserver;
use richnote_core::presentation::AudioPresentationSpec;
use richnote_core::scheduler::{QueuedNotification, RoundContext};
use richnote_core::{Policy, PresentationLadder, UserId};
use richnote_obs::rsrc::alloc_counts;
use richnote_server::codec::codec_for;
use richnote_server::router::Router;
use richnote_server::shard::{content_utility, ShardMsg};
use richnote_server::wire::{Delivery, Request, Response};
use richnote_server::{BoundedQueue, RegistrySnapshot, ServerConfig, ShardState};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The layers a span can be recorded for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Client-side `Publish` encode.
    Encode,
    /// Server-side `Publish` decode.
    Decode,
    /// `PubAck` encode.
    Ack,
    /// Tick answer encode (`Ticked` or `TickReport`).
    Report,
    /// `Router::apply_publish_traced`: broker match + queue push.
    Route,
    /// `Router::subscribe`.
    Subscribe,
    /// `BoundedQueue::pop`.
    Pop,
    /// `ShardState::ingest`.
    Ingest,
    /// `ShardState::run_round` (includes the core select it drives).
    Round,
    /// `Policy::select_round` on a mirror of the per-user schedulers.
    Select,
}

const LAYERS: usize = 10;

/// Calls, time and allocations of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Calls.
    pub n: u64,
    /// Wall nanoseconds inside the calls.
    pub ns: u64,
    /// Allocations inside the calls (counting allocator).
    pub allocs: u64,
}

impl Acc {
    /// Mean ns per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns as f64 / self.n as f64
        }
    }
}

/// Wraps each layer call. [`Untraced`] compiles to the bare call, so
/// the difference between the two replays is the tracing overhead.
pub trait Tracer {
    /// Runs `f` as one call of `layer`.
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
    /// Whether spans are recorded (the select mirror only runs if so).
    fn on(&self) -> bool;
    /// Duration of the last span recorded, ns.
    fn last_ns(&self) -> u64;
    /// Marks whether later spans belong to the measured region.
    fn set_region(&mut self, _in_region: bool) {}
}

/// No spans.
pub struct Untraced;

impl Tracer for Untraced {
    #[inline(always)]
    fn span<R>(&mut self, _: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
    fn on(&self) -> bool {
        false
    }
    fn last_ns(&self) -> u64 {
        0
    }
}

/// Spans kept in memory as per-layer totals, split set-up vs region.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Set-up totals, by layer.
    pub setup: [Acc; LAYERS],
    /// Region totals, by layer.
    pub region: [Acc; LAYERS],
    in_region: bool,
    last: u64,
}

impl Spans {
    /// Region totals of `layer`.
    pub fn get(&self, layer: Layer) -> Acc {
        self.region[layer as usize]
    }
}

impl Tracer for Spans {
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let a0 = alloc_counts();
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let allocs = alloc_counts().since(a0).allocs;
        let acc = if self.in_region { &mut self.region } else { &mut self.setup };
        let a = &mut acc[layer as usize];
        a.n += 1;
        a.ns += ns;
        a.allocs += allocs;
        self.last = ns;
        r
    }
    fn on(&self) -> bool {
        true
    }
    fn last_ns(&self) -> u64 {
        self.last
    }
    fn set_region(&mut self, in_region: bool) {
        self.in_region = in_region;
    }
}

/// Counts of the traced replay that are not spans.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Region publications.
    pub pubs: u64,
    /// Encoded `Publish` bytes in the region.
    pub pub_bytes: u64,
    /// Subscriber deliveries the router produced in the region.
    pub matched: u64,
    /// Users visited by region rounds.
    pub users_visited: u64,
    /// Items the shards selected in the region.
    pub shard_selected: u64,
    /// Items the select mirror chose in the region.
    pub mirror_selected: u64,
    /// Wall ns spent feeding and running the select mirror (set-up and
    /// region), which the untraced replay does not do.
    pub mirror_ns: u64,
    /// Per region tick: slowest shard round + answer encode, ns (the
    /// shards run in parallel in the daemon).
    pub tick_layer_ns: Vec<f64>,
}

/// The reference's result.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    /// What the reference selected (the daemon must match it).
    pub outcome: Outcome,
    /// Wall seconds of the whole replay.
    pub wall_s: f64,
    /// Non-span counts.
    pub counts: Counts,
}

/// Per-user schedulers fed the same ingests as the shards and selected
/// directly, so `core` time is measured without the shard around it.
struct SelectMirror<P> {
    users: BTreeMap<UserId, P>,
    factory: fn() -> P,
    ladder: Arc<PresentationLadder>,
}

fn pop(q: &BoundedQueue<ShardMsg>) -> Option<ShardMsg> {
    if q.is_empty() {
        None
    } else {
        q.pop()
    }
}

/// Replays `inputs` (set-up, then the region; open-loop schedules merged
/// by due time, publications first on ties) through the layers.
pub fn replay<P: Policy + Send, T: Tracer>(
    inputs: &Inputs,
    shape: &Shape,
    cfg: &ServerConfig,
    factory: fn() -> P,
    seed: u64,
    tracer: &mut T,
) -> Replayed {
    let started = Instant::now();
    let queues: Vec<Arc<BoundedQueue<ShardMsg>>> = (0..cfg.shards)
        .map(|_| Arc::new(BoundedQueue::new(cfg.queue_capacity, ShardMsg::droppable)))
        .collect();
    let router = Router::new(queues.clone());
    let mut shards: Vec<ShardState<P>> =
        (0..cfg.shards).map(|s| ShardState::with_policy(s, cfg.clone(), factory)).collect();
    let mut mirror = tracer.on().then(|| SelectMirror {
        users: BTreeMap::new(),
        factory,
        ladder: Arc::new(AudioPresentationSpec::paper_default().ladder()),
    });
    let mut client = codec_for(shape.codec);
    let mut server = codec_for(shape.codec);
    let mut buf = Vec::with_capacity(4096);
    let mut out = Replayed::default();
    let mut seq = 0u64;
    let session = 1;

    let region = region_ops(inputs);
    for (i, op) in inputs.setup.iter().chain(&region).enumerate() {
        let in_region = i >= inputs.setup.len();
        tracer.set_region(in_region);
        match op {
            Op::Sub(user, topic) => {
                tracer.span(Layer::Subscribe, || router.subscribe(*user, *topic))
            }
            Op::Pub(topic, item) => {
                seq += 1;
                let req = publish(seed, seq, *topic, item.clone(), shape.spans.is_some());
                buf.clear();
                tracer
                    .span(Layer::Encode, || client.write_request(&mut buf, &req))
                    .expect("encode");
                let decoded = tracer
                    .span(Layer::Decode, || server.read_request(&mut &buf[..]))
                    .expect("decode")
                    .expect("one frame");
                let Request::Publish { seq, topic, item, trace } = decoded else {
                    panic!("decoded a different request")
                };
                let now = Instant::now();
                let (_, shed) = tracer.span(Layer::Route, || {
                    router.apply_publish_traced(session, seq, topic, item, now, trace)
                });
                assert!(shed.is_empty(), "the reference never sheds");
                if in_region {
                    out.counts.pubs += 1;
                    out.counts.pub_bytes += buf.len() as u64;
                }
                buf.clear();
                tracer
                    .span(Layer::Ack, || server.write_response(&mut buf, &Response::PubAck { seq }))
                    .expect("ack encode");
                for (s, q) in queues.iter().enumerate() {
                    while let Some(msg) = tracer.span(Layer::Pop, || pop(q)) {
                        let ShardMsg::Ingest { user, item, received, trace } = msg else {
                            panic!("only ingests are queued")
                        };
                        if in_region {
                            out.counts.matched += 1;
                        }
                        if let Some(m) = mirror.as_mut() {
                            let t0 = Instant::now();
                            m.enqueue(user, &item, shards[s].rounds(), cfg.round_secs);
                            out.counts.mirror_ns += t0.elapsed().as_nanos() as u64;
                        }
                        tracer
                            .span(Layer::Ingest, || shards[s].ingest(user, item, received, trace));
                    }
                }
            }
            Op::Tick => {
                let mut slowest = 0u64;
                let mut deliveries = Vec::new();
                let mut selected = 0u64;
                for shard in shards.iter_mut() {
                    let round = tracer.span(Layer::Round, || shard.run_round());
                    slowest = slowest.max(tracer.last_ns());
                    selected += round.selected.len() as u64;
                    if shape.report {
                        deliveries.extend(round.selected.iter().map(|&(user, content, level)| {
                            Delivery { round: round.round, user, content, level }
                        }));
                    }
                }
                if in_region {
                    out.counts.shard_selected += selected;
                }
                if let Some(m) = mirror.as_mut() {
                    let t0 = Instant::now();
                    let n = m.select(tracer, cfg, shards[0].rounds() - 1);
                    out.counts.mirror_ns += t0.elapsed().as_nanos() as u64;
                    if in_region {
                        out.counts.mirror_selected += n;
                        out.counts.users_visited += m.users.len() as u64;
                    }
                }
                let rounds = shards[0].rounds();
                let resp = if shape.report {
                    deliveries.sort_by_key(|d| (d.round, d.user.value()));
                    Response::TickReport { rounds, deliveries }
                } else {
                    Response::Ticked { rounds, selected }
                };
                buf.clear();
                tracer
                    .span(Layer::Report, || server.write_response(&mut buf, &resp))
                    .expect("encode");
                slowest += tracer.last_ns();
                if in_region {
                    out.counts.tick_layer_ns.push(slowest as f64);
                }
                fold_tick(&mut out.outcome, resp).expect("a tick answer");
            }
        }
    }
    tracer.set_region(false);
    let mut snap = RegistrySnapshot::default();
    for shard in shards.iter_mut() {
        snap.merge(&shard.stats());
    }
    let (bytes, per_mb) = quality_of(&snap);
    out.outcome.delivered_bytes = bytes;
    out.outcome.utility_per_mb = per_mb;
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// The region as one op stream: closed-loop ops as given, or the
/// open-loop schedules merged by due time (publications first on ties).
pub fn region_ops(inputs: &Inputs) -> Vec<Op> {
    let mut ops = inputs.region.clone();
    let mut ticks = inputs.open_ticks.iter().peekable();
    for (due, topic, item) in &inputs.open_pubs {
        while ticks.next_if(|&&t| t < *due).is_some() {
            ops.push(Op::Tick);
        }
        ops.push(Op::Pub(*topic, item.clone()));
    }
    ops.extend(ticks.map(|_| Op::Tick));
    ops
}

impl<P: Policy + Send> SelectMirror<P> {
    fn enqueue(
        &mut self,
        user: UserId,
        item: &richnote_core::ContentItem,
        round: u64,
        round_secs: f64,
    ) {
        let factory = self.factory;
        self.users.entry(user).or_insert_with(factory).enqueue(QueuedNotification {
            enqueued_at: round as f64 * round_secs,
            ladder: Arc::clone(&self.ladder),
            content_utility: content_utility(item),
            item: item.clone(),
        });
    }

    /// Runs round `round` for every mirrored user, one span per user.
    fn select<T: Tracer>(&mut self, tracer: &mut T, cfg: &ServerConfig, round: u64) -> u64 {
        let ctx = RoundContext::builder(&cfg.cost)
            .round(round)
            .now(round as f64 * cfg.round_secs)
            .round_secs(cfg.round_secs)
            .link_capacity(cfg.link_capacity)
            .data_grant(cfg.data_grant)
            .energy_grant(cfg.energy_grant)
            .build();
        let mut chosen = 0;
        for policy in self.users.values_mut() {
            let got = tracer.span(Layer::Select, || policy.select_round(&ctx, &mut NoopObserver));
            chosen += got.len() as u64;
        }
        chosen
    }
}
