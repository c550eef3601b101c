//! Sharding must not change what gets selected: the per-user round loop on
//! a shard worker is the same state machine as a single-threaded
//! [`RichNoteScheduler`] per user, and shard count must be invisible in
//! the selections.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use richnote_core::scheduler::{
    NotificationScheduler, QueuedNotification, RichNoteScheduler, RoundContext,
};
use richnote_core::{ContentId, ContentItem, NoopObserver, Policy, PolicyName, UserId};
use richnote_pubsub::Topic;
use richnote_server::checkpoint::UserCheckpoint;
use richnote_server::shard::content_utility;
use richnote_server::{shard_of, Client, Server, ServerConfig, ShardCheckpoint, ShardState};
use richnote_trace::{TraceConfig, TraceGenerator};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const ROUNDS: u64 = 48;

/// Per-user selection log: (round, content, level).
type Selections = BTreeMap<UserId, Vec<(u64, ContentId, u8)>>;

fn trace_items() -> Vec<ContentItem> {
    TraceGenerator::new(TraceConfig::small(7)).generate().items
}

/// Items partitioned into per-round arrival batches of virtual time.
fn arrival_batches(items: &[ContentItem], round_secs: f64) -> Vec<Vec<ContentItem>> {
    let mut batches = vec![Vec::new(); ROUNDS as usize];
    for item in items {
        let round = ((item.arrival / round_secs) as usize).min(ROUNDS as usize - 1);
        batches[round].push(item.clone());
    }
    batches
}

/// Drives `shards` ShardStates exactly like the daemon would: per round,
/// ingest that round's arrivals (routed by `shard_of`), then tick every
/// shard once.
fn run_sharded(cfg: &ServerConfig, batches: &[Vec<ContentItem>], shards: usize) -> Selections {
    let mut states: Vec<ShardState> =
        (0..shards).map(|s| ShardState::new(s, cfg.clone())).collect();
    let mut selections = Selections::new();
    for (round, batch) in batches.iter().enumerate() {
        for item in batch {
            let user = item.recipient;
            states[shard_of(user, shards)].ingest(user, item.clone(), Instant::now(), None);
        }
        for state in &mut states {
            let out = state.run_round();
            for (user, content, level) in out.selected {
                selections.entry(user).or_default().push((round as u64, content, level));
            }
        }
    }
    selections
}

/// The reference: one RichNoteScheduler per user, driven directly.
fn run_reference(cfg: &ServerConfig, batches: &[Vec<ContentItem>]) -> Selections {
    let ladder =
        std::sync::Arc::new(richnote_core::AudioPresentationSpec::paper_default().ladder());
    let mut schedulers: BTreeMap<UserId, RichNoteScheduler> = BTreeMap::new();
    let mut selections = Selections::new();
    for (round, batch) in batches.iter().enumerate() {
        let now = round as f64 * cfg.round_secs;
        for item in batch {
            schedulers
                .entry(item.recipient)
                .or_insert_with(|| RichNoteScheduler::builder().build())
                .enqueue(QueuedNotification {
                    item: item.clone(),
                    ladder: ladder.clone(),
                    content_utility: content_utility(item),
                    enqueued_at: now,
                });
        }
        let ctx = RoundContext::builder(&cfg.cost)
            .round(round as u64)
            .now(now)
            .round_secs(cfg.round_secs)
            .link_capacity(cfg.link_capacity)
            .data_grant(cfg.data_grant)
            .energy_grant(cfg.energy_grant)
            .build();
        for (&user, scheduler) in &mut schedulers {
            for d in scheduler.run_round(&ctx) {
                selections.entry(user).or_default().push((round as u64, d.content, d.level));
            }
        }
    }
    selections
}

#[test]
fn sharded_selection_matches_single_threaded_reference() {
    let cfg = ServerConfig::default();
    let batches = arrival_batches(&trace_items(), cfg.round_secs);
    let reference = run_reference(&cfg, &batches);
    assert!(
        reference.values().map(Vec::len).sum::<usize>() > 50,
        "trace too small to be a meaningful determinism check"
    );
    for shards in [1, 2, 4, 7] {
        let sharded = run_sharded(&cfg, &batches, shards);
        assert_eq!(sharded, reference, "selections diverged with {shards} shards");
    }
}

#[test]
fn sharded_runs_are_repeatable() {
    let cfg = ServerConfig::default();
    let batches = arrival_batches(&trace_items(), cfg.round_secs);
    let a = run_sharded(&cfg, &batches, 4);
    let b = run_sharded(&cfg, &batches, 4);
    assert_eq!(a, b);
}

#[test]
fn end_to_end_over_tcp() {
    let cfg = ServerConfig { shards: 2, ..ServerConfig::default() };
    let (addr, handle) = Server::spawn(cfg).expect("spawn server");

    let mut client = Client::builder(addr).connect().expect("connect");
    assert_eq!(client.shards(), 2);

    let items = trace_items();
    let users: std::collections::BTreeSet<UserId> = items.iter().map(|i| i.recipient).collect();
    for &user in &users {
        client.subscribe(user, Topic::FriendFeed(user)).unwrap();
    }
    for item in &items {
        client.publish(Topic::FriendFeed(item.recipient), item.clone()).unwrap();
    }
    client.sync().unwrap();

    // sync() fences the publishes (every one is acked, hence routed), but
    // shard queues may still be draining, so tick until everything
    // ingested has been considered.
    let mut selected_total = 0u64;
    for _ in 0..200 {
        let (_, selected) = client.tick(1).unwrap();
        selected_total += selected;
        let snap = client.metrics().unwrap();
        if snap.ingested() == items.len() as u64 && snap.backlog() == 0 {
            break;
        }
    }

    let snap = client.metrics().unwrap();
    assert_eq!(snap.ingested(), items.len() as u64, "every publication must match");
    assert_eq!(snap.dropped(), 0);
    assert_eq!(snap.backlog(), 0, "budgets should drain the small trace");
    assert_eq!(snap.selected(), selected_total);
    // Default config disables age expiry, so drained backlog means every
    // ingested item was selected.
    assert_eq!(snap.selected(), items.len() as u64);
    let lat = snap.selection_latency();
    assert_eq!(lat.count(), snap.selected());
    assert!(lat.quantile_us(0.99) > 0);
    // Both shards should own users from the trace.
    assert!(snap.shards.iter().all(|s| s.users > 0), "lopsided shard map: {snap:?}");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn wire_protocol_survives_a_full_conversation() {
    use richnote_server::wire::{read_frame, write_frame, ErrorCode, Request, Response};
    use richnote_server::PROTO_VERSION;

    let item = trace_items().remove(0);
    let reqs = vec![
        Request::Hello { proto: PROTO_VERSION, session: 77, codec: Some("binary".to_string()) },
        Request::Subscribe { user: item.recipient, topic: Topic::FriendFeed(item.recipient) },
        Request::Publish { seq: 1, topic: Topic::FriendFeed(item.recipient), item, trace: None },
        Request::Tick { rounds: 2 },
        Request::Metrics,
        Request::Drain,
        Request::Shutdown,
    ];
    let mut buf = Vec::new();
    for r in &reqs {
        write_frame(&mut buf, r).unwrap();
    }
    let mut cursor = &buf[..];
    let mut back = Vec::new();
    while let Some(r) = read_frame::<_, Request>(&mut cursor).unwrap() {
        back.push(r);
    }
    assert_eq!(back, reqs);

    let resp = Response::Error { code: ErrorCode::Draining, message: "nope".into() };
    let mut buf = Vec::new();
    write_frame(&mut buf, &resp).unwrap();
    let mut cursor = &buf[..];
    assert_eq!(read_frame::<_, Response>(&mut cursor).unwrap().unwrap(), resp);
}

/// One round's arrivals: `(recipient, item)` pairs.
type Batch = Vec<(UserId, ContentItem)>;

/// A sparse random arrival schedule over `rounds` rounds: a few dozen
/// users scattered over a wide id range, each receiving work in only a
/// small share of rounds (occasionally a burst larger than one round's
/// budget), so users keep turning idle and back.
fn sparse_schedule(seed: u64, rounds: usize) -> Vec<Batch> {
    let pool = trace_items();
    let mut rng = SmallRng::seed_from_u64(seed);
    let users: Vec<UserId> =
        (0..rng.gen_range(5..40)).map(|_| UserId::new(rng.gen_range(0..100_000))).collect();
    let density = [0.005, 0.03, 0.15][rng.gen_range(0..3)];
    let mut next_id = 0;
    (0..rounds)
        .map(|_| {
            let mut batch = Batch::new();
            for &user in &users {
                if !rng.gen_bool(density) {
                    continue;
                }
                let n = if rng.gen_bool(0.1) { rng.gen_range(10..30) } else { rng.gen_range(1..4) };
                for _ in 0..n {
                    let mut item = pool[rng.gen_range(0..pool.len())].clone();
                    item.id = ContentId::new(next_id);
                    item.recipient = user;
                    next_id += 1;
                    batch.push((user, item));
                }
            }
            batch
        })
        .collect()
}

/// A daemon config with per-seed grants: a tight data grant keeps bursts
/// queued across rounds, and a fractional energy grant makes `P(t)`
/// climb back over `κ` across several idle rounds.
fn sparse_config(seed: u64) -> ServerConfig {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    ServerConfig {
        data_grant: [400_000, 60_000, 9_000][rng.gen_range(0..3)],
        energy_grant: [3_000.0, 437.25, 0.75][rng.gen_range(0..3)],
        ..ServerConfig::default()
    }
}

/// The eager reference for [`ShardState`]: one policy per user, every
/// registered user's policy run every round, counters kept the way the
/// shard keeps them.
struct Eager<P> {
    users: BTreeMap<UserId, P>,
    factory: fn() -> P,
    ladder: Arc<richnote_core::PresentationLadder>,
    round: u64,
    ingested: u64,
    selected: u64,
    bytes_budgeted: u64,
    bytes_spent: u64,
}

impl<P: Policy + Send> Eager<P> {
    fn new(factory: fn() -> P) -> Self {
        Eager {
            users: BTreeMap::new(),
            factory,
            ladder: Arc::new(richnote_core::AudioPresentationSpec::paper_default().ladder()),
            round: 0,
            ingested: 0,
            selected: 0,
            bytes_budgeted: 0,
            bytes_spent: 0,
        }
    }

    fn ingest(&mut self, cfg: &ServerConfig, user: UserId, item: &ContentItem) {
        self.users.entry(user).or_insert_with(self.factory).enqueue(QueuedNotification {
            enqueued_at: self.round as f64 * cfg.round_secs,
            ladder: Arc::clone(&self.ladder),
            content_utility: content_utility(item),
            item: item.clone(),
        });
        self.ingested += 1;
    }

    fn run_round(&mut self, cfg: &ServerConfig) -> Vec<(UserId, ContentId, u8)> {
        let ctx = RoundContext::builder(&cfg.cost)
            .round(self.round)
            .now(self.round as f64 * cfg.round_secs)
            .round_secs(cfg.round_secs)
            .link_capacity(cfg.link_capacity)
            .data_grant(cfg.data_grant)
            .energy_grant(cfg.energy_grant)
            .build();
        let mut selected = Vec::new();
        for (&user, policy) in &mut self.users {
            self.bytes_budgeted += cfg.data_grant;
            for d in policy.select_round(&ctx, &mut NoopObserver) {
                self.bytes_spent += d.size;
                selected.push((user, d.content, d.level));
            }
        }
        self.selected += selected.len() as u64;
        self.round += 1;
        selected
    }

    /// The shard checkpoint an eager shard would write; the wall-clock
    /// latency histogram is taken from `like`, the only field it cannot
    /// reproduce.
    fn checkpoint(&self, like: &ShardCheckpoint) -> ShardCheckpoint {
        ShardCheckpoint {
            shard: like.shard,
            round: self.round,
            ingested: self.ingested,
            selected: self.selected,
            bytes_budgeted: self.bytes_budgeted,
            bytes_spent: self.bytes_spent,
            latency: like.latency.clone(),
            users: self
                .users
                .iter()
                .map(|(&user, p)| UserCheckpoint { user, scheduler: p.checkpoint() })
                .collect(),
        }
    }
}

/// A checkpoint's serialized form (the body a checkpoint file carries).
fn checkpoint_bytes(ck: &ShardCheckpoint) -> String {
    serde_json::to_string(ck).expect("checkpoints serialize")
}

/// Drives a [`ShardState`] and the eager reference through one schedule:
/// per-round selections must match, and so must checkpoints taken at
/// random rounds, byte for byte.
fn assert_shard_matches_eager<P: Policy + Send>(seed: u64, factory: fn() -> P) {
    let cfg = sparse_config(seed);
    let schedule = sparse_schedule(seed, 150);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc4ec);
    let mut shard = ShardState::with_policy(0, cfg.clone(), factory);
    let mut eager = Eager::new(factory);
    for (round, batch) in schedule.iter().enumerate() {
        for (user, item) in batch {
            shard.ingest(*user, item.clone(), Instant::now(), None);
            eager.ingest(&cfg, *user, item);
        }
        let out = shard.run_round();
        assert_eq!(out.selected, eager.run_round(&cfg), "seed {seed}: round {round} diverged");
        if rng.gen_bool(0.08) || round + 1 == schedule.len() {
            let ck = shard.checkpoint();
            assert!(
                checkpoint_bytes(&ck) == checkpoint_bytes(&eager.checkpoint(&ck)),
                "seed {seed}: checkpoint after round {round} differs from the eager loop's"
            );
        }
    }
}

#[test]
fn idle_users_skip_rounds_like_an_eager_loop() {
    for seed in 0..12 {
        assert_shard_matches_eager(seed, || RichNoteScheduler::builder().build());
        for name in PolicyName::ALL {
            assert_shard_matches_eager(seed, name.factory());
        }
    }
}

#[test]
fn idle_users_survive_checkpoint_restore() {
    let mut idle_then_woken = 0;
    for seed in 100..112 {
        for name in PolicyName::ALL {
            let factory = name.factory();
            let cfg = sparse_config(seed);
            let schedule = sparse_schedule(seed, 120);
            let cut = SmallRng::seed_from_u64(seed).gen_range(10..110);

            let mut whole = ShardState::with_policy(0, cfg.clone(), factory);
            let mut cut_run = ShardState::with_policy(0, cfg.clone(), factory);
            let mut tail_whole = Vec::new();
            let mut tail_restored = Vec::new();
            for (round, batch) in schedule.iter().enumerate() {
                if round == cut {
                    // Through the checkpoint's JSON form, as a restart reads it.
                    let bytes = checkpoint_bytes(&cut_run.checkpoint());
                    let ck: ShardCheckpoint = serde_json::from_str(&bytes).unwrap();
                    let idle: Vec<UserId> = ck
                        .users
                        .iter()
                        .filter(|u| {
                            <Box<dyn Policy + Send>>::restore(u.scheduler.clone())
                                .unwrap()
                                .backlog()
                                == 0
                        })
                        .map(|u| u.user)
                        .collect();
                    idle_then_woken += schedule[cut..]
                        .iter()
                        .flatten()
                        .filter(|(user, _)| idle.contains(user))
                        .count();
                    cut_run = ShardState::restore_with(0, cfg.clone(), ck, factory).unwrap();
                }
                for (user, item) in batch {
                    whole.ingest(*user, item.clone(), Instant::now(), None);
                    cut_run.ingest(*user, item.clone(), Instant::now(), None);
                }
                let (a, b) = (whole.run_round(), cut_run.run_round());
                if round < cut {
                    assert_eq!(a, b, "seed {seed} {name}: round {round} before the cut");
                } else {
                    tail_whole.push(a);
                    tail_restored.push(b);
                }
            }
            assert_eq!(tail_whole, tail_restored, "seed {seed} {name}: diverged after the restore");
            let (mut a, b) = (whole.checkpoint(), cut_run.checkpoint());
            a.latency = b.latency.clone();
            assert!(
                checkpoint_bytes(&a) == checkpoint_bytes(&b),
                "seed {seed} {name}: final checkpoints differ"
            );
        }
    }
    assert!(idle_then_woken > 0, "no user was idle across a restore and then received work");
}
