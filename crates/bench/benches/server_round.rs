//! The `richnote-server` shard round-loop hot path — broker match, shard
//! placement, scheduler ingest, and one MCKP round — at 1k/10k/100k
//! registered users, and on an idle 100k-user fleet at varying numbers of
//! active users.
//!
//! The timed closure does exactly what the daemon does between two `Tick`
//! frames for a fixed publication batch: match each publication against the
//! subscription table, hash the subscriber onto its shard, enqueue on that
//! user's scheduler, then run one round on every shard.
//!
//! * `server_round/{users}` holds the batch at 512 publications and scales
//!   registered users: the subscription table, the per-shard user-index
//!   lookups at ingest and any per-registered-user overhead of the round
//!   loop. A round visits only users with queued work, so time should
//!   stay roughly flat across scales.
//! * `server_round_idle_fleet/{active}` holds registered users at 100k
//!   (all idle between rounds) and scales the batch, one publication per
//!   active user: round time should follow active users, not registered
//!   ones.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use richnote_core::content::{ContentFeatures, ContentItem, ContentKind, Interaction, SocialTie};
use richnote_core::ids::{AlbumId, ArtistId, ContentId, TrackId, UserId};
use richnote_pubsub::{Broker, DeliveryMode, Publication, Topic};
use richnote_server::{shard_of, ServerConfig, ShardState};
use std::time::Instant;

const SHARDS: usize = 4;
/// Publications matched + ingested per measured round.
const BATCH: u64 = 512;

fn item(id: u64, recipient: u64) -> ContentItem {
    ContentItem {
        id: ContentId::new(id),
        recipient: UserId::new(recipient),
        sender: None,
        kind: ContentKind::FriendFeed,
        track: TrackId::new(id),
        album: AlbumId::new(id % 97),
        artist: ArtistId::new(id % 31),
        arrival: 0.0,
        track_secs: 240.0,
        features: ContentFeatures {
            tie: SocialTie::Mutual,
            track_popularity: 0.2 + 0.6 * ((id * 37) % 101) as f64 / 101.0,
            album_popularity: 0.5,
            artist_popularity: 0.6,
            weekend: false,
            night: false,
        },
        interaction: Interaction::NoActivity,
    }
}

/// A subscription table with every user on its own friend feed, plus the
/// shard states that will own them. Every user gets scheduler state up
/// front (one warm-up item, drained by a warm-up round), so the measured
/// rounds run against the full registered population the way a
/// long-running daemon would, instead of only the users the batch happens
/// to touch.
fn build(n_users: u64) -> (Broker<ContentItem>, Vec<ShardState>) {
    let mut broker = Broker::new();
    let mut shards: Vec<ShardState> =
        (0..SHARDS).map(|s| ShardState::new(s, ServerConfig::default())).collect();
    let t0 = Instant::now();
    for uid in 0..n_users {
        let user = UserId::new(uid);
        broker.subscribe_with_mode(user, Topic::FriendFeed(user), DeliveryMode::Realtime);
        shards[shard_of(user, SHARDS)].ingest(user, item(u64::MAX - uid, uid), t0, None);
    }
    for shard in &mut shards {
        shard.run_round();
    }
    (broker, shards)
}

/// One tick's work: match and ingest `batch` publications spread evenly
/// over the `n_users` population, then run one round on every shard.
fn tick(
    broker: &mut Broker<ContentItem>,
    shards: &mut [ShardState],
    next_id: &mut u64,
    n_users: u64,
    batch: u64,
) -> usize {
    let t0 = Instant::now();
    for k in 0..batch {
        let recipient = (k * n_users / batch) % n_users;
        let id = *next_id;
        *next_id += 1;
        let publication =
            Publication::new(Topic::FriendFeed(UserId::new(recipient)), item(id, recipient), 0.0);
        for d in broker.publish(publication) {
            let shard = shard_of(d.subscriber, SHARDS);
            shards[shard].ingest(d.subscriber, d.payload, t0, None);
        }
    }
    shards.iter_mut().map(|shard| shard.run_round().selected.len()).sum()
}

fn bench_server_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_round");
    for n_users in [1_000u64, 10_000, 100_000] {
        let (mut broker, mut shards) = build(n_users);
        let mut next_id = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(n_users), &n_users, |b, &n| {
            b.iter(|| black_box(tick(&mut broker, &mut shards, &mut next_id, n, BATCH)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("server_round_idle_fleet");
    const FLEET: u64 = 100_000;
    let (mut broker, mut shards) = build(FLEET);
    let mut next_id = 0u64;
    for active in [64u64, 512, 4_096] {
        group.bench_with_input(BenchmarkId::from_parameter(active), &active, |b, &active| {
            b.iter(|| black_box(tick(&mut broker, &mut shards, &mut next_id, FLEET, active)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_server_round);
criterion_main!(benches);
