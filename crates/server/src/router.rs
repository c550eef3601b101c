//! Publication routing: broker matching plus user-to-shard placement,
//! session dedup watermarks, and drain gating.

use crate::checkpoint::{SessionEntry, SubscriptionEntry};
use crate::queue::PushOutcome;
use crate::shard::ShardMsg;
use richnote_core::{ContentItem, UserId};
use richnote_pubsub::{Broker, DeliveryMode, Publication, Topic};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maps a user to its owning shard with a multiplicative (Fibonacci) hash.
///
/// Trace generators hand out dense sequential user ids; taking `id % n`
/// would stripe consecutive users across shards, which is fine, but any
/// structured id scheme (e.g. region prefixes) would skew it. Multiplying
/// by 2^64/φ first whitens the id so every shard count sees a near-uniform
/// split regardless of id structure.
pub fn shard_of(user: UserId, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    let h = user.value().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // Use the high bits: the low bits of a multiplicative hash are weak.
    ((h >> 32) % shards as u64) as usize
}

/// What [`Router::apply_publish`] did with a publication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishOutcome {
    /// Routed to `matched` subscribers' shards.
    Routed {
        /// Number of matched subscribers.
        matched: usize,
    },
    /// Already applied under this session (a republished duplicate);
    /// acked but not routed again.
    Duplicate,
    /// Refused because the daemon is draining.
    Draining,
}

/// The connection-thread side of routing: a shared broker, the shard
/// ingest queues, session dedup watermarks, and the drain gate.
pub struct Router {
    broker: Mutex<Broker<ContentItem>>,
    queues: Vec<Arc<crate::queue::BoundedQueue<ShardMsg>>>,
    /// Per-session highest applied publish sequence number.
    sessions: Mutex<HashMap<u64, u64>>,
    /// Subscription edges in registration order, recorded for
    /// checkpointing (the broker itself is not serializable across the
    /// crate boundary). The broker's topic index answers membership, so
    /// deduplication is O(1) without a second set.
    subscriptions: Mutex<Vec<SubscriptionEntry>>,
    draining: AtomicBool,
    /// Publications refused at the router because of draining.
    drain_refused: AtomicU64,
}

impl Router {
    /// A router over the given shard queues.
    pub fn new(queues: Vec<Arc<crate::queue::BoundedQueue<ShardMsg>>>) -> Self {
        assert!(!queues.is_empty());
        Router {
            broker: Mutex::new(Broker::new()),
            queues,
            sessions: Mutex::new(HashMap::new()),
            subscriptions: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
            drain_refused: AtomicU64::new(0),
        }
    }

    /// Number of shards routed to.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The ingest queue of shard `shard`.
    pub fn queue(&self, shard: usize) -> &Arc<crate::queue::BoundedQueue<ShardMsg>> {
        &self.queues[shard]
    }

    /// Registers a real-time subscription and records the edge for
    /// checkpointing. Re-subscribing is idempotent.
    ///
    /// The daemon always subscribes in [`DeliveryMode::Realtime`]: round
    /// pacing happens in the shard schedulers, so buffering again in the
    /// broker would double-delay every notification.
    pub fn subscribe(&self, user: UserId, topic: Topic) {
        // The broker lock is held across the membership check and the
        // push, so concurrent subscribes of one edge record it once.
        let mut broker = self.broker.lock().expect("no thread panics holding the broker");
        if broker.is_subscribed(user, topic) {
            return;
        }
        broker.subscribe_with_mode(user, topic, DeliveryMode::Realtime);
        let mut subs = self.subscriptions.lock().expect("no thread panics holding the table");
        subs.push(SubscriptionEntry { user, topic });
    }

    /// Begins (or resumes) a session, returning the highest publish
    /// sequence number already applied for it. Session 0 opts out of
    /// deduplication and always resumes at 0.
    pub fn begin_session(&self, session: u64) -> u64 {
        if session == 0 {
            return 0;
        }
        *self.sessions.lock().unwrap().entry(session).or_insert(0)
    }

    /// Applies one publication idempotently: a `seq` at or below the
    /// session's watermark is a republished duplicate and is dropped
    /// (already routed before); otherwise the publication is matched and
    /// forwarded to each subscriber's shard and the watermark advances.
    pub fn apply_publish(
        &self,
        session: u64,
        seq: u64,
        topic: Topic,
        item: ContentItem,
        received: Instant,
    ) -> PublishOutcome {
        self.apply_publish_traced(session, seq, topic, item, received, None).0
    }

    /// [`Router::apply_publish`] with an optional causal trace id carried
    /// into every resulting shard ingest. Also returns the trace ids of
    /// traced ingests that will never be processed (shed by queue
    /// overflow, or refused at the queue while draining), so the caller
    /// can record Drop spans instead of losing the traces silently.
    pub fn apply_publish_traced(
        &self,
        session: u64,
        seq: u64,
        topic: Topic,
        item: ContentItem,
        received: Instant,
        trace: Option<u64>,
    ) -> (PublishOutcome, Vec<u64>) {
        if self.draining.load(Ordering::SeqCst) {
            self.drain_refused.fetch_add(1, Ordering::Relaxed);
            return (PublishOutcome::Draining, Vec::new());
        }
        if session != 0 {
            let mut sessions = self.sessions.lock().unwrap();
            let watermark = sessions.entry(session).or_insert(0);
            if seq <= *watermark {
                return (PublishOutcome::Duplicate, Vec::new());
            }
            *watermark = seq;
        }
        let published_at = item.arrival;
        let deliveries =
            self.broker.lock().unwrap().publish(Publication::new(topic, item, published_at));
        let matched = deliveries.len();
        let mut dropped_traces = Vec::new();
        for d in deliveries {
            let shard = shard_of(d.subscriber, self.queues.len());
            let (outcome, casualty) = self.queues[shard].push_evicting(ShardMsg::Ingest {
                user: d.subscriber,
                item: d.payload,
                received,
                trace,
            });
            if outcome == PushOutcome::Refused {
                self.drain_refused.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(ShardMsg::Ingest { trace: Some(t), .. }) = casualty {
                dropped_traces.push(t);
            }
        }
        (PublishOutcome::Routed { matched }, dropped_traces)
    }

    /// Switches the drain gate: while on, the router and every shard queue
    /// refuse new ingest (control messages still pass).
    pub fn set_draining(&self, draining: bool) {
        self.draining.store(draining, Ordering::SeqCst);
        for q in &self.queues {
            q.set_draining(draining);
        }
    }

    /// Whether the drain gate is on.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Publications refused because of draining, across the router gate
    /// and every shard queue.
    pub fn dropped_on_drain(&self) -> u64 {
        self.drain_refused.load(Ordering::Relaxed)
            + self.queues.iter().map(|q| q.refused()).sum::<u64>()
    }

    /// The session watermark table, sorted by session id for deterministic
    /// checkpoints.
    pub fn session_entries(&self) -> Vec<SessionEntry> {
        let mut out: Vec<SessionEntry> = self
            .sessions
            .lock()
            .unwrap()
            .iter()
            .map(|(&session, &acked)| SessionEntry { session, acked })
            .collect();
        out.sort_unstable_by_key(|e| e.session);
        out
    }

    /// The subscription table, in registration order.
    pub fn subscription_entries(&self) -> Vec<SubscriptionEntry> {
        self.subscriptions.lock().unwrap().clone()
    }

    /// Restores session watermarks and subscriptions from a checkpoint.
    pub fn restore(&self, sessions: &[SessionEntry], subscriptions: &[SubscriptionEntry]) {
        {
            let mut map = self.sessions.lock().unwrap();
            for e in sessions {
                map.insert(e.session, e.acked);
            }
        }
        for e in subscriptions {
            self.subscribe(e.user, e.topic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::BoundedQueue;
    use richnote_core::content::{ContentFeatures, ContentKind, Interaction, SocialTie};
    use richnote_core::{AlbumId, ArtistId, ContentId, TrackId};

    fn item(id: u64, recipient: u64) -> ContentItem {
        ContentItem {
            id: ContentId::new(id),
            recipient: UserId::new(recipient),
            sender: None,
            kind: ContentKind::FriendFeed,
            track: TrackId::new(id),
            album: AlbumId::new(1),
            artist: ArtistId::new(1),
            arrival: 0.0,
            track_secs: 180.0,
            features: ContentFeatures {
                tie: SocialTie::Mutual,
                track_popularity: 0.9,
                album_popularity: 0.5,
                artist_popularity: 0.7,
                weekend: false,
                night: false,
            },
            interaction: Interaction::NoActivity,
        }
    }

    fn router(shards: usize) -> Router {
        Router::new(
            (0..shards).map(|_| Arc::new(BoundedQueue::new(16, ShardMsg::droppable))).collect(),
        )
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for uid in 0..1_000u64 {
            let s = shard_of(UserId::new(uid), 7);
            assert!(s < 7);
            assert_eq!(s, shard_of(UserId::new(uid), 7));
        }
    }

    #[test]
    fn shard_of_balances_sequential_ids() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for uid in 0..8_000u64 {
            counts[shard_of(UserId::new(uid), shards)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        // Near-uniform: no shard more than 30% off the mean of 1000.
        assert!(*min > 700 && *max < 1300, "counts {counts:?}");
    }

    #[test]
    fn single_shard_always_zero() {
        assert_eq!(shard_of(UserId::new(u64::MAX), 1), 0);
    }

    #[test]
    fn duplicate_seq_is_not_routed_twice() {
        let r = router(1);
        let user = UserId::new(1);
        r.subscribe(user, Topic::FriendFeed(user));
        assert_eq!(r.begin_session(9), 0);
        let now = Instant::now();
        assert_eq!(
            r.apply_publish(9, 1, Topic::FriendFeed(user), item(1, 1), now),
            PublishOutcome::Routed { matched: 1 }
        );
        assert_eq!(
            r.apply_publish(9, 1, Topic::FriendFeed(user), item(1, 1), now),
            PublishOutcome::Duplicate
        );
        assert_eq!(r.queue(0).len(), 1, "duplicate must not reach the shard");
        assert_eq!(r.begin_session(9), 1, "resume returns the watermark");
    }

    #[test]
    fn session_zero_never_dedups() {
        let r = router(1);
        let user = UserId::new(1);
        r.subscribe(user, Topic::FriendFeed(user));
        let now = Instant::now();
        for _ in 0..2 {
            assert_eq!(
                r.apply_publish(0, 1, Topic::FriendFeed(user), item(1, 1), now),
                PublishOutcome::Routed { matched: 1 }
            );
        }
        assert_eq!(r.queue(0).len(), 2);
    }

    #[test]
    fn draining_refuses_at_the_router() {
        let r = router(1);
        let user = UserId::new(1);
        r.subscribe(user, Topic::FriendFeed(user));
        r.set_draining(true);
        assert!(r.is_draining());
        assert_eq!(
            r.apply_publish(5, 1, Topic::FriendFeed(user), item(1, 1), Instant::now()),
            PublishOutcome::Draining
        );
        assert_eq!(r.dropped_on_drain(), 1);
        assert_eq!(r.begin_session(5), 0, "refused publish must not advance the watermark");
    }

    #[test]
    fn overflow_surfaces_the_dropped_trace() {
        // A 1-entry queue: the second traced publish sheds the first, and
        // the shed trace id comes back for Drop-span accounting.
        let r = Router::new(vec![Arc::new(BoundedQueue::new(1, ShardMsg::droppable))]);
        let user = UserId::new(1);
        r.subscribe(user, Topic::FriendFeed(user));
        let now = Instant::now();
        let (outcome, dropped) =
            r.apply_publish_traced(0, 1, Topic::FriendFeed(user), item(1, 1), now, Some(111));
        assert_eq!(outcome, PublishOutcome::Routed { matched: 1 });
        assert!(dropped.is_empty());
        let (outcome, dropped) =
            r.apply_publish_traced(0, 2, Topic::FriendFeed(user), item(2, 1), now, Some(222));
        assert_eq!(outcome, PublishOutcome::Routed { matched: 1 });
        assert_eq!(dropped, vec![111], "the shed ingest's trace is surfaced");
    }

    #[test]
    fn duplicate_subscribes_are_dropped_in_registration_order() {
        let r = router(2);
        let (a, b) = (UserId::new(5), UserId::new(2));
        let edges = [
            (a, Topic::FriendFeed(a)),
            (b, Topic::FriendFeed(a)),
            (a, Topic::FriendFeed(a)),
            (b, Topic::FriendFeed(b)),
            (b, Topic::FriendFeed(a)),
        ];
        for (user, topic) in edges {
            r.subscribe(user, topic);
        }
        let want = [edges[0], edges[1], edges[3]]
            .map(|(user, topic)| SubscriptionEntry { user, topic })
            .to_vec();
        assert_eq!(r.subscription_entries(), want);
        // Restoring the table re-subscribes it without duplicating edges.
        let restored = router(2);
        restored.restore(&[], &r.subscription_entries());
        restored.restore(&[], &r.subscription_entries());
        assert_eq!(restored.subscription_entries(), want);
        assert_eq!(
            restored.apply_publish(0, 1, Topic::FriendFeed(a), item(1, 5), Instant::now()),
            PublishOutcome::Routed { matched: 2 }
        );
    }

    #[test]
    fn restore_resumes_sessions_and_subscriptions() {
        let r = router(2);
        let user = UserId::new(3);
        r.restore(
            &[SessionEntry { session: 7, acked: 40 }],
            &[SubscriptionEntry { user, topic: Topic::FriendFeed(user) }],
        );
        assert_eq!(r.begin_session(7), 40);
        assert_eq!(
            r.apply_publish(7, 41, Topic::FriendFeed(user), item(1, 3), Instant::now()),
            PublishOutcome::Routed { matched: 1 }
        );
        assert_eq!(r.subscription_entries().len(), 1);
        assert_eq!(r.session_entries(), vec![SessionEntry { session: 7, acked: 41 }]);
    }
}
