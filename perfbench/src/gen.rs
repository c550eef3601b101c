//! Workload inputs, built from the repository's own trace generators.
//!
//! `--seed` seeds `richnote_trace`'s generators, so the same seed yields
//! the same trace and byte-identical frames. This module only decides
//! which users a workload covers, which topic each publication goes to,
//! and in what order the frames are sent.

use richnote_core::content::{ContentItem, ContentKind};
use richnote_core::{ContentId, PlaylistId, UserId};
use richnote_pubsub::Topic;
use richnote_server::codec::{codec_for, CodecKind};
use richnote_server::wire::Request;
use richnote_trace::{ActivityConfig, ActivityTraceGenerator, Trace, TraceConfig, TraceGenerator};
use std::collections::{BTreeMap, BTreeSet};

/// Virtual seconds per round (the daemon's default `--round-secs`).
pub const ROUND_SECS: f64 = 3_600.0;
/// The paper's horizon: Jan 1–7, one round per hour.
pub const WEEK_HOURS: u64 = 7 * 24;
/// The volume regime the repository simulates the paper in
/// (`richnote_sim::experiments::EnvConfig::repro_default`): 40
/// notifications per user-day, so that the weekly budgets bind.
pub const PER_USER_DAY: f64 = 40.0;

/// One client request of a workload, before encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `Subscribe { user, topic }`.
    Sub(UserId, Topic),
    /// `Publish` of `item` on `topic`; the sequence number and trace id
    /// are assigned in stream order by the sender.
    Pub(Topic, ContentItem),
    /// One round (`Tick` or `TickReport`, per workload).
    Tick,
}

/// A generated workload: what set-up sends, then what the measured
/// region sends.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Subscriptions, warm-up publications and the warm-up tick.
    pub setup: Vec<Op>,
    /// Closed-loop region: every op in send order.
    pub region: Vec<Op>,
    /// Open-loop region only: publications with their due offsets (ns
    /// from the region start), on the publish connection.
    pub open_pubs: Vec<(u64, Topic, ContentItem)>,
    /// Open-loop region only: tick due offsets (ns from region start), on
    /// the tick connection.
    pub open_ticks: Vec<u64>,
}

impl Inputs {
    /// Ticks in set-up plus region.
    pub fn ticks(&self) -> usize {
        let count = |ops: &[Op]| ops.iter().filter(|o| matches!(o, Op::Tick)).count();
        count(&self.setup) + count(&self.region) + self.open_ticks.len()
    }
}

/// A `TraceGenerator` trace at the paper's volume regime and kind mix.
fn notification_trace(seed: u64, n_users: usize, days: u64) -> Trace {
    TraceGenerator::new(TraceConfig {
        seed,
        n_users,
        days,
        mean_notifications_per_user_day: PER_USER_DAY,
        ..TraceConfig::default()
    })
    .generate()
}

/// `item` as a warm-up publication: due at virtual time 0, id `id`.
fn warm_up(item: &ContentItem, id: u64) -> ContentItem {
    ContentItem { id: ContentId::new(id), arrival: 0.0, ..item.clone() }
}

/// Orders region publications by arrival and inserts one tick at every
/// virtual hour boundary, so hour `h`'s items land before round `h+1`.
/// Ids are reassigned in send order from `next_id`.
fn hourly_region(mut pubs: Vec<(Topic, ContentItem)>, next_id: u64) -> Vec<Op> {
    pubs.sort_by(|a, b| a.1.arrival.total_cmp(&b.1.arrival));
    let mut region = Vec::with_capacity(pubs.len() + WEEK_HOURS as usize);
    let mut iter = pubs.into_iter().enumerate().peekable();
    for hour in 0..WEEK_HOURS {
        let end = (hour + 1) as f64 * ROUND_SECS;
        while let Some((i, (topic, mut it))) = iter.next_if(|(_, p)| p.1.arrival < end) {
            it.id = ContentId::new(next_id + i as u64);
            region.push(Op::Pub(topic, it));
        }
        region.push(Op::Tick);
    }
    region
}

/// `week_replay`: the `top` users by volume of a `population`-user,
/// 7-day `TraceGenerator` trace, each subscribed to its own friend feed,
/// with every one of their notifications published on the recipient's
/// feed (1:1 routing, as the daemon's `loadgen` replays a trace).
/// Set-up gives every user a scheduler with a copy of its first
/// notification.
pub fn week_replay(seed: u64, population: usize, top: usize) -> Inputs {
    let trace = notification_trace(seed, population, 7);
    let users: BTreeSet<UserId> = trace.top_users(top).into_iter().collect();
    let mut setup: Vec<Op> = users.iter().map(|&u| Op::Sub(u, Topic::FriendFeed(u))).collect();
    let mut first = BTreeMap::new();
    let mut pubs = Vec::new();
    for item in trace.items.iter().filter(|i| users.contains(&i.recipient)) {
        first.entry(item.recipient).or_insert(item);
        pubs.push((Topic::FriendFeed(item.recipient), item.clone()));
    }
    for (k, (&user, item)) in first.iter().enumerate() {
        setup.push(Op::Pub(Topic::FriendFeed(user), warm_up(item, k as u64)));
    }
    setup.push(Op::Tick);
    let region = hourly_region(pubs, first.len() as u64);
    Inputs { setup, region, open_pubs: Vec::new(), open_ticks: Vec::new() }
}

/// `compat_fanout`: a 7-day `ActivityTraceGenerator` trace of `n_users`
/// at its default rates, published the way it was generated. The
/// generator fans each upstream event out into one notification per
/// recipient; here each event is published once and the broker fans it
/// out: a listening session on the listener's feed (subscribed by every
/// follower in the trace's social graph), an album release on the
/// artist's page (subscribed by every user who favours the artist), a
/// playlist update on the playlist (subscribed by the recipients of its
/// updates). Set-up publishes once on every topic, giving every
/// subscriber a scheduler.
pub fn compat_fanout(seed: u64, n_users: usize) -> Inputs {
    let cfg = ActivityConfig { seed, n_users, days: 7, ..ActivityConfig::default() };
    let (trace, _) = ActivityTraceGenerator::new(cfg).generate();
    let mut subs: Vec<(UserId, Topic)> = Vec::new();
    for u in (0..n_users as u64).map(UserId::new) {
        subs.extend(trace.graph.followees(u).map(|v| (u, Topic::FriendFeed(v))));
        subs.extend(trace.graph.favorites(u).iter().map(|&a| (u, Topic::ArtistPage(a))));
    }
    // Notifications of one event are contiguous: the generator emits them
    // together with one arrival time, and the sort by arrival is stable.
    let event = |i: &ContentItem| (i.kind, i.arrival.to_bits(), i.track, i.sender);
    let mut playlists: BTreeMap<Vec<UserId>, u64> = BTreeMap::new();
    let mut pubs = Vec::new();
    for group in trace.items.chunk_by(|a, b| event(a) == event(b)) {
        let item = &group[0];
        let topic = match item.sender {
            Some(listener) => Topic::FriendFeed(listener),
            None if item.kind == ContentKind::AlbumRelease => Topic::ArtistPage(item.artist),
            None => {
                let mut members: Vec<UserId> = group.iter().map(|i| i.recipient).collect();
                members.sort_unstable();
                members.dedup();
                let fresh = playlists.len() as u64;
                let id = *playlists.entry(members.clone()).or_insert(fresh);
                let playlist = Topic::Playlist(PlaylistId::new(id));
                if id == fresh {
                    subs.extend(members.iter().map(|&u| (u, playlist)));
                }
                playlist
            }
        };
        pubs.push((topic, item.clone()));
    }
    let mut setup: Vec<Op> = subs.iter().map(|&(u, t)| Op::Sub(u, t)).collect();
    let topics: BTreeSet<Topic> = subs.iter().map(|&(_, t)| t).collect();
    let template = &trace.items[0];
    for (k, &topic) in topics.iter().enumerate() {
        setup.push(Op::Pub(topic, warm_up(template, k as u64)));
    }
    setup.push(Op::Tick);
    let region = hourly_region(pubs, topics.len() as u64);
    Inputs { setup, region, open_pubs: Vec::new(), open_ticks: Vec::new() }
}

/// `round_fleet`: the `users` of a 1-day `TraceGenerator` trace, each
/// subscribed to its own friend feed and given a scheduler in set-up by
/// a copy of its first notification; then an open-loop region of
/// `region_ns`: one tick every `tick_ns` on the tick connection, beside
/// the trace's later notifications, in arrival order, at `pubs_per_s` on
/// the publish connection. A publication's virtual arrival is moved to
/// the round it is due in.
pub fn round_fleet(
    seed: u64,
    users: usize,
    region_ns: u64,
    tick_ns: u64,
    pubs_per_s: u64,
) -> Inputs {
    let trace = notification_trace(seed, users, 1);
    let mut setup: Vec<Op> =
        (0..users as u64).map(UserId::new).map(|u| Op::Sub(u, Topic::FriendFeed(u))).collect();
    let mut seen = BTreeSet::new();
    let (firsts, later): (Vec<&ContentItem>, Vec<&ContentItem>) =
        trace.items.iter().partition(|i| seen.insert(i.recipient));
    for (k, item) in firsts.iter().enumerate() {
        setup.push(Op::Pub(Topic::FriendFeed(item.recipient), warm_up(item, k as u64)));
    }
    setup.push(Op::Tick);
    let open_ticks: Vec<u64> = (1..=region_ns / tick_ns).map(|k| k * tick_ns).collect();
    let gap = 1_000_000_000 / pubs_per_s;
    let open_pubs = (0..region_ns / gap)
        .zip(later.iter().cycle())
        .map(|(j, item)| {
            let due = j * gap;
            let it = ContentItem {
                id: ContentId::new(firsts.len() as u64 + j),
                arrival: (due / tick_ns + 1) as f64 * ROUND_SECS,
                ..(*item).clone()
            };
            (due, Topic::FriendFeed(item.recipient), it)
        })
        .collect();
    Inputs { setup, region: Vec::new(), open_pubs, open_ticks }
}

/// The `Publish` frame for publication `seq` of a run seeded `seed`;
/// `traced` attaches a nonzero trace id derived from both.
pub fn publish(seed: u64, seq: u64, topic: Topic, item: ContentItem, traced: bool) -> Request {
    let trace = traced.then(|| mix(seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1);
    Request::Publish { seq, topic, item, trace }
}

/// Every frame a client sends in one daemon lifetime, encoded once, in
/// send order: set-up ops, then region ops, then open-loop publications.
/// Publications take sequence numbers 1, 2, … in that order, as the
/// sender numbers them on its one publishing connection, so the bytes are
/// the same in every lifetime and the load generator only copies them
/// while it measures.
pub struct Frames {
    bytes: Vec<u8>,
    /// End offset in `bytes` of each frame.
    ends: Vec<usize>,
}

impl Frames {
    /// Encodes `inputs` in `kind`; `tick` is the request each `Op::Tick`
    /// sends, and `traced` gives every publication a trace id.
    ///
    /// # Errors
    ///
    /// An encoder error (a frame over the protocol's size limit).
    pub fn encode(
        inputs: &Inputs,
        seed: u64,
        kind: CodecKind,
        traced: bool,
        tick: &Request,
    ) -> Result<Frames, String> {
        let mut codec = codec_for(kind);
        let mut frames = Frames { bytes: Vec::new(), ends: Vec::new() };
        let mut push = |req: &Request| -> Result<(), String> {
            codec.write_request(&mut frames.bytes, req).map_err(|e| format!("encode: {e}"))?;
            frames.ends.push(frames.bytes.len());
            Ok(())
        };
        let mut seq = 0;
        for op in inputs.setup.iter().chain(&inputs.region) {
            match op {
                Op::Sub(user, topic) => push(&Request::Subscribe { user: *user, topic: *topic })?,
                Op::Pub(topic, item) => {
                    seq += 1;
                    push(&publish(seed, seq, *topic, item.clone(), traced))?;
                }
                Op::Tick => push(tick)?,
            }
        }
        for (_, topic, item) in &inputs.open_pubs {
            seq += 1;
            push(&publish(seed, seq, *topic, item.clone(), traced))?;
        }
        Ok(frames)
    }

    /// Frame `i` in send order.
    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

/// SplitMix64's finaliser: spreads `z`'s bits over the whole word.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every frame a run would send, encoded in `kind`, in send order,
    /// then the open-loop tick schedule.
    fn frames(inputs: &Inputs, seed: u64, kind: CodecKind, traced: bool) -> Vec<u8> {
        let frames = Frames::encode(inputs, seed, kind, traced, &Request::Tick { rounds: 1 });
        let mut bytes = frames.unwrap().bytes;
        bytes.extend(inputs.open_ticks.iter().flat_map(|t| t.to_le_bytes()));
        bytes
    }

    #[test]
    fn same_seed_gives_byte_identical_frames() {
        let make = |seed| {
            [
                (week_replay(seed, 40, 20), CodecKind::Binary, false),
                (compat_fanout(seed, 40), CodecKind::Json, true),
                (round_fleet(seed, 40, 200_000_000, 20_000_000, 2_000), CodecKind::Binary, false),
            ]
            .map(|(inputs, kind, traced)| frames(&inputs, seed, kind, traced))
        };
        let (a, b, other) = (make(7), make(7), make(8));
        for i in 0..3 {
            assert!(!a[i].is_empty());
            assert_eq!(a[i], b[i], "workload {i}: same seed, different bytes");
            assert_ne!(a[i], other[i], "workload {i}: the seed does not reach the frames");
        }
    }

    #[test]
    fn week_traces_tick_once_per_virtual_hour_in_arrival_order() {
        for inputs in [week_replay(3, 60, 30), compat_fanout(3, 60)] {
            let ticks = inputs.region.iter().filter(|o| matches!(o, Op::Tick)).count();
            assert_eq!(ticks as u64, WEEK_HOURS);
            assert_eq!(inputs.ticks() as u64, WEEK_HOURS + 1, "plus the warm-up tick");
            let mut hour = 0u64;
            let mut last = 0.0;
            for op in &inputs.region {
                match op {
                    Op::Tick => hour += 1,
                    Op::Pub(_, item) => {
                        assert!(item.arrival >= last, "arrival order");
                        assert_eq!((item.arrival / ROUND_SECS) as u64, hour, "lands in its hour");
                        last = item.arrival;
                    }
                    Op::Sub(..) => panic!("subscriptions belong to set-up"),
                }
            }
        }
    }

    #[test]
    fn week_replay_publishes_every_notification_of_its_top_users() {
        let trace = notification_trace(4, 60, 7);
        let top: BTreeSet<UserId> = trace.top_users(30).into_iter().collect();
        let inputs = week_replay(4, 60, 30);
        let region: Vec<(Topic, &ContentItem)> = inputs
            .region
            .iter()
            .filter_map(|op| match op {
                Op::Pub(t, i) => Some((*t, i)),
                _ => None,
            })
            .collect();
        let want = trace.items.iter().filter(|i| top.contains(&i.recipient)).count();
        assert_eq!(region.len(), want);
        assert!(region.iter().all(|(t, i)| *t == Topic::FriendFeed(i.recipient)));
    }

    #[test]
    fn fanout_reaches_every_trace_recipient() {
        // Every notification the generator made must reach its recipient
        // through the topic its event was published on and the
        // subscriptions set-up sends.
        let cfg = ActivityConfig { seed: 5, n_users: 60, days: 7, ..ActivityConfig::default() };
        let (trace, _) = ActivityTraceGenerator::new(cfg).generate();
        let inputs = compat_fanout(5, 60);
        let mut followers: BTreeMap<Topic, BTreeSet<UserId>> = BTreeMap::new();
        for op in &inputs.setup {
            if let Op::Sub(u, t) = op {
                followers.entry(*t).or_default().insert(*u);
            }
        }
        let mut topic_of = BTreeMap::new();
        for op in &inputs.region {
            if let Op::Pub(t, i) = op {
                assert!(topic_of.insert((i.arrival.to_bits(), i.track), *t).is_none());
            }
        }
        let kinds: std::collections::HashSet<_> =
            topic_of.values().map(std::mem::discriminant).collect();
        assert_eq!(kinds.len(), 3, "feeds, artist pages and playlists all publish");
        for item in &trace.items {
            let topic = topic_of[&(item.arrival.to_bits(), item.track)];
            assert!(followers[&topic].contains(&item.recipient), "{item:?} misses {topic}");
        }
        assert!(topic_of.len() < trace.items.len(), "events are published once, not per recipient");
    }

    #[test]
    fn fleet_schedule_keeps_its_rates() {
        let inputs = round_fleet(5, 100, 1_000_000_000, 20_000_000, 2_000);
        assert_eq!(inputs.open_ticks.len(), 50);
        assert!(inputs.open_ticks.windows(2).all(|w| w[1] - w[0] == 20_000_000));
        assert_eq!(inputs.open_pubs.len(), 2_000);
        assert!(inputs.open_pubs.windows(2).all(|w| w[1].0 - w[0].0 == 500_000));
        // Set-up subscribes every user and gives each a publication.
        let count = |f: fn(&Op) -> bool| inputs.setup.iter().filter(|o| f(o)).count();
        assert_eq!(count(|o| matches!(o, Op::Sub(..))), 100);
        assert_eq!(count(|o| matches!(o, Op::Pub(..))), 100);
    }
}
