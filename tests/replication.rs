//! Follower replication over a loopback socket: a [`Follower`] mirrors
//! a leader's `NetServer` commit for commit via the `FOLLOW` wire
//! exchange, and must answer one-shot queries **and** maintain its own
//! standing-query registrations bit-identically to the leader at the
//! same epoch — including after a forced snapshot resync, when the
//! follower lagged past the leader's feed bound or delta-log horizon.

use std::sync::Arc;
use std::time::Duration;
use uncertain_nn::modb::net::{
    FollowStart, Follower, NetClient, NetServer, NetServerConfig, ReplEvent,
};
use uncertain_nn::prelude::*;

const SYNC_TIMEOUT: Duration = Duration::from_secs(10);

fn straight(oid: u64, y: f64) -> UncertainTrajectory {
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(Oid(oid), &[(0.0, y, 0.0), (30.0, y, 60.0)]).unwrap(),
        0.5,
    )
    .unwrap()
}

fn populated_leader() -> Arc<ModServer> {
    let server = ModServer::new();
    server
        .register_all([
            straight(0, 0.0),
            straight(1, 1.0),
            straight(2, 3.0),
            straight(3, 9.0),
        ])
        .unwrap();
    Arc::new(server)
}

const ONE_SHOT: &str =
    "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0";
const STANDING: &str = "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
                        AND PROB_NN(*, Tr0, TIME) > 0 AS near0";

/// Leader and follower at the same epoch must hold bit-identical state
/// and produce bit-identical answers — one-shot and standing-query.
fn assert_mirrored(leader: &ModServer, follower: &Follower) {
    assert_eq!(follower.epoch(), leader.store().epoch());
    assert_eq!(
        follower.server().store().snapshot().to_vec(),
        leader.store().snapshot().to_vec()
    );
    assert_eq!(
        follower
            .server()
            .execute(ONE_SHOT)
            .expect("follower answers"),
        leader.execute(ONE_SHOT).expect("leader answers")
    );
    assert_eq!(
        follower
            .server()
            .subscription_output("near0")
            .expect("follower standing query"),
        leader
            .subscription_output("near0")
            .expect("leader standing query")
    );
}

/// The catch-up path: the leader's delta log covers the follower's
/// whole history, so the mirror is built by streamed replay and then
/// tracks live commits through inserts, updates, and removals.
#[test]
fn follower_tracks_leader_bit_identically() {
    let leader = populated_leader();
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&leader)).expect("binds");
    let addr = net.local_addr().to_string();

    let mut follower = Follower::connect(&addr).expect("follower connects");
    follower
        .sync_to(leader.store().epoch(), SYNC_TIMEOUT)
        .expect("catch-up replay");

    // Standing queries live on each side independently; the follower's
    // registration is maintained by its own mirror commits.
    leader.execute(STANDING).expect("leader subscribes");
    follower
        .server()
        .execute(STANDING)
        .expect("follower subscribes");

    let mut writer = NetClient::connect(&addr).expect("writer connects");
    writer.insert(straight(7, 1.5)).expect("insert lands");
    writer.update(straight(2, 0.25)).expect("update lands");
    writer.remove(Oid(3)).expect("remove lands");
    writer.insert(straight(9, 2.5)).expect("insert lands");

    follower
        .sync_to(leader.store().epoch(), SYNC_TIMEOUT)
        .expect("live tracking");
    assert_mirrored(&leader, &follower);

    writer.close().expect("writer closes");
    follower.close().expect("follower closes");
    net.shutdown();
}

/// The resync path, forced twice: (1) at connect time the leader's
/// capped delta log no longer reaches epoch 0, so bootstrap must come
/// from a snapshot; (2) a commit burst past the follower's tiny feed
/// capacity drops it to lagged mid-stream, and the re-`FOLLOW` lands on
/// a snapshot resync again. Standing-query registrations survive both
/// (restore keeps the registry alive) and answers stay bit-identical.
#[test]
fn lagged_follower_resyncs_from_snapshot_and_converges() {
    let leader = populated_leader();
    // A log horizon of 4 epochs and a follower feed of 4 frames make
    // both resync triggers cheap to hit.
    leader.store().set_delta_log_capacity(4);
    let net = NetServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&leader),
        NetServerConfig {
            outbox_capacity: 4,
            ..NetServerConfig::default()
        },
    )
    .expect("binds");
    let addr = net.local_addr().to_string();

    // Churn far past the log horizon before anyone follows: epoch 0 is
    // no longer reachable by replay, so connect itself must resync.
    let mut writer = NetClient::connect(&addr).expect("writer connects");
    for i in 0..8 {
        writer
            .update(straight(10 + i, i as f64))
            .expect("churn lands");
    }
    let mut follower = Follower::connect(&addr).expect("follower connects");
    assert_eq!(
        follower.epoch(),
        leader.store().epoch(),
        "bootstrap past a dead log horizon must arrive via snapshot"
    );

    leader.execute(STANDING).expect("leader subscribes");
    follower
        .server()
        .execute(STANDING)
        .expect("follower subscribes");

    // Burst without pumping: the 4-frame feed overflows, the server
    // turns the stream into a lag notice, and the next pump re-FOLLOWs.
    for i in 0..12 {
        writer
            .update(straight(30 + i, 2.0 + i as f64))
            .expect("burst lands");
    }
    writer.remove(Oid(1)).expect("remove lands");
    follower
        .sync_to(leader.store().epoch(), SYNC_TIMEOUT)
        .expect("recovers from lag");
    assert_mirrored(&leader, &follower);

    // The mirror keeps tracking normally after the resync.
    writer.insert(straight(50, 0.75)).expect("insert lands");
    follower
        .sync_to(leader.store().epoch(), SYNC_TIMEOUT)
        .expect("tracks after resync");
    assert_mirrored(&leader, &follower);

    writer.close().expect("writer closes");
    follower.close().expect("follower closes");
    net.shutdown();
}

/// Followers serve reads only; their local standing queries see every
/// mirrored epoch exactly once (`apply_replicated` runs the normal
/// commit path), so a delta-folding client of the *follower* stays
/// bit-exact too.
#[test]
fn follower_feeds_its_own_subscribers() {
    let leader = populated_leader();
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&leader)).expect("binds");
    let addr = net.local_addr().to_string();

    let mut follower = Follower::connect(&addr).expect("follower connects");
    follower
        .sync_to(leader.store().epoch(), SYNC_TIMEOUT)
        .expect("catch-up replay");
    follower
        .server()
        .execute(STANDING)
        .expect("follower subscribes");

    let mut writer = NetClient::connect(&addr).expect("writer connects");
    writer.insert(straight(7, 0.5)).expect("insert lands");
    writer.remove(Oid(7)).expect("remove lands");
    follower
        .sync_to(leader.store().epoch(), SYNC_TIMEOUT)
        .expect("live tracking");

    // Two mirrored commits → two deltas in the follower-local feed,
    // with the newcomer's upsert and its removal.
    let deltas = follower
        .server()
        .poll_subscription("near0")
        .expect("feed drains");
    assert_eq!(deltas.len(), 2, "one delta per mirrored commit");

    writer.close().expect("writer closes");
    follower.close().expect("follower closes");
    net.shutdown();
}

/// A long trajectory, so each commit's `ReplDelta` frame is tens of
/// kilobytes.
fn long_track(oid: u64, vertices: usize) -> UncertainTrajectory {
    let triples: Vec<(f64, f64, f64)> = (0..vertices)
        .map(|i| (i as f64 * 0.1, oid as f64 + (i % 2) as f64 * 0.01, i as f64))
        .collect();
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(Oid(oid), &triples).unwrap(),
        0.5,
    )
    .unwrap()
}

/// A `FOLLOW` catch-up of ≈12 MB — more than a loopback socket pair
/// buffers — queued in one go while the follower is not reading yet:
/// the server drains it through short vectored writes that end
/// mid-frame, and the follower must still receive every epoch once, in
/// order, and replay it to the leader's state.
#[test]
fn large_catch_up_survives_short_writes() {
    const COMMITS: u64 = 500;
    let leader = Arc::new(ModServer::new());
    for oid in 0..COMMITS {
        leader.store().insert(long_track(oid, 1000)).unwrap();
    }
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&leader)).expect("binds");

    let mut client = NetClient::connect(net.local_addr()).expect("follower connects");
    assert!(
        matches!(client.follow(0), Ok(FollowStart::Continue { epoch: 0 })),
        "the leader's log covers its whole history: replay, not resync"
    );
    // Let the catch-up back up against the unread socket.
    std::thread::sleep(Duration::from_millis(200));
    let mirror = ModServer::new();
    for want in 1..=COMMITS {
        match client.next_replication(Some(SYNC_TIMEOUT)) {
            Ok(Some(ReplEvent::Delta { epoch, ops })) => {
                assert_eq!(epoch, want, "catch-up epochs arrive once, in order");
                mirror.store().apply_replicated(&ops);
            }
            other => panic!("expected the ReplDelta of epoch {want}, got {other:?}"),
        }
    }
    assert_eq!(mirror.store().epoch(), leader.store().epoch());
    assert_eq!(
        mirror.store().snapshot().to_vec(),
        leader.store().snapshot().to_vec()
    );

    client.close().expect("follower closes");
    net.shutdown();
}
