//! Warm-follower replication: journal-segment shipping, lag accounting,
//! read-replica serving fan-out, and promotion.
//!
//! A [`Follower`] bootstraps from a leader directory's snapshot and then
//! ships the per-shard journal tails on every `sync`. The contract: every
//! record the leader acknowledged is either in the snapshot the follower
//! restored or in a journal segment a later sync ships — so a synced
//! follower answers bit-identically to its leader, and a promoted follower
//! serves the complete acknowledged history.

use higgs::{
    Follower, HiggsConfig, IngestError, JournalMode, ReplicaError, ReplicaService, ShardedHiggs,
    SnapshotError, Store, StoreOptions,
};
use higgs_common::{Query, StreamEdge, TemporalGraphSummary, TimeRange, VertexDirection};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "higgs-replica-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(shards: usize) -> HiggsConfig {
    HiggsConfig::builder()
        .shards(shards)
        .journal_mode(JournalMode::Buffered)
        .build()
        .expect("valid durable configuration")
}

fn workload(n: u64) -> Vec<StreamEdge> {
    (0..n)
        .map(|i| StreamEdge::new(i % 40, (i * 17) % 40, 1 + i % 3, i))
        .collect()
}

/// Edge probes plus one query of every other kind, so a follower is checked
/// on each shard routing: owner-shard vertex-out, all-shard vertex-in
/// fan-out, and per-hop path/subgraph splits.
fn probes() -> Vec<Query> {
    let mut probes: Vec<Query> = (0..30u64)
        .map(|k| Query::edge(k % 40, (k * 17) % 40, TimeRange::all()))
        .collect();
    probes.push(Query::vertex(3, VertexDirection::Out, TimeRange::all()));
    probes.push(Query::vertex(11, VertexDirection::In, TimeRange::all()));
    probes.push(Query::path(vec![1, 17, 9], TimeRange::new(0, 700)));
    probes.push(Query::subgraph(
        vec![(2, 34), (34, 18), (5, 5)],
        TimeRange::all(),
    ));
    probes
}

/// A leader with a snapshot (the follower's bootstrap basis) plus a journal
/// tail the follower has to ship.
fn seeded_leader(dir: &PathBuf, shards: usize, snapshotted: &[StreamEdge]) -> ShardedHiggs {
    let mut leader =
        Store::open(StoreOptions::durable(durable_config(shards), dir)).expect("leader");
    for e in snapshotted {
        leader.insert(e);
    }
    leader.flush();
    leader.snapshot_to_dir(dir).expect("leader snapshot");
    leader
}

/// Bootstrap + sync reaches the leader's exact state, at every shard count,
/// with the journal tail carrying inserts *and* deletes.
#[test]
fn synced_follower_answers_bit_identically_to_its_leader() {
    let edges = workload(1_000);
    let (snapshotted, tail) = edges.split_at(600);
    for shards in [1usize, 2, 4] {
        let dir = temp_dir(&format!("sync-{shards}"));
        let mut leader = seeded_leader(&dir, shards, snapshotted);

        let mut follower = Store::follow(StoreOptions::restore(&dir)).expect("bootstrap");
        assert_eq!(follower.num_shards(), shards);

        // Pre-sync: the follower serves the snapshot only.
        let snapshot_answers = follower.query_batch(&probes());

        for e in tail {
            leader.insert(e);
        }
        for e in tail.iter().step_by(5) {
            leader.delete(e);
        }
        leader.flush();

        // Lag is visible before the sync, zero after it.
        let lag = follower.replication_lag().expect("lag probe");
        assert!(
            lag.records_behind > 0 && lag.bytes_behind > 0,
            "unshipped journal bytes must show as lag, got {lag:?}"
        );
        let progress = follower.sync().expect("sync");
        assert_eq!(progress.records_applied, lag.records_behind);
        assert_eq!(progress.bytes_shipped, lag.bytes_behind);
        let drained = follower.replication_lag().expect("post-sync lag");
        assert_eq!((drained.records_behind, drained.bytes_behind), (0, 0));

        let leader_answers = leader.query_batch(&probes());
        assert_eq!(
            follower.query_batch(&probes()),
            leader_answers,
            "{shards}-shard synced follower must match its leader"
        );
        assert_ne!(
            snapshot_answers, leader_answers,
            "the tail must actually change the answers, or this test is vacuous"
        );
        // Syncs are idempotent between leader appends.
        let nothing = follower.sync().expect("idle sync");
        assert_eq!(nothing.records_applied, 0);

        drop(leader);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Kill the leader (drop, simulating a crash after ack) and promote: the
/// follower must serve the complete acknowledged history.
#[test]
fn promoted_follower_serves_every_acknowledged_mutation() {
    let edges = workload(800);
    let (snapshotted, tail) = edges.split_at(500);
    let dir = temp_dir("promote");
    let mut leader = seeded_leader(&dir, 2, snapshotted);
    let follower = Store::follow(StoreOptions::restore(&dir)).expect("bootstrap");

    for e in tail {
        leader.insert(e);
    }
    leader.flush();
    let acknowledged = leader.query_batch(&probes());
    // The "crash": every acknowledged mutation is journaled (flush synced
    // the buffered journals), the process is gone.
    drop(leader);

    // Promotion final-syncs, shipping the post-bootstrap tail it never saw.
    let mut promoted = follower.promote().expect("promote");
    assert_eq!(
        promoted.query_batch(&probes()),
        acknowledged,
        "a promoted follower must serve the full acknowledged history"
    );
    // The promoted service is a live leader: it keeps accepting writes.
    promoted.insert(&StreamEdge::new(1, 2, 9, 10_000));
    promoted.flush();
    drop(promoted);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A leader snapshot rotates the journals under the follower's cursors; the
/// follower must refuse to guess (`LeaderTruncated`) and a re-bootstrap
/// resumes cleanly from the new snapshot.
#[test]
fn leader_rotation_is_detected_and_rebootstrap_recovers() {
    let edges = workload(600);
    let (snapshotted, tail) = edges.split_at(300);
    let dir = temp_dir("truncate");
    let mut leader = seeded_leader(&dir, 2, snapshotted);
    let mut follower = Store::follow(StoreOptions::restore(&dir)).expect("bootstrap");

    for e in tail {
        leader.insert(e);
    }
    leader.flush();
    // Rotation: a second snapshot truncates the journals and restamps them.
    leader.snapshot_to_dir(&dir).expect("second snapshot");

    let err = follower
        .sync()
        .expect_err("a rotated journal must not sync");
    assert!(
        matches!(err, ReplicaError::LeaderTruncated { .. }),
        "expected LeaderTruncated, got: {err}"
    );

    let mut fresh = Store::follow(StoreOptions::restore(&dir)).expect("re-bootstrap");
    fresh.sync().expect("fresh covering stamp syncs");
    assert_eq!(
        fresh.query_batch(&probes()),
        leader.query_batch(&probes()),
        "a re-bootstrapped follower must resume from the new snapshot"
    );
    drop(leader);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The serving fan-out: a [`ReplicaService`] keeps syncing in the
/// background, serves coalesced read batches that match the leader, refuses
/// writes with the typed `ReadOnly` error, and reports lag through
/// `ServiceClient::health`.
#[test]
fn replica_service_serves_read_only_batches_and_health() {
    let edges = workload(900);
    let (snapshotted, tail) = edges.split_at(500);
    let dir = temp_dir("serve");
    let mut leader = seeded_leader(&dir, 2, snapshotted);

    let follower = Store::follow(StoreOptions::restore(&dir)).expect("bootstrap");
    let replica = ReplicaService::follow_with_sync_interval(
        follower,
        &durable_config(2),
        Duration::from_millis(1),
    )
    .expect("replica service");
    let client = replica.client();
    assert_eq!(client.num_shards(), 2);

    for e in tail {
        leader.insert(e);
    }
    leader.flush();
    let expected = leader.query_batch(&probes());

    // The background sync catches up within its cadence.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if client.query_batch(&probes()) == Ok(expected.clone()) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica never converged: lag {:?}",
            replica.replication_lag()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Writes are refused, typed — on every mutation surface.
    let e = StreamEdge::new(1, 2, 3, 99_999);
    assert_eq!(client.insert(&e), Err(IngestError::ReadOnly));
    assert_eq!(client.insert_all(&[e]), Err(IngestError::ReadOnly));
    assert_eq!(client.delete(&e), Err(IngestError::ReadOnly));
    assert_eq!(client.try_insert(&e), Err(IngestError::ReadOnly));
    assert_eq!(client.try_delete(&e), Err(IngestError::ReadOnly));
    client.flush(); // a no-op, never a hang

    // Health: a replica reports lag (zero once converged), no degraded
    // shards, no writer supervision counters.
    let health = client.health();
    assert_eq!(health.degraded, Vec::<usize>::new());
    assert_eq!(health.respawn_counts, vec![0, 0]);
    assert_eq!(health.recovery_errors, vec![None, None]);
    let lag = health.replication_lag.expect("replica clients report lag");
    assert_eq!(lag.records_behind, 0, "converged replica has zero lag");
    assert!(health.replication_error.is_none());

    drop(replica);
    // Surviving clients stay safe after the service drops.
    assert!(client.query(&probes()[0]).is_err());
    assert_eq!(client.insert(&e), Err(IngestError::ReadOnly));
    drop(leader);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A leader's client reports supervision state through the same health
/// surface (no replication fields).
#[test]
fn leader_client_health_reports_supervision_state() {
    let dir = temp_dir("leader-health");
    let leader = Store::open(StoreOptions::durable(durable_config(2), &dir)).expect("leader");
    let service = higgs::HiggsService::wrap(leader, &durable_config(2)).expect("service");
    let client = service.client();
    client.insert(&StreamEdge::new(1, 2, 5, 10)).expect("live");
    assert_eq!(client.query(&Query::edge(1, 2, TimeRange::all())), Ok(5));

    let health = client.health();
    assert_eq!(health.degraded, Vec::<usize>::new());
    assert_eq!(health.respawn_counts, vec![0, 0]);
    assert_eq!(health.recovery_errors, vec![None, None]);
    assert!(health.replication_lag.is_none(), "leaders do not replicate");
    assert!(health.replication_error.is_none());

    drop(service);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Every `ReplicaError` variant renders an actionable cause, and the
/// bootstrap failure path is typed.
#[test]
fn replica_errors_are_typed_and_name_their_cause() {
    // Bootstrapping from nowhere fails with the Snapshot variant.
    let err = Store::follow(StoreOptions::restore(temp_dir("absent")))
        .expect_err("no directory, no follower");
    assert!(
        matches!(err, ReplicaError::Snapshot(_)),
        "expected Snapshot, got: {err}"
    );

    for (err, needle) in [
        (
            ReplicaError::Snapshot(SnapshotError::Corrupt("x".into())),
            "bootstrap failed",
        ),
        (
            ReplicaError::Journal(higgs::JournalError::Corrupt {
                shard: 0,
                record: 7,
                detail: "x".into(),
            }),
            "shipping failed",
        ),
        (ReplicaError::LeaderTruncated { shard: 1 }, "rotated"),
        (
            ReplicaError::Config(
                HiggsConfig::builder()
                    .shards(0)
                    .build()
                    .expect_err("invalid"),
            ),
            "configuration",
        ),
    ] {
        let msg = err.to_string();
        assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        use std::error::Error;
        let _ = err.source();
    }
}

/// `Follower` is usable across threads (queries from one, sync from the
/// owner), which the serving fan-out depends on.
#[test]
fn follower_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Follower>();
    assert_send::<ReplicaService>();
}
