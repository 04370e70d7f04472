//! Writer-thread accounting of a failed offline reshard.
//!
//! A corrupt elastic journal must fail the refold with a typed error
//! **before** any writer thread is spawned. The check reads the
//! process-wide [`higgs::shard::live_writer_threads`] counter, so it lives in
//! its **own integration-test binary**: tests running in parallel in a
//! shared binary would create and drop services under it. Keep it the only
//! test here.

use higgs::shard::live_writer_threads;
use higgs::{HiggsConfig, JournalMode, ReshardError, Store, StoreOptions};
use higgs_common::{StreamEdge, TemporalGraphSummary};

#[test]
fn corrupt_journal_reshard_spawns_no_writer_threads() {
    assert_eq!(live_writer_threads(), 0, "test binary must start quiescent");
    let dir = std::env::temp_dir().join(format!("higgs-reshard-census-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // An elastic directory at two shards with a snapshot (an offline reshard
    // takes its configuration from the manifest).
    let config = HiggsConfig::builder()
        .shards(2)
        .journal_mode(JournalMode::Buffered)
        .build()
        .expect("valid elastic configuration");
    let mut service = Store::open(StoreOptions::durable(config, &dir).elastic(true))
        .expect("elastic durable service");
    for i in 0..400u64 {
        service.insert(&StreamEdge::new(i % 60, (i * 11) % 60, 1 + i % 5, i));
    }
    service.flush();
    service.snapshot_to_dir(&dir).expect("seed snapshot");
    drop(service);
    assert_eq!(live_writer_threads(), 0, "drop joins every writer");

    // Flip bytes in the interior of shard 0's first segment.
    let victim = dir.join("journal-000-000.higgs");
    let mut bytes = std::fs::read(&victim).expect("segment exists");
    assert!(bytes.len() > 64, "the segment must hold records to corrupt");
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 8] {
        *b ^= 0xFF;
    }
    std::fs::write(&victim, &bytes).expect("rewrite segment");

    let census = live_writer_threads();
    let err =
        Store::open_resharded(StoreOptions::restore(&dir), 3).expect_err("corrupt fold must fail");
    assert!(
        matches!(err, ReshardError::Corrupt { .. } | ReshardError::Journal(_)),
        "expected Corrupt (or an I/O-level Journal error), got: {err}"
    );
    assert_eq!(
        live_writer_threads(),
        census,
        "a failed reshard must not leak writer threads"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
