//! The merged mutation history of a durable directory: every retained
//! journal segment of every shard and generation, read as one stream in
//! global sequence order.
//!
//! This is a *read view*, not a second log. Writers append only to the
//! per-shard journal ([`crate::journal`]); an *elastic* store keeps every
//! sealed segment, so together they hold each acknowledged mutation since
//! the store was created. Every journal record carries the global sequence
//! numbers stamped at ingest-routing time, so flattening all records and
//! sorting them by sequence number reproduces the exact global mutation
//! order — the stream a reshard ([`crate::reshard`]) folds at a new shard
//! count, and the counter a reopened store resumes from.
//!
//! # Reading rules
//!
//! The merged read inherits the journal's per-segment rules: a torn tail
//! ends that segment's contribution cleanly, interior corruption and a bad
//! header fail with a typed [`JournalError::Corrupt`], and a missing
//! directory or files that are not segments read as an empty history.
//!
//! # Duplicate sequence numbers
//!
//! Writer supervision re-drives a failed command, so the *same* operation
//! can be recorded twice (see the journal's re-drive rules). The merge
//! collapses identical operations sharing a sequence number; two
//! *different* operations claiming one sequence number can only be
//! corruption, since sequence numbers are stamped uniquely at routing time,
//! and fail typed.

use crate::journal::{for_each_record, JournalError, JournalRecord};
use higgs_common::StreamEdge;
use std::path::Path;

/// One mutation of the merged stream a reshard folds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Op {
    /// Position in the global mutation order.
    pub(crate) seq: u64,
    /// Whether the edge was deleted rather than inserted.
    pub(crate) delete: bool,
    /// The edge as `(src, dst, weight, timestamp)`.
    edge: (u64, u64, u64, u64),
}

impl Op {
    fn new(seq: u64, delete: bool, e: StreamEdge) -> Self {
        Op {
            seq,
            delete,
            edge: (e.src, e.dst, e.weight, e.timestamp),
        }
    }

    /// The mutated edge.
    pub(crate) fn edge(&self) -> StreamEdge {
        let (src, dst, weight, timestamp) = self.edge;
        StreamEdge {
            src,
            dst,
            weight,
            timestamp,
        }
    }
}

/// Flattens one journal record into per-edge operations.
fn push_ops(record: &JournalRecord, ops: &mut Vec<Op>) {
    match record {
        JournalRecord::Insert(edge, seq) => ops.push(Op::new(*seq, false, *edge)),
        JournalRecord::InsertBatch(edges, seqs) => ops.extend(
            edges
                .iter()
                .zip(seqs)
                .map(|(edge, seq)| Op::new(*seq, false, *edge)),
        ),
        JournalRecord::Delete(edge, seq) => ops.push(Op::new(*seq, true, *edge)),
    }
}

/// Reads **every** segment in `dir` and returns the merged global mutation
/// stream: sorted by sequence number, identical duplicates collapsed. Two
/// *different* operations sharing a sequence number fail with a typed
/// [`JournalError::Corrupt`].
pub(crate) fn read_all(dir: &Path) -> Result<Vec<Op>, JournalError> {
    let mut ops = Vec::new();
    for_each_record(dir, |record| push_ops(record, &mut ops))?;
    ops.sort_unstable();
    ops.dedup();
    if let Some(pair) = ops.windows(2).find(|w| w[0].seq == w[1].seq) {
        return Err(JournalError::Corrupt {
            shard: 0,
            record: pair[0].seq,
            detail: format!(
                "divergent journal records share sequence number {}: {:?} vs {:?}",
                pair[0].seq, pair[0], pair[1]
            ),
        });
    }
    Ok(ops)
}

/// The sequence number one above every sequence number recorded in `dir`
/// (`0` when nothing is recorded). A reopened store resumes its counter
/// here, so new records never repeat a recorded stamp and an elastic
/// store's merged order stays total across restarts.
pub(crate) fn next_seq(dir: &Path) -> Result<u64, JournalError> {
    let mut next = 0;
    for_each_record(dir, |record| next = next.max(record.next_seq()))?;
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JournalMode;
    use crate::journal::{next_gen, segment_file_name, Journal, HEADER_LEN};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "higgs-history-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn edge(i: u64) -> StreamEdge {
        StreamEdge::new(i, i + 1, 1 + i % 5, i)
    }

    fn insert(seq: u64) -> Op {
        Op::new(seq, false, edge(seq))
    }

    /// Creates elastic segment `gen` of shard `shard`, stamped with the
    /// pre-snapshot manifest checksum `0`.
    fn create(dir: &Path, gen: u64, shard: usize) -> Journal {
        Journal::create(dir, gen, shard, JournalMode::Buffered, 0, true).expect("create")
    }

    /// Writes `seqs` as single inserts into a fresh segment 0 of shard 0.
    fn write_inserts(dir: &Path, seqs: &[u64]) {
        let mut journal = create(dir, 0, 0);
        for &seq in seqs {
            journal
                .append(&JournalRecord::Insert(edge(seq), seq))
                .expect("append");
        }
    }

    #[test]
    fn ops_round_trip_merged_by_sequence() {
        let dir = temp_dir("roundtrip");
        // Two shards, interleaved seqs, one batch: the merged read must
        // come back globally seq-sorted regardless of file layout.
        let mut s0 = create(&dir, 0, 0);
        let mut s1 = create(&dir, 0, 1);
        s0.append(&JournalRecord::Insert(edge(0), 0))
            .expect("append");
        s1.append(&JournalRecord::Insert(edge(1), 1))
            .expect("append");
        s0.append(&JournalRecord::InsertBatch(
            (2..5).map(edge).collect(),
            vec![2, 3, 4],
        ))
        .expect("batch");
        s1.append(&JournalRecord::Delete(edge(1), 5))
            .expect("delete");
        drop((s0, s1));

        let ops = read_all(&dir).expect("read");
        assert_eq!(ops.len(), 6);
        assert_eq!(
            ops.iter().map(|o| o.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert_eq!(ops[..5], (0..5).map(insert).collect::<Vec<_>>());
        assert!(ops[5].delete);
        assert_eq!(ops[5].edge(), edge(1));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn generations_merge_and_max_gen_tracks() {
        let dir = temp_dir("gens");
        assert_eq!(next_gen(&dir).expect("empty"), 0);
        assert_eq!(next_seq(&dir).expect("empty"), 0);
        // An older generation may hold a later sequence number than a newer
        // one (an unsnapshotted tail re-armed after a rotation): the merge
        // orders by sequence, not by generation.
        let mut g0 = create(&dir, 0, 0);
        g0.append(&JournalRecord::Insert(edge(0), 0))
            .expect("append");
        g0.append(&JournalRecord::Insert(edge(2), 2))
            .expect("append");
        drop(g0);
        let mut g1 = create(&dir, 1, 0);
        g1.append(&JournalRecord::Insert(edge(1), 1))
            .expect("append");
        drop(g1);
        assert_eq!(next_gen(&dir).expect("gens"), 2);
        assert_eq!(next_seq(&dir).expect("seqs"), 3);
        assert_eq!(
            read_all(&dir).expect("read"),
            vec![insert(0), insert(1), insert(2)]
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_tail_is_trimmed_on_rearm_and_skipped_on_read() {
        let dir = temp_dir("torn");
        write_inserts(&dir, &[0]);
        let path = dir.join(segment_file_name(0, 0));
        let prefix_end = std::fs::read(&path).expect("read file").len();
        std::fs::remove_file(&path).expect("reset");
        write_inserts(&dir, &[0, 1]);
        let full = std::fs::read(&path).expect("read file");
        // Tear every byte boundary inside the second record.
        for cut in prefix_end + 1..full.len() {
            std::fs::write(&path, &full[..cut]).expect("tear");
            // Read side: the complete prefix only, never an error.
            assert_eq!(
                read_all(&dir).expect("torn read"),
                vec![insert(0)],
                "cut at byte {cut}"
            );
            assert_eq!(next_seq(&dir).expect("torn seqs"), 1);
            // Re-arm side: trims, then appends cleanly at the boundary.
            let gen = next_gen(&dir).expect("next generation");
            let (mut log, replayed) =
                Journal::arm(&dir, 0, JournalMode::Buffered, 0, true, gen).expect("re-arm");
            assert_eq!(replayed, vec![JournalRecord::Insert(edge(0), 0)]);
            log.append(&JournalRecord::Insert(edge(7), 7))
                .expect("append after trim");
            drop(log);
            assert_eq!(
                read_all(&dir).expect("after re-arm"),
                vec![insert(0), insert(7)],
                "cut at byte {cut}"
            );
            std::fs::write(&path, &full).expect("restore");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn interior_bit_flip_is_typed_corruption() {
        let dir = temp_dir("bitflip");
        write_inserts(&dir, &[0, 1]);
        let path = dir.join(segment_file_name(0, 0));
        let mut bytes = std::fs::read(&path).expect("read");
        let target = HEADER_LEN as usize + 12;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert!(matches!(
            read_all(&dir),
            Err(JournalError::Corrupt { record: 0, .. })
        ));
        assert!(matches!(
            next_seq(&dir),
            Err(JournalError::Corrupt { record: 0, .. })
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn bad_magic_version_and_oversized_length_are_corruption() {
        let dir = temp_dir("header");
        write_inserts(&dir, &[0]);
        let path = dir.join(segment_file_name(0, 0));
        let full = std::fs::read(&path).expect("read");

        let mut bad_magic = full.clone();
        bad_magic[0] ^= 0xFF;
        std::fs::write(&path, &bad_magic).expect("write");
        assert!(matches!(
            read_all(&dir),
            Err(JournalError::Corrupt { record: 0, .. })
        ));

        let mut bad_version = full.clone();
        bad_version[8] = 0xEE;
        std::fs::write(&path, &bad_version).expect("write");
        let err = read_all(&dir).expect_err("future version refused");
        assert!(err.to_string().contains("version"), "{err}");

        // A length prefix past the record size cap, with every byte it
        // claims present: corruption of the record after the first.
        let mut oversized = full.clone();
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        oversized.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &oversized).expect("write");
        assert!(matches!(
            read_all(&dir),
            Err(JournalError::Corrupt { record: 1, .. })
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn missing_directory_and_unrelated_files_read_as_empty() {
        let dir = temp_dir("empty");
        assert_eq!(read_all(&dir).expect("empty dir"), Vec::new());
        std::fs::write(dir.join("journal-000.higgs"), b"old layout").expect("write");
        std::fs::write(dir.join("journal-xyz.higgs"), b"bad name").expect("write");
        std::fs::write(dir.join("history-000-000.higgs"), b"not a segment").expect("write");
        // A segment whose header write was torn never recorded anything.
        std::fs::write(dir.join(segment_file_name(0, 0)), b"HIG").expect("write");
        assert_eq!(read_all(&dir).expect("unrelated files"), Vec::new());
        assert_eq!(next_seq(&dir).expect("no seqs"), 0);
        let gone = dir.join("no-such-subdir");
        assert_eq!(read_all(&gone).expect("missing dir"), Vec::new());
        assert_eq!(next_seq(&gone).expect("missing dir"), 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
