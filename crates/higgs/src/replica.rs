//! Warm-follower replication: journal-segment shipping onto a restored
//! snapshot.
//!
//! ## The transport is the journal
//!
//! A durable leader writes every acknowledged mutation into a per-shard,
//! checksummed journal segment **before** applying it (see
//! [`crate::journal`]). That stream is a ready-made replication log: a
//! [`Follower`] bootstraps from the directory's snapshot (the live segments
//! are *not* replayed — those bytes arrive through the cursor instead) and
//! then, on each [`sync`](Follower::sync), reads every shard's live segment
//! from its private `(segment, offset)` cursor to the current clean end,
//! applies the new records, and advances the cursor. The directory can be
//! the leader's live directory (shared filesystem) or any shipped copy that
//! is re-synced by whatever transport ships the segment files.
//!
//! ## Consistency & lag
//!
//! Each shipped record was acknowledged by the leader, and the cursor only
//! advances past records whose checksums verified — a torn tail (the leader
//! mid-append, or a truncated shipment) simply waits for the next sync.
//! Re-drive duplicates are skipped exactly as recovery skips them.
//! [`replication_lag`](Follower::replication_lag) reports how many bytes and
//! records the follower trails, without applying anything.
//!
//! A cursor resolves, on first use, to the shard's newest segment, which
//! must carry the bootstrap manifest's stamp. A segment newer than the
//! cursor's means the leader rotated (snapshotted into its directory) — the
//! follower cannot verify it missed nothing, so sync fails typed
//! ([`ReplicaError::LeaderTruncated`]) and the follower must re-bootstrap
//! from the new snapshot. Leaders that snapshot into their own directory do
//! this on every `snapshot_to_dir`; pause snapshotting or re-bootstrap
//! followers afterwards.
//!
//! ## Promotion
//!
//! [`promote`](Follower::promote) performs a final sync and assembles a full
//! [`ShardedHiggs`] leader around the replica's pipelines. Every mutation
//! the old leader acknowledged was journaled before it was applied, so after
//! a leader crash the promoted follower serves the complete acknowledged
//! stream (chaos-tested under the `failpoints` feature). The promoted
//! service is non-durable; give it its own directory via
//! [`snapshot_to_dir`](ShardedHiggs::snapshot_to_dir) +
//! [`Store::open`](crate::Store::open) to resume journaling.

use crate::config::{ConfigError, HiggsConfig};
use crate::journal::{self, JournalError, HEADER_LEN};
use crate::parallel::ParallelHiggs;
use crate::shard::{sweep_shards, ShardedHiggs};
use crate::snapshot::SnapshotError;
use higgs_common::{Query, Weight};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// Why a follower operation (bootstrap, sync, promote) failed.
#[derive(Debug)]
pub enum ReplicaError {
    /// Restoring the bootstrap snapshot failed (missing/corrupt manifest or
    /// shard files).
    Snapshot(SnapshotError),
    /// Reading a journal segment failed: I/O, or interior corruption the
    /// cursor cannot skip.
    Journal(JournalError),
    /// The leader rotated this shard's journal (a segment newer than the
    /// follower's cursor exists, or the newest segment carries another
    /// manifest's stamp): records between the cursor and the rotation are
    /// unverifiable, so the follower refuses to guess and must re-bootstrap
    /// from the leader's new snapshot.
    LeaderTruncated {
        /// Shard whose journal was rotated away.
        shard: usize,
    },
    /// Assembling the promoted leader failed configuration validation.
    Config(ConfigError),
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::Snapshot(e) => write!(f, "follower bootstrap failed: {e}"),
            ReplicaError::Journal(e) => write!(f, "journal shipping failed: {e}"),
            ReplicaError::LeaderTruncated { shard } => write!(
                f,
                "leader rotated shard {shard}'s journal under the replication cursor; \
                 re-bootstrap the follower from the new snapshot"
            ),
            ReplicaError::Config(e) => write!(f, "promoted configuration is invalid: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplicaError::Snapshot(e) => Some(e),
            ReplicaError::Journal(e) => Some(e),
            ReplicaError::Config(e) => Some(e),
            ReplicaError::LeaderTruncated { .. } => None,
        }
    }
}

impl From<SnapshotError> for ReplicaError {
    fn from(e: SnapshotError) -> Self {
        ReplicaError::Snapshot(e)
    }
}

impl From<JournalError> for ReplicaError {
    fn from(e: JournalError) -> Self {
        ReplicaError::Journal(e)
    }
}

/// How far a follower trails its leader, as reported by
/// [`Follower::replication_lag`]: journal bytes and records that are on disk
/// but not yet applied here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicationLag {
    /// Verified journal bytes past the replication cursors.
    pub bytes_behind: u64,
    /// Journal records past the replication cursors.
    pub records_behind: u64,
}

/// What one [`Follower::sync`] shipped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaProgress {
    /// Records applied by this sync, across all shards.
    pub records_applied: u64,
    /// Bytes the cursors advanced by this sync, across all shards.
    pub bytes_shipped: u64,
}

/// A warm read replica: restored snapshot pipelines plus per-shard journal
/// cursors. See the [module docs](self) for the shipping protocol and
/// guarantees.
///
/// Queries ([`query`](Self::query) / [`query_batch`](Self::query_batch))
/// reflect everything shipped by the last completed
/// [`sync`](Self::sync) — a follower is eventually consistent by
/// construction. For serving-layer fan-out wrap it in a
/// [`ReplicaService`](crate::ReplicaService).
pub struct Follower {
    config: HiggsConfig,
    dir: PathBuf,
    shards: Vec<Arc<RwLock<ParallelHiggs>>>,
    /// Per-shard replication cursor; `None` until the shard's live segment
    /// is first found.
    cursors: Vec<Option<Cursor>>,
    /// The checksum of the manifest the follower bootstrapped from: the
    /// stamp its live segments must carry (see
    /// [`ReplicaError::LeaderTruncated`]).
    covering: u64,
}

/// Where one shard's replication stands: everything in segment `gen` before
/// byte `offset` has been applied here.
struct Cursor {
    gen: u64,
    offset: u64,
    /// Frame of the last applied record, so a re-drive duplicate right after
    /// the cursor is skipped as recovery would skip it.
    last: Vec<u8>,
}

impl fmt::Debug for Follower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Follower")
            .field("shards", &self.shards.len())
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl Follower {
    /// Bootstraps a follower from a leader directory: pipelines restore from
    /// the snapshot (shard checksums verified against the manifest), and
    /// every cursor starts unresolved — the first [`sync`](Self::sync)
    /// ships the live segments in full. The live segments are **not**
    /// replayed here; that is what distinguishes a follower bootstrap from a
    /// crash-recovery restore.
    pub(crate) fn bootstrap(dir: &Path) -> Result<Self, ReplicaError> {
        let (config, pipelines) = crate::snapshot::restore_snapshot_pipelines(dir)?;
        let covering = crate::snapshot::manifest_tail_checksum(dir)?;
        let shards: Vec<Arc<RwLock<ParallelHiggs>>> = pipelines
            .into_iter()
            .map(|p| Arc::new(RwLock::new(p)))
            .collect();
        let cursors = shards.iter().map(|_| None).collect();
        Ok(Follower {
            config,
            dir: dir.to_path_buf(),
            shards,
            cursors,
            covering,
        })
    }

    /// Where each shard reads next, as `(segment generation, offset)`:
    /// `None` for a shard without a segment yet. Fails with
    /// [`ReplicaError::LeaderTruncated`] when the leader rotated past a
    /// cursor, or when an unresolved cursor would start on a segment stamped
    /// for another manifest.
    fn positions(&self) -> Result<Vec<Option<(u64, u64)>>, ReplicaError> {
        let latest = journal::latest_gens(&self.dir, self.shards.len())?;
        let mut positions = Vec::with_capacity(latest.len());
        for (shard, latest) in latest.into_iter().enumerate() {
            let Some(latest) = latest else {
                positions.push(None);
                continue;
            };
            positions.push(match &self.cursors[shard] {
                Some(cursor) if cursor.gen == latest => Some((cursor.gen, cursor.offset)),
                Some(_) => return Err(ReplicaError::LeaderTruncated { shard }),
                None => match journal::segment_stamp(&self.dir, latest, shard)? {
                    Some(stamp) if stamp == self.covering => Some((latest, HEADER_LEN)),
                    // The leader is still writing the segment's header.
                    None => None,
                    Some(_) => return Err(ReplicaError::LeaderTruncated { shard }),
                },
            });
        }
        Ok(positions)
    }

    /// The frame of the last record applied from shard `shard` (empty when
    /// none), against which a re-drive duplicate is recognised.
    fn prev(&self, shard: usize) -> &[u8] {
        self.cursors[shard].as_ref().map_or(&[], |c| &c.last)
    }

    /// Ships every journal record past the cursors: reads each shard's
    /// verified tail, applies it, flushes the pipeline, and advances the
    /// cursor. Returns what was shipped. Idempotent between leader appends.
    pub fn sync(&mut self) -> Result<ReplicaProgress, ReplicaError> {
        let mut progress = ReplicaProgress::default();
        for (shard, position) in self.positions()?.into_iter().enumerate() {
            let Some((gen, offset)) = position else {
                continue;
            };
            let scan = journal::scan_tail(&self.dir, gen, shard, offset, self.prev(shard))?;
            if scan.clean_end == offset {
                continue;
            }
            progress.records_applied += scan.records.len() as u64;
            progress.bytes_shipped += scan.clean_end - offset;
            {
                let mut pipeline = self.shards[shard].write().expect("shard lock poisoned");
                journal::apply_all(&scan.records, &mut pipeline);
            }
            let cursor = self.cursors[shard].get_or_insert_with(|| Cursor {
                gen,
                offset,
                last: Vec::new(),
            });
            cursor.offset = scan.clean_end;
            if let Some(last) = scan.last {
                cursor.last = last;
            }
        }
        Ok(progress)
    }

    /// How far this follower trails the on-disk journal, **without**
    /// applying anything (a monitoring probe: cheap, and `&self`).
    pub fn replication_lag(&self) -> Result<ReplicationLag, ReplicaError> {
        let mut lag = ReplicationLag::default();
        for (shard, position) in self.positions()?.into_iter().enumerate() {
            let Some((gen, offset)) = position else {
                continue;
            };
            let scan = journal::scan_tail(&self.dir, gen, shard, offset, self.prev(shard))?;
            lag.records_behind += scan.records.len() as u64;
            lag.bytes_behind += scan.clean_end - offset;
        }
        Ok(lag)
    }

    /// Number of shards this follower replicates.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The configuration the leader's manifest recorded (journal mode
    /// normalised to `Off` — a follower never journals).
    pub fn config(&self) -> &HiggsConfig {
        &self.config
    }

    /// The per-shard pipelines (crate-internal: the serving layer's replica
    /// fan-out reads them from its shard workers).
    pub(crate) fn shard_pipelines(&self) -> &[Arc<RwLock<ParallelHiggs>>] {
        &self.shards
    }

    /// Answers one read-only query against the last synced state.
    pub fn query(&self, query: &Query) -> Weight {
        self.query_batch(std::slice::from_ref(query))[0]
    }

    /// Answers a read-only batch against the last synced state, through the
    /// same per-shard plan-sharing executor as the leader — results are
    /// bit-identical to the leader's for any state the sync has caught up
    /// to.
    pub fn query_batch(&self, queries: &[Query]) -> Vec<Weight> {
        sweep_shards(&self.shards, queries)
    }

    /// Promotes this follower to a serving leader: performs a final
    /// [`sync`](Self::sync) (shipping everything the crashed leader's
    /// journals hold — every record in them was acknowledged), then
    /// assembles a [`ShardedHiggs`] around the replica's pipelines.
    ///
    /// The promoted service is **non-durable** (the old leader still owns
    /// the directory, and two journal writers on one directory would corrupt
    /// both); snapshot it into a fresh directory and reopen with
    /// [`Store::open`](crate::Store::open) to resume journaling.
    pub fn promote(mut self) -> Result<ShardedHiggs, ReplicaError> {
        self.sync()?;
        let mut config = self.config;
        config.shards = self.shards.len();
        ShardedHiggs::from_arc_pipelines(config, self.shards).map_err(ReplicaError::Config)
    }
}
