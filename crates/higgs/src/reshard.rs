//! Elastic resharding: changing a service's shard count by refolding its
//! journal.
//!
//! ## Why the journal, not snapshots
//!
//! A shard's leaf matrices store only `(address, fingerprint)` pairs — the
//! raw vertex identifiers are consumed by the hash and cannot be recovered
//! from the summary. Re-partitioning therefore cannot move data between
//! shard snapshots: it must **re-stream the raw mutations** through
//! [`shard_of`] at the new width. That raw record is the journal itself (see
//! [`crate::journal`]): an *elastic* store keeps every journal segment
//! instead of deleting the ones a snapshot covers, and every record carries
//! the global sequence numbers stamped at ingest routing time.
//!
//! ## The fold
//!
//! The fold reads every segment of every shard and generation, merges the
//! operations into one stream sorted by sequence number (identical
//! duplicates dropped, divergent ones a typed [`ReshardError::Corrupt`]),
//! and plays that stream into `M` fresh pipelines, routing each operation
//! by `shard_of(src, M)`. Because every insert and delete is replayed in its
//! original global order, the folded service answers queries
//! **bit-identically** to a service built fresh at `M` shards from the same
//! single-producer workload. (Concurrent producers race sequence stamping
//! against channel sends, so cross-producer interleaving is reconstructed in
//! stamp order, which may differ from channel order — HIGGS summaries are
//! order-insensitive for inserts, so this matters only for delete/insert
//! races between producers.)
//!
//! ## Offline vs online
//!
//! [`Store::open_resharded`](crate::Store::open_resharded) refolds a
//! directory with no service running — validation happens before anything
//! is spawned, so a corrupt source returns a typed [`ReshardError`] and
//! leaks no writer threads.
//! [`ShardedHiggs::reshard`](crate::ShardedHiggs::reshard) does the same
//! fold on a live service behind the writer fence; see its docs for the
//! commit protocol. It takes `&mut self`, so a
//! [`HiggsService`](crate::HiggsService), which owns its `ShardedHiggs`,
//! cannot reach it: reshard a served store offline.

use crate::config::HiggsConfig;
use crate::history::{self, Op};
use crate::journal::{self, Journal, JournalError};
use crate::parallel::ParallelHiggs;
use crate::shard::{DurableState, ShardedHiggs, MAX_SHARDS, SHARD_AGGREGATION_WORKERS};
use crate::snapshot::SnapshotError;
use higgs_common::hashing::shard_of;
use higgs_common::TemporalGraphSummary;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// Why a reshard (offline refold or live [`ShardedHiggs::reshard`]) failed.
/// Every failure mode is typed; offline failures spawn nothing, and live
/// pre-commit failures leave the service unchanged.
#[derive(Debug)]
pub enum ReshardError {
    /// The requested shard count is outside `1..=MAX_SHARDS`.
    InvalidShardCount {
        /// The count that was requested.
        requested: usize,
    },
    /// The directory (or service) has no elastic mutation history to
    /// refold — it was created without
    /// [`StoreOptions::elastic`](crate::StoreOptions::elastic), or is not
    /// durable at all. The message names the missing prerequisite.
    HistoryUnavailable {
        /// What exactly is missing.
        detail: String,
    },
    /// The journal is internally inconsistent: interior corruption in a
    /// segment, or divergent records sharing a sequence number. The source
    /// directory cannot be trusted as a refold basis.
    Corrupt {
        /// The violation, as reported by the journal reader.
        detail: String,
    },
    /// Reading or creating a journal segment failed with an I/O-level
    /// journal error.
    Journal(JournalError),
    /// Reading the manifest or committing the refolded snapshot failed.
    Snapshot(SnapshotError),
    /// A shard is degraded: its writer failed and was not recovered, so
    /// mutations it acknowledged may be missing from the journal.
    /// Refolding would silently drop them — recover (or restore) first.
    Degraded {
        /// Index of the degraded shard.
        shard: usize,
    },
}

impl fmt::Display for ReshardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReshardError::InvalidShardCount { requested } => write!(
                f,
                "invalid target shard count {requested}: must be between 1 and {MAX_SHARDS}"
            ),
            ReshardError::HistoryUnavailable { detail } => {
                write!(f, "no elastic history to refold: {detail}")
            }
            ReshardError::Corrupt { detail } => {
                write!(f, "corrupt mutation history: {detail}")
            }
            ReshardError::Journal(e) => write!(f, "reshard I/O failed: {e}"),
            ReshardError::Snapshot(e) => write!(f, "reshard commit failed: {e}"),
            ReshardError::Degraded { shard } => write!(
                f,
                "shard {shard} is degraded: its acknowledged mutations may be missing \
                 from the journal, so a refold would drop them"
            ),
        }
    }
}

impl std::error::Error for ReshardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReshardError::Journal(e) => Some(e),
            ReshardError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for ReshardError {
    fn from(e: JournalError) -> Self {
        // A corruption diagnosis survives the conversion as the dedicated
        // variant so callers (and the error-coverage lint) can distinguish
        // "the journal is damaged" from "the disk misbehaved".
        match e {
            JournalError::Corrupt {
                shard,
                record,
                detail,
            } => ReshardError::Corrupt {
                detail: format!("shard {shard}, record {record}: {detail}"),
            },
            other => ReshardError::Journal(other),
        }
    }
}

impl From<SnapshotError> for ReshardError {
    fn from(e: SnapshotError) -> Self {
        ReshardError::Snapshot(e)
    }
}

/// Folds a globally ordered mutation stream into `config.shards` fresh
/// pipelines, routing each operation through [`shard_of`] at the new width
/// and replaying it in order. Pipelines come back flushed (all aggregation
/// visible).
pub(crate) fn fold(ops: &[Op], config: &HiggsConfig) -> Vec<ParallelHiggs> {
    let mut pipelines: Vec<ParallelHiggs> = (0..config.shards)
        .map(|_| ParallelHiggs::new(*config, SHARD_AGGREGATION_WORKERS))
        .collect();
    for op in ops {
        let edge = op.edge();
        let pipeline = &mut pipelines[shard_of(edge.src, config.shards)];
        if op.delete {
            pipeline.delete(&edge);
        } else {
            pipeline.insert(&edge);
        }
    }
    for pipeline in &mut pipelines {
        pipeline.flush();
    }
    pipelines
}

/// The offline reshard: refolds `dir`'s elastic journal at `new_shards`,
/// commits the refolded snapshot into `dir`, and opens the directory as a
/// durable elastic service at the new width: the body of
/// [`Store::open_resharded`](crate::Store::open_resharded).
pub(crate) fn open_resharded(
    dir: &Path,
    new_shards: usize,
    mode: crate::config::JournalMode,
) -> Result<ShardedHiggs, ReshardError> {
    if new_shards == 0 || new_shards > MAX_SHARDS {
        return Err(ReshardError::InvalidShardCount {
            requested: new_shards,
        });
    }
    if mode == crate::config::JournalMode::Off {
        return Err(ReshardError::HistoryUnavailable {
            detail: "an elastic service requires journaling (JournalMode::Off given): \
                     its journal cannot be kept without the durable write path"
                .into(),
        });
    }
    // Everything below, up to the snapshot commit, only *reads*: a typed
    // failure here leaves the directory untouched and spawns nothing.
    if !journal::dir_is_elastic(dir)? {
        return Err(ReshardError::HistoryUnavailable {
            detail: format!(
                "{} holds no elastic journal: the directory was not opened elastic \
                 (StoreOptions::elastic), so its early mutations were not kept",
                dir.display()
            ),
        });
    }
    let stored = crate::snapshot::SnapshotManifest::read_from_dir(dir)
        .map(|m| m.config)
        .map_err(|e| match e {
            // A crash before the first snapshot is still refoldable online:
            // the journal alone carries every acknowledged mutation, but
            // here the manifest is the config source, so its absence is
            // typed.
            SnapshotError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => {
                ReshardError::HistoryUnavailable {
                    detail: format!(
                        "{} has no snapshot manifest to take the configuration from; \
                         open the directory with Store::open and an explicit config, \
                         then reshard online",
                        dir.display()
                    ),
                }
            }
            other => ReshardError::Snapshot(other),
        })?;
    let ops = history::read_all(dir)?;
    let next_seq = ops.last().map_or(0, |op| op.seq + 1);
    let mut config = stored;
    config.shards = new_shards;
    config.journal_mode = mode;
    let shards: Vec<Arc<RwLock<ParallelHiggs>>> = fold(&ops, &config)
        .into_iter()
        .map(|p| Arc::new(RwLock::new(p)))
        .collect();
    // Commit point: manifest written last. From here the directory is at the
    // new width; every existing segment is sealed (its stamp names an older
    // manifest) and stays as the elastic history.
    let (_, covering) = crate::snapshot::write_snapshot_files(dir, &shards)?;
    let gen = journal::next_gen(dir)?;
    let journals = (0..new_shards)
        .map(|s| Journal::create(dir, gen, s, mode, covering, true).map(Some))
        .collect::<Result<Vec<_>, _>>()?;
    let durable = Arc::new(DurableState {
        dir: dir.to_path_buf(),
        mode,
        elastic: true,
    });
    let service = ShardedHiggs::from_arc_pipelines_with(config, shards, Some(durable), journals)
        .map_err(|e| ReshardError::Snapshot(SnapshotError::Config(e)))?;
    service.resume_seq(next_seq);
    Ok(service)
}
