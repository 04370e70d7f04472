//! The unified persistence entry point: [`Store::open`] with
//! [`StoreOptions`].
//!
//! [`Store`] is the one typed options surface for durable construction: say
//! what you want ([`OpenMode`]), not which constructor matches the
//! directory's current state. Resharding and follower construction hang
//! off the same options type ([`Store::open_resharded`], [`Store::follow`]),
//! so the whole persistence lifecycle — create, recover, reshard, replicate
//! — reads from one vocabulary.
//!
//! ```no_run
//! use higgs::{HiggsConfig, JournalMode, OpenMode, Store, StoreOptions};
//!
//! let config = HiggsConfig::builder()
//!     .shards(2)
//!     .journal_mode(JournalMode::Buffered)
//!     .build()
//!     .expect("valid");
//! // Create-or-recover, elastic so it can be resharded later.
//! let service = Store::open(
//!     StoreOptions::durable(config, "/var/lib/higgs").elastic(true),
//! )
//! .expect("open");
//! drop(service);
//! // Reopen strictly: fail if the directory vanished.
//! let service = Store::open(
//!     StoreOptions::durable(config, "/var/lib/higgs").mode(OpenMode::OpenExisting),
//! )
//! .expect("reopen");
//! # drop(service);
//! ```

use crate::config::{HiggsConfig, JournalMode};
use crate::history;
use crate::journal::{self, Journal, JournalRecord};
use crate::parallel::ParallelHiggs;
use crate::replica::{Follower, ReplicaError};
use crate::reshard::ReshardError;
use crate::shard::{DurableState, ShardedHiggs, SHARD_AGGREGATION_WORKERS};
use crate::snapshot::SnapshotError;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How [`Store::open`] treats the directory's current state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenMode {
    /// The directory must not already be initialised: fail with
    /// [`SnapshotError::AlreadyExists`] when it holds a snapshot manifest
    /// instead of silently recovering state the caller did not expect.
    CreateNew,
    /// The directory must already exist; fail (I/O `NotFound`) instead of
    /// creating it. With a configuration this recovers snapshot + journals;
    /// without one the configuration is taken from the manifest.
    OpenExisting,
    /// Create the directory when missing, recover it when present — the
    /// idempotent default for services that own their data directory.
    OpenOrCreate,
}

/// Typed options for [`Store::open`]: the configuration, the directory, how
/// to treat its current state, and whether the store is elastic.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// The caller's configuration. `Some` makes it authoritative (the
    /// durable open path); `None` takes the configuration from the
    /// directory's manifest (the restore path, necessarily
    /// [`OpenMode::OpenExisting`]).
    config: Option<HiggsConfig>,
    dir: PathBuf,
    mode: OpenMode,
    elastic: bool,
}

impl StoreOptions {
    /// Options for a **durable** service: `config` is authoritative, the
    /// directory is created or recovered ([`OpenMode::OpenOrCreate`]), and
    /// every mutation is journaled per `config`'s
    /// [`journal_mode`](crate::HiggsConfigBuilder::journal_mode).
    pub fn durable(config: HiggsConfig, dir: impl AsRef<Path>) -> Self {
        StoreOptions {
            config: Some(config),
            dir: dir.as_ref().to_path_buf(),
            mode: OpenMode::OpenOrCreate,
            elastic: false,
        }
    }

    /// Options for restoring a **non-durable** warm copy from a snapshot
    /// directory: the configuration comes from the manifest (journaling
    /// off), the directory must exist ([`OpenMode::OpenExisting`]).
    pub fn restore(dir: impl AsRef<Path>) -> Self {
        StoreOptions {
            config: None,
            dir: dir.as_ref().to_path_buf(),
            mode: OpenMode::OpenExisting,
            elastic: false,
        }
    }

    /// Overrides the [`OpenMode`].
    pub fn mode(mut self, mode: OpenMode) -> Self {
        self.mode = mode;
        self
    }

    /// Make the store **elastic**: its journal keeps every segment instead
    /// of deleting the ones a snapshot covers, so the whole sequence-stamped
    /// stream stays on disk (see [`crate::journal`]), enabling
    /// [`ShardedHiggs::reshard`] and [`Store::open_resharded`] later.
    /// Requires journaling (a [`JournalMode`] other than `Off`). The journal
    /// headers record elasticity, so a directory opened elastic once
    /// re-enables it on every later open; a directory that already holds
    /// **non-elastic** state (a snapshot manifest or journal segments)
    /// refuses, because the mutations its snapshots cover are gone.
    pub fn elastic(mut self, elastic: bool) -> Self {
        self.elastic = elastic;
        self
    }
}

/// Namespace for the unified persistence API; see the [module docs](self)
/// and [`Store::open`].
#[derive(Debug)]
pub struct Store;

impl Store {
    /// Opens (creates, recovers, or restores) a [`ShardedHiggs`] from
    /// `options.dir` per the [`OpenMode`].
    ///
    /// * With a configuration ([`StoreOptions::durable`]): the caller's
    ///   config is authoritative. A directory holding a snapshot and/or
    ///   journals is recovered (journal tails replayed, a torn final record
    ///   tolerated); a fresh directory starts empty. Journaling continues
    ///   per the config's journal mode — `Off` gives recovery without
    ///   durability.
    /// * Without one ([`StoreOptions::restore`]): the manifest's stored
    ///   config is used. Since a manifest never records a journal mode, the
    ///   result is a warm **non-durable** copy.
    ///
    /// Durable opens resume the global mutation sequence above everything
    /// the journal already recorded. Elastic stores
    /// ([`StoreOptions::elastic`]) keep every journal segment.
    ///
    /// Nothing is spawned until every file validated, so a failed open never
    /// leaks writer threads.
    pub fn open(options: StoreOptions) -> Result<ShardedHiggs, SnapshotError> {
        let StoreOptions {
            config,
            dir,
            mode,
            elastic,
        } = options;
        match mode {
            OpenMode::CreateNew => {
                if crate::snapshot::manifest_exists(&dir) {
                    return Err(SnapshotError::AlreadyExists { dir });
                }
            }
            OpenMode::OpenExisting => {
                if !dir.is_dir() {
                    return Err(SnapshotError::Io(std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        format!("{}: no such directory (OpenExisting)", dir.display()),
                    )));
                }
            }
            OpenMode::OpenOrCreate => {}
        }
        match config {
            Some(config) => open_durable(config, &dir, elastic),
            None => {
                if elastic {
                    return Err(SnapshotError::ElasticUnavailable {
                        detail: "restore opens are non-durable (the manifest stores no \
                                 journal mode), and elastic history requires the durable \
                                 write path; pass a configuration with journaling enabled"
                            .into(),
                    });
                }
                let (stored, pipelines) = crate::snapshot::restore_pipelines(&dir)?;
                Ok(ShardedHiggs::from_pipelines(stored, pipelines)?)
            }
        }
    }

    /// Opens `options.dir` **resharded** to `new_shards`: the directory's
    /// elastic journal is refolded through `shard_of` at the new width, the
    /// refolded snapshot committed back, and the service opened durable at
    /// the new count (journaling per the options config's journal mode,
    /// [`JournalMode::Buffered`] when the options carry no config).
    ///
    /// Queries on the result are bit-identical to a service built fresh at
    /// `new_shards` from the same single-producer workload. Failures — an
    /// invalid count, a directory never opened
    /// [`elastic`](StoreOptions::elastic), a corrupt journal — are typed
    /// [`ReshardError`]s and spawn nothing.
    pub fn open_resharded(
        options: StoreOptions,
        new_shards: usize,
    ) -> Result<ShardedHiggs, ReshardError> {
        let mode = options
            .config
            .map_or(JournalMode::Buffered, |c| c.journal_mode);
        crate::reshard::open_resharded(&options.dir, new_shards, mode)
    }

    /// Bootstraps a warm **read-only follower** from `options.dir` (a
    /// leader's live durable directory, or a shipped copy of it): pipelines
    /// restore from the snapshot, and [`Follower::sync`] then replays
    /// journal segments as the leader appends them. See [`crate::replica`].
    pub fn follow(options: StoreOptions) -> Result<Follower, ReplicaError> {
        Follower::bootstrap(&options.dir)
    }
}

/// The durable open path: caller config authoritative, directory created
/// per mode, snapshot + live segment recovery, elastic from the request or
/// the directory.
fn open_durable(
    config: HiggsConfig,
    dir: &Path,
    elastic_requested: bool,
) -> Result<ShardedHiggs, SnapshotError> {
    config.validate().map_err(SnapshotError::Config)?;
    std::fs::create_dir_all(dir)?;
    let dir_elastic = journal::dir_is_elastic(dir).map_err(SnapshotError::Journal)?;
    let elastic = elastic_requested || dir_elastic;
    if elastic && config.journal_mode == JournalMode::Off {
        return Err(SnapshotError::ElasticUnavailable {
            detail: "an elastic store keeps its journal; configure a JournalMode other \
                     than Off"
                .into(),
        });
    }
    let has_snapshot = crate::snapshot::manifest_exists(dir);
    let gen = journal::next_gen(dir).map_err(SnapshotError::Journal)?;
    let has_segments = gen > 0;
    if elastic_requested && !dir_elastic && (has_snapshot || has_segments) {
        return Err(SnapshotError::ElasticUnavailable {
            detail: format!(
                "{} already holds non-elastic state: its journal did not keep the \
                 mutations its snapshots cover, so a later refold would silently drop \
                 them; elastic can only be enabled on a directory that was elastic \
                 from the start",
                dir.display()
            ),
        });
    }
    let covering = crate::snapshot::manifest_tail_checksum(dir)?;
    let mut pipelines = if has_snapshot {
        let (stored, pipelines) = crate::snapshot::restore_snapshot_pipelines(dir)?;
        if stored.shards != config.shards {
            return Err(SnapshotError::Corrupt(format!(
                "shard count mismatch: directory holds {} shards, config asks for {}",
                stored.shards, config.shards
            )));
        }
        pipelines
    } else {
        // No snapshot yet (fresh directory, or a crash before the first
        // snapshot): fresh pipelines, then the live segments on top.
        (0..config.shards)
            .map(|_| ParallelHiggs::new(config, SHARD_AGGREGATION_WORKERS))
            .collect()
    };
    // New mutations must stamp above everything already on disk: a new
    // record then never repeats the record it follows (replay would skip it
    // as a re-drive), and an elastic store's merged order stays total across
    // restarts.
    let mut next_seq = 0;
    let mut journals = Vec::with_capacity(config.shards);
    if config.journal_mode == JournalMode::Off {
        // Recovery without durability: replay the live segments, arm none.
        journal::replay_all(dir, covering, &mut pipelines).map_err(SnapshotError::Journal)?;
        journals.resize_with(config.shards, || None);
    } else {
        if !elastic {
            // Sealed segments left behind by an interrupted rotation: the
            // snapshot (verified above) already holds their records.
            journal::remove_sealed(dir, covering).map_err(SnapshotError::Journal)?;
        }
        for (shard, pipeline) in pipelines.iter_mut().enumerate() {
            let (armed, records) =
                Journal::arm(dir, shard, config.journal_mode, covering, elastic, gen)
                    .map_err(SnapshotError::Journal)?;
            journal::apply_all(&records, pipeline);
            next_seq = records
                .iter()
                .map(JournalRecord::next_seq)
                .fold(next_seq, u64::max);
            journals.push(Some(armed));
        }
        if elastic {
            // Sealed segments take part in the merged order too.
            next_seq = history::next_seq(dir).map_err(SnapshotError::Journal)?;
        }
    }
    let durable = (config.journal_mode != JournalMode::Off).then(|| {
        Arc::new(DurableState {
            dir: dir.to_path_buf(),
            mode: config.journal_mode,
            elastic,
        })
    });
    let service = ShardedHiggs::from_pipelines_with(config, pipelines, durable, journals)
        .map_err(SnapshotError::Config)?;
    service.resume_seq(next_seq);
    Ok(service)
}
