//! Per-shard, sequence-stamped mutation log: the one durable record of the
//! raw stream under [`ShardedHiggs`](crate::ShardedHiggs).
//!
//! A snapshot ([`snapshot`](crate::snapshot)) captures a summary at one
//! instant; every mutation after it lives only in memory. The journal closes
//! that window: a *durable* service (see [`Store::open`](crate::Store::open)
//! with [`StoreOptions::durable`](crate::StoreOptions::durable)) has each
//! shard's writer thread append every `Insert` / `InsertBatch` / `Delete`
//! to an append-only, per-record-checksummed log **before** applying it, so
//! after a crash the state is reconstructed as `snapshot + live segment
//! replay`.
//!
//! HIGGS leaves keep only `(address, fingerprint)` pairs, so once an edge is
//! summarised this log is the only place its raw form survives. Every reader
//! that needs the raw stream therefore reads the same files:
//!
//! * **crash recovery** and writer respawn replay a shard's *live* segment;
//! * **resharding** ([`crate::reshard`]) folds every retained segment of an
//!   *elastic* store, merged by sequence number (the `history` module);
//! * **followers** ([`crate::replica`]) ship the live segment from a
//!   `(segment, offset)` cursor.
//!
//! # File format
//!
//! Each shard writes a chain of *segments* in the durable directory, next to
//! the snapshot files ([`segment_file_name`]: `journal-GGG-SSS.higgs`, for
//! generation `GGG` and shard `SSS`):
//!
//! ```text
//! magic "HIGGSJNL" (8 bytes) | format version (u32 LE) | flags (u32 LE) | covering manifest checksum (u64 LE)
//! record*
//! ```
//!
//! The header is written once, when the segment is created, and never
//! rewritten. The *covering* checksum is the trailing document checksum of
//! the snapshot manifest the segment's records extend (`0` before the first
//! snapshot). Flag bit 0 marks an **elastic** store: the directory keeps
//! every segment so that a reshard can refold the whole stream, and a reopen
//! re-enables elasticity from the flag alone.
//!
//! Each record is framed and checksummed on its own, unlike snapshot files,
//! which close with one document checksum: a segment must verify up to an
//! arbitrary torn point.
//!
//! ```text
//! len (u32 LE) | body (len bytes) = tag u8 | payload | FNV-1a checksum (u64 LE)
//! ```
//!
//! The payload is encoded by [`higgs_common::codec::Encoder`]: tag 1 =
//! insert (`seq`, edge); tag 2 = insert batch (count, then `seq` and edge
//! per edge); tag 3 = delete (`seq`, edge). An edge is four LE `u64`s, and
//! `seq` is the global sequence number stamped when the mutation was routed
//! (see [`IngestHandle`](crate::IngestHandle)).
//!
//! # Segment lifecycle
//!
//! A shard's **live** segment is the one whose stamp equals the checksum of
//! the manifest on disk; it is the only segment recovery replays and the
//! only one a writer appends to. A committed
//! [`snapshot_to_dir`](crate::ShardedHiggs::snapshot_to_dir) into the
//! durable directory moves every shard to a new live segment, under the
//! writer fence and in this order:
//!
//! 1. the new manifest becomes durable;
//! 2. each writer syncs its segment `G` and creates segment `G + 1`, stamped
//!    with the new manifest's checksum;
//! 3. a non-elastic store deletes segment `G` (best-effort).
//!
//! Every crash point is safe without rewriting a byte. Before step 1 the old
//! manifest and segment `G` still match. Between steps 1 and 2 segment `G`
//! carries the old stamp, so recovery ignores it: every record in it is
//! already in the snapshot. A leftover sealed segment of a non-elastic store
//! is removed at the next open, so its disk use stays bounded by one segment
//! per shard. A failed snapshot leaves every segment as it was.
//!
//! # Why recovery reads file position, not sequence numbers
//!
//! Sequence numbers are stamped with a relaxed atomic increment *before* the
//! channel send, so two producers can reach a shard's writer out of stamp
//! order: a segment is in append order, not in sequence order. A "replay
//! every record above a sequence watermark" rule would therefore drop
//! mutations. Recovery and followers apply the live segment in file order;
//! only the reshard fold sorts by sequence number, and it reads every
//! segment.
//!
//! # Torn tails, corruption and duplicates
//!
//! * **Truncated tail**: the process died mid-append, so the file ends with
//!   a partial length prefix or fewer than `len` body bytes. That is the
//!   *expected* crash artifact; readers stop cleanly after the last complete
//!   record (under write-ahead ordering the torn record was never applied),
//!   and re-arming a segment for appends trims it first.
//! * **Interior corruption**: a record's bytes are all present but its
//!   checksum or structure does not verify. That is storage corruption, not
//!   a crash, and reading past it could silently diverge; readers fail with
//!   a typed [`JournalError::Corrupt`] naming shard and record index.
//! * **Re-drive duplicates**: an append can fail after its bytes landed (the
//!   `fsync` of [`JournalMode::SyncEveryN`] failing, say). Supervision then
//!   replays the segment and re-drives the same command. A record identical
//!   to its predecessor (same sequence numbers, same edges) is that
//!   re-drive: readers skip it, and [`Journal::append`] declines to write
//!   it, so the writer does not apply it a second time.

use crate::config::JournalMode;
use crate::parallel::ParallelHiggs;
use higgs_common::codec::{CodecError, Decoder, Encoder};
use higgs_common::{StreamEdge, TemporalGraphSummary};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every journal segment.
pub const JOURNAL_MAGIC: &[u8; 8] = b"HIGGSJNL";

/// Current journal format version. Bumped on any layout change; readers
/// refuse other versions instead of guessing.
pub const JOURNAL_FORMAT_VERSION: u32 = 2;

/// Byte length of a segment header (magic, version, flags, covering
/// checksum). A shorter file is a torn creation and holds no record; a
/// follower's cursor starts here.
pub(crate) const HEADER_LEN: u64 = 24;

/// Header flag: the store is elastic and keeps every segment.
const FLAG_ELASTIC: u32 = 1;

/// Upper bound on one record's framed body length. The largest legitimate
/// record is an insert batch of one routed ingest chunk (512 edges of 40
/// bytes ≈ 20 KiB); a length prefix beyond this bound can only come from
/// corruption.
const MAX_RECORD_BYTES: u32 = 1 << 20;

/// Upper bound on the edge count of one insert-batch record (decode-side
/// allocation guard, mirroring the snapshot module's `MAX_PREALLOC`).
const MAX_BATCH_EDGES: u64 = 1 << 16;

/// Record tags (the body's leading byte).
const TAG_INSERT: u8 = 1;
const TAG_INSERT_BATCH: u8 = 2;
const TAG_DELETE: u8 = 3;

/// Why a journal operation failed.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A fully-present record or header failed checksum or structural
    /// verification: storage corruption, not a torn crash tail. Readers
    /// refuse to continue past it.
    Corrupt {
        /// Shard whose journal is corrupt.
        shard: usize,
        /// Zero-based index of the corrupt record (or sequence number, for
        /// divergent duplicates found by the reshard merge).
        record: u64,
        /// What failed to verify.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt {
                shard,
                record,
                detail,
            } => {
                write!(
                    f,
                    "journal for shard {shard} corrupt at record {record}: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Named failpoint hooks (see `crates/shims/failpoint`). With the
/// `failpoints` feature the hook evaluates the registry: an injected error
/// maps through `$map` into an early `return Err(..)`, an injected panic
/// unwinds from here, an injected delay stalls the path. Without the feature
/// both forms compile to nothing, so production builds carry zero overhead.
#[cfg(feature = "failpoints")]
macro_rules! failpoint {
    ($name:expr) => {
        let _ = fail::eval($name);
    };
    ($name:expr, $map:expr) => {
        if let Some(msg) = fail::eval($name) {
            return Err(($map)(msg));
        }
    };
}

/// No-op twin of the `failpoints`-gated hook: default builds compile every
/// instrumented path with the hook erased.
#[cfg(not(feature = "failpoints"))]
macro_rules! failpoint {
    ($name:expr) => {};
    ($name:expr, $map:expr) => {};
}

pub(crate) use failpoint;

/// File name of generation `gen` of shard `shard`'s journal inside a durable
/// directory (`journal-000-000.higgs`, `journal-001-000.higgs`, …), next to
/// the snapshot's `shard-NNN.higgs` files.
pub fn segment_file_name(gen: u64, shard: usize) -> String {
    format!("journal-{gen:03}-{shard:03}.higgs")
}

/// Parses `journal-GGG-SSS.higgs` into `(generation, shard)`.
fn parse_segment_name(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("journal-")?.strip_suffix(".higgs")?;
    let (gen, shard) = rest.split_once('-')?;
    Some((gen.parse().ok()?, shard.parse().ok()?))
}

/// One segment file found in a durable directory.
struct Segment {
    gen: u64,
    shard: usize,
    path: PathBuf,
}

/// Every segment file in `dir`, sorted by shard, then generation. A missing
/// directory holds none.
fn segments(dir: &Path) -> Result<Vec<Segment>, JournalError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(JournalError::Io(e)),
    };
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        if let Some((gen, shard)) = name.to_str().and_then(parse_segment_name) {
            found.push(Segment {
                gen,
                shard,
                path: entry.path(),
            });
        }
    }
    found.sort_unstable_by_key(|s| (s.shard, s.gen));
    Ok(found)
}

/// Path of shard `shard`'s newest segment in `dir` (its live segment in
/// normal operation), or `None` when the shard has none or the directory
/// cannot be listed.
pub fn latest_segment_path(dir: &Path, shard: usize) -> Option<PathBuf> {
    let gen = latest_gens(dir, shard + 1).ok()?[shard]?;
    Some(dir.join(segment_file_name(gen, shard)))
}

/// The generation the next created segment takes: one above every
/// generation in `dir`, so a newer segment always sorts after an older one
/// (`0` exactly when `dir` holds no segment).
pub(crate) fn next_gen(dir: &Path) -> Result<u64, JournalError> {
    Ok(segments(dir)?.iter().map(|s| s.gen + 1).max().unwrap_or(0))
}

/// The decoded segment header.
#[derive(Clone, Copy)]
struct Header {
    elastic: bool,
    covering: u64,
}

/// Opens the segment at `path` and validates its header, returning the file
/// positioned at the first record. `Ok(None)` when the file is gone or
/// shorter than a header: its creation was torn, so it holds no record.
fn open_segment(path: &Path, shard: usize) -> Result<Option<(File, Header)>, JournalError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(JournalError::Io(e)),
    };
    read_header(&mut file, shard).map(|header| header.map(|h| (file, h)))
}

/// Reads and validates the header of an open segment, leaving the file
/// positioned at the first record; `Ok(None)` for a torn header.
fn read_header(file: &mut File, shard: usize) -> Result<Option<Header>, JournalError> {
    if file.metadata()?.len() < HEADER_LEN {
        return Ok(None);
    }
    file.seek(SeekFrom::Start(0))?;
    let mut bytes = [0u8; HEADER_LEN as usize];
    file.read_exact(&mut bytes)?;
    let corrupt = |detail: String| JournalError::Corrupt {
        shard,
        record: 0,
        detail,
    };
    if &bytes[..8] != JOURNAL_MAGIC {
        return Err(corrupt(format!("bad magic {:02x?}", &bytes[..8])));
    }
    let word =
        |at: usize| u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
    let (version, flags) = (word(8), word(12));
    let covering = u64::from(word(16)) | u64::from(word(20)) << 32;
    if version != JOURNAL_FORMAT_VERSION {
        return Err(corrupt(format!(
            "unsupported journal format version {version} (supported: {JOURNAL_FORMAT_VERSION})"
        )));
    }
    Ok(Some(Header {
        elastic: flags & FLAG_ELASTIC != 0,
        covering,
    }))
}

/// Shard `shard`'s live segment for the manifest checksum `covering`: its
/// newest segment stamped `covering`, opened at the first record.
fn live_segment(
    dir: &Path,
    shard: usize,
    covering: u64,
) -> Result<Option<(Segment, File)>, JournalError> {
    for segment in segments(dir)?.into_iter().rev() {
        if segment.shard != shard {
            continue;
        }
        if let Some((file, header)) = open_segment(&segment.path, shard)? {
            if header.covering == covering {
                return Ok(Some((segment, file)));
            }
        }
    }
    Ok(None)
}

/// One journaled mutation with its global sequence number(s), mirroring the
/// shard writer's mutation commands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// A single inserted edge and its sequence number.
    Insert(StreamEdge, u64),
    /// A routed batch of inserted edges (one ingest chunk); `seqs[i]` is
    /// the sequence number of `edges[i]`.
    InsertBatch(Vec<StreamEdge>, Vec<u64>),
    /// A single deleted (reversed) edge and its sequence number.
    Delete(StreamEdge, u64),
}

fn put_edge<W: Write>(enc: &mut Encoder<W>, edge: &StreamEdge) -> Result<(), CodecError> {
    enc.put_u64(edge.src)?;
    enc.put_u64(edge.dst)?;
    enc.put_u64(edge.weight)?;
    enc.put_u64(edge.timestamp)
}

fn get_edge<R: Read>(dec: &mut Decoder<R>) -> Result<StreamEdge, CodecError> {
    Ok(StreamEdge {
        src: dec.get_u64()?,
        dst: dec.get_u64()?,
        weight: dec.get_u64()?,
        timestamp: dec.get_u64()?,
    })
}

impl JournalRecord {
    /// Encodes this record's frame (length prefix, then body with its
    /// trailing checksum) into `frame`, replacing its contents.
    fn encode_frame(&self, frame: &mut Vec<u8>) -> Result<(), CodecError> {
        frame.clear();
        frame.extend_from_slice(&[0; 4]);
        {
            let mut enc = Encoder::new(&mut *frame);
            match self {
                JournalRecord::Insert(edge, seq) => {
                    enc.put_u8(TAG_INSERT)?;
                    enc.put_u64(*seq)?;
                    put_edge(&mut enc, edge)?;
                }
                JournalRecord::InsertBatch(edges, seqs) => {
                    if edges.len() != seqs.len() {
                        return Err(CodecError::Invalid(format!(
                            "insert batch of {} edges carries {} sequence numbers",
                            edges.len(),
                            seqs.len()
                        )));
                    }
                    enc.put_u8(TAG_INSERT_BATCH)?;
                    enc.put_u64(edges.len() as u64)?;
                    for (edge, seq) in edges.iter().zip(seqs) {
                        enc.put_u64(*seq)?;
                        put_edge(&mut enc, edge)?;
                    }
                }
                JournalRecord::Delete(edge, seq) => {
                    enc.put_u8(TAG_DELETE)?;
                    enc.put_u64(*seq)?;
                    put_edge(&mut enc, edge)?;
                }
            }
            enc.finish_with_checksum()?;
        }
        let len = (frame.len() - 4) as u32;
        debug_assert!(len <= MAX_RECORD_BYTES);
        frame[..4].copy_from_slice(&len.to_le_bytes());
        Ok(())
    }

    /// Decodes one record body, verifying the per-record checksum.
    fn decode_body(body: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(body);
        let record = match dec.get_u8()? {
            TAG_INSERT => {
                let seq = dec.get_u64()?;
                JournalRecord::Insert(get_edge(&mut dec)?, seq)
            }
            TAG_INSERT_BATCH => {
                let count = dec.get_len(MAX_BATCH_EDGES, "journal batch edge count")?;
                let mut edges = Vec::with_capacity(count);
                let mut seqs = Vec::with_capacity(count);
                for _ in 0..count {
                    seqs.push(dec.get_u64()?);
                    edges.push(get_edge(&mut dec)?);
                }
                JournalRecord::InsertBatch(edges, seqs)
            }
            TAG_DELETE => {
                let seq = dec.get_u64()?;
                JournalRecord::Delete(get_edge(&mut dec)?, seq)
            }
            other => {
                return Err(CodecError::Invalid(format!(
                    "unknown journal record tag {other}"
                )))
            }
        };
        dec.verify_checksum()?;
        // `bytes_read` includes the trailing checksum the verify consumed.
        if dec.bytes_read() != body.len() as u64 {
            return Err(CodecError::Invalid(format!(
                "journal record declared {} body bytes but {} were consumed",
                body.len(),
                dec.bytes_read()
            )));
        }
        Ok(record)
    }

    /// Number of edges this record mutates (diagnostics / test assertions).
    pub fn edge_count(&self) -> usize {
        match self {
            JournalRecord::Insert(..) | JournalRecord::Delete(..) => 1,
            JournalRecord::InsertBatch(edges, _) => edges.len(),
        }
    }

    /// One above the highest sequence number this record carries.
    pub(crate) fn next_seq(&self) -> u64 {
        match self {
            JournalRecord::Insert(_, seq) | JournalRecord::Delete(_, seq) => seq + 1,
            JournalRecord::InsertBatch(_, seqs) => seqs.iter().max().map_or(0, |seq| seq + 1),
        }
    }

    /// Applies this mutation to a shard pipeline through its normal ingest
    /// surface. The caller flushes when it needs the aggregation visible.
    pub(crate) fn apply_to(&self, pipeline: &mut ParallelHiggs) {
        match self {
            JournalRecord::Insert(edge, _) => pipeline.insert(edge),
            JournalRecord::InsertBatch(edges, _) => {
                for edge in edges {
                    pipeline.insert(edge);
                }
            }
            JournalRecord::Delete(edge, _) => pipeline.delete(edge),
        }
    }
}

/// The append half of one shard's live segment, owned by that shard's writer
/// thread. Every [`append`](Self::append) reaches the OS before it returns
/// (write-ahead ordering: the record is out of process buffers before the
/// mutation is applied), and [`JournalMode::SyncEveryN`] additionally forces
/// the disk every `n` records.
#[derive(Debug)]
pub struct Journal {
    file: File,
    mode: JournalMode,
    dir: PathBuf,
    gen: u64,
    shard: usize,
    elastic: bool,
    /// Records appended since the last `fsync` (drives `SyncEveryN`).
    appended_since_sync: u32,
    /// Frame of the segment's last complete record (empty when none): an
    /// append identical to it is a re-drive duplicate.
    last: Vec<u8>,
    /// Scratch frame buffer, swapped with `last` after each append.
    frame: Vec<u8>,
}

impl Journal {
    /// Creates segment `gen` of shard `shard` in `dir` with its header
    /// (stamped `covering`, flagged `elastic`) written and synced, and the
    /// directory synced so the new file's entry survives a power failure.
    /// Refuses to overwrite an existing file.
    ///
    /// `mode` must not be [`JournalMode::Off`] (callers gate on the mode
    /// before constructing a journal).
    pub(crate) fn create(
        dir: &Path,
        gen: u64,
        shard: usize,
        mode: JournalMode,
        covering: u64,
        elastic: bool,
    ) -> Result<Self, JournalError> {
        debug_assert!(mode != JournalMode::Off, "Off never constructs a journal");
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create_new(true)
            .open(dir.join(segment_file_name(gen, shard)))?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_FORMAT_VERSION.to_le_bytes());
        let flags = if elastic { FLAG_ELASTIC } else { 0 };
        header.extend_from_slice(&flags.to_le_bytes());
        header.extend_from_slice(&covering.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        File::open(dir)?.sync_all()?;
        Ok(Self {
            file,
            mode,
            dir: dir.to_path_buf(),
            gen,
            shard,
            elastic,
            appended_since_sync: 0,
            last: Vec::new(),
            frame: Vec::new(),
        })
    }

    /// Recovers shard `shard`'s live segment for the manifest whose checksum
    /// is `covering` and arms the writer to append to it: the segment's
    /// complete records are returned for the caller to replay (in file
    /// order) before the first append, and any torn trailing record is
    /// trimmed (appending after torn bytes would make the *next* read stop
    /// at the tear and silently drop every later record). Without a live
    /// segment, segment `next_gen` is created and there is nothing to
    /// replay.
    pub(crate) fn arm(
        dir: &Path,
        shard: usize,
        mode: JournalMode,
        covering: u64,
        elastic: bool,
        next_gen: u64,
    ) -> Result<(Self, Vec<JournalRecord>), JournalError> {
        let Some((segment, _)) = live_segment(dir, shard, covering)? else {
            let journal = Self::create(dir, next_gen, shard, mode, covering, elastic)?;
            return Ok((journal, Vec::new()));
        };
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&segment.path)?;
        let header = read_header(&mut file, shard)?.ok_or_else(|| JournalError::Corrupt {
            shard,
            record: 0,
            detail: "live segment header vanished while re-arming".into(),
        })?;
        let len = file.metadata()?.len();
        let scan = scan_records(&mut BufReader::new(&mut file), shard, HEADER_LEN, &[])?;
        if scan.clean_end < len {
            file.set_len(scan.clean_end)?;
            file.sync_all()?;
        }
        let journal = Self {
            file,
            mode,
            dir: dir.to_path_buf(),
            gen: segment.gen,
            shard,
            elastic: header.elastic,
            appended_since_sync: 0,
            last: scan.last.unwrap_or_default(),
            frame: Vec::new(),
        };
        Ok((journal, scan.records))
    }

    /// Path of the segment file this journal appends to (diagnostics and
    /// tests).
    pub fn path(&self) -> PathBuf {
        self.dir.join(segment_file_name(self.gen, self.shard))
    }

    /// Appends one record: length-prefixed, per-record-checksummed, written
    /// to the OS before returning, and `fsync`ed per the journal's
    /// [`JournalMode`]. The shard writer calls this **before** applying the
    /// mutation, so a crash can lose at most a record that was never applied.
    ///
    /// Returns `Ok(false)` without writing when `record` is identical to the
    /// segment's last record: it is the re-drive of an append that failed
    /// after its bytes landed, and the replay that armed this journal has
    /// already applied it, so the caller must not apply it again.
    pub fn append(&mut self, record: &JournalRecord) -> Result<bool, JournalError> {
        failpoint!("journal::append", |msg: String| JournalError::Io(
            std::io::Error::other(msg)
        ));
        record
            .encode_frame(&mut self.frame)
            .map_err(|e| JournalError::Corrupt {
                shard: self.shard,
                record: 0,
                detail: format!("encode failed: {e}"),
            })?;
        if self.frame == self.last {
            return Ok(false);
        }
        self.file.write_all(&self.frame)?;
        std::mem::swap(&mut self.frame, &mut self.last);
        failpoint!("journal::sync", |msg: String| JournalError::Io(
            std::io::Error::other(msg)
        ));
        if let JournalMode::SyncEveryN(n) = self.mode {
            self.appended_since_sync += 1;
            if self.appended_since_sync >= n {
                self.file.sync_data()?;
                self.appended_since_sync = 0;
            }
        }
        Ok(true)
    }

    /// Forces everything appended so far to disk (used at the snapshot
    /// fence, regardless of mode).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Seals this segment and moves to the next one: syncs the current
    /// segment, creates generation `+ 1` stamped `covering` (the checksum of
    /// the manifest that now covers every record sealed here), and, for a
    /// non-elastic store, deletes the sealed segment (best-effort: a
    /// leftover is ignored by recovery and removed at the next open). Called
    /// by the snapshot fence only after that manifest is durable.
    pub(crate) fn rotate(&mut self, covering: u64) -> Result<(), JournalError> {
        self.sync()?;
        let next = Self::create(
            &self.dir,
            self.gen + 1,
            self.shard,
            self.mode,
            covering,
            self.elastic,
        )?;
        let sealed = std::mem::replace(self, next);
        if !sealed.elastic {
            let _ = std::fs::remove_file(sealed.path());
        }
        Ok(())
    }
}

/// Replays shard `shard`'s live segment in `dir`, returning its complete,
/// checksum-verified records in file order (re-drive duplicates skipped).
/// `covering` is the checksum of the manifest currently in the directory
/// (`0` when there is none); segments stamped otherwise are sealed (their
/// records are in the snapshot already) and never replayed.
///
/// * No live segment, a torn header, or a header-only segment replays as
///   zero records.
/// * A **torn tail** stops the replay cleanly after the last complete record.
/// * **Interior corruption** fails with [`JournalError::Corrupt`].
pub fn replay(dir: &Path, shard: usize, covering: u64) -> Result<Vec<JournalRecord>, JournalError> {
    let Some((_, file)) = live_segment(dir, shard, covering)? else {
        return Ok(Vec::new());
    };
    Ok(scan_records(&mut BufReader::new(file), shard, HEADER_LEN, &[])?.records)
}

/// Replays every pipeline's live segment (shard `i` into `pipelines[i]`):
/// the recovery path of an open that arms no journal.
pub(crate) fn replay_all(
    dir: &Path,
    covering: u64,
    pipelines: &mut [ParallelHiggs],
) -> Result<(), JournalError> {
    for (shard, pipeline) in pipelines.iter_mut().enumerate() {
        apply_all(&replay(dir, shard, covering)?, pipeline);
    }
    Ok(())
}

/// Applies replayed records to a shard pipeline in file order and flushes
/// it if any record landed: the second half of `snapshot + replay`
/// recovery.
pub(crate) fn apply_all(records: &[JournalRecord], pipeline: &mut ParallelHiggs) {
    if !records.is_empty() {
        for record in records {
            record.apply_to(pipeline);
        }
        pipeline.flush();
    }
}

/// The stamp of segment `gen` of shard `shard`: `Ok(None)` when the file is
/// gone or its header is torn (a creation in progress).
pub(crate) fn segment_stamp(
    dir: &Path,
    gen: u64,
    shard: usize,
) -> Result<Option<u64>, JournalError> {
    let path = dir.join(segment_file_name(gen, shard));
    Ok(open_segment(&path, shard)?.map(|(_, header)| header.covering))
}

/// The newest segment generation of each of shards `0..shards` in `dir`
/// (`None` for a shard without segments), from one directory listing.
pub(crate) fn latest_gens(dir: &Path, shards: usize) -> Result<Vec<Option<u64>>, JournalError> {
    let mut latest = vec![None; shards];
    // Sorted by shard, then generation: the last write per shard wins.
    for segment in segments(dir)? {
        if let Some(slot) = latest.get_mut(segment.shard) {
            *slot = Some(segment.gen);
        }
    }
    Ok(latest)
}

/// One incremental read of a segment for a follower: every complete record
/// from byte offset `from`, a record boundary past a header the caller has
/// already validated ([`segment_stamp`]; headers are never rewritten).
/// `prev` is the frame of the record before `from`, so a re-drive duplicate
/// of it is skipped. A segment that vanished reads as empty.
pub(crate) fn scan_tail(
    dir: &Path,
    gen: u64,
    shard: usize,
    from: u64,
    prev: &[u8],
) -> Result<Scan, JournalError> {
    let mut file = match File::open(dir.join(segment_file_name(gen, shard))) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Scan {
                records: Vec::new(),
                clean_end: from,
                last: None,
            })
        }
        Err(e) => return Err(JournalError::Io(e)),
    };
    file.seek(SeekFrom::Start(from))?;
    scan_records(&mut BufReader::new(file), shard, from, prev)
}

/// Calls `visit` on every complete record of every segment in `dir`, all
/// shards and generations (re-drive duplicates skipped).
pub(crate) fn for_each_record(
    dir: &Path,
    mut visit: impl FnMut(&JournalRecord),
) -> Result<(), JournalError> {
    for segment in segments(dir)? {
        let Some((file, _)) = open_segment(&segment.path, segment.shard)? else {
            continue;
        };
        scan_records(&mut BufReader::new(file), segment.shard, HEADER_LEN, &[])?
            .records
            .iter()
            .for_each(&mut visit);
    }
    Ok(())
}

/// Whether any segment in `dir` carries the elastic flag (a directory opened
/// elastic once stays elastic).
pub(crate) fn dir_is_elastic(dir: &Path) -> Result<bool, JournalError> {
    for segment in segments(dir)? {
        if let Some((_, header)) = open_segment(&segment.path, segment.shard)? {
            if header.elastic {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// Removes every segment in `dir` that is not live under `covering`
/// (best-effort): the sealed leftovers of a non-elastic store, whose records
/// the snapshot already holds.
pub(crate) fn remove_sealed(dir: &Path, covering: u64) -> Result<(), JournalError> {
    for segment in segments(dir)? {
        let live = open_segment(&segment.path, segment.shard)?
            .is_some_and(|(_, header)| header.covering == covering);
        if !live {
            let _ = std::fs::remove_file(&segment.path);
        }
    }
    Ok(())
}

/// What one scan of a segment's record region found.
pub(crate) struct Scan {
    /// Every complete, checksum-verified record, in file order, re-drive
    /// duplicates skipped.
    pub(crate) records: Vec<JournalRecord>,
    /// The **clean-end offset**: one past the last complete record, beyond
    /// which only a torn tail (if anything) remains.
    pub(crate) clean_end: u64,
    /// Frame of the last record in `records` (`None` when it is empty).
    pub(crate) last: Option<Vec<u8>>,
}

/// Scans a segment's record region, the reader positioned at byte offset
/// `start` (a record boundary). `prev` is the frame of the record before
/// `start` (empty for none); a record whose frame equals its predecessor's
/// is a re-drive duplicate and is skipped.
fn scan_records<R: Read>(
    source: &mut R,
    shard: usize,
    start: u64,
    prev: &[u8],
) -> Result<Scan, JournalError> {
    let mut records = Vec::new();
    let mut clean_end = start;
    let mut last: Option<Vec<u8>> = None;
    let mut index: u64 = 0;
    let mut frame = Vec::new();
    loop {
        // Length prefix. Clean EOF at a record boundary ends the segment; a
        // partial prefix is a torn tail (stop scanning, keep the prefix).
        frame.clear();
        frame.resize(4, 0);
        match read_exact_or_eof(source, &mut frame) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => return Err(JournalError::Io(e)),
        }
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        if len == 0 || len > MAX_RECORD_BYTES {
            return Err(JournalError::Corrupt {
                shard,
                record: index,
                detail: format!("record length {len} outside (0, {MAX_RECORD_BYTES}]"),
            });
        }
        frame.resize(4 + len as usize, 0);
        match source.read_exact(&mut frame[4..]) {
            Ok(()) => {}
            // Fewer than `len` body bytes on disk: torn tail, clean stop.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(JournalError::Io(e)),
        }
        clean_end += 4 + u64::from(len);
        if frame != last.as_deref().unwrap_or(prev) {
            // All `len` bytes are present, so any verification failure is
            // real corruption — even on the final record.
            let record =
                JournalRecord::decode_body(&frame[4..]).map_err(|e| JournalError::Corrupt {
                    shard,
                    record: index,
                    detail: e.to_string(),
                })?;
            records.push(record);
            frame = last.replace(frame).unwrap_or_default();
        }
        index += 1;
    }
    Ok(Scan {
        records,
        clean_end,
        last,
    })
}

/// Reads exactly `buf.len()` bytes, returning `Ok(false)` on clean EOF at
/// offset zero and treating a *partial* read ending in EOF the same way
/// (both are torn-tail shapes for the caller).
fn read_exact_or_eof<R: Read>(source: &mut R, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match source.read(&mut buf[filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{next_seq, read_all};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "higgs-journal-{tag}-{}-{:?}",
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

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Insert(edge(1), 0),
            JournalRecord::InsertBatch((0..20).map(edge).collect(), (1..21).collect()),
            JournalRecord::Delete(edge(3), 21),
            JournalRecord::Insert(edge(4), 22),
        ]
    }

    fn create(dir: &Path, gen: u64, shard: usize, elastic: bool) -> Journal {
        Journal::create(dir, gen, shard, JournalMode::Buffered, 0, elastic).expect("create")
    }

    fn write_records(dir: &Path, shard: usize, records: &[JournalRecord]) {
        let mut journal = create(dir, 0, shard, false);
        for r in records {
            assert!(
                journal.append(r).expect("append"),
                "a new record is written"
            );
        }
    }

    /// Re-arms shard `shard` against the zero stamp, the re-open path of a
    /// store that never snapshotted.
    fn rearm(dir: &Path, shard: usize) -> Journal {
        let gen = next_gen(dir).expect("next generation");
        Journal::arm(dir, shard, JournalMode::Buffered, 0, false, gen)
            .expect("arm")
            .0
    }

    fn frame_len(record: &JournalRecord) -> usize {
        let mut frame = Vec::new();
        record.encode_frame(&mut frame).expect("encode");
        frame.len()
    }

    #[test]
    fn records_round_trip_in_append_order() {
        let dir = temp_dir("roundtrip");
        let records = sample_records();
        write_records(&dir, 0, &records);
        assert_eq!(replay(&dir, 0, 0).expect("replay"), records);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn missing_and_empty_journals_replay_to_nothing() {
        let dir = temp_dir("empty");
        // Missing segment, and a missing directory.
        assert_eq!(replay(&dir, 0, 0).expect("missing"), Vec::new());
        let gone = dir.join("no-such-subdir");
        assert_eq!(replay(&gone, 0, 0).expect("missing dir"), Vec::new());
        assert_eq!(read_all(&gone).expect("missing dir"), Vec::new());
        // Header-only segment (created but never appended).
        drop(create(&dir, 0, 0, false));
        assert_eq!(replay(&dir, 0, 0).expect("header only"), Vec::new());
        // A torn header (shorter than HEADER_LEN) means nothing was ever
        // journaled: replay cleanly as empty.
        std::fs::write(dir.join(segment_file_name(0, 1)), b"HIG").expect("torn header");
        assert_eq!(replay(&dir, 1, 0).expect("torn header"), Vec::new());
        // Files that are not segments are ignored by every reader.
        std::fs::write(dir.join("journal-000.higgs"), b"old layout").expect("write");
        std::fs::write(dir.join("journal-xyz.higgs"), b"bad name").expect("write");
        std::fs::write(dir.join("history-000-000.higgs"), b"not a segment").expect("write");
        assert_eq!(read_all(&dir).expect("unrelated files"), Vec::new());
        assert_eq!(next_seq(&dir).expect("no seqs"), 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_tail_replays_the_prefix() {
        let dir = temp_dir("torn");
        let records = sample_records();
        write_records(&dir, 0, &records);
        let path = dir.join(segment_file_name(0, 0));
        let full = std::fs::read(&path).expect("read journal");

        // Truncate at every byte boundary inside the final record (including
        // inside its length prefix): replay must return exactly the first
        // three records every time — never an error, never a partial fourth.
        let prefix_end = full.len() - frame_len(&records[3]);
        for cut in prefix_end..full.len() {
            std::fs::write(&path, &full[..cut]).expect("truncate");
            let replayed = replay(&dir, 0, 0).expect("torn tail must replay cleanly");
            assert_eq!(replayed, records[..3], "cut at byte {cut}");
            assert_eq!(read_all(&dir).expect("torn merged read").len(), 22);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn interior_bit_flip_is_typed_corruption() {
        let dir = temp_dir("bitflip");
        let records = sample_records();
        write_records(&dir, 0, &records);
        let path = dir.join(segment_file_name(0, 0));
        let mut corrupted = std::fs::read(&path).expect("read journal");

        // Flip one bit inside the second record's body: every record is
        // individually checksummed, so every reader must fail with Corrupt
        // naming that record — not stop early, not return wrong data.
        let target = HEADER_LEN as usize + frame_len(&records[0]) + 10;
        corrupted[target] ^= 0x10;
        std::fs::write(&path, &corrupted).expect("corrupt");
        match replay(&dir, 0, 0) {
            Err(JournalError::Corrupt { shard, record, .. }) => {
                assert_eq!(shard, 0);
                assert_eq!(record, 1);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(matches!(
            read_all(&dir),
            Err(JournalError::Corrupt { record: 1, .. })
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn bad_magic_and_version_are_corruption() {
        let dir = temp_dir("header");
        write_records(&dir, 0, &sample_records());
        let path = dir.join(segment_file_name(0, 0));
        let full = std::fs::read(&path).expect("read");

        let mut bad_magic = full.clone();
        bad_magic[0] ^= 0xFF;
        std::fs::write(&path, &bad_magic).expect("write");
        assert!(matches!(
            replay(&dir, 0, 0),
            Err(JournalError::Corrupt { record: 0, .. })
        ));
        assert!(matches!(
            read_all(&dir),
            Err(JournalError::Corrupt { record: 0, .. })
        ));

        let mut bad_version = full.clone();
        bad_version[8] = 0xEE;
        std::fs::write(&path, &bad_version).expect("write");
        let err = replay(&dir, 0, 0).expect_err("future version must be refused");
        assert!(err.to_string().contains("version"), "{err}");
        let err = read_all(&dir).expect_err("future version must be refused");
        assert!(err.to_string().contains("version"), "{err}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn rotate_opens_an_empty_segment_that_can_keep_appending() {
        for elastic in [false, true] {
            let dir = temp_dir(&format!("rotate-{elastic}"));
            let mut journal = Journal::create(&dir, 0, 2, JournalMode::SyncEveryN(2), 0, elastic)
                .expect("create");
            for r in &sample_records() {
                journal.append(r).expect("append");
            }
            // Rotation stamps the covering manifest's checksum into a new
            // segment's header; the sealed one is never rewritten.
            journal.rotate(0xFEED).expect("rotate");
            assert_eq!(journal.path(), dir.join(segment_file_name(1, 2)));
            assert_eq!(replay(&dir, 2, 0xFEED).expect("after rotate"), Vec::new());
            // The same handle keeps appending into the new segment.
            let tail = JournalRecord::Insert(edge(99), 99);
            journal.append(&tail).expect("append after rotate");
            drop(journal);
            assert_eq!(replay(&dir, 2, 0xFEED).expect("tail"), vec![tail]);
            // A non-elastic store deletes the sealed segment; an elastic one
            // keeps it, so the merged read still sees every mutation.
            let sealed = dir.join(segment_file_name(0, 2)).exists();
            assert_eq!(sealed, elastic);
            assert_eq!(dir_is_elastic(&dir).expect("flag"), elastic);
            let merged = read_all(&dir).expect("merged read").len();
            assert_eq!(merged, if elastic { 24 } else { 1 });
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    #[test]
    fn stale_covering_stamp_discards_the_journal() {
        // The rotation commit window: the snapshot manifest became durable
        // but the crash hit before this shard created its next segment. Its
        // records are inside the snapshot, so replaying against the *new*
        // manifest checksum must ignore them — and re-arming must start a
        // fresh segment — while replaying against the stamp they were
        // written under still sees them (the crash-before-manifest case).
        let dir = temp_dir("stale");
        let records = sample_records();
        write_records(&dir, 0, &records); // stamped with covering = 0
        assert_eq!(replay(&dir, 0, 0).expect("matching stamp"), records);
        let new_manifest = 0xDEAD_BEEF_u64;
        assert_eq!(
            replay(&dir, 0, new_manifest).expect("stale stamp"),
            Vec::new(),
            "a segment predating the manifest must not double-apply"
        );
        // Re-arming against the new manifest creates a new live segment and
        // leaves the sealed one untouched.
        let (mut journal, replayed) =
            Journal::arm(&dir, 0, JournalMode::Buffered, new_manifest, false, 1).expect("re-arm");
        assert_eq!(replayed, Vec::new(), "a fresh live segment replays nothing");
        let tail = JournalRecord::Insert(edge(7), 23);
        journal.append(&tail).expect("append");
        drop(journal);
        assert_eq!(
            replay(&dir, 0, new_manifest).expect("fresh tail"),
            vec![tail]
        );
        assert_eq!(replay(&dir, 0, 0).expect("sealed segment"), records);
        // A non-elastic open removes the sealed leftover.
        remove_sealed(&dir, new_manifest).expect("remove sealed");
        assert!(!dir.join(segment_file_name(0, 0)).exists());
        assert_eq!(replay(&dir, 0, 0).expect("removed"), Vec::new());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn reopening_appends_after_existing_records() {
        let dir = temp_dir("reopen");
        let first = vec![JournalRecord::Insert(edge(1), 0)];
        write_records(&dir, 0, &first);
        // The post-crash re-arm path: recover the live segment and extend.
        let (mut journal, replayed) =
            Journal::arm(&dir, 0, JournalMode::Buffered, 0, false, 1).expect("re-arm");
        assert_eq!(replayed, first, "arming hands back the records to replay");
        assert_eq!(journal.path(), dir.join(segment_file_name(0, 0)));
        let second = JournalRecord::Delete(edge(1), 1);
        assert!(journal.append(&second).expect("append"));
        drop(journal);
        assert_eq!(
            replay(&dir, 0, 0).expect("replay"),
            vec![first[0].clone(), second]
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn rearming_over_a_torn_tail_trims_before_appending() {
        // The crash-then-recover-then-crash shape: a segment with a torn
        // final record is re-armed, which must trim the partial bytes first
        // — appending after them would make the *next* replay stop at the
        // tear and silently discard the new records.
        let dir = temp_dir("rearm-torn");
        let records = sample_records();
        write_records(&dir, 0, &records);
        let path = dir.join(segment_file_name(0, 0));
        let full = std::fs::read(&path).expect("read journal");
        let prefix_end = full.len() - frame_len(&records[3]);
        // Every tear point inside the final record, including a bare partial
        // length prefix and a zero-extra-bytes boundary just past it.
        for cut in prefix_end + 1..full.len() {
            std::fs::write(&path, &full[..cut]).expect("tear");
            let mut journal = rearm(&dir, 0);
            let tail = JournalRecord::Insert(edge(1000 + cut as u64), 1000 + cut as u64);
            journal.append(&tail).expect("append after trim");
            drop(journal);
            let mut expected: Vec<JournalRecord> = records[..3].to_vec();
            expected.push(tail);
            assert_eq!(
                replay(&dir, 0, 0).expect("replay after re-arm"),
                expected,
                "cut at byte {cut}: the trimmed segment must replay the \
                 complete prefix plus every post-recovery append"
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn oversized_length_prefix_is_corruption() {
        let dir = temp_dir("oversize");
        drop(create(&dir, 0, 0, false));
        let path = dir.join(segment_file_name(0, 0));
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&(MAX_RECORD_BYTES + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            replay(&dir, 0, 0),
            Err(JournalError::Corrupt { record: 0, .. })
        ));
        assert!(matches!(
            read_all(&dir),
            Err(JournalError::Corrupt { record: 0, .. })
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn identical_duplicates_are_skipped_but_divergent_ones_fail() {
        let dir = temp_dir("dups");
        let record = JournalRecord::Insert(edge(0), 0);
        let next = JournalRecord::Insert(edge(1), 1);
        // The writer declines to append a record identical to the last one.
        let mut journal = create(&dir, 0, 0, true);
        assert!(journal.append(&record).expect("append"));
        assert!(!journal.append(&record).expect("re-drive"), "duplicate");
        drop(journal);
        // A duplicate that did land (an append whose bytes reached the file
        // before it reported failure) is skipped by readers, and re-arming
        // recognises the re-drive of it.
        let path = dir.join(segment_file_name(0, 0));
        let mut bytes = std::fs::read(&path).expect("read");
        let frame = bytes[HEADER_LEN as usize..].to_vec();
        bytes.extend_from_slice(&frame);
        std::fs::write(&path, &bytes).expect("write duplicate");
        assert_eq!(replay(&dir, 0, 0).expect("replay"), vec![record.clone()]);
        let mut journal = rearm(&dir, 0);
        assert!(!journal.append(&record).expect("re-drive after re-arm"));
        assert!(journal.append(&next).expect("append"));
        drop(journal);
        assert_eq!(replay(&dir, 0, 0).expect("replay"), vec![record, next]);
        // The same record in two segments is one operation in the merge...
        let mut g1 = create(&dir, 1, 0, true);
        g1.append(&JournalRecord::Insert(edge(1), 1))
            .expect("append");
        drop(g1);
        assert_eq!(read_all(&dir).expect("dedup").len(), 2);
        // ...but a *different* record claiming seq 1 is corruption, typed.
        let mut other = create(&dir, 0, 1, true);
        other
            .append(&JournalRecord::Delete(edge(9), 1))
            .expect("divergent");
        drop(other);
        let err = read_all(&dir).expect_err("divergent seqs must fail");
        assert!(
            err.to_string().contains("sequence number 1"),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn elastic_store_logs_each_mutation_once() {
        use crate::store::{Store, StoreOptions};
        let dir = temp_dir("elastic-once");
        let config = crate::HiggsConfig::builder()
            .shards(3)
            .journal_mode(JournalMode::Buffered)
            .build()
            .expect("valid elastic configuration");
        let stream: Vec<StreamEdge> = (0..1_500).map(edge).collect();
        let deletes: Vec<StreamEdge> = stream.iter().step_by(7).copied().collect();
        {
            let mut service = Store::open(StoreOptions::durable(config, &dir).elastic(true))
                .expect("elastic service");
            service.insert_all(&stream[..1_000]);
            service.snapshot_to_dir(&dir).expect("snapshot");
            for e in &stream[1_000..] {
                service.insert(e);
            }
            service.snapshot_to_dir(&dir).expect("snapshot");
            for e in &deletes {
                service.delete(e);
            }
            service.flush();
        }
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("list directory")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| !n.starts_with("history-")),
            "one log, no second history file: {names:?}"
        );
        // Three generations per shard are retained, and together they hold
        // every mutation exactly once, stamped 0..n without gaps.
        assert_eq!(segments(&dir).expect("segments").len(), 9);
        let mut logged = 0;
        for_each_record(&dir, |record| logged += record.edge_count()).expect("read");
        let total = stream.len() + deletes.len();
        assert_eq!(logged, total, "each mutation is logged once");
        let ops = read_all(&dir).expect("merged read");
        assert!(ops.iter().enumerate().all(|(i, op)| op.seq == i as u64));
        assert_eq!(ops.len(), total);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn journal_error_messages_name_the_failure() {
        let io = JournalError::from(std::io::Error::other("disk on fire"));
        assert!(io.to_string().contains("disk on fire"));
        assert!(matches!(io, JournalError::Io(_)));
        let corrupt = JournalError::Corrupt {
            shard: 3,
            record: 7,
            detail: "checksum mismatch".into(),
        };
        let msg = corrupt.to_string();
        assert!(msg.contains("shard 3"), "{msg}");
        assert!(msg.contains("record 7"), "{msg}");
        assert!(msg.contains("checksum mismatch"), "{msg}");
        use std::error::Error;
        assert!(io.source().is_some());
        assert!(corrupt.source().is_none());
    }

    #[test]
    fn edge_count_reflects_record_shape() {
        assert_eq!(JournalRecord::Insert(edge(1), 0).edge_count(), 1);
        assert_eq!(JournalRecord::Delete(edge(1), 0).edge_count(), 1);
        assert_eq!(
            JournalRecord::InsertBatch((0..7).map(edge).collect(), (0..7).collect()).edge_count(),
            7
        );
    }
}
