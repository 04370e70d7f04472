//! The HIGGS compressed matrix: a `d × d` grid of buckets, each holding up to
//! `b` fingerprinted entries, with the Multiple Mapping Buckets (MMB)
//! optimisation of Section IV-C.
//!
//! # Storage layout
//!
//! Bucket storage is **structure-of-arrays**: three parallel columns —
//! packed match keys (`u64`), packed tags (`u64`), and weights (`i64`) —
//! instead of one array of structs. A probe compares keys and tags and
//! accumulates weights; SoA lets the key-first sweep
//! ([`higgs_common::sum_matching`]) stream the keys column alone and touch
//! tags and weights only on a key hit. Slots are ordered bucket-major (bucket
//! `(row, col)` is bucket `row·d + col`), so one source row is one contiguous
//! run of the columns. A matrix is in one of two layouts:
//!
//! * **Dense** (writable): `b · d²` fixed-stride slots — bucket `(row, col)`
//!   owns slots `[(row·d + col)·b, (row·d + col + 1)·b)` — plus one `u8`
//!   occupancy count per bucket. Each tree's open leaf, its overflow chain,
//!   and the transient matrix an aggregation fills are dense.
//! * **Frozen** (closed): only the occupied slots, in the same bucket-major
//!   order, plus `d² + 1` `u32` bucket offsets — bucket `k` owns slots
//!   `[offsets[k], offsets[k + 1])`. A matrix is frozen once nothing can add
//!   a slot to it again (a closed leaf and its overflow blocks, every
//!   aggregate); later deletes only decrement weights in place. Closed
//!   leaves are mostly empty and aggregates far emptier still (duplicate
//!   edges merge once time offsets are dropped), so freezing drops most of
//!   the summary's bytes.
//!
//! Every probe, sweep, delete and [`CompressedMatrix::entries`] finds a
//! bucket's slots through one accessor (`bucket_range`), so both layouts
//! share every kernel and answer bit-identically. [`capacity`] and
//! [`utilization`] stay geometric (`b · d²`) in both. An insert into a frozen
//! matrix thaws it back to dense first.
//!
//! [`capacity`]: CompressedMatrix::capacity
//! [`utilization`]: CompressedMatrix::utilization
//!
//! Per slot, the match key packs the fingerprint pair into one `u64`
//! (`fp_src` in the high half, `fp_dst` in the low half — exact, since
//! fingerprints are at most 32 bits each), and the tag packs the MMB index
//! pair into bits 32..48 with the time offset in the low 32 bits. A
//! candidate scan therefore compares one `u64` and one masked `u64` per
//! slot.
//!
//! # The empty-slots-are-zero invariant
//!
//! In a dense matrix, never-occupied slots hold all-zero key, tag, and
//! **weight**. Entries are never physically removed (deletion only
//! decrements weights), so every slot outside a bucket's occupancy count is
//! all-zero forever: an empty slot can at worst match an all-zero pattern
//! and then contributes zero weight. That is why a dense matrix and its
//! frozen copy — which keeps only the occupied slots — answer every probe
//! bit-identically. Every probe bounds its scans by occupancy: edge and
//! destination-column probes scan each candidate bucket's slot range, a
//! frozen source row is one contiguous run of occupied slots swept with one
//! [`sum_matching`] call, and a dense source row is a fused scan of each
//! bucket's occupied slots. Mutating scans (insert, delete) likewise visit
//! only occupied slots: they must find *real* entries, not zero-weight
//! ghosts.
//!
//! # Probing
//!
//! Every operation precomputes its `r` candidate rows and columns once with
//! an iterative LCG walk ([`AddressSequence::fill_sequence`]) into small
//! stack arrays; the `r × r` candidate loops then index those arrays.
//! Query paths accept a reusable `ProbeScratch` that memoises the last
//! `(side, base address)` candidate fill — the columnar batch evaluator
//! sweeps address-sorted probe sets where consecutive probes share
//! endpoints, so most fills are skipped entirely. Insertion fuses the
//! match-scan and the free-slot scan into a single sweep.
//!
//! Leaf matrices store a per-entry time offset relative to the matrix's start
//! time; aggregated (non-leaf) matrices store no temporal information
//! (Section IV-A). Every entry also records the index pair `(i, j)` of the
//! mapping-bucket it occupies so that queries and aggregation can attribute
//! it to the correct base address.

use higgs_common::hashing::AddressSequence;
use higgs_common::simd::{prefetch_read_data, sum_matching, TAG_OFFSET_MASK};
use std::borrow::Cow;
use std::ops::Range;

/// Maximum number of MMB mapping addresses per vertex: index pairs are
/// stored as two 8-bit halves of a `u16` and candidate addresses live in
/// fixed stack arrays of this size. [`HiggsConfig`](crate::HiggsConfig)
/// validates the same bound.
pub const MAX_MAPPING: usize = 16;

/// One stored edge record: the fingerprint pair, the MMB index pair, the
/// time offset (leaf matrices only; 0 in aggregated matrices), and the
/// accumulated weight.
///
/// This is the public *view* of a slot; internally the slab is
/// structure-of-arrays with packed keys and tags (see the module docs), and
/// [`CompressedMatrix::entries`] materialises `Entry` values on the fly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Source fingerprint at this matrix's layer.
    pub fp_src: u32,
    /// Destination fingerprint at this matrix's layer.
    pub fp_dst: u32,
    /// Index of the source mapping address used (`i` of the index pair).
    pub idx_src: u8,
    /// Index of the destination mapping address used (`j` of the index pair).
    pub idx_dst: u8,
    /// Timestamp offset relative to the matrix's start time (leaf layer only).
    pub time_offset: u32,
    /// Accumulated weight (signed so deletions cannot wrap).
    pub weight: i64,
}

/// A query-time filter on entry time offsets (inclusive bounds). `None`
/// disables temporal filtering (non-leaf matrices).
pub type OffsetFilter = Option<(u32, u32)>;

/// One occupied slot of the slab, materialised from the three SoA columns:
/// the packed match key plus payload. Crate-visible so the snapshot codec
/// can persist the slab in the same on-disk shape as before the SoA split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Slot {
    /// `fp_src` in the high 32 bits, `fp_dst` in the low 32 bits.
    pub(crate) key: u64,
    /// `idx_src` in the high byte, `idx_dst` in the low byte.
    pub(crate) idx: u16,
    /// Timestamp offset relative to the matrix's start time (leaf layer only).
    pub(crate) time_offset: u32,
    /// Accumulated weight.
    pub(crate) weight: i64,
}

#[inline]
fn pack_key(fp_src: u32, fp_dst: u32) -> u64 {
    (u64::from(fp_src) << 32) | u64::from(fp_dst)
}

#[inline]
fn pack_idx(i: usize, j: usize) -> u16 {
    ((i as u16) << 8) | j as u16
}

/// Packs the MMB index pair and time offset into a tag word: index pair in
/// bits 32..48, offset in the low 32 bits (the layout
/// [`higgs_common::sum_matching`] range-checks offsets against).
#[inline]
fn pack_tag(idx: u16, time_offset: u32) -> u64 {
    (u64::from(idx) << 32) | u64::from(time_offset)
}

/// Tag bits holding the full index pair.
const TAG_IDX_MASK: u64 = 0xFFFF_0000_0000;
/// Tag bits holding the source half of the index pair.
const TAG_SRC_MASK: u64 = 0xFF00_0000_0000;
/// Tag bits holding the destination half of the index pair.
const TAG_DST_MASK: u64 = 0x00FF_0000_0000;
/// Key bits holding the source fingerprint.
const KEY_SRC_MASK: u64 = 0xFFFF_FFFF_0000_0000;
/// Key bits holding the destination fingerprint.
const KEY_DST_MASK: u64 = 0x0000_0000_FFFF_FFFF;

/// Inclusive offset bounds of a filter; `None` admits every offset.
#[inline]
fn filter_bounds(filter: OffsetFilter) -> (u32, u32) {
    filter.unwrap_or((0, u32::MAX))
}

/// A spilled aggregation entry: kept outside the bucket grid when every
/// candidate bucket of an aggregation insert is full. Spills are rare (the
/// parent has the same total capacity as its children) but must preserve
/// exact attribution so that aggregation never loses weight for any edge.
/// Crate-visible so the snapshot codec can persist spills verbatim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SpillEntry {
    pub(crate) addr_src: u64,
    pub(crate) addr_dst: u64,
    pub(crate) fp_src: u32,
    pub(crate) fp_dst: u32,
    pub(crate) weight: i64,
}

/// Memoised candidate-address fill for one probe endpoint: caches the last
/// `(side, mapping, base)` LCG sequence so that consecutive probes sharing
/// an endpoint skip the refill entirely.
#[derive(Clone, Copy, Debug)]
struct CachedSeq {
    side: u64,
    mapping: u32,
    base: u64,
    valid: bool,
    cands: [u64; MAX_MAPPING],
}

impl CachedSeq {
    const fn new() -> Self {
        Self {
            side: 0,
            mapping: 0,
            base: 0,
            valid: false,
            cands: [0; MAX_MAPPING],
        }
    }

    /// The first `mapping` candidate addresses for `base`, refilled only on
    /// a cache miss. The LCG constants are global, so a `(side, mapping,
    /// base mod side)` key identifies the sequence across matrices — one
    /// scratch serves a leaf matrix *and* its overflow blocks *and* every
    /// other same-side matrix in a sweep.
    // LINT-ALLOW(hot-path-panic): `mapping <= MAX_MAPPING` is asserted at
    // matrix construction, so `cands[..mapping]` is always in bounds.
    #[inline]
    fn candidates(&mut self, seq: &AddressSequence, side: u64, mapping: u32, base: u64) -> &[u64] {
        let base = base % side;
        if !(self.valid && self.side == side && self.mapping == mapping && self.base == base) {
            seq.fill_sequence(base, &mut self.cands[..mapping as usize]);
            self.side = side;
            self.mapping = mapping;
            self.base = base;
            self.valid = true;
        }
        &self.cands[..self.mapping as usize]
    }
}

/// Reusable candidate-address scratch for probe sweeps: one cached LCG fill
/// per endpoint role (row / column). The columnar batch evaluator allocates
/// one per group and threads it through every probe of every target, so the
/// per-probe `fill_sequence` of the row-wise path amortises away whenever
/// consecutive (address-sorted) probes share endpoints.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProbeScratch {
    rows: CachedSeq,
    cols: CachedSeq,
}

impl ProbeScratch {
    pub(crate) const fn new() -> Self {
        Self {
            rows: CachedSeq::new(),
            cols: CachedSeq::new(),
        }
    }
}

impl Default for ProbeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The HIGGS compressed matrix.
#[derive(Clone, Debug)]
pub struct CompressedMatrix {
    side: u64,
    layer: u32,
    bucket_entries: usize,
    mapping: u32,
    seq: AddressSequence,
    /// Packed fingerprint pairs, one per slot, bucket-major; bucket
    /// `r·d + c` owns `keys[bucket_range(r·d + c)]`. Parallel to `tags` and
    /// `weights`.
    keys: Vec<u64>,
    /// Packed index pair (bits 32..48) and time offset (low 32 bits).
    tags: Vec<u64>,
    /// Accumulated signed weights. Zero for every never-occupied dense slot
    /// — the invariant that lets a dense row sweep ignore occupancy counts.
    weights: Vec<i64>,
    /// Dense layout: per-bucket occupancy, indexed by `r·d + c`. Empty once
    /// frozen.
    lens: Vec<u8>,
    /// Frozen layout: `d² + 1` bucket offsets into the columns. Empty while
    /// dense, so `offsets.is_empty()` tells the layouts apart.
    offsets: Vec<u32>,
    spill: Vec<SpillEntry>,
    stored: usize,
}

impl CompressedMatrix {
    /// Creates an empty matrix of `side × side` buckets at tree layer
    /// `layer`, with `bucket_entries` entries per bucket and `mapping`
    /// candidate addresses per vertex.
    pub fn new(side: u64, layer: u32, bucket_entries: usize, mapping: u32) -> Self {
        let mut m = Self::unallocated(side, layer, bucket_entries, mapping);
        let slots = m.capacity();
        m.keys = vec![0u64; slots];
        m.tags = vec![0u64; slots];
        m.weights = vec![0i64; slots];
        m.lens = vec![0u8; m.buckets()];
        m
    }

    /// The validated geometry with no slot storage yet: neither layout's
    /// invariants hold until the caller fills the columns.
    fn unallocated(side: u64, layer: u32, bucket_entries: usize, mapping: u32) -> Self {
        assert!(side.is_power_of_two() && side >= 2);
        assert!(
            bucket_entries >= 1 && bucket_entries <= u8::MAX as usize,
            "bucket_entries must be in [1, 255]"
        );
        assert!(
            mapping >= 1 && mapping as usize <= MAX_MAPPING,
            "mapping must be in [1, {MAX_MAPPING}]"
        );
        Self {
            side,
            layer,
            bucket_entries,
            mapping,
            seq: AddressSequence::new(side),
            keys: Vec::new(),
            tags: Vec::new(),
            weights: Vec::new(),
            lens: Vec::new(),
            offsets: Vec::new(),
            spill: Vec::new(),
            stored: 0,
        }
    }

    /// Number of buckets (`d²`).
    #[inline]
    fn buckets(&self) -> usize {
        (self.side * self.side) as usize
    }

    /// Whether the matrix is in the frozen (occupied-only) layout.
    pub fn is_frozen(&self) -> bool {
        !self.offsets.is_empty()
    }

    /// Packs the matrix into the frozen layout: only occupied slots, in the
    /// same bucket-major order, indexed by `d² + 1` bucket offsets; the spill
    /// list is shrunk to fit. Every answer — probes, sweeps, deletes,
    /// [`entries`](Self::entries) order — is unchanged. Call it once nothing
    /// will add a slot to the matrix again; a later insert thaws it back to
    /// the dense layout first. Freezing a frozen matrix is a no-op.
    // LINT-ALLOW(hot-path-panic): `bucket_range` of a bucket below `d²` lies
    // inside the dense slab. The occupied total fits `u32`: a dense slab
    // holding 2^32 occupied slots would already take 96 GiB of columns.
    pub fn freeze(&mut self) {
        if self.is_frozen() {
            return;
        }
        let mut keys = Vec::with_capacity(self.stored);
        let mut tags = Vec::with_capacity(self.stored);
        let mut weights = Vec::with_capacity(self.stored);
        let mut offsets = Vec::with_capacity(self.buckets() + 1);
        offsets.push(0u32);
        for bucket in 0..self.buckets() {
            let slots = self.bucket_range(bucket);
            keys.extend_from_slice(&self.keys[slots.clone()]);
            tags.extend_from_slice(&self.tags[slots.clone()]);
            weights.extend_from_slice(&self.weights[slots]);
            offsets.push(keys.len() as u32);
        }
        debug_assert_eq!(keys.len(), self.stored);
        self.keys = keys;
        self.tags = tags;
        self.weights = weights;
        self.lens = Vec::new();
        self.offsets = offsets;
        self.spill.shrink_to_fit();
    }

    /// Unpacks a frozen matrix back into the dense, writable layout (a
    /// no-op on a dense matrix).
    // LINT-ALLOW(hot-path-panic): a frozen bucket's range has at most `b`
    // slots, so it fits the bucket's dense stride inside the new slab.
    pub(crate) fn thaw(&mut self) {
        if !self.is_frozen() {
            return;
        }
        let b = self.bucket_entries;
        let mut dense = Self::new(self.side, self.layer, b, self.mapping);
        for bucket in 0..self.buckets() {
            let slots = self.bucket_range(bucket);
            let start = bucket * b;
            let end = start + slots.len();
            dense.keys[start..end].copy_from_slice(&self.keys[slots.clone()]);
            dense.tags[start..end].copy_from_slice(&self.tags[slots.clone()]);
            dense.weights[start..end].copy_from_slice(&self.weights[slots.clone()]);
            dense.lens[bucket] = slots.len() as u8;
        }
        dense.spill = std::mem::take(&mut self.spill);
        dense.stored = self.stored;
        *self = dense;
    }

    /// The column positions of bucket `bucket`'s occupied slots, in slot
    /// order — the one place a probe, sweep or delete interprets either
    /// layout (only the prefetch hints branch on it too).
    // LINT-ALLOW(hot-path-panic): callers pass `bucket < d²`; `lens` has
    // `d²` entries (dense) and `offsets` `d² + 1` (frozen).
    #[inline]
    fn bucket_range(&self, bucket: usize) -> Range<usize> {
        if self.offsets.is_empty() {
            let start = bucket * self.bucket_entries;
            start..start + self.lens[bucket] as usize
        } else {
            self.offsets[bucket] as usize..self.offsets[bucket + 1] as usize
        }
    }

    /// Matrix side length `d`.
    pub fn side(&self) -> u64 {
        self.side
    }

    /// Tree layer this matrix belongs to (1 = leaf layer).
    pub fn layer(&self) -> u32 {
        self.layer
    }

    /// Number of entries currently stored.
    pub fn stored(&self) -> usize {
        self.stored
    }

    /// Maximum number of entries (`b · d²`), whatever the layout.
    pub fn capacity(&self) -> usize {
        self.bucket_entries * self.buckets()
    }

    /// Fraction of entry slots in use (the utilisation rate of Section V-A).
    pub fn utilization(&self) -> f64 {
        self.stored as f64 / self.capacity() as f64
    }

    /// Whether the matrix holds no entries.
    pub fn is_empty(&self) -> bool {
        self.stored == 0
    }

    /// Number of aggregation entries that spilled outside the bucket grid
    /// because every candidate bucket was full (diagnostic; always zero for
    /// leaf usage and zero whenever the parent capacity suffices).
    pub fn spill_len(&self) -> usize {
        self.spill.len()
    }

    /// Total stored weight (bucket entries plus spilled entries).
    pub fn total_weight(&self) -> i64 {
        // Occupied slots only would do, but the zero-empty-slot invariant
        // makes the full dense columns equivalent.
        self.weights.iter().sum::<i64>() + self.spill.iter().map(|e| e.weight).sum::<i64>()
    }

    /// The candidate rows/columns of `addr`: the first `mapping` LCG
    /// addresses, computed iteratively in one pass. Mutating scans use this
    /// direct fill; query paths go through [`ProbeScratch`] so repeated
    /// probes of the same endpoint skip it.
    // LINT-ALLOW(hot-path-panic): `mapping <= MAX_MAPPING` is asserted in
    // `new`, so `out[..mapping]` is always in bounds.
    #[inline]
    fn candidates(&self, addr: u64) -> [u64; MAX_MAPPING] {
        let mut out = [0u64; MAX_MAPPING];
        self.seq
            .fill_sequence(addr, &mut out[..self.mapping as usize]);
        out
    }

    /// Bucket index of `(row, col)`.
    #[inline]
    fn bucket_of(&self, row: u64, col: u64) -> usize {
        (row * self.side + col) as usize
    }

    /// Materialises the slot view of position `p`.
    // LINT-ALLOW(hot-path-panic): callers derive `p` from a bucket's
    // `bucket_range`, which lies inside the columns.
    #[inline]
    fn slot_at(&self, p: usize) -> Slot {
        Slot {
            key: self.keys[p],
            idx: (self.tags[p] >> 32) as u16,
            time_offset: self.tags[p] as u32,
            weight: self.weights[p],
        }
    }

    /// Tries to insert (or accumulate) an entry. Returns `false` if every
    /// candidate bucket is full and no matching entry exists — the signal
    /// that triggers leaf creation in Algorithm 1.
    ///
    /// `time_offset = Some(o)` (leaf matrices) requires matching entries to
    /// carry the same offset; `None` (aggregated matrices) matches on the
    /// fingerprint pair alone.
    ///
    /// Single fused pass over the `r × r` candidate buckets: while scanning
    /// for a matching entry (which may live in any candidate bucket because
    /// earlier ones were full when it first arrived), the first free slot is
    /// recorded; if the scan finds no match, the entry is placed there.
    ///
    /// A frozen matrix is thawed back to the dense layout first.
    // LINT-ALLOW(hot-path-panic): `m <= MAX_MAPPING` bounds the candidate
    // arrays; every slot position comes from `bucket_range` of a
    // `seq`-generated `(row, col) < (side, side)` pair, and a free slot is
    // taken only when `len < bucket_entries`, inside the bucket's dense
    // stride.
    pub fn try_insert(
        &mut self,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        time_offset: Option<u32>,
        weight: i64,
    ) -> bool {
        self.thaw();
        let offset = time_offset.unwrap_or(0);
        let key = pack_key(fp_src, fp_dst);
        // Aggregated matrices match on the index pair alone; leaves also
        // require the exact offset. Tags only use bits below 48, so `!0`
        // compares the offset half exactly.
        let tag_mask = if time_offset.is_none() {
            TAG_IDX_MASK
        } else {
            !0
        };
        let m = self.mapping as usize;
        let rows = self.candidates(addr_src);
        let cols = self.candidates(addr_dst);
        // (bucket index, free slot position, packed index pair) of the first
        // candidate bucket with spare capacity, in (i, j) scan order.
        let mut free: Option<(usize, usize, u16)> = None;
        for (i, &row) in rows[..m].iter().enumerate() {
            for (j, &col) in cols[..m].iter().enumerate() {
                let idx = pack_idx(i, j);
                let tag_pat = pack_tag(idx, offset) & tag_mask;
                let bucket = self.bucket_of(row, col);
                let slots = self.bucket_range(bucket);
                for p in slots.clone() {
                    if self.keys[p] == key && self.tags[p] & tag_mask == tag_pat {
                        self.weights[p] += weight;
                        return true;
                    }
                }
                if free.is_none() && slots.len() < self.bucket_entries {
                    free = Some((bucket, slots.end, idx));
                }
            }
        }
        if let Some((bucket, pos, idx)) = free {
            self.keys[pos] = key;
            self.tags[pos] = pack_tag(idx, offset);
            self.weights[pos] = weight;
            self.lens[bucket] += 1;
            self.stored += 1;
            return true;
        }
        false
    }

    /// Inserts during aggregation: never fails. If every candidate bucket is
    /// full, the entry is kept in an exact spill list keyed by its base
    /// address and fingerprint pair, so aggregation never loses or misplaces
    /// weight (Algorithm 2's no-additional-error guarantee).
    pub fn insert_aggregated(
        &mut self,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        weight: i64,
    ) {
        if self.try_insert(addr_src, addr_dst, fp_src, fp_dst, None, weight) {
            return;
        }
        let addr_src = addr_src % self.side;
        let addr_dst = addr_dst % self.side;
        if let Some(existing) = self.spill.iter_mut().find(|e| {
            e.addr_src == addr_src
                && e.addr_dst == addr_dst
                && e.fp_src == fp_src
                && e.fp_dst == fp_dst
        }) {
            existing.weight += weight;
        } else {
            self.spill.push(SpillEntry {
                addr_src,
                addr_dst,
                fp_src,
                fp_dst,
                weight,
            });
        }
    }

    /// Decrements a previously inserted edge. Matching entries are searched
    /// across all candidate buckets; if `filter` is given, only entries whose
    /// offset lies inside it are decremented. Returns `true` if any entry was
    /// found.
    // LINT-ALLOW(hot-path-panic): same invariants as `try_insert` —
    // candidate arrays bounded by `m <= MAX_MAPPING`, slot ranges from
    // `bucket_range` within the columns.
    pub fn try_delete(
        &mut self,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        filter: OffsetFilter,
        weight: i64,
    ) -> bool {
        let key = pack_key(fp_src, fp_dst);
        let m = self.mapping as usize;
        let rows = self.candidates(addr_src);
        let cols = self.candidates(addr_dst);
        for (i, &row) in rows[..m].iter().enumerate() {
            for (j, &col) in cols[..m].iter().enumerate() {
                let idx_pat = u64::from(pack_idx(i, j)) << 32;
                for p in self.bucket_range(self.bucket_of(row, col)) {
                    if self.keys[p] == key
                        && self.tags[p] & TAG_IDX_MASK == idx_pat
                        && offset_in(self.tags[p] as u32, filter)
                    {
                        self.weights[p] -= weight;
                        return true;
                    }
                }
            }
        }
        let (addr_src, addr_dst) = (addr_src % self.side, addr_dst % self.side);
        if let Some(entry) = self.spill.iter_mut().find(|e| {
            e.addr_src == addr_src
                && e.addr_dst == addr_dst
                && e.fp_src == fp_src
                && e.fp_dst == fp_dst
        }) {
            entry.weight -= weight;
            return true;
        }
        false
    }

    /// Edge query: sums entries matching the fingerprint pair (and offset
    /// filter) over all candidate buckets. Never underestimates.
    pub fn edge_weight(
        &self,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        filter: OffsetFilter,
    ) -> u64 {
        let mut scratch = ProbeScratch::new();
        self.edge_weight_scratch(&mut scratch, addr_src, addr_dst, fp_src, fp_dst, filter)
    }

    /// [`edge_weight`](Self::edge_weight) with a caller-provided
    /// [`ProbeScratch`], so repeated probes (columnar batch sweeps) reuse
    /// cached candidate addresses.
    // LINT-ALLOW(hot-path-panic): `(row, col) < (side, side)` from the LCG
    // sequence, so every `bucket_range` lies inside the columns.
    pub(crate) fn edge_weight_scratch(
        &self,
        scratch: &mut ProbeScratch,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        filter: OffsetFilter,
    ) -> u64 {
        let key = pack_key(fp_src, fp_dst);
        let (lo, hi) = filter_bounds(filter);
        let rows = scratch
            .rows
            .candidates(&self.seq, self.side, self.mapping, addr_src);
        let cols = scratch
            .cols
            .candidates(&self.seq, self.side, self.mapping, addr_dst);
        let mut total = 0i64;
        for (i, &row) in rows.iter().enumerate() {
            for (j, &col) in cols.iter().enumerate() {
                // Bucket-granular probe over the occupied slots only: in a
                // dense bucket the slots past them were never written, so
                // this is the full fixed-length sweep minus guaranteed-zero
                // contributions — identical sums, a third of the loads.
                let slots = self.bucket_range(self.bucket_of(row, col));
                total = total.wrapping_add(sum_matching(
                    &self.keys[slots.clone()],
                    &self.tags[slots.clone()],
                    &self.weights[slots],
                    !0,
                    key,
                    TAG_IDX_MASK,
                    u64::from(pack_idx(i, j)) << 32,
                    lo,
                    hi,
                ));
            }
        }
        let (addr_src, addr_dst) = (addr_src % self.side, addr_dst % self.side);
        total += self
            .spill
            .iter()
            .filter(|e| {
                e.addr_src == addr_src
                    && e.addr_dst == addr_dst
                    && e.fp_src == fp_src
                    && e.fp_dst == fp_dst
            })
            .map(|e| e.weight)
            .sum::<i64>();
        total.max(0) as u64
    }

    /// Source-vertex query: sums entries in the candidate rows whose source
    /// fingerprint (and row index) match (Eq. (2) of the paper, extended to
    /// MMB rows). A frozen row is one contiguous run of occupied slots and is
    /// one [`sum_matching`] sweep; a dense row is a fused scan of each
    /// bucket's occupied slots with the same per-slot predicate.
    pub fn src_weight(&self, addr_src: u64, fp_src: u32, filter: OffsetFilter) -> u64 {
        let mut scratch = ProbeScratch::new();
        self.src_weight_scratch(&mut scratch, addr_src, fp_src, filter)
    }

    /// [`src_weight`](Self::src_weight) with a caller-provided
    /// [`ProbeScratch`].
    // LINT-ALLOW(hot-path-panic): `row < side` from the LCG sequence, so the
    // row's buckets `row·d .. row·d + d` are below `d²` and their
    // `bucket_range`s lie inside the columns.
    pub(crate) fn src_weight_scratch(
        &self,
        scratch: &mut ProbeScratch,
        addr_src: u64,
        fp_src: u32,
        filter: OffsetFilter,
    ) -> u64 {
        let (lo, hi) = filter_bounds(filter);
        let rows = scratch
            .rows
            .candidates(&self.seq, self.side, self.mapping, addr_src);
        let side = self.side as usize;
        let key_pat = u64::from(fp_src) << 32;
        let mut total = 0i64;
        for (i, &row) in rows.iter().enumerate() {
            let tag_pat = (i as u64) << 40;
            let first = row as usize * side;
            if self.is_frozen() {
                // Buckets are stored in order, so the row's occupied slots
                // are one contiguous run.
                let slots = self.bucket_range(first).start..self.bucket_range(first + side - 1).end;
                total = total.wrapping_add(sum_matching(
                    &self.keys[slots.clone()],
                    &self.tags[slots.clone()],
                    &self.weights[slots],
                    KEY_SRC_MASK,
                    key_pat,
                    TAG_SRC_MASK,
                    tag_pat,
                    lo,
                    hi,
                ));
            } else {
                // A dense row's occupied slots are gaps apart: one fused scan
                // of each bucket's occupied slots, with exactly
                // [`sum_matching`]'s per-slot predicate in the same ascending
                // slot order.
                for bucket in first..first + side {
                    for p in self.bucket_range(bucket) {
                        if self.keys[p] & KEY_SRC_MASK == key_pat {
                            let t = self.tags[p];
                            let tag_eq = (t & TAG_SRC_MASK) == tag_pat;
                            let off = t & TAG_OFFSET_MASK;
                            let off_in = (off >= u64::from(lo)) & (off <= u64::from(hi));
                            let lane = ((tag_eq & off_in) as i64).wrapping_neg();
                            total = total.wrapping_add(self.weights[p] & lane);
                        }
                    }
                }
            }
        }
        let addr_src = addr_src % self.side;
        total += self
            .spill
            .iter()
            .filter(|e| e.addr_src == addr_src && e.fp_src == fp_src)
            .map(|e| e.weight)
            .sum::<i64>();
        total.max(0) as u64
    }

    /// Destination-vertex query: sums entries in the candidate columns whose
    /// destination fingerprint (and column index) match. The column sweep is
    /// strided (one bucket per row), so each bucket is a short scan of its
    /// occupied slots with a later stride software-prefetched.
    pub fn dst_weight(&self, addr_dst: u64, fp_dst: u32, filter: OffsetFilter) -> u64 {
        let mut scratch = ProbeScratch::new();
        self.dst_weight_scratch(&mut scratch, addr_dst, fp_dst, filter)
    }

    /// [`dst_weight`](Self::dst_weight) with a caller-provided
    /// [`ProbeScratch`].
    // LINT-ALLOW(hot-path-panic): the strided walk starts at `col < side`
    // and takes `side` steps of `side` buckets, so every bucket is below
    // `d²` and its `bucket_range` lies inside the columns.
    pub(crate) fn dst_weight_scratch(
        &self,
        scratch: &mut ProbeScratch,
        addr_dst: u64,
        fp_dst: u32,
        filter: OffsetFilter,
    ) -> u64 {
        let (lo, hi) = filter_bounds(filter);
        let side = self.side as usize;
        let cols = scratch
            .cols
            .candidates(&self.seq, self.side, self.mapping, addr_dst);
        let mut total = 0i64;
        for (j, &col) in cols.iter().enumerate() {
            let tag_pat = (j as u64) << 32;
            for bucket in (col as usize..self.buckets()).step_by(side) {
                // Hide the strided-miss latency of the next few buckets:
                // their first slots when dense, their offsets when frozen
                // (finding a frozen bucket's slots would itself stall on
                // the offset load).
                let ahead = bucket + 4 * side;
                if self.is_frozen() {
                    prefetch_read_data(&self.offsets, ahead);
                } else {
                    prefetch_read_data(&self.keys, ahead * self.bucket_entries);
                }
                let slots = self.bucket_range(bucket);
                total = total.wrapping_add(sum_matching(
                    &self.keys[slots.clone()],
                    &self.tags[slots.clone()],
                    &self.weights[slots],
                    KEY_DST_MASK,
                    u64::from(fp_dst),
                    TAG_DST_MASK,
                    tag_pat,
                    lo,
                    hi,
                ));
            }
        }
        let addr_dst = addr_dst % self.side;
        total += self
            .spill
            .iter()
            .filter(|e| e.addr_dst == addr_dst && e.fp_dst == fp_dst)
            .map(|e| e.weight)
            .sum::<i64>();
        total.max(0) as u64
    }

    /// Software-prefetches the first slot of `bucket` when dense, or its
    /// bucket offsets when frozen (loading the offset to find the slot would
    /// itself stall on the miss being hidden).
    #[inline]
    fn prefetch_bucket(&self, bucket: usize) {
        if self.is_frozen() {
            prefetch_read_data(&self.offsets, bucket);
        } else {
            let start = bucket * self.bucket_entries;
            prefetch_read_data(&self.keys, start);
            prefetch_read_data(&self.weights, start);
        }
    }

    /// Software-prefetches the first candidate bucket an edge probe for
    /// `(addr_src, addr_dst)` will touch (the LCG sequence starts at the
    /// base address itself). Used by the columnar batch evaluator to issue
    /// probes a few positions ahead of the sweep.
    #[inline]
    pub(crate) fn prefetch_edge_probe(&self, addr_src: u64, addr_dst: u64) {
        self.prefetch_bucket(self.bucket_of(addr_src % self.side, addr_dst % self.side));
    }

    /// Software-prefetches the start of the first candidate row a
    /// source-vertex probe for `addr_src` will sweep.
    #[inline]
    pub(crate) fn prefetch_row_probe(&self, addr_src: u64) {
        self.prefetch_bucket(self.bucket_of(addr_src % self.side, 0));
    }

    /// Software-prefetches the first bucket of the first candidate column a
    /// destination-vertex probe for `addr_dst` will sweep.
    #[inline]
    pub(crate) fn prefetch_col_probe(&self, addr_dst: u64) {
        self.prefetch_bucket(self.bucket_of(0, addr_dst % self.side));
    }

    /// Iterates over occupied slots, in bucket-major slot order, together
    /// with their bucket index.
    pub(crate) fn occupied_slots(&self) -> impl Iterator<Item = (usize, Slot)> + '_ {
        (0..self.buckets()).flat_map(move |bucket| {
            self.bucket_range(bucket)
                .map(move |p| (bucket, self.slot_at(p)))
        })
    }

    /// Iterates over all stored entries together with the row/column of the
    /// bucket holding them (used by aggregation).
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64, Entry)> + '_ {
        self.occupied_slots().map(move |(bucket, slot)| {
            let row = bucket as u64 / self.side;
            let col = bucket as u64 % self.side;
            let entry = Entry {
                fp_src: (slot.key >> 32) as u32,
                fp_dst: slot.key as u32,
                idx_src: (slot.idx >> 8) as u8,
                idx_dst: slot.idx as u8,
                time_offset: slot.time_offset,
                weight: slot.weight,
            };
            (row, col, entry)
        })
    }

    /// The LCG address sequence used by this matrix (needed to map stored
    /// bucket positions back to base addresses during aggregation).
    pub fn address_sequence(&self) -> AddressSequence {
        self.seq
    }

    /// Memory footprint in bytes: the allocated capacity of every column,
    /// bucket index and spill list, plus the struct itself. A dense matrix
    /// holds all `b · d²` slots whatever its fill level; a frozen one holds
    /// only its occupied slots plus `d² + 1` bucket offsets.
    pub fn space_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.tags.capacity() * std::mem::size_of::<u64>()
            + self.weights.capacity() * std::mem::size_of::<i64>()
            + self.lens.capacity()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.spill.capacity() * std::mem::size_of::<SpillEntry>()
            + std::mem::size_of::<Self>()
    }

    // --- snapshot support (crate-internal) --------------------------------
    //
    // The snapshot codec (`crate::snapshot`) persists a matrix in one shape
    // whatever its layout: the per-bucket occupancy array plus only the
    // occupied slots as materialised `Slot` records, in bucket-major order,
    // and the spill list. That is exactly the frozen layout, so a restore
    // builds a frozen matrix directly, with no `b · d²` allocation.

    /// Number of MMB mapping addresses per vertex (`r`).
    pub(crate) fn mapping(&self) -> u32 {
        self.mapping
    }

    /// Number of entry slots per bucket (`b`).
    pub(crate) fn bucket_entries(&self) -> usize {
        self.bucket_entries
    }

    /// The per-bucket occupancy array, indexed by `row · d + col`: borrowed
    /// when dense, computed from the bucket offsets when frozen.
    pub(crate) fn occupancy(&self) -> Cow<'_, [u8]> {
        if self.is_frozen() {
            Cow::Owned(
                (0..self.buckets())
                    .map(|bucket| self.bucket_range(bucket).len() as u8)
                    .collect(),
            )
        } else {
            Cow::Borrowed(&self.lens)
        }
    }

    /// The spill list, in insertion order.
    pub(crate) fn spill_entries(&self) -> &[SpillEntry] {
        &self.spill
    }

    /// Builds a frozen matrix from persisted state: the geometry,
    /// per-bucket occupancy, the occupied slots in bucket-major order
    /// (`occupied.len()` must equal the sum of `lens`), and the spill list.
    /// The geometry must satisfy [`CompressedMatrix::new`]'s bounds;
    /// a bucket count or slot count mismatch, or an occupancy count
    /// exceeding `bucket_entries`, is rejected so a corrupt snapshot can
    /// never build a structurally inconsistent matrix.
    pub(crate) fn restore_frozen(
        side: u64,
        layer: u32,
        bucket_entries: usize,
        mapping: u32,
        lens: &[u8],
        occupied: &[Slot],
        spill: Vec<SpillEntry>,
    ) -> Result<Self, String> {
        let mut m = Self::unallocated(side, layer, bucket_entries, mapping);
        if lens.len() != m.buckets() {
            return Err(format!(
                "bucket count mismatch: expected {}, got {}",
                m.buckets(),
                lens.len()
            ));
        }
        if let Some(bad) = lens.iter().find(|&&l| l as usize > bucket_entries) {
            return Err(format!(
                "bucket occupancy {bad} exceeds bucket_entries {bucket_entries}"
            ));
        }
        let total: usize = lens.iter().map(|&l| l as usize).sum();
        if total != occupied.len() {
            return Err(format!(
                "occupied slot count mismatch: lens sum to {total}, got {} slots",
                occupied.len()
            ));
        }
        if u32::try_from(total).is_err() {
            return Err(format!(
                "{total} occupied slots overflow the u32 bucket offsets"
            ));
        }
        m.offsets.reserve_exact(lens.len() + 1);
        m.offsets.push(0);
        let mut next = 0u32;
        for &len in lens {
            next += u32::from(len);
            m.offsets.push(next);
        }
        m.keys = occupied.iter().map(|slot| slot.key).collect();
        m.tags = occupied
            .iter()
            .map(|slot| pack_tag(slot.idx, slot.time_offset))
            .collect();
        m.weights = occupied.iter().map(|slot| slot.weight).collect();
        m.spill = spill;
        m.spill.shrink_to_fit();
        m.stored = total;
        Ok(m)
    }
}

#[inline]
fn offset_in(offset: u32, filter: OffsetFilter) -> bool {
    match filter {
        None => true,
        Some((lo, hi)) => offset >= lo && offset <= hi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> CompressedMatrix {
        CompressedMatrix::new(8, 1, 3, 4)
    }

    #[test]
    fn insert_and_edge_query() {
        let mut m = matrix();
        assert!(m.try_insert(1, 2, 100, 200, Some(5), 7));
        assert_eq!(m.edge_weight(1, 2, 100, 200, None), 7);
        assert_eq!(m.edge_weight(1, 2, 100, 200, Some((0, 10))), 7);
        assert_eq!(m.edge_weight(1, 2, 100, 200, Some((6, 10))), 0);
    }

    #[test]
    fn same_edge_same_offset_accumulates() {
        let mut m = matrix();
        assert!(m.try_insert(1, 2, 100, 200, Some(5), 3));
        assert!(m.try_insert(1, 2, 100, 200, Some(5), 4));
        assert_eq!(m.stored(), 1);
        assert_eq!(m.edge_weight(1, 2, 100, 200, None), 7);
    }

    #[test]
    fn same_edge_different_offset_uses_two_entries() {
        let mut m = matrix();
        assert!(m.try_insert(1, 2, 100, 200, Some(5), 3));
        assert!(m.try_insert(1, 2, 100, 200, Some(9), 4));
        assert_eq!(m.stored(), 2);
        assert_eq!(m.edge_weight(1, 2, 100, 200, Some((0, 6))), 3);
        assert_eq!(m.edge_weight(1, 2, 100, 200, Some((6, 9))), 4);
        assert_eq!(m.edge_weight(1, 2, 100, 200, None), 7);
    }

    #[test]
    fn aggregated_mode_ignores_offsets() {
        let mut m = CompressedMatrix::new(8, 2, 3, 4);
        assert!(m.try_insert(1, 2, 10, 20, None, 3));
        assert!(m.try_insert(1, 2, 10, 20, None, 4));
        assert_eq!(m.stored(), 1);
        assert_eq!(m.edge_weight(1, 2, 10, 20, None), 7);
    }

    #[test]
    fn distinct_fingerprints_do_not_mix() {
        let mut m = matrix();
        assert!(m.try_insert(1, 2, 100, 200, Some(0), 5));
        assert!(m.try_insert(1, 2, 101, 200, Some(0), 9));
        assert_eq!(m.edge_weight(1, 2, 100, 200, None), 5);
        assert_eq!(m.edge_weight(1, 2, 101, 200, None), 9);
    }

    #[test]
    fn insertion_fails_when_all_candidates_full() {
        // 2×2 matrix, 1 entry per bucket, 1 mapping address: capacity 4 but a
        // single (addr, addr) pair only ever sees one bucket.
        let mut m = CompressedMatrix::new(2, 1, 1, 1);
        assert!(m.try_insert(0, 0, 1, 1, Some(0), 1));
        assert!(!m.try_insert(0, 0, 2, 2, Some(0), 1), "bucket is full");
    }

    #[test]
    fn mmb_increases_effective_capacity() {
        let mut without = CompressedMatrix::new(4, 1, 1, 1);
        let mut with = CompressedMatrix::new(4, 1, 1, 4);
        let mut placed_without = 0;
        let mut placed_with = 0;
        for k in 0..64u32 {
            // All edges share the same base address pair: the worst case MMB
            // is designed for.
            if without.try_insert(1, 1, k, k, Some(0), 1) {
                placed_without += 1;
            }
            if with.try_insert(1, 1, k, k, Some(0), 1) {
                placed_with += 1;
            }
        }
        assert!(placed_with > placed_without);
    }

    #[test]
    fn vertex_queries_sum_rows_and_columns() {
        let mut m = matrix();
        m.try_insert(3, 1, 10, 21, Some(0), 2);
        m.try_insert(3, 2, 10, 22, Some(0), 3);
        m.try_insert(4, 1, 11, 21, Some(0), 5);
        assert_eq!(m.src_weight(3, 10, None), 5);
        assert_eq!(m.dst_weight(1, 21, None), 7);
        assert_eq!(m.src_weight(4, 11, None), 5);
    }

    #[test]
    fn vertex_query_respects_offset_filter() {
        let mut m = matrix();
        m.try_insert(3, 1, 10, 21, Some(2), 2);
        m.try_insert(3, 2, 10, 22, Some(8), 3);
        assert_eq!(m.src_weight(3, 10, Some((0, 4))), 2);
        assert_eq!(m.src_weight(3, 10, Some((5, 9))), 3);
    }

    #[test]
    fn delete_decrements_weight() {
        let mut m = matrix();
        m.try_insert(1, 2, 100, 200, Some(5), 7);
        assert!(m.try_delete(1, 2, 100, 200, Some((5, 5)), 3));
        assert_eq!(m.edge_weight(1, 2, 100, 200, None), 4);
        assert!(!m.try_delete(1, 2, 100, 200, Some((9, 9)), 1));
    }

    #[test]
    fn insert_aggregated_never_fails_or_loses_attribution() {
        let mut m = CompressedMatrix::new(2, 2, 1, 1);
        for k in 0..20u32 {
            m.insert_aggregated(0, 0, k, k, 1);
        }
        assert!(m.spill_len() > 0, "tiny aggregate must spill");
        assert_eq!(m.total_weight(), 20);
        // Every spilled edge remains individually queryable: no weight is
        // credited to the wrong fingerprint.
        for k in 0..20u32 {
            assert_eq!(m.edge_weight(0, 0, k, k, None), 1);
        }
        // Vertex queries see spilled entries too.
        assert_eq!(m.src_weight(0, 5, None), 1);
        assert_eq!(m.dst_weight(0, 7, None), 1);
        // Deleting a spilled entry works.
        assert!(m.try_delete(0, 0, 9, 9, None, 1));
        assert_eq!(m.edge_weight(0, 0, 9, 9, None), 0);
    }

    #[test]
    fn entries_iterator_reports_positions() {
        let mut m = matrix();
        m.try_insert(1, 2, 100, 200, Some(0), 7);
        let collected: Vec<_> = m.entries().collect();
        assert_eq!(collected.len(), 1);
        let (row, col, e) = collected[0];
        assert!(row < 8 && col < 8);
        assert_eq!(e.weight, 7);
    }

    #[test]
    fn utilization_and_space() {
        let mut m = matrix();
        assert_eq!(m.utilization(), 0.0);
        m.try_insert(1, 2, 1, 2, Some(0), 1);
        assert!(m.utilization() > 0.0);
        assert!(m.space_bytes() > 0);
        assert_eq!(m.capacity(), 3 * 64);
        assert_eq!(m.side(), 8);
        assert_eq!(m.layer(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn packed_key_preserves_full_fingerprint_width() {
        // Fingerprints that agree on their low bits but differ in the top
        // bits must stay distinct: the packed key keeps all 32 bits of each
        // fingerprint.
        let mut m = matrix();
        let (lo, hi) = (0x0000_1234u32, 0xFFF0_1234u32);
        assert!(m.try_insert(1, 2, lo, lo, Some(0), 3));
        assert!(m.try_insert(1, 2, hi, lo, Some(0), 5));
        assert!(m.try_insert(1, 2, lo, hi, Some(0), 7));
        assert_eq!(m.edge_weight(1, 2, lo, lo, None), 3);
        assert_eq!(m.edge_weight(1, 2, hi, lo, None), 5);
        assert_eq!(m.edge_weight(1, 2, lo, hi, None), 7);
        assert_eq!(m.stored(), 3);
    }

    #[test]
    fn entries_round_trip_packed_fields() {
        let mut m = matrix();
        m.try_insert(5, 6, 0xDEAD_BEEF, 0xCAFE_F00D, Some(42), 11);
        let (_, _, e) = m.entries().next().expect("one entry");
        assert_eq!(e.fp_src, 0xDEAD_BEEF);
        assert_eq!(e.fp_dst, 0xCAFE_F00D);
        assert_eq!(e.time_offset, 42);
        assert_eq!(e.weight, 11);
        assert!(u32::from(e.idx_src) < 4 && u32::from(e.idx_dst) < 4);
    }

    #[test]
    fn slab_layout_is_fixed_stride() {
        // Filling one bucket to capacity must not affect neighbours: the
        // slab gives every bucket exactly `b` slots.
        let mut m = CompressedMatrix::new(4, 1, 2, 1);
        // Same address pair → same single candidate bucket (mapping = 1).
        assert!(m.try_insert(1, 1, 1, 1, Some(0), 1));
        assert!(m.try_insert(1, 1, 2, 2, Some(0), 1));
        assert!(!m.try_insert(1, 1, 3, 3, Some(0), 1), "bucket full");
        // A different address pair still inserts fine.
        assert!(m.try_insert(2, 2, 4, 4, Some(0), 1));
        assert_eq!(m.stored(), 3);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One scratch threaded through many probes (the columnar pattern)
        // must answer identically to a fresh candidate fill per probe.
        let mut m = matrix();
        for k in 0..200u32 {
            m.try_insert(
                u64::from(k % 8),
                u64::from((k * 3) % 8),
                k,
                k.wrapping_mul(7),
                Some(k % 50),
                1 + i64::from(k % 5),
            );
        }
        let mut scratch = ProbeScratch::new();
        for k in 0..200u32 {
            let (a_s, a_d) = (u64::from(k % 8), u64::from((k * 3) % 8));
            let (f_s, f_d) = (k, k.wrapping_mul(7));
            assert_eq!(
                m.edge_weight_scratch(&mut scratch, a_s, a_d, f_s, f_d, Some((0, 30))),
                m.edge_weight(a_s, a_d, f_s, f_d, Some((0, 30))),
            );
            assert_eq!(
                m.src_weight_scratch(&mut scratch, a_s, f_s, None),
                m.src_weight(a_s, f_s, None),
            );
            assert_eq!(
                m.dst_weight_scratch(&mut scratch, a_d, f_d, None),
                m.dst_weight(a_d, f_d, None),
            );
        }
    }

    #[test]
    fn negative_net_weight_entries_still_clamp_at_zero() {
        // Over-deletion drives a slot's weight negative; queries clamp the
        // *total* at zero exactly as the row-wise reference did.
        let mut m = matrix();
        m.try_insert(1, 2, 100, 200, Some(5), 3);
        assert!(m.try_delete(1, 2, 100, 200, None, 10));
        assert_eq!(m.edge_weight(1, 2, 100, 200, None), 0);
        assert_eq!(m.src_weight(1, 100, None), 0);
        assert_eq!(m.dst_weight(2, 200, None), 0);
    }

    #[test]
    fn prefetch_helpers_are_callable_at_any_address() {
        // Prefetch is a hint: helpers must be safe for any address value,
        // in-range or not (they reduce modulo the side).
        let m = matrix();
        m.prefetch_edge_probe(0, 0);
        m.prefetch_edge_probe(u64::MAX, u64::MAX);
        m.prefetch_row_probe(7);
        m.prefetch_col_probe(u64::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "mapping must be in")]
    fn mapping_above_max_rejected() {
        let _ = CompressedMatrix::new(8, 1, 3, MAX_MAPPING as u32 + 1);
    }

    #[test]
    #[should_panic(expected = "bucket_entries must be in")]
    fn oversized_bucket_rejected() {
        let _ = CompressedMatrix::new(8, 1, 256, 4);
    }
}
