//! GSS (Gou et al., ICDE'19): "Fast and accurate graph stream summarization".
//!
//! GSS improves on TCM by storing a *fingerprint* of the edge in each matrix
//! cell so that colliding edges can be told apart. Each vertex hash is split
//! into an address part (row/column) and a fingerprint part; square hashing
//! gives every edge `r × r` candidate cells. An edge is stored in the first
//! candidate cell that is empty or already holds its fingerprint pair; if all
//! candidates are occupied by other edges, the edge spills into an
//! adjacency-list buffer keyed by the exact fingerprint pair. Queries check
//! the candidate cells and the buffer, so GSS only errs when two distinct
//! edges share both the address *and* the fingerprint pair.
//!
//! # Storage layout
//!
//! Like the HIGGS compressed matrix, the cell grid is stored
//! structure-of-arrays: parallel columns of packed fingerprint keys
//! (`fp_src` high half, `fp_dst` low half), packed index tags (index pair in
//! bits 32..48, mirroring the HIGGS tag layout with a zero offset half), and
//! signed weights, plus an occupancy bitmap consulted only by insertion.
//! Cells are never vacated once occupied and unoccupied cells stay all-zero,
//! so queries never consult the bitmap: a source-vertex query sweeps each
//! whole candidate row with the key-first [`higgs_common::sum_matching`]
//! loop, and a destination-vertex query walks each candidate column with a
//! masked compare per cell. An empty cell can at worst match an all-zero
//! pattern and then contributes zero weight, so both sums equal an
//! occupancy-checked scan.

use crate::GraphSketch;
use higgs_common::hashing::{vertex_hash, AddressSequence};
use higgs_common::simd::{prefetch_read_data, sum_matching};
use std::collections::HashMap;

/// Key bits holding the source fingerprint.
const KEY_SRC_MASK: u64 = 0xFFFF_FFFF_0000_0000;
/// Key bits holding the destination fingerprint.
const KEY_DST_MASK: u64 = 0x0000_0000_FFFF_FFFF;
/// Tag bits holding the source half of the index pair.
const TAG_SRC_MASK: u64 = 0xFF00_0000_0000;
/// Tag bits holding the destination half of the index pair.
const TAG_DST_MASK: u64 = 0x00FF_0000_0000;

#[inline]
fn pack_key(fp_src: u32, fp_dst: u32) -> u64 {
    (u64::from(fp_src) << 32) | u64::from(fp_dst)
}

#[inline]
fn pack_tag(idx_src: u8, idx_dst: u8) -> u64 {
    (u64::from(idx_src) << 40) | (u64::from(idx_dst) << 32)
}

/// Configuration of a [`Gss`] sketch.
#[derive(Clone, Copy, Debug)]
pub struct GssConfig {
    /// Side length of the square matrix (power of two).
    pub side: usize,
    /// Fingerprint length in bits (≤ 32 per endpoint).
    pub fingerprint_bits: u32,
    /// Number of candidate addresses per endpoint (square hashing width).
    pub candidates: u32,
}

impl Default for GssConfig {
    fn default() -> Self {
        Self {
            side: 256,
            fingerprint_bits: 16,
            candidates: 4,
        }
    }
}

/// The GSS graph sketch: fingerprinted matrix + adjacency-list buffer.
#[derive(Clone, Debug)]
pub struct Gss {
    config: GssConfig,
    /// Packed fingerprint pairs, one per cell, row-major. Parallel to
    /// `tags`, `weights`, and `occupied`.
    keys: Vec<u64>,
    /// Packed square-hashing index pairs (bits 32..48; low half always 0).
    tags: Vec<u64>,
    /// Signed cell weights; zero for every unoccupied cell.
    weights: Vec<i64>,
    /// Occupancy bitmap: consulted only by insertion (queries rely on the
    /// all-zero-when-empty invariant instead).
    occupied: Vec<bool>,
    seq: AddressSequence,
    /// Spill buffer: exact fingerprint-pair keyed adjacency list.
    buffer: HashMap<(u64, u64), i64>,
}

impl Gss {
    /// Creates a GSS sketch with the given configuration.
    pub fn new(config: GssConfig) -> Self {
        assert!(config.side.is_power_of_two(), "side must be a power of two");
        assert!(config.fingerprint_bits >= 1 && config.fingerprint_bits <= 32);
        assert!(config.candidates >= 1);
        let cells = config.side * config.side;
        Self {
            config,
            keys: vec![0u64; cells],
            tags: vec![0u64; cells],
            weights: vec![0i64; cells],
            occupied: vec![false; cells],
            seq: AddressSequence::new(config.side as u64),
            buffer: HashMap::new(),
        }
    }

    /// Creates a GSS sketch with the default configuration scaled to a side
    /// length.
    pub fn with_side(side: usize) -> Self {
        Self::new(GssConfig {
            side,
            ..Default::default()
        })
    }

    /// Number of entries that spilled into the adjacency-list buffer.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// Fraction of matrix cells that are occupied.
    pub fn utilization(&self) -> f64 {
        let used = self.occupied.iter().filter(|&&o| o).count();
        used as f64 / self.occupied.len() as f64
    }

    #[inline]
    fn split(&self, key: u64) -> (u64, u32) {
        let h = vertex_hash(key, 0x655E_D00D);
        let fp_mask = (1u64 << self.config.fingerprint_bits) - 1;
        let fp = (h & fp_mask) as u32;
        let addr = (h >> self.config.fingerprint_bits) % self.config.side as u64;
        (addr, fp)
    }

    #[inline]
    fn cell_index(&self, row: u64, col: u64) -> usize {
        row as usize * self.config.side + col as usize
    }

    // LINT-ALLOW(hot-path-panic): `cell_index` maps (row, col) pairs drawn
    // from `seq.iter` (always `< side`) into the `side * side` slabs, so
    // every `idx` is in bounds by construction.
    fn add(&mut self, src_key: u64, dst_key: u64, delta: i64) {
        let (src_addr, src_fp) = self.split(src_key);
        let (dst_addr, dst_fp) = self.split(dst_key);
        let r = self.config.candidates as usize;
        let key = pack_key(src_fp, dst_fp);
        // Square hashing: try the r×r candidate positions in a fixed order,
        // walking the LCG iteratively (one step per candidate) instead of
        // recomputing each address from scratch.
        for (i, row) in self.seq.iter(src_addr).take(r).enumerate() {
            for (j, col) in self.seq.iter(dst_addr).take(r).enumerate() {
                let tag = pack_tag(i as u8, j as u8);
                let idx = self.cell_index(row, col);
                if self.occupied[idx] && self.keys[idx] == key && self.tags[idx] == tag {
                    self.weights[idx] += delta;
                    return;
                }
                if !self.occupied[idx] && delta > 0 {
                    self.occupied[idx] = true;
                    self.keys[idx] = key;
                    self.tags[idx] = tag;
                    self.weights[idx] = delta;
                    return;
                }
            }
        }
        // All candidates hold other edges: spill to the adjacency buffer.
        let entry = self.buffer.entry((src_key, dst_key)).or_insert(0);
        *entry += delta;
        if *entry <= 0 {
            self.buffer.remove(&(src_key, dst_key));
        }
    }
}

impl GraphSketch for Gss {
    fn insert(&mut self, src_key: u64, dst_key: u64, weight: u64) {
        self.add(src_key, dst_key, weight as i64);
    }

    fn delete(&mut self, src_key: u64, dst_key: u64, weight: u64) {
        self.add(src_key, dst_key, -(weight as i64));
    }

    // LINT-ALLOW(hot-path-panic): `cell_index` maps (row, col) pairs drawn
    // from `seq.iter` (always `< side`) into the `side * side` slabs, so
    // every `idx` is in bounds by construction.
    fn edge_weight(&self, src_key: u64, dst_key: u64) -> u64 {
        let (src_addr, src_fp) = self.split(src_key);
        let (dst_addr, dst_fp) = self.split(dst_key);
        let r = self.config.candidates as usize;
        let key = pack_key(src_fp, dst_fp);
        let mut total = 0i64;
        // r×r scattered single-cell probes: a scalar masked compare per cell
        // (empty cells hold zero weight, so no occupancy check is needed).
        for (i, row) in self.seq.iter(src_addr).take(r).enumerate() {
            for (j, col) in self.seq.iter(dst_addr).take(r).enumerate() {
                let idx = self.cell_index(row, col);
                let matches = self.keys[idx] == key && self.tags[idx] == pack_tag(i as u8, j as u8);
                total += self.weights[idx] & (matches as i64).wrapping_neg();
            }
        }
        total += self.buffer.get(&(src_key, dst_key)).copied().unwrap_or(0);
        total.max(0) as u64
    }

    // LINT-ALLOW(hot-path-panic): `row < side` from `seq.iter`, so the row
    // slice `base..base + side` stays within the `side * side` slabs.
    fn src_weight(&self, src_key: u64) -> u64 {
        let (src_addr, src_fp) = self.split(src_key);
        let r = self.config.candidates as usize;
        let side = self.config.side;
        let mut total = 0i64;
        // Each candidate row is one contiguous fixed-length sweep.
        for (i, row) in self.seq.iter(src_addr).take(r).enumerate() {
            let base = row as usize * side;
            total = total.wrapping_add(sum_matching(
                &self.keys[base..base + side],
                &self.tags[base..base + side],
                &self.weights[base..base + side],
                KEY_SRC_MASK,
                u64::from(src_fp) << 32,
                TAG_SRC_MASK,
                (i as u64) << 40,
                0,
                u32::MAX,
            ));
        }
        total += self
            .buffer
            .iter()
            .filter(|&(&(s, _), _)| s == src_key)
            .map(|(_, &w)| w)
            .sum::<i64>();
        total.max(0) as u64
    }

    // LINT-ALLOW(hot-path-panic): the strided walk starts at `col < side`
    // and takes exactly `side` steps of `side`, ending below `side * side`;
    // `prefetch_read_data` bounds-checks its own hint index internally.
    fn dst_weight(&self, dst_key: u64) -> u64 {
        let (dst_addr, dst_fp) = self.split(dst_key);
        let r = self.config.candidates as usize;
        let side = self.config.side;
        let mut total = 0i64;
        // Strided column sweep: one cell per row. Prefetch a few strides
        // ahead to hide the per-row cache miss, and fold each cell with a
        // branchless masked compare.
        for (j, col) in self.seq.iter(dst_addr).take(r).enumerate() {
            let key_pat = u64::from(dst_fp);
            let tag_pat = (j as u64) << 32;
            let mut idx = col as usize;
            for _row in 0..side {
                prefetch_read_data(&self.keys, idx + 4 * side);
                prefetch_read_data(&self.weights, idx + 4 * side);
                let matches = self.keys[idx] & KEY_DST_MASK == key_pat
                    && self.tags[idx] & TAG_DST_MASK == tag_pat;
                total += self.weights[idx] & (matches as i64).wrapping_neg();
                idx += side;
            }
        }
        total += self
            .buffer
            .iter()
            .filter(|&(&(_, d), _)| d == dst_key)
            .map(|(_, &w)| w)
            .sum::<i64>();
        total.max(0) as u64
    }

    fn space_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.tags.capacity() * std::mem::size_of::<u64>()
            + self.weights.capacity() * std::mem::size_of::<i64>()
            + self.occupied.capacity()
            + self.buffer.capacity() * std::mem::size_of::<((u64, u64), i64)>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_edge_query() {
        let mut g = Gss::with_side(64);
        g.insert(10, 20, 3);
        g.insert(10, 20, 4);
        assert_eq!(g.edge_weight(10, 20), 7);
    }

    #[test]
    fn fingerprints_separate_colliding_edges() {
        // With a tiny matrix almost everything collides on addresses, but
        // fingerprints keep edges distinguishable far better than TCM.
        let mut g = Gss::new(GssConfig {
            side: 8,
            fingerprint_bits: 24,
            candidates: 4,
        });
        let mut truth = std::collections::HashMap::new();
        for i in 0..500u64 {
            let (s, d) = (i % 40, (i * 7) % 40);
            g.insert(s, d, 1);
            *truth.entry((s, d)).or_insert(0u64) += 1;
        }
        let mut exact_hits = 0;
        for (&(s, d), &w) in &truth {
            let est = g.edge_weight(s, d);
            assert!(est >= w, "GSS must not underestimate");
            if est == w {
                exact_hits += 1;
            }
        }
        assert!(
            exact_hits as f64 / truth.len() as f64 > 0.95,
            "GSS should answer nearly all edge queries exactly"
        );
    }

    #[test]
    fn buffer_absorbs_overflow() {
        let mut g = Gss::new(GssConfig {
            side: 2,
            fingerprint_bits: 16,
            candidates: 1,
        });
        for i in 0..100u64 {
            g.insert(i, i + 1000, 1);
        }
        assert!(g.buffer_len() > 0, "tiny matrix must overflow to buffer");
        for i in 0..100u64 {
            assert!(g.edge_weight(i, i + 1000) >= 1);
        }
    }

    #[test]
    fn vertex_queries_aggregate() {
        let mut g = Gss::with_side(128);
        g.insert(1, 2, 5);
        g.insert(1, 3, 2);
        g.insert(9, 2, 1);
        assert!(g.src_weight(1) >= 7);
        assert!(g.dst_weight(2) >= 6);
    }

    #[test]
    fn delete_reverses_insert() {
        let mut g = Gss::with_side(64);
        g.insert(3, 4, 9);
        g.delete(3, 4, 9);
        assert_eq!(g.edge_weight(3, 4), 0);
    }

    #[test]
    fn delete_from_buffer() {
        let mut g = Gss::new(GssConfig {
            side: 2,
            fingerprint_bits: 8,
            candidates: 1,
        });
        for i in 0..50u64 {
            g.insert(i, i + 500, 2);
        }
        let before = g.buffer_len();
        assert!(before > 0);
        // Delete one buffered edge entirely.
        g.delete(49, 549, 2);
        assert!(g.edge_weight(49, 549) == 0 || g.buffer_len() <= before);
    }

    #[test]
    fn utilization_reflects_occupancy() {
        let mut g = Gss::with_side(16);
        assert_eq!(g.utilization(), 0.0);
        g.insert(1, 2, 1);
        assert!(g.utilization() > 0.0);
    }

    #[test]
    fn space_accounts_for_buffer() {
        let g = Gss::with_side(64);
        assert!(g.space_bytes() >= 64 * 64 * 17);
    }

    #[test]
    fn vertex_sweeps_match_per_cell_reference() {
        // The fixed-length SoA sweeps must agree exactly with a scalar
        // occupancy-checked walk over the same grid — including negative
        // cell weights left behind by over-deletion.
        let mut g = Gss::new(GssConfig {
            side: 16,
            fingerprint_bits: 12,
            candidates: 3,
        });
        for i in 0..400u64 {
            g.insert(i % 37, (i * 11) % 37, 1 + i % 4);
        }
        for i in 0..40u64 {
            g.delete(i % 37, (i * 11) % 37, 3);
        }
        for v in 0..37u64 {
            let (addr, fp) = g.split(v);
            let r = g.config.candidates as usize;
            let mut src_ref = 0i64;
            for (i, row) in g.seq.iter(addr).take(r).enumerate() {
                let base = row as usize * g.config.side;
                for idx in base..base + g.config.side {
                    if g.occupied[idx]
                        && (g.keys[idx] >> 32) as u32 == fp
                        && g.tags[idx] >> 40 == i as u64
                    {
                        src_ref += g.weights[idx];
                    }
                }
            }
            src_ref += g
                .buffer
                .iter()
                .filter(|&(&(s, _), _)| s == v)
                .map(|(_, &w)| w)
                .sum::<i64>();
            assert_eq!(g.src_weight(v), src_ref.max(0) as u64, "src v={v}");

            let mut dst_ref = 0i64;
            for (j, col) in g.seq.iter(addr).take(r).enumerate() {
                for row in 0..g.config.side {
                    let idx = row * g.config.side + col as usize;
                    if g.occupied[idx]
                        && g.keys[idx] as u32 == fp
                        && (g.tags[idx] >> 32) & 0xFF == j as u64
                    {
                        dst_ref += g.weights[idx];
                    }
                }
            }
            dst_ref += g
                .buffer
                .iter()
                .filter(|&(&(_, d), _)| d == v)
                .map(|(_, &w)| w)
                .sum::<i64>();
            assert_eq!(g.dst_weight(v), dst_ref.max(0) as u64, "dst v={v}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_side_panics() {
        let _ = Gss::with_side(100);
    }
}
