//! Per-worker query scratch: the arena-backed buffers behind the
//! zero-allocation `RowSel` hot path.
//!
//! A [`QueryScratch`] bundles everything one serving worker reuses across
//! queries: a [`KernelArena`] for the kernel layer's transient buffers
//! (`Dcp` digit matrices, wide iCRT coefficients) and the flat `RowSel`
//! accumulator matrix. After the first query at a given geometry the
//! buffers are warm and [`crate::PirServer::row_sel_into`] performs **no
//! heap allocations at all** (enforced by the `rowsel_alloc` integration
//! test with a counting global allocator).
//!
//! Accumulator layout — row-major so worker threads can split disjoint
//! row chunks with `chunks_mut`, query-minor so one streamed database
//! record serves every query of a batch before the next record is
//! touched:
//!
//! ```text
//! acc: | row 0: q0.a[k·n] q0.b[k·n] q1.a … | row 1: … | … | row R-1: … |
//!        └──────── queries × 2·k·n words ───────┘
//! ```

use ive_he::BfvCiphertext;
use ive_math::arena::KernelArena;
use ive_math::rns::{Form, RingContext, RnsPoly};

/// Reusable per-worker buffers for the query pipeline.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Kernel-layer scratch (digit matrices, wide coefficients, ColTor
    /// temporaries). Public so callers can thread it into HE helpers.
    pub arena: KernelArena,
    /// Flat `RowSel` accumulators: `rows × queries × 2 × k × n`.
    acc: Vec<u64>,
    /// Per-thread partial accumulators for the reduced parallel scan
    /// (each shaped like `acc`); retained across scans so a warm
    /// parallel scan performs no data-dependent allocations.
    thread_acc: Vec<Vec<u64>>,
    /// One row-tile accumulator per scan worker (`tile rows × queries ×
    /// 2 × segment` words, sized to stay in L2), retained likewise.
    tiles: Vec<Vec<u64>>,
    rows: usize,
    queries: usize,
    /// Words per ciphertext accumulator (`2 · k · n`).
    ct_words: usize,
}

impl QueryScratch {
    /// An empty scratch; buffers grow on first use and are retained.
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// Shapes and zeroes the accumulator matrix for a scan of `rows`
    /// database rows serving `queries` concurrent queries. Only grows the
    /// backing buffer when the geometry outgrows what is retained.
    pub(crate) fn reset_accumulators(&mut self, rows: usize, queries: usize, ct_words: usize) {
        let want = rows * queries * ct_words;
        self.acc.clear();
        self.acc.resize(want, 0);
        self.rows = rows;
        self.queries = queries;
        self.ct_words = ct_words;
    }

    /// The buffers of one scan: the accumulator matrix (`rows × queries
    /// × 2·k·n` words, chunked by row ranges for the worker threads),
    /// `partials` zeroed per-thread partial accumulators of the same
    /// shape (the D0-split scan sums its share of the record dimension
    /// into each, then folds them into the matrix with modular adds), and
    /// `tiles` row-tile buffers of `tile_words` words, one per worker
    /// (contents unspecified: the scan clears what it uses). Everything is
    /// retained across calls, so a warm scan at a fixed geometry
    /// allocates nothing.
    pub(crate) fn scan_buffers(
        &mut self,
        partials: usize,
        tiles: usize,
        tile_words: usize,
    ) -> (&mut [u64], &mut [Vec<u64>], &mut [Vec<u64>]) {
        let want = self.rows * self.queries * self.ct_words;
        if self.thread_acc.len() < partials {
            self.thread_acc.resize_with(partials, Vec::new);
        }
        for part in &mut self.thread_acc[..partials] {
            part.clear();
            part.resize(want, 0);
        }
        if self.tiles.len() < tiles {
            self.tiles.resize_with(tiles, Vec::new);
        }
        for tile in &mut self.tiles[..tiles] {
            tile.resize(tile_words, 0);
        }
        (&mut self.acc, &mut self.thread_acc[..partials], &mut self.tiles[..tiles])
    }

    /// Number of rows the accumulators currently hold.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of queries the accumulators currently hold.
    #[inline]
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// The `(a, b)` accumulator words of query `query` at row `row`
    /// (each `k · n` words, NTT form).
    ///
    /// # Panics
    /// Panics when the indices exceed the last scan's shape.
    pub fn row_words(&self, query: usize, row: usize) -> (&[u64], &[u64]) {
        assert!(query < self.queries && row < self.rows, "accumulator index out of shape");
        let start = (row * self.queries + query) * self.ct_words;
        let half = self.ct_words / 2;
        (&self.acc[start..start + half], &self.acc[start + half..start + self.ct_words])
    }

    /// Materializes query `query`'s row accumulators as ciphertexts for
    /// the `ColTor` stage (allocating — this is the seam between the flat
    /// kernel world and the polynomial algebra).
    pub fn row_ciphertexts(
        &self,
        ctx: &std::sync::Arc<RingContext>,
        query: usize,
    ) -> Vec<BfvCiphertext> {
        (0..self.rows)
            .map(|r| {
                let (a, b) = self.row_words(query, r);
                BfvCiphertext {
                    a: RnsPoly::from_words(ctx, Form::Ntt, a.to_vec())
                        .expect("accumulator has ring shape"),
                    b: RnsPoly::from_words(ctx, Form::Ntt, b.to_vec())
                        .expect("accumulator has ring shape"),
                }
            })
            .collect()
    }

    /// Bytes currently retained across the arena and accumulators
    /// (including the per-thread partials and row tiles of the scan).
    pub fn retained_bytes(&self) -> usize {
        self.arena.retained_bytes()
            + self.acc.capacity() * 8
            + self.thread_acc.iter().chain(&self.tiles).map(|p| p.capacity() * 8).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_shape_and_views() {
        let mut s = QueryScratch::new();
        s.reset_accumulators(4, 2, 6);
        assert_eq!(s.rows(), 4);
        assert_eq!(s.queries(), 2);
        assert_eq!(s.scan_buffers(0, 0, 0).0.len(), 4 * 2 * 6);
        let (a, b) = s.row_words(1, 3);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
        // Growing then shrinking keeps capacity (warm reuse).
        s.reset_accumulators(2, 1, 6);
        assert!(s.retained_bytes() >= 4 * 2 * 6 * 8);
    }

    #[test]
    fn thread_partials_match_shape_and_are_retained() {
        let mut s = QueryScratch::new();
        s.reset_accumulators(4, 2, 6);
        let (acc, partials, tiles) = s.scan_buffers(3, 2, 10);
        assert_eq!(acc.len(), 4 * 2 * 6);
        assert_eq!(partials.len(), 3);
        for p in partials.iter_mut() {
            assert_eq!(p.len(), 4 * 2 * 6);
            assert!(p.iter().all(|&w| w == 0), "partials must start zeroed");
            p.fill(7);
        }
        assert_eq!(tiles.len(), 2);
        assert!(tiles.iter().all(|t| t.len() == 10));
        // A later scan asking for fewer partials re-zeroes what it uses
        // and keeps the rest retained (capacity, not contents).
        let (_, partials, _) = s.scan_buffers(2, 1, 10);
        assert_eq!(partials.len(), 2);
        assert!(partials.iter().all(|p| p.iter().all(|&w| w == 0)));
        assert!(s.retained_bytes() >= (1 + 3) * 4 * 2 * 6 * 8 + 2 * 10 * 8);
    }

    #[test]
    #[should_panic(expected = "out of shape")]
    fn out_of_shape_rejected() {
        let mut s = QueryScratch::new();
        s.reset_accumulators(2, 1, 4);
        let _ = s.row_words(0, 2);
    }
}
