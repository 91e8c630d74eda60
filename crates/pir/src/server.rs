//! The PIR server: `ExpandQuery → RowSel → ColTor` (Fig. 2).
//!
//! The hot path dispatches every kernel through a selected
//! [`VpeBackend`] and draws scratch from a
//! caller-owned [`QueryScratch`]: `RowSel` is a streaming scan over the
//! database's contiguous limb-major buffer that accumulates into flat,
//! reused buffers — zero heap allocations per query once warm.

use std::ops::Range;

use ive_he::BfvCiphertext;
use ive_math::kernel::{self, BackendKind, VpeBackend};
use ive_math::modulus::Modulus;
use ive_math::rns::Form;

use crate::client::{ClientKeys, PirQuery};
use crate::coltor::{col_tor, col_tor_with, TournamentOrder};
use crate::db::Database;
use crate::expand::expand_query_with;
use crate::params::PirParams;
use crate::scratch::QueryScratch;
use crate::PirError;

/// Minimum rows per worker before sharding pays off.
const ROWSEL_MIN_ROWS_PER_THREAD: usize = 8;

/// Minimum database bytes per worker before the D0-split scan pays for
/// its spawns and partial folds. The toy database (384 KiB) stays on one
/// thread (on a 2-core host, two threads ran it at 0.73× the speed of
/// one); a Table I slice has megabytes per worker.
const ROWSEL_MIN_BYTES_PER_THREAD: usize = 4 << 20;

/// Width of one `RowSel` scan segment in `u64` words (4 KiB): the unit
/// the row-tiled scan sweeps the record dimension over, and the unit it
/// prefetches the database in.
const SCAN_SEGMENT_WORDS: usize = 512;

/// L2 bytes one scan worker's row tile of accumulators may take. At a
/// batch of 4 this gives 16-row tiles; on a 2-core AVX-512 host at
/// Table I (2 GiB), 8- and 32-row tiles scanned no faster.
const ROWSEL_TILE_L2_BYTES: usize = 512 << 10;

/// Rows per scan tile: as many as keep `rows × batch × 2 × segment`
/// accumulator words within [`ROWSEL_TILE_L2_BYTES`], at least one.
fn rowsel_tile_rows(batch: usize) -> usize {
    (ROWSEL_TILE_L2_BYTES / (batch * 2 * SCAN_SEGMENT_WORDS * 8)).max(1)
}

/// Default compute parallelism per batch: one thread per available core,
/// so a lone server saturates the machine without oversubscribing it.
fn default_rowsel_threads() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

/// Workers for the D0-split `RowSel` scan: at most `threads`, one per
/// record slot, and only as many as the database feeds
/// [`ROWSEL_MIN_BYTES_PER_THREAD`] each. `1` means scan sequentially.
fn rowsel_d0_workers(threads: usize, d0: usize, db_bytes: usize) -> usize {
    threads.min(d0).min(db_bytes / ROWSEL_MIN_BYTES_PER_THREAD).max(1)
}

/// A single-server PIR server holding one preprocessed database.
#[derive(Debug)]
pub struct PirServer {
    params: PirParams,
    db: Database,
    order: TournamentOrder,
    rowsel_threads: usize,
    backend: BackendKind,
}

impl PirServer {
    /// Wraps a preprocessed database.
    ///
    /// # Errors
    /// Fails when the database size does not match the geometry.
    pub fn new(params: &PirParams, db: Database) -> Result<Self, PirError> {
        if db.len() != params.num_records() || db.d0() != params.d0() {
            return Err(PirError::InvalidParams(format!(
                "database has {} records (D0 = {}), geometry wants {} (D0 = {})",
                db.len(),
                db.d0(),
                params.num_records(),
                params.d0()
            )));
        }
        Ok(PirServer {
            params: params.clone(),
            db,
            order: TournamentOrder::Hs { subtree_depth: 2 },
            rowsel_threads: default_rowsel_threads(),
            backend: BackendKind::default(),
        })
    }

    /// Selects the kernel backend every pipeline step dispatches through
    /// (results are bit-identical across backends; only speed differs).
    pub fn set_backend(&mut self, backend: BackendKind) {
        self.backend = backend;
    }

    /// The kernel backend in effect.
    #[inline]
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Selects the `ColTor` traversal order (results are bit-identical;
    /// only scheduling differs — §IV-A).
    pub fn set_tournament_order(&mut self, order: TournamentOrder) {
        self.order = order;
    }

    /// The `ColTor` traversal order in effect.
    #[inline]
    pub fn tournament_order(&self) -> TournamentOrder {
        self.order
    }

    /// Caps the compute threads of one query or batch at `threads`
    /// (clamped to ≥ 1): each `ExpandQuery` and each `ColTor` splits into
    /// up to that many subtrees, and the `RowSel` scan into up to that
    /// many workers. All three stay sequential where the work is too
    /// small to pay for a thread (the toy geometry), and answers are
    /// bit-identical at every count.
    ///
    /// Defaults to [`std::thread::available_parallelism`]; a serving
    /// runtime that runs its own worker pool sets cores / workers, so the
    /// pools compose instead of oversubscribing cores.
    pub fn set_rowsel_threads(&mut self, threads: usize) {
        self.rowsel_threads = threads.max(1);
    }

    /// The per-batch compute thread cap in effect (Expand, `RowSel` and
    /// `ColTor`).
    #[inline]
    pub fn rowsel_threads(&self) -> usize {
        self.rowsel_threads
    }

    /// The scheme parameters.
    #[inline]
    pub fn params(&self) -> &PirParams {
        &self.params
    }

    /// The preprocessed database.
    #[inline]
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The database's update epoch (see [`Database::epoch`]); answers
    /// from this server reflect exactly the contents at that epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// A new server over `db` inheriting this server's tuning (traversal
    /// order, `RowSel` threads, backend) — the epoch-swap constructor:
    /// the serving layer clones the current database, applies a drained
    /// update batch, and swaps the result in behind an `Arc` while
    /// in-flight scans finish on the old snapshot.
    ///
    /// # Errors
    /// Fails when `db` does not match this server's geometry.
    pub fn with_database(&self, db: Database) -> Result<Self, PirError> {
        let mut server = PirServer::new(&self.params, db)?;
        server.order = self.order;
        server.rowsel_threads = self.rowsel_threads;
        server.backend = self.backend;
        Ok(server)
    }

    /// Answers one query end to end.
    ///
    /// # Errors
    /// Propagates key/shape mismatches from the three pipeline steps.
    pub fn answer(&self, keys: &ClientKeys, query: &PirQuery) -> Result<BfvCiphertext, PirError> {
        self.answer_with(keys, query, &mut QueryScratch::new())
    }

    /// Answers one query end to end with caller-owned scratch — the
    /// serving path: a worker that reuses one [`QueryScratch`] across
    /// queries keeps the whole `RowSel` stage allocation-free.
    ///
    /// # Errors
    /// Propagates key/shape mismatches from the three pipeline steps.
    pub fn answer_with(
        &self,
        keys: &ClientKeys,
        query: &PirQuery,
        scratch: &mut QueryScratch,
    ) -> Result<BfvCiphertext, PirError> {
        let expanded = self.expand_with(keys, query, scratch)?;
        self.row_sel_into(&expanded, scratch)?;
        let rows = scratch.row_ciphertexts(self.params.he().ring(), 0);
        self.col_tor_step_with(rows, query, scratch)
    }

    /// Answers one query and modulus-switches the response down to the
    /// minimal safe residue prefix — a 2× smaller download at Table I
    /// parameters (OnionPIR's response compression; decode with
    /// [`PirClient::decode_compressed`](crate::PirClient::decode_compressed)).
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn answer_compressed(
        &self,
        keys: &ClientKeys,
        query: &PirQuery,
    ) -> Result<ive_he::modswitch::SwitchedCiphertext, PirError> {
        let full = self.answer(keys, query)?;
        Ok(ive_he::modswitch::switch_to_first_prime(self.params.he(), &full)?)
    }

    /// Answers a batch of queries (possibly from different clients) with
    /// one database pass: all queries are expanded first, then `RowSel`
    /// touches each record polynomial once while accumulating for *every*
    /// query — the multi-client batching of §III-B, functionally.
    ///
    /// # Errors
    /// Propagates failures from any query's pipeline.
    pub fn answer_batch(
        &self,
        requests: &[(&ClientKeys, &PirQuery)],
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        self.answer_batch_with(requests, &mut QueryScratch::new())
    }

    /// Batched answering with caller-owned scratch (see
    /// [`PirServer::answer_with`]).
    ///
    /// # Errors
    /// Propagates failures from any query's pipeline.
    pub fn answer_batch_with(
        &self,
        requests: &[(&ClientKeys, &PirQuery)],
        scratch: &mut QueryScratch,
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        // Step 1: per-query expansion (client-specific; not amortizable).
        let mut expanded = Vec::with_capacity(requests.len());
        for (keys, query) in requests {
            expanded.push(self.expand_with(keys, query, scratch)?);
        }
        // Step 2: one scan of the database serving all queries.
        self.row_sel_batch_into(&expanded, scratch)?;
        // Step 3: per-query tournaments.
        let ring = self.params.he().ring().clone();
        requests
            .iter()
            .enumerate()
            .map(|(qi, (_, query))| {
                let rows = scratch.row_ciphertexts(&ring, qi);
                self.col_tor_step_with(rows, query, scratch)
            })
            .collect()
    }

    /// Batched `RowSel`: one scan of the database accumulating for every
    /// query at once (Fig. 5 right: the query matrix gains 2·batch
    /// columns). Returns one row-ciphertext vector per query, in input
    /// order. This is the hook a serving layer shards and batches over;
    /// like [`PirServer::row_sel`], the row dimension is split across
    /// [`PirServer::rowsel_threads`] workers when it is large enough.
    ///
    /// # Errors
    /// Fails when any query's expansion does not have `D0` ciphertexts.
    pub fn row_sel_batch(
        &self,
        expanded: &[Vec<BfvCiphertext>],
    ) -> Result<Vec<Vec<BfvCiphertext>>, PirError> {
        let mut scratch = QueryScratch::new();
        self.row_sel_batch_into(expanded, &mut scratch)?;
        let ring = self.params.he().ring();
        Ok((0..expanded.len()).map(|qi| scratch.row_ciphertexts(ring, qi)).collect())
    }

    /// Batched `RowSel` into caller-owned scratch: the streaming scan at
    /// the heart of the server. Reads every database word once, in row
    /// tiles and coefficient segments, and accumulates every query's row
    /// ciphertexts in flat reused buffers through the selected kernel
    /// backend — no heap allocation once `scratch` is warm. Results are
    /// read back with [`QueryScratch::row_words`] /
    /// [`QueryScratch::row_ciphertexts`].
    ///
    /// # Errors
    /// Fails when any query's expansion does not have `D0` ciphertexts.
    pub fn row_sel_batch_into(
        &self,
        expanded: &[Vec<BfvCiphertext>],
        scratch: &mut QueryScratch,
    ) -> Result<(), PirError> {
        self.row_sel_scan(expanded, scratch)
    }

    /// The streaming scan shared by the single and batched entry points,
    /// generic over how each query's expansion slice is held so neither
    /// path pays an adapter allocation.
    fn row_sel_scan<E: AsRef<[BfvCiphertext]> + Sync>(
        &self,
        expanded: &[E],
        scratch: &mut QueryScratch,
    ) -> Result<(), PirError> {
        let he = self.params.he();
        let ring = he.ring();
        for exp in expanded {
            let exp = exp.as_ref();
            if exp.len() != self.params.d0() {
                return Err(PirError::InvalidParams(format!(
                    "RowSel needs {} expanded ciphertexts, got {}",
                    self.params.d0(),
                    exp.len()
                )));
            }
            // The flat kernel scan trusts raw words, so reject what the
            // polynomial algebra used to: wrong-form or wrong-ring
            // ciphertexts must be an error, not a garbage answer or a
            // panic inside a scan worker.
            for ct in exp {
                if ct.a.form() != Form::Ntt || ct.b.form() != Form::Ntt {
                    return Err(PirError::InvalidParams(
                        "RowSel needs NTT-form expanded ciphertexts".into(),
                    ));
                }
                if **ct.a.ctx() != **ring || **ct.b.ctx() != **ring {
                    return Err(PirError::InvalidParams(
                        "expanded ciphertext lives in a different ring than the database".into(),
                    ));
                }
            }
        }
        let backend = self.backend.backend();
        let moduli = ring.basis().moduli();
        let n = he.n();
        let k = moduli.len();
        let kn = k * n;
        let d0 = self.params.d0();
        let rows = self.params.num_rows();
        let batch = expanded.len();
        let ct_words = 2 * kn;
        let row_block = batch * ct_words;
        if batch == 0 {
            // Nothing to accumulate; leave an explicitly empty result
            // shape instead of feeding a zero chunk size to the scan.
            scratch.reset_accumulators(0, 0, ct_words);
            return Ok(());
        }
        scratch.reset_accumulators(rows, batch, ct_words);

        let db_bytes = rows * d0 * kn * 8;
        let seg_words = SCAN_SEGMENT_WORDS.min(n);
        let tile_rows = rowsel_tile_rows(batch).min(rows.max(1));
        let tile_words = tile_rows * batch * 2 * seg_words;

        // One worker's share: accumulator rows [start, start + acc rows)
        // over record slots `d0_range`, in tiles of `tile_rows` rows. Per
        // tile, limb and coefficient segment, one sweep over the record
        // slots accumulates into the L2-resident `tile` (see
        // `sweep_segment`), which is then written out to the worker's
        // accumulator rows.
        let scan = |start: usize, acc: &mut [u64], d0_range: Range<usize>, tile: &mut [u64]| {
            for (t, acc_tile) in acc.chunks_mut(tile_rows * row_block).enumerate() {
                let r0 = start + t * tile_rows;
                let tile_range = r0..r0 + acc_tile.len() / row_block;
                for (m, modulus) in moduli.iter().enumerate() {
                    for lo in (0..n).step_by(seg_words) {
                        let seg = m * n + lo..m * n + (lo + seg_words).min(n);
                        let s = seg.len();
                        let tile = &mut tile[..tile_range.len() * batch * 2 * s];
                        self.sweep_segment(
                            backend,
                            modulus,
                            expanded,
                            tile_range.clone(),
                            d0_range.clone(),
                            seg.clone(),
                            tile,
                        );
                        // Tile layout (row, query, half) → accumulator
                        // words row·row_block + query·ct_words + half·kn.
                        for (c, src) in tile.chunks(s).enumerate() {
                            let dst = (c / (2 * batch)) * row_block + (c % (2 * batch)) * kn;
                            acc_tile[dst + seg.start..dst + seg.end].copy_from_slice(src);
                        }
                    }
                }
            }
        };

        let threads = self.rowsel_threads;
        let d0_workers = rowsel_d0_workers(threads, d0, db_bytes);
        if threads > 1 && rows >= threads * ROWSEL_MIN_ROWS_PER_THREAD {
            // Enough rows for every worker to own a disjoint row range of
            // the shared accumulator matrix: no reduction needed, and the
            // partition is trivially bit-identical to the sequential scan.
            let chunk_rows = rows.div_ceil(threads);
            let (acc, _, tiles) = scratch.scan_buffers(0, rows.div_ceil(chunk_rows), tile_words);
            std::thread::scope(|scope| {
                for ((start, acc_chunk), tile) in (0..rows)
                    .step_by(chunk_rows)
                    .zip(acc.chunks_mut(chunk_rows * row_block))
                    .zip(tiles.iter_mut())
                {
                    let scan = &scan;
                    scope.spawn(move || scan(start, acc_chunk, 0..d0, tile));
                }
            });
        } else if d0_workers > 1 && rows > 0 {
            // Too few rows for disjoint row chunks: partition the record
            // (D0) dimension of the flat shard instead. Every worker
            // scans all rows over its own D0 range — the first range into
            // the shared accumulator on this thread, the rest into
            // per-thread partials from the scratch pool — and the
            // reduced partials are folded in afterwards with per-limb
            // modular adds. Addition mod q is exactly associative and
            // commutative on canonical `[0, q)` words, so the result is
            // bit-identical to the sequential left-to-right accumulation
            // (enforced by the thread-matrix differential tests).
            let chunk_d0 = d0.div_ceil(d0_workers);
            let spawned = d0.div_ceil(chunk_d0) - 1;
            let (acc, partials, tiles) = scratch.scan_buffers(spawned, spawned + 1, tile_words);
            let (first_tile, tiles) = tiles.split_first_mut().expect("one tile per worker");
            std::thread::scope(|scope| {
                let mut ranges = (0..d0).step_by(chunk_d0).map(|lo| lo..(lo + chunk_d0).min(d0));
                let first = ranges.next().expect("d0 >= 2");
                for ((d0_range, part), tile) in ranges.zip(partials.iter_mut()).zip(tiles) {
                    let scan = &scan;
                    scope.spawn(move || scan(0, part, d0_range, tile));
                }
                scan(0, &mut *acc, first, first_tile);
            });
            // Fold the partials into the shared accumulator. The flat
            // matrix cycles limb rows with period k within each k·n
            // half, so n-chunk c reduces under modulus c mod k.
            for part in partials.iter() {
                for (c, (dst, src)) in acc.chunks_mut(n).zip(part.chunks(n)).enumerate() {
                    let q = moduli[c % k].value();
                    for (d, &s) in dst.iter_mut().zip(src) {
                        let sum = *d + s;
                        *d = if sum >= q { sum - q } else { sum };
                    }
                }
            }
        } else {
            let (acc, _, tiles) = scratch.scan_buffers(0, 1, tile_words);
            scan(0, acc, 0..d0, &mut tiles[0]);
        }
        Ok(())
    }

    /// One segment sweep of the tiled scan: `tile` (rows × queries ×
    /// (a, b) × `seg.len()` words) receives `Σ_{i ∈ d0_range}
    /// DB[r][i][seg] ⊙ ct_q[i][seg]` for every row `r` of `rows` and every
    /// query `q`, fully reduced. The record slot loop runs outside the
    /// rows, so each query's expansion segment is loaded once per slot
    /// and serves every row of the tile; each database segment is loaded
    /// once and serves every query, with the next one prefetched while
    /// this one computes. Moduli up to 32 bits accumulate lazily — raw
    /// u64 sums, reduced every [`kernel::lazy_mac_terms`] slots and once
    /// at the end — and wider ones through the reducing `scan_fma`.
    #[allow(clippy::too_many_arguments)]
    fn sweep_segment<E: AsRef<[BfvCiphertext]>>(
        &self,
        backend: &dyn VpeBackend,
        modulus: &Modulus,
        expanded: &[E],
        rows: Range<usize>,
        d0_range: Range<usize>,
        seg: Range<usize>,
        tile: &mut [u64],
    ) {
        let lazy = kernel::lazy_mac_terms(modulus);
        let s = seg.len();
        tile.fill(0);
        for (pending, i) in d0_range.clone().enumerate() {
            if lazy.is_some_and(|l| pending > 0 && pending % l == 0) {
                backend.reduce_lazy(modulus, tile);
            }
            for (r, row_tile) in rows.clone().zip(tile.chunks_mut(expanded.len() * 2 * s)) {
                let w = &self.db.poly_words(r, i)[seg.clone()];
                let next = if r + 1 < rows.end {
                    Some((r + 1, i))
                } else {
                    (i + 1 < d0_range.end).then_some((rows.start, i + 1))
                };
                if let Some((nr, ni)) = next {
                    kernel::prefetch_row(&self.db.poly_words(nr, ni)[seg.clone()]);
                }
                for (exp, acc_ct) in expanded.iter().zip(row_tile.chunks_mut(2 * s)) {
                    let exp = &exp.as_ref()[i];
                    let (acc_a, acc_b) = acc_ct.split_at_mut(s);
                    let ea = &exp.a.as_words()[seg.clone()];
                    let eb = &exp.b.as_words()[seg.clone()];
                    if lazy.is_some() {
                        backend.scan_mac_lazy(acc_a, acc_b, w, ea, eb);
                    } else {
                        backend.scan_fma(modulus, acc_a, acc_b, w, ea, eb);
                    }
                }
            }
        }
        if lazy.is_some() {
            backend.reduce_lazy(modulus, tile);
        }
    }

    /// Step (1): `ExpandQuery` — derive the `D0` one-hot ciphertexts.
    ///
    /// # Errors
    /// Fails when the client registered too few expansion keys.
    pub fn expand(
        &self,
        keys: &ClientKeys,
        query: &PirQuery,
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        self.expand_with(keys, query, &mut QueryScratch::new())
    }

    /// `ExpandQuery` with caller-owned scratch for the key-switch `Dcp`
    /// buffers, split across up to [`PirServer::rowsel_threads`] threads.
    ///
    /// # Errors
    /// Fails when the client registered too few expansion keys.
    pub fn expand_with(
        &self,
        keys: &ClientKeys,
        query: &PirQuery,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        expand_query_with(
            self.params.he(),
            query.packed(),
            keys.subs_keys(),
            self.params.log_d0(),
            self.rowsel_threads,
            self.backend.backend(),
            &mut scratch.arena,
        )
    }

    /// Step (2): `RowSel` — `ct⁽⁰⁾_r = Σ_{i<D0} DB[r][i] ⊙ ct[i]` for every
    /// row `r` (Eq. 1 / Fig. 5). Shards rows across threads when the
    /// database is large enough.
    ///
    /// # Errors
    /// Fails when `expanded.len() != D0`.
    pub fn row_sel(&self, expanded: &[BfvCiphertext]) -> Result<Vec<BfvCiphertext>, PirError> {
        let mut scratch = QueryScratch::new();
        self.row_sel_into(expanded, &mut scratch)?;
        Ok(scratch.row_ciphertexts(self.params.he().ring(), 0))
    }

    /// Single-query `RowSel` into caller-owned scratch (a batch of one;
    /// see [`PirServer::row_sel_batch_into`] for the scan itself).
    ///
    /// # Errors
    /// Fails when `expanded.len() != D0`.
    pub fn row_sel_into(
        &self,
        expanded: &[BfvCiphertext],
        scratch: &mut QueryScratch,
    ) -> Result<(), PirError> {
        self.row_sel_scan(&[expanded], scratch)
    }

    /// Step (3): `ColTor` — tournament over the row ciphertexts using the
    /// query's RGSW bits.
    ///
    /// # Errors
    /// Fails when the query carries too few selection bits.
    pub fn col_tor_step(
        &self,
        rows: Vec<BfvCiphertext>,
        query: &PirQuery,
    ) -> Result<BfvCiphertext, PirError> {
        col_tor(self.params.he(), rows, query.row_bits(), self.order)
    }

    /// `ColTor` through the selected backend with caller-owned scratch,
    /// split into subtrees across up to [`PirServer::rowsel_threads`]
    /// threads.
    ///
    /// # Errors
    /// Fails when the query carries too few selection bits.
    pub fn col_tor_step_with(
        &self,
        rows: Vec<BfvCiphertext>,
        query: &PirQuery,
        scratch: &mut QueryScratch,
    ) -> Result<BfvCiphertext, PirError> {
        col_tor_with(
            self.params.he(),
            rows,
            query.row_bits(),
            self.order,
            self.rowsel_threads,
            self.backend.backend(),
            &mut scratch.arena,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PirClient;
    use crate::db::Database;
    use rand::SeedableRng;

    fn records(params: &PirParams) -> Vec<Vec<u8>> {
        (0..params.num_records()).map(|i| format!("record number {i:04}").into_bytes()).collect()
    }

    #[test]
    fn end_to_end_retrieval_every_index() {
        let params = PirParams::toy();
        let recs = records(&params);
        let db = Database::from_records(&params, &recs).unwrap();
        let server = PirServer::new(&params, db).unwrap();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(71)).unwrap();
        // Exhaustive over all 64 records.
        for target in 0..params.num_records() {
            let query = client.query(target).unwrap();
            let response = server.answer(client.public_keys(), &query).unwrap();
            let got = client.decode(&query, &response).unwrap();
            assert_eq!(&got[..recs[target].len()], &recs[target][..], "record {target}");
        }
    }

    #[test]
    fn all_tournament_orders_agree_end_to_end() {
        let params = PirParams::toy();
        let recs = records(&params);
        let db = Database::from_records(&params, &recs).unwrap();
        let mut server = PirServer::new(&params, db).unwrap();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(72)).unwrap();
        let query = client.query(42).unwrap();
        let mut answers = Vec::new();
        for order in [
            TournamentOrder::Bfs,
            TournamentOrder::Dfs,
            TournamentOrder::Hs { subtree_depth: 1 },
            TournamentOrder::Hs { subtree_depth: 2 },
            TournamentOrder::Hs { subtree_depth: 3 },
        ] {
            server.set_tournament_order(order);
            answers.push(server.answer(client.public_keys(), &query).unwrap());
        }
        for a in &answers[1..] {
            assert_eq!(a, &answers[0]);
        }
    }

    #[test]
    fn batched_answers_match_individual_answers() {
        // §III-B functionally: one DB pass serves many clients, and each
        // response is bit-identical to the unbatched one.
        let params = PirParams::toy();
        let recs = records(&params);
        let db = Database::from_records(&params, &recs).unwrap();
        let server = PirServer::new(&params, db).unwrap();
        let mut clients: Vec<_> = (0..3)
            .map(|i| PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(200 + i)).unwrap())
            .collect();
        let targets = [5usize, 41, 63];
        let queries: Vec<_> =
            clients.iter_mut().zip(targets).map(|(c, t)| c.query(t).unwrap()).collect();
        let requests: Vec<_> =
            clients.iter().zip(&queries).map(|(c, q)| (c.public_keys(), q)).collect();
        let batched = server.answer_batch(&requests).unwrap();
        for ((client, query), (response, target)) in
            clients.iter().zip(&queries).zip(batched.iter().zip(targets))
        {
            let solo = server.answer(client.public_keys(), query).unwrap();
            assert_eq!(response, &solo, "batched response diverged");
            let plain = client.decode(query, response).unwrap();
            assert_eq!(&plain[..recs[target].len()], &recs[target][..]);
        }
    }

    #[test]
    fn rowsel_thread_count_does_not_change_answers() {
        let params = PirParams::toy();
        let recs = records(&params);
        let db = Database::from_records(&params, &recs).unwrap();
        let mut server = PirServer::new(&params, db).unwrap();
        assert!(server.rowsel_threads() >= 1);
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(74)).unwrap();
        let query = client.query(17).unwrap();
        let mut answers = Vec::new();
        let mut batched = Vec::new();
        let requests = [(client.public_keys(), &query)];
        // 2 splits evenly, 4 and 7 leave ragged partitions, 64 exceeds
        // both rows and d0 (the worker count clamps).
        for threads in [1usize, 2, 4, 7, 64] {
            server.set_rowsel_threads(threads);
            assert_eq!(server.rowsel_threads(), threads);
            answers.push(server.answer(client.public_keys(), &query).unwrap());
            batched.push(server.answer_batch(&requests).unwrap().pop().unwrap());
        }
        for (a, b) in answers[1..].iter().zip(&batched[1..]) {
            assert_eq!(a, &answers[0], "RowSel sharding changed the answer");
            assert_eq!(b, &batched[0], "batched RowSel sharding changed the answer");
        }
        assert_eq!(answers[0], batched[0], "batched path diverged from single path");
    }

    #[test]
    fn row_shards_recombine_to_the_full_answer() {
        // Split the 2^d rows into 2^k aligned shards, answer the low
        // (d - k) tournament levels per shard, and finish with the high k
        // bits: the result must be bit-identical to the monolithic server.
        let params = PirParams::toy();
        let recs = records(&params);
        let db = Database::from_records(&params, &recs).unwrap();
        let server = PirServer::new(&params, db.clone()).unwrap();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(75)).unwrap();
        let he = params.he();
        for shard_bits in [1u32, 2] {
            let shards = 1usize << shard_bits;
            let sub_dims = params.dims() - shard_bits;
            let sub_params = PirParams::new(he.clone(), params.d0(), sub_dims).unwrap();
            let rows_per_shard = params.num_rows() / shards;
            let shard_servers: Vec<PirServer> = (0..shards)
                .map(|s| {
                    let shard_db = db.shard_rows(s * rows_per_shard, rows_per_shard).unwrap();
                    PirServer::new(&sub_params, shard_db).unwrap()
                })
                .collect();
            let query = client.query(29).unwrap();
            let winners: Vec<BfvCiphertext> = shard_servers
                .iter()
                .map(|s| s.answer(client.public_keys(), &query).unwrap())
                .collect();
            let combined = crate::coltor::col_tor(
                he,
                winners,
                &query.row_bits()[sub_dims as usize..],
                TournamentOrder::Bfs,
            )
            .unwrap();
            let full = server.answer(client.public_keys(), &query).unwrap();
            assert_eq!(combined, full, "{shards}-way sharding diverged");
        }
    }

    #[test]
    fn empty_batch_answers_empty() {
        let params = PirParams::toy();
        let db = Database::from_records(&params, &[]).unwrap();
        let server = PirServer::new(&params, db).unwrap();
        assert!(server.answer_batch(&[]).unwrap().is_empty());
        assert!(server.row_sel_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn coefficient_form_expansion_rejected() {
        // The flat scan trusts raw words; a coefficient-form ciphertext
        // must be an error, not a silently wrong answer.
        let params = PirParams::toy();
        let recs = records(&params);
        let db = Database::from_records(&params, &recs).unwrap();
        let server = PirServer::new(&params, db).unwrap();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(76)).unwrap();
        let query = client.query(3).unwrap();
        let mut expanded = server.expand(client.public_keys(), &query).unwrap();
        expanded[0].a.to_coeff();
        assert!(matches!(server.row_sel(&expanded), Err(PirError::InvalidParams(_))));
    }

    #[test]
    fn split_gates_keep_the_toy_geometry_sequential() {
        let toy = PirParams::toy();
        let he = toy.he();
        let toy_db_bytes = toy.num_records() * he.ring().basis().len() * he.n() * 8;
        for threads in [2usize, 3, 4, 64] {
            // Even the deepest tree the toy ring allows stays whole.
            for levels in [toy.log_d0(), he.n().ilog2()] {
                assert_eq!(crate::expand::expand_split_levels(he, levels, threads), 0);
            }
            assert_eq!(rowsel_d0_workers(threads, toy.d0(), toy_db_bytes), 1);
        }
        // Table I splits Expand into one subtree per thread (up to
        // 2^(levels−1)) and the 64 MiB scan into one D0 range per thread.
        let paper = ive_he::HeParams::paper();
        assert_eq!(crate::expand::expand_split_levels(&paper, 8, 1), 0);
        assert_eq!(crate::expand::expand_split_levels(&paper, 8, 2), 1);
        assert_eq!(crate::expand::expand_split_levels(&paper, 8, 3), 1);
        assert_eq!(crate::expand::expand_split_levels(&paper, 8, 4), 2);
        assert_eq!(crate::expand::expand_split_levels(&paper, 1, 4), 0);
        assert_eq!(rowsel_d0_workers(2, 256, 64 << 20), 2);
        assert_eq!(rowsel_d0_workers(3, 256, 64 << 20), 3);
        assert_eq!(rowsel_d0_workers(1, 256, 64 << 20), 1);
    }

    #[test]
    fn wrong_geometry_rejected() {
        let params = PirParams::toy();
        let smaller = PirParams::new(params.he().clone(), 4, 2).unwrap();
        let db = Database::from_records(&smaller, &[]).unwrap();
        assert!(PirServer::new(&params, db).is_err());
    }

    #[test]
    fn response_noise_stays_within_budget() {
        // §II-C: response error ≈ RowSel error + O(d)·RGSW error, far below Δ/2.
        let params = PirParams::toy();
        let recs = records(&params);
        let db = Database::from_records(&params, &recs).unwrap();
        let server = PirServer::new(&params, db).unwrap();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(73)).unwrap();
        let target = 9;
        let query = client.query(target).unwrap();
        let response = server.answer(client.public_keys(), &query).unwrap();
        let he = params.he();
        let expect = crate::db::plaintext_from_bytes(he, &recs[target]).unwrap();
        let budget = ive_he::noise::noise_budget_bits(he, client.secret_key(), &response, &expect);
        assert!(budget > 5.0, "remaining noise budget only {budget:.1} bits");
    }
}
