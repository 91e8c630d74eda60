//! The database plane behind the worker pool: a row-sharded ensemble
//! recombined through the high tournament bits — a replicated database
//! is the one-shard plan — **epoch-versioned and mutable under traffic**.
//!
//! Row sharding exploits that `ColTor` consumes row-index bits LSB first
//! (Fig. 7): an aligned block of `2^(d-k)` adjacent rows is exactly one
//! depth-`(d-k)` subtree of the tournament, so shard `s` can run
//! `RowSel` + the low levels over its own rows only, and the `2^k` shard
//! winners finish with the high `k` selection bits. The recombined
//! ciphertext is bit-identical to the monolithic server's answer (§IV-A:
//! traversal order does not change the arithmetic).
//!
//! # Live updates
//!
//! The engine keeps its shard servers behind one `RwLock<Vec<Arc<…>>>`
//! and serves every batch from a **snapshot**: a brief read-lock clones
//! the `Arc`s, then the whole scan runs lock-free on that consistent
//! set. Committing updates is the mirror image — deltas accumulate in an
//! [`UpdateLog`] (validated and NTT-transformed on the ingest thread,
//! never a query worker), and [`ShardedEngine::commit_updates`] clones
//! only the touched shards' databases, applies the deltas, and swaps the
//! new `Arc` vector in under a brief write-lock. Queries in flight keep
//! scanning their old snapshot; queries admitted after the swap see the
//! new epoch; no reader ever blocks on an apply and no answer ever mixes
//! epochs across shards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use ive_he::BfvCiphertext;
use ive_pir::coltor::col_tor_with;
use ive_pir::db::CowStats;
use ive_pir::kspir::{KsPirKeys, KsPirParams, KsPirQuery, KsPirServer};
use ive_pir::{
    BackendKind, ClientKeys, Database, Journal, KvSchema, KvStore, PirError, PirParams, PirQuery,
    PirServer, PreparedUpdate, QueryScratch, RecordUpdate, TournamentOrder, UpdateLog,
};

use crate::config::ShardPlan;
use crate::trace::{Span, Stage, TraceRecorder};
use crate::ServeError;

/// The query-answering plane: `2^k` row shards (`k = 0` when
/// replicated), epoch-versioned.
#[derive(Debug)]
pub struct ShardedEngine {
    params: PirParams,
    order: TournamentOrder,
    backend: BackendKind,
    /// The current epoch's `2^k` shard servers (one when replicated).
    /// Readers snapshot (brief read-lock, then lock-free); commits swap
    /// the whole vector (brief write-lock).
    servers: RwLock<Vec<Arc<PirServer>>>,
    /// `k = log2(shards)`: the high row-index bits the shard winners
    /// recombine through (0 when replicated).
    shard_bits: u32,
    /// Kernel scratch pools for shards `1..`, which run on scoped threads
    /// (shard 0 runs on the calling worker with its own scratch).
    scratch: Vec<ScratchPool>,
    /// Staged deltas awaiting the next epoch boundary.
    log: UpdateLog,
    /// Optional durable journal mirroring the staged deltas: batches are
    /// appended (fsync'd) when staged and the file truncates at each
    /// commit checkpoint, so a crash between stage and commit loses
    /// nothing (the service replays the journal on startup).
    journal: Mutex<Option<Journal>>,
    /// Serializes commits so concurrent updaters cannot interleave their
    /// clone-apply-swap sequences (readers are never blocked by this).
    commit: Mutex<()>,
    /// Committed epoch counter (mirrors every shard database's epoch).
    epoch: AtomicU64,
    /// Total row deltas committed over the engine's lifetime.
    updates_applied: AtomicU64,
    /// Per-stage duration recorder. A fresh engine gets its own; the
    /// service swaps in the shared metrics recorder via
    /// [`ShardedEngine::set_trace`] so engine samples (Expand/RowSel/
    /// ColTor/JournalFsync/EpochCommit, plus scan-bandwidth accounting)
    /// land in the same histograms the handlers and batcher feed.
    trace: Arc<TraceRecorder>,
}

/// A lock-briefly pool of warm [`QueryScratch`] instances. Checkout
/// holds the mutex only for a `Vec` pop/push, never across a scan, so
/// concurrent worker batches touching the same shard each get their own
/// scratch (the pool grows to the observed concurrency, then every
/// checkout is warm) instead of serializing on one buffer set.
#[derive(Debug, Default)]
struct ScratchPool(Mutex<Vec<QueryScratch>>);

impl ScratchPool {
    fn take(&self) -> QueryScratch {
        self.0.lock().expect("scratch pool poisoned").pop().unwrap_or_default()
    }

    fn give(&self, scratch: QueryScratch) {
        self.0.lock().expect("scratch pool poisoned").push(scratch);
    }
}

impl ShardedEngine {
    /// Builds the plane from a preprocessed database.
    ///
    /// # Errors
    /// Fails when the shard count exceeds the row dimension or the
    /// database does not match the geometry.
    pub fn new(
        params: &PirParams,
        db: Database,
        plan: ShardPlan,
        rowsel_threads: usize,
        order: TournamentOrder,
        backend: BackendKind,
    ) -> Result<Self, ServeError> {
        let configure = |mut server: PirServer| {
            server.set_tournament_order(order);
            server.set_rowsel_threads(rowsel_threads);
            server.set_backend(backend);
            Arc::new(server)
        };
        let shards = match plan {
            ShardPlan::Replicated => 1,
            ShardPlan::RowSharded { shards } => shards,
        };
        let shard_bits = shards.trailing_zeros();
        if !shards.is_power_of_two() || shard_bits > params.dims() {
            return Err(ServeError::InvalidConfig(format!(
                "{} row shards do not divide 2^{} rows",
                shards,
                params.dims()
            )));
        }
        // Shard databases share the loaded row pages (`Arc`s), so even
        // the one-shard split copies no record words.
        let sub_params =
            PirParams::new(params.he().clone(), params.d0(), params.dims() - shard_bits)?;
        let rows_per_shard = params.num_rows() / shards;
        let servers = (0..shards)
            .map(|s| {
                let shard_db = db.shard_rows(s * rows_per_shard, rows_per_shard)?;
                Ok(configure(PirServer::new(&sub_params, shard_db)?))
            })
            .collect::<Result<Vec<_>, PirError>>()?;
        let scratch = (1..shards).map(|_| ScratchPool::default()).collect();
        Ok(ShardedEngine {
            params: params.clone(),
            order,
            backend,
            servers: RwLock::new(servers),
            shard_bits,
            scratch,
            log: UpdateLog::with_backend(params, backend),
            journal: Mutex::new(None),
            commit: Mutex::new(()),
            epoch: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            trace: Arc::new(TraceRecorder::new()),
        })
    }

    /// Replaces the stage recorder (call before the engine is shared).
    pub fn set_trace(&mut self, trace: Arc<TraceRecorder>) {
        self.trace = trace;
    }

    /// The stage recorder engine samples land in.
    pub fn trace(&self) -> &Arc<TraceRecorder> {
        &self.trace
    }

    /// The scheme parameters.
    #[inline]
    pub fn params(&self) -> &PirParams {
        &self.params
    }

    /// Number of database shards (1 when replicated).
    pub fn num_shards(&self) -> usize {
        self.servers.read().expect("server set poisoned").len()
    }

    /// The committed update epoch: how many delta batches the engine has
    /// absorbed. Every answer reflects exactly one epoch's contents.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Total row deltas committed over the engine's lifetime.
    #[inline]
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied.load(Ordering::Relaxed)
    }

    /// Number of staged deltas waiting for [`ShardedEngine::commit_updates`].
    pub fn staged_updates(&self) -> usize {
        self.log.len()
    }

    /// Attaches a durable journal (already opened and replayed by the
    /// caller): from now on every staged batch is appended before it is
    /// visible to a commit, and each commit checkpoint truncates the
    /// file.
    pub fn set_journal(&self, journal: Journal) {
        *self.journal.lock().expect("journal lock poisoned") = Some(journal);
    }

    /// Cumulative copy-on-write accounting, summed over every shard of
    /// the current epoch: how many row pages (and words) commits have
    /// actually duplicated. The complement — total pages minus copied —
    /// is what the CoW representation saved versus whole-shard clones.
    pub fn cow_stats(&self) -> CowStats {
        let mut total = CowStats::default();
        for server in self.snapshot() {
            let s = server.database().cow_stats();
            total.pages_copied += s.pages_copied;
            total.words_copied += s.words_copied;
        }
        total
    }

    /// Appends one batch to the journal, if one is attached. Called
    /// *after* staging validation so the journal only ever holds batches
    /// that will replay cleanly.
    fn journal_append(&self, updates: &[RecordUpdate]) -> Result<(), PirError> {
        if let Some(journal) = self.journal.lock().expect("journal lock poisoned").as_mut() {
            let t = Instant::now();
            journal.append(updates)?;
            self.trace.record(Stage::JournalFsync, t.elapsed());
        }
        Ok(())
    }

    /// Truncates the journal after a successful commit: everything
    /// staged is now durable in the database snapshot itself.
    fn journal_checkpoint(&self) -> Result<(), PirError> {
        if let Some(journal) = self.journal.lock().expect("journal lock poisoned").as_mut() {
            journal.checkpoint()?;
        }
        Ok(())
    }

    /// The current epoch's server set: a consistent snapshot the caller
    /// can scan lock-free while commits proceed concurrently.
    fn snapshot(&self) -> Vec<Arc<PirServer>> {
        self.servers.read().expect("server set poisoned").clone()
    }

    /// Validates, preprocesses (CRT + NTT through the engine backend),
    /// and stages one delta for the next epoch. Runs on the calling
    /// thread — the ingest path, never a query worker.
    ///
    /// # Errors
    /// Rejects out-of-range indices and oversized payloads; with a
    /// journal attached, an append failure leaves the delta unstaged.
    pub fn stage_update(&self, update: RecordUpdate) -> Result<(), PirError> {
        self.stage_updates(std::slice::from_ref(&update))
    }

    /// Stages a whole batch, all-or-nothing: validate + NTT-prepare
    /// first, then journal (durable before visible), then stage. The
    /// commit mutex is held so a concurrent commit's checkpoint can
    /// never truncate a batch it did not drain.
    ///
    /// # Errors
    /// Rejects the entire batch when any delta is invalid; a journal
    /// append failure leaves nothing staged.
    pub fn stage_updates(&self, updates: &[RecordUpdate]) -> Result<(), PirError> {
        let _guard = self.commit.lock().expect("commit lock poisoned");
        self.stage_locked(updates)
    }

    /// The staging body; the caller holds the commit mutex.
    fn stage_locked(&self, updates: &[RecordUpdate]) -> Result<(), PirError> {
        let prepared = self.log.prepare_all(updates)?;
        self.journal_append(updates)?;
        self.log.stage_prepared(prepared);
        Ok(())
    }

    /// Commits every staged delta as one epoch: routes each delta to the
    /// shard that owns its row, clones only the touched shards'
    /// databases, applies, and swaps the new server set in. Queries in
    /// flight finish on their old snapshot; an empty log is a no-op that
    /// returns the current epoch.
    ///
    /// # Errors
    /// Propagates apply failures (unreachable for deltas that passed
    /// staging validation); the epoch is unchanged on error.
    pub fn commit_updates(&self) -> Result<u64, PirError> {
        let _guard = self.commit.lock().expect("commit lock poisoned");
        let epoch = self.commit_locked()?;
        self.journal_checkpoint()?;
        Ok(epoch)
    }

    /// The commit body; the caller holds the commit mutex.
    fn commit_locked(&self) -> Result<u64, PirError> {
        // Failpoint before the log drains: an injected commit failure
        // leaves the staged deltas (and their journal records) intact,
        // so a retry — or a restart's journal replay — still commits
        // them. Nothing is lost, only delayed.
        ive_pir::fault::fail_io(ive_pir::fault::Site::EpochCommit)?;
        let staged = self.log.drain();
        if staged.is_empty() {
            return Ok(self.epoch());
        }
        let commit_started = Instant::now();
        let current = self.snapshot();
        let applied = staged.len() as u64;
        // Route each delta to the shard owning its row (the high
        // `shard_bits` of the row index), rebased to shard-local indices.
        let low_bits = self.params.dims() - self.shard_bits;
        let mut routed: Vec<Vec<PreparedUpdate>> = vec![Vec::new(); current.len()];
        for u in staged {
            let shard = (u.index() / self.params.d0()) >> low_bits;
            routed[shard].push(u.rebase_to_shard(shard << low_bits, self.params.d0())?);
        }
        let next = current
            .iter()
            .zip(routed)
            .map(|(server, deltas)| {
                if deltas.is_empty() {
                    // Untouched shards keep the old Arc (no clone); their
                    // per-database epoch may lag — the engine epoch is the
                    // authoritative one.
                    Ok(Arc::clone(server))
                } else {
                    let mut db = server.database().clone();
                    db.apply_updates(&deltas)?;
                    Ok(Arc::new(server.with_database(db)?))
                }
            })
            .collect::<Result<Vec<_>, PirError>>()?;
        *self.servers.write().expect("server set poisoned") = next;
        self.updates_applied.fetch_add(applied, Ordering::Relaxed);
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.trace.record(Stage::EpochCommit, commit_started.elapsed());
        Ok(epoch)
    }

    /// Stages and commits one batch in a single call — the serving
    /// runtime's handler path: each accepted [`wire::Tag::UpdateRow`]
    /// frame is an epoch boundary. The commit mutex is held across the
    /// stage *and* the commit, so concurrent `apply_updates` calls
    /// commit as distinct epochs instead of merging (deltas staged
    /// separately via [`ShardedEngine::stage_update`] ride along with
    /// whichever commit drains them first, by design).
    ///
    /// [`wire::Tag::UpdateRow`]: ive_pir::wire::Tag::UpdateRow
    ///
    /// # Errors
    /// Rejects invalid deltas before anything is staged or applied.
    pub fn apply_updates(&self, updates: &[RecordUpdate]) -> Result<u64, PirError> {
        let _guard = self.commit.lock().expect("commit lock poisoned");
        self.stage_locked(updates)?;
        let epoch = self.commit_locked()?;
        self.journal_checkpoint()?;
        Ok(epoch)
    }

    /// Answers one query.
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn answer(&self, keys: &ClientKeys, query: &PirQuery) -> Result<BfvCiphertext, PirError> {
        Ok(self.answer_batch(&[(keys, query)])?.pop().expect("one request, one answer"))
    }

    /// [`ShardedEngine::answer`] with caller-owned scratch.
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn answer_with(
        &self,
        keys: &ClientKeys,
        query: &PirQuery,
        scratch: &mut QueryScratch,
    ) -> Result<BfvCiphertext, PirError> {
        Ok(self
            .answer_batch_with(&[(keys, query)], scratch)?
            .pop()
            .expect("one request, one answer"))
    }

    /// Answers a batch of queries (possibly from different sessions) with
    /// one database pass per shard.
    ///
    /// # Errors
    /// Fails when *any* query in the batch fails; callers that need
    /// per-query isolation should retry failures individually via
    /// [`ShardedEngine::answer`].
    pub fn answer_batch(
        &self,
        requests: &[(&ClientKeys, &PirQuery)],
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        self.answer_batch_with(requests, &mut QueryScratch::new())
    }

    /// Batched answering with caller-owned scratch — the serving workers'
    /// entry point: each worker owns one [`QueryScratch`] (arena + flat
    /// `RowSel` accumulators) that stays warm across batches, so the scan
    /// allocates nothing; shards beyond the first scan on scoped threads
    /// with their own pooled scratch. The whole batch runs against one
    /// epoch snapshot, concurrent commits included.
    ///
    /// # Errors
    /// Fails when *any* query in the batch fails.
    pub fn answer_batch_with(
        &self,
        requests: &[(&ClientKeys, &PirQuery)],
        scratch: &mut QueryScratch,
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        self.answer_batch_traced(requests, scratch, &mut Span::new())
    }

    /// [`ShardedEngine::answer_batch_with`] that additionally accumulates
    /// the batch's per-stage durations (Expand/RowSel/ColTor) into `span`
    /// — the batcher's entry point, so slow-query traces carry the
    /// engine-side breakdown. Every sample is also recorded in the shared
    /// [`TraceRecorder`] histograms — one Expand, one RowSel and one ColTor
    /// per shard, plus one recombine ColTor when there are several shards
    /// — and each batch's scan pass feeds the scan-bandwidth accounting.
    ///
    /// # Errors
    /// Fails when *any* query in the batch fails.
    pub fn answer_batch_traced(
        &self,
        requests: &[(&ClientKeys, &PirQuery)],
        scratch: &mut QueryScratch,
        span: &mut Span,
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let shards = self.snapshot();
        let low_bits = (self.params.dims() - self.shard_bits) as usize;
        // Expansion is client-specific and shard-independent: do it once
        // and share the result with every shard.
        let t = Instant::now();
        let mut expanded = Vec::with_capacity(requests.len());
        for (keys, query) in requests {
            expanded.push(shards[0].expand_with(keys, query, scratch)?);
        }
        let expand = t.elapsed();
        span.add(Stage::Expand, expand);
        self.trace.record(Stage::Expand, expand);
        // Each shard scans its rows once for the whole batch, then plays
        // the low tournament levels per query: shard 0 on this thread and
        // scratch, the others on scoped threads with pooled scratch. The
        // span gets the slowest shard's durations, which is what the
        // batch actually waited for.
        let expanded = &expanded;
        let (first, rest) = std::thread::scope(|scope| {
            let others: Vec<_> = shards[1..]
                .iter()
                .zip(&self.scratch)
                .map(|(shard, pool)| {
                    scope.spawn(move || {
                        let mut s = pool.take();
                        let result = self.answer_shard(shard, expanded, requests, low_bits, &mut s);
                        pool.give(s);
                        result
                    })
                })
                .collect();
            let first = self.answer_shard(&shards[0], expanded, requests, low_bits, scratch);
            let rest: Vec<_> = others
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect();
            (first, rest)
        });
        let mut winners = Vec::with_capacity(shards.len());
        let (mut scan_max, mut low_max) = (Duration::ZERO, Duration::ZERO);
        for result in std::iter::once(first).chain(rest) {
            let (w, row_sel, col_tor) = result?;
            winners.push(w);
            scan_max = scan_max.max(row_sel);
            low_max = low_max.max(col_tor);
        }
        span.add(Stage::RowSel, scan_max);
        // The shards together streamed the whole database in parallel;
        // the effective scan bandwidth is total bytes over the slowest
        // shard's wall time.
        self.trace.record_scan(self.scan_bytes_per_pass(), scan_max);
        if self.shard_bits == 0 {
            span.add(Stage::ColTor, low_max);
            return Ok(winners.pop().expect("one shard"));
        }
        // Recombine: query i's shard winners, ordered by shard (= high
        // bits of the row index), finish with the remaining bits.
        let t = Instant::now();
        let mut per_shard: Vec<_> = winners.into_iter().map(Vec::into_iter).collect();
        let answers = requests
            .iter()
            .map(|(_, query)| {
                let entries: Vec<BfvCiphertext> =
                    per_shard.iter_mut().map(|w| w.next().expect("one winner per query")).collect();
                col_tor_with(
                    self.params.he(),
                    entries,
                    &query.row_bits()[low_bits..],
                    self.order,
                    shards[0].rowsel_threads(),
                    self.backend.backend(),
                    &mut scratch.arena,
                )
            })
            .collect::<Result<Vec<_>, PirError>>()?;
        let recombine = t.elapsed();
        self.trace.record(Stage::ColTor, recombine);
        span.add(Stage::ColTor, low_max + recombine);
        Ok(answers)
    }

    /// Database bytes one batched `RowSel` pass streams: every row's `d0`
    /// record polynomials (`k·n` limb words each) are loaded exactly once
    /// per batch and shared across the batch's queries. The shards
    /// partition the rows, so this total covers one whole parallel pass.
    fn scan_bytes_per_pass(&self) -> u64 {
        let he = self.params.he();
        let k = he.ring().basis().moduli().len() as u64;
        (self.params.num_rows() as u64) * (self.params.d0() as u64) * k * (he.n() as u64) * 8
    }

    /// RowSel plus the low `low_bits` tournament levels of every query on
    /// one shard, timing both stages into the recorder. Returns the
    /// shard's per-query winners and the two durations.
    fn answer_shard(
        &self,
        shard: &PirServer,
        expanded: &[Vec<BfvCiphertext>],
        requests: &[(&ClientKeys, &PirQuery)],
        low_bits: usize,
        scratch: &mut QueryScratch,
    ) -> Result<(Vec<BfvCiphertext>, Duration, Duration), PirError> {
        let t = Instant::now();
        shard.row_sel_batch_into(expanded, scratch)?;
        let row_sel = t.elapsed();
        self.trace.record(Stage::RowSel, row_sel);
        let ring = shard.params().he().ring().clone();
        let t = Instant::now();
        let winners = requests
            .iter()
            .enumerate()
            .map(|(qi, (_, query))| {
                let rows = scratch.row_ciphertexts(&ring, qi);
                col_tor_with(
                    self.params.he(),
                    rows,
                    &query.row_bits()[..low_bits],
                    self.order,
                    shard.rowsel_threads(),
                    self.backend.backend(),
                    &mut scratch.arena,
                )
            })
            .collect::<Result<Vec<_>, PirError>>()?;
        let col_tor = t.elapsed();
        self.trace.record(Stage::ColTor, col_tor);
        Ok((winners, row_sel, col_tor))
    }
}

/// The keyword (key-value) query plane: a cuckoo-hashed [`KvStore`]
/// whose scalar image is packed into a [`KsPirServer`], epoch-versioned
/// the same way as [`ShardedEngine`] — every answer comes from one
/// immutable `Arc` snapshot, and each mutation re-packs only the chunks
/// its slot writes touch before swapping a new snapshot in.
#[derive(Debug)]
pub struct KeywordEngine {
    /// The authoritative table; mutations hold this lock (serialized),
    /// lookups of the scalar image never need it.
    store: Mutex<KvStore>,
    /// The packed server snapshot answers are served from.
    server: RwLock<Arc<KsPirServer>>,
    /// Committed mutation epoch (one per accepted put/delete batch).
    epoch: AtomicU64,
    /// Total slot writes committed over the engine's lifetime.
    updates_applied: AtomicU64,
    /// Per-stage recorder: `RowSel` + scan bytes for every slot query
    /// answered here, `EpochCommit` for mutations. Decode/encode of the
    /// surrounding frames are timed at the handler layer.
    trace: Arc<TraceRecorder>,
}

impl KeywordEngine {
    /// Packs the store's scalar image into a fresh server snapshot.
    ///
    /// # Errors
    /// Fails when the packing rejects the geometry.
    pub fn new(params: &KsPirParams, store: KvStore) -> Result<Self, ServeError> {
        let server = KsPirServer::new(params.clone(), &store.scalars())?;
        Ok(KeywordEngine {
            store: Mutex::new(store),
            server: RwLock::new(Arc::new(server)),
            epoch: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            trace: Arc::new(TraceRecorder::new()),
        })
    }

    /// Replaces the stage recorder (call before the engine is shared).
    pub fn set_trace(&mut self, trace: Arc<TraceRecorder>) {
        self.trace = trace;
    }

    /// The table layout clients need to map keys to slots.
    pub fn schema(&self) -> KvSchema {
        self.store.lock().expect("kv store poisoned").schema().clone()
    }

    /// The committed mutation epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Total slot writes committed over the engine's lifetime.
    #[inline]
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied.load(Ordering::Relaxed)
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.store.lock().expect("kv store poisoned").len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current epoch's packed server — a consistent snapshot the
    /// caller can answer from lock-free while mutations proceed.
    pub fn snapshot(&self) -> Arc<KsPirServer> {
        self.server.read().expect("kv server poisoned").clone()
    }

    /// Answers one slot-retrieval query against the current snapshot.
    ///
    /// The whole kspir evaluation (per-chunk plaintext products + trace,
    /// then the RGSW tournament) streams every packed chunk polynomial,
    /// so it lands in the recorder as one `RowSel` sample plus the scan
    /// bytes it covered — the keyword analogue of the index path's
    /// limb-major database pass.
    ///
    /// # Errors
    /// Propagates trace-pipeline failures.
    pub fn answer(&self, keys: &KsPirKeys, query: &KsPirQuery) -> Result<BfvCiphertext, PirError> {
        let snapshot = self.snapshot();
        let t = Instant::now();
        let out = snapshot.answer(keys, query);
        let scanned = t.elapsed();
        self.trace.record(Stage::RowSel, scanned);
        self.trace.record_scan(Self::scan_bytes_per_query(&snapshot), scanned);
        out
    }

    /// Bytes of packed chunk polynomials streamed per slot query (RNS
    /// residue form — the same accounting as the index path's
    /// `scan_bytes_per_pass`).
    fn scan_bytes_per_query(server: &KsPirServer) -> u64 {
        let he = server.params().he();
        let k = he.ring().basis().moduli().len() as u64;
        (server.params().chunks() as u64) * k * (he.n() as u64) * 8
    }

    /// Inserts or overwrites `key`, committing a new epoch. Only the
    /// scalar chunks covering the touched slots are re-packed.
    ///
    /// # Errors
    /// Fails when the cuckoo table cannot place the key (the table is
    /// rolled back — no epoch is opened) or the value exceeds `p`.
    pub fn put(&self, key: &[u8], value: u64) -> Result<u64, ServeError> {
        let mut store = self.store.lock().expect("kv store poisoned");
        let writes = store.insert(key, value)?;
        Ok(self.commit_writes(&writes))
    }

    /// Removes `key`; returns the new epoch, or `None` when the key was
    /// absent (no epoch is opened for a no-op).
    pub fn delete(&self, key: &[u8]) -> Option<u64> {
        let mut store = self.store.lock().expect("kv store poisoned");
        let writes = store.remove(key)?;
        Some(self.commit_writes(&writes))
    }

    /// Swaps in a snapshot with `writes` applied; the caller holds the
    /// store lock, so commits are serialized and every epoch's snapshot
    /// matches the table state that produced it.
    fn commit_writes(&self, writes: &[(usize, u64)]) -> u64 {
        if !writes.is_empty() {
            let t = Instant::now();
            let next = self
                .snapshot()
                .with_updates(writes)
                .expect("slot writes from the store are in range by construction");
            *self.server.write().expect("kv server poisoned") = Arc::new(next);
            self.trace.record(Stage::EpochCommit, t.elapsed());
        }
        self.updates_applied.fetch_add(writes.len() as u64, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ive_pir::PirClient;
    use rand::SeedableRng;

    fn setup() -> (PirParams, Database, Vec<Vec<u8>>) {
        let params = PirParams::toy();
        let records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("engine {i}").into_bytes()).collect();
        let db = Database::from_records(&params, &records).unwrap();
        (params, db, records)
    }

    fn engine(params: &PirParams, db: Database, plan: ShardPlan) -> ShardedEngine {
        engine_with(params, db, plan, BackendKind::default())
    }

    fn engine_with(
        params: &PirParams,
        db: Database,
        plan: ShardPlan,
        backend: BackendKind,
    ) -> ShardedEngine {
        ShardedEngine::new(params, db, plan, 1, TournamentOrder::Hs { subtree_depth: 2 }, backend)
            .unwrap()
    }

    #[test]
    fn sharded_batches_match_replicated_batches() {
        // Cross-plan AND cross-backend: the replicated engine runs the
        // portable kernels while the sharded engines run the widest
        // vector backend the host has (Avx512 resolves through the
        // runtime-probe fallback chain elsewhere) — answers must still
        // be bit-identical.
        let (params, db, records) = setup();
        let replicated =
            engine_with(&params, db.clone(), ShardPlan::Replicated, BackendKind::Optimized);
        for shards in [2usize, 4] {
            let sharded = engine_with(
                &params,
                db.clone(),
                ShardPlan::RowSharded { shards },
                BackendKind::Avx512,
            );
            assert_eq!(sharded.num_shards(), shards);
            let mut clients: Vec<_> = (0..3)
                .map(|i| {
                    PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(300 + i)).unwrap()
                })
                .collect();
            let targets = [2usize, 33, 63];
            let queries: Vec<_> =
                clients.iter_mut().zip(targets).map(|(c, t)| c.query(t).unwrap()).collect();
            let requests: Vec<_> =
                clients.iter().zip(&queries).map(|(c, q)| (c.public_keys(), q)).collect();
            let a = replicated.answer_batch(&requests).unwrap();
            let b = sharded.answer_batch(&requests).unwrap();
            assert_eq!(a, b, "{shards}-way sharding changed answers");
            for ((client, query), (ct, target)) in
                clients.iter().zip(&queries).zip(b.iter().zip(targets))
            {
                let plain = client.decode(query, ct).unwrap();
                assert_eq!(&plain[..records[target].len()], &records[target][..]);
            }
        }
    }

    /// The acceptance differential: after any update sequence, both the
    /// replicated and every sharded engine must answer **bit-identically**
    /// to an engine freshly built from the same contents — including
    /// deltas that straddle shard boundaries.
    #[test]
    fn updates_are_bit_identical_to_cold_rebuild_across_shard_plans() {
        let (params, db, mut records) = setup();
        // Deltas spanning both halves (and both quarters) of the row
        // space, so every shard of every plan absorbs at least one.
        let rows = params.num_rows();
        let updates = vec![
            RecordUpdate::put(0, b"first row changed".to_vec()),
            RecordUpdate::delete(params.d0() * (rows / 4) + 1),
            RecordUpdate::put(params.d0() * (rows / 2) + 2, b"across the boundary".to_vec()),
            RecordUpdate::put(params.num_records() - 1, b"last record".to_vec()),
            RecordUpdate::put(0, b"first row changed again".to_vec()),
        ];
        for u in &updates {
            match u {
                RecordUpdate::Put { index, bytes } => records[*index] = bytes.clone(),
                RecordUpdate::Delete { index } => records[*index] = Vec::new(),
            }
        }
        let rebuilt_db = Database::from_records(&params, &records).unwrap();

        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(400)).unwrap();
        for plan in [
            ShardPlan::Replicated,
            ShardPlan::RowSharded { shards: 2 },
            ShardPlan::RowSharded { shards: 4 },
        ] {
            // Updates prepared and served on the widest vector backend
            // must match a cold rebuild answered on the portable one.
            let live = engine_with(&params, db.clone(), plan, BackendKind::Avx512);
            assert_eq!(live.epoch(), 0);
            let epoch = live.apply_updates(&updates).unwrap();
            assert_eq!(epoch, 1);
            assert_eq!(live.updates_applied(), updates.len() as u64);
            let fresh = engine_with(&params, rebuilt_db.clone(), plan, BackendKind::Optimized);
            for target in [0usize, params.d0() * (rows / 2) + 2, params.num_records() - 1] {
                let query = client.query(target).unwrap();
                let a = live.answer(client.public_keys(), &query).unwrap();
                let b = fresh.answer(client.public_keys(), &query).unwrap();
                assert_eq!(a, b, "{plan:?} diverged from cold rebuild at {target}");
                let plain = client.decode(&query, &a).unwrap();
                assert_eq!(&plain[..records[target].len()], &records[target][..]);
            }
        }
    }

    #[test]
    fn staged_updates_invisible_until_commit() {
        let (params, db, records) = setup();
        let live = engine(&params, db, ShardPlan::RowSharded { shards: 2 });
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(401)).unwrap();
        let target = 11;
        live.stage_update(RecordUpdate::put(target, b"pending".to_vec())).unwrap();
        assert_eq!(live.staged_updates(), 1);
        let query = client.query(target).unwrap();
        let before = live.answer(client.public_keys(), &query).unwrap();
        let plain = client.decode(&query, &before).unwrap();
        assert_eq!(&plain[..records[target].len()], &records[target][..], "staged leak");
        assert_eq!(live.commit_updates().unwrap(), 1);
        assert_eq!(live.staged_updates(), 0);
        let after = live.answer(client.public_keys(), &query).unwrap();
        let plain = client.decode(&query, &after).unwrap();
        assert_eq!(&plain[..7], b"pending");
    }

    #[test]
    fn empty_commit_is_a_noop_and_bad_updates_leave_epoch_alone() {
        let (params, db, _) = setup();
        let live = engine(&params, db, ShardPlan::Replicated);
        assert_eq!(live.commit_updates().unwrap(), 0, "empty commit opened an epoch");
        assert!(matches!(
            live.apply_updates(&[RecordUpdate::delete(params.num_records())]),
            Err(PirError::IndexOutOfRange { .. })
        ));
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.updates_applied(), 0);
    }

    #[test]
    fn too_many_shards_rejected() {
        let (params, db, _) = setup();
        let shards = 2 * params.num_rows();
        let err = ShardedEngine::new(
            &params,
            db,
            ShardPlan::RowSharded { shards },
            1,
            TournamentOrder::Bfs,
            BackendKind::default(),
        );
        assert!(err.is_err());
    }

    /// The per-layer numbers the benchmark scrapes: one traced batch
    /// records one Expand, one RowSel per shard, one ColTor per shard
    /// plus the recombine (none with a single shard), and one scan pass
    /// covering the whole database.
    #[test]
    fn traced_batches_record_one_sample_per_stage_per_shard() {
        let (params, db, _) = setup();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(402)).unwrap();
        let queries = [client.query(3).unwrap(), client.query(60).unwrap()];
        let requests: Vec<_> = queries.iter().map(|q| (client.public_keys(), q)).collect();
        let he = params.he();
        let pass_bytes = (params.num_rows() * params.d0() * he.ring().basis().moduli().len())
            as u64
            * he.n() as u64
            * 8;
        for (plan, row_sels, col_tors) in
            [(ShardPlan::Replicated, 1, 1), (ShardPlan::RowSharded { shards: 2 }, 2, 3)]
        {
            let engine = engine(&params, db.clone(), plan);
            let mut span = Span::new();
            let answers =
                engine.answer_batch_traced(&requests, &mut QueryScratch::new(), &mut span).unwrap();
            assert_eq!(answers.len(), 2);
            let stats = engine.trace().stage_stats();
            let count = |stage: Stage| stats[stage as usize].count;
            assert_eq!(count(Stage::Expand), 1, "{plan:?}");
            assert_eq!(count(Stage::RowSel), row_sels, "{plan:?}");
            assert_eq!(count(Stage::ColTor), col_tors, "{plan:?}");
            assert_eq!(engine.trace().scan_bytes(), pass_bytes, "{plan:?}: one pass per batch");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let (params, db, _) = setup();
        let engine = engine(&params, db, ShardPlan::Replicated);
        assert!(engine.answer_batch(&[]).unwrap().is_empty());
    }

    /// Retrieves `key` through the full private path: one trace query per
    /// slot of each candidate bucket, decoded into a group and matched
    /// against the key's fingerprint.
    fn kv_get(
        engine: &KeywordEngine,
        client: &mut ive_pir::KsPirClient<rand::rngs::StdRng>,
        key: &[u8],
    ) -> Option<u64> {
        let schema = engine.schema();
        for bucket in schema.candidates(key) {
            let base = schema.slot_of(bucket);
            let group: Vec<u64> = (0..schema.group_slots())
                .map(|i| {
                    let query = client.query(base + i).unwrap();
                    let ct = engine.answer(client.public_keys(), &query).unwrap();
                    client.decode(&ct).unwrap()
                })
                .collect();
            if let Some(value) = schema.decode_group(key, &group) {
                return Some(value);
            }
        }
        None
    }

    #[test]
    fn keyword_engine_serves_and_mutates_by_key() {
        let params = KsPirParams::toy();
        let entries = vec![(b"alice".to_vec(), 7u64), (b"bob".to_vec(), 13)];
        let store = KvStore::build(&params, &entries).unwrap();
        let engine = KeywordEngine::new(&params, store).unwrap();
        assert_eq!(engine.len(), 2);
        let mut client =
            ive_pir::KsPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(500)).unwrap();

        assert_eq!(kv_get(&engine, &mut client, b"alice"), Some(7));
        assert_eq!(kv_get(&engine, &mut client, b"nobody"), None);

        // Mutations open epochs and are immediately visible (read-your-
        // writes): the snapshot swaps before put/delete return.
        assert_eq!(engine.put(b"alice", 99).unwrap(), 1);
        assert_eq!(kv_get(&engine, &mut client, b"alice"), Some(99));
        assert!(engine.delete(b"nobody").is_none(), "no-op delete must not open an epoch");
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.delete(b"bob"), Some(2));
        assert_eq!(kv_get(&engine, &mut client, b"bob"), None);
        assert!(engine.updates_applied() > 0);
    }
}
