//! The assembled serving process: transport acceptor, per-connection
//! handlers, session registration, and the batching pipeline.
//!
//! Thread anatomy (all plain `std::thread`, no async runtime):
//!
//! ```text
//! acceptor ──spawns──► handler (1/conn) ──Job──► dispatcher ──batch──► workers
//!                         │ ▲                                            │
//!                         ▼ │ outgoing frames ◄──────────────────────────┘
//!                       writer (1/conn)
//! ```
//!
//! Every queue in the picture is bounded; a saturated worker pool blocks
//! the dispatcher, a full job queue blocks the handlers, and the TCP
//! receive buffers absorb the rest — clients feel backpressure instead of
//! the server melting.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use ive_pir::kspir::{KsPirKeys, KsPirParams};
use ive_pir::{wire, Database, Journal, KvStore, PirParams};

use crate::batcher::{self, Job};
use crate::config::ServeConfig;
use crate::engine::{KeywordEngine, ShardedEngine};
use crate::error_frame;
use crate::metrics::{Metrics, ServerStats};
use crate::session::SessionManager;
use crate::trace::{Stage, TraceRecorder};
use crate::transport::{BoxedConn, FrameTx, Received, Transport};
use crate::ServeError;

/// The serving runtime entry point.
pub struct PirService;

impl PirService {
    /// Builds the engine, spawns the pipeline, and starts accepting
    /// connections from `transport`. Returns immediately; the service
    /// runs on background threads until [`ServiceHandle::shutdown`].
    ///
    /// # Errors
    /// Fails on invalid configuration or a database/geometry mismatch.
    pub fn start(
        config: ServeConfig,
        params: &PirParams,
        db: Database,
        mut transport: Box<dyn Transport>,
    ) -> Result<ServiceHandle, ServeError> {
        config.validate()?;
        // One recorder shared by every layer: handlers (Decode), the
        // dispatcher (QueueWait), the workers (Compress/Encode + the
        // slow-query ring), and the engine (Expand/RowSel/ColTor,
        // journal/commit, scan bandwidth).
        let metrics = Arc::new(Metrics::with_trace(Arc::new(TraceRecorder::with_limits(
            config.slow_threshold,
            config.trace_ring,
        ))));
        let mut engine = ShardedEngine::new(
            params,
            db,
            config.shard,
            config.rowsel_threads,
            config.order,
            config.backend,
        )?;
        engine.set_trace(Arc::clone(metrics.trace()));
        let engine = Arc::new(engine);
        // Crash recovery: batches a previous process journaled but never
        // committed are replayed (in append order) before the first
        // connection is accepted, then the journal attaches so every new
        // staged batch is durable before it is visible.
        if let Some(path) = &config.journal {
            let (mut journal, batches) = Journal::open(path, params)?;
            for batch in &batches {
                engine.apply_updates(batch)?;
            }
            journal.checkpoint()?;
            engine.set_journal(journal);
        }
        // The session cache and the metrics plane share one eviction
        // counter, so LRU churn is visible in every stats scrape.
        let sessions = Arc::new(SessionManager::with_eviction_counter(
            params,
            config.max_sessions,
            metrics.session_eviction_counter(),
        ));
        let shutdown = Arc::new(AtomicBool::new(false));
        let endpoint = transport.endpoint();

        let batcher = batcher::spawn(&config, Arc::clone(&engine), Arc::clone(&metrics));
        let mut threads = batcher.threads;
        let jobs = batcher.jobs;
        let draining = batcher.draining;
        let abort = batcher.abort;
        let dedup = Arc::new(UpdateDedup::new(UPDATE_DEDUP_CAP));

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let sessions = Arc::clone(&sessions);
            let metrics = Arc::clone(&metrics);
            let engine = Arc::clone(&engine);
            let accept_updates = config.accept_updates;
            let queue_depth = config.queue_depth;
            let idle_timeout = config.idle_timeout;
            let jobs = jobs.clone();
            std::thread::Builder::new()
                .name("ive-serve-accept".into())
                .spawn(move || {
                    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
                    while !shutdown.load(Ordering::Relaxed) {
                        // Reap finished handlers so a long-lived server
                        // with many short connections doesn't accumulate
                        // join handles without bound — and *join* them,
                        // counting (not propagating) panics: one hostile
                        // or unlucky connection must never take down the
                        // acceptor and with it the whole service.
                        for h in extract_finished(&mut handlers) {
                            if h.join().is_err() {
                                metrics.worker_panicked();
                            }
                        }
                        match transport.accept() {
                            Ok(Some(conn)) => {
                                let ctx = HandlerCtx {
                                    sessions: Arc::clone(&sessions),
                                    metrics: Arc::clone(&metrics),
                                    engine: Arc::clone(&engine),
                                    accept_updates,
                                    queue_depth,
                                    idle_timeout,
                                    dedup: Arc::clone(&dedup),
                                    jobs: jobs.clone(),
                                    shutdown: Arc::clone(&shutdown),
                                };
                                handlers.push(
                                    std::thread::Builder::new()
                                        .name("ive-serve-conn".into())
                                        .spawn(move || handle_connection(conn, &ctx))
                                        .expect("spawn connection handler"),
                                );
                            }
                            Ok(None) => {}
                            Err(_) => break, // listener broke: stop accepting
                        }
                    }
                    for h in handlers {
                        if h.join().is_err() {
                            metrics.worker_panicked();
                        }
                    }
                })
                .expect("spawn acceptor")
        };
        threads.push(acceptor);

        Ok(ServiceHandle {
            shutdown,
            draining,
            abort,
            jobs: Some(jobs),
            threads,
            metrics,
            sessions,
            engine,
            endpoint,
        })
    }

    /// Starts a **keyword** (key-value) service: clients upload `log N`
    /// trace keys once ([`wire::Tag::KsHello`]), learn the table layout
    /// from the [`wire::Tag::KsWelcome`] reply, and then retrieve scalar
    /// slots privately with [`wire::Tag::KsQuery`] frames — the
    /// [`crate::KvClient`] turns those into `get(key)`. With
    /// [`ServeConfig::accept_updates`] opted in, [`wire::Tag::KvUpdate`]
    /// frames put/delete keys; each mutation re-packs only the touched
    /// chunks and commits as one epoch with read-your-writes.
    ///
    /// Trace queries are answered inline on the connection handler (no
    /// waiting window: a keyword `get` is a fixed fan-out of small slot
    /// retrievals, and cross-connection batching would only add latency).
    /// [`ServeConfig::compress_responses`] applies: answers travel
    /// modulus-switched as [`wire::Tag::CompressedResponse`] frames.
    ///
    /// [`wire::Tag::KsHello`]: ive_pir::wire::Tag::KsHello
    /// [`wire::Tag::KsWelcome`]: ive_pir::wire::Tag::KsWelcome
    /// [`wire::Tag::KsQuery`]: ive_pir::wire::Tag::KsQuery
    /// [`wire::Tag::KvUpdate`]: ive_pir::wire::Tag::KvUpdate
    /// [`wire::Tag::CompressedResponse`]: ive_pir::wire::Tag::CompressedResponse
    ///
    /// # Errors
    /// Fails on invalid configuration or a store/geometry mismatch.
    pub fn start_keyword(
        config: ServeConfig,
        params: &KsPirParams,
        store: KvStore,
        mut transport: Box<dyn Transport>,
    ) -> Result<KeywordHandle, ServeError> {
        config.validate()?;
        let metrics = Arc::new(Metrics::with_trace(Arc::new(TraceRecorder::with_limits(
            config.slow_threshold,
            config.trace_ring,
        ))));
        let mut engine = KeywordEngine::new(params, store)?;
        engine.set_trace(Arc::clone(metrics.trace()));
        let engine = Arc::new(engine);
        let sessions = Arc::new(SessionManager::with_eviction_counter(
            params,
            config.max_sessions,
            metrics.session_eviction_counter(),
        ));
        let shutdown = Arc::new(AtomicBool::new(false));
        let endpoint = transport.endpoint();

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let ctx_proto = KsHandlerCtx {
                sessions,
                metrics: Arc::clone(&metrics),
                engine: Arc::clone(&engine),
                accept_updates: config.accept_updates,
                compress: config.compress_responses,
                idle_timeout: config.idle_timeout,
                dedup: Arc::new(UpdateDedup::new(UPDATE_DEDUP_CAP)),
                shutdown: Arc::clone(&shutdown),
            };
            std::thread::Builder::new()
                .name("ive-kv-accept".into())
                .spawn(move || {
                    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
                    while !shutdown.load(Ordering::Relaxed) {
                        for h in extract_finished(&mut handlers) {
                            if h.join().is_err() {
                                ctx_proto.metrics.worker_panicked();
                            }
                        }
                        match transport.accept() {
                            Ok(Some(conn)) => {
                                let ctx = ctx_proto.clone();
                                handlers.push(
                                    std::thread::Builder::new()
                                        .name("ive-kv-conn".into())
                                        .spawn(move || handle_ks_connection(conn, &ctx))
                                        .expect("spawn keyword handler"),
                                );
                            }
                            Ok(None) => {}
                            Err(_) => break,
                        }
                    }
                    for h in handlers {
                        if h.join().is_err() {
                            ctx_proto.metrics.worker_panicked();
                        }
                    }
                })
                .expect("spawn keyword acceptor")
        };

        Ok(KeywordHandle { shutdown, threads: vec![acceptor], metrics, engine, endpoint })
    }
}

/// Bound on remembered update request ids; old entries fall out FIFO.
/// Sized so a retry storm (seconds of acks lost in transit) still finds
/// its original ack, while the cache stays a few hundred KB at most.
const UPDATE_DEDUP_CAP: usize = 4096;

/// The server half of update idempotency: a bounded map from update
/// request id to the `(epoch, applied)` it originally acked with. A
/// retried batch whose first attempt *did* commit — the ack was lost, not
/// the work — hits this cache and is re-acked verbatim instead of applied
/// twice. Shared across connections, because a retry typically arrives on
/// a *fresh* connection after the first one died.
struct UpdateDedup {
    cap: usize,
    /// The id → ack map plus the FIFO insertion order used for eviction.
    inner: Mutex<(HashMap<u64, AckedUpdate>, VecDeque<u64>)>,
}

/// What an update batch was originally acked with: `(epoch, applied)`.
type AckedUpdate = (u64, u32);

impl UpdateDedup {
    fn new(cap: usize) -> Self {
        UpdateDedup { cap, inner: Mutex::new((HashMap::new(), VecDeque::new())) }
    }

    /// The original ack for `request_id`, if this batch already committed.
    fn get(&self, request_id: u64) -> Option<(u64, u32)> {
        self.inner.lock().expect("dedup lock poisoned").0.get(&request_id).copied()
    }

    /// Remembers a committed batch's ack (id 0 is the protocol's
    /// connection-level sentinel and is never cached).
    fn insert(&self, request_id: u64, epoch: u64, applied: u32) {
        if request_id == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("dedup lock poisoned");
        let (map, order) = &mut *inner;
        if map.insert(request_id, (epoch, applied)).is_none() {
            order.push_back(request_id);
            while order.len() > self.cap {
                if let Some(old) = order.pop_front() {
                    map.remove(&old);
                }
            }
        }
    }
}

/// Removes and returns the handles whose threads have finished.
fn extract_finished(handles: &mut Vec<JoinHandle<()>>) -> Vec<JoinHandle<()>> {
    let mut done = Vec::new();
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            done.push(handles.swap_remove(i));
        } else {
            i += 1;
        }
    }
    done
}

/// Shared state a connection handler needs.
struct HandlerCtx {
    sessions: Arc<SessionManager>,
    metrics: Arc<Metrics>,
    engine: Arc<ShardedEngine>,
    accept_updates: bool,
    /// Admission queue bound, reported in [`ServeError::Busy`] rejections.
    queue_depth: usize,
    /// Per-connection idle deadline (see [`ServeConfig::idle_timeout`]).
    idle_timeout: Option<Duration>,
    /// Update idempotency cache, shared by every connection.
    dedup: Arc<UpdateDedup>,
    jobs: SyncSender<Job>,
    shutdown: Arc<AtomicBool>,
}

/// Serves one connection until the peer leaves, the idle deadline
/// expires, or shutdown is flagged.
fn handle_connection(conn: BoxedConn, ctx: &HandlerCtx) {
    let (mut rx, tx) = conn;
    // Responses arrive asynchronously from the workers; a dedicated
    // writer serializes them onto the socket.
    let (out_tx, out_rx) = mpsc::channel::<Bytes>();
    let writer = std::thread::Builder::new()
        .name("ive-serve-write".into())
        .spawn(move || {
            let mut tx: Box<dyn FrameTx> = tx;
            for frame in out_rx {
                if tx.send(&frame).is_err() {
                    break; // peer gone; drain and exit with the channel
                }
            }
        })
        .expect("spawn connection writer");

    // Whether this connection already registered a session: a second
    // Hello is a client recovering, counted as a reconnect.
    let mut registered = false;
    let mut last_activity = Instant::now();
    // The flag is checked every iteration (not only when idle) so a
    // client that streams frames continuously cannot pin the handler —
    // and with it the whole shutdown sequence — forever.
    while !ctx.shutdown.load(Ordering::Relaxed) {
        match rx.recv() {
            Ok(Received::Frame(frame)) => {
                last_activity = Instant::now();
                if handle_frame(&frame, ctx, &out_tx, &mut registered).is_err() {
                    break; // outgoing channel gone: writer saw a dead peer
                }
            }
            Ok(Received::Idle) => {
                // A silent peer can pin this thread (and delay shutdown)
                // only until the idle deadline.
                if let Some(limit) = ctx.idle_timeout {
                    if last_activity.elapsed() >= limit {
                        ctx.metrics.timeout_closed();
                        break;
                    }
                }
            }
            Ok(Received::Closed) | Err(_) => break,
        }
    }
    drop(out_tx);
    writer.join().expect("connection writer panicked");
}

/// Dispatches one inbound frame; `Err` means the connection is dead.
fn handle_frame(
    frame: &Bytes,
    ctx: &HandlerCtx,
    out: &mpsc::Sender<Bytes>,
    registered: &mut bool,
) -> Result<(), ServeError> {
    let sessions = &ctx.sessions;
    let he = sessions.params().he();
    let reply = |bytes: Bytes| out.send(bytes).map_err(|_| ServeError::Closed);
    match wire::peek_tag(frame) {
        Ok(wire::Tag::Hello) => match wire::decode_hello(he, frame) {
            Ok(keys) => match sessions.register(keys) {
                Ok(id) => {
                    // A repeat Hello on one connection is a client
                    // recovering an evicted session.
                    if std::mem::replace(registered, true) {
                        ctx.metrics.reconnect_registered();
                    }
                    reply(wire::encode_welcome(id))
                }
                Err(e) => reply(error_frame(0, &e)),
            },
            Err(e) => reply(error_frame(0, &e)),
        },
        Ok(wire::Tag::SessionQuery) => {
            let decode_started = Instant::now();
            match wire::decode_session_query(he, frame) {
                Ok((session_id, request_id, query)) => {
                    let decode = decode_started.elapsed();
                    ctx.metrics.trace().record(Stage::Decode, decode);
                    match sessions.lookup(session_id) {
                        Some(keys) => {
                            let now = Instant::now();
                            let job = Job {
                                keys,
                                query,
                                request_id,
                                session_id,
                                enqueued: now,
                                dequeued: now,
                                decode,
                                reply: out.clone(),
                            };
                            // Admission control: never block the handler
                            // on a saturated pipeline. A full queue means
                            // the service is at its ceiling, and queueing
                            // further would only convert overload into
                            // unbounded latency — shed with a typed,
                            // retryable rejection instead.
                            ctx.metrics.job_enqueued();
                            match ctx.jobs.try_send(job) {
                                Ok(()) => {}
                                Err(mpsc::TrySendError::Full(_)) => {
                                    ctx.metrics.job_dequeued();
                                    ctx.metrics.query_rejected_busy();
                                    reply(error_frame(
                                        request_id,
                                        &ServeError::Busy { queue_depth: ctx.queue_depth },
                                    ))?;
                                }
                                Err(mpsc::TrySendError::Disconnected(_)) => {
                                    // Pipeline is shutting down.
                                    ctx.metrics.job_dequeued();
                                    reply(error_frame(request_id, &ServeError::Closed))?;
                                }
                            }
                            Ok(())
                        }
                        None => {
                            ctx.metrics.query_failed();
                            reply(error_frame(request_id, &ServeError::UnknownSession(session_id)))
                        }
                    }
                }
                Err(e) => reply(error_frame(0, &e)),
            }
        }
        Ok(wire::Tag::UpdateRow) => {
            match wire::decode_update_rows(ctx.sessions.params(), frame) {
                Ok((request_id, updates)) => {
                    if !ctx.accept_updates {
                        return reply(error_frame(
                            request_id,
                            &ServeError::Protocol("this service is read-only".into()),
                        ));
                    }
                    // Idempotency: a batch whose ack was lost in transit
                    // is retried under the same request id — re-ack the
                    // original commit instead of applying it again.
                    if request_id != 0 {
                        if let Some((epoch, applied)) = ctx.dedup.get(request_id) {
                            ctx.metrics.retry_detected();
                            return reply(wire::encode_update_ack(request_id, epoch, applied));
                        }
                    }
                    // Validation + the §II-B NTT lift run here, on the
                    // connection handler thread — the query workers never
                    // see an update until it is a memcpy-and-swap.
                    match ctx.engine.apply_updates(&updates) {
                        Ok(epoch) => {
                            ctx.metrics.update_committed(updates.len(), epoch);
                            ctx.dedup.insert(request_id, epoch, updates.len() as u32);
                            reply(wire::encode_update_ack(request_id, epoch, updates.len() as u32))
                        }
                        Err(e) => reply(error_frame(request_id, &e)),
                    }
                }
                Err(e) => reply(error_frame(0, &e)),
            }
        }
        // Observability is unconditional: any connection may scrape the
        // live counters (they reveal aggregate load, never query contents).
        Ok(wire::Tag::GetStats) => match wire::decode_get_stats(frame) {
            Ok(request_id) => {
                match wire::encode_stats_response(request_id, &ctx.metrics.report()) {
                    Ok(bytes) => reply(bytes),
                    Err(e) => reply(error_frame(request_id, &e)),
                }
            }
            Err(e) => reply(error_frame(0, &e)),
        },
        Ok(tag) => {
            reply(error_frame(0, &ServeError::Protocol(format!("unexpected {} frame", tag.name()))))
        }
        Err(e) => reply(error_frame(0, &e)),
    }
}

/// Shared state a keyword connection handler needs.
#[derive(Clone)]
struct KsHandlerCtx {
    sessions: Arc<SessionManager<KsPirKeys>>,
    metrics: Arc<Metrics>,
    engine: Arc<KeywordEngine>,
    accept_updates: bool,
    compress: bool,
    /// Per-connection idle deadline (see [`ServeConfig::idle_timeout`]).
    idle_timeout: Option<Duration>,
    /// Mutation idempotency cache, shared by every connection.
    dedup: Arc<UpdateDedup>,
    shutdown: Arc<AtomicBool>,
}

/// Serves one keyword connection until the peer leaves, the idle
/// deadline expires, or shutdown. Queries are answered inline (no
/// batcher): the reply order matches the request order, and the
/// per-connection writer thread is unnecessary.
fn handle_ks_connection(conn: BoxedConn, ctx: &KsHandlerCtx) {
    let (mut rx, mut tx) = conn;
    let mut registered = false;
    let mut last_activity = Instant::now();
    while !ctx.shutdown.load(Ordering::Relaxed) {
        match rx.recv() {
            Ok(Received::Frame(frame)) => {
                last_activity = Instant::now();
                let reply = handle_ks_frame(&frame, ctx, &mut registered);
                if tx.send(&reply).is_err() {
                    break; // peer gone
                }
            }
            Ok(Received::Idle) => {
                if let Some(limit) = ctx.idle_timeout {
                    if last_activity.elapsed() >= limit {
                        ctx.metrics.timeout_closed();
                        break;
                    }
                }
            }
            Ok(Received::Closed) | Err(_) => break,
        }
    }
}

/// Dispatches one inbound keyword frame and produces its reply frame.
fn handle_ks_frame(frame: &Bytes, ctx: &KsHandlerCtx, registered: &mut bool) -> Bytes {
    let params = ctx.sessions.params();
    let he = params.he();
    match wire::peek_tag(frame) {
        Ok(wire::Tag::KsHello) => match wire::decode_ks_hello(he, frame) {
            Ok(keys) => match ctx.sessions.register(keys) {
                Ok(id) => {
                    if std::mem::replace(registered, true) {
                        ctx.metrics.reconnect_registered();
                    }
                    wire::encode_ks_welcome(id, &ctx.engine.schema())
                }
                Err(e) => error_frame(0, &e),
            },
            Err(e) => error_frame(0, &e),
        },
        Ok(wire::Tag::KsQuery) => {
            let decode_started = Instant::now();
            match wire::decode_ks_query(params, frame) {
                Ok((session_id, request_id, query)) => {
                    let trace = ctx.metrics.trace();
                    trace.record(Stage::Decode, decode_started.elapsed());
                    match ctx.sessions.lookup(session_id) {
                        Some(keys) => {
                            let start = Instant::now();
                            let framed = ctx.engine.answer(&keys, &query).and_then(|ct| {
                                if ctx.compress {
                                    let t = Instant::now();
                                    let switched =
                                        ive_he::modswitch::switch_to_first_prime(he, &ct)?;
                                    trace.record(Stage::Compress, t.elapsed());
                                    let t = Instant::now();
                                    let bytes =
                                        wire::encode_compressed_response(request_id, &switched);
                                    trace.record(Stage::Encode, t.elapsed());
                                    Ok(bytes)
                                } else {
                                    let t = Instant::now();
                                    let bytes = wire::encode_ks_response(request_id, &ct);
                                    trace.record(Stage::Encode, t.elapsed());
                                    Ok(bytes)
                                }
                            });
                            match framed {
                                Ok(reply) => {
                                    ctx.metrics.query_done(start.elapsed());
                                    reply
                                }
                                Err(e) => {
                                    ctx.metrics.query_failed();
                                    error_frame(request_id, &e)
                                }
                            }
                        }
                        None => {
                            ctx.metrics.query_failed();
                            error_frame(request_id, &ServeError::UnknownSession(session_id))
                        }
                    }
                }
                Err(e) => error_frame(0, &e),
            }
        }
        Ok(wire::Tag::KvUpdate) => match wire::decode_kv_update(frame) {
            Ok((request_id, key, value)) => {
                if !ctx.accept_updates {
                    return error_frame(
                        request_id,
                        &ServeError::Protocol("this service is read-only".into()),
                    );
                }
                // Idempotency: a retried mutation whose ack was lost is
                // re-acked with its original commit, never applied twice.
                if request_id != 0 {
                    if let Some((epoch, applied)) = ctx.dedup.get(request_id) {
                        ctx.metrics.retry_detected();
                        return wire::encode_update_ack(request_id, epoch, applied);
                    }
                }
                let committed = match value {
                    Some(v) => ctx.engine.put(&key, v).map(|epoch| (epoch, 1)),
                    // Deleting an absent key is a no-op, acked with the
                    // current epoch and zero applied mutations.
                    None => Ok(ctx
                        .engine
                        .delete(&key)
                        .map_or_else(|| (ctx.engine.epoch(), 0), |epoch| (epoch, 1))),
                };
                match committed {
                    Ok((epoch, applied)) => {
                        ctx.metrics.update_committed(applied as usize, epoch);
                        ctx.dedup.insert(request_id, epoch, applied);
                        wire::encode_update_ack(request_id, epoch, applied)
                    }
                    Err(e) => error_frame(request_id, &e),
                }
            }
            Err(e) => error_frame(0, &e),
        },
        Ok(wire::Tag::GetStats) => match wire::decode_get_stats(frame) {
            Ok(request_id) => {
                match wire::encode_stats_response(request_id, &ctx.metrics.report()) {
                    Ok(bytes) => bytes,
                    Err(e) => error_frame(request_id, &e),
                }
            }
            Err(e) => error_frame(0, &e),
        },
        Ok(tag) => {
            error_frame(0, &ServeError::Protocol(format!("unexpected {} frame", tag.name())))
        }
        Err(e) => error_frame(0, &e),
    }
}

/// A running keyword service: stats, engine access, and shutdown.
pub struct KeywordHandle {
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    metrics: Arc<Metrics>,
    engine: Arc<KeywordEngine>,
    endpoint: String,
}

impl KeywordHandle {
    /// The transport endpoint the service listens on.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.metrics.snapshot()
    }

    /// The keyword engine — e.g. to mutate in-process or read the epoch.
    pub fn engine(&self) -> &KeywordEngine {
        &self.engine
    }

    /// Stops accepting, drains connections, and joins every thread.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.metrics.snapshot()
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            if t.join().is_err() {
                self.metrics.worker_panicked();
            }
        }
    }
}

impl Drop for KeywordHandle {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.stop();
        }
    }
}

/// A running service: stats, session access, and shutdown.
pub struct ServiceHandle {
    shutdown: Arc<AtomicBool>,
    /// Marks the drain phase: queries answered after this are counted in
    /// `ServerStats.drained_jobs`.
    draining: Arc<AtomicBool>,
    /// Drain-deadline escape hatch: workers answer instead of compute.
    abort: Arc<AtomicBool>,
    jobs: Option<SyncSender<Job>>,
    threads: Vec<JoinHandle<()>>,
    metrics: Arc<Metrics>,
    sessions: Arc<SessionManager>,
    engine: Arc<ShardedEngine>,
    endpoint: String,
}

impl ServiceHandle {
    /// The transport endpoint the service listens on.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.metrics.snapshot()
    }

    /// The session manager (e.g. to inspect or evict cached keys).
    pub fn sessions(&self) -> &SessionManager {
        &self.sessions
    }

    /// The query engine — e.g. to apply updates in-process (without a
    /// wire round-trip) or to read the committed [`ShardedEngine::epoch`].
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Stops accepting, drains in-flight work, and joins every thread.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop(None);
        self.metrics.snapshot()
    }

    /// Graceful drain with a ceiling: stops accepting, lets queued work
    /// finish for up to `deadline`, then flips the abort flag so every
    /// remaining job is answered with a typed shutdown error instead of
    /// computed — the caller gets the threads back either way. Queries
    /// answered during the drain are counted in
    /// `ServerStats.drained_jobs`; the update journal is flushed (staged
    /// batches commit and the checkpoint truncates) before returning, so
    /// a clean shutdown leaves no replay work behind.
    pub fn shutdown_deadline(mut self, deadline: Duration) -> ServerStats {
        self.stop(Some(deadline));
        self.metrics.snapshot()
    }

    fn stop(&mut self, deadline: Option<Duration>) {
        // Order matters: the drain marker must be visible before any
        // worker can observe the shutdown flag, or a drained job could
        // go uncounted.
        self.draining.store(true, Ordering::Relaxed);
        self.shutdown.store(true, Ordering::Relaxed);
        // Dropping the last submission handle lets the dispatcher drain
        // and exit once the handlers (who hold clones) notice the flag.
        self.jobs = None;
        if let Some(deadline) = deadline {
            let start = Instant::now();
            while start.elapsed() < deadline && self.threads.iter().any(|t| !t.is_finished()) {
                std::thread::sleep(Duration::from_millis(5));
            }
            // Deadline passed with work still in flight: stop computing
            // and answer what remains with typed errors.
            self.abort.store(true, Ordering::Relaxed);
        }
        for t in self.threads.drain(..) {
            if t.join().is_err() {
                self.metrics.worker_panicked();
            }
        }
        // Journal hygiene: anything staged but uncommitted commits now
        // (and the checkpoint truncates the file), so a clean shutdown
        // never leaves replay work behind. Failures are deliberately
        // ignored — at teardown the journal on disk is still replayable.
        let _ = self.engine.commit_updates();
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.stop(None);
        }
    }
}
