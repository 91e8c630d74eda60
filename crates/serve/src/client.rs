//! Blocking clients for the serving runtime, all built from one
//! [`Connection`] entry point: [`ServeClient`] for private retrieval by
//! index (one handshake uploading the keys, then any number of
//! `retrieve` calls shipping only the small per-query payload),
//! [`KvClient`] for private retrieval **by key** over a keyword service,
//! and [`UpdateClient`] for content ingestion (row put/delete batches,
//! each acknowledged with the epoch it committed as — no keys, no
//! session).
//!
//! ## Self-healing
//!
//! A [`Connection`] built with [`Connection::dial`] keeps its
//! [`Connector`], so the typed clients can *recover* from transient
//! failures instead of surfacing them. One retry driver runs under all
//! three: a [`RetryPolicy`] bounds the attempts and paces them with
//! capped exponential backoff (deterministically jittered), a dead
//! transport is re-dialed, an `unknown session` refusal re-registers in
//! place — key material is client-side, so an evicted or lost session
//! costs one `Hello` — and a `Busy` rejection backs off and retries on
//! the live connection. In-flight queries are resubmitted under the new
//! session. Updates are made retry-safe by idempotency: every batch
//! carries a process-unique request id the server remembers, so a
//! retried already-acked batch is re-acked, never re-applied.
//!
//! Replies are matched by one rule: a frame answers an exchange only if
//! it carries that exchange's request id (a `Hello` is the id-0
//! exchange), or is an `Error` frame with id 0 — a failure the server
//! could not attribute. Every other frame is stale: the index client
//! keeps it for its pipelined reads, the others drop it.
//! [`RetryCounters`] (shared via [`Connection::retry_counters`]) expose
//! what the recovery machinery did.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use ive_pir::kspir::{KsPirClient, KsPirParams};
use ive_pir::{wire, KvSchema, PirClient, PirParams, PirQuery, RecordUpdate};

use crate::metrics::ServerStats;
use crate::transport::{BoxedConn, Connector, FrameRx, FrameTx, Received};
use crate::ServeError;

/// How long a client waits for any single response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

/// How a client paces recovery: total attempt budget plus capped
/// exponential backoff between attempts, with deterministic jitter (the
/// jitter decorrelates a thundering herd without making test runs
/// unreproducible — same seed, same delays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts for one operation, the first included; `1` means
    /// no retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; attempt `n` waits up to
    /// `base_backoff << n`.
    pub base_backoff: Duration,
    /// Ceiling the exponential backoff saturates at.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0x17E_5EED,
        }
    }
}

impl RetryPolicy {
    /// The no-retry policy: every failure surfaces immediately (what
    /// [`Connection::new`] defaults to — a connection without a
    /// connector cannot re-dial anyway).
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// The pause before retry number `attempt` (0-based): capped
    /// exponential, jittered into `[d/2, d]` so concurrent clients
    /// spread out. Deterministic in `(jitter_seed, attempt)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .min(self.max_backoff);
        let nanos = u64::try_from(exp.as_nanos()).unwrap_or(u64::MAX);
        let mix = mix64(self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Duration::from_nanos(nanos / 2 + mix % (nanos / 2 + 1))
    }
}

/// What the recovery machinery did on a connection's behalf — shared
/// atomics ([`Connection::retry_counters`]) so callers can read them
/// while the typed client owns the connection.
#[derive(Debug, Default)]
pub struct RetryCounters {
    retries: AtomicU64,
    reconnects: AtomicU64,
    timeouts: AtomicU64,
}

impl RetryCounters {
    /// Operations retried after a transient failure.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Fresh connections dialed (and handshakes replayed) to recover.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Response deadlines that expired.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
}

/// SplitMix64 finalizer: cheap deterministic mixing for jitter and
/// request-id bases (not cryptographic).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A process-unique update request id: a random per-process base
/// (time ⊕ pid, mixed) plus a counter. Uniqueness is what makes retried
/// updates idempotent — the server's dedup cache is keyed by these ids,
/// so two updaters in one process (or across processes) must never draw
/// the same id for different batches.
fn unique_request_id() -> u64 {
    use std::sync::OnceLock;
    static BASE: OnceLock<u64> = OnceLock::new();
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let base = *BASE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        mix64(nanos ^ (u64::from(std::process::id()) << 32))
    });
    let id = base.wrapping_add(SEQ.fetch_add(1, Ordering::Relaxed));
    // 0 is the connection-level sentinel in error frames; skip it.
    if id == 0 {
        1
    } else {
        id
    }
}

/// A server frame's tag and the request id it answers (0 for the id-less
/// handshake replies: a Hello is the id-0 exchange).
fn reply_id(frame: &Bytes) -> Result<(wire::Tag, u64), ServeError> {
    Ok((wire::peek_tag(frame)?, wire::peek_request_id(frame)?.unwrap_or(0)))
}

/// The single frame-matching rule: a frame answers an exchange only if it
/// carries one of the exchange's request ids, or is an `Error` frame with
/// id 0 (a failure the server could not attribute). Every other frame is
/// stale.
fn claims(tag: wire::Tag, id: u64, wants: impl Fn(u64) -> bool) -> bool {
    wants(id) || (tag == wire::Tag::Error && id == 0)
}

/// The typed error an `Error` frame carries.
fn remote(frame: &Bytes) -> Result<ServeError, ServeError> {
    let (request_id, message) = wire::decode_error_frame(frame)?;
    Ok(ServeError::Remote { request_id, message })
}

/// What a typed client adds to the shared [`Link`] machinery: its key
/// registration, where stale frames go, and what a re-dial loses.
trait Role {
    /// The frame registering this client's keys ([`wire::Tag::Hello`] or
    /// [`wire::Tag::KsHello`]); `None` for a sessionless client.
    fn hello(&self) -> Option<Bytes>;

    /// Adopts the server's Welcome, returning the new session id.
    fn welcome(&mut self, frame: &Bytes) -> Result<u64, ServeError>;

    /// A frame that answered no exchange (dropped unless overridden).
    fn stale(&mut self, _frame: Bytes) {}

    /// The connection was replaced: requests in flight on the old one
    /// are lost.
    fn redialed(&mut self) {}
}

/// The role of the sessionless [`UpdateClient`].
struct Sessionless;

impl Role for Sessionless {
    fn hello(&self) -> Option<Bytes> {
        None
    }

    fn welcome(&mut self, _frame: &Bytes) -> Result<u64, ServeError> {
        Err(ServeError::Protocol("an update connection holds no session".into()))
    }
}

/// How the retry driver recovers from one failed attempt.
enum Recovery {
    /// The server forgot the session: re-register on this connection.
    Rehello,
    /// Overload: back off and retry on this connection.
    Backoff,
    /// The transport failed: back off and dial a fresh connection.
    Redial,
}

/// The shared plumbing under every typed client: the live frame pair
/// plus everything needed to replace it — the connector, the retry
/// policy pacing recovery, the per-response deadline, and the counters —
/// and the session the client holds on it.
struct Link {
    rx: Box<dyn FrameRx>,
    tx: Box<dyn FrameTx>,
    connector: Option<Box<dyn Connector>>,
    retry: RetryPolicy,
    timeout: Duration,
    counters: Arc<RetryCounters>,
    /// The registered session; `None` until the next (re-)Hello.
    session: Option<u64>,
}

impl Link {
    fn new((rx, tx): BoxedConn, connector: Option<Box<dyn Connector>>, retry: RetryPolicy) -> Self {
        Link {
            rx,
            tx,
            connector,
            retry,
            timeout: RESPONSE_TIMEOUT,
            counters: Arc::default(),
            session: None,
        }
    }

    /// Blocks for the next frame under the configured deadline.
    fn recv(&mut self) -> Result<Bytes, ServeError> {
        recv_frame(self.rx.as_mut(), self.timeout)
    }

    /// Waits for the frame answering the exchange whose request ids
    /// `wants` accepts, by the [`claims`] rule; stale frames go to
    /// `role`. An answering `Error` frame becomes the typed error.
    fn await_reply<R: Role>(
        &mut self,
        role: &mut R,
        wants: impl Fn(u64) -> bool,
    ) -> Result<(wire::Tag, u64, Bytes), ServeError> {
        loop {
            let frame = self.recv()?;
            let (tag, id) = reply_id(&frame)?;
            if !claims(tag, id, &wants) {
                role.stale(frame);
            } else if tag == wire::Tag::Error {
                return Err(remote(&frame)?);
            } else {
                return Ok((tag, id, frame));
            }
        }
    }

    /// Sends `frame` and waits for the one reply to `request_id`.
    fn exchange<R: Role>(
        &mut self,
        role: &mut R,
        frame: &[u8],
        request_id: u64,
    ) -> Result<Bytes, ServeError> {
        self.tx.send(frame)?;
        Ok(self.await_reply(role, |id| id == request_id)?.2)
    }

    /// The session id, registering `role`'s keys first (one Hello →
    /// Welcome exchange) when the link holds none. Sessionless roles get
    /// 0.
    fn session<R: Role>(&mut self, role: &mut R) -> Result<u64, ServeError> {
        if let Some(id) = self.session {
            return Ok(id);
        }
        let Some(hello) = role.hello() else { return Ok(0) };
        let welcome = self.exchange(role, &hello, 0)?;
        let id = role.welcome(&welcome)?;
        self.session = Some(id);
        Ok(id)
    }

    /// Ships one idempotent mutation (a row batch or a KV put/delete) and
    /// waits for its [`wire::Tag::UpdateAck`]: `(epoch, applied)`.
    fn ack<R: Role>(
        &mut self,
        role: &mut R,
        frame: &[u8],
        request_id: u64,
    ) -> Result<(u64, u32), ServeError> {
        let reply = self.exchange(role, frame, request_id)?;
        let (_, epoch, applied) = wire::decode_update_ack(&reply)?;
        Ok((epoch, applied))
    }

    /// Scrapes the server's live counters: sends [`wire::Tag::GetStats`]
    /// and rebuilds [`ServerStats`] from the raw integer report — the
    /// same derivation the server runs in-process.
    fn stats<R: Role>(&mut self, role: &mut R) -> Result<ServerStats, ServeError> {
        let request_id = unique_request_id();
        let reply = self.exchange(role, &wire::encode_get_stats(request_id), request_id)?;
        let (_, report) = wire::decode_stats_response(&reply)?;
        Ok(ServerStats::from_report(&report))
    }

    /// How (and whether) a failed attempt can be recovered: session loss
    /// and overload heal on the live connection; any other transient
    /// failure (transport, timeout, protocol) needs a connector to re-dial
    /// with. Other remote rejections are final.
    fn recovery(&self, err: &ServeError) -> Option<Recovery> {
        if err.is_unknown_session() {
            Some(Recovery::Rehello)
        } else if err.is_busy() {
            Some(Recovery::Backoff)
        } else if err.is_transient() && self.connector.is_some() {
            Some(Recovery::Redial)
        } else {
            None
        }
    }

    /// The one retry driver under every client: runs `op` until it
    /// succeeds, fails unrecoverably, or spends the policy's attempt
    /// budget. Between attempts it books the retry (and any timeout),
    /// then recovers: a lost session is forgotten so `op`'s next
    /// [`Link::session`] re-Hellos in place, overload backs off, and a
    /// transport failure backs off and re-dials — counted as a reconnect,
    /// with the session and `role`'s in-flight work forgotten.
    fn retrying<R: Role, T>(
        &mut self,
        role: &mut R,
        mut op: impl FnMut(&mut R, &mut Link) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let mut attempt = 0u32;
        loop {
            let err = match op(role, self) {
                Ok(value) => return Ok(value),
                Err(err) => err,
            };
            let recovery = match self.recovery(&err) {
                Some(recovery) if attempt + 1 < self.retry.max_attempts => recovery,
                _ => return Err(err),
            };
            if matches!(err, ServeError::Timeout) {
                self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
            match recovery {
                Recovery::Rehello => self.session = None,
                Recovery::Backoff => std::thread::sleep(self.retry.backoff(attempt)),
                Recovery::Redial => {
                    std::thread::sleep(self.retry.backoff(attempt));
                    if let Some(Ok((rx, tx))) = self.connector.as_ref().map(|c| c.dial()) {
                        self.rx = rx;
                        self.tx = tx;
                        self.session = None;
                        role.redialed();
                        self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            attempt += 1;
        }
    }
}

/// A raw framed connection, not yet committed to a protocol role. This
/// is the single client entry point: wrap the [`BoxedConn`] a transport
/// connector produced (or better, [`Connection::dial`] a [`Connector`]
/// so the client can transparently reconnect), then pick the role —
/// every `into_*` method runs that role's handshake (or none, for
/// updates) and returns the typed client.
///
/// ```no_run
/// # use ive_pir::PirParams;
/// # use ive_serve::{transport::in_proc_pair, Connection, RetryPolicy};
/// # use rand::SeedableRng;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let params = PirParams::toy();
/// # let (_t, connector) = in_proc_pair();
/// let rng = rand::rngs::StdRng::seed_from_u64(7);
/// // Self-healing reader: re-dials, re-Hellos, and resubmits on failure.
/// let mut reader = Connection::dial(connector.clone())?
///     .with_retry(RetryPolicy::default())
///     .into_serve_client(&params, rng)?;
/// // Bare writer: no connector, so failures surface immediately.
/// let mut writer = Connection::new(connector.connect()?).into_update_client();
/// # Ok(())
/// # }
/// ```
pub struct Connection {
    link: Link,
}

impl Connection {
    /// Wraps a connected transport pair. Without a connector the
    /// connection cannot re-dial, so the policy defaults to
    /// [`RetryPolicy::none`].
    pub fn new(conn: BoxedConn) -> Self {
        Connection { link: Link::new(conn, None, RetryPolicy::none()) }
    }

    /// Dials a fresh connection through `connector` and keeps the
    /// connector for transparent reconnects; retry defaults to
    /// [`RetryPolicy::default`] (tune with [`Connection::with_retry`]).
    ///
    /// # Errors
    /// Fails when the initial dial fails (later dials are the retry
    /// machinery's problem).
    pub fn dial(connector: impl Connector + 'static) -> Result<Self, ServeError> {
        let conn = connector.dial()?;
        Ok(Connection { link: Link::new(conn, Some(Box::new(connector)), RetryPolicy::default()) })
    }

    /// Overrides the retry policy ([`RetryPolicy::none`] disables
    /// recovery entirely).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.link.retry = retry;
        self
    }

    /// Overrides the per-response deadline (default 120 s).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.link.timeout = timeout;
        self
    }

    /// The shared counters the recovery machinery writes — clone before
    /// converting into a typed client to observe retries from outside.
    pub fn retry_counters(&self) -> Arc<RetryCounters> {
        Arc::clone(&self.link.counters)
    }

    /// Runs the index-retrieval handshake ([`wire::Tag::Hello`] key
    /// upload → session id) and returns the registered [`ServeClient`].
    ///
    /// # Errors
    /// Fails on keygen, transport, or handshake-rejection errors.
    pub fn into_serve_client(
        self,
        params: &PirParams,
        rng: rand::rngs::StdRng,
    ) -> Result<ServeClient, ServeError> {
        let mut role = IndexRole {
            client: PirClient::new(params, rng)?,
            next_request: 1,
            pending: HashMap::new(),
            stash: VecDeque::new(),
        };
        let mut link = self.link;
        link.retrying(&mut role, |role, link| link.session(role))?;
        Ok(ServeClient { link, role })
    }

    /// Returns an [`UpdateClient`] (updates exchange no handshake).
    pub fn into_update_client(self) -> UpdateClient {
        UpdateClient { link: self.link }
    }

    /// Runs the keyword handshake ([`wire::Tag::KsHello`] trace-key
    /// upload → session id + table layout) against a keyword service and
    /// returns the registered [`KvClient`].
    ///
    /// # Errors
    /// Fails on keygen, transport, or handshake-rejection errors, or a
    /// server layout that contradicts `params`.
    pub fn into_kv_client(
        self,
        params: &KsPirParams,
        rng: rand::rngs::StdRng,
    ) -> Result<KvClient, ServeError> {
        let mut role = KeywordRole {
            params: params.clone(),
            client: KsPirClient::new(params, rng)?,
            schema: None,
            next_request: 1,
        };
        let mut link = self.link;
        link.retrying(&mut role, |role, link| link.session(role))?;
        Ok(KvClient { link, role })
    }
}

/// A connected, registered PIR client. Supports both blocking
/// single-query use ([`ServeClient::retrieve`]) and pipelining several
/// in-flight queries ([`ServeClient::submit`] / [`ServeClient::next_record`])
/// so one connection can keep a batching server busy.
///
/// Built from a [`Connection::dial`], the client self-heals: transport
/// failures re-dial and re-Hello (the key material is local, so an
/// LRU-evicted session costs one handshake), and in-flight queries are
/// resubmitted under the recovered session — callers just see
/// `next_record` take a little longer.
pub struct ServeClient {
    link: Link,
    role: IndexRole,
}

/// A submitted query awaiting its answer.
struct InFlight {
    query: PirQuery,
    /// The session it was last sent under; `None` until it is (re)sent.
    sent_under: Option<u64>,
}

/// What the index client keeps beyond the shared [`Link`]: its keys, the
/// queries in flight (to decode their answers and to resubmit them), and
/// the frames stashed while another exchange was waiting.
struct IndexRole {
    client: PirClient<rand::rngs::StdRng>,
    next_request: u64,
    pending: HashMap<u64, InFlight>,
    /// Frames received while waiting for another exchange (e.g. query
    /// responses arriving during a [`ServeClient::stats`] scrape or a
    /// re-Hello), consumed by the next [`ServeClient::next_record`].
    stash: VecDeque<Bytes>,
}

impl Role for IndexRole {
    fn hello(&self) -> Option<Bytes> {
        Some(wire::encode_hello(self.client.public_keys()))
    }

    fn welcome(&mut self, frame: &Bytes) -> Result<u64, ServeError> {
        Ok(wire::decode_welcome(frame)?)
    }

    fn stale(&mut self, frame: Bytes) {
        self.stash.push_back(frame);
    }

    fn redialed(&mut self) {
        for query in self.pending.values_mut() {
            query.sent_under = None;
        }
    }
}

impl IndexRole {
    /// Sends every in-flight query not yet sent under the current session
    /// (new, refused, or lost with a dead connection), registering first
    /// if the link holds no session.
    fn flush(&mut self, link: &mut Link) -> Result<(), ServeError> {
        let session = link.session(self)?;
        for (&id, query) in self.pending.iter_mut().filter(|(_, q)| q.sent_under.is_none()) {
            link.tx.send(&wire::encode_session_query(session, id, &query.query))?;
            query.sent_under = Some(session);
        }
        Ok(())
    }

    /// One attempt at the next answer: resubmit what needs it, then read
    /// frames (stash first) until one answers an in-flight query. A
    /// refusal that can heal (`unknown session`, `Busy`) marks its query
    /// for resubmission; one naming a session this client has already
    /// replaced is resubmitted at once, without another Hello.
    fn next_answer(&mut self, link: &mut Link) -> Result<(u64, Vec<u8>), ServeError> {
        let he = self.client.params().he().clone();
        loop {
            self.flush(link)?;
            let frame = match self.stash.pop_front() {
                Some(frame) => frame,
                None => link.recv()?,
            };
            let (tag, id) = reply_id(&frame)?;
            // Unclaimed frames are duplicate answers of resubmitted
            // queries (or leftovers of other exchanges): dropped.
            if !claims(tag, id, |id| self.pending.contains_key(&id)) {
                continue;
            }
            match tag {
                wire::Tag::SessionResponse => {
                    let (_, ct) = wire::decode_session_response(&he, &frame)?;
                    let query = self
                        .pending
                        .remove(&id)
                        .expect("claimed frames name an in-flight query")
                        .query;
                    return Ok((id, self.client.decode(&query, &ct)?));
                }
                // A compress_responses server ships modulus-switched
                // answers; the client decodes either form transparently.
                wire::Tag::CompressedResponse => {
                    let (_, ct) = wire::decode_compressed_response(&he, &frame)?;
                    let query = self
                        .pending
                        .remove(&id)
                        .expect("claimed frames name an in-flight query")
                        .query;
                    return Ok((id, self.client.decode_compressed(&query, &ct)?));
                }
                wire::Tag::Error => {
                    let err = remote(&frame)?;
                    if let Some(query) = self.pending.get_mut(&id) {
                        if err.is_unknown_session() || err.is_busy() {
                            let stale_session = query.sent_under != link.session;
                            query.sent_under = None;
                            if err.is_unknown_session() && stale_session {
                                continue;
                            }
                        }
                    }
                    return Err(err);
                }
                tag => {
                    return Err(ServeError::Protocol(format!(
                        "expected SessionResponse, server sent {}",
                        tag.name()
                    )))
                }
            }
        }
    }
}

impl ServeClient {
    /// The session id the server assigned (may change after recovery).
    #[inline]
    pub fn session_id(&self) -> u64 {
        self.link.session.unwrap_or(0)
    }

    /// Number of queries currently in flight.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.role.pending.len()
    }

    /// Ships a query for record `index` without waiting for the answer;
    /// returns its request id. Collect results with
    /// [`ServeClient::next_record`].
    ///
    /// # Errors
    /// Fails on out-of-range indices or transport errors (after the
    /// retry budget, when recovery is configured).
    pub fn submit(&mut self, index: usize) -> Result<u64, ServeError> {
        let query = self.role.client.query(index)?;
        let request_id = self.role.next_request;
        self.role.next_request += 1;
        self.role.pending.insert(request_id, InFlight { query, sent_under: None });
        if let Err(e) = self.link.retrying(&mut self.role, IndexRole::flush) {
            // Withdrawn on failure so `pending` stays truthful.
            self.role.pending.remove(&request_id);
            return Err(e);
        }
        Ok(request_id)
    }

    /// Waits for the next response to any in-flight query and decodes it.
    ///
    /// With recovery configured, transient failures (dead transport,
    /// timeouts, evicted sessions, overload rejections) are healed
    /// in-line — reconnect or re-Hello, then resubmit — and only surface
    /// once the retry budget is spent.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors (a remote
    /// error consumes the in-flight request it names; one the server
    /// could not attribute consumes them all).
    pub fn next_record(&mut self) -> Result<(u64, Vec<u8>), ServeError> {
        if self.role.pending.is_empty() {
            return Err(ServeError::Protocol("no query in flight".into()));
        }
        let answer = self.link.retrying(&mut self.role, IndexRole::next_answer);
        if let Err(ServeError::Remote { request_id, .. }) = &answer {
            if *request_id == 0 {
                self.role.pending.clear();
            } else {
                self.role.pending.remove(request_id);
            }
        }
        answer
    }

    /// Retrieves record `index` privately: builds the query, ships it
    /// under the session id, and decodes the matching response.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors, and when
    /// called with pipelined queries still in flight.
    pub fn retrieve(&mut self, index: usize) -> Result<Vec<u8>, ServeError> {
        if !self.role.pending.is_empty() {
            return Err(ServeError::Protocol(format!(
                "retrieve with {} pipelined queries in flight",
                self.role.pending.len()
            )));
        }
        let want = self.submit(index)?;
        let (got, record) = self.next_record()?;
        if got != want {
            return Err(ServeError::Protocol(format!(
                "response for request {got} while {want} was in flight"
            )));
        }
        Ok(record)
    }

    /// Scrapes the server's live counters over this connection: sends
    /// [`wire::Tag::GetStats`] and rebuilds [`ServerStats`] from the raw
    /// integer report — the same derivation the server runs in-process,
    /// so a remote observer sees identical quantiles, per-stage
    /// histograms, kernel op rates, and scan bandwidth. Query responses
    /// arriving in the meantime are stashed for
    /// [`ServeClient::next_record`], so polling a loaded connection loses
    /// nothing.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        self.link.stats(&mut self.role)
    }
}

/// A content-ingestion client: streams [`RecordUpdate`] batches to a
/// serving runtime and waits for each batch's [`wire::Tag::UpdateAck`].
/// Updates need no key material and no session — an updater is typically
/// a separate operational process, not a PIR client.
///
/// Each acknowledged batch is one committed epoch: queries admitted
/// after the ack observe the new contents, queries in flight finish on
/// the previous epoch, and nobody sees a torn batch.
///
/// Retried batches are **idempotent**: every `apply` draws a
/// process-unique request id the server's dedup cache remembers, so a
/// batch whose ack was lost in transit is re-acked on retry — with the
/// epoch it originally committed as — never applied twice.
///
/// # Example
///
/// ```
/// use ive_pir::{Database, PirParams};
/// use ive_serve::{config::ServeConfig, transport::in_proc_pair};
/// use ive_serve::{Connection, PirService};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = PirParams::toy();
/// let db = Database::from_records(&params, &[b"v1".to_vec()])?;
/// let (transport, connector) = in_proc_pair();
/// // Updates are off by default (they are unauthenticated); opt in.
/// let config = ServeConfig { accept_updates: true, ..ServeConfig::default() };
/// let service = PirService::start(config, &params, db, Box::new(transport))?;
///
/// let mut updater = Connection::new(connector.connect()?).into_update_client();
/// let epoch = updater.put(0, b"v2 - live".to_vec())?;
/// assert_eq!(epoch, 1);
///
/// let rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut reader = Connection::new(connector.connect()?).into_serve_client(&params, rng)?;
/// assert_eq!(&reader.retrieve(0)?[..9], b"v2 - live");
/// drop(reader);
/// service.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct UpdateClient {
    link: Link,
}

impl UpdateClient {
    /// Ships one batch of deltas and blocks for its acknowledgement,
    /// returning `(epoch, applied)` — the epoch the batch committed as
    /// and the number of deltas the server confirmed. With recovery
    /// configured, transient failures retry the *same* request id, so
    /// the server's idempotency cache guarantees at-most-once apply.
    ///
    /// # Errors
    /// Fails on transport errors or a server-reported rejection (e.g. a
    /// read-only service or an out-of-range index).
    pub fn apply(&mut self, updates: &[RecordUpdate]) -> Result<(u64, u32), ServeError> {
        let request_id = unique_request_id();
        let frame = wire::encode_update_rows(request_id, updates).map_err(ServeError::Pir)?;
        self.link.retrying(&mut Sessionless, |role, link| link.ack(role, &frame, request_id))
    }

    /// Replaces record `index` with `bytes`; returns the committed epoch.
    ///
    /// # Errors
    /// See [`UpdateClient::apply`].
    pub fn put(&mut self, index: usize, bytes: Vec<u8>) -> Result<u64, ServeError> {
        Ok(self.apply(&[RecordUpdate::put(index, bytes)])?.0)
    }

    /// Resets record `index` to all-zero; returns the committed epoch.
    ///
    /// # Errors
    /// See [`UpdateClient::apply`].
    pub fn delete(&mut self, index: usize) -> Result<u64, ServeError> {
        Ok(self.apply(&[RecordUpdate::delete(index)])?.0)
    }
}

/// A connected, registered **keyword** client: private retrieval by key
/// over a keyword service ([`crate::PirService::start_keyword`]).
///
/// One `get(key)` privately fetches both cuckoo candidate buckets —
/// `2 × group_slots` scalar slots, pipelined on one connection — and
/// decodes them locally: the server learns a fixed, key-independent
/// access pattern (always the same number of slot queries, each
/// individually private), never which key was looked up or whether it
/// was present.
///
/// Built from a [`Connection::dial`], lookups and mutations self-heal
/// like the index client's: a dead transport re-dials and replays the
/// `KsHello`, interrupted bucket fetches restart whole, and mutations
/// ride the same idempotent request-id scheme as [`UpdateClient`].
pub struct KvClient {
    link: Link,
    role: KeywordRole,
}

/// What the keyword client keeps beyond the shared [`Link`]: its trace
/// keys and the table layout its last `KsWelcome` announced.
struct KeywordRole {
    params: KsPirParams,
    client: KsPirClient<rand::rngs::StdRng>,
    /// `None` only before the first handshake completes.
    schema: Option<KvSchema>,
    next_request: u64,
}

impl Role for KeywordRole {
    fn hello(&self) -> Option<Bytes> {
        Some(wire::encode_ks_hello(self.client.public_keys()))
    }

    fn welcome(&mut self, frame: &Bytes) -> Result<u64, ServeError> {
        let (session_id, schema) = wire::decode_ks_welcome(&self.params, frame)?;
        self.schema = Some(schema);
        Ok(session_id)
    }
}

impl KeywordRole {
    fn schema(&self) -> &KvSchema {
        self.schema.as_ref().expect("a KvClient completed its handshake")
    }

    /// One pipelined group fetch: all `group_slots` queries ship (fresh
    /// request ids) before the first response is awaited, and responses
    /// are matched back by request id, so a restarted fetch never mixes
    /// answers from two attempts.
    fn fetch_group(&mut self, link: &mut Link, bucket: usize) -> Result<Vec<u64>, ServeError> {
        let session = link.session(self)?;
        let base = self.schema().slot_of(bucket);
        let width = self.schema().group_slots();
        let he = self.params.he().clone();
        let mut want = HashMap::with_capacity(width);
        for i in 0..width {
            let query = self.client.query(base + i)?;
            let request_id = self.next_request;
            self.next_request += 1;
            link.tx.send(&wire::encode_ks_query(session, request_id, &query))?;
            want.insert(request_id, i);
        }
        let mut group = vec![0u64; width];
        while !want.is_empty() {
            let (tag, id, frame) = link.await_reply(self, |id| want.contains_key(&id))?;
            group[want.remove(&id).expect("claimed frames name a wanted slot")] = match tag {
                wire::Tag::KsResponse => {
                    self.client.decode(&wire::decode_ks_response(&he, &frame)?.1)?
                }
                wire::Tag::CompressedResponse => self
                    .client
                    .decode_switched(&wire::decode_compressed_response(&he, &frame)?.1)?,
                tag => {
                    return Err(ServeError::Protocol(format!(
                        "expected KsResponse, server sent {}",
                        tag.name()
                    )))
                }
            };
        }
        Ok(group)
    }
}

impl KvClient {
    /// The session id the server assigned (may change after recovery).
    #[inline]
    pub fn session_id(&self) -> u64 {
        self.link.session.unwrap_or(0)
    }

    /// The table layout negotiated at the handshake.
    #[inline]
    pub fn schema(&self) -> &KvSchema {
        self.role.schema()
    }

    /// Privately retrieves the value stored under `key`, or `None` when
    /// absent. Both candidate buckets are always fetched, in a fixed
    /// order, so presence and bucket choice leak nothing.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<u64>, ServeError> {
        let mut found = None;
        for bucket in self.role.schema().candidates(key) {
            let group =
                self.link.retrying(&mut self.role, |role, link| role.fetch_group(link, bucket))?;
            if found.is_none() {
                found = self.role.schema().decode_group(key, &group);
            }
        }
        Ok(found)
    }

    /// Inserts or overwrites `key` server-side; returns the committed
    /// epoch. Mutations identify the key in the clear — they are the
    /// content-owner's ingest path (gated by
    /// [`crate::ServeConfig::accept_updates`]), not a private operation.
    ///
    /// # Errors
    /// Fails on transport errors or a server-reported rejection (e.g. a
    /// read-only service or a full table).
    pub fn put(&mut self, key: &[u8], value: u64) -> Result<u64, ServeError> {
        self.mutate(key, Some(value))
    }

    /// Deletes `key` server-side; returns the epoch the delete committed
    /// as (unchanged when the key was already absent).
    ///
    /// # Errors
    /// See [`KvClient::put`].
    pub fn delete(&mut self, key: &[u8]) -> Result<u64, ServeError> {
        self.mutate(key, None)
    }

    fn mutate(&mut self, key: &[u8], value: Option<u64>) -> Result<u64, ServeError> {
        let request_id = unique_request_id();
        let frame = wire::encode_kv_update(request_id, key, value).map_err(ServeError::Pir)?;
        let (epoch, _) =
            self.link.retrying(&mut self.role, |role, link| link.ack(role, &frame, request_id))?;
        Ok(epoch)
    }

    /// Scrapes the keyword server's live counters (the keyword pipeline
    /// reports Decode/Compress/Encode stages plus `EpochCommit`; see
    /// [`ServeClient::stats`] for the index-PIR counterpart).
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        self.link.stats(&mut self.role)
    }
}

/// Blocks until one frame arrives, the peer closes, or `timeout` passes.
fn recv_frame(rx: &mut dyn FrameRx, timeout: Duration) -> Result<Bytes, ServeError> {
    let deadline = Instant::now() + timeout;
    loop {
        match rx.recv()? {
            Received::Frame(frame) => return Ok(frame),
            Received::Idle => {
                if Instant::now() >= deadline {
                    return Err(ServeError::Timeout);
                }
            }
            Received::Closed => return Err(ServeError::Closed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered_into_range() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            jitter_seed: 42,
        };
        for attempt in 0..8 {
            let a = policy.backoff(attempt);
            let b = policy.backoff(attempt);
            assert_eq!(a, b, "same (seed, attempt) must give the same delay");
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << attempt.min(16))
                .min(Duration::from_millis(200));
            assert!(
                a >= exp / 2 && a <= exp,
                "attempt {attempt}: {a:?} outside [{:?}, {exp:?}]",
                exp / 2
            );
        }
        // Different seeds decorrelate.
        let other = RetryPolicy { jitter_seed: 43, ..policy };
        assert!(
            (0..8).any(|n| policy.backoff(n) != other.backoff(n)),
            "two seeds must not produce identical schedules"
        );
        // The cap holds far out.
        assert!(policy.backoff(31) <= Duration::from_millis(200));
    }

    #[test]
    fn no_retry_policy_has_one_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn unique_request_ids_never_repeat_or_hit_the_sentinel() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = unique_request_id();
            assert_ne!(id, 0, "0 is the connection-level sentinel");
            assert!(seen.insert(id), "request id {id} repeated");
        }
    }

    #[test]
    fn retry_counters_start_zeroed() {
        let c = RetryCounters::default();
        assert_eq!((c.retries(), c.reconnects(), c.timeouts()), (0, 0, 0));
    }
}
