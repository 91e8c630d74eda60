//! The traced replay: batches of requests pushed through each layer's
//! public calls in order (client query, wire, Expand, RowSel at the
//! served batch size, ColTor, wire, client decode), with a span recorded
//! around every call, kernel op-counter deltas around each PIR step, and
//! the noise budget of every response measured with the client's key.
//!
//! The op counters are process-global, so the replay must run with no
//! other load in the process.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ive_he::noise::noise_budget_bits;
use ive_he::BfvCiphertext;
use ive_math::metrics::{self as ops, OpSnapshot};
use ive_pir::db::plaintext_from_bytes;
use ive_pir::{wire, Database, PirClient, PirParams, PirServer, QueryScratch, RecordUpdate};
use ive_serve::{ServeConfig, ShardPlan, ShardedEngine};
use rand::Rng;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; when off, `span` only runs the closure.
pub struct Recorder {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder { on, t0: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        if self.on {
            let start_ns = self.now_ns();
            self.spans.push(Span { name, request, parent, start_ns, end_ns: start_ns });
        }
        self.spans.len().wrapping_sub(1)
    }

    fn close(&mut self, id: usize) {
        if self.on {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(parent), request);
        let out = f();
        self.close(id);
        out
    }

    /// Self time per span name (duration minus the part its children
    /// cover), summed over all spans; roots are reported as `request`.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(*c);
        }
        out
    }

    /// Root-span durations (one per replayed batch), ns.
    pub fn roots_ns(&self) -> Vec<u64> {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::dur_ns).collect()
    }

    /// Spans as JSON lines, written out when the run ends.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.request, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Per-query kernel op counts, summed over the replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub expand_ntts: u64,
    pub expand_auto_coeffs: u64,
    pub coltor_ntts: u64,
    pub rowsel_macs: u64,
    pub queries: u64,
}

impl Counts {
    /// The per-query counts; exact because every query of a geometry does
    /// the same work.
    pub fn per_query(&self) -> Counts {
        let q = self.queries.max(1);
        Counts {
            expand_ntts: self.expand_ntts / q,
            expand_auto_coeffs: self.expand_auto_coeffs / q,
            coltor_ntts: self.coltor_ntts / q,
            rowsel_macs: self.rowsel_macs / q,
            queries: 1,
        }
    }
}

/// What a replay measured.
pub struct Replay {
    /// The traced passes' spans.
    pub rec: Recorder,
    /// Wall time of each batch run without spans, ms.
    pub plain_ms: Vec<f64>,
    /// Wall time of the same batches run with spans, ms.
    pub traced_ms: Vec<f64>,
    /// Op counts over the traced passes.
    pub counts: Counts,
    pub keygen: Duration,
    /// Lowest noise budget over every response, bits.
    pub noise_min_bits: f64,
    pub wrong: u64,
    /// Queries in the traced passes (the untraced ones repeat them).
    pub queries: u64,
}

/// A server configured like the service's workers.
pub fn server_like(params: &PirParams, db: Database, config: &ServeConfig) -> PirServer {
    let mut server = PirServer::new(params, db).expect("database matches its geometry");
    server.set_rowsel_threads(config.rowsel_threads);
    server.set_tournament_order(config.order);
    server.set_backend(config.backend);
    server
}

fn op_delta(before: OpSnapshot) -> OpSnapshot {
    ops::snapshot().delta_since(&before)
}

/// One client and one server, replaying batches through the layer calls.
struct Replayer<'a> {
    params: &'a PirParams,
    server: &'a PirServer,
    client: PirClient<rand::rngs::StdRng>,
    scratch: QueryScratch,
    counts: Counts,
}

impl Replayer<'_> {
    /// Runs one batch for `indices` under root span `b`; op counts are
    /// taken only while `rec` records. Returns the wall time (ms) and each
    /// response as received with its decoded record.
    fn batch(
        &mut self,
        rec: &mut Recorder,
        b: u64,
        indices: &[usize],
    ) -> (f64, Vec<(BfvCiphertext, Vec<u8>)>) {
        let he = self.params.he();
        let (server, client, scratch, counts) =
            (self.server, &mut self.client, &mut self.scratch, &mut self.counts);
        let counting = rec.on;
        let t = Instant::now();
        let root = rec.open("request", None, b);
        let mut queries = Vec::with_capacity(indices.len());
        let mut expanded = Vec::with_capacity(indices.len());
        for (r, &index) in indices.iter().enumerate() {
            let id = b * indices.len() as u64 + r as u64;
            let q = rec.span("client.query", root, id, || client.query(index).expect("query"));
            let frame =
                rec.span("wire.encode_query", root, id, || wire::encode_session_query(1, id, &q));
            let (_, _, q2) = rec.span("wire.decode_query", root, id, || {
                wire::decode_session_query(he, &frame).expect("decode query")
            });
            let before = counting.then(ops::snapshot);
            let e = rec.span("pir.expand", root, id, || {
                server.expand_with(client.public_keys(), &q2, scratch).expect("expand")
            });
            if let Some(before) = before {
                let d = op_delta(before);
                counts.expand_ntts += d.residue_ntts;
                counts.expand_auto_coeffs += d.auto_coeffs;
            }
            expanded.push(e);
            queries.push((q, q2));
        }
        let before = counting.then(ops::snapshot);
        rec.span("pir.rowsel", root, b, || {
            server.row_sel_batch_into(&expanded, scratch).expect("rowsel")
        });
        if let Some(before) = before {
            counts.rowsel_macs += op_delta(before).pointwise_macs;
        }
        let ring = he.ring().clone();
        let mut responses = Vec::with_capacity(indices.len());
        for (r, (q, q2)) in queries.iter().enumerate() {
            let id = b * indices.len() as u64 + r as u64;
            let before = counting.then(ops::snapshot);
            let ct = rec.span("pir.coltor", root, id, || {
                let rows = scratch.row_ciphertexts(&ring, r);
                server.col_tor_step_with(rows, q2, scratch).expect("coltor")
            });
            if let Some(before) = before {
                counts.coltor_ntts += op_delta(before).residue_ntts;
            }
            let frame = rec
                .span("wire.encode_response", root, id, || wire::encode_session_response(id, &ct));
            let (_, ct2) = rec.span("wire.decode_response", root, id, || {
                wire::decode_session_response(he, &frame).expect("decode response")
            });
            let record =
                rec.span("client.decode", root, id, || client.decode(q, &ct2).expect("decode"));
            responses.push((ct2, record));
        }
        rec.close(root);
        if counting {
            counts.queries += indices.len() as u64;
        }
        (t.elapsed().as_secs_f64() * 1e3, responses)
    }
}

/// Replays `batches` batches of `batch` requests, each once without and
/// once with spans, back to back so host drift hits both alike. Indices
/// come from `rng`; every response must decode to `original(index)` and
/// keep its noise budget.
#[allow(clippy::too_many_arguments)]
pub fn run(
    params: &PirParams,
    server: &PirServer,
    original: &dyn Fn(usize) -> Vec<u8>,
    key_rng: rand::rngs::StdRng,
    rng: &mut rand::rngs::StdRng,
    batch: usize,
    batches: usize,
) -> Replay {
    let he = params.he();
    let t = Instant::now();
    let client = PirClient::new(params, key_rng).expect("keygen");
    let keygen = t.elapsed();
    let mut replayer = Replayer {
        params,
        server,
        client,
        scratch: QueryScratch::new(),
        counts: Counts::default(),
    };
    let mut out = Replay {
        rec: Recorder::new(true),
        plain_ms: Vec::with_capacity(batches),
        traced_ms: Vec::with_capacity(batches),
        counts: Counts::default(),
        keygen,
        noise_min_bits: f64::INFINITY,
        wrong: 0,
        queries: (batch * batches) as u64,
    };
    let mut plain = Recorder::new(false);
    for b in 0..batches as u64 {
        let indices: Vec<usize> =
            (0..batch).map(|_| rng.gen_range(0..params.num_records())).collect();
        let (ms, untraced) = replayer.batch(&mut plain, b, &indices);
        out.plain_ms.push(ms);
        let (ms, traced) = replayer.batch(&mut out.rec, b, &indices);
        out.traced_ms.push(ms);
        for (&index, (ct, record)) in indices.iter().cycle().zip(untraced.iter().chain(&traced)) {
            let want = original(index);
            if record.get(..want.len()) != Some(&want[..]) {
                out.wrong += 1;
            }
            let pt = plaintext_from_bytes(he, &want).expect("record fits");
            let budget = noise_budget_bits(he, replayer.client.secret_key(), ct, &pt);
            out.noise_min_bits = out.noise_min_bits.min(budget);
        }
    }
    out.counts = replayer.counts;
    out
}

/// Direct `ShardedEngine` commits on a copy of the loaded database: mean
/// commit time (ms) and words copied per epoch.
pub fn commits(
    params: &PirParams,
    db: Database,
    config: &ServeConfig,
    rng: &mut rand::rngs::StdRng,
    epochs: usize,
) -> (f64, f64) {
    let engine = ShardedEngine::new(
        params,
        db,
        ShardPlan::Replicated,
        config.rowsel_threads,
        config.order,
        config.backend,
    )
    .expect("engine");
    let before = engine.cow_stats();
    let mut total = Duration::ZERO;
    for _ in 0..epochs {
        let mut bytes = vec![0u8; params.record_bytes()];
        rng.fill(&mut bytes[..]);
        let update = RecordUpdate::put(rng.gen_range(0..params.num_records()), bytes);
        let t = Instant::now();
        engine.apply_updates(&[update]).expect("commit");
        total += t.elapsed();
    }
    let words = engine.cow_stats().words_copied - before.words_copied;
    (total.as_secs_f64() * 1e3 / epochs as f64, words as f64 / epochs as f64)
}
