//! Set-up and the served load phase: a `PirService` over TCP, driven
//! through `ServeClient` / `UpdateClient` connections hosted in this
//! process.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ive_pir::{Database, PirParams, RecordUpdate};
use ive_serve::{
    Connection, PirService, ServeClient, ServeError, ServerStats, ServiceHandle, TcpConnector,
    TcpTransport, UpdateClient,
};
use rand::Rng;

use crate::spec::{self, Load, Seeds, Workload};

/// Every version each index has held: the original record first, then
/// each one the writer sent. A retrieved record is correct when it equals
/// one of its index's versions.
pub struct Oracle(Mutex<Vec<Vec<Vec<u8>>>>);

impl Oracle {
    fn new(records: Vec<Vec<u8>>) -> Self {
        Oracle(Mutex::new(records.into_iter().map(|r| vec![r]).collect()))
    }

    fn add(&self, index: usize, bytes: Vec<u8>) {
        self.0.lock().expect("oracle lock")[index].push(bytes);
    }

    /// Whether `got` (the padded decoded payload) matches a version.
    pub fn holds(&self, index: usize, got: &[u8]) -> bool {
        let versions = self.0.lock().expect("oracle lock");
        versions[index]
            .iter()
            .any(|v| got.get(..v.len()) == Some(&v[..]) && got[v.len()..].iter().all(|&b| b == 0))
    }

    /// The record as loaded, before any write.
    pub fn original(&self, index: usize) -> Vec<u8> {
        self.0.lock().expect("oracle lock")[index][0].clone()
    }
}

/// A started service with its connected clients.
pub struct Served {
    pub handle: ServiceHandle,
    pub readers: Vec<ServeClient>,
    /// Connected at set-up when the workload writes.
    pub writer: Option<UpdateClient>,
    pub oracle: Oracle,
    /// Wall time of the whole set-up.
    pub setup: Duration,
    /// Per reader: key generation + Hello, as `into_serve_client` runs them.
    pub handshake: Duration,
    pub tmp: PathBuf,
}

/// Builds everything up to the first query: records, `Database`,
/// `PirService` on a loopback TCP port, the reader handshakes (keygen +
/// Hello) and, when it writes beside the reads, the writer connection.
pub fn setup(w: &Workload, seeds: &Seeds, tmp: &Path) -> Result<Served, ServeError> {
    let t0 = Instant::now();
    let records = spec::records(&w.params, seeds);
    let db = Database::from_records(&w.params, &records)?;
    let journal = if w.writes.is_some() {
        std::fs::create_dir_all(tmp)?;
        Some(tmp.join("journal"))
    } else {
        None
    };
    let transport = TcpTransport::bind("127.0.0.1:0")?;
    let addr = transport.local_addr();
    let handle = PirService::start(w.config(journal), &w.params, db, Box::new(transport))?;
    let readers = match w.load {
        Load::Closed { connections, .. } => connections,
        Load::Open { .. } => 1,
    };
    let mut handshake = Duration::ZERO;
    let mut clients = Vec::with_capacity(readers);
    for c in 0..readers {
        let t = Instant::now();
        let conn = Connection::dial(TcpConnector::new(addr)?)?;
        clients.push(conn.into_serve_client(&w.params, seeds.stream(spec::KEYS + 16 * c as u64))?);
        handshake += t.elapsed();
    }
    let writer = match w.writes {
        Some(_) => Some(Connection::dial(TcpConnector::new(addr)?)?.into_update_client()),
        None => None,
    };
    Ok(Served {
        handle,
        readers: clients,
        writer,
        oracle: Oracle::new(records),
        setup: t0.elapsed(),
        handshake: handshake / readers as u32,
        tmp: tmp.to_path_buf(),
    })
}

impl Served {
    /// Stops the service, removes its journal directory and hands back the
    /// oracle.
    pub fn shutdown(self) -> Oracle {
        drop(self.readers);
        drop(self.writer);
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.tmp);
        self.oracle
    }
}

/// What the load phase observed.
#[derive(Default)]
pub struct Outcome {
    /// Client-observed retrieval latency per completed read, ms.
    pub latency_ms: Vec<f64>,
    /// `put` → acked epoch, per write batch, ms.
    pub ack_ms: Vec<f64>,
    /// How late the open-loop generator issued each read, ms.
    pub late_ms: Vec<f64>,
    pub reads: u64,
    pub writes: u64,
    pub failed: u64,
    /// Reads whose record matched no version of its index.
    pub wrong: u64,
    /// Load-phase wall time up to the last completion.
    pub elapsed: Duration,
}

impl Outcome {
    fn merge(&mut self, other: Outcome) {
        self.latency_ms.extend(other.latency_ms);
        self.ack_ms.extend(other.ack_ms);
        self.late_ms.extend(other.late_ms);
        self.reads += other.reads;
        self.writes += other.writes;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

/// Runs the workload's reads and writes for `seconds`, then scrapes the server's counters over the first reader's connection.
pub fn run(
    w: &Workload,
    served: &mut Served,
    seeds: &Seeds,
    seconds: u64,
) -> (Outcome, ServerStats) {
    let length = Duration::from_secs(seconds);
    let params = &w.params;
    let oracle = &served.oracle;
    let mut outcome = Outcome::default();
    let start = Instant::now();
    let readers = std::mem::take(&mut served.readers);
    let writer = served.writer.as_mut();
    let readers = std::thread::scope(|scope| {
        let writer = writer.zip(w.writes).map(|(writer, spec)| {
            let writes = seeds.stream(spec::WRITES);
            scope.spawn(move || write_loop(writer, writes, params, oracle, spec, start, length))
        });
        let threads: Vec<_> = match w.load {
            Load::Closed { depth, .. } => readers
                .into_iter()
                .enumerate()
                .map(|(t, client)| {
                    let rng = seeds.stream(spec::READS + 16 * t as u64);
                    scope.spawn(move || {
                        closed_loop(client, rng, params, oracle, depth, start, length)
                    })
                })
                .collect(),
            Load::Open { read_qps } => readers
                .into_iter()
                .map(|client| {
                    let arrivals = seeds.stream(spec::ARRIVALS);
                    let reads = seeds.stream(spec::READS);
                    scope.spawn(move || {
                        open_loop(client, arrivals, reads, params, oracle, read_qps, start, length)
                    })
                })
                .collect(),
        };
        let back = threads
            .into_iter()
            .map(|t| {
                let (client, out) = t.join().expect("reader thread panicked");
                outcome.merge(out);
                client
            })
            .collect();
        if let Some(writer) = writer {
            outcome.merge(writer.join().expect("writer thread panicked"));
        }
        back
    });
    served.readers = readers;
    let stats = served.readers[0].stats().unwrap_or_else(|e| {
        eprintln!("benchmark: stats scrape failed: {e}");
        outcome.failed += 1;
        served.handle.stats()
    });
    (outcome, stats)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One connection keeping `depth` queries in flight until `length` has
/// passed, then draining them. Latency runs from `submit` to the decoded
/// record.
fn closed_loop(
    mut client: ServeClient,
    mut rng: rand::rngs::StdRng,
    params: &PirParams,
    oracle: &Oracle,
    depth: usize,
    start: Instant,
    length: Duration,
) -> (ServeClient, Outcome) {
    let mut out = Outcome::default();
    let mut pending = std::collections::HashMap::new();
    let submit = |client: &mut ServeClient,
                  rng: &mut rand::rngs::StdRng,
                  out: &mut Outcome,
                  pending: &mut std::collections::HashMap<u64, (usize, Instant)>| {
        let index = rng.gen_range(0..params.num_records());
        let t = Instant::now();
        out.reads += 1;
        match client.submit(index) {
            Ok(id) => {
                pending.insert(id, (index, t));
            }
            Err(e) => {
                eprintln!("benchmark: submit failed: {e}");
                out.failed += 1;
            }
        }
    };
    for _ in 0..depth {
        submit(&mut client, &mut rng, &mut out, &mut pending);
    }
    while !pending.is_empty() {
        match client.next_record() {
            Ok((id, record)) => {
                let Some((index, t)) = pending.remove(&id) else { continue };
                out.latency_ms.push(ms(t.elapsed()));
                out.elapsed = start.elapsed();
                if !oracle.holds(index, &record) {
                    out.wrong += 1;
                }
            }
            Err(e) => {
                if !read_failed(e, &client, &mut pending, &mut out) {
                    break;
                }
            }
        }
        while pending.len() < depth && start.elapsed() < length {
            submit(&mut client, &mut rng, &mut out, &mut pending);
        }
    }
    (client, out)
}

/// Counts a failed read and forgets the requests the client dropped.
/// Returns whether the connection is still usable.
fn read_failed<T>(
    e: ServeError,
    client: &ServeClient,
    pending: &mut std::collections::HashMap<u64, T>,
    out: &mut Outcome,
) -> bool {
    eprintln!("benchmark: read failed: {e}");
    out.failed += 1;
    if let ServeError::Remote { request_id, .. } = e {
        pending.remove(&request_id);
    }
    if client.in_flight() == 0 {
        pending.clear();
    }
    matches!(e, ServeError::Remote { .. }) || client.in_flight() > 0
}

/// The open-loop reader: Poisson arrivals, each query timed from when it
/// was due. While it waits for an answer it cannot send, so a slow answer
/// makes later queries late; that lateness is recorded and stays inside
/// their latency.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    mut client: ServeClient,
    mut arrivals: rand::rngs::StdRng,
    mut reads: rand::rngs::StdRng,
    params: &PirParams,
    oracle: &Oracle,
    rate: f64,
    start: Instant,
    length: Duration,
) -> (ServeClient, Outcome) {
    let mut out = Outcome::default();
    let mut pending = std::collections::HashMap::new();
    let end = start + length;
    let mut due = start + spec::exp_gap(&mut arrivals, rate);
    loop {
        let now = Instant::now();
        if due < end && due <= now {
            let index = reads.gen_range(0..params.num_records());
            out.late_ms.push(ms(now - due));
            out.reads += 1;
            match client.submit(index) {
                Ok(id) => {
                    pending.insert(id, (index, due));
                }
                Err(e) => {
                    eprintln!("benchmark: submit failed: {e}");
                    out.failed += 1;
                }
            }
            due += spec::exp_gap(&mut arrivals, rate);
        } else if !pending.is_empty() {
            match client.next_record() {
                Ok((id, record)) => {
                    let Some((index, due)) = pending.remove(&id) else { continue };
                    out.latency_ms.push(ms(due.elapsed()));
                    out.elapsed = start.elapsed();
                    if !oracle.holds(index, &record) {
                        out.wrong += 1;
                    }
                }
                Err(e) => {
                    if !read_failed(e, &client, &mut pending, &mut out) {
                        break;
                    }
                }
            }
        } else if due < end {
            std::thread::sleep(due - now);
        } else {
            break;
        }
    }
    (client, out)
}

/// Distinct random indices and fresh contents for one write batch; the
/// new versions enter the oracle before they are sent.
fn write_batch(
    rng: &mut rand::rngs::StdRng,
    params: &PirParams,
    oracle: &Oracle,
    batch: usize,
) -> Vec<RecordUpdate> {
    let mut indices = Vec::with_capacity(batch);
    while indices.len() < batch.min(params.num_records()) {
        let i = rng.gen_range(0..params.num_records());
        if !indices.contains(&i) {
            indices.push(i);
        }
    }
    indices
        .into_iter()
        .map(|i| {
            let mut bytes = vec![0u8; params.record_bytes()];
            rng.fill(&mut bytes[..]);
            oracle.add(i, bytes.clone());
            RecordUpdate::put(i, bytes)
        })
        .collect()
}

/// The writer: one `batch`-record put every `1 / hz` seconds, each acked
/// latency timed from when it was due.
fn write_loop(
    writer: &mut UpdateClient,
    mut rng: rand::rngs::StdRng,
    params: &PirParams,
    oracle: &Oracle,
    spec: spec::Writer,
    start: Instant,
    length: Duration,
) -> Outcome {
    let mut out = Outcome::default();
    let period = Duration::from_secs_f64(1.0 / spec.hz);
    let mut due = start + period;
    while due < start + length {
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let updates = write_batch(&mut rng, params, oracle, spec.batch);
        out.writes += 1;
        match writer.apply(&updates) {
            Ok(_) => out.ack_ms.push(ms(due.elapsed())),
            Err(e) => {
                eprintln!("benchmark: write failed: {e}");
                out.failed += 1;
            }
        }
        due += period;
    }
    out
}
