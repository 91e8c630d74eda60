//! The three workloads, and the seeded generators every input comes from.
//!
//! A workload fixes geometry, server settings and load shape; the seed
//! fixes the records, the read indices, the arrival times and the update
//! contents. The program under test receives only the generated inputs.

use std::time::Duration;

use ive_he::HeParams;
use ive_pir::PirParams;
use ive_serve::ServeConfig;
use rand::{Rng, RngCore, SeedableRng};

/// How the load phase offers work.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Each of `connections` threads keeps `depth` queries in flight and
    /// submits the next one only when an answer arrives.
    Closed { connections: usize, depth: usize },
    /// One reader connection with Poisson arrivals at `read_qps`.
    Open { read_qps: f64 },
}

/// A writer connection putting `batch` records every `1 / hz` seconds; the
/// server then accepts updates and journals them (fsync'd).
#[derive(Debug, Clone, Copy)]
pub struct Writer {
    pub hz: f64,
    pub batch: usize,
    /// The percentile `update.ack_tail_ms` reports.
    pub tail_pct: f64,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub params: PirParams,
    pub load: Load,
    /// Batching window and largest batch; `None` keeps
    /// `ServeConfig::default()`'s.
    pub window: Option<(Duration, usize)>,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// The percentile `latency_tail_ms` reports, chosen for the configured
    /// run length so that about ten samples lie beyond it.
    pub tail_pct: f64,
    /// Batches the traced replay runs (each untraced and traced).
    pub replay_batches: usize,
    /// The writer beside the reads; `None` keeps the service read-only.
    pub writes: Option<Writer>,
    /// Direct engine commits the traced run times.
    pub commit_epochs: usize,
}

impl Workload {
    /// Every workload, by name.
    pub fn all() -> Vec<Workload> {
        let paper = |dims| PirParams::new(HeParams::paper(), 256, dims).expect("Table I geometry");
        vec![
            Workload {
                name: "table1-64mib",
                params: paper(1),
                load: Load::Closed { connections: 1, depth: 1 },
                window: None,
                setup_reps: 3,
                tail_pct: 75.0,
                replay_batches: 3,
                writes: Some(Writer { hz: 2.0, batch: 1, tail_pct: 85.0 }),
                commit_epochs: 5,
            },
            Workload {
                name: "table1-2gib-batch",
                params: paper(6),
                load: Load::Closed { connections: 2, depth: 2 },
                // Every in-flight query joins one batch: it dispatches as
                // soon as all four have arrived, or after a second.
                window: Some((Duration::from_secs(1), 4)),
                setup_reps: 2,
                tail_pct: 55.0,
                replay_batches: 1,
                writes: None,
                commit_epochs: 5,
            },
            Workload {
                name: "toy-churn",
                params: PirParams::toy(),
                load: Load::Open { read_qps: 90.0 },
                window: None,
                setup_reps: 7,
                tail_pct: 99.0,
                replay_batches: 40,
                writes: Some(Writer { hz: 10.0, batch: 2, tail_pct: 95.0 }),
                commit_epochs: 20,
            },
        ]
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// The server settings: `ServeConfig::default()` plus this workload's
    /// window and update switches.
    pub fn config(&self, journal: Option<std::path::PathBuf>) -> ServeConfig {
        let accept_updates = self.writes.is_some();
        let mut config = ServeConfig { accept_updates, journal, ..ServeConfig::default() };
        if let Some((window, max_batch)) = self.window {
            config.window = window;
            config.max_batch = max_batch;
        }
        config
    }
}

/// Independent, seeded input streams. Each stream is derived from the
/// workload seed and a fixed stream label, so adding a consumer never
/// shifts another stream's values.
pub struct Seeds(u64);

impl Seeds {
    pub fn new(seed: u64) -> Self {
        Seeds(seed)
    }

    pub fn stream(&self, label: u64) -> rand::rngs::StdRng {
        let mixed =
            self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ label.wrapping_mul(0xd6e8_feb8_6659_fd93);
        rand::rngs::StdRng::seed_from_u64(mixed)
    }
}

/// Stream labels.
pub const RECORDS: u64 = 1;
pub const KEYS: u64 = 2;
pub const READS: u64 = 3;
pub const ARRIVALS: u64 = 4;
pub const WRITES: u64 = 5;
pub const REPLAY: u64 = 6;

/// The database contents: `num_records` full-width random records.
pub fn records(params: &PirParams, seeds: &Seeds) -> Vec<Vec<u8>> {
    let mut rng = seeds.stream(RECORDS);
    (0..params.num_records())
        .map(|_| {
            let mut rec = vec![0u8; params.record_bytes()];
            rng.fill_bytes(&mut rec);
            rec
        })
        .collect()
}

/// Bytes one RowSel pass streams: every record's NTT-form polynomial,
/// one `u64` word per residue coefficient (the in-memory database size).
pub fn scan_bytes(params: &PirParams) -> usize {
    let ring = params.he().ring();
    params.num_records() * ring.basis().len() * ring.n() * 8
}

/// One exponential inter-arrival gap at `rate` per second.
pub fn exp_gap(rng: &mut impl Rng, rate: f64) -> Duration {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    Duration::from_secs_f64(-u.ln() / rate)
}
