//! Host fingerprint and ceilings measured in the same run: cores, ISA
//! features, the resolved kernel backend, the single-thread read
//! bandwidth probe across sizes (and at the workload's database size),
//! and the per-call cost of one NTT and one FMA element on the
//! workload's first RNS prime.

use std::time::Instant;

use ive_baselines::roofline::measure_read_bandwidth;
use ive_math::kernel::BackendKind;
use ive_pir::PirParams;
use rand::{Rng, SeedableRng};

/// Sizes of the probe's bandwidth-vs-size curve.
const CURVE_MIB: [usize; 5] = [8, 32, 64, 128, 256];

/// A probe point within this factor of the largest size's bandwidth is
/// taken to stream from DRAM.
const KNEE_FACTOR: f64 = 1.25;

pub struct Host {
    pub cores: usize,
    pub features: Vec<&'static str>,
    pub backend: &'static str,
    /// `(bytes, GB/s)`, ascending by size.
    pub curve: Vec<(usize, f64)>,
    /// Smallest probed size at DRAM-level bandwidth.
    pub knee_bytes: usize,
    /// The probe at the database's own size, GB/s.
    pub db_gbps: f64,
    pub db_bytes: usize,
    pub ntt_us: f64,
    pub fma_ns_per_elem: f64,
}

impl Host {
    /// Whether the database sits on the cache side of the knee, where a
    /// scan must not be quoted against a DRAM ceiling.
    pub fn cache_side(&self) -> bool {
        self.db_bytes < self.knee_bytes
    }
}

fn features() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            out.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx512ifma") {
            out.push("avx512ifma");
        }
    }
    out
}

/// Median of `reps` timings of `iters` calls each, seconds per call.
fn per_call(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

pub fn probe(params: &PirParams) -> Host {
    let gbps =
        |bytes: usize| measure_read_bandwidth(bytes, if bytes > 512 << 20 { 2 } else { 4 }) / 1e9;
    let curve: Vec<(usize, f64)> = CURVE_MIB.iter().map(|&m| (m << 20, gbps(m << 20))).collect();
    let dram = curve.last().expect("non-empty curve").1;
    let knee_bytes =
        curve.iter().find(|&&(_, g)| g <= dram * KNEE_FACTOR).map_or(usize::MAX, |&(b, _)| b);
    let db_bytes = crate::spec::scan_bytes(params);
    let db_gbps = gbps(db_bytes);

    let backend = BackendKind::Auto.backend();
    let ring = params.he().ring();
    let modulus = ring.basis().moduli()[0];
    let table = ring.ntt(0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x6b65726e);
    let mut row: Vec<u64> = (0..ring.n()).map(|_| rng.gen_range(0..modulus.value())).collect();
    let pair = per_call(9, 200, || {
        backend.ntt_forward(table, &mut row);
        backend.ntt_inverse(table, &mut row);
    });
    let len = 1 << 16;
    let a: Vec<u64> = (0..len).map(|_| rng.gen_range(0..modulus.value())).collect();
    let b: Vec<u64> = (0..len).map(|_| rng.gen_range(0..modulus.value())).collect();
    let mut acc = vec![0u64; len];
    let fma = per_call(9, 20, || backend.fma(&modulus, &mut acc, &a, &b));
    std::hint::black_box((&row, &acc));

    Host {
        cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        features: features(),
        backend: backend.name(),
        curve,
        knee_bytes,
        db_gbps,
        db_bytes,
        ntt_us: pair / 2.0 * 1e6,
        fma_ns_per_elem: fma / len as f64 * 1e9,
    }
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "host: cores={} features={} backend={}",
            self.cores,
            if self.features.is_empty() { "none".to_string() } else { self.features.join(",") },
            self.backend
        )?;
        let curve: Vec<String> =
            self.curve.iter().map(|(b, g)| format!("{}MiB={g:.2}", b >> 20)).collect();
        writeln!(f, "host: read probe GB/s {} knee={}MiB", curve.join(" "), self.knee_bytes >> 20)?;
        writeln!(
            f,
            "host: database {:.1} MiB probe={:.2} GB/s {}",
            self.db_bytes as f64 / (1 << 20) as f64,
            self.db_gbps,
            if self.cache_side() {
                "CACHE SIDE of the knee: RowSel is quoted against this matched-size probe only"
            } else {
                "DRAM side of the knee"
            }
        )?;
        write!(f, "host: ntt_us={:.3} fma_ns_per_elem={:.4}", self.ntt_us, self.fma_ns_per_elem)
    }
}
