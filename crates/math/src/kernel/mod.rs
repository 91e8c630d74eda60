//! The VPE kernel layer: one backend executes every PIR hot kernel.
//!
//! IVE's central architectural claim is that a single set of *versatile*
//! processing elements runs every kernel the PIR pipeline needs — NTT
//! butterflies, pointwise multiply-accumulate, base conversion, and
//! automorphism address generation — over a memory-bandwidth-bound
//! database scan (§IV). This module is the software mirror of that shape:
//! a [`VpeBackend`] exposes the five hot kernels as flat-slice operations
//! on one residue limb at a time, and everything above (RNS polynomials,
//! BFV/RGSW algebra, `RowSel`/`ColTor`) dispatches through it instead of
//! open-coding scalar loops.
//!
//! Four implementations exist, one per submodule:
//!
//! * [`ScalarBackend`] ([`scalar`]) — the readable reference: textbook
//!   loops over [`crate::reduce::mul_mod`] (a 128-bit remainder per
//!   product). Slow on purpose; it is the oracle every other backend is
//!   differentially tested against (`tests/kernel_props.rs`).
//! * [`OptimizedBackend`] ([`optimized`]) — the portable serving path:
//!   precomputed Barrett per-limb constants (carried by [`Modulus`]),
//!   Shoup lazy twiddles in the NTT dispatch, a fused lazy-reduction FMA
//!   (`acc·q` folded into one Barrett reduction per element instead of
//!   reduce-then-add), and 4×-unrolled flat-slice loops.
//! * `SimdBackend` ([`simd`], `x86_64` only) — the wide-datapath path:
//!   AVX2 four-lane versions of the same arithmetic (64-bit high/low
//!   products assembled from `_mm256_mul_epu32` splits, conditional
//!   subtractions as branch-free vector compare/mask/sub). It is reached
//!   through **runtime detection**: [`BackendKind::Simd`] probes
//!   `is_x86_feature_detected!("avx2")` once (cached in a `OnceLock`)
//!   and falls back to [`OptimizedBackend`] when the host cannot run it,
//!   so no call site ever branches on the ISA.
//! * `Avx512Backend` ([`avx512`], `x86_64` only) — the widest datapath:
//!   eight-lane AVX-512 versions of the Barrett/Shoup arithmetic, every
//!   NTT level vectorized (the short `t < 8` levels through in-register
//!   `vpermt2q` shuffles), a fused [`VpeBackend::scan_fma`] database-scan
//!   kernel with software prefetch, and — where the host reports
//!   `avx512ifma` — 52-bit `vpmadd52` kernels that lift the 29-bit
//!   vector modulus cap to 50 bits. Same runtime-detection contract:
//!   [`BackendKind::Avx512`] falls back through AVX2 to the portable
//!   path, and [`BackendKind::Auto`] prefers it wherever `avx512f` is
//!   detected.
//!
//! All backends are **bit-identical** on every input — the software
//! analogue of §IV-G's observation that hardware may swap modular
//! multiplier circuits without changing results. Backends are stateless
//! zero-sized types, so a `&'static dyn VpeBackend` threads through the
//! stack without reference counting; scratch space comes from a
//! [`crate::arena::KernelArena`] owned by the calling worker.
//!
//! Operation counting for the model-validation tests
//! (`tests/op_count_validation.rs` at the workspace root) happens *here*:
//! each FMA/pointwise call charges [`crate::metrics`] with one MAC per
//! element and each NTT dispatch with one residue transform, so counts
//! stay exact no matter which layer — or which backend — invoked the
//! kernel.

use crate::gadget::Gadget;
use crate::modulus::Modulus;
use crate::ntt::NttTable;

pub mod avx512;
pub mod optimized;
pub mod scalar;
pub mod simd;

#[cfg(target_arch = "x86_64")]
pub use avx512::Avx512Backend;
pub use optimized::OptimizedBackend;
pub use scalar::ScalarBackend;
#[cfg(target_arch = "x86_64")]
pub use simd::SimdBackend;

/// The hot kernels of the PIR pipeline, per residue limb.
///
/// All slices are flat `u64` limb rows of one length `n` with elements in
/// `[0, q)`; outputs are always fully reduced. Implementations must be
/// bit-identical to [`ScalarBackend`] (enforced by differential property
/// tests).
pub trait VpeBackend: Send + Sync + core::fmt::Debug {
    /// Backend name for configs, logs, and bench JSON.
    fn name(&self) -> &'static str;

    /// Fused multiply-accumulate `acc[i] = acc[i] + a[i]·b[i] (mod q)` —
    /// the `RowSel` inner loop and the gadget-GEMM contraction.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    fn fma(&self, modulus: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]);

    /// Pointwise product `a[i] = a[i]·b[i] (mod q)`.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    fn pointwise_mul(&self, modulus: &Modulus, a: &mut [u64], b: &[u64]);

    /// In-place forward negacyclic NTT of one limb row.
    ///
    /// # Panics
    /// Panics if `a.len() != table.n()`.
    fn ntt_forward(&self, table: &NttTable, a: &mut [u64]);

    /// In-place inverse negacyclic NTT of one limb row (including the
    /// `n^{-1}` scaling).
    ///
    /// # Panics
    /// Panics if `a.len() != table.n()`.
    fn ntt_inverse(&self, table: &NttTable, a: &mut [u64]);

    /// Gadget decomposition `Dcp` (Fig. 3): splits every wide coefficient
    /// into `ℓ` base-`z` digits, written digit-major into `out`
    /// (`out[j·n + i]` is digit `j` of `wide[i]`, `n = wide.len()`).
    ///
    /// # Panics
    /// Panics if `out.len() != gadget.ell() * wide.len()`.
    fn gadget_decompose(&self, gadget: &Gadget, wide: &[u128], out: &mut [u64]);

    /// The fused `RowSel` scan step: one pass over a database limb row
    /// `w` feeds **both** ciphertext accumulators of a query —
    /// `acc_a[i] += w[i]·ea[i]` and `acc_b[i] += w[i]·eb[i]` (mod `q`).
    ///
    /// The database stream is the memory-bandwidth-bound half of the
    /// scan (§IV): fusing the two FMAs halves the number of passes over
    /// the limb-major shard buffer, and vector backends additionally
    /// run a software prefetch ahead of the stream. The default is the
    /// unfused pair of [`VpeBackend::fma`] calls, so every backend stays
    /// bit-identical by construction; overrides must charge the same
    /// two-MACs-per-element op count.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    fn scan_fma(
        &self,
        modulus: &Modulus,
        acc_a: &mut [u64],
        acc_b: &mut [u64],
        w: &[u64],
        ea: &[u64],
        eb: &[u64],
    ) {
        self.fma(modulus, acc_a, w, ea);
        self.fma(modulus, acc_b, w, eb);
    }

    /// The lazy `RowSel` scan step: `acc_a[i] += w[i]·ea[i]` and
    /// `acc_b[i] += w[i]·eb[i]` as plain `u64` sums, with **no** modular
    /// reduction — one 32×32→64 multiply and one add per term instead of
    /// a Barrett reduction per term.
    ///
    /// Only exact under the caller's guarantees: every operand is below
    /// `2^32` (true of every residue of a modulus `q ≤ 2^32`), and the
    /// sums are brought back to `[0, q)` with [`VpeBackend::reduce_lazy`]
    /// at least every [`lazy_mac_terms`] terms, so no sum passes `2^64`.
    /// Charges the same two MACs per element as [`VpeBackend::scan_fma`].
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    fn scan_mac_lazy(
        &self,
        acc_a: &mut [u64],
        acc_b: &mut [u64],
        w: &[u64],
        ea: &[u64],
        eb: &[u64],
    );

    /// Reduces raw [`VpeBackend::scan_mac_lazy`] sums (any `u64`) to the
    /// canonical `[0, q)` in place. The default is the portable
    /// single-word Barrett the vector backends share: it runs once per
    /// [`lazy_mac_terms`] MACs, so it is off the hot path.
    fn reduce_lazy(&self, modulus: &Modulus, acc: &mut [u64]) {
        let q = modulus.value();
        let ratio = OptimizedBackend::narrow_ratio(q);
        for x in acc.iter_mut() {
            // `ratio = ⌊2^64/q⌋` (q odd) under-estimates the quotient by
            // at most one, so the remainder lands in [0, 2q).
            let est = ((u128::from(*x) * u128::from(ratio)) >> 64) as u64;
            *x = optimized::cond_sub(*x - est * q, q);
        }
    }
}

/// `L(q) = ⌊(2^64 − q)/(q − 1)²⌋`: how many [`VpeBackend::scan_mac_lazy`]
/// terms a raw sum can take on top of a carry-in below `q` before it
/// could pass `2^64` — the reduction interval of the lazy scan. `None`
/// when `q > 2^32`, where products no longer fit 32-bit operands and the
/// scan keeps the reducing [`VpeBackend::scan_fma`]. The Table I 28-bit
/// primes give `L ≥ 256 = D0`: one reduction per segment sweep.
pub fn lazy_mac_terms(modulus: &Modulus) -> Option<usize> {
    if modulus.bits() > 32 {
        return None;
    }
    let q = u128::from(modulus.value());
    let terms = ((1u128 << 64) - q) / ((q - 1) * (q - 1));
    Some(usize::try_from(terms).unwrap_or(usize::MAX))
}

/// Software-prefetches every cache line of `row` into all cache levels
/// (`prefetcht0`) so a streaming scan can overlap the next segment's
/// DRAM fetch with the current segment's arithmetic. A hint only: no-op
/// on non-`x86_64` targets, never faults, and safe on slices of any
/// length.
#[inline(always)]
pub fn prefetch_row(row: &[u64]) {
    #[cfg(target_arch = "x86_64")]
    {
        // 8 u64 per 64-byte line.
        for line in 0..row.len().div_ceil(8) {
            // SAFETY: prefetch is architecturally a hint; even a dangling
            // address cannot fault, and `line * 8 < row.len()` keeps the
            // pointer in-bounds anyway.
            unsafe {
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                    row.as_ptr().add(line * 8).cast(),
                );
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// Best-effort estimate of the last-level cache size in bytes, probed
/// once per process (Linux sysfs `cpu0/cache`, highest level present)
/// with a conservative 32 MiB fallback when the hierarchy cannot be
/// read. The benches compare a database against it to warn when a scan
/// they time would run from cache rather than DRAM.
pub fn effective_llc_bytes() -> usize {
    static LLC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *LLC.get_or_init(|| {
        const FALLBACK: usize = 32 << 20;
        let mut best: Option<(u32, usize)> = None;
        for index in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else { break };
            let Ok(level) = level.trim().parse::<u32>() else { continue };
            let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else { continue };
            let size = size.trim();
            let (digits, unit) =
                size.split_at(size.find(|c: char| !c.is_ascii_digit()).unwrap_or(size.len()));
            let Ok(value) = digits.parse::<usize>() else { continue };
            let bytes = match unit.trim() {
                "" => value,
                "K" | "KB" | "k" => value << 10,
                "M" | "MB" | "m" => value << 20,
                "G" | "GB" | "g" => value << 30,
                _ => continue,
            };
            if best.is_none_or(|(l, _)| level >= l) {
                best = Some((level, bytes));
            }
        }
        match best {
            Some((_, bytes)) if bytes > 0 => bytes,
            _ => FALLBACK,
        }
    })
}

/// Whether the SIMD backend can actually run on this machine (AVX2
/// present and the crate was built for `x86_64`). Probed once per
/// process; every later call is a cached load.
#[inline]
pub fn simd_available() -> bool {
    simd::available()
}

/// Whether the AVX-512 backend can actually run on this machine
/// (`avx512f` present and the crate was built for `x86_64`). Probed once
/// per process; every later call is a cached load.
#[inline]
pub fn avx512_available() -> bool {
    avx512::available()
}

/// Whether the AVX-512 backend's 52-bit IFMA tier can run here
/// (`avx512f` **and** `avx512ifma` detected): with it, vector kernels
/// cover moduli up to 50 bits; without it, moduli above 29 bits fall
/// back to the portable path.
#[inline]
pub fn avx512_ifma_available() -> bool {
    avx512::ifma_available()
}

/// Which [`VpeBackend`] a configuration selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The scalar reference backend (slow, oracle).
    Scalar,
    /// The portable Barrett/Shoup lazy-reduction backend.
    Optimized,
    /// The AVX2 wide-datapath backend. Falls back to [`Optimized`]
    /// (resolved once, at selection time) on hosts without AVX2, so
    /// requesting it is always safe; check [`simd_available`] to learn
    /// what actually runs.
    ///
    /// [`Optimized`]: BackendKind::Optimized
    Simd,
    /// The AVX-512 (and, where detected, IFMA) wide-datapath backend:
    /// eight lanes, fully vectorized NTT levels, the fused prefetching
    /// scan kernel, and a 52-bit vector multiplier tier on `avx512ifma`
    /// hosts. Falls back through [`Simd`] to [`Optimized`] (resolved
    /// once, at selection time) on hosts without `avx512f`, so
    /// requesting it is always safe; check [`avx512_available`] /
    /// [`avx512_ifma_available`] to learn what actually runs.
    ///
    /// [`Simd`]: BackendKind::Simd
    /// [`Optimized`]: BackendKind::Optimized
    Avx512,
    /// Picks the fastest backend the host supports (the serving
    /// default): [`Avx512`] where `avx512f` is detected, [`Simd`] where
    /// only AVX2 is, [`Optimized`] everywhere else.
    ///
    /// [`Avx512`]: BackendKind::Avx512
    /// [`Simd`]: BackendKind::Simd
    /// [`Optimized`]: BackendKind::Optimized
    #[default]
    Auto,
}

/// All selectable kinds, in `Display` order — the single source for
/// `FromStr` error messages and round-trip tests.
pub const BACKEND_KINDS: [BackendKind; 5] = [
    BackendKind::Scalar,
    BackendKind::Optimized,
    BackendKind::Simd,
    BackendKind::Avx512,
    BackendKind::Auto,
];

impl BackendKind {
    /// Resolves the selection to a backend instance. `Simd` and `Auto`
    /// resolve through the cached runtime feature probe, so the returned
    /// reference never needs a per-call ISA branch.
    pub fn backend(self) -> &'static dyn VpeBackend {
        match self {
            BackendKind::Scalar => &ScalarBackend,
            BackendKind::Optimized => &OptimizedBackend,
            BackendKind::Simd => simd::best_available(),
            BackendKind::Avx512 | BackendKind::Auto => avx512::best_available(),
        }
    }

    /// The canonical config-file / CLI name of this kind (what
    /// `Display` prints and `FromStr` parses). Distinct from
    /// [`VpeBackend::name`], which reports what actually *runs* — on a
    /// host without AVX2, `BackendKind::Simd.as_str()` is `"simd"` while
    /// `BackendKind::Simd.backend().name()` is `"optimized"`.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Optimized => "optimized",
            BackendKind::Simd => "simd",
            BackendKind::Avx512 => "avx512",
            BackendKind::Auto => "auto",
        }
    }
}

impl core::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown [`BackendKind`] name: names
/// every valid variant so configs fail loudly instead of silently
/// defaulting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendKindError {
    /// The rejected input.
    pub unknown: String,
}

impl core::fmt::Display for ParseBackendKindError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "unknown backend {:?}; valid backends are", self.unknown)?;
        for (i, kind) in BACKEND_KINDS.iter().enumerate() {
            write!(f, "{} \"{kind}\"", if i == 0 { "" } else { "," })?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseBackendKindError {}

impl core::str::FromStr for BackendKind {
    type Err = ParseBackendKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BACKEND_KINDS
            .into_iter()
            .find(|kind| kind.as_str() == s)
            .ok_or_else(|| ParseBackendKindError { unknown: s.to_string() })
    }
}

/// The backend every layer uses unless told otherwise (the [`Auto`]
/// resolution: the widest vector datapath the host supports).
///
/// [`Auto`]: BackendKind::Auto
#[inline]
pub fn default_backend() -> &'static dyn VpeBackend {
    BackendKind::default().backend()
}

/// Whole-polynomial FMA over all residue limbs: `acc += a ⊙ b` where the
/// three slices are flat `k × n` limb matrices (`n` inferred from the
/// length). The helper the `RowSel` scan and gadget GEMMs build on.
///
/// # Panics
/// Panics if lengths differ or are not a multiple of `moduli.len()`.
pub fn fma_poly(
    backend: &dyn VpeBackend,
    moduli: &[Modulus],
    acc: &mut [u64],
    a: &[u64],
    b: &[u64],
) {
    assert_eq!(acc.len(), a.len());
    assert_eq!(acc.len(), b.len());
    assert_eq!(acc.len() % moduli.len(), 0, "flat poly not a multiple of the limb count");
    let n = acc.len() / moduli.len();
    for (m, modulus) in moduli.iter().enumerate() {
        backend.fma(
            modulus,
            &mut acc[m * n..(m + 1) * n],
            &a[m * n..(m + 1) * n],
            &b[m * n..(m + 1) * n],
        );
    }
}

/// Whole-polynomial pointwise product over all residue limbs
/// (`a ⊙= b`, flat `k × n` layout as in [`fma_poly`]).
///
/// # Panics
/// Panics if lengths differ or are not a multiple of `moduli.len()`.
pub fn pointwise_mul_poly(backend: &dyn VpeBackend, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len() % moduli.len(), 0, "flat poly not a multiple of the limb count");
    let n = a.len() / moduli.len();
    for (m, modulus) in moduli.iter().enumerate() {
        backend.pointwise_mul(modulus, &mut a[m * n..(m + 1) * n], &b[m * n..(m + 1) * n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::str::FromStr;
    use rand::{Rng, SeedableRng};

    fn modulus() -> Modulus {
        Modulus::special_primes()[0]
    }

    fn rand_row(n: usize, q: u64, rng: &mut impl Rng) -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..q)).collect()
    }

    #[test]
    fn backends_agree_on_fma_and_mul() {
        let m = modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        for n in [1usize, 3, 4, 7, 64, 255] {
            let a = rand_row(n, m.value(), &mut rng);
            let b = rand_row(n, m.value(), &mut rng);
            let acc0 = rand_row(n, m.value(), &mut rng);
            let (mut s, mut o) = (acc0.clone(), acc0.clone());
            ScalarBackend.fma(&m, &mut s, &a, &b);
            OptimizedBackend.fma(&m, &mut o, &a, &b);
            assert_eq!(s, o, "fma n={n}");
            let (mut s, mut o) = (acc0.clone(), acc0);
            ScalarBackend.pointwise_mul(&m, &mut s, &b);
            OptimizedBackend.pointwise_mul(&m, &mut o, &b);
            assert_eq!(s, o, "mul n={n}");
        }
    }

    #[test]
    fn fma_poly_spans_limbs() {
        let moduli = Modulus::special_primes()[..2].to_vec();
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let n = 16;
        let flat = |rng: &mut rand::rngs::StdRng| -> Vec<u64> {
            moduli.iter().flat_map(|m| rand_row(n, m.value(), rng)).collect()
        };
        let a = flat(&mut rng);
        let b = flat(&mut rng);
        let mut acc = vec![0u64; 2 * n];
        fma_poly(default_backend(), &moduli, &mut acc, &a, &b);
        for (m, modulus) in moduli.iter().enumerate() {
            for i in 0..n {
                assert_eq!(acc[m * n + i], modulus.mul(a[m * n + i], b[m * n + i]));
            }
        }
    }

    #[test]
    fn kind_display_fromstr_roundtrip_all_variants() {
        for kind in BACKEND_KINDS {
            let name = kind.to_string();
            assert_eq!(BackendKind::from_str(&name), Ok(kind), "round-trip {name}");
        }
        assert_eq!(BackendKind::from_str("scalar"), Ok(BackendKind::Scalar));
        assert_eq!(BackendKind::from_str("optimized"), Ok(BackendKind::Optimized));
        assert_eq!(BackendKind::from_str("simd"), Ok(BackendKind::Simd));
        assert_eq!(BackendKind::from_str("avx512"), Ok(BackendKind::Avx512));
        assert_eq!(BackendKind::from_str("auto"), Ok(BackendKind::Auto));
    }

    #[test]
    fn unknown_kind_error_names_every_variant() {
        let err = BackendKind::from_str("sse9").expect_err("must reject");
        let msg = err.to_string();
        assert!(msg.contains("\"sse9\""), "echoes the input: {msg}");
        for kind in BACKEND_KINDS {
            assert!(msg.contains(&format!("\"{kind}\"")), "names {kind}: {msg}");
        }
    }

    #[test]
    fn auto_resolves_to_best_available() {
        assert_eq!(BackendKind::default(), BackendKind::Auto);
        let auto = BackendKind::Auto.backend().name();
        let simd = BackendKind::Simd.backend().name();
        let avx512 = BackendKind::Avx512.backend().name();
        // Auto prefers avx512 → simd → optimized, per the cached probes.
        if avx512_available() {
            assert_eq!(auto, "avx512");
            assert_eq!(avx512, "avx512");
        } else if simd_available() {
            assert_eq!(auto, "simd");
            assert_eq!(avx512, "simd", "Avx512 must fall back to AVX2 when undetected");
        } else {
            assert_eq!(auto, "optimized");
            assert_eq!(avx512, "optimized", "Avx512 must fall back when undetected");
        }
        if simd_available() {
            assert_eq!(simd, "simd");
        } else {
            assert_eq!(simd, "optimized", "Simd must fall back when undetected");
        }
        assert!(!avx512_ifma_available() || avx512_available(), "IFMA implies AVX-512F");
        assert_eq!(BackendKind::Scalar.backend().name(), "scalar");
        assert_eq!(BackendKind::Optimized.backend().name(), "optimized");
        // Display reflects the *selection*, not the resolution.
        assert_eq!(BackendKind::Auto.to_string(), "auto");
        assert_eq!(BackendKind::Simd.to_string(), "simd");
        assert_eq!(BackendKind::Avx512.to_string(), "avx512");
    }

    #[test]
    fn scan_fma_default_matches_unfused_pair() {
        let m = modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(59);
        for n in [0usize, 1, 7, 8, 64, 255] {
            let w = rand_row(n, m.value(), &mut rng);
            let ea = rand_row(n, m.value(), &mut rng);
            let eb = rand_row(n, m.value(), &mut rng);
            let a0 = rand_row(n, m.value(), &mut rng);
            let b0 = rand_row(n, m.value(), &mut rng);
            for kind in BACKEND_KINDS {
                let backend = kind.backend();
                let (mut fa, mut fb) = (a0.clone(), b0.clone());
                backend.scan_fma(&m, &mut fa, &mut fb, &w, &ea, &eb);
                let (mut ua, mut ub) = (a0.clone(), b0.clone());
                backend.fma(&m, &mut ua, &w, &ea);
                backend.fma(&m, &mut ub, &w, &eb);
                assert_eq!(fa, ua, "{kind} acc_a n={n}");
                assert_eq!(fb, ub, "{kind} acc_b n={n}");
            }
            // Prefetching is a hint with no semantics to test beyond
            // "does not fault on short rows".
            prefetch_row(&w);
        }
    }

    #[test]
    fn llc_estimate_is_plausible() {
        let llc = effective_llc_bytes();
        assert!(llc >= 64 << 10, "LLC estimate below any real cache: {llc}");
        assert!(llc <= 4 << 30, "LLC estimate above any real socket: {llc}");
        assert_eq!(llc, effective_llc_bytes(), "probe must be cached and stable");
    }
}
