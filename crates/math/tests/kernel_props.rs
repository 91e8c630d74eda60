//! Differential property tests for the VPE kernel layer: on random
//! inputs, every accelerated backend must be **bit-identical** to the
//! scalar reference backend for all five hot kernels — the software
//! counterpart of §IV-G's claim that swapping modular multiplier
//! circuits never changes results.
//!
//! The tests run a backend-pair **matrix**: `scalar ≡ optimized` always,
//! `scalar ≡ simd` whenever the host's AVX2 is detected, and
//! `scalar ≡ avx512` whenever `avx512f` is (on other hosts the vector
//! pairs are skipped cleanly rather than silently testing the fallback
//! twice). The modulus pool straddles every dispatch boundary: the
//! paper's four 28-bit special primes, an NTT-friendly prime hugging
//! the 29-bit cutoff of the AVX2/AVX-512F vector paths from below, one
//! just above it (the first prime only IFMA's 52-bit multiplier can
//! vectorize), one just under 2^32 (the narrow scalar path's boundary),
//! a 40-bit mid-IFMA-tier prime, one hugging the 50-bit IFMA cap from
//! below, one just above it (back to the wide scalar fallback on every
//! backend), and a 51-bit prime. Lengths are drawn from `1..300`, so
//! non-multiples of the four- and eight-lane vector widths and sub-lane
//! rows are always in play.

use std::sync::{Mutex, MutexGuard};

use ive_math::gadget::Gadget;
use ive_math::kernel::{
    avx512_available, avx512_ifma_available, lazy_mac_terms, prefetch_row, simd_available,
    BackendKind, ScalarBackend, VpeBackend,
};
use ive_math::metrics;
use ive_math::modulus::Modulus;
use ive_math::ntt::NttTable;
use ive_math::prime::find_ntt_prime_below;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Every backend that must match the scalar oracle on this host:
/// `optimized` always, `simd` only when the runtime probe finds AVX2,
/// `avx512` only when it finds AVX-512F (the `BackendKind` fallbacks
/// would otherwise just re-test a lower backend under another label).
fn backends_under_test() -> Vec<&'static dyn VpeBackend> {
    let mut v: Vec<&'static dyn VpeBackend> = vec![BackendKind::Optimized.backend()];
    if simd_available() {
        let simd = BackendKind::Simd.backend();
        assert_eq!(simd.name(), "simd", "probe says AVX2 but Simd resolved to the fallback");
        v.push(simd);
    } else {
        eprintln!("kernel_props: AVX2 not detected, scalar≡simd pairs skipped");
    }
    if avx512_available() {
        let avx512 = BackendKind::Avx512.backend();
        assert_eq!(
            avx512.name(),
            "avx512",
            "probe says AVX-512F but Avx512 resolved to the fallback"
        );
        v.push(avx512);
        if !avx512_ifma_available() {
            eprintln!("kernel_props: AVX-512 IFMA not detected, 30..50-bit q test the fallback");
        }
    } else {
        eprintln!("kernel_props: AVX-512F not detected, scalar≡avx512 pairs skipped");
    }
    v
}

/// The modulus pool: four 28-bit special primes plus the largest
/// NTT-friendly primes below 2^29 (the widest the 32-bit-multiplier
/// vector paths accept), 2^30 (first IFMA-only prime), 2^32 (narrow
/// scalar fallback boundary), 2^40 (mid IFMA tier), 2^50 (widest the
/// IFMA tier accepts), and 2^51 (first prime that is wide-fallback on
/// every backend). All support negacyclic NTTs to degree 512.
fn modulus_pool() -> Vec<Modulus> {
    let mut pool = Modulus::special_primes().to_vec();
    for bits in [29u32, 30, 32, 40, 50, 51] {
        let q = find_ntt_prime_below(bits, 512)
            .unwrap_or_else(|| panic!("an NTT-friendly prime below 2^{bits} exists"));
        pool.push(Modulus::new(q));
    }
    pool
}

fn pick_modulus(which: usize) -> Modulus {
    let pool = modulus_pool();
    pool[which % pool.len()]
}

fn rand_row(n: usize, q: u64, rng: &mut impl Rng) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(0..q)).collect()
}

/// Serializes the tests of this binary: the op counters are
/// process-global, so the MAC-count check needs every other kernel call
/// out of the way. Every test takes it first.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The lazy scan the way `RowSel` drives it: one [`VpeBackend::scan_mac_lazy`]
/// per term on top of the carry-in `(acc_a, acc_b)`, a reduction every
/// `L(q)` terms, and one at the end.
fn lazy_scan(
    backend: &dyn VpeBackend,
    m: &Modulus,
    acc_a: &mut [u64],
    acc_b: &mut [u64],
    terms: &[[Vec<u64>; 3]],
) {
    let l = lazy_mac_terms(m).expect("lazy path needs q <= 2^32");
    for (t, [w, ea, eb]) in terms.iter().enumerate() {
        if t > 0 && t % l == 0 {
            backend.reduce_lazy(m, acc_a);
            backend.reduce_lazy(m, acc_b);
        }
        backend.scan_mac_lazy(acc_a, acc_b, w, ea, eb);
    }
    backend.reduce_lazy(m, acc_a);
    backend.reduce_lazy(m, acc_b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fma_is_bit_identical(seed in any::<u64>(), which in 0usize..10, n in 1usize..300) {
        let _serial = serial();
        let m = pick_modulus(which);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = rand_row(n, m.value(), &mut rng);
        let b = rand_row(n, m.value(), &mut rng);
        let acc0 = rand_row(n, m.value(), &mut rng);
        let mut scalar = acc0.clone();
        ScalarBackend.fma(&m, &mut scalar, &a, &b);
        for backend in backends_under_test() {
            let mut out = acc0.clone();
            backend.fma(&m, &mut out, &a, &b);
            prop_assert_eq!(&scalar, &out, "fma diverged: {} q={}", backend.name(), m.value());
        }
    }

    #[test]
    fn pointwise_mul_is_bit_identical(seed in any::<u64>(), which in 0usize..10, n in 1usize..300) {
        let _serial = serial();
        let m = pick_modulus(which);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let b = rand_row(n, m.value(), &mut rng);
        let a0 = rand_row(n, m.value(), &mut rng);
        let mut scalar = a0.clone();
        ScalarBackend.pointwise_mul(&m, &mut scalar, &b);
        for backend in backends_under_test() {
            let mut out = a0.clone();
            backend.pointwise_mul(&m, &mut out, &b);
            prop_assert_eq!(&scalar, &out, "mul diverged: {} q={}", backend.name(), m.value());
        }
    }

    #[test]
    fn scan_fma_is_bit_identical(seed in any::<u64>(), which in 0usize..10, n in 1usize..300) {
        let _serial = serial();
        // The fused database-scan kernel must equal the unfused pair of
        // FMAs run through the scalar oracle — on every backend, fused
        // override or default.
        let m = pick_modulus(which);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w = rand_row(n, m.value(), &mut rng);
        let ea = rand_row(n, m.value(), &mut rng);
        let eb = rand_row(n, m.value(), &mut rng);
        let a0 = rand_row(n, m.value(), &mut rng);
        let b0 = rand_row(n, m.value(), &mut rng);
        let (mut scalar_a, mut scalar_b) = (a0.clone(), b0.clone());
        ScalarBackend.fma(&m, &mut scalar_a, &w, &ea);
        ScalarBackend.fma(&m, &mut scalar_b, &w, &eb);
        for backend in backends_under_test() {
            let (mut out_a, mut out_b) = (a0.clone(), b0.clone());
            backend.scan_fma(&m, &mut out_a, &mut out_b, &w, &ea, &eb);
            prop_assert_eq!(&scalar_a, &out_a, "scan acc_a diverged: {} q={}", backend.name(), m.value());
            prop_assert_eq!(&scalar_b, &out_b, "scan acc_b diverged: {} q={}", backend.name(), m.value());
        }
    }

    #[test]
    fn lazy_scan_is_bit_identical(
        seed in any::<u64>(),
        which in 0usize..7,
        n_raw in 1usize..700,
        terms in 1usize..40,
    ) {
        // Lazy MACs plus reductions must equal the scalar oracle's
        // reducing `scan_fma` run once per term, on every backend and
        // every modulus the lazy path takes (the pool's first seven, up
        // to 32 bits). The 30- and 32-bit primes have L(q) < 40, so the
        // mid-sweep reductions run; `n` straddles the 512-word scan
        // segment, so partial and multi-segment rows are drawn.
        let _serial = serial();
        let n = if n_raw > 350 { 512 + (n_raw - 350) } else { n_raw };
        let m = modulus_pool()[which];
        let q = m.value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<[Vec<u64>; 3]> = (0..terms)
            .map(|_| [rand_row(n, q, &mut rng), rand_row(n, q, &mut rng), rand_row(n, q, &mut rng)])
            .collect();
        let a0 = rand_row(n, q, &mut rng);
        let b0 = rand_row(n, q, &mut rng);
        let (mut ref_a, mut ref_b) = (a0.clone(), b0.clone());
        for [w, ea, eb] in &rows {
            ScalarBackend.scan_fma(&m, &mut ref_a, &mut ref_b, w, ea, eb);
        }
        let mut all: Vec<&'static dyn VpeBackend> = vec![&ScalarBackend];
        all.extend(backends_under_test());
        for backend in all {
            // The scan prefetches the next segment while this one
            // computes; the hint must be inert.
            prefetch_row(&rows[0][0]);
            let (mut out_a, mut out_b) = (a0.clone(), b0.clone());
            lazy_scan(backend, &m, &mut out_a, &mut out_b, &rows);
            prop_assert_eq!(&ref_a, &out_a, "lazy acc_a diverged: {} q={} n={}", backend.name(), q, n);
            prop_assert_eq!(&ref_b, &out_b, "lazy acc_b diverged: {} q={} n={}", backend.name(), q, n);
        }
    }

    #[test]
    fn ntt_dispatch_is_bit_identical(seed in any::<u64>(), which in 0usize..10, log_n in 1u32..10) {
        let _serial = serial();
        let m = pick_modulus(which);
        let n = 1usize << log_n;
        let table = NttTable::new(&m, n).expect("pool primes are NTT-friendly to 2^9");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let orig = rand_row(n, m.value(), &mut rng);

        let mut scalar_f = orig.clone();
        ScalarBackend.ntt_forward(&table, &mut scalar_f);
        let mut scalar_i = scalar_f.clone();
        ScalarBackend.ntt_inverse(&table, &mut scalar_i);
        prop_assert_eq!(&scalar_i, &orig, "scalar roundtrip lost the input");

        for backend in backends_under_test() {
            let mut out = orig.clone();
            backend.ntt_forward(&table, &mut out);
            prop_assert_eq!(&scalar_f, &out, "forward diverged: {} q={}", backend.name(), m.value());
            backend.ntt_inverse(&table, &mut out);
            prop_assert_eq!(&scalar_i, &out, "inverse diverged: {} q={}", backend.name(), m.value());
        }
    }

    #[test]
    fn gadget_decompose_is_bit_identical(
        seed in any::<u64>(),
        base_bits in 1u32..=27,
        n in 1usize..64,
    ) {
        let _serial = serial();
        // ell chosen to cover a 109-bit Q like the paper's.
        let gadget = Gadget::for_modulus((1u128 << 109) - 1, base_bits);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let wide: Vec<u128> = (0..n).map(|_| rng.gen::<u128>() >> 19).collect();
        let mut scalar = vec![0u64; gadget.ell() * n];
        ScalarBackend.gadget_decompose(&gadget, &wide, &mut scalar);
        for backend in backends_under_test() {
            let mut out = vec![0u64; gadget.ell() * n];
            backend.gadget_decompose(&gadget, &wide, &mut out);
            prop_assert_eq!(
                &scalar, &out,
                "decompose diverged: {} base=2^{}", backend.name(), base_bits
            );
        }
    }
}

#[test]
fn lazy_scan_is_exact_at_worst_case_operands_and_counts_two_macs_per_element() {
    // All operands q − 1 on a q − 1 carry-in, for exactly L(q) terms with
    // no reduction in between: the raw sums reach their largest possible
    // value, which L(q) keeps within u64 (the scalar oracle panics on a
    // wrap), and one more term could pass 2^64.
    let _serial = serial();
    let n = 37;
    for m in modulus_pool() {
        let q = m.value();
        let Some(l) = lazy_mac_terms(&m) else {
            assert!(m.bits() > 32, "q = {q} fits 32 bits but has no lazy interval");
            continue;
        };
        if m.is_special() {
            assert!(l >= 256, "Table I prime {q}: L = {l} < D0");
        }
        let worst = u128::from(q - 1) + l as u128 * u128::from(q - 1).pow(2);
        assert!(worst <= u128::from(u64::MAX), "L({q}) = {l} overflows");
        assert!(worst + u128::from(q - 1).pow(2) > u128::from(u64::MAX), "L({q}) = {l} not tight");
        let expect = (worst % u128::from(q)) as u64;
        let top = vec![q - 1; n];
        let mut all: Vec<&'static dyn VpeBackend> = vec![&ScalarBackend];
        all.extend(backends_under_test());
        for backend in all {
            let (mut acc_a, mut acc_b) = (top.clone(), top.clone());
            for _ in 0..l {
                let before = metrics::snapshot().pointwise_macs;
                backend.scan_mac_lazy(&mut acc_a, &mut acc_b, &top, &top, &top);
                let macs = metrics::snapshot().pointwise_macs - before;
                assert_eq!(
                    macs,
                    2 * n as u64,
                    "{} charged {macs} MACs for {n} elements",
                    backend.name()
                );
            }
            assert!(
                acc_a.iter().all(|&x| u128::from(x) == worst),
                "{} raw sum q={q}",
                backend.name()
            );
            backend.reduce_lazy(&m, &mut acc_a);
            backend.reduce_lazy(&m, &mut acc_b);
            assert!(
                acc_a.iter().chain(&acc_b).all(|&x| x == expect),
                "{} reduced worst-case sum q={q}",
                backend.name()
            );
        }
    }
}
