//! The AVX2 wide-datapath backend — the software analogue of IVE's wide
//! PE lanes.
//!
//! `SimdBackend` runs the hot kernels four 64-bit lanes at a time using
//! `std::arch::x86_64` AVX2 intrinsics. AVX2 has no 64-bit vector
//! multiplier, only the 32×32→64 `_mm256_mul_epu32` — and any attempt to
//! assemble a full 64×64 high product from four partial products gets
//! pattern-matched by LLVM back into *scalarized* 64-bit multiplies
//! (lane extracts + `mul` + reinserts), which is slower than not
//! vectorizing at all. So the vector paths are built to need **only**
//! 32-bit multiplier splits:
//!
//! * **FMA / pointwise mul** (`bits(q) ≤ 29`): a quotient-estimate
//!   Barrett. With `m = bits(q)`, precompute
//!   `μ = floor(2^(m+29) / q) < 2^30`; for `p = a·b + acc < q² ≤ 2^2m`,
//!   estimate `est = (((p >> (m-1)) · μ) >> 30)`. Three
//!   `_mm256_mul_epu32` per vector (product, estimate, `est·q`), every
//!   operand `< 2^32`. The estimate satisfies `Q-2 ≤ est ≤ Q` for the
//!   true quotient `Q = floor(p/q)` — the proof needs
//!   `(p >> (m-1)) < 2^30`, i.e. `m ≤ 29`, which is exactly why the
//!   fixed post-shift of 30 makes the 29-bit dispatch cap load-bearing
//!   — so `p - est·q < 3q` and two conditional subtractions finish the
//!   *exact* canonical residue.
//! * **Harvey NTT butterflies** (`bits(q) ≤ 29`): the same lazy `[0, 4q)`
//!   level structure as the optimized backend, but with the Shoup
//!   twiddle quotient truncated to its high 32 bits
//!   (`w32 = floor(w·2^32/q)`, exactly `quotient >> 32` of the stored
//!   table entry). The truncated estimate undershoots by at most one,
//!   leaving the lazy product in `[0, 3q)`; one extra conditional
//!   subtraction restores the `[0, 2q)` butterfly invariant. Lazy
//!   intermediates may differ from the scalar path by a multiple of
//!   `q`, but every path reduces the final output to the canonical
//!   `[0, q)` representative, so the *results* stay bit-identical.
//! * **Conditional subtraction**: branch-free vector
//!   compare/mask/subtract (every intermediate is `< 2^63`, so the
//!   signed `_mm256_cmpgt_epi64` is exact).
//! * **Gadget decomposition**: digit-major vector shift/mask extraction
//!   over the split 64-bit halves of each 128-bit coefficient.
//!
//! Kernel outputs are always canonically reduced, and canonical outputs
//! of exact algorithms are unique — so the backend is **bit-identical**
//! to the scalar oracle on every entry point, enforced by the
//! differential proptests in `crates/math/tests/kernel_props.rs`.
//!
//! **Runtime detection.** Nothing here assumes AVX2 at compile time: the
//! hot entry points are `#[target_feature(enable = "avx2")]` functions
//! reached only after `is_x86_feature_detected!("avx2")` succeeds. The
//! probe result is cached in a `OnceLock`
//! ([`simd_available`](super::simd_available)), and
//! [`BackendKind::Simd`](super::BackendKind::Simd) /
//! [`BackendKind::Auto`](super::BackendKind::Auto) resolve through it
//! *once* at selection time, so call sites never branch on the ISA. On
//! non-`x86_64` targets this module compiles to the fallback resolution
//! only, and the tree still builds and passes.
//!
//! **Scope of the vector paths.** The vector kernels cover moduli of at
//! most 29 bits (`q < 2^29`) — which includes the paper's 28-bit
//! `2^27 + 2^k + 1` special primes (§IV-G), the only moduli on the
//! serving path. Wider moduli take exactly the code the optimized
//! backend runs, keeping bit-identity without restricting the supported
//! parameter space.

use super::{OptimizedBackend, VpeBackend};

/// Whether the AVX2 backend can run here. First call probes the CPU
/// (`is_x86_feature_detected!("avx2")`); later calls are a cached load.
#[cfg(target_arch = "x86_64")]
pub(super) fn available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Non-`x86_64` targets never have the AVX2 backend.
#[cfg(not(target_arch = "x86_64"))]
pub(super) fn available() -> bool {
    false
}

/// The best backend this host supports: [`SimdBackend`] where AVX2 is
/// detected, [`OptimizedBackend`] everywhere else. Resolution of
/// `BackendKind::{Simd, Auto}` lands here.
pub(super) fn best_available() -> &'static dyn VpeBackend {
    #[cfg(target_arch = "x86_64")]
    if available() {
        return &SimdBackend;
    }
    &OptimizedBackend
}

#[cfg(target_arch = "x86_64")]
pub use x86::SimdBackend;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use super::super::optimized::{cond_sub, shoup_lazy};
    use super::super::{OptimizedBackend, VpeBackend};
    use super::available;
    use crate::gadget::Gadget;
    use crate::modulus::Modulus;
    use crate::ntt::NttTable;

    /// Widest modulus the 32-bit-multiplier vector paths accept
    /// (`q < 2^29`): every lazy Harvey value (`< 4q`) and every Barrett
    /// operand fits 32 bits so `_mm256_mul_epu32` products are exact,
    /// and — the binding constraint — the Barrett quotient estimate's
    /// `Q-2 ≤ est ≤ Q` proof needs `bits(q) + 1` to stay within its
    /// fixed post-shift of 30. Raising this cap breaks the estimate
    /// bound *before* it breaks any 32-bit operand fit.
    const VECTOR_MAX_BITS: u32 = 29;

    /// The AVX2 wide-datapath backend (see the [module docs](super)).
    ///
    /// Constructing the type is always safe: every entry point re-checks
    /// the cached CPU probe and delegates to [`OptimizedBackend`] when
    /// AVX2 is absent, so a directly-instantiated `SimdBackend` on an
    /// old x86 machine degrades instead of faulting. Select it through
    /// [`BackendKind`](super::super::BackendKind) to make the fallback
    /// explicit in configs.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct SimdBackend;

    /// Branch-free conditional subtraction per lane: `r - q` where
    /// `r >= q`, else `r`. Both operands must be `< 2^63` so the signed
    /// compare agrees with the unsigned one — true throughout this
    /// module (`q < 2^29`, lazy values `< 4q`).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn csub(r: __m256i, q: __m256i) -> __m256i {
        let lt = _mm256_cmpgt_epi64(q, r);
        _mm256_sub_epi64(r, _mm256_andnot_si256(lt, q))
    }

    /// Per-modulus constants of the quotient-estimate Barrett
    /// (module docs): the pre-shift `m-1`, the scaled reciprocal
    /// `μ = floor(2^(m+29)/q) < 2^30`, and the post-shift fixed at 30.
    struct BarrettVec {
        shift_hi: i64,
        mu: u64,
    }

    impl BarrettVec {
        fn new(q: u64) -> Self {
            let m = 64 - q.leading_zeros();
            debug_assert!((2..=VECTOR_MAX_BITS).contains(&m));
            BarrettVec {
                shift_hi: i64::from(m) - 1,
                mu: ((1u128 << (m + 29)) / u128::from(q)) as u64,
            }
        }
    }

    /// `(p mod q)` per lane for `p < q²`, `q < 2^29`, via the
    /// quotient-estimate Barrett: `est ∈ [Q-2, Q]`, two conditional
    /// subtractions close the gap. All three multiplies are exact
    /// 32×32→64 `_mm256_mul_epu32` (operands `< 2^32` by the bounds in
    /// the module docs).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn barrett_vec(p: __m256i, bk_shift: __m128i, muv: __m256i, qv: __m256i) -> __m256i {
        let x = _mm256_srl_epi64(p, bk_shift);
        let est = _mm256_srli_epi64::<30>(_mm256_mul_epu32(x, muv));
        let r = _mm256_sub_epi64(p, _mm256_mul_epu32(est, qv));
        csub(csub(r, qv), qv)
    }

    /// Vectorized fused Barrett FMA over one limb row:
    /// `acc[i] = (acc[i] + a[i]·b[i]) mod q` for `q < 2^29`, four lanes
    /// at a time; the sub-lane tail reuses the scalar element formula
    /// (identical canonical output).
    #[target_feature(enable = "avx2")]
    unsafe fn fma_narrow(q: u64, acc: &mut [u64], a: &[u64], b: &[u64]) {
        let bk = BarrettVec::new(q);
        let qv = _mm256_set1_epi64x(q as i64);
        let muv = _mm256_set1_epi64x(bk.mu as i64);
        let shift = _mm_cvtsi64_si128(bk.shift_hi);
        let ratio = OptimizedBackend::narrow_ratio(q);
        let n = acc.len();
        let mut i = 0usize;
        while i + 4 <= n {
            let av = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let bv = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            let cv = _mm256_loadu_si256(acc.as_ptr().add(i).cast());
            // a, b < q < 2^29: one 32×32 partial product IS the full
            // 64-bit product, and adding acc < q cannot overflow.
            let p = _mm256_add_epi64(_mm256_mul_epu32(av, bv), cv);
            let r = barrett_vec(p, shift, muv, qv);
            _mm256_storeu_si256(acc.as_mut_ptr().add(i).cast(), r);
            i += 4;
        }
        for j in i..n {
            acc[j] = OptimizedBackend::fma_one_narrow(ratio, q, acc[j], a[j], b[j]);
        }
    }

    /// Vectorized pointwise product `a[i] = a[i]·b[i] mod q` for
    /// `q < 2^29` — the FMA datapath with a zero accumulate.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_narrow(q: u64, a: &mut [u64], b: &[u64]) {
        let bk = BarrettVec::new(q);
        let qv = _mm256_set1_epi64x(q as i64);
        let muv = _mm256_set1_epi64x(bk.mu as i64);
        let shift = _mm_cvtsi64_si128(bk.shift_hi);
        let ratio = OptimizedBackend::narrow_ratio(q);
        let n = a.len();
        let mut i = 0usize;
        while i + 4 <= n {
            let av = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let bv = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            let r = barrett_vec(_mm256_mul_epu32(av, bv), shift, muv, qv);
            _mm256_storeu_si256(a.as_mut_ptr().add(i).cast(), r);
            i += 4;
        }
        for j in i..n {
            a[j] = OptimizedBackend::fma_one_narrow(ratio, q, 0, a[j], b[j]);
        }
    }

    /// Lane-wise lazy Shoup product with the 32-bit truncated quotient:
    /// `w·v - floor((quotient>>32)·v / 2^32)·q`, in `[0, 3q)` (the
    /// truncation undershoots the true quotient by at most one); the
    /// caller's conditional subtraction restores `[0, 2q)`. Exact for
    /// `w < q < 2^29` and lazy `v < 4q < 2^32`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn shoup32_lazy(wv: __m256i, wq32: __m256i, v: __m256i, q: __m256i) -> __m256i {
        let est = _mm256_srli_epi64::<32>(_mm256_mul_epu32(wq32, v));
        _mm256_sub_epi64(_mm256_mul_epu32(wv, v), _mm256_mul_epu32(est, q))
    }

    /// Vectorized forward Harvey NTT for `q < 2^29`: identical level
    /// structure to the optimized backend, with the inner butterfly loop
    /// running four lanes wide whenever the half-block length `t >= 4`
    /// (`t` is a power of two, so vector chunks tile it exactly); the
    /// `t ∈ {1, 2}` levels take the scalar butterflies.
    #[target_feature(enable = "avx2")]
    unsafe fn ntt_forward_narrow(table: &NttTable, a: &mut [u64]) {
        let n = table.n();
        let q = table.modulus().value();
        let two_q = 2 * q;
        let qv = _mm256_set1_epi64x(q as i64);
        let two_qv = _mm256_set1_epi64x(two_q as i64);
        let psi = table.psi_rev();
        let mut t = n;
        let mut m = 1usize;
        while m < n {
            t >>= 1;
            for i in 0..m {
                let w = psi[m + i];
                let (wv, wq) = (w.value, w.quotient);
                let j1 = 2 * i * t;
                let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                if t >= 4 {
                    let wvv = _mm256_set1_epi64x(wv as i64);
                    let wq32 = _mm256_set1_epi64x((wq >> 32) as i64);
                    let mut j = 0usize;
                    while j < t {
                        let x = _mm256_loadu_si256(lo.as_ptr().add(j).cast());
                        let y = _mm256_loadu_si256(hi.as_ptr().add(j).cast());
                        let u = csub(x, two_qv);
                        let v = csub(shoup32_lazy(wvv, wq32, y, qv), two_qv);
                        _mm256_storeu_si256(lo.as_mut_ptr().add(j).cast(), _mm256_add_epi64(u, v));
                        _mm256_storeu_si256(
                            hi.as_mut_ptr().add(j).cast(),
                            _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v)),
                        );
                        j += 4;
                    }
                } else {
                    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                        let u = cond_sub(*x, two_q);
                        let v = shoup_lazy(wv, wq, *y, q);
                        *x = u + v;
                        *y = u + two_q - v;
                    }
                }
            }
            m <<= 1;
        }
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let r = csub(csub(x, two_qv), qv);
            _mm256_storeu_si256(a.as_mut_ptr().add(i).cast(), r);
            i += 4;
        }
        for x in a[i..].iter_mut() {
            *x = cond_sub(cond_sub(*x, two_q), q);
        }
    }

    /// Vectorized inverse (Gentleman–Sande) Harvey NTT for `q < 2^29`,
    /// mirroring [`ntt_forward_narrow`]'s split between vector levels
    /// (`t >= 4`) and scalar levels, plus the vectorized `n^{-1}` pass.
    #[target_feature(enable = "avx2")]
    unsafe fn ntt_inverse_narrow(table: &NttTable, a: &mut [u64]) {
        let n = table.n();
        let q = table.modulus().value();
        let two_q = 2 * q;
        let qv = _mm256_set1_epi64x(q as i64);
        let two_qv = _mm256_set1_epi64x(two_q as i64);
        let ipsi = table.ipsi_rev();
        let mut t = 1usize;
        let mut m = n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let w = ipsi[h + i];
                let (wv, wq) = (w.value, w.quotient);
                let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                if t >= 4 {
                    let wvv = _mm256_set1_epi64x(wv as i64);
                    let wq32 = _mm256_set1_epi64x((wq >> 32) as i64);
                    let mut j = 0usize;
                    while j < t {
                        let u = _mm256_loadu_si256(lo.as_ptr().add(j).cast());
                        let v = _mm256_loadu_si256(hi.as_ptr().add(j).cast());
                        let sum = csub(_mm256_add_epi64(u, v), two_qv);
                        let diff = _mm256_add_epi64(u, _mm256_sub_epi64(two_qv, v));
                        _mm256_storeu_si256(lo.as_mut_ptr().add(j).cast(), sum);
                        _mm256_storeu_si256(
                            hi.as_mut_ptr().add(j).cast(),
                            csub(shoup32_lazy(wvv, wq32, diff, qv), two_qv),
                        );
                        j += 4;
                    }
                } else {
                    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                        let u = *x;
                        let v = *y;
                        *x = cond_sub(u + v, two_q);
                        *y = shoup_lazy(wv, wq, u + two_q - v, q);
                    }
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        let n_inv = table.n_inv();
        let (nv, nq) = (n_inv.value, n_inv.quotient);
        let nvv = _mm256_set1_epi64x(nv as i64);
        let nq32 = _mm256_set1_epi64x((nq >> 32) as i64);
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            // [0, 3q) from the truncated Shoup estimate, then down to
            // the canonical [0, q).
            let r = csub(csub(shoup32_lazy(nvv, nq32, x, qv), two_qv), qv);
            _mm256_storeu_si256(a.as_mut_ptr().add(i).cast(), r);
            i += 4;
        }
        for x in a[i..].iter_mut() {
            *x = cond_sub(shoup_lazy(nv, nq, *x, q), q);
        }
    }

    /// Vectorized digit-major gadget decomposition: four 128-bit
    /// coefficients per step, de-interleaved into their low/high 64-bit
    /// halves (unpack + cross-lane permute), then each digit extracted
    /// with uniform vector shifts and one mask. Shift counts of 64 or
    /// more yield zero lanes, exactly like the scalar `>>` on a value
    /// whose remaining bits are exhausted.
    #[target_feature(enable = "avx2")]
    unsafe fn gadget_decompose_avx2(gadget: &Gadget, wide: &[u128], out: &mut [u64]) {
        let n = wide.len();
        let bits = gadget.base_bits() as usize;
        let ell = gadget.ell();
        let mask = gadget.base() - 1;
        let maskv = _mm256_set1_epi64x(mask as u64 as i64);
        let mut i = 0usize;
        while i + 4 <= n {
            // Four u128s are eight u64 words [l0 h0 l1 h1 | l2 h2 l3 h3]
            // (little-endian); unpack pairs then swap the middle lanes to
            // recover coefficient order [l0 l1 l2 l3] / [h0 h1 h2 h3].
            let p: *const __m256i = wide.as_ptr().add(i).cast();
            let v0 = _mm256_loadu_si256(p);
            let v1 = _mm256_loadu_si256(p.add(1));
            let lo = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_unpacklo_epi64(v0, v1));
            let hi = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_unpackhi_epi64(v0, v1));
            for j in 0..ell {
                let s = j * bits;
                let d = if s >= 64 {
                    _mm256_srl_epi64(hi, _mm_cvtsi64_si128((s - 64) as i64))
                } else if s + bits <= 64 {
                    _mm256_srl_epi64(lo, _mm_cvtsi64_si128(s as i64))
                } else {
                    // Digit straddles the 64-bit halves.
                    _mm256_or_si256(
                        _mm256_srl_epi64(lo, _mm_cvtsi64_si128(s as i64)),
                        _mm256_sll_epi64(hi, _mm_cvtsi64_si128((64 - s) as i64)),
                    )
                };
                let d = _mm256_and_si256(d, maskv);
                _mm256_storeu_si256(out.as_mut_ptr().add(j * n + i).cast(), d);
            }
            i += 4;
        }
        for idx in i..n {
            let mut v = wide[idx];
            for j in 0..ell {
                out[j * n + idx] = (v & mask) as u64;
                v >>= bits;
            }
        }
    }

    /// Vectorized lazy scan step: `acc += w·e` for both accumulators,
    /// four lanes at a time, as raw 64-bit sums. Operands are below
    /// `2^32` by contract, so one `_mm256_mul_epu32` is the full product;
    /// the sub-lane tail is the optimized backend's element formula.
    #[target_feature(enable = "avx2")]
    unsafe fn scan_mac_lazy_avx2(
        acc_a: &mut [u64],
        acc_b: &mut [u64],
        w: &[u64],
        ea: &[u64],
        eb: &[u64],
    ) {
        let n = w.len();
        let mut i = 0usize;
        while i + 4 <= n {
            let wv = _mm256_loadu_si256(w.as_ptr().add(i).cast());
            let eav = _mm256_loadu_si256(ea.as_ptr().add(i).cast());
            let ebv = _mm256_loadu_si256(eb.as_ptr().add(i).cast());
            let cav = _mm256_loadu_si256(acc_a.as_ptr().add(i).cast());
            let cbv = _mm256_loadu_si256(acc_b.as_ptr().add(i).cast());
            let ra = _mm256_add_epi64(cav, _mm256_mul_epu32(wv, eav));
            let rb = _mm256_add_epi64(cbv, _mm256_mul_epu32(wv, ebv));
            _mm256_storeu_si256(acc_a.as_mut_ptr().add(i).cast(), ra);
            _mm256_storeu_si256(acc_b.as_mut_ptr().add(i).cast(), rb);
            i += 4;
        }
        for j in i..n {
            acc_a[j] = OptimizedBackend::mac_lazy_one(acc_a[j], w[j], ea[j]);
            acc_b[j] = OptimizedBackend::mac_lazy_one(acc_b[j], w[j], eb[j]);
        }
    }

    impl VpeBackend for SimdBackend {
        fn name(&self) -> &'static str {
            "simd"
        }

        fn fma(&self, modulus: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
            if !available() || modulus.bits() > VECTOR_MAX_BITS {
                // Out-of-scope moduli and AVX2-less hosts take exactly
                // the optimized backend's code (which also does the
                // op-metrics charge).
                return OptimizedBackend.fma(modulus, acc, a, b);
            }
            assert_eq!(acc.len(), a.len());
            assert_eq!(acc.len(), b.len());
            crate::metrics::count_pointwise_macs(acc.len() as u64);
            // SAFETY: AVX2 presence was just verified via the cached
            // runtime probe.
            unsafe { fma_narrow(modulus.value(), acc, a, b) }
        }

        fn pointwise_mul(&self, modulus: &Modulus, a: &mut [u64], b: &[u64]) {
            if !available() || modulus.bits() > VECTOR_MAX_BITS {
                return OptimizedBackend.pointwise_mul(modulus, a, b);
            }
            assert_eq!(a.len(), b.len());
            crate::metrics::count_pointwise_macs(a.len() as u64);
            // SAFETY: AVX2 presence was just verified via the cached
            // runtime probe.
            unsafe { mul_narrow(modulus.value(), a, b) }
        }

        fn ntt_forward(&self, table: &NttTable, a: &mut [u64]) {
            if !available() || table.modulus().bits() > VECTOR_MAX_BITS {
                return OptimizedBackend.ntt_forward(table, a);
            }
            assert_eq!(a.len(), table.n());
            crate::metrics::count_residue_ntts(1);
            // SAFETY: AVX2 presence was just verified via the cached
            // runtime probe.
            unsafe { ntt_forward_narrow(table, a) }
        }

        fn ntt_inverse(&self, table: &NttTable, a: &mut [u64]) {
            if !available() || table.modulus().bits() > VECTOR_MAX_BITS {
                return OptimizedBackend.ntt_inverse(table, a);
            }
            assert_eq!(a.len(), table.n());
            crate::metrics::count_residue_ntts(1);
            // SAFETY: AVX2 presence was just verified via the cached
            // runtime probe.
            unsafe { ntt_inverse_narrow(table, a) }
        }

        fn scan_mac_lazy(
            &self,
            acc_a: &mut [u64],
            acc_b: &mut [u64],
            w: &[u64],
            ea: &[u64],
            eb: &[u64],
        ) {
            if !available() {
                return OptimizedBackend.scan_mac_lazy(acc_a, acc_b, w, ea, eb);
            }
            assert_eq!(acc_a.len(), w.len());
            assert_eq!(acc_b.len(), w.len());
            assert_eq!(ea.len(), w.len());
            assert_eq!(eb.len(), w.len());
            crate::metrics::count_pointwise_macs(2 * w.len() as u64);
            // SAFETY: AVX2 presence was just verified via the cached
            // runtime probe.
            unsafe { scan_mac_lazy_avx2(acc_a, acc_b, w, ea, eb) }
        }

        fn gadget_decompose(&self, gadget: &Gadget, wide: &[u128], out: &mut [u64]) {
            if !available() {
                return OptimizedBackend.gadget_decompose(gadget, wide, out);
            }
            assert_eq!(out.len(), gadget.ell() * wide.len());
            // SAFETY: AVX2 presence was just verified via the cached
            // runtime probe.
            unsafe { gadget_decompose_avx2(gadget, wide, out) }
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::super::{ScalarBackend, VpeBackend};
    use super::*;
    use crate::gadget::Gadget;
    use crate::modulus::Modulus;
    use crate::ntt::NttTable;
    use rand::{Rng, SeedableRng};

    fn rand_row(n: usize, q: u64, rng: &mut impl Rng) -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..q)).collect()
    }

    #[test]
    fn simd_matches_scalar_on_every_kernel() {
        // A quick in-crate differential (the heavy matrix lives in
        // tests/kernel_props.rs): special primes plus a tiny prime and a
        // 29/30-bit boundary pair straddling the vector-path cutoff,
        // lengths that stress lane tails, NTT sizes through the scalar
        // levels.
        if !available() {
            eprintln!("skipping: AVX2 not detected");
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let mut moduli = Modulus::special_primes().to_vec();
        for q in [
            257,                                                           // tiny, still NTT-ready
            crate::prime::find_ntt_prime_below(29, 1024).expect("29-bit"), // widest vector-path q
            crate::prime::find_ntt_prime_below(30, 1024).expect("30-bit"), // first fallback q
        ] {
            moduli.push(Modulus::new(q));
        }
        for m in &moduli {
            for n in [1usize, 2, 3, 4, 5, 7, 8, 15, 64, 130, 255] {
                let a = rand_row(n, m.value(), &mut rng);
                let b = rand_row(n, m.value(), &mut rng);
                let acc0 = rand_row(n, m.value(), &mut rng);
                let (mut s, mut v) = (acc0.clone(), acc0.clone());
                ScalarBackend.fma(m, &mut s, &a, &b);
                SimdBackend.fma(m, &mut v, &a, &b);
                assert_eq!(s, v, "fma q={} n={n}", m.value());
                let (mut s, mut v) = (acc0.clone(), acc0);
                ScalarBackend.pointwise_mul(m, &mut s, &b);
                SimdBackend.pointwise_mul(m, &mut v, &b);
                assert_eq!(s, v, "mul q={} n={n}", m.value());
            }
            for log_n in 1u32..=10 {
                let n = 1usize << log_n;
                let table = match NttTable::new(m, n) {
                    Ok(t) => t,
                    Err(_) => continue, // 257 tops out below 2^10
                };
                let orig = rand_row(n, m.value(), &mut rng);
                let (mut s, mut v) = (orig.clone(), orig.clone());
                ScalarBackend.ntt_forward(&table, &mut s);
                SimdBackend.ntt_forward(&table, &mut v);
                assert_eq!(s, v, "ntt fwd q={} n={n}", m.value());
                ScalarBackend.ntt_inverse(&table, &mut s);
                SimdBackend.ntt_inverse(&table, &mut v);
                assert_eq!(s, v, "ntt inv q={} n={n}", m.value());
                assert_eq!(s, orig, "roundtrip q={} n={n}", m.value());
            }
        }
        for base_bits in [1u32, 7, 14, 20, 27] {
            let gadget = Gadget::for_modulus((1u128 << 109) - 1, base_bits);
            for n in [1usize, 3, 4, 6, 33] {
                let wide: Vec<u128> = (0..n).map(|_| rng.gen::<u128>() >> 19).collect();
                let mut s = vec![0u64; gadget.ell() * n];
                let mut v = vec![0u64; gadget.ell() * n];
                ScalarBackend.gadget_decompose(&gadget, &wide, &mut s);
                SimdBackend.gadget_decompose(&gadget, &wide, &mut v);
                assert_eq!(s, v, "decompose base=2^{base_bits} n={n}");
            }
        }
    }

    #[test]
    fn fma_exact_at_extreme_operands() {
        // The quotient-estimate Barrett must be exact at the corners,
        // not just on random draws: all-(q-1) operands maximize p, and
        // boundary accumulators exercise est = Q-2..Q.
        if !available() {
            eprintln!("skipping: AVX2 not detected");
            return;
        }
        for m in Modulus::special_primes() {
            let q = m.value();
            for &(a, b, c) in &[
                (q - 1, q - 1, q - 1),
                (q - 1, q - 1, 0),
                (q - 1, 1, q - 1),
                (0, 0, 0),
                (1, 1, q - 1),
                (q - 2, q - 2, q - 3),
            ] {
                let av = vec![a; 8];
                let bv = vec![b; 8];
                let mut scalar = vec![c; 8];
                let mut simd = vec![c; 8];
                ScalarBackend.fma(&m, &mut scalar, &av, &bv);
                SimdBackend.fma(&m, &mut simd, &av, &bv);
                assert_eq!(scalar, simd, "q={q} a={a} b={b} c={c}");
            }
        }
    }
}
