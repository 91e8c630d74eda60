//! The portable serving backend: Barrett per-limb constants, fused
//! lazy-reduction FMA, Harvey-style lazy NTT butterflies on Shoup
//! twiddles, 4×-unrolled flat loops.
//!
//! The crate-private scalar arithmetic primitives here (`cond_sub`,
//! `shoup_lazy`, the fused narrow Barrett FMA element) are also the
//! element-wise definitions the AVX2 backend ([`super::simd`]) matches
//! and uses for its remainder tails — which is what makes the two
//! backends bit-identical by construction.

use crate::gadget::Gadget;
use crate::modulus::Modulus;
use crate::ntt::NttTable;

use super::VpeBackend;

/// The portable serving backend: Barrett per-limb constants, fused
/// lazy-reduction FMA, Harvey-style lazy NTT butterflies on Shoup
/// twiddles, 4×-unrolled flat loops.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizedBackend;

/// Branch-free conditional subtraction: `x - q` when `x >= q`, else `x`.
/// Written arithmetically so the compiler never lowers the hot loops to
/// a data-dependent (unpredictable) branch.
#[inline(always)]
pub(crate) fn cond_sub(x: u64, q: u64) -> u64 {
    x.wrapping_sub(q & 0u64.wrapping_sub(u64::from(x >= q)))
}

/// Lazy Shoup product `value·v mod q` left in `[0, 2q)`: one high
/// multiply predicts the quotient; the final correction is deferred to
/// the caller (the Harvey NTT trick). Exact for any `v < 2^64`.
#[inline(always)]
pub(crate) fn shoup_lazy(value: u64, quotient: u64, v: u64, q: u64) -> u64 {
    let hi = ((quotient as u128 * v as u128) >> 64) as u64;
    value.wrapping_mul(v).wrapping_sub(hi.wrapping_mul(q))
}

impl OptimizedBackend {
    /// One fused wide FMA element for moduli above 32 bits: the
    /// accumulate is folded into the Barrett reduction (`(a·b + acc)
    /// mod q` in one pass), exact because `(q-1)^2 + q < 2^124` fits the
    /// reducer.
    #[inline(always)]
    pub(crate) fn fma_one_wide(modulus: &Modulus, acc: u64, a: u64, b: u64) -> u64 {
        modulus.reduce_u128(a as u128 * b as u128 + acc as u128)
    }

    /// One fused narrow FMA element for word-sized moduli (`q < 2^32`,
    /// which covers the paper's 28-bit special primes): `a·b + acc`
    /// fits `u64`, so a single-limb Barrett with the precomputed
    /// `ratio = floor(2^64/q)` replaces the 128-bit path. The estimate
    /// undershoots by at most 2, corrected branch-free.
    #[inline(always)]
    pub(crate) fn fma_one_narrow(ratio: u64, q: u64, acc: u64, a: u64, b: u64) -> u64 {
        let p = a * b + acc;
        let hi = ((p as u128 * ratio as u128) >> 64) as u64;
        let r = p.wrapping_sub(hi.wrapping_mul(q));
        cond_sub(cond_sub(r, q), q)
    }

    /// One lazy scan term `acc + x·y` with no reduction. Operands are
    /// below `2^32` by contract, so narrowing them first is exact and
    /// lets the compiler use a 32×32→64 vector multiply.
    #[inline(always)]
    pub(crate) fn mac_lazy_one(acc: u64, x: u64, y: u64) -> u64 {
        acc.wrapping_add(u64::from(x as u32) * u64::from(y as u32))
    }

    /// `floor(2^64 / q)` for the narrow path (`q` is an odd prime, so it
    /// never divides `2^64` and the `u64::MAX` quotient is exact).
    #[inline(always)]
    pub(crate) fn narrow_ratio(q: u64) -> u64 {
        u64::MAX / q
    }
}

impl VpeBackend for OptimizedBackend {
    fn name(&self) -> &'static str {
        "optimized"
    }

    fn fma(&self, modulus: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        assert_eq!(acc.len(), a.len());
        assert_eq!(acc.len(), b.len());
        crate::metrics::count_pointwise_macs(acc.len() as u64);
        let q = modulus.value();
        if modulus.bits() <= 32 {
            let ratio = Self::narrow_ratio(q);
            let mut acc_it = acc.chunks_exact_mut(4);
            let mut a_it = a.chunks_exact(4);
            let mut b_it = b.chunks_exact(4);
            for ((x, ai), bi) in (&mut acc_it).zip(&mut a_it).zip(&mut b_it) {
                x[0] = Self::fma_one_narrow(ratio, q, x[0], ai[0], bi[0]);
                x[1] = Self::fma_one_narrow(ratio, q, x[1], ai[1], bi[1]);
                x[2] = Self::fma_one_narrow(ratio, q, x[2], ai[2], bi[2]);
                x[3] = Self::fma_one_narrow(ratio, q, x[3], ai[3], bi[3]);
            }
            for ((x, &ai), &bi) in
                acc_it.into_remainder().iter_mut().zip(a_it.remainder()).zip(b_it.remainder())
            {
                *x = Self::fma_one_narrow(ratio, q, *x, ai, bi);
            }
        } else {
            for ((x, &ai), &bi) in acc.iter_mut().zip(a).zip(b) {
                *x = Self::fma_one_wide(modulus, *x, ai, bi);
            }
        }
    }

    fn pointwise_mul(&self, modulus: &Modulus, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), b.len());
        crate::metrics::count_pointwise_macs(a.len() as u64);
        let q = modulus.value();
        if modulus.bits() <= 32 {
            let ratio = Self::narrow_ratio(q);
            let mut a_it = a.chunks_exact_mut(4);
            let mut b_it = b.chunks_exact(4);
            for (x, bi) in (&mut a_it).zip(&mut b_it) {
                x[0] = Self::fma_one_narrow(ratio, q, 0, x[0], bi[0]);
                x[1] = Self::fma_one_narrow(ratio, q, 0, x[1], bi[1]);
                x[2] = Self::fma_one_narrow(ratio, q, 0, x[2], bi[2]);
                x[3] = Self::fma_one_narrow(ratio, q, 0, x[3], bi[3]);
            }
            for (x, &bi) in a_it.into_remainder().iter_mut().zip(b_it.remainder()) {
                *x = Self::fma_one_narrow(ratio, q, 0, *x, bi);
            }
        } else {
            for (x, &bi) in a.iter_mut().zip(b) {
                *x = modulus.mul(*x, bi);
            }
        }
    }

    fn scan_fma(
        &self,
        modulus: &Modulus,
        acc_a: &mut [u64],
        acc_b: &mut [u64],
        w: &[u64],
        ea: &[u64],
        eb: &[u64],
    ) {
        assert_eq!(acc_a.len(), w.len());
        assert_eq!(acc_b.len(), w.len());
        assert_eq!(ea.len(), w.len());
        assert_eq!(eb.len(), w.len());
        crate::metrics::count_pointwise_macs(2 * w.len() as u64);
        let q = modulus.value();
        // One pass over the database row: each w[i] is loaded once and
        // feeds both accumulators from a register.
        let it = acc_a.iter_mut().zip(acc_b.iter_mut()).zip(w.iter().zip(ea).zip(eb));
        if modulus.bits() <= 32 {
            let ratio = Self::narrow_ratio(q);
            for ((xa, xb), ((&wi, &eai), &ebi)) in it {
                *xa = Self::fma_one_narrow(ratio, q, *xa, wi, eai);
                *xb = Self::fma_one_narrow(ratio, q, *xb, wi, ebi);
            }
        } else {
            for ((xa, xb), ((&wi, &eai), &ebi)) in it {
                *xa = Self::fma_one_wide(modulus, *xa, wi, eai);
                *xb = Self::fma_one_wide(modulus, *xb, wi, ebi);
            }
        }
    }

    fn scan_mac_lazy(
        &self,
        acc_a: &mut [u64],
        acc_b: &mut [u64],
        w: &[u64],
        ea: &[u64],
        eb: &[u64],
    ) {
        assert_eq!(acc_a.len(), w.len());
        assert_eq!(acc_b.len(), w.len());
        assert_eq!(ea.len(), w.len());
        assert_eq!(eb.len(), w.len());
        crate::metrics::count_pointwise_macs(2 * w.len() as u64);
        for ((xa, xb), ((&wi, &eai), &ebi)) in
            acc_a.iter_mut().zip(acc_b.iter_mut()).zip(w.iter().zip(ea).zip(eb))
        {
            *xa = Self::mac_lazy_one(*xa, wi, eai);
            *xb = Self::mac_lazy_one(*xb, wi, ebi);
        }
    }

    fn ntt_forward(&self, table: &NttTable, a: &mut [u64]) {
        assert_eq!(a.len(), table.n());
        crate::metrics::count_residue_ntts(1);
        // Harvey lazy butterflies: values ride in [0, 4q) between levels
        // (q < 2^62, so 4q never overflows), the twiddle product stays
        // lazily reduced in [0, 2q), and one branch-free pass at the end
        // restores [0, q) — bit-identical to the strict transform.
        let n = table.n();
        let q = table.modulus().value();
        let two_q = 2 * q;
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
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let u = cond_sub(*x, two_q);
                    let v = shoup_lazy(wv, wq, *y, q);
                    *x = u + v;
                    *y = u + two_q - v;
                }
            }
            m <<= 1;
        }
        for x in a.iter_mut() {
            *x = cond_sub(cond_sub(*x, two_q), q);
        }
    }

    fn ntt_inverse(&self, table: &NttTable, a: &mut [u64]) {
        assert_eq!(a.len(), table.n());
        crate::metrics::count_residue_ntts(1);
        // Gentleman–Sande with the same laziness: sums ride in [0, 2q),
        // differences go straight through a lazy Shoup twiddle, and the
        // final n^{-1} scaling pass restores [0, q).
        let n = table.n();
        let q = table.modulus().value();
        let two_q = 2 * q;
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
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let u = *x;
                    let v = *y;
                    *x = cond_sub(u + v, two_q);
                    *y = shoup_lazy(wv, wq, u + two_q - v, q);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        let n_inv = table.n_inv();
        let (nv, nq) = (n_inv.value, n_inv.quotient);
        for x in a.iter_mut() {
            *x = cond_sub(shoup_lazy(nv, nq, *x, q), q);
        }
    }

    fn gadget_decompose(&self, gadget: &Gadget, wide: &[u128], out: &mut [u64]) {
        let n = wide.len();
        assert_eq!(out.len(), gadget.ell() * n);
        let bits = gadget.base_bits();
        let mask = gadget.base() - 1;
        // Coefficient-major walk: each wide value is shifted down in a
        // register instead of re-extracting every digit from scratch.
        for (i, &c) in wide.iter().enumerate() {
            let mut v = c;
            for j in 0..gadget.ell() {
                out[j * n + i] = (v & mask) as u64;
                v >>= bits;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::ScalarBackend;
    use super::*;

    #[test]
    fn decompose_digit_major_layout() {
        let g = Gadget::new(14, 4);
        let wide = [0u128, (1 << 14) + 3, u128::from(u64::MAX)];
        let mut s = vec![0u64; 4 * wide.len()];
        let mut o = vec![0u64; 4 * wide.len()];
        ScalarBackend.gadget_decompose(&g, &wide, &mut s);
        OptimizedBackend.gadget_decompose(&g, &wide, &mut o);
        assert_eq!(s, o);
        assert_eq!(s[1], 3, "digit 0 of wide[1]");
        assert_eq!(s[wide.len() + 1], 1, "digit 1 of wide[1]");
    }
}
