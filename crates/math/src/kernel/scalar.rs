//! The readable reference backend: one 128-bit remainder per product.
//!
//! [`ScalarBackend`] is deliberately the slowest implementation of
//! [`VpeBackend`]: every product goes through [`reduce::mul_mod`]'s
//! 128-bit remainder and every butterfly uses the raw (non-Shoup)
//! twiddle value. That makes it the differential-testing oracle the
//! optimized and SIMD backends are proven bit-identical against.

use crate::gadget::Gadget;
use crate::modulus::Modulus;
use crate::ntt::NttTable;
use crate::reduce;

use super::VpeBackend;

/// The readable reference backend: one 128-bit remainder per product.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl VpeBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn fma(&self, modulus: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        assert_eq!(acc.len(), a.len());
        assert_eq!(acc.len(), b.len());
        crate::metrics::count_pointwise_macs(acc.len() as u64);
        let q = modulus.value();
        for ((x, &ai), &bi) in acc.iter_mut().zip(a).zip(b) {
            *x = reduce::add_mod(*x, reduce::mul_mod(ai, bi, q), q);
        }
    }

    fn pointwise_mul(&self, modulus: &Modulus, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), b.len());
        crate::metrics::count_pointwise_macs(a.len() as u64);
        let q = modulus.value();
        for (x, &bi) in a.iter_mut().zip(b) {
            *x = reduce::mul_mod(*x, bi, q);
        }
    }

    fn ntt_forward(&self, table: &NttTable, a: &mut [u64]) {
        assert_eq!(a.len(), table.n());
        crate::metrics::count_residue_ntts(1);
        let q = table.modulus().value();
        let psi = table.psi_rev();
        let n = table.n();
        let mut t = n;
        let mut m = 1usize;
        while m < n {
            t >>= 1;
            for i in 0..m {
                // Reference path: plain 128-bit product on the raw
                // twiddle, ignoring the precomputed Shoup quotient.
                let w = psi[m + i].value;
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = reduce::mul_mod(w, a[j + t], q);
                    a[j] = reduce::add_mod(u, v, q);
                    a[j + t] = reduce::sub_mod(u, v, q);
                }
            }
            m <<= 1;
        }
    }

    fn ntt_inverse(&self, table: &NttTable, a: &mut [u64]) {
        assert_eq!(a.len(), table.n());
        crate::metrics::count_residue_ntts(1);
        let q = table.modulus().value();
        let ipsi = table.ipsi_rev();
        let n = table.n();
        let mut t = 1usize;
        let mut m = n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let w = ipsi[h + i].value;
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = reduce::add_mod(u, v, q);
                    a[j + t] = reduce::mul_mod(w, reduce::sub_mod(u, v, q), q);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        let n_inv = table.n_inv().value;
        for x in a.iter_mut() {
            *x = reduce::mul_mod(n_inv, *x, q);
        }
    }

    fn gadget_decompose(&self, gadget: &Gadget, wide: &[u128], out: &mut [u64]) {
        let n = wide.len();
        assert_eq!(out.len(), gadget.ell() * n);
        for (i, &c) in wide.iter().enumerate() {
            for j in 0..gadget.ell() {
                out[j * n + i] = gadget.digit(c, j);
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
        // The oracle checks what the fast backends assume: 32-bit
        // operands and sums that never wrap.
        let mac = |acc: u64, x: u64, y: u64| {
            assert!(x >> 32 == 0 && y >> 32 == 0, "lazy MAC operand wider than 32 bits");
            acc.checked_add(x * y).expect("lazy MAC sum overflowed u64")
        };
        for ((xa, xb), ((&wi, &eai), &ebi)) in
            acc_a.iter_mut().zip(acc_b.iter_mut()).zip(w.iter().zip(ea).zip(eb))
        {
            *xa = mac(*xa, wi, eai);
            *xb = mac(*xb, wi, ebi);
        }
    }

    fn reduce_lazy(&self, modulus: &Modulus, acc: &mut [u64]) {
        let q = modulus.value();
        for x in acc.iter_mut() {
            *x %= q;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_ntt_matches_table() {
        use rand::{Rng, SeedableRng};
        let m = Modulus::special_primes()[0];
        let table = NttTable::new(&m, 64).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        let orig: Vec<u64> = (0..64).map(|_| rng.gen_range(0..m.value())).collect();
        let mut via_backend = orig.clone();
        let mut via_table = orig.clone();
        ScalarBackend.ntt_forward(&table, &mut via_backend);
        table.forward(&mut via_table);
        assert_eq!(via_backend, via_table);
        ScalarBackend.ntt_inverse(&table, &mut via_backend);
        table.inverse(&mut via_table);
        assert_eq!(via_backend, via_table);
        assert_eq!(via_backend, orig);
    }
}
