//! The substitution operation `Subs(ct, r)` (§II-A, §II-D).
//!
//! `Subs` replaces `X` with `X^r` inside the encrypted polynomial: apply
//! the automorphism `τ_r` to both ciphertext polynomials — after which the
//! result decrypts under `τ_r(s)` — and key-switch back to `s` using the
//! evaluation key `evk_r`:
//!
//! ```text
//! Subs(ct, r) = evk_r · Dcp(a_τ) + (0, b_τ)
//! ```
//!
//! `τ_r` is applied in the NTT domain, where it is a slot permutation
//! ([`ive_math::poly::automorphism_ntt_map`], built once per key): `b_τ`
//! needs no transform at all, and `a_τ` takes one inverse NTT for `Dcp`.
//! With the `ℓ` digit NTTs that makes `(1+ℓ)·k` residue NTTs per `Subs`,
//! the paper's count.
//!
//! `ExpandQuery` invokes this with `r = N/2^j + 1` at tree depth `j`,
//! consuming one distinct `evk_r` per depth (Fig. 2-(1)).

use rand::Rng;

use ive_math::arena::KernelArena;
use ive_math::kernel::{self, VpeBackend};
use ive_math::poly::automorphism_ntt_map;
use ive_math::rns::{Form, RnsPoly};

use crate::bfv::BfvCiphertext;
use crate::keys::SecretKey;
use crate::params::HeParams;
use crate::HeError;

/// The evaluation key `evk_r`: `ℓ` RLWE rows encrypting `-z^j·τ_r(s)`
/// under `s`, in NTT form (a `2 × ℓ` matrix of polynomials, §II-D), plus
/// the NTT-slot permutation of `τ_r`.
#[derive(Debug, Clone)]
pub struct SubsKey {
    r: usize,
    rows: Vec<(RnsPoly, RnsPoly)>,
    ntt_map: Vec<usize>,
}

impl SubsKey {
    /// Generates `evk_r` for the automorphism exponent `r` (odd).
    ///
    /// # Panics
    /// Panics if `r` is even.
    pub fn generate<R: Rng + ?Sized>(
        params: &HeParams,
        sk: &SecretKey,
        r: usize,
        rng: &mut R,
    ) -> Self {
        assert!(r % 2 == 1, "automorphism exponent must be odd");
        let ring = params.ring();
        let ell = params.gadget().ell();
        let powers = params.gadget().powers();
        let s_tau = sk.automorphism_ntt(r);
        let mut rows = Vec::with_capacity(ell);
        for &zj in powers.iter().take(ell) {
            let k = RnsPoly::sample_uniform(ring, Form::Ntt, rng);
            let mut e = RnsPoly::sample_cbd(ring, params.eta(), rng);
            e.to_ntt();
            // b = k·s + e - z^j·s_τ
            let mut b = k.clone();
            b.mul_assign_pointwise(sk.ntt()).expect("forms match");
            b.add_assign(&e).expect("forms match");
            let mut term = s_tau.clone();
            term.mul_scalar_u128(zj);
            b.sub_assign(&term).expect("forms match");
            rows.push((k, b));
        }
        SubsKey { r, rows, ntt_map: automorphism_ntt_map(params.n(), r) }
    }

    /// Reassembles `evk_r` from its parts (wire deserialization).
    ///
    /// # Panics
    /// Panics if `r` is even — such a key could never have been generated.
    pub fn from_parts(r: usize, rows: Vec<(RnsPoly, RnsPoly)>) -> Self {
        assert!(r % 2 == 1, "automorphism exponent must be odd");
        let ntt_map =
            rows.first().map_or(Vec::new(), |(a, _)| automorphism_ntt_map(a.ctx().n(), r));
        SubsKey { r, rows, ntt_map }
    }

    /// The automorphism exponent this key serves.
    #[inline]
    pub fn r(&self) -> usize {
        self.r
    }

    /// The `ℓ` RLWE rows.
    #[inline]
    pub fn rows(&self) -> &[(RnsPoly, RnsPoly)] {
        &self.rows
    }

    /// Applies `Subs(ct, r)`.
    ///
    /// # Errors
    /// Fails on ring mismatch.
    pub fn apply(&self, params: &HeParams, ct: &BfvCiphertext) -> Result<BfvCiphertext, HeError> {
        self.apply_with(params, ct, kernel::default_backend(), &mut KernelArena::new())
    }

    /// Applies `Subs(ct, r)` through an explicit kernel backend, with the
    /// `a_τ` and `Dcp` scratch drawn from `arena` (the `ExpandQuery`
    /// serving path).
    ///
    /// # Errors
    /// Fails on ring mismatch, a coefficient-form ciphertext, or a key
    /// built for another ring degree.
    pub fn apply_with(
        &self,
        params: &HeParams,
        ct: &BfvCiphertext,
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
    ) -> Result<BfvCiphertext, HeError> {
        let gadget = params.gadget();
        crate::rgsw::check_param_ring(params, ct)?;
        if self.ntt_map.len() != params.n() {
            return Err(HeError::InvalidParams(format!(
                "evk_{} has no automorphism map for ring degree {}",
                self.r,
                params.n()
            )));
        }
        let ring = params.ring();
        let moduli = ring.basis().moduli();
        let words = moduli.len() * params.n();

        // b_τ lands straight in the output body; the key-switch GEMM
        // accumulates on top of it.
        let mut out = BfvCiphertext::zero(params);
        ct.b.automorphism_ntt_into(&self.ntt_map, out.b.as_words_mut())?;

        // a_τ goes back to coefficient form once, for Dcp.
        let mut a_tau = arena.take_u64(words);
        ct.a.automorphism_ntt_into(&self.ntt_map, &mut a_tau)?;
        let mut a_tau = RnsPoly::from_words(ring, Form::Ntt, a_tau)?;
        a_tau.to_coeff_with(backend);
        let mut digits = arena.take_u64(gadget.ell() * words);
        a_tau.decompose_ntt_into(gadget, backend, arena, &mut digits)?;
        arena.give_u64(a_tau.into_words());

        // Key-switch GEMM with evk_r.
        for (j, (ka, kb)) in self.rows.iter().enumerate() {
            let u = &digits[j * words..(j + 1) * words];
            kernel::fma_poly(backend, moduli, out.a.as_words_mut(), u, ka.as_words());
            kernel::fma_poly(backend, moduli, out.b.as_words_mut(), u, kb.as_words());
        }
        arena.give_u64(digits);
        Ok(out)
    }

    /// Serialized size in the packed hardware layout (560KB for the paper
    /// ring with `ℓ = 5`, §II-D).
    pub fn byte_len(&self, params: &HeParams) -> usize {
        params.evk_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfv::Plaintext;
    use rand::{Rng, SeedableRng};

    fn setup() -> (HeParams, SecretKey, rand::rngs::StdRng) {
        let params = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let sk = SecretKey::generate(&params, &mut rng);
        (params, sk, rng)
    }

    #[test]
    fn subs_applies_automorphism_to_plaintext() {
        let (params, sk, mut rng) = setup();
        let n = params.n();
        for r in [3usize, 5, n + 1, n / 2 + 1] {
            let vals: Vec<u64> = (0..n).map(|_| rng.gen_range(0..params.p())).collect();
            let m = Plaintext::new(&params, vals.clone()).unwrap();
            let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
            let key = SubsKey::generate(&params, &sk, r, &mut rng);
            let out = key.apply(&params, &ct).unwrap();
            let expect = ive_math::poly::automorphism(&vals, r, params.p());
            assert_eq!(out.decrypt(&params, &sk).values(), &expect[..], "r={r}");
        }
    }

    #[test]
    fn subs_n_plus_one_even_odd_split() {
        // The §II-A identity: ct + Subs(ct, N+1) keeps 2×even terms,
        // ct − Subs(ct, N+1) keeps 2×odd terms.
        let (params, sk, mut rng) = setup();
        let n = params.n();
        let vals: Vec<u64> = (0..n).map(|_| rng.gen_range(0..params.p() / 4)).collect();
        let m = Plaintext::new(&params, vals.clone()).unwrap();
        let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let key = SubsKey::generate(&params, &sk, n + 1, &mut rng);
        let subbed = key.apply(&params, &ct).unwrap();

        let mut even = ct.clone();
        even.add_assign(&subbed).unwrap();
        let even_m = even.decrypt(&params, &sk);
        let p = params.p();
        for (i, &v) in vals.iter().enumerate() {
            let expect = if i % 2 == 0 { (2 * v) % p } else { 0 };
            assert_eq!(even_m.values()[i], expect, "even branch, coeff {i}");
        }

        let mut odd = ct.clone();
        odd.sub_assign(&subbed).unwrap();
        let odd_m = odd.decrypt(&params, &sk);
        for (i, &v) in vals.iter().enumerate() {
            let expect = if i % 2 == 1 { (2 * v) % p } else { 0 };
            assert_eq!(odd_m.values()[i], expect, "odd branch, coeff {i}");
        }
    }

    /// `Subs` the textbook way: iNTT both polynomials, `τ_r` on
    /// coefficients, `Dcp(a_τ)` digit by digit, key-switch, add `b_τ`.
    fn coefficient_domain_subs(
        params: &HeParams,
        key: &SubsKey,
        ct: &BfvCiphertext,
    ) -> BfvCiphertext {
        let (mut a, mut b) = (ct.a.clone(), ct.b.clone());
        a.to_coeff();
        b.to_coeff();
        let a_tau = a.automorphism(key.r()).unwrap();
        let mut b_tau = b.automorphism(key.r()).unwrap();
        b_tau.to_ntt();
        let mut out = BfvCiphertext::zero(params);
        for (mut digit, (ka, kb)) in
            a_tau.decompose(params.gadget()).unwrap().into_iter().zip(key.rows())
        {
            digit.to_ntt();
            out.a.fma_pointwise(&digit, ka).unwrap();
            out.b.fma_pointwise(&digit, kb).unwrap();
        }
        out.b.add_assign(&b_tau).unwrap();
        out
    }

    #[test]
    fn ntt_domain_subs_is_bit_identical_to_coefficient_domain_subs() {
        use ive_math::kernel::BackendKind;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4343);
        for params in [HeParams::toy(), HeParams::paper()] {
            let sk = SecretKey::generate(&params, &mut rng);
            let m = Plaintext::new(&params, vec![1; params.n()]).unwrap();
            let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
            let n = params.n();
            for r in [n + 1, n / 2 + 1, 3] {
                let key = SubsKey::generate(&params, &sk, r, &mut rng);
                let expect = coefficient_domain_subs(&params, &key, &ct);
                // The wire path rebuilds the slot map in `from_parts`.
                let rebuilt = SubsKey::from_parts(r, key.rows().to_vec());
                let mut arena = KernelArena::new();
                for backend in [
                    BackendKind::Scalar,
                    BackendKind::Optimized,
                    BackendKind::Simd,
                    BackendKind::Avx512,
                ] {
                    for k in [&key, &rebuilt] {
                        let got =
                            k.apply_with(&params, &ct, backend.backend(), &mut arena).unwrap();
                        assert_eq!(got, expect, "n={n} r={r} backend {backend}");
                    }
                }
            }
        }
    }

    #[test]
    fn subs_key_size() {
        let (params, sk, mut rng) = setup();
        let key = SubsKey::generate(&params, &sk, 3, &mut rng);
        assert_eq!(key.rows().len(), params.gadget().ell());
        assert_eq!(key.byte_len(&params), params.evk_bytes());
        assert_eq!(key.r(), 3);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_exponent_rejected() {
        let (params, sk, mut rng) = setup();
        let _ = SubsKey::generate(&params, &sk, 4, &mut rng);
    }
}
