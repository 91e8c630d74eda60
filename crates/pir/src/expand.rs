//! `ExpandQuery` — oblivious expansion of the packed query (§II-A, Fig. 2).
//!
//! From a single ciphertext encrypting `Δ·2^{-L}·X^{i*}` the server derives
//! `D0 = 2^L` ciphertexts forming the one-hot representation of `i*`.
//! Level `j` applies `Subs(·, N/2^j + 1)` to every ciphertext and splits it
//! into an even branch `ct + Subs(ct)` and an odd branch
//! `(ct − Subs(ct))·X^{-2^j}`; each level doubles the encoded value, which
//! the client's `2^{-L}` pre-scaling cancels exactly.

use ive_he::{BfvCiphertext, HeParams, SubsKey};
use ive_math::arena::KernelArena;
use ive_math::bit_reverse;
use ive_math::kernel::{self, VpeBackend};
use ive_math::rns::{Form, RnsPoly};

use crate::PirError;

/// The per-depth automorphism exponents used by `ExpandQuery`:
/// `r_j = N/2^j + 1` for `j = 0..levels` (§II-A).
pub fn expansion_exponents(n: usize, levels: u32) -> Vec<usize> {
    (0..levels).map(|j| n / (1usize << j) + 1).collect()
}

/// `NTT(X^{-2^j})` — the odd-branch monomial for level `j`.
///
/// `X^{-t} = -X^{N-t}` in the negacyclic ring.
pub fn x_neg_pow_ntt(he: &HeParams, t: usize) -> RnsPoly {
    let n = he.n();
    assert!(t >= 1 && t < n);
    let mut p = RnsPoly::zero(he.ring(), Form::Coeff);
    for (m, modulus) in he.ring().basis().moduli().iter().enumerate() {
        p.residue_mut(m)[n - t] = modulus.value() - 1;
    }
    p.to_ntt();
    p
}

/// Subs work (ring words × key switches) a subtree must carry before it
/// gets a thread of its own: about eight key switches at the paper ring,
/// hundreds of times a thread spawn. The N = 256 toy ring never reaches
/// it, so toy expansions stay on the caller.
const EXPAND_MIN_WORDS_PER_SUBTREE: usize = 1 << 17;

/// How many levels run on the caller before the expansion tree splits into
/// `2^s` independent subtrees, one per thread: `s = min(⌊log₂ threads⌋,
/// levels − 1)`, lowered until every subtree carries
/// [`EXPAND_MIN_WORDS_PER_SUBTREE`]. `0` keeps the whole tree sequential.
pub(crate) fn expand_split_levels(he: &HeParams, levels: u32, threads: usize) -> u32 {
    if levels < 2 || threads < 2 {
        return 0;
    }
    let words = he.ring().basis().len() * he.n();
    let mut s = threads.ilog2().min(levels - 1);
    while s > 0 && ((1usize << (levels - s)) - 1) * words < EXPAND_MIN_WORDS_PER_SUBTREE {
        s -= 1;
    }
    s
}

/// Expands the packed query into `2^levels` ciphertexts; output slot `i`
/// encrypts (the pre-scaled image of) coefficient `i` of the query
/// polynomial.
///
/// `keys[j]` must be the `SubsKey` for exponent `N/2^j + 1`.
///
/// # Errors
/// Fails when too few keys are supplied or a key exponent mismatches.
pub fn expand_query(
    he: &HeParams,
    query: &BfvCiphertext,
    keys: &[SubsKey],
    levels: u32,
) -> Result<Vec<BfvCiphertext>, PirError> {
    expand_query_with(
        he,
        query,
        keys,
        levels,
        1,
        kernel::default_backend(),
        &mut KernelArena::new(),
    )
}

/// [`expand_query`] on up to `threads` threads, through an explicit kernel
/// backend, with the caller's key-switch scratch drawn from `arena` (the
/// serving path).
///
/// The first `s` levels run on the caller; the `2^s` subtrees below them
/// are independent and run on scoped threads, each with its own
/// [`KernelArena`] (the first subtree stays on the caller and its arena).
/// Concatenated in order they are exactly the sequential tree's leaves, so
/// the output is bit-identical for every thread count.
///
/// # Errors
/// Fails when too few keys are supplied or a key exponent mismatches.
pub fn expand_query_with(
    he: &HeParams,
    query: &BfvCiphertext,
    keys: &[SubsKey],
    levels: u32,
    threads: usize,
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<Vec<BfvCiphertext>, PirError> {
    let n = he.n();
    let exps = expansion_exponents(n, levels);
    if keys.len() < levels as usize {
        return Err(PirError::MissingKeys { got: keys.len(), need: levels as usize });
    }
    for (j, &r) in exps.iter().enumerate() {
        if keys[j].r() != r {
            return Err(PirError::InvalidParams(format!(
                "expansion key {j} has exponent {}, expected {r}",
                keys[j].r()
            )));
        }
    }

    // The odd-branch monomials, shared by every subtree.
    let x_inv: Vec<RnsPoly> = (0..levels).map(|j| x_neg_pow_ntt(he, 1 << j)).collect();
    let split = expand_split_levels(he, levels, threads) as usize;
    let levels = levels as usize;
    let subtree = |root: BfvCiphertext, arena: &mut KernelArena| {
        expand_levels(he, vec![root], keys, &x_inv, split..levels, backend, arena)
    };
    let mut roots =
        expand_levels(he, vec![query.clone()], keys, &x_inv, 0..split, backend, arena)?.into_iter();
    let first = roots.next().expect("the top levels leave 2^split >= 1 roots");
    let subtrees = std::thread::scope(|scope| {
        let workers: Vec<_> = roots
            .map(|root| {
                let subtree = &subtree;
                scope.spawn(move || subtree(root, &mut KernelArena::new()))
            })
            .collect();
        let mut done = vec![subtree(first, arena)];
        done.extend(
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))),
        );
        done
    });
    let mut cts = Vec::with_capacity(1 << levels);
    for leaves in subtrees {
        cts.extend(leaves?);
    }

    // The DFS push order interleaves index bits MSB-first; undo with a
    // bit-reversal permutation so slot i encrypts coefficient i.
    let mut out: Vec<Option<BfvCiphertext>> = cts.into_iter().map(Some).collect();
    let mut reordered = Vec::with_capacity(out.len());
    for i in 0..out.len() {
        let src = bit_reverse(i, levels as u32);
        reordered.push(out[src].take().expect("permutation visits each slot once"));
    }
    Ok(reordered)
}

/// Runs expansion levels `range` over `cts`: every ciphertext splits into
/// its even branch `ct + Subs(ct)` and odd branch `(ct − Subs(ct))·X^{-2^j}`,
/// pushed in that order.
fn expand_levels(
    he: &HeParams,
    mut cts: Vec<BfvCiphertext>,
    keys: &[SubsKey],
    x_inv: &[RnsPoly],
    range: std::ops::Range<usize>,
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<Vec<BfvCiphertext>, PirError> {
    for j in range {
        let mut next = Vec::with_capacity(cts.len() * 2);
        for ct in &cts {
            let sub = keys[j].apply_with(he, ct, backend, arena)?;
            let mut even = ct.clone();
            even.add_assign(&sub)?;
            let mut odd = ct.clone();
            odd.sub_assign(&sub)?;
            odd.mul_plain_assign_with(&x_inv[j], backend)?;
            next.push(even);
            next.push(odd);
        }
        cts = next;
    }
    Ok(cts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ive_he::{Plaintext, SecretKey};
    use ive_math::wide;
    use rand::SeedableRng;

    fn scaled_query(
        he: &HeParams,
        sk: &SecretKey,
        levels: u32,
        coeffs: &[u64],
        rng: &mut impl rand::Rng,
    ) -> BfvCiphertext {
        let m = Plaintext::new(he, coeffs.to_vec()).unwrap();
        let q = he.q_big();
        let inv = he.inv_two_pow(levels);
        let (hi, lo) = wide::mul_u128(he.delta(), inv);
        let scale = wide::div_rem_wide(hi, lo, q).1;
        BfvCiphertext::encrypt_scaled(he, sk, &m, scale, rng)
    }

    #[test]
    fn expansion_yields_one_hot() {
        let he = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let sk = SecretKey::generate(&he, &mut rng);
        let levels = 3u32;
        let keys: Vec<SubsKey> = expansion_exponents(he.n(), levels)
            .iter()
            .map(|&r| SubsKey::generate(&he, &sk, r, &mut rng))
            .collect();
        for target in [0usize, 1, 5, 7] {
            let mut coeffs = vec![0u64; he.n()];
            coeffs[target] = 1;
            let query = scaled_query(&he, &sk, levels, &coeffs, &mut rng);
            let expanded = expand_query(&he, &query, &keys, levels).unwrap();
            assert_eq!(expanded.len(), 8);
            for (i, ct) in expanded.iter().enumerate() {
                let m = ct.decrypt(&he, &sk);
                let expect = u64::from(i == target);
                assert_eq!(m.values()[0], expect, "slot {i}, target {target}");
                assert!(m.values()[1..].iter().all(|&v| v == 0), "slot {i} clean");
            }
        }
    }

    #[test]
    fn expansion_carries_arbitrary_values() {
        // Beyond one-hot: every slot receives its own packed coefficient.
        let he = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let sk = SecretKey::generate(&he, &mut rng);
        let levels = 2u32;
        let keys: Vec<SubsKey> = expansion_exponents(he.n(), levels)
            .iter()
            .map(|&r| SubsKey::generate(&he, &sk, r, &mut rng))
            .collect();
        let mut coeffs = vec![0u64; he.n()];
        let payload = [11u64, 22, 33, 44];
        coeffs[..4].copy_from_slice(&payload);
        let query = scaled_query(&he, &sk, levels, &coeffs, &mut rng);
        let expanded = expand_query(&he, &query, &keys, levels).unwrap();
        for (i, ct) in expanded.iter().enumerate() {
            assert_eq!(ct.decrypt(&he, &sk).values()[0], payload[i], "slot {i}");
        }
    }

    #[test]
    fn expansion_is_identical_across_threads_and_backends() {
        use ive_math::kernel::BackendKind;
        let he = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(35);
        let sk = SecretKey::generate(&he, &mut rng);
        let levels = 3u32;
        let keys: Vec<SubsKey> = expansion_exponents(he.n(), levels)
            .iter()
            .map(|&r| SubsKey::generate(&he, &sk, r, &mut rng))
            .collect();
        let mut coeffs = vec![0u64; he.n()];
        coeffs[5] = 1;
        let query = scaled_query(&he, &sk, levels, &coeffs, &mut rng);
        let reference = expand_query(&he, &query, &keys, levels).unwrap();
        let mut arena = KernelArena::new();
        for backend in
            [BackendKind::Scalar, BackendKind::Optimized, BackendKind::Simd, BackendKind::Avx512]
        {
            for threads in [1usize, 2, 3] {
                let got = expand_query_with(
                    &he,
                    &query,
                    &keys,
                    levels,
                    threads,
                    backend.backend(),
                    &mut arena,
                )
                .unwrap();
                assert_eq!(got, reference, "{backend} backend at {threads} threads");
            }
        }
    }

    #[test]
    fn missing_keys_detected() {
        let he = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let sk = SecretKey::generate(&he, &mut rng);
        let query = scaled_query(&he, &sk, 3, &vec![0u64; he.n()], &mut rng);
        let err = expand_query(&he, &query, &[], 3).unwrap_err();
        assert!(matches!(err, PirError::MissingKeys { got: 0, need: 3 }));
    }

    #[test]
    fn wrong_key_exponent_detected() {
        let he = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let sk = SecretKey::generate(&he, &mut rng);
        let query = scaled_query(&he, &sk, 1, &vec![0u64; he.n()], &mut rng);
        let bad = vec![SubsKey::generate(&he, &sk, 3, &mut rng)];
        assert!(expand_query(&he, &query, &bad, 1).is_err());
    }

    #[test]
    fn exponent_schedule_matches_paper() {
        // N+1, N/2+1, N/4+1, ... (§II-A).
        assert_eq!(expansion_exponents(4096, 3), vec![4097, 2049, 1025]);
    }
}
