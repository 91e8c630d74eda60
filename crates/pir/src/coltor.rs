//! `ColTor` — the column tournament over RGSW external products (§II-C).
//!
//! After `RowSel`, `2^d` ciphertexts remain; each tournament level `t`
//! halves them with the CMux `sel_t ⊡ (X − Y) + Y`, where `X`/`Y` are the
//! entries whose row-index bit `t` is 1/0 and `sel_t` is the RGSW
//! encryption of bit `t` of the target row.
//!
//! Three traversal orders are provided — BFS, DFS, and the paper's
//! hierarchical search (HS, Fig. 7) — which perform *identical arithmetic*
//! (same CMux on the same operands) in different orders, so their outputs
//! are bit-identical; they differ only in working-set behaviour, which the
//! accelerator model in `ive-accel` charges for (Fig. 8).

use ive_he::{BfvCiphertext, HeParams, RgswCiphertext};
use ive_math::arena::KernelArena;
use ive_math::kernel::{self, VpeBackend};

use crate::PirError;

/// Traversal order for the tournament.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TournamentOrder {
    /// Level-by-level (Fig. 7a): maximal `ct_RGSW` reuse, maximal
    /// intermediate traffic.
    Bfs,
    /// Depth-first (Fig. 7b): minimal intermediate traffic, poor
    /// `ct_RGSW` reuse.
    Dfs,
    /// Hierarchical search (Fig. 7c) with the given subtree depth:
    /// DFS within subtrees whose working set fits on-chip.
    Hs {
        /// Levels folded per subtree pass.
        subtree_depth: u32,
    },
}

/// Runs the tournament, consuming `entries` (length must be `2^d` with
/// `d == sel_bits.len()`), and returns the single surviving ciphertext.
///
/// `sel_bits[t]` encrypts bit `t` of the target row index.
///
/// # Errors
/// Fails when the entry count is not a power of two matching the number of
/// selection bits.
pub fn col_tor(
    he: &HeParams,
    entries: Vec<BfvCiphertext>,
    sel_bits: &[RgswCiphertext],
    order: TournamentOrder,
) -> Result<BfvCiphertext, PirError> {
    col_tor_with(
        he,
        entries,
        sel_bits,
        order,
        1,
        kernel::default_backend(),
        &mut KernelArena::new(),
    )
}

/// CMux work (ring words × CMuxes) a subtree must carry before it gets a
/// thread of its own: one CMux at the paper ring (`k·n = 2^14` words,
/// milliseconds of work, hundreds of times a thread spawn). The N = 256
/// toy ring (768 words) needs 22 CMuxes per subtree, so toy tournaments
/// up to `d = 5` stay on the caller.
const COLTOR_MIN_WORDS_PER_SUBTREE: usize = 1 << 14;

/// How many top levels of a depth-`d` tournament run on the caller after
/// its `2^s` subtrees over the low `d − s` selection bits ran one per
/// thread: `s = min(⌊log₂ threads⌋, d − 1)`, lowered until every subtree
/// carries [`COLTOR_MIN_WORDS_PER_SUBTREE`]. `0` keeps the whole
/// tournament sequential.
pub(crate) fn coltor_split_levels(he: &HeParams, d: usize, threads: usize) -> usize {
    if d < 2 || threads < 2 {
        return 0;
    }
    let words = he.ring().basis().len() * he.n();
    let mut s = (threads.ilog2() as usize).min(d - 1);
    while s > 0 && ((1usize << (d - s)) - 1) * words < COLTOR_MIN_WORDS_PER_SUBTREE {
        s -= 1;
    }
    s
}

/// [`col_tor`] on up to `threads` threads, through an explicit kernel
/// backend, with every CMux's `Dcp` scratch drawn from `arena` (the
/// serving path: one warm buffer set serves the caller's tournament
/// nodes).
///
/// The `2^s` subtrees over the low `d − s` selection bits (`s =
/// min(⌊log₂ threads⌋, d − 1)`, lowered until each subtree carries about
/// one paper-ring CMux) are independent and run on scoped threads,
/// each with its own [`KernelArena`] (the first stays on the caller and
/// its arena); the caller then plays the top `s` levels over their
/// winners. Every order performs the same CMuxes on the same operands,
/// so the output is bit-identical for every thread count.
///
/// # Errors
/// Fails when the entry count is not a power of two matching the number of
/// selection bits.
pub fn col_tor_with(
    he: &HeParams,
    entries: Vec<BfvCiphertext>,
    sel_bits: &[RgswCiphertext],
    order: TournamentOrder,
    threads: usize,
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<BfvCiphertext, PirError> {
    if entries.is_empty() || !entries.len().is_power_of_two() {
        return Err(PirError::InvalidParams(format!(
            "tournament over {} entries (need a power of two)",
            entries.len()
        )));
    }
    let d = entries.len().trailing_zeros() as usize;
    if sel_bits.len() < d {
        return Err(PirError::MissingKeys { got: sel_bits.len(), need: d });
    }
    let split = coltor_split_levels(he, d, threads);
    if split == 0 {
        return col_tor_ordered(he, entries, &sel_bits[..d], order, backend, arena);
    }
    let (low_bits, high_bits) = sel_bits[..d].split_at(d - split);
    let mut entries = entries.into_iter();
    let mut subtrees = (0..1usize << split)
        .map(|_| entries.by_ref().take(1 << low_bits.len()).collect::<Vec<_>>());
    let first = subtrees.next().expect("2^split >= 2 subtrees");
    let winners = std::thread::scope(|scope| {
        let workers: Vec<_> = subtrees
            .map(|group| {
                scope.spawn(move || {
                    col_tor_ordered(he, group, low_bits, order, backend, &mut KernelArena::new())
                })
            })
            .collect();
        let mut done = vec![col_tor_ordered(he, first, low_bits, order, backend, arena)];
        done.extend(
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))),
        );
        done
    });
    let winners = winners.into_iter().collect::<Result<Vec<_>, _>>()?;
    col_tor_ordered(he, winners, high_bits, order, backend, arena)
}

/// The sequential tournament in the requested traversal order.
fn col_tor_ordered(
    he: &HeParams,
    entries: Vec<BfvCiphertext>,
    sel_bits: &[RgswCiphertext],
    order: TournamentOrder,
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<BfvCiphertext, PirError> {
    match order {
        TournamentOrder::Bfs => col_tor_bfs(he, entries, sel_bits, backend, arena),
        TournamentOrder::Dfs => col_tor_dfs(he, &entries, sel_bits, backend, arena),
        TournamentOrder::Hs { subtree_depth } => {
            col_tor_hs(he, entries, sel_bits, subtree_depth.max(1), backend, arena)
        }
    }
}

/// One tournament node: `sel ⊡ (x − y) + y` (picks `x` when the bit is 1).
fn node(
    he: &HeParams,
    sel: &RgswCiphertext,
    x: &BfvCiphertext,
    y: &BfvCiphertext,
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<BfvCiphertext, PirError> {
    Ok(sel.cmux_with(he, x, y, backend, arena)?)
}

fn col_tor_bfs(
    he: &HeParams,
    mut entries: Vec<BfvCiphertext>,
    sel_bits: &[RgswCiphertext],
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<BfvCiphertext, PirError> {
    let d = entries.len().trailing_zeros() as usize;
    for (t, sel) in sel_bits.iter().enumerate().take(d) {
        let s = 1usize << t;
        let pairs = entries.len() >> (t + 1);
        for j in 0..pairs {
            let lo = 2 * s * j;
            let hi = lo + s;
            let z = node(he, sel, &entries[hi], &entries[lo], backend, arena)?;
            entries[lo] = z;
        }
    }
    Ok(entries.swap_remove(0))
}

fn col_tor_dfs(
    he: &HeParams,
    entries: &[BfvCiphertext],
    sel_bits: &[RgswCiphertext],
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<BfvCiphertext, PirError> {
    if entries.len() == 1 {
        return Ok(entries[0].clone());
    }
    let mid = entries.len() / 2;
    let bit = entries.len().trailing_zeros() as usize - 1;
    let lo = col_tor_dfs(he, &entries[..mid], sel_bits, backend, arena)?;
    let hi = col_tor_dfs(he, &entries[mid..], sel_bits, backend, arena)?;
    node(he, &sel_bits[bit], &hi, &lo, backend, arena)
}

fn col_tor_hs(
    he: &HeParams,
    entries: Vec<BfvCiphertext>,
    sel_bits: &[RgswCiphertext],
    subtree_depth: u32,
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<BfvCiphertext, PirError> {
    if entries.len() == 1 {
        return Ok(entries.into_iter().next().expect("non-empty"));
    }
    let d = entries.len().trailing_zeros();
    let fold = subtree_depth.min(d) as usize;
    let width = 1usize << fold;
    // Reduce each subtree of `width` adjacent entries with DFS (Fig. 7c),
    // consuming the low `fold` selection bits.
    let mut next = Vec::with_capacity(entries.len() / width);
    for group in entries.chunks(width) {
        next.push(col_tor_dfs(he, group, &sel_bits[..fold], backend, arena)?);
    }
    col_tor_hs(he, next, &sel_bits[fold..], subtree_depth, backend, arena)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ive_he::{Plaintext, SecretKey};
    use rand::{Rng, SeedableRng};

    fn setup(
        d: usize,
    ) -> (ive_he::HeParams, SecretKey, Vec<BfvCiphertext>, Vec<Plaintext>, rand::rngs::StdRng) {
        let he = ive_he::HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(d as u64 + 100);
        let sk = SecretKey::generate(&he, &mut rng);
        let mut cts = Vec::new();
        let mut msgs = Vec::new();
        for _ in 0..1 << d {
            let vals: Vec<u64> = (0..he.n()).map(|_| rng.gen_range(0..he.p())).collect();
            let m = Plaintext::new(&he, vals).unwrap();
            cts.push(BfvCiphertext::encrypt(&he, &sk, &m, &mut rng));
            msgs.push(m);
        }
        (he, sk, cts, msgs, rng)
    }

    fn bits_of(row: usize, d: usize) -> Vec<bool> {
        (0..d).map(|t| (row >> t) & 1 == 1).collect()
    }

    #[test]
    fn tournament_selects_every_row_bfs() {
        let d = 3;
        let (he, sk, cts, msgs, mut rng) = setup(d);
        for (target, msg) in msgs.iter().enumerate() {
            let sels: Vec<RgswCiphertext> = bits_of(target, d)
                .iter()
                .map(|&b| RgswCiphertext::encrypt_bit(&he, &sk, b, &mut rng))
                .collect();
            let out = col_tor(&he, cts.clone(), &sels, TournamentOrder::Bfs).unwrap();
            assert_eq!(out.decrypt(&he, &sk), *msg, "target {target}");
        }
    }

    #[test]
    fn orders_produce_identical_ciphertexts() {
        let d = 3;
        let (he, sk, cts, _msgs, mut rng) = setup(d);
        let target = 5;
        let sels: Vec<RgswCiphertext> = bits_of(target, d)
            .iter()
            .map(|&b| RgswCiphertext::encrypt_bit(&he, &sk, b, &mut rng))
            .collect();
        let bfs = col_tor(&he, cts.clone(), &sels, TournamentOrder::Bfs).unwrap();
        let dfs = col_tor(&he, cts.clone(), &sels, TournamentOrder::Dfs).unwrap();
        for depth in 1..=3 {
            let hs = col_tor(&he, cts.clone(), &sels, TournamentOrder::Hs { subtree_depth: depth })
                .unwrap();
            assert_eq!(bfs, hs, "HS depth {depth} diverged");
        }
        // HS reorders scheduling only; the arithmetic is identical (§IV-A:
        // "it does not introduce any additional error growth").
        assert_eq!(bfs, dfs);
    }

    #[test]
    fn split_gate_keeps_the_toy_ring_and_one_level_sequential() {
        let toy = ive_he::HeParams::toy();
        for threads in [2usize, 3, 4, 64] {
            for d in 1..=5 {
                assert_eq!(coltor_split_levels(&toy, d, threads), 0, "toy d={d} {threads}t");
            }
        }
        // Table I: d = 1 (the 64 MiB database) has nothing to split; deeper
        // tournaments split into one subtree per thread, up to 2^(d−1).
        let paper = ive_he::HeParams::paper();
        for threads in [1usize, 2, 3, 64] {
            assert_eq!(coltor_split_levels(&paper, 1, threads), 0);
        }
        assert_eq!(coltor_split_levels(&paper, 6, 1), 0);
        assert_eq!(coltor_split_levels(&paper, 6, 2), 1);
        assert_eq!(coltor_split_levels(&paper, 6, 3), 1);
        assert_eq!(coltor_split_levels(&paper, 6, 4), 2);
        assert_eq!(coltor_split_levels(&paper, 2, 64), 1);
    }

    #[test]
    fn split_tournament_is_identical_to_sequential() {
        // d = 6 is deep enough for the toy ring to pass the gate with two
        // 31-CMux subtrees (four 15-CMux ones would not).
        let d = 6;
        let (he, sk, cts, msgs, mut rng) = setup(d);
        let target = 45;
        let sels: Vec<RgswCiphertext> = bits_of(target, d)
            .iter()
            .map(|&b| RgswCiphertext::encrypt_bit(&he, &sk, b, &mut rng))
            .collect();
        assert_eq!(coltor_split_levels(&he, d, 2), 1);
        assert_eq!(coltor_split_levels(&he, d, 4), 1);
        let reference = col_tor(&he, cts.clone(), &sels, TournamentOrder::Bfs).unwrap();
        assert_eq!(reference.decrypt(&he, &sk), msgs[target]);
        let backend = kernel::default_backend();
        for order in [TournamentOrder::Bfs, TournamentOrder::Hs { subtree_depth: 2 }] {
            for threads in [2usize, 3] {
                let mut arena = KernelArena::new();
                let got =
                    col_tor_with(&he, cts.clone(), &sels, order, threads, backend, &mut arena)
                        .unwrap();
                assert_eq!(got, reference, "{order:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn single_entry_passthrough() {
        let (he, sk, cts, msgs, _) = setup(0);
        let out = col_tor(&he, cts, &[], TournamentOrder::Dfs).unwrap();
        assert_eq!(out.decrypt(&he, &sk), msgs[0]);
    }

    #[test]
    fn non_power_of_two_rejected() {
        let (he, _, mut cts, _, _) = setup(2);
        cts.pop();
        assert!(col_tor(&he, cts, &[], TournamentOrder::Bfs).is_err());
    }

    #[test]
    fn missing_bits_rejected() {
        let (he, sk, cts, _, mut rng) = setup(2);
        let one_bit = vec![RgswCiphertext::encrypt_bit(&he, &sk, false, &mut rng)];
        assert!(matches!(
            col_tor(&he, cts, &one_bit, TournamentOrder::Bfs),
            Err(PirError::MissingKeys { got: 1, need: 2 })
        ));
    }
}
