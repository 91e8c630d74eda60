//! Cross-validation of the performance model against *executed*
//! operations: the functional PIR server runs a real query while
//! `ive_math::metrics` counts every residue NTT, pointwise MAC, iCRT
//! coefficient and automorphism it performs; the counts are then compared
//! with the complexity model's predictions for the same geometry.
//!
//! This file contains a single test on purpose: the counters are
//! process-global, and cargo gives each integration-test binary its own
//! process.

use ive::baselines::complexity::{external_product_ops, per_query_ops, subs_ops, Geometry};
use ive::math::metrics;
use ive::pir::{Database, PirClient, PirParams, PirServer};
use rand::SeedableRng;

#[test]
fn functional_op_counts_match_complexity_model() {
    let params = PirParams::toy();
    let he = params.he();
    let (n, k, ell) = (he.n(), he.ring().basis().len(), he.gadget().ell());
    // The model geometry mirroring the toy functional parameters, in
    // direct-RGSW mode (the client uploads the selection bits).
    let geom = Geometry {
        n,
        k,
        ell,
        d0: params.d0(),
        dims: params.dims(),
        fill: 1.0,
        rgsw_conversion: false,
    };
    let model = per_query_ops(&geom);

    let records: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| format!("op-count record {i}").into_bytes()).collect();
    let db = Database::from_records(&params, &records).expect("fits");
    let server = PirServer::new(&params, db).expect("geometry matches");
    let mut client =
        PirClient::new(&params, rand_chacha::ChaCha8Rng::seed_from_u64(4242)).expect("keygen");
    let query = client.query(37).expect("in range");

    // --- Expand in isolation: NTT count is exact. Every Subs costs the
    //     model's (1+ℓ)k (one iNTT of a_τ for Dcp, ℓ·k digit NTTs; τ_r is a
    //     slot permutation), plus one k-NTT table X^{-2^j} per level for
    //     the odd branches. -------------------------------------------
    let before = metrics::snapshot();
    let expanded = server.expand(client.public_keys(), &query).expect("keys ok");
    let expand = metrics::snapshot().delta_since(&before);
    let levels = params.log_d0() as u64;
    let tree_subs = (params.d0() - 1) as u64;
    let odd_tables = levels * k as u64;
    let expect_expand_ntts = tree_subs * subs_ops(&geom).residue_ntts as u64 + odd_tables;
    assert_eq!(
        expand.residue_ntts, expect_expand_ntts,
        "Expand executed {} residue NTTs, structural count {}",
        expand.residue_ntts, expect_expand_ntts
    );
    // Automorphisms: two per Subs (a and b), k·n slots each.
    assert_eq!(expand.auto_coeffs as f64, model.expand.auto_coeffs);
    assert_eq!(expand.auto_coeffs, tree_subs * (2 * k * n) as u64);

    // --- RowSel in isolation: the model's MAC count must be *exact*. ---
    let before = metrics::snapshot();
    let rows = server.row_sel(&expanded).expect("shape ok");
    let rowsel = metrics::snapshot().delta_since(&before);
    assert_eq!(
        rowsel.pointwise_macs as f64, model.rowsel.gemm_macs,
        "RowSel executed {} MACs, model predicts {}",
        rowsel.pointwise_macs, model.rowsel.gemm_macs
    );
    assert_eq!(rowsel.residue_ntts, 0, "RowSel must be NTT-free (preprocessed DB)");

    // --- ColTor in isolation: NTT count per external product is exact
    //     ((2 + 2ℓ)·k: Dcp iNTTs plus digit forward NTTs). --------------
    let before = metrics::snapshot();
    let _response = server.col_tor_step(rows, &query).expect("bits ok");
    let coltor = metrics::snapshot().delta_since(&before);
    let products = geom.rows() - 1;
    let expect_ntts = products * ((2 + 2 * ell) * k) as u64;
    assert_eq!(
        coltor.residue_ntts, expect_ntts,
        "ColTor executed {} residue NTTs, structural count {}",
        coltor.residue_ntts, expect_ntts
    );
    // The model's per-⊡ NTT count uses the same structural formula.
    let model_coltor_ntts = external_product_ops(&geom).residue_ntts * products as f64;
    assert_eq!(coltor.residue_ntts as f64, model_coltor_ntts);
    // Each ⊡ reconstructs both polynomials coefficient-wise.
    assert_eq!(coltor.icrt_coeffs, products * (2 * n) as u64);

    // --- Full pipeline: aggregate counts within a documented band. -----
    metrics::reset();
    let _ = server.answer(client.public_keys(), &query).expect("pipeline");
    let full = metrics::snapshot();
    // The model's per-Subs and per-⊡ NTT counts are exact; the only
    // executed NTTs it does not charge are the log2(D0)·k odd-branch
    // tables (9 of 450 at toy parameters, a 2% excess).
    let model_ntts =
        model.expand.residue_ntts + model.rowsel.residue_ntts + model.coltor.residue_ntts;
    assert_eq!(full.residue_ntts as f64, model_ntts + odd_tables as f64);
    let ratio = full.residue_ntts as f64 / model_ntts;
    assert!(
        (1.0..1.05).contains(&ratio),
        "executed {} residue NTTs vs model {model_ntts:.0} (ratio {ratio:.3})",
        full.residue_ntts
    );
    let model_macs = model.expand.gemm_macs + model.rowsel.gemm_macs + model.coltor.gemm_macs;
    let mac_ratio = full.pointwise_macs as f64 / model_macs;
    assert!(
        (0.9..1.3).contains(&mac_ratio),
        "executed {} MACs vs model {model_macs:.0} (ratio {mac_ratio:.2})",
        full.pointwise_macs
    );
    assert_eq!(full.auto_coeffs, expand.auto_coeffs, "only Expand moves automorphisms");
}
