//! End-to-end retrieval at the *paper's* HE parameters (Table I:
//! `N = 2^12`, the four Solinas primes, `P = 2^32`) over a 16MB database
//! slice — the full-width cryptography, not the toy ring.

use ive::he::noise;
use ive::he::HeParams;
use ive::pir::db::plaintext_from_bytes;
use ive::pir::{BackendKind, Database, PirClient, PirParams, PirServer, QueryScratch};
use rand::SeedableRng;

/// Table I HE parameters over a reduced record count (D0 = 256, d = 2:
/// 1024 records × 16KB = 16MB) so the test runs in seconds.
fn paper_slice_params() -> PirParams {
    PirParams::new(HeParams::paper(), 256, 2).expect("valid geometry")
}

#[test]
fn paper_parameters_end_to_end() {
    let params = paper_slice_params();
    assert_eq!(params.record_bytes(), 16 * 1024);
    assert_eq!(params.num_records(), 1024);

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(20260609);
    // A few distinctive records; the rest default to zero.
    let mut records = vec![Vec::new(); params.num_records()];
    let targets = [0usize, 257, 1023];
    for &t in &targets {
        let mut payload = format!("table-one record {t}").into_bytes();
        payload.resize(4096, (t % 251) as u8);
        records[t] = payload;
    }
    let db = Database::from_records(&params, &records).expect("fits");
    let server = PirServer::new(&params, db).expect("geometry matches");
    let mut client = PirClient::new(&params, &mut rng).expect("keygen");

    for &target in &targets {
        let query = client.query(target).expect("in range");
        let response = server.answer(client.public_keys(), &query).expect("pipeline");
        let plain = client.decode(&query, &response).expect("decrypts");
        assert_eq!(&plain[..records[target].len()], &records[target][..], "record {target}");

        // The §II-C error analysis at full parameters: the response must
        // retain a healthy noise budget (Δ ≈ 2^77 dwarfs the error).
        let expect = plaintext_from_bytes(params.he(), &records[target]).expect("packs");
        let budget = noise::noise_budget_bits(params.he(), client.secret_key(), &response, &expect);
        // ~15 bits of slack measured: the error sits ≈ 2^61 against the
        // Δ/2 ≈ 2^76 decryption bound — the RowSel term (D0·N·P-scaled)
        // dominates exactly as §II-C predicts.
        assert!(budget > 8.0, "noise budget {budget:.1} bits at full parameters");

        // Compressed (modulus-switched) responses decode identically and
        // are 2x smaller at Table I parameters (P = 2^32 retains two of
        // the four primes: 112KB -> 56KB).
        let compressed = server.answer_compressed(client.public_keys(), &query).expect("pipeline");
        assert_eq!(compressed.byte_len(params.he()) * 2, params.he().ct_bytes());
        let plain2 = client.decode_compressed(&query, &compressed).expect("decrypts");
        assert_eq!(&plain2[..records[target].len()], &records[target][..]);
    }
}

#[test]
fn paper_parameters_answers_are_identical_across_thread_counts_and_backends() {
    // At Table I the per-batch thread cap splits Expand into subtrees
    // (2 and 3 threads: two subtrees) and the 16MB scan into D0 ranges
    // (3 threads: a ragged partition). Neither may change a bit.
    let params = paper_slice_params();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(20261017);
    let target = 600;
    let mut records = vec![Vec::new(); params.num_records()];
    records[target] = b"split across threads".to_vec();
    records[target + 1] = b"neighbour".to_vec();
    let db = Database::from_records(&params, &records).expect("fits");
    let mut server = PirServer::new(&params, db).expect("geometry matches");
    let mut client = PirClient::new(&params, &mut rng).expect("keygen");
    let query = client.query(target).expect("in range");
    let keys = client.public_keys();

    // `answer_with`'s steps, keeping the expansion to compare as well.
    let pipeline = |server: &PirServer| {
        let expanded = server.expand(keys, &query).expect("keys ok");
        let rows = server.row_sel(&expanded).expect("shape ok");
        let response =
            server.col_tor_step_with(rows, &query, &mut QueryScratch::new()).expect("bits ok");
        (expanded, response)
    };

    server.set_rowsel_threads(1);
    let (expanded, reference) = pipeline(&server);
    let plain = client.decode(&query, &reference).expect("decrypts");
    assert_eq!(&plain[..records[target].len()], &records[target][..]);

    for (threads, backend) in
        [(2, BackendKind::Auto), (3, BackendKind::Auto), (2, BackendKind::Optimized)]
    {
        server.set_rowsel_threads(threads);
        server.set_backend(backend);
        let (got_expanded, got) = pipeline(&server);
        assert!(got_expanded == expanded, "Expand diverged at {threads} threads on {backend}");
        assert!(got == reference, "response diverged at {threads} threads on {backend}");
    }
}

#[test]
fn paper_parameters_coltor_split_is_identical_across_thread_counts() {
    // d = 3 at Table I: 2 and 3 threads split the tournament into two
    // 3-CMux subtrees plus the top level on the caller. D0 = 2 keeps the
    // rest of the pipeline cheap.
    let params = PirParams::new(HeParams::paper(), 2, 3).expect("valid geometry");
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(20261018);
    let target = 13;
    let mut records = vec![Vec::new(); params.num_records()];
    records[target] = b"won the tournament".to_vec();
    records[target - 2] = b"lost in the final".to_vec();
    let db = Database::from_records(&params, &records).expect("fits");
    let mut server = PirServer::new(&params, db).expect("geometry matches");
    let mut client = PirClient::new(&params, &mut rng).expect("keygen");
    let query = client.query(target).expect("in range");
    let expanded = server.expand(client.public_keys(), &query).expect("keys ok");
    let rows = server.row_sel(&expanded).expect("shape ok");

    let mut scratch = QueryScratch::new();
    let mut responses = Vec::new();
    for threads in [1usize, 2, 3] {
        server.set_rowsel_threads(threads);
        responses.push(server.col_tor_step_with(rows.clone(), &query, &mut scratch).expect("bits"));
    }
    let plain = client.decode(&query, &responses[0]).expect("decrypts");
    assert_eq!(&plain[..records[target].len()], &records[target][..]);
    for (threads, response) in [2, 3].iter().zip(&responses[1..]) {
        assert!(*response == responses[0], "ColTor diverged at {threads} threads");
    }
}

#[test]
fn paper_parameters_query_sizes_match_section_vi() {
    // §VI-C: "each query transfers only a few MBs of client-specific
    // data" — check the actual object sizes at Table I parameters.
    let params = paper_slice_params();
    let he = params.he();
    let mut client =
        PirClient::new(&params, rand_chacha::ChaCha8Rng::seed_from_u64(1)).expect("keygen");
    let query = client.query(3).expect("in range");
    let mb = (1 << 20) as f64;
    let query_mb = query.byte_len(he) as f64 / mb;
    assert!(query_mb < 8.0, "query is {query_mb:.1}MB");
    // One-time key registration: log2(D0) evks.
    let keys_mb = client.public_keys().byte_len(he) as f64 / mb;
    assert!(keys_mb < 16.0, "keys are {keys_mb:.1}MB");
}
