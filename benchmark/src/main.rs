//! The repository's benchmark. Runs one named workload against the real
//! serving stack and prints every metric by name and unit, then one JSON
//! result line:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload table1-64mib --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! load, then the traced replay (see `replay.rs`), and reports the
//! per-layer metrics. Any wrong record, a noise budget under the floor,
//! or layers that do not add up to the traced end-to-end time make the
//! run exit non-zero. See README.md for the workloads and the metric map.

mod host;
mod load;
mod replay;
mod spec;

use ive_pir::wire;
use ive_serve::Stage;

use spec::{Seeds, Workload};

/// A response whose noise budget falls under this many bits fails the run.
const NOISE_FLOOR_BITS: f64 = 4.0;

/// Traced layer self times must sum to the traced end-to-end time within
/// this share of it.
const RECONCILE_TOLERANCE: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = Workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; expected one of {}", names.join(", "))
    })?;
    let num = |flag: &str| get(flag)?.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed: num("--seed")?, seconds, trace })
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Describes a tail percentile and how many samples lie beyond it.
fn tail_note(what: &str, samples: &[f64], pct: f64) -> String {
    let n = samples.len();
    let beyond = n - ((pct / 100.0) * n as f64).ceil().max(1.0).min(n as f64) as usize;
    let warn = if beyond < 10 { " (fewer than 10 beyond: lengthen the run)" } else { "" };
    format!("{what}: p{pct} of {n} samples, {beyond} beyond{warn}")
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs one workload; returns whether every correctness check passed.
fn run(args: &Args) -> Result<bool, Box<dyn std::error::Error>> {
    let w = &args.workload;
    let params = &w.params;
    let seeds = Seeds::new(args.seed);
    let tmp = std::env::current_dir()?.join(".bench_tmp").join(std::process::id().to_string());
    println!(
        "workload {} seed {} seconds {} trace {}: {} records x {} B, {:.1} MiB in NTT form, {:?}, window {:?} max_batch {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        params.num_records(),
        params.record_bytes(),
        spec::scan_bytes(params) as f64 / (1 << 20) as f64,
        w.load,
        w.config(None).window,
        w.config(None).max_batch,
    );

    // Set-up, several times; the last one serves the load.
    let mut setups = Vec::with_capacity(w.setup_reps);
    let mut served = None;
    for _ in 0..w.setup_reps {
        if let Some(s) = served.take() {
            load::Served::shutdown(s);
        }
        let s = load::setup(w, &seeds, &tmp)?;
        setups.push(s.setup.as_secs_f64());
        served = Some(s);
    }
    let mut served = served.expect("at least one set-up");
    let (outcome, stats) = load::run(w, &mut served, &seeds, args.seconds);
    let peak_rss = peak_rss_mib();
    let handshake = served.handshake;
    let oracle = served.shutdown();
    let _ = std::fs::remove_dir(tmp.parent().expect("tmp has a parent"));

    let mut failed = outcome.failed
        + outcome.wrong
        + stats.retries
        + stats.reconnects
        + stats.busy_rejections
        + stats.timeouts;
    let mut attempted = outcome.reads + outcome.writes + stats.retries;
    let mut correct = outcome.wrong == 0;
    if outcome.wrong > 0 {
        println!(
            "CHECK FAILED: {} retrieved records matched no version of their index",
            outcome.wrong
        );
    }
    let mut report = Report::default();

    if !args.trace {
        let mut client = ive_pir::PirClient::new(params, seeds.stream(spec::KEYS))?;
        let query = client.query(0)?;
        report.add("setup_s", percentile(&setups, 50.0), "s");
        report.add("latency_p50_ms", percentile(&outcome.latency_ms, 50.0), "ms");
        report.add("latency_tail_ms", percentile(&outcome.latency_ms, w.tail_pct), "ms");
        report.add(
            "throughput_qps",
            outcome.latency_ms.len() as f64 / outcome.elapsed.as_secs_f64(),
            "1/s",
        );
        report.add("success_frac", 1.0 - failed as f64 / attempted.max(1) as f64, "fraction");
        report.add("peak_rss_mib", peak_rss, "MiB");
        report.add("query_bytes", wire::encode_session_query(1, 1, &query).len() as f64, "bytes");
        report.add(
            "response_bytes",
            wire::encode_session_response(1, query.packed()).len() as f64,
            "bytes",
        );
        report.add("key_bytes", wire::encode_hello(client.public_keys()).len() as f64, "bytes");
        println!("setup_s samples: {setups:?}");
        let dist: Vec<String> = [50.0, 90.0, 95.0, 99.0, 100.0]
            .iter()
            .map(|&p| format!("p{p}={:.3}", percentile(&outcome.latency_ms, p)))
            .collect();
        println!("latency_ms over {} reads: {}", outcome.latency_ms.len(), dist.join(" "));
        println!("{}", tail_note("latency_tail_ms", &outcome.latency_ms, w.tail_pct));
    } else {
        // The replay runs on the database as loaded, rebuilt now that the
        // service (and its copy) is gone.
        let config = w.config(None);
        let batch = (stats.avg_batch.round() as usize).clamp(1, config.max_batch);
        let originals: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| oracle.original(i)).collect();
        let db = ive_pir::Database::from_records(params, &originals)?;
        drop(originals);
        let server = replay::server_like(params, db.clone(), &config);
        let original = |i: usize| oracle.original(i);
        let replay = replay::run(
            params,
            &server,
            &original,
            seeds.stream(spec::KEYS),
            &mut seeds.stream(spec::REPLAY),
            batch,
            w.replay_batches,
        );
        drop(server);
        let (commit_ms, cow_words) =
            replay::commits(params, db, &config, &mut seeds.stream(spec::WRITES), w.commit_epochs);
        attempted += 2 * replay.queries;
        failed += replay.wrong;
        if replay.wrong > 0 {
            correct = false;
            println!("CHECK FAILED: {} replayed records were wrong", replay.wrong);
        }
        if replay.noise_min_bits < NOISE_FLOOR_BITS {
            correct = false;
            println!(
                "CHECK FAILED: noise budget {:.2} bits is under the {NOISE_FLOOR_BITS}-bit floor",
                replay.noise_min_bits
            );
        }

        let host = host::probe(params);
        println!("{host}");
        let selfs = replay.rec.self_ns();
        let q = replay.queries as f64;
        let per_query = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / 1e6 / q;
        let batches = w.replay_batches as f64;
        let e2e_ms = replay.rec.roots_ns().iter().sum::<u64>() as f64 / 1e6 / batches;
        let layer_sum_ms =
            selfs.iter().filter(|(n, _)| **n != "request").map(|(_, v)| *v).sum::<u64>() as f64
                / 1e6
                / batches;
        let residual_frac = (e2e_ms - layer_sum_ms) / e2e_ms;
        let overhead_ms = percentile(&replay.traced_ms, 50.0) - percentile(&replay.plain_ms, 50.0);
        let counts = replay.counts.per_query();
        let stage = |s: Stage| stats.stage(s).mean_ms();
        let rowsel_ms = selfs.get("pir.rowsel").copied().unwrap_or(0) as f64 / 1e6 / batches;
        let rowsel_gbps = spec::scan_bytes(params) as f64 / (rowsel_ms / 1e3) / 1e9;
        let expand_ms = per_query("pir.expand");
        let coltor_ms = per_query("pir.coltor");
        let client_steps = per_query("client.query")
            + per_query("wire.encode_query")
            + per_query("wire.decode_response")
            + per_query("client.decode");
        let engine_sum_us: u64 = [Stage::Expand, Stage::RowSel, Stage::ColTor]
            .iter()
            .map(|&s| stats.stage(s).sum_us)
            .sum();

        println!("layer self times per replayed batch of {batch} (ms):");
        for (name, ns) in &selfs {
            println!("  {name:<22} {:>12.4}", *ns as f64 / 1e6 / batches);
        }
        let reconciled = residual_frac.abs() <= RECONCILE_TOLERANCE;
        println!(
            "reconciliation: layer sum {layer_sum_ms:.4} ms vs traced end-to-end {e2e_ms:.4} ms, residual {:.4} ms ({:.3}%, tolerance {:.0}%) {}",
            e2e_ms - layer_sum_ms,
            residual_frac * 100.0,
            RECONCILE_TOLERANCE * 100.0,
            if reconciled { "OK" } else { "FAILED" }
        );
        println!(
            "tracing overhead: traced {:.4} ms - untraced {:.4} ms = {overhead_ms:.4} ms per batch",
            percentile(&replay.traced_ms, 50.0),
            percentile(&replay.plain_ms, 50.0)
        );
        if !reconciled {
            correct = false;
            println!("CHECK FAILED: layer self times do not add up to the traced end-to-end time");
        }

        report.add("client.query_ms", per_query("client.query"), "ms");
        report.add("client.decode_ms", per_query("client.decode"), "ms");
        report.add("client.keygen_ms", load::ms(replay.keygen), "ms");
        report.add("client.hello_ms", load::ms(handshake.saturating_sub(replay.keygen)), "ms");
        report.add("wire.encode_query_ms", per_query("wire.encode_query"), "ms");
        report.add("wire.decode_query_ms", per_query("wire.decode_query"), "ms");
        report.add("wire.encode_response_ms", per_query("wire.encode_response"), "ms");
        report.add("wire.decode_response_ms", per_query("wire.decode_response"), "ms");
        report.add(
            "wire.net_ms",
            mean(&outcome.latency_ms)
                - mean(&outcome.late_ms)
                - stats.mean_latency_ms
                - stage(Stage::Decode)
                - client_steps,
            "ms",
        );
        report.add("service.decode_ms", stage(Stage::Decode), "ms");
        report.add("service.queue_wait_ms", stage(Stage::QueueWait), "ms");
        report.add("service.encode_ms", stage(Stage::Encode), "ms");
        report.add("service.avg_batch", stats.avg_batch, "queries");
        report.add("service.busy_rejections", stats.busy_rejections as f64, "count");
        report.add(
            "engine.answer_batch_ms",
            engine_sum_us as f64 / 1e3 / stats.batches.max(1) as f64,
            "ms",
        );
        report.add("engine.commit_ms", commit_ms, "ms");
        report.add("engine.cow_words_per_epoch", cow_words, "words");
        report.add("pir.expand_ms", expand_ms, "ms");
        report.add("pir.rowsel_ms", rowsel_ms, "ms");
        report.add("pir.coltor_ms", coltor_ms, "ms");
        report.add("pir.rowsel_gbps", rowsel_gbps, "GB/s");
        report.add("pir.rowsel_roofline_frac", rowsel_gbps / host.db_gbps, "fraction");
        report.add(
            "pir.expand_ntt_bound_frac",
            counts.expand_ntts as f64 * host.ntt_us / 1e3 / expand_ms,
            "fraction",
        );
        report.add(
            "pir.coltor_ntt_bound_frac",
            counts.coltor_ntts as f64 * host.ntt_us / 1e3 / coltor_ms,
            "fraction",
        );
        report.add("he.noise_budget_bits_min", replay.noise_min_bits, "bits");
        report.add("kernel.ntt_us", host.ntt_us, "us");
        report.add("kernel.fma_ns_per_elem", host.fma_ns_per_elem, "ns");
        report.add("kernel.expand_ntts", counts.expand_ntts as f64, "count");
        report.add("kernel.coltor_ntts", counts.coltor_ntts as f64, "count");
        report.add("kernel.rowsel_macs", counts.rowsel_macs as f64, "count");
        report.add("kernel.auto_coeffs", counts.expand_auto_coeffs as f64, "count");
        report.add("update.journal_fsync_ms", stage(Stage::JournalFsync), "ms");
        report.add("update.epoch_commit_ms", stage(Stage::EpochCommit), "ms");
        report.add("update.ack_p50_ms", percentile(&outcome.ack_ms, 50.0), "ms");
        let ack_tail_pct = w.writes.map_or(100.0, |wr| wr.tail_pct);
        report.add("update.ack_tail_ms", percentile(&outcome.ack_ms, ack_tail_pct), "ms");
        report.add("load.late_ms_p50", percentile(&outcome.late_ms, 50.0), "ms");
        report.add("load.late_ms_tail", percentile(&outcome.late_ms, w.tail_pct), "ms");
        report.add("trace.e2e_ms", e2e_ms, "ms");
        report.add("trace.layer_sum_ms", layer_sum_ms, "ms");
        report.add("trace.residual_frac", residual_frac, "fraction");
        report.add("trace.overhead_ms", overhead_ms, "ms");
        report.add("host.read_gbps_8mib", host.curve[0].1, "GB/s");
        report.add("host.read_gbps_db", host.db_gbps, "GB/s");
        report.add("host.knee_mib", (host.knee_bytes >> 20) as f64, "MiB");
        report.add("host.db_cache_side", f64::from(u8::from(host.cache_side())), "flag");
        println!(
            "expand NTT-bound residual: {} NTTs x {:.3} us = {:.2} ms of {expand_ms:.2} ms measured ({:.2} ms unexplained)",
            counts.expand_ntts,
            host.ntt_us,
            counts.expand_ntts as f64 * host.ntt_us / 1e3,
            expand_ms - counts.expand_ntts as f64 * host.ntt_us / 1e3
        );
        if !outcome.ack_ms.is_empty() {
            println!("{}", tail_note("update.ack_tail_ms", &outcome.ack_ms, ack_tail_pct));
        }
        if !outcome.late_ms.is_empty() {
            println!("{}", tail_note("load.late_ms_tail", &outcome.late_ms, w.tail_pct));
        }
        eprint!("spans:\n{}", replay.rec.dump());
    }
    if !args.trace {
        println!("{}", host::probe(params));
    }
    println!(
        "server: queries={} batches={} avg_batch={:.3} errors={} busy={} retries={} reconnects={} epoch={}",
        stats.queries, stats.batches, stats.avg_batch, stats.errors, stats.busy_rejections, stats.retries, stats.reconnects, stats.epoch
    );
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", report.json(correct, attempted.max(1), failed));
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Kernel op counts per query are exact: two runs and two seeds give
    /// identical counts, at the toy and the Table I 64 MiB geometry.
    #[test]
    fn kernel_counts_repeat_exactly() {
        for w in ["toy-churn", "table1-64mib"] {
            let w = Workload::by_name(w).expect("workload");
            let params = &w.params;
            let config = w.config(None);
            let mut seen = Vec::new();
            for seed in [1u64, 2, 1] {
                let seeds = Seeds::new(seed);
                let records = spec::records(params, &seeds);
                let db = ive_pir::Database::from_records(params, &records).expect("db");
                let server = replay::server_like(params, db, &config);
                let original = |i: usize| records[i].clone();
                let out = replay::run(
                    params,
                    &server,
                    &original,
                    seeds.stream(spec::KEYS),
                    &mut rand::rngs::StdRng::seed_from_u64(seed),
                    2,
                    1,
                );
                assert_eq!(out.wrong, 0);
                seen.push(out.counts.per_query());
            }
            assert!(seen[0].expand_ntts > 0 && seen[0].rowsel_macs > 0, "{seen:?}");
            assert!(seen.windows(2).all(|p| p[0] == p[1]), "{}: {seen:?}", w.name);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
