//! Serving metrics: request latency histogram, QPS, batch-size
//! distribution, queue depth, per-stage timings, and kernel op rates —
//! the live counterpart of the analytic load–latency curves in
//! `ive_accel::queue` (Fig. 14b).
//!
//! [`Metrics`] owns the raw lock-free counters plus the shared
//! [`TraceRecorder`]; [`Metrics::report`] freezes everything into the
//! integer-only wire payload ([`StatsReport`]), and [`ServerStats`]
//! derives every rate and quantile from that payload — so a stats
//! snapshot computed in-process and one scraped over a
//! [`wire::Tag::GetStats`](ive_pir::wire::Tag::GetStats) round-trip run
//! the exact same arithmetic.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ive_math::metrics::OpSnapshot;
use ive_pir::wire::{StageReport, StatsReport};

use crate::trace::{quantile_from_log2_buckets, Log2Hist, Stage, StageStats, TraceRecorder};

/// Number of log₂ latency buckets: bucket `i` counts requests whose
/// end-to-end latency lies in `[2^i, 2^(i+1))` microseconds; 40 buckets
/// reach ~12 days, far beyond any sane request.
const LATENCY_BUCKETS: usize = 40;

/// Lock-free accumulation of serving statistics. One instance is shared
/// by the connection handlers, the batcher, and the workers; the
/// embedded [`TraceRecorder`] is additionally shared with the engine.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    errors: AtomicU64,
    batches: AtomicU64,
    batch_query_sum: AtomicU64,
    batches_multi: AtomicU64,
    max_batch: AtomicU64,
    /// End-to-end latency of every successful query (its sample count
    /// is the served-query count).
    latency: Log2Hist<LATENCY_BUCKETS>,
    queue_depth: AtomicUsize,
    queue_depth_max: AtomicUsize,
    busy_rejections: AtomicU64,
    /// LRU evictions in the session cache. Behind an `Arc` because the
    /// [`crate::SessionManager`] increments it directly (the cache does
    /// not otherwise know the metrics plane).
    session_evictions: Arc<AtomicU64>,
    update_batches: AtomicU64,
    updates_applied: AtomicU64,
    epoch: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
    worker_panics: AtomicU64,
    drained_jobs: AtomicU64,
    /// Kernel op counters at creation: the process-global counters in
    /// [`ive_math::metrics`] may already carry preprocessing work, so
    /// snapshots report the delta attributable to this service.
    ops_base: OpSnapshot,
    trace: Arc<TraceRecorder>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh counters with a default [`TraceRecorder`]; the uptime clock
    /// starts now.
    pub fn new() -> Self {
        Self::with_trace(Arc::new(TraceRecorder::new()))
    }

    /// Fresh counters around an existing recorder — the service wires
    /// the same recorder into the engine so every layer's stage samples
    /// land in one place.
    pub fn with_trace(trace: Arc<TraceRecorder>) -> Self {
        Metrics {
            started: Instant::now(),
            errors: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_query_sum: AtomicU64::new(0),
            batches_multi: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            latency: Log2Hist::new(),
            queue_depth: AtomicUsize::new(0),
            queue_depth_max: AtomicUsize::new(0),
            busy_rejections: AtomicU64::new(0),
            session_evictions: Arc::default(),
            update_batches: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            drained_jobs: AtomicU64::new(0),
            ops_base: ive_math::metrics::snapshot(),
            trace,
        }
    }

    /// The shared per-stage recorder.
    pub fn trace(&self) -> &Arc<TraceRecorder> {
        &self.trace
    }

    /// One update batch of `applied` deltas committed as `epoch`.
    pub fn update_committed(&self, applied: usize, epoch: u64) {
        self.update_batches.fetch_add(1, Ordering::Relaxed);
        self.updates_applied.fetch_add(applied as u64, Ordering::Relaxed);
        self.epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    /// A query entered the waiting queue.
    pub fn job_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// A query left the waiting queue (joined a batch).
    pub fn job_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A query was shed at admission because the bounded queue was full
    /// (the typed `Busy` rejection — counted separately from server-side
    /// failures so overload is visible as overload).
    pub fn query_rejected_busy(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// The session-eviction counter, shared with the session cache: the
    /// service hands this to
    /// [`SessionManager::with_eviction_counter`](crate::SessionManager::with_eviction_counter)
    /// so LRU evictions surface in every stats snapshot.
    pub fn session_eviction_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.session_evictions)
    }

    /// A batch of `size` queries dispatched to a worker.
    pub fn batch_dispatched(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_query_sum.fetch_add(size as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
        if size > 1 {
            self.batches_multi.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One query finished successfully after the given end-to-end latency
    /// (enqueue → response frame handed to the transport).
    pub fn query_done(&self, latency: Duration) {
        self.latency.record(latency);
    }

    /// One query failed server-side.
    pub fn query_failed(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection idled past its deadline and was closed.
    pub fn timeout_closed(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// A duplicate update request was answered from the idempotency
    /// cache instead of re-applied — the visible footprint of a client
    /// retrying an already-acked batch.
    pub fn retry_detected(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A Hello re-registered over a connection that already held a
    /// session (an evicted client recovering in place).
    pub fn reconnect_registered(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker panic was caught and isolated into typed error frames.
    pub fn worker_panicked(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// A queued job was answered while the service was draining.
    pub fn job_drained(&self) {
        self.drained_jobs.fetch_add(1, Ordering::Relaxed);
    }

    /// Freezes every counter — including the stage histograms, kernel op
    /// deltas, and scan accounting — into the integer-only wire payload
    /// a [`wire::Tag::StatsResponse`](ive_pir::wire::Tag::StatsResponse)
    /// frame carries.
    pub fn report(&self) -> StatsReport {
        let ops = ive_math::metrics::snapshot().delta_since(&self.ops_base);
        let latency = self.latency.report();
        StatsReport {
            queries: latency.count,
            errors: self.errors.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_query_sum: self.batch_query_sum.load(Ordering::Relaxed),
            batches_multi: self.batches_multi.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed) as u64,
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed) as u64,
            update_batches: self.update_batches.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            uptime_us: self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            latency_sum_us: latency.sum_us,
            latency_max_us: latency.max_us,
            latency_buckets: latency.buckets,
            stages: self
                .trace
                .stage_stats()
                .into_iter()
                .map(|s| StageReport {
                    count: s.count,
                    sum_us: s.sum_us,
                    max_us: s.max_us,
                    buckets: s.buckets,
                })
                .collect(),
            residue_ntts: ops.residue_ntts,
            pointwise_macs: ops.pointwise_macs,
            icrt_coeffs: ops.icrt_coeffs,
            auto_coeffs: ops.auto_coeffs,
            scan_bytes: self.trace.scan_bytes(),
            scan_ns: self.trace.scan_ns(),
            slow_queries: self.trace.slow_seen(),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            session_evictions: self.session_evictions.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            drained_jobs: self.drained_jobs.load(Ordering::Relaxed),
        }
    }

    /// A consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> ServerStats {
        ServerStats::from_report(&self.report())
    }
}

/// A point-in-time view of the serving counters: every rate and quantile
/// derived from one raw [`StatsReport`], whether that report was read
/// in-process or scraped over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Queries answered successfully.
    pub queries: u64,
    /// Queries that failed server-side.
    pub errors: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean dispatched batch size.
    pub avg_batch: f64,
    /// Largest dispatched batch.
    pub max_batch: usize,
    /// Batches that coalesced more than one query.
    pub batches_multi: u64,
    /// Served queries per second of uptime.
    pub qps: f64,
    /// Mean end-to-end latency (enqueue → response framed), ms.
    pub mean_latency_ms: f64,
    /// Median latency (log-interpolated within the matching bucket), ms.
    pub p50_latency_ms: f64,
    /// 95th-percentile latency (log-interpolated), ms.
    pub p95_latency_ms: f64,
    /// 99th-percentile latency (log-interpolated), ms.
    pub p99_latency_ms: f64,
    /// 99.9th-percentile latency (log-interpolated), ms — the tail the
    /// waiting-window analysis (Fig. 14b) trades mean latency for.
    pub p999_latency_ms: f64,
    /// Worst observed latency, ms.
    pub max_latency_ms: f64,
    /// End-to-end latency log₂ histogram (bucket `i` counts
    /// `[2^i, 2^(i+1))` µs) — the raw mass behind the quantiles, and the
    /// Prometheus `ive_latency_us` series.
    pub latency_buckets: Vec<u64>,
    /// Queries currently waiting for a window.
    pub queue_depth: usize,
    /// High-water mark of the waiting queue.
    pub max_queue_depth: usize,
    /// Update batches committed (each is one epoch boundary).
    pub update_batches: u64,
    /// Total row deltas committed.
    pub updates_applied: u64,
    /// The database epoch answers currently reflect.
    pub epoch: u64,
    /// Seconds since the metrics were created.
    pub uptime_s: f64,
    /// Per-stage duration histograms, in [`Stage::ALL`] order.
    pub stages: Vec<StageStats>,
    /// Residue-polynomial (i)NTT executions since the service started.
    pub residue_ntts: u64,
    /// Modular multiply-accumulates since the service started.
    pub pointwise_macs: u64,
    /// Coefficients reconstructed through iCRT since the service started.
    pub icrt_coeffs: u64,
    /// Coefficients moved through automorphisms since the service
    /// started.
    pub auto_coeffs: u64,
    /// Modular multiply-accumulates per second of uptime — the measured
    /// counterpart of the roofline device's `mult_per_s` axis.
    pub mults_per_s: f64,
    /// Database bytes streamed by `RowSel` scans.
    pub scan_bytes: u64,
    /// Effective `RowSel` scan bandwidth, GB/s (bytes over the scans'
    /// wall time) — compare against the DRAM roofline ceiling.
    pub scan_gbps: f64,
    /// Queries that crossed the slow-trace threshold.
    pub slow_queries: u64,
    /// Queries shed at admission with a typed `Busy` rejection (the
    /// bounded queue was full) — overload, counted as overload.
    pub busy_rejections: u64,
    /// Session-cache LRU evictions performed to admit new Hellos.
    pub session_evictions: u64,
    /// Connections closed after their idle deadline expired.
    pub timeouts: u64,
    /// Duplicate update requests answered from the idempotency cache
    /// instead of re-applied (clients retrying already-acked batches).
    pub retries: u64,
    /// Hellos that re-registered over a connection already holding a
    /// session (evicted clients recovering in place).
    pub reconnects: u64,
    /// Worker panics caught and isolated into typed error frames.
    pub worker_panics: u64,
    /// Queries answered while the service was draining for shutdown.
    pub drained_jobs: u64,
}

impl ServerStats {
    /// Derives every rate and quantile from a raw report — the single
    /// arithmetic shared by in-process snapshots and wire scrapes.
    pub fn from_report(report: &StatsReport) -> ServerStats {
        let uptime_s = report.uptime_us as f64 / 1e6;
        let queries = report.queries;
        let max_ms = report.latency_max_us as f64 / 1000.0;
        let quantile = |q| quantile_from_log2_buckets(&report.latency_buckets, q, max_ms);
        let stages = Stage::ALL
            .iter()
            .enumerate()
            .map(|(i, &stage)| {
                let r = report.stages.get(i).cloned().unwrap_or_default();
                StageStats {
                    stage,
                    count: r.count,
                    sum_us: r.sum_us,
                    max_us: r.max_us,
                    buckets: r.buckets,
                }
            })
            .collect();
        ServerStats {
            queries,
            errors: report.errors,
            batches: report.batches,
            avg_batch: if report.batches == 0 {
                0.0
            } else {
                report.batch_query_sum as f64 / report.batches as f64
            },
            max_batch: report.max_batch as usize,
            batches_multi: report.batches_multi,
            qps: if uptime_s > 0.0 { queries as f64 / uptime_s } else { 0.0 },
            mean_latency_ms: if queries == 0 {
                0.0
            } else {
                report.latency_sum_us as f64 / queries as f64 / 1000.0
            },
            p50_latency_ms: quantile(0.50),
            p95_latency_ms: quantile(0.95),
            p99_latency_ms: quantile(0.99),
            p999_latency_ms: quantile(0.999),
            max_latency_ms: max_ms,
            latency_buckets: report.latency_buckets.clone(),
            queue_depth: report.queue_depth as usize,
            max_queue_depth: report.queue_depth_max as usize,
            update_batches: report.update_batches,
            updates_applied: report.updates_applied,
            epoch: report.epoch,
            uptime_s,
            stages,
            residue_ntts: report.residue_ntts,
            pointwise_macs: report.pointwise_macs,
            icrt_coeffs: report.icrt_coeffs,
            auto_coeffs: report.auto_coeffs,
            mults_per_s: if uptime_s > 0.0 { report.pointwise_macs as f64 / uptime_s } else { 0.0 },
            scan_bytes: report.scan_bytes,
            scan_gbps: if report.scan_ns > 0 {
                report.scan_bytes as f64 / report.scan_ns as f64
            } else {
                0.0
            },
            slow_queries: report.slow_queries,
            busy_rejections: report.busy_rejections,
            session_evictions: report.session_evictions,
            timeouts: report.timeouts,
            retries: report.retries,
            reconnects: report.reconnects,
            worker_panics: report.worker_panics,
            drained_jobs: report.drained_jobs,
        }
    }

    /// The histogram for one stage.
    pub fn stage(&self, stage: Stage) -> &StageStats {
        &self.stages[stage as usize]
    }

    /// Sum of the mean per-sample stage durations (ms) over the stages a
    /// served query passes through — the breakdown whose total should
    /// approximate the measured mean end-to-end latency.
    pub fn stage_sum_ms(&self) -> f64 {
        [Stage::Decode, Stage::QueueWait, Stage::Expand, Stage::RowSel, Stage::ColTor]
            .iter()
            .chain([Stage::Compress, Stage::Encode].iter())
            .map(|&s| {
                let st = self.stage(s);
                if self.queries == 0 {
                    0.0
                } else {
                    st.sum_us as f64 / self.queries as f64 / 1000.0
                }
            })
            .sum()
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// counters, gauges, and the log₂ histograms as cumulative buckets
    /// (each `le` edge is a power-of-two µs).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let counters: [(&str, &str, u64); 19] = [
            ("ive_queries_total", "Queries answered successfully.", self.queries),
            ("ive_errors_total", "Queries failed server-side.", self.errors),
            ("ive_batches_total", "Batches dispatched.", self.batches),
            ("ive_batches_multi_total", "Batches coalescing >1 query.", self.batches_multi),
            ("ive_update_batches_total", "Update batches committed.", self.update_batches),
            ("ive_updates_applied_total", "Row deltas committed.", self.updates_applied),
            ("ive_slow_queries_total", "Queries over the slow-trace threshold.", self.slow_queries),
            ("ive_kernel_residue_ntts_total", "Residue-polynomial (i)NTTs.", self.residue_ntts),
            (
                "ive_kernel_pointwise_macs_total",
                "Modular multiply-accumulates.",
                self.pointwise_macs,
            ),
            ("ive_kernel_icrt_coeffs_total", "Coefficients through iCRT.", self.icrt_coeffs),
            (
                "ive_kernel_auto_coeffs_total",
                "Coefficients through automorphisms.",
                self.auto_coeffs,
            ),
            ("ive_scan_bytes_total", "Database bytes streamed by RowSel.", self.scan_bytes),
            (
                "ive_busy_rejections_total",
                "Queries shed at admission (queue full).",
                self.busy_rejections,
            ),
            ("ive_session_evictions_total", "Session-cache LRU evictions.", self.session_evictions),
            ("ive_timeouts_total", "Connections closed at their idle deadline.", self.timeouts),
            (
                "ive_retries_total",
                "Duplicate updates answered from the idempotency cache.",
                self.retries,
            ),
            ("ive_reconnects_total", "Hellos re-registering a live connection.", self.reconnects),
            ("ive_worker_panics_total", "Worker panics caught and isolated.", self.worker_panics),
            ("ive_drained_jobs_total", "Queries answered while draining.", self.drained_jobs),
        ];
        for (name, help, value) in counters {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
        }
        let gauges: [(&str, &str, f64); 7] = [
            ("ive_queue_depth", "Queries waiting for a window.", self.queue_depth as f64),
            ("ive_queue_depth_max", "Waiting-queue high-water mark.", self.max_queue_depth as f64),
            ("ive_epoch", "Committed database epoch.", self.epoch as f64),
            ("ive_uptime_seconds", "Seconds since metrics creation.", self.uptime_s),
            ("ive_qps", "Served queries per second of uptime.", self.qps),
            ("ive_scan_gbps", "Effective RowSel scan bandwidth, GB/s.", self.scan_gbps),
            ("ive_kernel_mults_per_s", "Modular MACs per second of uptime.", self.mults_per_s),
        ];
        for (name, help, value) in gauges {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"));
        }
        write_histogram(
            &mut out,
            "ive_latency_us",
            "End-to-end query latency, microseconds.",
            None,
            &self.latency_buckets,
            self.latency_buckets.iter().sum(),
            (self.mean_latency_ms * self.queries as f64 * 1000.0) as u64,
        );
        out.push_str(
            "# HELP ive_stage_duration_us Per-stage pipeline duration, microseconds.\n\
             # TYPE ive_stage_duration_us histogram\n",
        );
        for stage in &self.stages {
            write_histogram_series(
                &mut out,
                "ive_stage_duration_us",
                Some(stage.stage.name()),
                &stage.buckets,
                stage.count,
                stage.sum_us,
            );
        }
        out
    }
}

/// Emits one complete histogram metric (HELP + TYPE + series).
fn write_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    stage: Option<&str>,
    buckets: &[u64],
    count: u64,
    sum: u64,
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    write_histogram_series(out, name, stage, buckets, count, sum);
}

/// Emits one histogram series: cumulative `_bucket` lines up to the last
/// occupied log₂ bucket, then `+Inf`, `_sum`, and `_count`.
fn write_histogram_series(
    out: &mut String,
    name: &str,
    stage: Option<&str>,
    buckets: &[u64],
    count: u64,
    sum: u64,
) {
    let label = |le: &str| match stage {
        Some(s) => format!("{{stage=\"{s}\",le=\"{le}\"}}"),
        None => format!("{{le=\"{le}\"}}"),
    };
    let plain = match stage {
        Some(s) => format!("{{stage=\"{s}\"}}"),
        None => String::new(),
    };
    let last = buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
    let mut cumulative = 0u64;
    for (i, &b) in buckets.iter().take(last).enumerate() {
        cumulative += b;
        let edge = (1u128 << (i + 1)).to_string();
        out.push_str(&format!("{name}_bucket{} {cumulative}\n", label(&edge)));
    }
    out.push_str(&format!("{name}_bucket{} {count}\n", label("+Inf")));
    out.push_str(&format!("{name}_sum{plain} {sum}\n"));
    out.push_str(&format!("{name}_count{plain} {count}\n"));
}

impl core::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} queries ({} errors) in {:.1}s = {:.1} QPS | {} batches (avg {:.2}, max {}, \
             {} multi) | latency ms: mean {:.1} p50 {:.1} p95 {:.1} p99 {:.1} p999 {:.1} \
             max {:.1} | queue depth {} (max {}) | epoch {} ({} updates in {} batches) | \
             scan {:.2} GB/s | {:.2e} MACs/s | {} slow | {} busy | {} evicted | \
             {} timeouts | {} retries | {} reconnects | {} panics | {} drained",
            self.queries,
            self.errors,
            self.uptime_s,
            self.qps,
            self.batches,
            self.avg_batch,
            self.max_batch,
            self.batches_multi,
            self.mean_latency_ms,
            self.p50_latency_ms,
            self.p95_latency_ms,
            self.p99_latency_ms,
            self.p999_latency_ms,
            self.max_latency_ms,
            self.queue_depth,
            self.max_queue_depth,
            self.epoch,
            self.updates_applied,
            self.update_batches,
            self.scan_gbps,
            self.mults_per_s,
            self.slow_queries,
            self.busy_rejections,
            self.session_evictions,
            self.timeouts,
            self.retries,
            self.reconnects,
            self.worker_panics,
            self.drained_jobs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.job_enqueued();
        m.job_enqueued();
        m.job_dequeued();
        m.batch_dispatched(1);
        m.batch_dispatched(3);
        m.query_done(Duration::from_millis(2));
        m.query_done(Duration::from_millis(40));
        m.query_failed();
        m.query_rejected_busy();
        m.query_rejected_busy();
        m.session_eviction_counter().fetch_add(3, Ordering::Relaxed);
        m.update_committed(5, 1);
        m.update_committed(2, 2);
        m.timeout_closed();
        m.retry_detected();
        m.retry_detected();
        m.reconnect_registered();
        m.worker_panicked();
        m.job_drained();
        let s = m.snapshot();
        assert_eq!(s.busy_rejections, 2);
        assert_eq!(s.session_evictions, 3);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.retries, 2);
        assert_eq!(s.reconnects, 1);
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.drained_jobs, 1);
        assert_eq!(s.queries, 2);
        assert_eq!(s.update_batches, 2);
        assert_eq!(s.updates_applied, 7);
        assert_eq!(s.epoch, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.batches, 2);
        assert_eq!(s.max_batch, 3);
        assert_eq!(s.batches_multi, 1);
        assert!((s.avg_batch - 2.0).abs() < 1e-9);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.max_queue_depth, 2);
        assert!(s.mean_latency_ms > 1.0 && s.mean_latency_ms < 41.0);
        assert!(s.p50_latency_ms >= 2.0);
        assert!(s.p99_latency_ms >= s.p50_latency_ms);
        assert!(s.p999_latency_ms >= s.p99_latency_ms);
        assert!(s.max_latency_ms >= s.p999_latency_ms);
        assert!(s.max_latency_ms >= 40.0);
        assert_eq!(s.latency_buckets.iter().sum::<u64>(), 2);
        assert!(s.to_string().contains("2 queries"));
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = Metrics::new().snapshot();
        assert_eq!(s.queries, 0);
        assert_eq!(s.avg_batch, 0.0);
        assert_eq!(s.p99_latency_ms, 0.0);
        assert_eq!(s.p999_latency_ms, 0.0);
        assert_eq!(s.scan_gbps, 0.0);
        assert_eq!(s.slow_queries, 0);
        assert_eq!(s.stages.len(), Stage::COUNT);
    }

    #[test]
    fn quantiles_log_interpolate_within_the_matching_bucket() {
        // Three samples, all landing in bucket 10 ([1024, 2048) µs): the
        // quantile must interpolate geometrically by rank fraction, not
        // snap to the 2048 µs upper edge.
        let m = Metrics::new();
        m.query_done(Duration::from_micros(1200));
        m.query_done(Duration::from_micros(1500));
        m.query_done(Duration::from_micros(2000));
        let s = m.snapshot();
        // p50: target rank 2 of 3 → fraction 2/3 → 1024·2^(2/3) µs.
        let expect_p50 = 1.024 * 2f64.powf(2.0 / 3.0);
        assert!(
            (s.p50_latency_ms - expect_p50).abs() < 1e-9,
            "p50 {} != interpolated {expect_p50}",
            s.p50_latency_ms
        );
        assert!(s.p50_latency_ms < 2.048, "must not report the bucket's upper edge");
        // The tail interpolates to the bucket edge (2.048 ms) but clamps
        // to the true observed maximum (2.0 ms), never past a real sample.
        assert!((s.p999_latency_ms - 2.0).abs() < 1e-9);
        assert!((s.max_latency_ms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_match_exact_ranks_across_buckets() {
        // Ten samples spread over three buckets; every quantile resolves
        // inside the bucket holding its exact rank.
        let m = Metrics::new();
        for _ in 0..5 {
            m.query_done(Duration::from_micros(100)); // bucket 6 [64,128)
        }
        for _ in 0..4 {
            m.query_done(Duration::from_micros(1000)); // bucket 9 [512,1024)
        }
        m.query_done(Duration::from_micros(30_000)); // bucket 14 [16384,32768)
        let s = m.snapshot();
        // p50 → rank 5 of 10 → last of bucket 6 → 64·2^(5/5) = 128 µs.
        assert!((s.p50_latency_ms - 0.128).abs() < 1e-9, "p50 {}", s.p50_latency_ms);
        // p90 would be rank 9 → bucket 9's last → 1.024 ms; p95 → rank 10
        // → bucket 14 at fraction 1 → 32.768 ms, clamped to the 30 ms max.
        assert!((s.p95_latency_ms - 30.0).abs() < 1e-9, "p95 {}", s.p95_latency_ms);
        assert!(s.p50_latency_ms <= s.p95_latency_ms);
    }

    #[test]
    fn snapshot_round_trips_through_the_wire_report() {
        let m = Metrics::new();
        m.query_done(Duration::from_millis(3));
        m.batch_dispatched(1);
        m.trace().record(Stage::RowSel, Duration::from_micros(700));
        m.trace().record_scan(1 << 20, Duration::from_micros(500));
        let report = m.report();
        let direct = ServerStats::from_report(&report);
        // The wire carries the report bit-exactly (tested in ive_pir);
        // here: deriving twice from the same report is identical, and the
        // derived stage/scan numbers are faithful.
        assert_eq!(direct, ServerStats::from_report(&report));
        assert_eq!(direct.stage(Stage::RowSel).count, 1);
        assert_eq!(direct.stage(Stage::RowSel).sum_us, 700);
        assert_eq!(direct.scan_bytes, 1 << 20);
        // 1 MiB in 500 µs ≈ 2.097 GB/s.
        assert!((direct.scan_gbps - (1u64 << 20) as f64 / 500_000.0).abs() < 1e-9);
    }

    #[test]
    fn prometheus_exposition_golden_format() {
        // A hand-built snapshot with every derived field pinned, so the
        // exposition text is fully deterministic.
        let report = StatsReport {
            queries: 4,
            errors: 1,
            batches: 2,
            batch_query_sum: 4,
            batches_multi: 1,
            max_batch: 3,
            queue_depth: 1,
            queue_depth_max: 2,
            update_batches: 1,
            updates_applied: 5,
            epoch: 1,
            uptime_us: 2_000_000,
            latency_sum_us: 8_000,
            latency_max_us: 3_000,
            latency_buckets: {
                let mut b = vec![0u64; 40];
                b[10] = 3; // [1024, 2048) µs
                b[11] = 1; // [2048, 4096) µs
                b
            },
            stages: {
                let mut stages = vec![StageReport::default(); Stage::COUNT];
                stages[Stage::RowSel as usize] =
                    StageReport { count: 2, sum_us: 600, max_us: 400, buckets: vec![0; 32] };
                stages[Stage::RowSel as usize].buckets[8] = 2; // [256, 512) µs
                stages
            },
            residue_ntts: 10,
            pointwise_macs: 2_000_000,
            icrt_coeffs: 20,
            auto_coeffs: 30,
            scan_bytes: 4_000_000_000,
            scan_ns: 2_000_000_000,
            slow_queries: 1,
            busy_rejections: 6,
            session_evictions: 9,
            timeouts: 2,
            retries: 7,
            reconnects: 3,
            worker_panics: 1,
            drained_jobs: 8,
        };
        let text = ServerStats::from_report(&report).to_prometheus();
        for needle in [
            "# TYPE ive_queries_total counter\nive_queries_total 4\n",
            "# TYPE ive_errors_total counter\nive_errors_total 1\n",
            "ive_slow_queries_total 1\n",
            "ive_kernel_pointwise_macs_total 2000000\n",
            "ive_scan_bytes_total 4000000000\n",
            "# TYPE ive_busy_rejections_total counter\nive_busy_rejections_total 6\n",
            "# TYPE ive_session_evictions_total counter\nive_session_evictions_total 9\n",
            "# TYPE ive_timeouts_total counter\nive_timeouts_total 2\n",
            "# TYPE ive_retries_total counter\nive_retries_total 7\n",
            "# TYPE ive_reconnects_total counter\nive_reconnects_total 3\n",
            "# TYPE ive_worker_panics_total counter\nive_worker_panics_total 1\n",
            "# TYPE ive_drained_jobs_total counter\nive_drained_jobs_total 8\n",
            "# TYPE ive_queue_depth gauge\nive_queue_depth 1\n",
            "ive_uptime_seconds 2\n",
            "ive_qps 2\n",
            "ive_scan_gbps 2\n",
            "ive_kernel_mults_per_s 1000000\n",
            "# TYPE ive_latency_us histogram\n",
            "ive_latency_us_bucket{le=\"2048\"} 3\n",
            "ive_latency_us_bucket{le=\"4096\"} 4\n",
            "ive_latency_us_bucket{le=\"+Inf\"} 4\n",
            "ive_latency_us_sum 8000\n",
            "ive_latency_us_count 4\n",
            "# TYPE ive_stage_duration_us histogram\n",
            "ive_stage_duration_us_bucket{stage=\"row_sel\",le=\"512\"} 2\n",
            "ive_stage_duration_us_bucket{stage=\"row_sel\",le=\"+Inf\"} 2\n",
            "ive_stage_duration_us_sum{stage=\"row_sel\"} 600\n",
            "ive_stage_duration_us_count{stage=\"row_sel\"} 2\n",
            "ive_stage_duration_us_bucket{stage=\"decode\",le=\"+Inf\"} 0\n",
        ] {
            assert!(text.contains(needle), "exposition missing:\n{needle}\nfull text:\n{text}");
        }
        // Cumulative buckets stop at the last occupied edge: no stray
        // empty-edge lines between the data and +Inf.
        assert!(!text.contains("le=\"8192\""));
        // Every line is a comment or `name[{labels}] value` — the format
        // a Prometheus scraper parses.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.splitn(2, ' ').count() == 2,
                "unparseable line: {line}"
            );
        }
    }
}
