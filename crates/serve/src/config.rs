//! Serving configuration: waiting window, batch and queue bounds, worker
//! pool size, the database sharding plan, response compression, and the
//! durable update journal.

use std::path::PathBuf;
use std::time::Duration;

use ive_accel::queue::ServiceTable;
use ive_pir::{BackendKind, TournamentOrder};

use crate::ServeError;

/// How the preprocessed database is spread across the worker plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlan {
    /// One logical copy shared by every worker (an `Arc`, not a byte
    /// copy): workers take whole batches in parallel.
    Replicated,
    /// The row dimension is split into `shards` aligned blocks; each
    /// shard answers the low tournament levels of every query in a batch
    /// and the high bits recombine the shard winners (Fig. 7c across
    /// workers instead of cache levels).
    RowSharded {
        /// Number of row shards (a power of two, at most `2^d`).
        shards: usize,
    },
}

/// Configuration for [`crate::PirService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Waiting window: how long the batcher holds the first in-flight
    /// query open for companions (§V; `0` disables batching delay).
    pub window: Duration,
    /// Largest batch one dispatch may carry.
    pub max_batch: usize,
    /// Worker threads consuming dispatched batches.
    pub workers: usize,
    /// Bound of the in-flight job queue; submissions block (backpressure)
    /// once this many queries are waiting for a window.
    pub queue_depth: usize,
    /// Database sharding plan.
    pub shard: ShardPlan,
    /// Compute threads *inside* each `PirServer`, per batch: every
    /// query's `ExpandQuery` splits into up to this many subtrees and the
    /// `RowSel` scan into up to this many workers (both stay sequential
    /// when the work is too small to pay for a thread). The default is
    /// `cores / workers`, so `workers × rowsel_threads` covers the machine
    /// once; the pools multiply, so lower it when `workers × shards`
    /// already does.
    pub rowsel_threads: usize,
    /// `ColTor` traversal order used by every shard.
    pub order: TournamentOrder,
    /// Which VPE kernel backend every pipeline step dispatches through.
    /// Backends are bit-identical in output: `Auto` (the default) picks
    /// the fastest the host supports — the AVX-512/IFMA `Avx512`
    /// backend where runtime detection finds `avx512f`, the AVX2 `Simd`
    /// backend below that, the Barrett/Shoup `Optimized` path everywhere
    /// else; `Avx512` and `Simd` request their ISA tier explicitly (with
    /// the same safe fallback chain), and `Scalar` is the reference
    /// oracle. Parse config strings with
    /// [`ServeConfig::with_backend_name`].
    pub backend: BackendKind,
    /// Upper bound on cached sessions: each registration pins hundreds
    /// of KB of key material server-side, so an uncapped cache is a
    /// remote memory-exhaustion vector. A registration at the cap
    /// evicts the least-recently-used session (index and keyword services
    /// alike); the evicted client re-Hellos on its next query.
    pub max_sessions: usize,
    /// Whether [`wire::Tag::UpdateRow`] frames are admitted. Updates
    /// carry no authentication, so **any** peer that can reach the
    /// transport could mutate the database; the default is therefore
    /// `false` (read-only — update frames are answered with an error
    /// frame). Opt in only on transports whose reachability *is* the
    /// admission control (an internal ingest port, an in-proc pair, a
    /// mutually-authenticated tunnel); each accepted batch then commits
    /// as one epoch.
    ///
    /// [`wire::Tag::UpdateRow`]: ive_pir::wire::Tag::UpdateRow
    pub accept_updates: bool,
    /// Ship responses modulus-switched to the minimum retained prime
    /// count (Table VIII's response compression): the worker runs
    /// `switch_to_first_prime` and the response travels as a
    /// [`wire::Tag::CompressedResponse`] frame carrying only the
    /// surviving residues. Decode cost is unchanged client-side; the
    /// downlink shrinks by `k / primes`. Off by default because
    /// compressed responses spend part of the noise budget — enable it
    /// where measured noise margins allow (they do for both the toy and
    /// paper parameter sets).
    ///
    /// [`wire::Tag::CompressedResponse`]: ive_pir::wire::Tag::CompressedResponse
    pub compress_responses: bool,
    /// Durable staging journal: when set, every accepted update batch is
    /// appended (fsync'd) to this file *before* it commits, and the file
    /// is truncated at each commit checkpoint. On startup the service
    /// replays any batches a crash left behind, so
    /// staged-but-uncommitted updates survive process death. `None`
    /// (default) keeps updates memory-only.
    pub journal: Option<PathBuf>,
    /// Queries whose end-to-end latency meets this threshold leave a
    /// [`TraceRecord`](crate::trace::TraceRecord) (per-stage durations,
    /// session, batch size, epoch) in the slow-query ring.
    pub slow_threshold: Duration,
    /// Capacity of the slow-query trace ring; `0` disables retention
    /// (the slow counter still counts).
    pub trace_ring: usize,
    /// Per-connection idle deadline: a connection that delivers no frame
    /// for this long is closed (counted in `ServerStats.timeouts`), so a
    /// silent or wedged peer can pin a handler thread only this long.
    /// `None` disables the deadline; the default is 60 s — generous for
    /// interactive clients, tight enough that handler threads of dead
    /// peers drain within a minute.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        let workers = (cores / 2).max(1);
        ServeConfig {
            window: Duration::from_millis(4),
            max_batch: 8,
            workers,
            queue_depth: 64,
            shard: ShardPlan::Replicated,
            rowsel_threads: (cores / workers).max(1),
            order: TournamentOrder::Hs { subtree_depth: 2 },
            backend: BackendKind::default(),
            max_sessions: 4096,
            accept_updates: false,
            compress_responses: false,
            journal: None,
            slow_threshold: Duration::from_millis(250),
            trace_ring: 64,
            idle_timeout: Some(Duration::from_secs(60)),
        }
    }
}

impl ServeConfig {
    /// Selects the kernel backend by its config/CLI name (`"scalar"`,
    /// `"optimized"`, `"simd"`, `"avx512"`, `"auto"`), as parsed by
    /// [`BackendKind`]'s `FromStr`.
    ///
    /// # Errors
    /// Unknown names are rejected with a [`ServeError::InvalidConfig`]
    /// that names every valid variant — a typo'd backend must fail
    /// loudly, never silently fall back to the default.
    pub fn with_backend_name(mut self, name: &str) -> Result<Self, ServeError> {
        self.backend =
            name.parse::<BackendKind>().map_err(|e| ServeError::InvalidConfig(e.to_string()))?;
        Ok(self)
    }

    /// Derives the admission queue bound from a measured [`ServiceTable`]:
    /// the queue admits at most `max_wait` worth of work at the engine's
    /// saturation throughput, so the *worst-case queueing delay* of an
    /// admitted query is bounded by `max_wait` — anything beyond that is
    /// shed as [`ServeError::Busy`] instead of converting overload into
    /// unbounded latency (Little's law: depth = λ_max × W_max). The
    /// derived depth is clamped to `[workers, 65_536]` so a slow table
    /// can never starve the worker pool of in-flight work.
    pub fn with_admission_ceiling(mut self, service: &ServiceTable, max_wait: Duration) -> Self {
        let depth = (service.max_throughput_qps() * max_wait.as_secs_f64()).ceil() as usize;
        self.queue_depth = depth.clamp(self.workers.max(1), 65_536);
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    /// Fails on zero-sized pools/bounds or a non-power-of-two shard count.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be >= 1".into()));
        }
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::InvalidConfig("queue_depth must be >= 1".into()));
        }
        if self.rowsel_threads == 0 {
            return Err(ServeError::InvalidConfig("rowsel_threads must be >= 1".into()));
        }
        if self.max_sessions == 0 {
            return Err(ServeError::InvalidConfig("max_sessions must be >= 1".into()));
        }
        if let ShardPlan::RowSharded { shards } = self.shard {
            if shards == 0 || !shards.is_power_of_two() {
                return Err(ServeError::InvalidConfig(format!(
                    "row shard count {shards} must be a power of two >= 1"
                )));
            }
        }
        if let Some(path) = &self.journal {
            if path.as_os_str().is_empty() {
                return Err(ServeError::InvalidConfig("journal path must be non-empty".into()));
            }
        }
        if self.idle_timeout == Some(Duration::ZERO) {
            return Err(ServeError::InvalidConfig(
                "idle_timeout must be positive (use None to disable)".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ServeConfig::default().validate().expect("default must validate");
    }

    #[test]
    fn backend_names_parse_and_unknown_names_fail_loudly() {
        for (name, kind) in [
            ("scalar", BackendKind::Scalar),
            ("optimized", BackendKind::Optimized),
            ("simd", BackendKind::Simd),
            ("avx512", BackendKind::Avx512),
            ("auto", BackendKind::Auto),
        ] {
            let cfg = ServeConfig::default().with_backend_name(name).expect("valid name");
            assert_eq!(cfg.backend, kind, "{name}");
        }
        let err = ServeConfig::default().with_backend_name("fastest").expect_err("must reject");
        let msg = err.to_string();
        for name in
            ["\"fastest\"", "\"scalar\"", "\"optimized\"", "\"simd\"", "\"avx512\"", "\"auto\""]
        {
            assert!(msg.contains(name), "error must name {name}: {msg}");
        }
    }

    #[test]
    fn admission_ceiling_tracks_service_throughput() {
        // A table that serves 1000 qps at saturation with a 100 ms wait
        // ceiling admits 100 queued queries — Little's law, exactly.
        let service = ServiceTable::from_fn(4, |b| b as f64 / 1000.0);
        let cfg = ServeConfig { workers: 2, ..ServeConfig::default() }
            .with_admission_ceiling(&service, Duration::from_millis(100));
        assert_eq!(cfg.queue_depth, 100);
        // A glacial engine still leaves the worker pool fed.
        let slow = ServiceTable::from_fn(1, |_| 1000.0);
        let cfg = ServeConfig { workers: 3, ..ServeConfig::default() }
            .with_admission_ceiling(&slow, Duration::from_millis(100));
        assert_eq!(cfg.queue_depth, 3, "clamped to the worker count");
        cfg.validate().expect("derived config must validate");
    }

    #[test]
    fn default_threads_cover_the_cores_once() {
        let cores = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        let cfg = ServeConfig::default();
        assert_eq!(cfg.rowsel_threads, (cores / cfg.workers).max(1));
        let used = cfg.workers * cfg.rowsel_threads;
        assert!(used <= cores.max(1) && used + cfg.workers > cores, "{used} threads on {cores}");
    }

    #[test]
    fn bad_configs_rejected() {
        for bad in [
            ServeConfig { max_batch: 0, ..ServeConfig::default() },
            ServeConfig { workers: 0, ..ServeConfig::default() },
            ServeConfig { queue_depth: 0, ..ServeConfig::default() },
            ServeConfig { rowsel_threads: 0, ..ServeConfig::default() },
            ServeConfig { max_sessions: 0, ..ServeConfig::default() },
            ServeConfig { shard: ShardPlan::RowSharded { shards: 3 }, ..ServeConfig::default() },
            ServeConfig { shard: ShardPlan::RowSharded { shards: 0 }, ..ServeConfig::default() },
            ServeConfig { journal: Some(PathBuf::new()), ..ServeConfig::default() },
            ServeConfig { idle_timeout: Some(Duration::ZERO), ..ServeConfig::default() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }
}
