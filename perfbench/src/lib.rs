//! The Tukwila benchmark: three workloads that drive the workspace's crates
//! through their public APIs, check every answer against a reference
//! computed at set-up, and report end-to-end metrics (untraced runs) or
//! per-layer metrics (traced runs).
//!
//! See `NOTES.md` in this directory for why each workload exists and which
//! layer metric should move which end-to-end metric.

mod check;
mod dist_join;
mod frame_store;
mod layers;
mod report;
mod service_mix;
mod spans;
mod tpch_join;

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use dist_join::serve_worker;
pub use report::{nproc, Metrics, Outcome};

use report::Sample;

/// Tuples per batch on every path the benchmark configures.
pub const BATCH_SIZE: usize = 1024;

/// Environment variables the engine would read defaults from. The
/// benchmark sets every one of these through the API instead and removes
/// them from its own and its workers' environment.
pub const ENGINE_ENV: [&str; 3] = ["TUKWILA_THREADS", "TUKWILA_BATCH", "TUKWILA_TRACE"];

/// Fewest set-ups per untraced run; `setup_s` is their median...
pub const SETUP_REPS: usize = 7;
/// ...then set-ups repeat until this much time has gone into them...
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// ...but never more than this many times.
pub const MAX_SETUP_REPS: usize = 501;

/// End-to-end metrics (untraced runs), with units, as `BENCHMARK.json`
/// declares them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("ttf_p50_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("qps", "1/s"),
    ("slo_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with units, as `BENCHMARK.json`
/// declares them. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("core.prepare_us", "us"),
    ("core.run_ms", "ms"),
    ("core.unattributed_frac", "frac"),
    ("core.dispatch_us", "us"),
    ("core.fragments_run", "count"),
    ("core.replans", "count"),
    ("query.reformulate_us", "us"),
    ("opt.plan_us", "us"),
    ("analyze.plan_us", "us"),
    ("plan.text_roundtrip_us", "us"),
    ("source.deliver_ns_per_row", "ns/row"),
    ("common.key_hash_ns_per_row", "ns/row"),
    ("common.gather_ns_per_row", "ns/row"),
    ("common.hstack_ns_per_row", "ns/row"),
    ("exec.ht_build_ns_per_row", "ns/row"),
    ("exec.ht_probe_ns_per_row", "ns/row"),
    ("exec.ht_freeze_ms", "ms"),
    ("exec.ht_flush_mb_per_s", "MB/s"),
    ("storage.encode_mb_per_s", "MB/s"),
    ("storage.decode_mb_per_s", "MB/s"),
    ("storage.spill_bytes_per_query", "count"),
    ("storage.spill_amp", "count"),
    ("storage.peak_engine_mb", "MB"),
    ("service.submit_us", "us"),
    ("service.queue_wait_p90_ms", "ms"),
    ("service.rejected", "count"),
    ("service.queue_hw", "count"),
    ("net.send_mb_per_s", "MB/s"),
    ("net.recv_mb_per_s", "MB/s"),
    ("net.bytes_per_row", "count"),
    ("net.dial_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("bench.gen_lag_ms", "ms"),
    ("bench.nproc", "count"),
    ("bench.steal_frac", "frac"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client, TPC-H SF 0.05 four-way join, two threads;
    /// traced runs add a spill pass under a 64 KiB join budget.
    LocalJoin,
    /// Open loop at a fixed arrival rate into the query service.
    ServiceMix,
    /// Closed loop over a coordinator and two worker processes.
    DistJoin,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::LocalJoin,
        Workload::ServiceMix,
        Workload::DistJoin,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalJoin => "local_join",
            Workload::ServiceMix => "service_mix",
            Workload::DistJoin => "dist_join",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation of the benchmark.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated data (and of the arrival schedule's phase).
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    /// Where traced runs write their spans (inside the working tree).
    pub scratch: PathBuf,
    /// The executable to start as a `dist_join` worker (`perfbench worker`).
    pub worker_exe: PathBuf,
}

impl RunConfig {
    /// The measured time as a duration.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.01))
    }
}

/// Run `cfg` untraced (end-to-end metrics) or traced (per-layer metrics).
pub fn run(cfg: &RunConfig, traced: bool) -> Result<Outcome, String> {
    let cpu_before = report::cpu_steal_jiffies();
    let mut outcome = match cfg.workload {
        Workload::LocalJoin => tpch_join::run(cfg, traced),
        Workload::ServiceMix => service_mix::run(cfg, traced),
        Workload::DistJoin => dist_join::run(cfg, traced),
    }?;
    let steal = report::steal_frac(cpu_before, report::cpu_steal_jiffies());
    eprintln!(
        "perfbench: {:.1}% of CPU time was stolen by the hypervisor during the run",
        steal * 100.0
    );
    if traced {
        outcome
            .metrics
            .put("bench.nproc", report::nproc() as f64, "count");
        outcome.metrics.put("bench.steal_frac", steal, "frac");
    }
    outcome.metrics = outcome
        .metrics
        .conform(if traced { &PER_LAYER } else { &END_TO_END })?;
    Ok(outcome)
}

/// Time `setup` at least [`SETUP_REPS`] times, then until [`SETUP_BUDGET`]
/// of set-up time or [`MAX_SETUP_REPS`] set-ups, keeping the last result.
/// A set-up of a few milliseconds is thus timed often enough for its
/// median to settle.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut spent = Duration::ZERO;
    let mut last = None;
    while times.len() < SETUP_REPS || (spent < SETUP_BUDGET && times.len() < MAX_SETUP_REPS) {
        // Tear the previous set-up down first so its teardown is not timed.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        let took = t.elapsed();
        spent += took;
        times.push(took.as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

/// Queries of a closed loop: at least `min_queries`, then until `budget`
/// of wall time has passed. `query` gets the query's ordinal.
pub fn closed_loop(
    budget: Duration,
    min_queries: usize,
    mut query: impl FnMut(u64) -> Sample,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_queries || start.elapsed() < budget {
        let at = start.elapsed();
        let mut sample = query(samples.len() as u64);
        sample.start = at;
        samples.push(sample);
    }
    samples
}

/// The outcome of an untraced pass: the verdict on `samples` and their
/// end-to-end metrics.
pub fn untraced_outcome(
    setup_s: &mut [f64],
    samples: &[Sample],
    slo: Duration,
    open_loop: bool,
) -> Outcome {
    Outcome::new(
        samples,
        report::end_to_end(setup_s, samples, slo, open_loop),
    )
}

/// Print why query `id` of `workload` failed, on standard error.
pub fn report_failure(workload: Workload, id: u64, what: &str) {
    eprintln!("perfbench: {} query {id} FAILED: {what}", workload.name());
}

/// Write a traced run's spans to `<scratch>/spans-<workload>-<seed>.tsv`.
pub fn write_spans(cfg: &RunConfig, log: &spans::SpanLog) {
    let path = cfg
        .scratch
        .join(format!("spans-{}-{}.tsv", cfg.workload.name(), cfg.seed));
    match std::fs::write(&path, log.to_tsv()) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    eprintln!("perfbench: span summary (name, count, total ms, self ms)");
    for (name, s) in log.summary() {
        eprintln!(
            "  {name:<28} {:>7} {:>12.3} {:>12.3}",
            s.count,
            report::ms(s.total),
            report::ms(s.self_time)
        );
    }
}
