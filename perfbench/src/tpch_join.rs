//! `local_join`: one closed-loop client running the TPC-H four-way join
//! nation ⋈ supplier ⋈ partsupp ⋈ part at SF 0.05 (40,000 result rows)
//! over instant links, with the default 8 MiB join budget and an
//! intra-query thread budget and `max_parallelism` of 2.
//!
//! A traced run ends with a spill pass: the same query single-threaded
//! under a 64 KiB join budget, spilling through the storage codec into a
//! [`FrameStore`]. It supplies the spill counts; its latency is not an
//! end-to-end metric (see `NOTES.md`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use tukwila_common::TukwilaError;
use tukwila_core::{ExecutionStats, QueryResult, TpchDeployment, TukwilaSystem};
use tukwila_exec::{ExecEnv, QueryControl};
use tukwila_opt::OptimizerConfig;
use tukwila_query::{ConjunctiveQuery, Reformulator};
use tukwila_tpchgen::TpchTable;
use tukwila_trace::TraceLevel;

use crate::check::Fingerprint;
use crate::frame_store::FrameStore;
use crate::layers::{self, LayerInput, Planning};
use crate::report::{median, ms, overhead_frac, Metrics, Outcome, Sample};
use crate::spans::SpanLog;
use crate::{closed_loop, repeated_setup, report_failure, RunConfig, Workload, BATCH_SIZE};

/// TPC-H scale factor.
pub const SCALE: f64 = 0.05;
/// Join memory budget of the spill pass.
pub const SPILL_BUDGET: usize = 64 << 10;
/// Join memory budget of `local_join` (the optimizer's default).
pub const LOCAL_BUDGET: usize = 8 << 20;
/// Thread budget and `max_parallelism` of `local_join`.
pub const LOCAL_THREADS: usize = 2;
/// Latency limit of `slo_frac` on `local_join`.
pub const LOCAL_SLO: Duration = Duration::from_millis(250);
/// Untimed queries before measuring.
const WARMUP_QUERIES: usize = 3;
/// Fewest measured queries per pass.
const MIN_QUERIES: usize = 5;
/// Queries of the spill pass.
const SPILL_QUERIES: usize = 5;

const TABLES: [TpchTable; 4] = [
    TpchTable::Nation,
    TpchTable::Supplier,
    TpchTable::Partsupp,
    TpchTable::Part,
];

/// A deployed system with its query and reference answer.
pub struct Setup {
    /// Data, sources and catalog.
    pub deployment: TpchDeployment,
    /// The engine, configured for `local_join`.
    pub system: TukwilaSystem,
    /// The four-way join.
    pub query: ConjunctiveQuery,
    /// Fingerprint of the reference answer.
    pub gold: Fingerprint,
    /// Optimizer settings the system runs with.
    pub config: OptimizerConfig,
}

/// The optimizer settings and the engine for `deployment`: `local_join`'s,
/// or the spill pass's (64 KiB join budget, one thread, a [`FrameStore`]).
fn configure(deployment: &TpchDeployment, spill: bool) -> (OptimizerConfig, TukwilaSystem) {
    let (threads, budget) = if spill {
        (1, SPILL_BUDGET)
    } else {
        (LOCAL_THREADS, LOCAL_BUDGET)
    };
    let config = OptimizerConfig {
        join_memory_budget: budget,
        max_parallelism: threads,
        ..OptimizerConfig::default()
    };
    let mut env = ExecEnv::new(deployment.registry.clone())
        .with_batch_size(BATCH_SIZE)
        .with_threads(threads)
        .with_trace_level(TraceLevel::Off);
    if spill {
        env = env.with_spill(Arc::new(FrameStore::new()));
    }
    let system = deployment.system_with_env(config.clone(), env);
    (config, system)
}

/// Generate the data, deploy it and compute the reference answer.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let deployment = TpchDeployment::builder(SCALE, seed).tables(&TABLES).build();
    let (config, system) = configure(&deployment, false);
    let query = deployment.query_for("nation_supplier_partsupp_part", &TABLES);
    let gold = deployment
        .gold(&query)
        .map_err(|e| format!("reference answer: {e}"))?;
    Ok(Setup {
        gold: Fingerprint::of_relation(&gold),
        deployment,
        system,
        query,
        config,
    })
}

/// Time to the first result tuple: the client's latency minus the output
/// fragment's time after its first tuple.
pub fn ttf_of(stats: &ExecutionStats, latency: Duration) -> Duration {
    match stats.fragment_reports.last() {
        Some(r) => {
            let after_first = r
                .time_to_first
                .map(|t| r.duration.saturating_sub(t))
                .unwrap_or_default();
            latency.saturating_sub(after_first)
        }
        None => latency,
    }
}

/// Check one finished query against `gold` (outside its timed interval).
pub fn judge(
    workload: Workload,
    id: u64,
    result: Result<&QueryResult, &TukwilaError>,
    latency: Duration,
    ttf: Duration,
    gold: &Fingerprint,
) -> Sample {
    let (ok, rows) = match result {
        Ok(r) => {
            let fp = Fingerprint::of_relation(&r.relation);
            if fp != *gold {
                report_failure(
                    workload,
                    id,
                    &format!("wrong answer: {} rows, expected {}", fp.rows, gold.rows),
                );
            }
            (fp == *gold, fp.rows)
        }
        Err(e) => {
            report_failure(workload, id, &e.to_string());
            (false, 0)
        }
    };
    Sample::new(latency, ttf, rows, ok)
}

/// One query of `s` on `system`, checked against the reference answer,
/// and the bytes it spilled.
fn untraced_query(s: &Setup, system: &TukwilaSystem, id: u64) -> (Sample, usize) {
    let t = Instant::now();
    let result = system.execute(&s.query);
    let latency = t.elapsed();
    let (ttf, spilled) = result
        .as_ref()
        .map(|r| (ttf_of(&r.stats, latency), r.stats.spill_bytes_written))
        .unwrap_or((latency, 0));
    let sample = judge(
        Workload::LocalJoin,
        id,
        result.as_ref(),
        latency,
        ttf,
        &s.gold,
    );
    (sample, spilled)
}

/// What one traced query reports about its layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// `ExecutionStats::fragments_run`.
    pub fragments_run: usize,
    /// `ExecutionStats::replans`.
    pub replans: usize,
    /// Peak of the query's memory pool, bytes.
    pub peak_memory: usize,
}

/// `TukwilaSystem::execute` split into its public stages — `prepare`
/// (reformulate + optimize) and `run_prepared` (the fragment loop) — each
/// timed as a span under a `core.query` span. The answer is checked
/// against `gold` after the query span ends.
pub fn staged_query(
    system: &TukwilaSystem,
    query: &ConjunctiveQuery,
    gold: &Fingerprint,
    workload: Workload,
    id: u64,
    log: &mut SpanLog,
    counts: &mut Vec<LayerCounts>,
) -> Sample {
    let q = log.open("core.query", None, id);
    let env = system.env().for_query();
    let control = QueryControl::unbounded_traced(TraceLevel::Off);
    let mut stats = ExecutionStats::default();
    let mut series = Vec::new();
    let relation = log
        .time("core.prepare", Some(q), id, || system.prepare(query))
        .and_then(|mut prepared| {
            log.time("core.run", Some(q), id, || {
                system.run_prepared(&mut prepared, &control, &env, &mut stats, &mut series)
            })
        });
    let peak_memory = env.memory.peak_used();
    drop(env);
    log.close(q);
    let latency = log.duration(q);

    counts.push(LayerCounts {
        fragments_run: stats.fragments_run,
        replans: stats.replans,
        peak_memory,
    });
    let ttf = ttf_of(&stats, latency);
    let result = relation.map(|relation| QueryResult {
        relation,
        stats,
        series,
        trace: None,
    });
    let c = log.open("check", None, id);
    let sample = judge(workload, id, result.as_ref(), latency, ttf, gold);
    log.close(c);
    sample
}

fn median_of(values: impl Iterator<Item = usize>) -> f64 {
    let mut v: Vec<f64> = values.map(|x| x as f64).collect();
    median(&mut v)
}

/// The `core` metrics from staged-query spans, plus the per-query counts
/// of the queries in `counts`.
pub fn core_metrics(log: &SpanLog, counts: &[LayerCounts]) -> Metrics {
    let mut m = Metrics::default();
    m.put(
        "core.prepare_us",
        log.summary_of("core.prepare").median().as_secs_f64() * 1e6,
        "us",
    );
    m.put("core.run_ms", ms(log.summary_of("core.run").median()), "ms");
    // Share of the query's wall time that neither public stage covers.
    m.put(
        "core.unattributed_frac",
        log.summary_of("core.query").self_frac(),
        "frac",
    );
    m.put(
        "core.fragments_run",
        median_of(counts.iter().map(|c| c.fragments_run)),
        "count",
    );
    m.put(
        "core.replans",
        median_of(counts.iter().map(|c| c.replans)),
        "count",
    );
    m.put(
        "storage.peak_engine_mb",
        median_of(counts.iter().map(|c| c.peak_memory)) / (1 << 20) as f64,
        "MB",
    );
    m
}

/// Run `local_join`.
pub fn run(cfg: &RunConfig, traced: bool) -> Result<Outcome, String> {
    let workload = Workload::LocalJoin;
    let query = |s: &Setup, i| untraced_query(s, &s.system, i).0;

    if !traced {
        let (s, mut setup_s) = repeated_setup(|| setup(cfg.seed))?;
        closed_loop(Duration::ZERO, WARMUP_QUERIES, |i| query(&s, i));
        let samples = closed_loop(cfg.budget(), MIN_QUERIES, |i| query(&s, i));
        return Ok(crate::untraced_outcome(
            &mut setup_s,
            &samples,
            LOCAL_SLO,
            false,
        ));
    }

    let s = setup(cfg.seed)?;
    closed_loop(Duration::ZERO, WARMUP_QUERIES, |i| query(&s, i));
    let half = cfg.budget() / 2;
    let plain = closed_loop(half, MIN_QUERIES, |i| query(&s, i));
    let mut log = SpanLog::new(Instant::now());
    let mut counts = Vec::new();
    let traced_samples = closed_loop(half, MIN_QUERIES, |i| {
        staged_query(
            &s.system,
            &s.query,
            &s.gold,
            workload,
            i,
            &mut log,
            &mut counts,
        )
    });

    // The spill pass, numbered after the traced pass's queries.
    let (_, spill_system) = configure(&s.deployment, true);
    let first = traced_samples.len() as u64;
    let mut spilled = Vec::new();
    let spill_samples = closed_loop(Duration::ZERO, SPILL_QUERIES, |i| {
        let (sample, bytes) = untraced_query(&s, &spill_system, first + i);
        spilled.push(bytes);
        sample
    });

    let input_bytes: usize = TABLES
        .iter()
        .map(|&t| s.deployment.db.table(t).mem_size())
        .sum();
    let mut m = core_metrics(&log, &counts);
    let spill_bytes = median_of(spilled.into_iter());
    m.put("storage.spill_bytes_per_query", spill_bytes, "count");
    m.put(
        "storage.spill_amp",
        spill_bytes / input_bytes as f64,
        "count",
    );
    m.put(
        "trace.overhead_frac",
        overhead_frac(&traced_samples, &plain),
        "frac",
    );

    let plan = s
        .system
        .prepare(&s.query)
        .map_err(|e| format!("plan: {e}"))?
        .planned()
        .lowered
        .plan
        .clone();
    let db = &s.deployment.db;
    let input = LayerInput {
        build: db.table(TpchTable::Partsupp),
        build_key: 0,
        probe: db.table(TpchTable::Part),
        probe_key: 0,
        row_frames: true,
        wire: Vec::new(),
        plans: vec![plan],
        shipped: None,
        planning: Some(Planning {
            reformulator: Reformulator::new(s.deployment.mediated.clone()),
            catalog: &s.deployment.catalog,
            config: s.config.clone(),
            queries: vec![s.query.clone()],
        }),
        threads: LOCAL_THREADS,
    };
    m.extend(layers::measure(&input, &mut log)?);
    crate::write_spans(cfg, &log);

    Ok(Outcome::new(
        plain.iter().chain(&traced_samples).chain(&spill_samples),
        m,
    ))
}
