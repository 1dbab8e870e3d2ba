//! `dist_join`: one closed-loop client on a coordinator that scatters
//! `L ⋈ R` (120,000 rows a side, distinct keys) over an exchange of two
//! shards to two worker processes on loopback TCP, dialing the cluster
//! per query.
//!
//! The workers are this benchmark's own executable started as
//! `perfbench worker`; each rebuilds the same deterministic sources from
//! its arguments. The input does not depend on the seed: the keys are
//! `0..120000` on both sides by construction.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tukwila_bench::dist;
use tukwila_common::{Result as TResult, TupleBatch};
use tukwila_exec::{build_operator, ExecEnv, PlanRuntime};
use tukwila_net::{Cluster, WorkerServer};
use tukwila_plan::{OperatorSpec, QueryPlan};
use tukwila_source::SourceRegistry;
use tukwila_trace::TraceLevel;

use crate::check::Fingerprint;
use crate::layers::{self, LayerInput};
use crate::report::{ms, overhead_frac, Metrics, Outcome, Sample};
use crate::spans::SpanLog;
use crate::{closed_loop, repeated_setup, report_failure, RunConfig, Workload, BATCH_SIZE};

/// Rows on each side of the join (and distinct keys).
pub const ROWS: i64 = 120_000;
/// Worker processes (= shards of the exchange).
pub const WORKERS: usize = 2;
/// Latency limit of `slo_frac`.
pub const SLO: Duration = Duration::from_millis(1000);
/// Untimed queries before measuring.
const WARMUP_QUERIES: usize = 3;
/// Fewest measured queries per pass.
const MIN_QUERIES: usize = 5;

/// A worker process; killed and reaped on drop.
pub struct WorkerProc {
    child: Child,
    /// Held open for the worker's life: the worker exits when it closes,
    /// so a worker never outlives a benchmark that died without cleanup.
    _stdin: ChildStdin,
    addr: String,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start `exe worker --rows ROWS --dup ROWS` and read its port.
fn spawn_worker(exe: &Path) -> Result<WorkerProc, String> {
    let mut cmd = Command::new(exe);
    cmd.args([
        "worker",
        "--rows",
        &ROWS.to_string(),
        "--dup",
        &ROWS.to_string(),
    ])
    .stdin(Stdio::piped())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    for var in crate::ENGINE_ENV {
        cmd.env_remove(var);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("start worker {}: {e}", exe.display()))?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    let read = BufReader::new(stdout).read_line(&mut line);
    let port = line
        .trim()
        .strip_prefix("PORT ")
        .and_then(|p| p.parse::<u16>().ok());
    match (read, port) {
        (Ok(_), Some(port)) => Ok(WorkerProc {
            child,
            _stdin: stdin,
            addr: format!("127.0.0.1:{port}"),
        }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("worker printed {line:?}, expected `PORT <n>`"))
        }
    }
}

/// The worker side: serve `dist` shards on an OS-assigned loopback port
/// until standard input closes.
pub fn serve_worker(rows: i64, dup: i64) -> Result<(), String> {
    let reg = dist::dist_registry(rows, dup, Duration::ZERO);
    let server = WorkerServer::bind("127.0.0.1:0", reg).map_err(|e| format!("bind: {e}"))?;
    let port = server.local_addr().map_err(|e| e.to_string())?.port();
    println!("PORT {port}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(0);
    });
    let stop = AtomicBool::new(false);
    server.run(&stop);
    Ok(())
}

/// Running workers, the plan and its reference answer.
pub struct Setup {
    _workers: Vec<WorkerProc>,
    addrs: Vec<String>,
    plan: QueryPlan,
    gold: Fingerprint,
}

/// Start the workers and compute the reference answer with
/// `dist::run_local`.
pub fn setup(worker_exe: &Path) -> Result<Setup, String> {
    let workers = (0..WORKERS)
        .map(|_| spawn_worker(worker_exe))
        .collect::<Result<Vec<_>, _>>()?;
    let addrs = workers.iter().map(|w| w.addr.clone()).collect();
    let plan = dist::dist_plan(WORKERS, None);
    let reference = dist::run_local(ROWS, ROWS, &plan, BATCH_SIZE)
        .map_err(|e| format!("reference answer: {e}"))?;
    let arity = reference.first().map(|t| t.arity()).unwrap_or(0);
    let order: Vec<usize> = (0..arity).collect();
    Ok(Setup {
        gold: Fingerprint::of_rows(&reference, &order),
        _workers: workers,
        addrs,
        plan,
    })
}

/// The coordinator's environment over a dialed cluster.
fn coordinator_env(cluster: Cluster) -> ExecEnv {
    ExecEnv::new(SourceRegistry::new())
        .with_batch_size(BATCH_SIZE)
        .with_threads(1)
        .with_trace_level(TraceLevel::Off)
        .with_shard_executor(Arc::new(cluster))
}

/// Batches of one query, with its time to first batch and peak memory.
struct Drained {
    batches: Vec<TupleBatch>,
    ttf: Duration,
    peak_memory: usize,
}

/// Build the plan's root over `env` and drain it, timing the first batch
/// from `start`.
fn drain(plan: &QueryPlan, env: ExecEnv, start: Instant) -> TResult<Drained> {
    let memory = env.memory.clone();
    let rt = PlanRuntime::for_plan(plan, env);
    let mut op = build_operator(&plan.fragments[0].root, &rt)?;
    op.open()?;
    let mut batches = Vec::new();
    let mut ttf = None;
    while let Some(b) = op.next_batch()? {
        ttf.get_or_insert_with(|| start.elapsed());
        batches.push(b);
    }
    op.close()?;
    Ok(Drained {
        batches,
        ttf: ttf.unwrap_or_else(|| start.elapsed()),
        peak_memory: memory.peak_used(),
    })
}

fn judge(
    s: &Setup,
    id: u64,
    result: TResult<Drained>,
    latency: Duration,
) -> (Sample, Option<Drained>) {
    match result {
        Ok(d) => {
            let fp = Fingerprint::of_batches(&d.batches);
            let ok = fp == s.gold;
            if !ok {
                report_failure(
                    Workload::DistJoin,
                    id,
                    &format!("wrong answer: {} rows, expected {}", fp.rows, s.gold.rows),
                );
            }
            let sample = Sample::new(latency, d.ttf, fp.rows, ok);
            (sample, Some(d))
        }
        Err(e) => {
            report_failure(Workload::DistJoin, id, &e.to_string());
            let sample = Sample::new(latency, latency, 0, false);
            (sample, None)
        }
    }
}

/// One query: dial, scatter, gather. Dialing is timed: a coordinator pays
/// it per query.
fn untraced_query(s: &Setup, id: u64) -> Sample {
    let start = Instant::now();
    let result = Cluster::connect(&s.addrs).and_then(|c| drain(&s.plan, coordinator_env(c), start));
    let latency = start.elapsed();
    judge(s, id, result, latency).0
}

/// [`untraced_query`] with `net.dial` and `exec.drain` spans under a
/// `dist.query` span.
fn traced_query(s: &Setup, id: u64, log: &mut SpanLog, out: &mut Vec<Drained>) -> Sample {
    let start = Instant::now();
    let q = log.open("dist.query", None, id);
    let result = log
        .time("net.dial", Some(q), id, || Cluster::connect(&s.addrs))
        .and_then(|c| {
            log.time("exec.drain", Some(q), id, || {
                drain(&s.plan, coordinator_env(c), start)
            })
        });
    log.close(q);
    let latency = log.duration(q);
    let (sample, drained) = judge(s, id, result, latency);
    out.extend(drained);
    sample
}

/// Run `dist_join`.
pub fn run(cfg: &RunConfig, traced: bool) -> Result<Outcome, String> {
    if !traced {
        let (s, mut setup_s) = repeated_setup(|| setup(&cfg.worker_exe))?;
        closed_loop(Duration::ZERO, WARMUP_QUERIES, |i| untraced_query(&s, i));
        let samples = closed_loop(cfg.budget(), MIN_QUERIES, |i| untraced_query(&s, i));
        drop(s);
        return Ok(crate::untraced_outcome(&mut setup_s, &samples, SLO, false));
    }

    let s = setup(&cfg.worker_exe)?;
    closed_loop(Duration::ZERO, WARMUP_QUERIES, |i| untraced_query(&s, i));
    let half = cfg.budget() / 2;
    let plain = closed_loop(half, MIN_QUERIES, |i| untraced_query(&s, i));
    let mut log = SpanLog::new(Instant::now());
    let mut drained = Vec::new();
    let traced_samples = closed_loop(half, MIN_QUERIES, |i| {
        let sample = traced_query(&s, i, &mut log, &mut drained);
        // Keep one query's batches: the wire shapes the layer benchmarks
        // replay.
        drained.truncate(1);
        sample
    });

    let mut m = Metrics::default();
    m.put(
        "core.unattributed_frac",
        log.summary_of("dist.query").self_frac(),
        "frac",
    );
    m.put("core.fragments_run", s.plan.fragments.len() as f64, "count");
    let peak = drained.first().map(|d| d.peak_memory).unwrap_or(0);
    m.put(
        "storage.peak_engine_mb",
        peak as f64 / (1 << 20) as f64,
        "MB",
    );
    m.put("net.dial_ms", ms(log.summary_of("net.dial").median()), "ms");
    m.put(
        "trace.overhead_frac",
        overhead_frac(&traced_samples, &plain),
        "frac",
    );

    let left = dist::dist_relation("l", ROWS, ROWS);
    let right = dist::dist_relation("r", ROWS, ROWS);
    let shipped = match &s.plan.fragments[0].root.spec {
        OperatorSpec::Exchange { input, .. } => Some((**input).clone()),
        _ => None,
    };
    let input = LayerInput {
        build: &left,
        build_key: 0,
        probe: &right,
        probe_key: 0,
        row_frames: false,
        wire: drained.pop().map(|d| d.batches).unwrap_or_default(),
        plans: vec![s.plan.clone()],
        shipped,
        planning: None,
        threads: 1,
    };
    m.extend(layers::measure(&input, &mut log)?);
    crate::write_spans(cfg, &log);
    drop(s);

    Ok(Outcome::new(plain.iter().chain(&traced_samples), m))
}
