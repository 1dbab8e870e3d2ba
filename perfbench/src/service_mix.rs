//! `service_mix`: an open loop from one generator thread at a fixed
//! arrival rate into [`QueryService`], over the WAN-like TPC-H deployment
//! (SF 0.002, 6 ms initial link delay, bursty partsupp and part). The
//! small / medium / large join mix runs round-robin with the source cache
//! off and 16 service workers.
//!
//! Each query's latency counts from the time it was due, so a stall of the
//! service delays every query scheduled behind it.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use tukwila_core::TpchDeployment;
use tukwila_exec::ExecEnv;
use tukwila_opt::OptimizerConfig;
use tukwila_query::{ConjunctiveQuery, Reformulator};
use tukwila_service::{QueryService, QueryServiceConfig, QueryTicket};
use tukwila_source::LinkModel;
use tukwila_tpchgen::TpchTable;
use tukwila_trace::TraceLevel;

use crate::check::Fingerprint;
use crate::layers::{self, LayerInput, Planning};
use crate::report::{ms, overhead_frac, percentile, Outcome, Sample};
use crate::spans::SpanLog;
use crate::tpch_join::{judge, staged_query, ttf_of, LayerCounts};
use crate::{closed_loop, repeated_setup, report_failure, RunConfig, Workload, BATCH_SIZE};

/// TPC-H scale factor.
pub const SCALE: f64 = 0.002;
/// Arrivals per second.
pub const RATE: f64 = 500.0;
/// Service worker threads.
pub const WORKERS: usize = 16;
/// Queries that may wait for a worker before admission rejects.
pub const QUEUE_CAPACITY: usize = 1000;
/// Latency limit of `slo_frac`.
pub const SLO: Duration = Duration::from_millis(50);
/// Deadline of every query: a query still running after it is a timeout.
pub const DEADLINE: Duration = Duration::from_secs(2);
/// Open-loop warm-up before measuring.
const WARMUP: Duration = Duration::from_millis(500);
/// Closed-loop replays of each mix query through the system's stages.
const STAGED_REPLAYS: usize = 10;

/// The deployed service with its query mix and reference answers.
pub struct Setup {
    /// Data, sources and catalog.
    pub deployment: TpchDeployment,
    /// The running service.
    pub service: QueryService,
    /// Small, medium and large joins, submitted round-robin.
    pub mix: Vec<ConjunctiveQuery>,
    /// Reference fingerprint of each mix query.
    pub golds: Vec<Fingerprint>,
    /// Optimizer settings of the service's system.
    pub config: OptimizerConfig,
}

fn deployment(seed: u64) -> TpchDeployment {
    let wan = LinkModel {
        initial_delay: Duration::from_millis(6),
        ..LinkModel::instant()
    };
    let bursty = LinkModel {
        initial_delay: Duration::from_millis(6),
        burst_size: 400,
        burst_gap: Duration::from_millis(1),
        ..LinkModel::instant()
    };
    TpchDeployment::builder(SCALE, seed)
        .tables(&[
            TpchTable::Region,
            TpchTable::Nation,
            TpchTable::Supplier,
            TpchTable::Partsupp,
            TpchTable::Part,
        ])
        .default_link(wan)
        .link(TpchTable::Partsupp, bursty.clone())
        .link(TpchTable::Part, bursty)
        .build()
}

/// Deploy the data, compute the mix's reference answers and start the
/// service.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let d = deployment(seed);
    let mix = vec![
        d.query_for("small", &[TpchTable::Supplier, TpchTable::Nation]),
        d.query_for(
            "medium",
            &[TpchTable::Region, TpchTable::Nation, TpchTable::Supplier],
        ),
        d.query_for(
            "large",
            &[
                TpchTable::Nation,
                TpchTable::Supplier,
                TpchTable::Partsupp,
                TpchTable::Part,
            ],
        ),
    ];
    let golds = mix
        .iter()
        .map(|q| d.gold(q).map(|g| Fingerprint::of_relation(&g)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reference answer: {e}"))?;
    let config = OptimizerConfig {
        max_parallelism: 1,
        ..OptimizerConfig::default()
    };
    let env = ExecEnv::new(d.registry.clone())
        .with_batch_size(BATCH_SIZE)
        .with_threads(1)
        .with_trace_level(TraceLevel::Off);
    let service = QueryService::new(
        d.system_with_env(config.clone(), env),
        QueryServiceConfig {
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            default_deadline: Some(DEADLINE),
            total_memory: 256 << 20,
            query_memory: 32 << 20,
            cache_memory: None,
            intra_query_threads: 1,
            trace_level: TraceLevel::Off,
            remote_workers: Vec::new(),
        },
    );
    Ok(Setup {
        deployment: d,
        service,
        mix,
        golds,
        config,
    })
}

/// A submission on its way to the collector.
struct Pending {
    id: u64,
    due: Instant,
    submitted: Instant,
    ticket: Result<QueryTicket, String>,
}

/// What an open-loop pass observed.
#[derive(Default)]
struct OpenPass {
    samples: Vec<Sample>,
    /// Generator lateness per submission, ms.
    lags: Vec<f64>,
    /// Queue wait per completed query, ms.
    queue_waits: Vec<f64>,
    counts: Vec<LayerCounts>,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Submit `duration × RATE` queries on schedule from this thread while a
/// collector thread waits for and checks each response. With `log`, the
/// pass records spans.
fn open_loop(
    s: &Setup,
    duration: Duration,
    first_id: u64,
    mut log: Option<&mut SpanLog>,
) -> OpenPass {
    let n = (duration.as_secs_f64() * RATE).round().max(1.0) as u64;
    let period = Duration::from_secs_f64(1.0 / RATE);
    let origin = log.as_ref().map(|l| l.origin());
    let (tx, rx) = mpsc::channel::<Pending>();
    let t0 = Instant::now() + Duration::from_millis(1);

    let (mut pass, collector_log) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut pass = OpenPass::default();
            let mut clog = origin.map(SpanLog::new);
            for p in rx {
                let lag = p.submitted.saturating_duration_since(p.due);
                pass.lags.push(ms(lag));
                let gold = &s.golds[(p.id % s.golds.len() as u64) as usize];
                let sample = match p.ticket {
                    Err(e) => {
                        report_failure(Workload::ServiceMix, p.id, &e);
                        Sample::new(lag, lag, 0, false)
                    }
                    Ok(ticket) => {
                        let resp = ticket.wait();
                        let st = &resp.stats;
                        let latency = lag + st.queue_wait + st.duration;
                        pass.queue_waits.push(ms(st.queue_wait));
                        pass.counts.push(LayerCounts {
                            fragments_run: st.fragments_run,
                            replans: st.replans,
                            peak_memory: st.peak_memory,
                        });
                        if let Some(l) = clog.as_mut() {
                            let q = l.record("service.query", p.due, p.due + latency, None, p.id);
                            l.record("bench.gen_lag", p.due, p.submitted, Some(q), p.id);
                            let picked = p.submitted + st.queue_wait;
                            l.record("service.queue_wait", p.submitted, picked, Some(q), p.id);
                            l.record("service.exec", picked, picked + st.duration, Some(q), p.id);
                        }
                        let ttf = ttf_of(st, latency);
                        judge(
                            Workload::ServiceMix,
                            p.id,
                            resp.outcome.as_ref(),
                            latency,
                            ttf,
                            gold,
                        )
                    }
                };
                let mut sample = sample;
                sample.start = p.due.saturating_duration_since(t0);
                pass.samples.push(sample);
            }
            (pass, clog)
        });

        for i in 0..n {
            let id = first_id + i;
            let due = t0 + period * i as u32;
            sleep_until(due);
            let submitted = Instant::now();
            let ticket = s
                .service
                .submit(&s.mix[(id % s.mix.len() as u64) as usize])
                .map_err(|e| e.to_string());
            if let Some(l) = log.as_deref_mut() {
                l.record("service.submit", submitted, Instant::now(), None, id);
            }
            let pending = Pending {
                id,
                due,
                submitted,
                ticket,
            };
            if tx.send(pending).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    if let (Some(l), Some(c)) = (log, collector_log) {
        l.absorb(c);
    }
    pass.samples.shrink_to_fit();
    pass
}

/// Run `service_mix`.
pub fn run(cfg: &RunConfig, traced: bool) -> Result<Outcome, String> {
    if !traced {
        let (s, mut setup_s) = repeated_setup(|| setup(cfg.seed))?;
        let warm = open_loop(&s, WARMUP, 0, None);
        let first = warm.samples.len() as u64;
        let pass = open_loop(&s, cfg.budget(), first, None);
        let mut lags = pass.lags.clone();
        eprintln!(
            "perfbench: service_mix generator lag p99 {:.3} ms",
            percentile(&mut lags, 0.99)
        );
        return Ok(crate::untraced_outcome(
            &mut setup_s,
            &pass.samples,
            SLO,
            true,
        ));
    }

    let s = setup(cfg.seed)?;
    let warm = open_loop(&s, WARMUP, 0, None);
    let half = cfg.budget() / 2;
    let mut next = warm.samples.len() as u64;
    let plain = open_loop(&s, half, next, None);
    next += plain.samples.len() as u64;
    let mut log = SpanLog::new(Instant::now());
    let mut pass = open_loop(&s, half, next, Some(&mut log));
    next += pass.samples.len() as u64;

    // The system's public stages, replayed one query at a time while the
    // service is idle.
    let system = s.service.system();
    let mut staged_counts = Vec::new();
    let staged = closed_loop(Duration::ZERO, STAGED_REPLAYS * s.mix.len(), |id| {
        let k = (id % s.mix.len() as u64) as usize;
        staged_query(
            system,
            &s.mix[k],
            &s.golds[k],
            Workload::ServiceMix,
            next + id,
            &mut log,
            &mut staged_counts,
        )
    });

    let stats = s.service.stats();
    let mut m = crate::tpch_join::core_metrics(&log, &pass.counts);
    m.put(
        "service.submit_us",
        log.summary_of("service.submit").median().as_secs_f64() * 1e6,
        "us",
    );
    m.put(
        "service.queue_wait_p90_ms",
        percentile(&mut pass.queue_waits, 0.90),
        "ms",
    );
    m.put("service.rejected", stats.rejected as f64, "count");
    m.put(
        "service.queue_hw",
        stats.queue_depth_high_water as f64,
        "count",
    );
    m.put("bench.gen_lag_ms", percentile(&mut pass.lags, 0.99), "ms");
    m.put(
        "trace.overhead_frac",
        overhead_frac(&pass.samples, &plain.samples),
        "frac",
    );

    let mut plans = Vec::new();
    for q in &s.mix {
        let prepared = system
            .prepare(q)
            .map_err(|e| format!("plan {}: {e}", q.name))?;
        plans.push(prepared.planned().lowered.plan.clone());
    }
    let db = &s.deployment.db;
    let input = LayerInput {
        build: db.table(TpchTable::Partsupp),
        build_key: 0,
        probe: db.table(TpchTable::Part),
        probe_key: 0,
        row_frames: false,
        wire: Vec::new(),
        plans,
        shipped: None,
        planning: Some(Planning {
            reformulator: Reformulator::new(s.deployment.mediated.clone()),
            catalog: &s.deployment.catalog,
            config: s.config.clone(),
            queries: s.mix.clone(),
        }),
        threads: 1,
    };
    m.extend(layers::measure(&input, &mut log)?);
    crate::write_spans(cfg, &log);

    Ok(Outcome::new(
        plain.samples.iter().chain(&pass.samples).chain(&staged),
        m,
    ))
}
