//! Layer microbenchmarks for the traced run: each replays batches taken
//! from the workload's own data through one public function and reports
//! the unit `NOTES.md` names for it.
//!
//! Every repetition is recorded as a span named after its metric, so the
//! written span log shows the spread behind each median.

use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tukwila_analyze::analyze_plan;
use tukwila_catalog::Catalog;
use tukwila_common::{
    fx_hash, ColumnarBatch, DataType, KeyVector, Relation, Schema, Tuple, TupleBatch,
};
use tukwila_core::execute_plan;
use tukwila_exec::operators::hash_table::BucketedTable;
use tukwila_exec::{subtree_plan_text, ExecEnv};
use tukwila_net::{decode_msg, FrameReader, FrameWriter, Msg};
use tukwila_opt::{Optimizer, OptimizerConfig};
use tukwila_plan::{parse_plan, print_plan, OperatorNode, PlanBuilder, QueryPlan};
use tukwila_query::{ConjunctiveQuery, Reformulator};
use tukwila_source::{LinkModel, SimulatedSource, SourceBatchEvent, SourceRegistry};
use tukwila_storage::codec::{decode_batch, encode_batch_frame};
use tukwila_storage::{InMemorySpillStore, SpillStore};
use tukwila_trace::TraceLevel;

use crate::frame_store::FrameStore;
use crate::report::{median, Metrics};
use crate::spans::SpanLog;
use crate::BATCH_SIZE;

/// Hash-table buckets, as the engine's joins use.
const BUCKETS: usize = 16;
/// Each microbenchmark repeats for at least this many repetitions...
const MIN_REPS: usize = 5;
/// ...and then until this much time has passed...
const REP_BUDGET: Duration = Duration::from_millis(120);
/// ...but never more than this many.
const MAX_REPS: usize = 2_000;

const MB: f64 = 1e6;

/// The planning layers' inputs: the workload's queries over its catalog.
pub struct Planning<'a> {
    /// Reformulator over the workload's mediated schema.
    pub reformulator: Reformulator,
    /// The workload's source catalog.
    pub catalog: &'a Catalog,
    /// The optimizer settings the workload runs with.
    pub config: OptimizerConfig,
    /// The workload's queries.
    pub queries: Vec<ConjunctiveQuery>,
}

/// What a workload hands the microbenchmarks.
pub struct LayerInput<'a> {
    /// Hash-join build side (its source batches also feed the kernel,
    /// codec and source benchmarks) and its key column.
    pub build: &'a Relation,
    /// Build key column.
    pub build_key: usize,
    /// Probe side and its key column.
    pub probe: &'a Relation,
    /// Probe key column.
    pub probe_key: usize,
    /// Spill frames are row frames (the spill path) rather than the
    /// columnar frames sources and the wire carry.
    pub row_frames: bool,
    /// Batches the workload ships over the wire; empty means the build
    /// side's source batches.
    pub wire: Vec<TupleBatch>,
    /// Plans the workload executes (analysis and text round trip).
    pub plans: Vec<QueryPlan>,
    /// The subtree a coordinator ships to workers, if any: its text round
    /// trip replaces the whole-plan one.
    pub shipped: Option<OperatorNode>,
    /// Planning inputs, if the workload plans its queries.
    pub planning: Option<Planning<'a>>,
    /// Intra-query thread budget of the workload.
    pub threads: usize,
}

/// Repeat `run` over inputs made by `setup` (untimed) and return the
/// median time of one repetition. Each repetition is a span.
fn bench<S, R>(
    log: &mut SpanLog,
    name: &'static str,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> R,
) -> Duration {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || (start.elapsed() < REP_BUDGET && reps.len() < MAX_REPS) {
        let input = setup();
        let t = Instant::now();
        let out = black_box(run(black_box(input)));
        let end = Instant::now();
        drop(out);
        log.record(name, t, end, None, 0);
        reps.push((end - t).as_secs_f64());
    }
    Duration::from_secs_f64(median(&mut reps))
}

fn per_row_ns(d: Duration, rows: usize) -> f64 {
    d.as_secs_f64() * 1e9 / rows.max(1) as f64
}

fn mb_per_s(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / MB / d.as_secs_f64().max(f64::MIN_POSITIVE)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The batches an instant-link source delivers for `rel`.
pub fn source_batches(rel: &Relation) -> Vec<TupleBatch> {
    let src = SimulatedSource::new("bench", rel.clone(), LinkModel::instant());
    let mut conn = src.connect(0);
    let mut out = Vec::new();
    while let SourceBatchEvent::Batch(b) = conn.next_batch_event(BATCH_SIZE) {
        out.push(b);
    }
    out
}

fn columns(b: &TupleBatch) -> ColumnarBatch {
    match b.columns() {
        Some(c) => c.clone(),
        None => ColumnarBatch::from_rows(b.tuples()),
    }
}

/// A seeded permutation of `0..n` (the gather's selection vector).
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..n as u32).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        idx.swap(i, (s % (i as u64 + 1)) as usize);
    }
    idx
}

fn types(schema: &Schema) -> Vec<DataType> {
    schema.fields().iter().map(|f| f.data_type).collect()
}

fn hashed_rows(rel: &Relation, key: usize) -> Vec<(u64, Tuple)> {
    rel.tuples()
        .iter()
        .map(|t| (fx_hash(t.value(key)), t.clone()))
        .collect()
}

fn filled_table(rows: &[(u64, Tuple)], key: usize, spill: Arc<dyn SpillStore>) -> BucketedTable {
    let mut table = BucketedTable::new("bench", BUCKETS, key, None, spill);
    for (h, t) in rows {
        table.insert_hashed(*h, t.clone());
    }
    table
}

/// Run every microbenchmark on `input`; spans go to `log`.
pub fn measure(input: &LayerInput<'_>, log: &mut SpanLog) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    planning_layers(input, log, &mut m)?;
    kernel_layers(input, log, &mut m)?;
    wire_layers(input, log, &mut m)?;
    Ok(m)
}

/// `core.dispatch_us`, `query.reformulate_us`, `opt.plan_us`,
/// `analyze.plan_us`, `plan.text_roundtrip_us`.
fn planning_layers(
    input: &LayerInput<'_>,
    log: &mut SpanLog,
    m: &mut Metrics,
) -> Result<(), String> {
    // The scheduler's fixed cost: a one-row fragment feeding a second.
    let registry = SourceRegistry::new();
    let one = Relation::new(
        Schema::of("d", &[("k", DataType::Int)]),
        vec![Tuple::new(vec![1i64.into()])],
    )
    .map_err(|e| e.to_string())?;
    registry.register(SimulatedSource::new("d", one, LinkModel::instant()));
    let mut pb = PlanBuilder::new();
    let scan = pb.wrapper_scan("d");
    let f0 = pb.fragment(scan, "d0");
    let mat = pb.table_scan("d0");
    let f1 = pb.fragment(mat, "result");
    pb.depends(f0, f1);
    let tiny = pb.build(f1);
    let env = ExecEnv::new(registry)
        .with_batch_size(BATCH_SIZE)
        .with_threads(input.threads)
        .with_trace_level(TraceLevel::Off);
    execute_plan(&tiny, env.for_query()).map_err(|e| format!("dispatch plan: {e}"))?;
    let d = bench(
        log,
        "core.dispatch_us",
        || env.for_query(),
        |e| execute_plan(&tiny, e).map(|(rel, _)| rel.len()),
    );
    m.put("core.dispatch_us", us(d), "us");

    if let Some(p) = &input.planning {
        let reformulated = p
            .queries
            .iter()
            .map(|q| {
                p.reformulator
                    .reformulate(q, p.catalog)
                    .map_err(|e| format!("reformulate {}: {e}", q.name))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let n = p.queries.len();
        let d = bench(
            log,
            "query.reformulate_us",
            || (),
            |()| {
                p.queries
                    .iter()
                    .filter_map(|q| p.reformulator.reformulate(q, p.catalog).ok())
                    .count()
            },
        );
        m.put("query.reformulate_us", us(d) / n as f64, "us");
        let mut opt = Optimizer::new(p.catalog.clone(), p.config.clone());
        let d = bench(
            log,
            "opt.plan_us",
            || (),
            |()| {
                reformulated
                    .iter()
                    .filter_map(|rq| opt.plan(rq).ok())
                    .count()
            },
        );
        m.put("opt.plan_us", us(d) / n as f64, "us");
    }

    let plans = &input.plans;
    let d = bench(
        log,
        "analyze.plan_us",
        || (),
        |()| {
            plans
                .iter()
                .map(|p| analyze_plan(p).warn_count())
                .sum::<usize>()
        },
    );
    m.put("analyze.plan_us", us(d) / plans.len().max(1) as f64, "us");

    let (d, n) = match &input.shipped {
        Some(node) => {
            parse_plan(&subtree_plan_text(node, 0)).map_err(|e| format!("shipped plan: {e}"))?;
            let d = bench(
                log,
                "plan.text_roundtrip_us",
                || (),
                |()| parse_plan(&subtree_plan_text(node, 0)).is_ok(),
            );
            (d, 1)
        }
        None => {
            for p in plans {
                parse_plan(&print_plan(p)).map_err(|e| format!("plan text: {e}"))?;
            }
            let d = bench(
                log,
                "plan.text_roundtrip_us",
                || (),
                |()| {
                    plans
                        .iter()
                        .filter(|p| parse_plan(&print_plan(p)).is_ok())
                        .count()
                },
            );
            (d, plans.len())
        }
    };
    m.put("plan.text_roundtrip_us", us(d) / n.max(1) as f64, "us");
    Ok(())
}

/// Source delivery, `common` kernels, the `exec` hash table and the
/// `storage` codec.
fn kernel_layers(input: &LayerInput<'_>, log: &mut SpanLog, m: &mut Metrics) -> Result<(), String> {
    let build = input.build;
    let rows = build.len();

    let src = SimulatedSource::new("bench", build.clone(), LinkModel::instant());
    let d = bench(
        log,
        "source.deliver_ns_per_row",
        || src.connect(0),
        |mut conn| {
            let mut n = 0usize;
            while let SourceBatchEvent::Batch(b) = conn.next_batch_event(BATCH_SIZE) {
                n += b.len();
            }
            n
        },
    );
    m.put("source.deliver_ns_per_row", per_row_ns(d, rows), "ns/row");

    let batches = source_batches(build);
    let key = input.build_key;
    let d = bench(
        log,
        "common.key_hash_ns_per_row",
        || (),
        |()| {
            batches
                .iter()
                .map(|b| KeyVector::compute(b, key).len())
                .sum::<usize>()
        },
    );
    m.put("common.key_hash_ns_per_row", per_row_ns(d, rows), "ns/row");

    let cols: Vec<ColumnarBatch> = batches.iter().map(columns).collect();
    let sel: Vec<Vec<u32>> = cols
        .iter()
        .enumerate()
        .map(|(i, c)| permutation(c.len(), 0x5eed + i as u64))
        .collect();
    let d = bench(
        log,
        "common.gather_ns_per_row",
        || (),
        |()| {
            cols.iter()
                .zip(&sel)
                .map(|(c, idx)| c.gather(idx))
                .collect::<Vec<_>>()
        },
    );
    m.put("common.gather_ns_per_row", per_row_ns(d, rows), "ns/row");

    let gathered: Vec<ColumnarBatch> = cols
        .iter()
        .zip(&sel)
        .map(|(c, idx)| c.gather(idx))
        .collect();
    let d = bench(
        log,
        "common.hstack_ns_per_row",
        || (cols.clone(), gathered.clone()),
        |(left, right)| {
            left.into_iter()
                .zip(right)
                .map(|(l, r)| ColumnarBatch::hstack(l, r))
                .collect::<Vec<_>>()
        },
    );
    m.put("common.hstack_ns_per_row", per_row_ns(d, rows), "ns/row");

    // Hash table: build on the build side, probe with the probe side.
    let build_rows = hashed_rows(build, key);
    let mem: Arc<dyn SpillStore> = Arc::new(InMemorySpillStore::new());
    let d = bench(
        log,
        "exec.ht_build_ns_per_row",
        || {
            (
                BucketedTable::new("bench", BUCKETS, key, None, mem.clone()),
                build_rows.clone(),
            )
        },
        |(mut table, rows)| {
            for (h, t) in rows {
                table.insert_hashed(h, t);
            }
            table
        },
    );
    m.put("exec.ht_build_ns_per_row", per_row_ns(d, rows), "ns/row");

    let table = filled_table(&build_rows, key, mem.clone());
    let probes = hashed_rows(input.probe, input.probe_key);
    let pk = input.probe_key;
    let d = bench(
        log,
        "exec.ht_probe_ns_per_row",
        || (),
        |()| {
            probes
                .iter()
                .map(|(h, t)| table.probe_hashed(*h, t.value(pk)).len())
                .sum::<usize>()
        },
    );
    m.put(
        "exec.ht_probe_ns_per_row",
        per_row_ns(d, probes.len()),
        "ns/row",
    );

    let ty = types(build.schema());
    let d = bench(
        log,
        "exec.ht_freeze_ms",
        || (),
        |()| table.freeze(&ty).is_some(),
    );
    m.put("exec.ht_freeze_ms", d.as_secs_f64() * 1e3, "ms");
    drop(table);

    let mut flushed = 0usize;
    let d = bench(
        log,
        "exec.ht_flush_mb_per_s",
        || {
            let store: Arc<dyn SpillStore> = Arc::new(FrameStore::new());
            let table = filled_table(&build_rows, key, store);
            flushed = (0..BUCKETS).map(|b| table.bucket_bytes(b)).sum();
            table
        },
        |mut table| {
            for b in 0..BUCKETS {
                table.flush_bucket(b).expect("spill write");
            }
            table
        },
    );
    m.put("exec.ht_flush_mb_per_s", mb_per_s(flushed, d), "MB/s");

    // Codec: the frames this workload writes.
    let frames: Vec<TupleBatch> = if input.row_frames {
        cols.iter()
            .map(|c| TupleBatch::from_tuples(c.materialize_rows()))
            .collect()
    } else {
        batches.clone()
    };
    let mut buf = Vec::new();
    for f in &frames {
        encode_batch_frame(f, &mut buf);
    }
    let encoded = buf.len();
    let d = bench(
        log,
        "storage.encode_mb_per_s",
        || Vec::with_capacity(encoded),
        |mut out| {
            for f in &frames {
                encode_batch_frame(f, &mut out);
            }
            out
        },
    );
    m.put("storage.encode_mb_per_s", mb_per_s(encoded, d), "MB/s");
    let d = bench(
        log,
        "storage.decode_mb_per_s",
        || (),
        |()| {
            let mut pos = 0;
            let mut n = 0;
            while pos < buf.len() {
                n += decode_batch(&buf, &mut pos)
                    .expect("decode own frame")
                    .len();
            }
            n
        },
    );
    m.put("storage.decode_mb_per_s", mb_per_s(encoded, d), "MB/s");
    Ok(())
}

/// `net` framing: send into memory, read back and decode.
fn wire_layers(input: &LayerInput<'_>, log: &mut SpanLog, m: &mut Metrics) -> Result<(), String> {
    let wire = if input.wire.is_empty() {
        source_batches(input.build)
    } else {
        input.wire.clone()
    };
    let rows: usize = wire.iter().map(TupleBatch::len).sum();
    let mut bytes = Vec::new();
    let sent = {
        let mut w = FrameWriter::new(&mut bytes);
        for b in &wire {
            w.send_batch(b).map_err(|e| e.to_string())?;
        }
        w.bytes_sent() as usize
    };
    m.put(
        "net.bytes_per_row",
        sent as f64 / rows.max(1) as f64,
        "count",
    );
    let d = bench(
        log,
        "net.send_mb_per_s",
        || FrameWriter::new(Vec::with_capacity(sent)),
        |mut w| {
            for b in &wire {
                w.send_batch(b).expect("send into memory");
            }
            w
        },
    );
    m.put("net.send_mb_per_s", mb_per_s(sent, d), "MB/s");

    let frames = wire.len();
    let d = bench(
        log,
        "net.recv_mb_per_s",
        || (),
        |()| {
            let mut r = FrameReader::new(Cursor::new(&bytes));
            let mut n = 0;
            for _ in 0..frames {
                let (kind, payload) = r
                    .read_frame()
                    .expect("read own frame")
                    .expect("in-memory reads never time out");
                if let Msg::Batch(b) = decode_msg(kind, payload).expect("decode own frame") {
                    n += b.len();
                }
            }
            n
        },
    );
    m.put("net.recv_mb_per_s", mb_per_s(sent, d), "MB/s");
    Ok(())
}
