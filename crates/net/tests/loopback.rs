//! Distributed ≡ local: an exchange scattered to in-process TCP workers
//! (loopback harness) must produce exactly the local exchange's multiset
//! for every join kind, worker count, spill budget, and batch size.
//!
//! Workers share the coordinator's `SourceRegistry` clone, so the whole
//! cluster runs deterministically inside one test process while still
//! exercising the real wire protocol end to end.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use tukwila_common::{DataType, Relation, Schema, Tuple, Value};
use tukwila_core::execute_plan_traced;
use tukwila_exec::runtime::{ExecEnv, PlanRuntime};
use tukwila_exec::{build_operator, drain};
use tukwila_net::{Cluster, WorkerHandle, WorkerServer};
use tukwila_plan::{JoinKind, OperatorNode, OverflowMethod, PlanBuilder, QueryPlan};
use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};
use tukwila_trace::{TraceEvent, TraceLevel};

fn multiset(tuples: &[Tuple]) -> HashMap<Tuple, usize> {
    let mut m = HashMap::new();
    for t in tuples {
        *m.entry(t.clone()).or_insert(0) += 1;
    }
    m
}

fn rel_of(name: &str, rows: &[(Option<i64>, i64)]) -> Relation {
    let schema = Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
    let mut r = Relation::empty(schema);
    for (k, v) in rows {
        let key = match k {
            Some(k) => Value::Int(*k),
            None => Value::Null,
        };
        r.push(Tuple::new(vec![key, Value::Int(*v)]));
    }
    r
}

fn keyed_rows(n: i64, dup: i64, null_every: Option<i64>) -> Vec<(Option<i64>, i64)> {
    (0..n)
        .map(|i| {
            let k = match null_every {
                Some(e) if i % e == 0 => None,
                _ => Some(i % dup.max(1)),
            };
            (k, i)
        })
        .collect()
}

fn registry(l: &Relation, r: &Relation) -> SourceRegistry {
    let reg = SourceRegistry::new();
    reg.register(SimulatedSource::new("L", l.clone(), LinkModel::instant()));
    reg.register(SimulatedSource::new("R", r.clone(), LinkModel::instant()));
    reg
}

fn exchange_plan(kind: JoinKind, budget: Option<usize>, partitions: usize) -> QueryPlan {
    let mut b = PlanBuilder::new();
    let ls = b.wrapper_scan("L");
    let rs = b.wrapper_scan("R");
    let mut j: OperatorNode = match kind {
        JoinKind::DoublePipelined => {
            b.dpj(ls, rs, "k", "k", OverflowMethod::IncrementalSymmetricFlush)
        }
        other => b.join(other, ls, rs, "k", "k"),
    };
    if let Some(bytes) = budget {
        j = j.with_memory(bytes);
    }
    let x = b.exchange(j, partitions);
    let f = b.fragment(x, "out");
    b.build(f)
}

fn run_local(l: &Relation, r: &Relation, plan: &QueryPlan, batch_size: usize) -> Vec<Tuple> {
    let env = ExecEnv::new(registry(l, r)).with_batch_size(batch_size);
    let rt = PlanRuntime::for_plan(plan, env);
    let mut op = build_operator(&plan.fragments[0].root, &rt).expect("build local plan");
    drain(op.as_mut()).expect("drain local plan")
}

/// Spin up `workers` loopback worker processes-in-threads, point a
/// [`Cluster`] at them, and run the plan with the cluster installed as the
/// engine's shard executor.
fn run_distributed(
    l: &Relation,
    r: &Relation,
    plan: &QueryPlan,
    batch_size: usize,
    workers: usize,
) -> tukwila_common::Result<Vec<Tuple>> {
    let reg = registry(l, r);
    let handles: Vec<WorkerHandle> = (0..workers)
        .map(|_| {
            WorkerServer::bind("127.0.0.1:0", reg.clone())
                .expect("bind worker")
                .spawn()
                .expect("spawn worker")
        })
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr()).collect();
    let cluster = Cluster::connect(&addrs)?;
    let env = ExecEnv::new(reg)
        .with_batch_size(batch_size)
        .with_shard_executor(Arc::new(cluster));
    let rt = PlanRuntime::for_plan(plan, env);
    let mut op = build_operator(&plan.fragments[0].root, &rt)?;
    let out = drain(op.as_mut());
    for h in handles {
        h.shutdown();
    }
    out
}

const ALL_KINDS: [JoinKind; 5] = [
    JoinKind::DoublePipelined,
    JoinKind::HybridHash,
    JoinKind::GraceHash,
    JoinKind::NestedLoops,
    JoinKind::SortMerge,
];

#[test]
fn distributed_matches_local_for_every_join_kind() {
    let l = rel_of("l", &keyed_rows(200, 16, Some(13)));
    let r = rel_of("r", &keyed_rows(150, 16, Some(7)));
    for kind in ALL_KINDS {
        let plan = exchange_plan(kind, None, 2);
        let gold = multiset(&run_local(&l, &r, &plan, 64));
        let got = run_distributed(&l, &r, &plan, 64, 2).expect("distributed run");
        assert_eq!(multiset(&got), gold, "{kind:?} diverged over loopback");
    }
}

#[test]
fn distributed_matches_local_across_worker_counts() {
    let l = rel_of("l", &keyed_rows(300, 20, Some(11)));
    let r = rel_of("r", &keyed_rows(240, 20, None));
    for workers in [1usize, 2, 4] {
        let plan = exchange_plan(JoinKind::DoublePipelined, None, workers);
        let gold = multiset(&run_local(&l, &r, &plan, 64));
        let got = run_distributed(&l, &r, &plan, 64, workers).expect("distributed run");
        assert_eq!(multiset(&got), gold, "{workers} workers diverged");
    }
}

#[test]
fn distributed_spills_under_budget_and_stays_exact() {
    let l = rel_of("l", &keyed_rows(400, 25, None));
    let r = rel_of("r", &keyed_rows(400, 25, None));
    for kind in [JoinKind::DoublePipelined, JoinKind::HybridHash] {
        let plan = exchange_plan(kind, Some(3_000), 2);
        let gold = multiset(&run_local(&l, &r, &plan, 64));
        let got = run_distributed(&l, &r, &plan, 64, 2).expect("distributed run");
        assert_eq!(multiset(&got), gold, "{kind:?} with tiny budget diverged");
    }
}

#[test]
fn more_shards_than_workers_multiplexes() {
    let l = rel_of("l", &keyed_rows(200, 10, None));
    let r = rel_of("r", &keyed_rows(200, 10, None));
    // 4 shards dealt round-robin over 2 workers.
    let plan = exchange_plan(JoinKind::HybridHash, None, 4);
    let gold = multiset(&run_local(&l, &r, &plan, 64));
    let got = run_distributed(&l, &r, &plan, 64, 2).expect("distributed run");
    assert_eq!(multiset(&got), gold);
}

#[test]
fn connect_to_dead_address_fails_fast() {
    // Bind-then-drop gives an address that refuses connections.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        l.local_addr().expect("probe addr").port()
    };
    let err = Cluster::connect(&[format!("127.0.0.1:{port}")]);
    assert!(err.is_err(), "connecting to a dead worker must error");
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(Option<i64>, i64)>> {
    proptest::collection::vec(
        (
            prop_oneof![3 => (0i64..24).prop_map(Some), 1 => Just(None)],
            0i64..1_000,
        ),
        0..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite: distributed execution is multiset-equal to local for all
    /// join kinds × worker counts {1,2,4} × spill budgets.
    #[test]
    fn prop_distributed_equals_local(
        lrows in arb_rows(80),
        rrows in arb_rows(80),
        kind_ix in 0usize..ALL_KINDS.len(),
        workers_ix in 0usize..3,
        budget in prop_oneof![Just(None), Just(Some(2_000usize)), Just(Some(512usize))],
        batch_size in prop_oneof![Just(1usize), Just(7), Just(64)],
    ) {
        let kind = ALL_KINDS[kind_ix];
        let workers = [1usize, 2, 4][workers_ix];
        let l = rel_of("l", &lrows);
        let r = rel_of("r", &rrows);
        let plan = exchange_plan(kind, budget, workers);
        let gold = multiset(&run_local(&l, &r, &plan, batch_size));
        let got = run_distributed(&l, &r, &plan, batch_size, workers)
            .map_err(|e| TestCaseError(format!("distributed run failed: {e}")))?;
        prop_assert_eq!(multiset(&got), gold);
    }
}

/// What one exchange run reports about its partitions: the
/// `PartitionSkew` row vector, `ExecutionStats::partitions`, and the
/// per-partition spill tuples.
fn partition_report(env: ExecEnv, plan: &QueryPlan) -> (Vec<u64>, usize, Vec<u64>) {
    let env = env.with_batch_size(64).with_trace_level(TraceLevel::Events);
    let (_, stats, trace) = execute_plan_traced(plan, env).expect("exchange run");
    let skew = trace
        .expect("events are recorded")
        .events
        .into_iter()
        .find_map(|r| match r.event {
            TraceEvent::PartitionSkew { rows, .. } => Some(rows),
            _ => None,
        })
        .expect("the exchange reports its skew");
    let [spills] = &stats.partition_spills[..] else {
        panic!("one exchange ran: {:?}", stats.partition_spills);
    };
    (skew, stats.partitions, spills.tuples.clone())
}

#[test]
fn threads_and_workers_report_one_partition_taxonomy() {
    // NULL keys on both sides: both modes must drop the same rows.
    let l = rel_of("l", &keyed_rows(400, 25, Some(13)));
    let r = rel_of("r", &keyed_rows(400, 25, Some(7)));
    let plan = exchange_plan(JoinKind::HybridHash, Some(3_000), 2);

    let threads = partition_report(ExecEnv::new(registry(&l, &r)), &plan);

    let handles: Vec<WorkerHandle> = (0..2)
        .map(|_| {
            WorkerServer::bind("127.0.0.1:0", registry(&l, &r))
                .expect("bind worker")
                .spawn()
                .expect("spawn worker")
        })
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr()).collect();
    let cluster = Cluster::connect(&addrs).expect("dial loopback workers");
    let env = ExecEnv::new(registry(&l, &r)).with_shard_executor(Arc::new(cluster));
    let workers = partition_report(env, &plan);
    for h in handles {
        h.shutdown();
    }

    assert_eq!(threads.1, 2, "thread run partition degree");
    assert!(
        threads.2.iter().all(|&s| s > 0),
        "the budget must make every partition spill: {:?}",
        threads.2
    );
    assert_eq!(threads, workers, "(skew rows, partitions, spills) differ");
}
