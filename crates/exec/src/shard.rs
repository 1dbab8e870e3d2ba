//! Distributed shard execution support (DESIGN.md §12).
//!
//! [`crate::operators::Exchange`] merges N [`ShardStream`]s — one per
//! partition — whether the partitions run on threads of this process or
//! on worker processes. A [`ShardExecutor`] is the coordinator's handle on
//! a pool of workers: the exchange asks it to scatter the join subtree
//! under an optimizer-lowered `Exchange` and gets one stream per shard
//! back. The transport lives in `tukwila-net`; this module defines the
//! contract plus the routing every partition agrees on:
//!
//! * [`route_batch`] is the one partition-routing function: the
//!   in-process repartition drivers split batches with it, and a worker's
//!   [`ShardFilter`] keeps the rows it sends to that worker's shard — same
//!   prehash, same [`fold_hash`] fold, same salt, and the same "NULL keys
//!   are dropped" rule (a NULL never equi-joins).
//! * [`build_shard_root`] builds a worker's operator tree for one shard:
//!   the dispatched join with both inputs wrapped in shard filters.
//!
//! Each worker recomputes the join's input subtrees from its own sources
//! and keeps only its shard (shared-nothing scatter; inputs are never
//! shipped through the coordinator), so the union over all shards equals
//! the local join for any equi-join kind — including the kinds thread
//! partitions cannot run.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use tukwila_common::{fold_hash, KeyVector, Relation, Result, Schema, TukwilaError, TupleBatch};
use tukwila_plan::{
    print_plan, Fragment, FragmentId, OperatorNode, OperatorSpec, QueryPlan, SubjectRef,
};
use tukwila_trace::QueryTrace;

use crate::build::{build_join, build_operator, subtree_subjects};
use crate::control::QueryControl;
use crate::operator::{Operator, OperatorBox};
use crate::runtime::{OpHarness, PlanRuntime};

/// Everything a worker needs to run one shard of a scattered exchange.
/// The same spec is dispatched to every shard; only the shard index
/// differs.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The dispatched fragment as parseable plan text
    /// ([`subtree_plan_text`]): a single fragment whose root is the join
    /// under the exchange.
    pub plan_text: String,
    /// Coordinator-local materializations the fragment's `TableScan`s
    /// reference, shipped to the worker's local store.
    pub tables: Vec<(String, Arc<Relation>)>,
    /// Total number of shards (the exchange's partition degree).
    pub shard_count: usize,
    /// Operator batch size the worker should execute with.
    pub batch_size: usize,
    /// Per-shard memory budget in bytes (0 = unbounded).
    pub shard_budget: usize,
    /// Remaining query deadline at dispatch time, forwarded so workers
    /// trip on their own clock instead of relying on a cancel message.
    pub deadline: Option<Duration>,
}

/// Completion statistics one shard reports with its final message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Output rows the shard produced.
    pub rows: u64,
    /// Output batches the shard produced.
    pub batches: u64,
    /// Times the worker blocked waiting for send credit (backpressure).
    pub backpressure_stalls: u64,
    /// Tuples the worker spilled while executing the shard.
    pub spill_tuples: u64,
}

/// One partition's result stream, as the exchange merges it: a worker
/// shard at the coordinator, or an in-process join instance.
pub trait ShardStream: Send {
    /// Report the output schema — a worker stream blocks until its shard
    /// started executing. Called exactly once, on the exchange's own
    /// thread, before `next_batch` (which runs on the stream's pump
    /// thread).
    fn open(&mut self) -> Result<Schema>;

    /// Next batch of shard output, or `None` once the shard completed.
    /// Worker death surfaces here as an error, never as a hang.
    fn next_batch(&mut self) -> Result<Option<TupleBatch>>;

    /// Completion statistics (valid after `next_batch` returned `None`).
    fn stats(&self) -> ShardStats;

    /// Flag that makes `open`/`next_batch` bail out with an error promptly
    /// (an in-process stream checks it between batches); registered with
    /// the query control for cancellation, and set by the exchange on
    /// early close.
    fn abort_handle(&self) -> Arc<AtomicBool>;
}

/// Coordinator-side handle on a worker pool: scatters shard specs, returns
/// the per-shard result streams. Implemented by `tukwila_net::Cluster`
/// over TCP; tests may install in-process fakes.
pub trait ShardExecutor: Send + Sync {
    /// Dispatch `spec.shard_count` shards and return their streams, in
    /// shard order. Streams are not yet opened.
    fn start(
        &self,
        spec: &ShardSpec,
        control: &Arc<QueryControl>,
        trace: &Arc<QueryTrace>,
    ) -> Result<Vec<Box<dyn ShardStream>>>;
}

/// Render the join subtree under an exchange as a standalone
/// single-fragment plan, parseable by `tukwila_plan::parse_plan` on the
/// worker. `shard_budget` (when non-zero) replaces the root join's memory
/// annotation so each worker plans with its shard's slice, mirroring the
/// local exchange's budget/N split.
pub fn subtree_plan_text(node: &OperatorNode, shard_budget: usize) -> String {
    let mut root = node.clone();
    if shard_budget > 0 && root.memory_budget.is_some() {
        root.memory_budget = Some(shard_budget);
    }
    let frag = Fragment::new(FragmentId(0), root, "result");
    print_plan(&QueryPlan::new(vec![frag], FragmentId(0)))
}

/// Names of local-store tables the subtree scans (the coordinator must
/// ship these to workers alongside the plan).
pub fn subtree_table_deps(node: &OperatorNode) -> Vec<String> {
    fn walk(node: &OperatorNode, out: &mut Vec<String>) {
        match &node.spec {
            OperatorSpec::TableScan { table } => {
                if !out.contains(table) {
                    out.push(table.clone());
                }
            }
            OperatorSpec::WrapperScan { .. } | OperatorSpec::Collector { .. } => {}
            OperatorSpec::Select { input, .. }
            | OperatorSpec::Project { input, .. }
            | OperatorSpec::Exchange { input, .. } => walk(input, out),
            OperatorSpec::Join { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            OperatorSpec::DependentJoin { left, .. } => walk(left, out),
            OperatorSpec::Union { inputs } => {
                for i in inputs {
                    walk(i, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(node, &mut out);
    out
}

/// Salt for partition routing — distinct from the joins' bucket salt (0)
/// and the `PrehashMap` slot salt, so the three layers of the same prehash
/// stay uncorrelated.
const EXCHANGE_SALT: u64 = 0x5851_F42D_4C95_7F2D;

/// The partition-routing rule every exchange shares, on threads and on
/// workers alike: row `i` of `batch` belongs to partition
/// `fold_hash(prehash(key), n, EXCHANGE_SALT)`, and rows with a NULL key
/// belong to none (a NULL never equi-joins). Returns the non-empty
/// partitions' rows as `(partition, batch)` pairs — gathered column-wise
/// when `batch` is columnar, so partition streams stay typed end to end —
/// restricted to partition `only` when given. A batch that routes whole
/// to `only` comes back untouched.
pub fn route_batch(
    batch: TupleBatch,
    key_idx: usize,
    n: usize,
    only: Option<usize>,
) -> Vec<(usize, TupleBatch)> {
    let kv = KeyVector::compute(&batch, key_idx);
    let mut idx: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, h) in kv.iter().enumerate() {
        if let Some(h) = h {
            let p = fold_hash(h, n, EXCHANGE_SALT);
            if only.is_none_or(|o| o == p) {
                idx[p].push(i as u32);
            }
        }
    }
    if let Some(p) = only {
        if idx[p].len() == batch.len() {
            return vec![(p, batch)];
        }
    }
    let parts = idx
        .into_iter()
        .enumerate()
        .filter(|(_, rows)| !rows.is_empty());
    match batch.columns() {
        Some(cols) => parts
            .map(|(p, rows)| (p, TupleBatch::from_columns(cols.gather(&rows))))
            .collect(),
        None => {
            let tuples = batch.tuples();
            parts
                .map(|(p, rows)| {
                    let part = rows.iter().map(|&i| tuples[i as usize].clone()).collect();
                    (p, TupleBatch::from_tuples(part))
                })
                .collect()
        }
    }
}

/// Filter a child's output down to one shard: the rows [`route_batch`]
/// sends to `shard_index`.
pub struct ShardFilter {
    child: OperatorBox,
    key: String,
    key_idx: usize,
    shard_index: usize,
    shard_count: usize,
}

impl ShardFilter {
    /// Wrap `child`, keeping shard `shard_index` of `shard_count` by the
    /// (possibly qualified) key column `key`.
    pub fn new(child: OperatorBox, key: String, shard_index: usize, shard_count: usize) -> Self {
        ShardFilter {
            child,
            key,
            key_idx: 0,
            shard_index,
            shard_count: shard_count.max(1),
        }
    }
}

impl Operator for ShardFilter {
    fn open(&mut self) -> Result<()> {
        self.child.open()?;
        self.key_idx = self.child.schema().index_of(&self.key).inspect_err(|_| {
            let _ = self.child.close();
        })?;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let only = Some(self.shard_index);
        while let Some(batch) = self.child.next_batch()? {
            if let Some((_, part)) = route_batch(batch, self.key_idx, self.shard_count, only).pop()
            {
                return Ok(Some(part));
            }
        }
        Ok(None)
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }

    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn name(&self) -> &'static str {
        "shard-filter"
    }
}

/// Build a worker's operator tree for one shard of a dispatched fragment:
/// the root join with both inputs wrapped in [`ShardFilter`]s. With a
/// single shard there is nothing to filter and the tree builds as-is.
/// Unlike thread partitions this handles *any* equi-join kind — hash
/// partitioning by the join key is correct for all of them.
pub fn build_shard_root(
    node: &OperatorNode,
    rt: &Arc<PlanRuntime>,
    shard_index: usize,
    shard_count: usize,
) -> Result<OperatorBox> {
    if shard_count <= 1 {
        return build_operator(node, rt);
    }
    let OperatorSpec::Join {
        left,
        right,
        left_key,
        right_key,
        kind,
        overflow: _,
    } = &node.spec
    else {
        return Err(TukwilaError::Plan(format!(
            "shard {shard_index}/{shard_count}: dispatched fragment root must be a join"
        )));
    };
    let filtered = |input: &OperatorNode, key: &String| -> Result<OperatorBox> {
        Ok(Box::new(ShardFilter::new(
            build_operator(input, rt)?,
            key.clone(),
            shard_index,
            shard_count,
        )))
    };
    Ok(build_join(
        *kind,
        filtered(left, left_key)?,
        filtered(right, right_key)?,
        left_key.clone(),
        right_key.clone(),
        OpHarness::new(rt.clone(), SubjectRef::Op(node.id)),
        subtree_subjects(left, right),
    ))
}
