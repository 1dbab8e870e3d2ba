//! Instantiate operator trees from plan nodes.

use std::sync::Arc;

use tukwila_common::Result;
use tukwila_plan::{JoinKind, OperatorNode, OperatorSpec, SubjectRef};

use crate::operator::OperatorBox;
use crate::operators::exchange::Scatter;
use crate::operators::{
    Collector, DependentJoin, DoublePipelinedJoin, Exchange, Filter, HashJoinOp, NestedLoopsJoin,
    Project, SortMergeJoin, TableScan, UnionAll, WrapperScan,
};
use crate::runtime::{OpHarness, PlanRuntime};

/// Build the executable operator for a plan node (recursively building its
/// children). The operator is not yet opened.
pub fn build_operator(node: &OperatorNode, rt: &Arc<PlanRuntime>) -> Result<OperatorBox> {
    let harness = OpHarness::new(rt.clone(), SubjectRef::Op(node.id));
    Ok(match &node.spec {
        OperatorSpec::TableScan { table } => Box::new(TableScan::new(table.clone(), harness)),
        OperatorSpec::WrapperScan {
            source,
            timeout_ms,
            prefetch,
        } => Box::new(WrapperScan::new(
            source.clone(),
            *timeout_ms,
            *prefetch,
            harness,
        )),
        OperatorSpec::Select { input, predicate } => Box::new(Filter::new(
            build_operator(input, rt)?,
            predicate.clone(),
            harness,
        )),
        OperatorSpec::Project { input, columns } => Box::new(Project::new(
            build_operator(input, rt)?,
            columns.clone(),
            harness,
        )),
        OperatorSpec::Join {
            left,
            right,
            left_key,
            right_key,
            kind,
            overflow: _,
        } => build_join(
            *kind,
            build_operator(left, rt)?,
            build_operator(right, rt)?,
            left_key.clone(),
            right_key.clone(),
            harness,
            subtree_subjects(left, right),
        ),
        OperatorSpec::DependentJoin {
            left,
            source,
            bind_col,
            probe_col,
        } => Box::new(DependentJoin::new(
            build_operator(left, rt)?,
            source.clone(),
            bind_col.clone(),
            probe_col.clone(),
            harness,
        )),
        OperatorSpec::Union { inputs } => {
            let children = inputs
                .iter()
                .map(|i| build_operator(i, rt))
                .collect::<Result<Vec<_>>>()?;
            Box::new(UnionAll::new(children, harness))
        }
        OperatorSpec::Collector {
            children,
            quota,
            child_timeout_ms,
        } => Box::new(Collector::new(
            children.clone(),
            *quota,
            *child_timeout_ms,
            harness,
        )),
        OperatorSpec::Exchange { input, partitions } => {
            let OperatorSpec::Join {
                left,
                right,
                left_key,
                right_key,
                kind,
                overflow: _,
            } = &input.spec
            else {
                return build_operator(input, rt);
            };
            // With a shard executor installed (coordinator role) the
            // partitions run on worker processes; sharding by join-key
            // hash is correct for any equi-join kind. Without one, only
            // hash-partitionable joins with an actual degree run on
            // threads; everything else executes as a transparent
            // passthrough (the wrapper node stays registered but idle).
            let scatter = if rt.env().shard_executor.is_some() {
                Scatter::Workers((**input).clone())
            } else if *partitions > 1 && kind.is_hash_partitionable() {
                Scatter::Threads {
                    left: build_operator(left, rt)?,
                    right: build_operator(right, rt)?,
                    left_key: left_key.clone(),
                    right_key: right_key.clone(),
                    kind: *kind,
                }
            } else {
                return build_operator(input, rt);
            };
            let join_harness = OpHarness::new(rt.clone(), SubjectRef::Op(input.id));
            Box::new(
                Exchange::new(scatter, *partitions, harness, join_harness)
                    .with_descendants(subtree_subjects(left, right)),
            )
        }
    })
}

/// The one place a [`JoinKind`] becomes a join operator. `descendants`
/// (the subjects of both input subtrees) lets a double pipelined join
/// wake drivers parked in link-model sleeps when it closes early; the
/// other kinds pull their children on the calling thread and ignore it.
pub fn build_join(
    kind: JoinKind,
    l: OperatorBox,
    r: OperatorBox,
    lk: String,
    rk: String,
    harness: OpHarness,
    descendants: Vec<SubjectRef>,
) -> OperatorBox {
    match kind {
        JoinKind::DoublePipelined => {
            Box::new(DoublePipelinedJoin::new(l, r, lk, rk, harness).with_descendants(descendants))
        }
        JoinKind::HybridHash => Box::new(HashJoinOp::hybrid(l, r, lk, rk, harness)),
        JoinKind::GraceHash => Box::new(HashJoinOp::grace(l, r, lk, rk, harness)),
        JoinKind::NestedLoops => Box::new(NestedLoopsJoin::new(l, r, lk, rk, harness)),
        JoinKind::SortMerge => Box::new(SortMergeJoin::new(l, r, lk, rk, harness)),
    }
}

/// Subjects of every operator under a join's two inputs.
pub(crate) fn subtree_subjects(left: &OperatorNode, right: &OperatorNode) -> Vec<SubjectRef> {
    left.all_ids()
        .into_iter()
        .chain(right.all_ids())
        .map(SubjectRef::Op)
        .collect()
}
