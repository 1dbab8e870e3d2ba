//! The exchange operator: one join split into N hash partitions whose
//! result streams merge in arrival order (DESIGN.md §8, §12).
//!
//! [`Exchange`] merges N [`ShardStream`]s and owns, once, everything around
//! them: a pump thread per stream, the bounded output channel, the
//! `next_batch` loop, the close path and the `note_exchange` +
//! `PartitionSkew` report. Only where `open` gets the streams differs
//! ([`Scatter`]):
//!
//! * **Threads** — two repartition drivers pull the real inputs once and
//!   split every batch with [`route_batch`] into bounded per-partition
//!   channels; each stream is a private join instance reading its
//!   channels under a partition harness (shared subject statistics and
//!   overflow method, a budget/N reservation parent-chained to the join's,
//!   a scoped spill store for per-partition I/O attribution).
//! * **Workers** — the join subtree ships as plan text through the
//!   environment's [`ShardExecutor`]; every worker recomputes the inputs
//!   and keeps its shard with the same [`route_batch`]. Each shard's pump
//!   holds a budget/N lease on the join reservation while it runs.
//!
//! Two hazards shape the shared code. An in-process instance opens on its
//! pump thread: a hash join's `open` runs its whole build phase, and
//! instance 0 building on the operator thread would block on partition
//! channels instance 1 never drains. And an early close must wake
//! everything upstream: it drops the output channel, sets every stream's
//! abort flag (also registered with the query control, so cancellation
//! and deadlines unblock worker reads), and deactivates the descendant
//! subjects so drivers parked in link-model sleeps wake up.
//!
//! Equal keys route to the same partition, so every matching pair meets in
//! exactly one partition: the union is multiset-equal to the sequential
//! join.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam_channel::{bounded, Receiver, Sender};

use tukwila_common::{Result, Schema, TukwilaError, TupleBatch};
use tukwila_plan::{JoinKind, OpState, OperatorNode, QuantityProvider, SubjectRef};
use tukwila_storage::{MemoryManager, MemoryReservation, ScopedSpillStore, SpillStore};
use tukwila_trace::{OpMetrics, TraceEvent};

use crate::build::build_join;
use crate::control::QueryControl;
use crate::operator::{Operator, OperatorBox};
use crate::runtime::OpHarness;
use crate::shard::{
    route_batch, subtree_plan_text, subtree_table_deps, ShardExecutor, ShardSpec, ShardStats,
    ShardStream,
};

/// Bounded per-partition channel capacity, in batches. Large enough that a
/// hybrid join's probe side can run ahead while the build side drains,
/// small enough to bound buffered memory.
const PARTITION_QUEUE_CAP: usize = 8;

/// Where an exchange's partition streams come from.
pub enum Scatter {
    /// Instances of a hash-partitionable join on threads of this process,
    /// fed by two repartition drivers pulling the built (unopened) inputs.
    Threads {
        left: OperatorBox,
        right: OperatorBox,
        left_key: String,
        right_key: String,
        kind: JoinKind,
    },
    /// Shards of this join subtree on worker processes, through the
    /// environment's shard executor.
    Workers(OperatorNode),
}

enum Msg {
    Batch(TupleBatch),
    End,
    Err(TukwilaError),
}

/// Partition `i`'s slice of the join reservation: budget/N,
/// parent-chained so every charge rolls up into the join's reservation
/// (and from there into the query and fleet pools).
fn partition_reservation(parent: &MemoryReservation, i: usize, n: usize) -> MemoryReservation {
    MemoryManager::with_parent(parent.clone()).register(
        format!("{}p{i}", parent.name()),
        (parent.budget() / n).max(1),
    )
}

/// Consumer end of one repartitioned stream — the leaf each partition
/// instance's join pulls from. The receiver is dropped at the stream's end
/// or on close, so a driver still sending to it stops.
struct PartitionSource {
    rx: Option<Receiver<Msg>>,
    schema: Schema,
}

impl Operator for PartitionSource {
    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let Some(rx) = &self.rx else {
            return Ok(None);
        };
        let msg = rx.recv();
        if !matches!(msg, Ok(Msg::Batch(_))) {
            self.rx = None;
        }
        match msg {
            Ok(Msg::Batch(b)) => Ok(Some(b)),
            Ok(Msg::End) => Ok(None),
            Ok(Msg::Err(e)) => Err(e),
            // A driver never exits without sending End or Err to every
            // partition; a bare disconnect means it died abnormally.
            Err(_) => Err(TukwilaError::Internal(
                "exchange repartition stream disconnected".into(),
            )),
        }
    }

    fn close(&mut self) -> Result<()> {
        self.rx = None;
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "partition_source"
    }
}

/// Repartition driver: drain `child`, split every batch across `txs` with
/// [`route_batch`], propagate end/error to every partition.
fn drive_side(mut child: OperatorBox, key_idx: usize, txs: Vec<Sender<Msg>>) {
    let end = loop {
        match child.next_batch() {
            Ok(Some(batch)) => {
                let sent = route_batch(batch, key_idx, txs.len(), None)
                    .into_iter()
                    .try_for_each(|(p, part)| txs[p].send(Msg::Batch(part)));
                if sent.is_err() {
                    break None; // consumer went away (early close)
                }
            }
            Ok(None) => break Some(Ok(())),
            Err(e) => break Some(Err(e)),
        }
    };
    if let Some(end) = end {
        for tx in &txs {
            let _ = tx.send(end.clone().map_or_else(Msg::Err, |()| Msg::End));
        }
    }
    let _ = child.close();
}

/// One in-process partition as a shard stream: a private join instance
/// over the partition's repartitioned inputs. `open` only reports the
/// schema; the instance opens on the first `next_batch`, i.e. on its pump
/// thread, and closes once drained, failed, aborted or dropped.
struct PartitionStream {
    /// The join instance; `None` once closed.
    instance: Option<OperatorBox>,
    opened: bool,
    schema: Schema,
    spill: Arc<ScopedSpillStore>,
    control: Arc<QueryControl>,
    abort: Arc<AtomicBool>,
    stats: ShardStats,
}

impl PartitionStream {
    fn step(&mut self) -> Result<Option<TupleBatch>> {
        let Some(instance) = self.instance.as_mut() else {
            return Ok(None);
        };
        if self.abort.load(Ordering::Relaxed) {
            return Err(self
                .control
                .check()
                .err()
                .unwrap_or_else(|| TukwilaError::Cancelled("exchange partition aborted".into())));
        }
        if !std::mem::replace(&mut self.opened, true) {
            instance.open()?;
        }
        instance.next_batch()
    }

    fn close(&mut self) {
        if let Some(mut instance) = self.instance.take() {
            if self.opened {
                let _ = instance.close();
            }
        }
    }
}

impl ShardStream for PartitionStream {
    fn open(&mut self) -> Result<Schema> {
        Ok(self.schema.clone())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let step = self.step();
        match &step {
            Ok(Some(batch)) => {
                self.stats.rows += batch.len() as u64;
                self.stats.batches += 1;
            }
            _ => self.close(),
        }
        step
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            spill_tuples: self.spill.stats().tuples_written() as u64,
            ..self.stats
        }
    }

    fn abort_handle(&self) -> Arc<AtomicBool> {
        self.abort.clone()
    }
}

impl Drop for PartitionStream {
    fn drop(&mut self) {
        self.close();
    }
}

/// The streams a mode's `open` produced, plus what runs beside them.
struct Started {
    streams: Vec<Box<dyn ShardStream>>,
    /// Repartition drivers (threads), spawned once the exchange is open.
    drivers: Vec<Box<dyn FnOnce() + Send>>,
    /// Per-shard leases on the join reservation (workers), held by each
    /// stream's pump while it runs.
    leases: Vec<Option<MemoryReservation>>,
}

/// Drain one partition stream into the merge channel: count its rows,
/// hold its lease while it runs, record its spill total, end with End or
/// Err.
fn pump(
    mut stream: Box<dyn ShardStream>,
    lease: Option<MemoryReservation>,
    rows: Arc<AtomicU64>,
    spills: Arc<AtomicU64>,
    out: Sender<Msg>,
) {
    if let Some(r) = &lease {
        r.charge(r.budget());
    }
    let result = (|| -> Result<()> {
        while let Some(batch) = stream.next_batch()? {
            rows.fetch_add(batch.len() as u64, Ordering::Relaxed);
            if out.send(Msg::Batch(batch)).is_err() {
                return Ok(()); // consumer gone (early close)
            }
        }
        Ok(())
    })();
    spills.store(stream.stats().spill_tuples, Ordering::Relaxed);
    // Done with the budget slice either way: the governor sees the memory
    // come back even when the worker died mid-query.
    if let Some(r) = lease {
        r.release(r.budget());
    }
    drop(stream); // an in-process instance closes before its end marker
    let _ = out.send(match result {
        Ok(()) => Msg::End,
        Err(e) => Msg::Err(e),
    });
}

/// The exchange operator (see module docs).
pub struct Exchange {
    scatter: Option<Scatter>,
    partitions: usize,
    /// Harness of the exchange plan node (merge-side statistics).
    harness: OpHarness,
    /// Plain harness of the inner join node: lifecycle + reservation
    /// parent; partition instances derive their harnesses from it.
    join_harness: OpHarness,
    /// Descendant subjects deactivated on early close so repartition
    /// drivers blocked inside link-model sleeps wake up.
    descendants: Vec<SubjectRef>,
    // -- runtime state (after open) --
    schema: Schema,
    rx: Option<Receiver<Msg>>,
    threads: Vec<JoinHandle<()>>,
    live: usize,
    abort_flags: Vec<Arc<AtomicBool>>,
    /// Output rows per partition, for the skew snapshot.
    rows: Vec<Arc<AtomicU64>>,
    /// Spilled tuples per partition, for `note_exchange`.
    spills: Vec<Arc<AtomicU64>>,
    metrics: Option<Arc<OpMetrics>>,
    reported: bool,
    opened: bool,
}

impl Exchange {
    /// An exchange running `partitions` partitions of the join described
    /// by `scatter`. `harness` is the exchange node's; `join_harness` the
    /// inner join node's.
    pub fn new(
        scatter: Scatter,
        partitions: usize,
        harness: OpHarness,
        join_harness: OpHarness,
    ) -> Self {
        Exchange {
            scatter: Some(scatter),
            partitions: partitions.max(1),
            harness,
            join_harness,
            descendants: Vec::new(),
            schema: Schema::empty(),
            rx: None,
            threads: Vec::new(),
            live: 0,
            abort_flags: Vec::new(),
            rows: Vec::new(),
            spills: Vec::new(),
            metrics: None,
            reported: false,
            opened: false,
        }
    }

    /// Record descendant subjects for cancellation on early close.
    pub fn with_descendants(mut self, subjects: Vec<SubjectRef>) -> Self {
        self.descendants = subjects;
        self
    }

    /// Open both inputs and wire N join instances to two repartition
    /// drivers over bounded partition channels.
    fn start_threads(
        &self,
        mut left: OperatorBox,
        mut right: OperatorBox,
        left_key: String,
        right_key: String,
        kind: JoinKind,
    ) -> Result<Started> {
        // Eligibility first, before any child holds resources (the
        // builder only scatters partitionable kinds to threads, but
        // hand-built plans reach this path too).
        if !kind.is_hash_partitionable() {
            return Err(TukwilaError::Plan(format!(
                "exchange cannot partition a {kind:?} join"
            )));
        }
        left.open()?;
        if let Err(e) = right.open() {
            let _ = left.close();
            return Err(e);
        }
        let (lkey, rkey) = left
            .schema()
            .index_of(&left_key)
            .and_then(|l| Ok((l, right.schema().index_of(&right_key)?)))
            .inspect_err(|_| {
                let _ = left.close();
                let _ = right.close();
            })?;
        let (left_schema, right_schema) = (left.schema().clone(), right.schema().clone());
        let schema = left_schema.concat(&right_schema);

        let n = self.partitions;
        let rt = self.harness.runtime();
        let parent = self.join_harness.reservation();
        let (mut ltxs, mut rtxs) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut streams: Vec<Box<dyn ShardStream>> = Vec::with_capacity(n);
        for i in 0..n {
            let (ltx, lrx) = bounded::<Msg>(PARTITION_QUEUE_CAP);
            let (rtx, rrx) = bounded::<Msg>(PARTITION_QUEUE_CAP);
            ltxs.push(ltx);
            rtxs.push(rtx);
            let spill = Arc::new(ScopedSpillStore::new(rt.env().spill.clone()));
            let reservation = parent.as_ref().map(|p| partition_reservation(p, i, n));
            let source = |rx, schema: &Schema| -> OperatorBox {
                Box::new(PartitionSource {
                    rx: Some(rx),
                    schema: schema.clone(),
                })
            };
            let instance = build_join(
                kind,
                source(lrx, &left_schema),
                source(rrx, &right_schema),
                left_key.clone(),
                right_key.clone(),
                self.join_harness.for_partition(reservation, spill.clone()),
                Vec::new(),
            );
            streams.push(Box::new(PartitionStream {
                instance: Some(instance),
                opened: false,
                schema: schema.clone(),
                spill,
                control: rt.control().clone(),
                abort: Arc::new(AtomicBool::new(false)),
                stats: ShardStats::default(),
            }));
        }
        Ok(Started {
            streams,
            drivers: vec![
                Box::new(move || drive_side(left, lkey, ltxs)),
                Box::new(move || drive_side(right, rkey, rtxs)),
            ],
            leases: vec![None; n],
        })
    }

    /// Dispatch N shards of `node` through the environment's shard
    /// executor.
    fn start_workers(&self, node: &OperatorNode) -> Result<Started> {
        let n = self.partitions;
        let rt = self.harness.runtime();
        let executor: Arc<dyn ShardExecutor> = rt
            .env()
            .shard_executor
            .clone()
            .ok_or_else(|| TukwilaError::Internal("exchange without shard executor".into()))?;
        let parent = self.join_harness.reservation();
        let leases: Vec<Option<MemoryReservation>> = (0..n)
            .map(|i| parent.as_ref().map(|p| partition_reservation(p, i, n)))
            .collect();
        // 0 = unbounded.
        let shard_budget = leases[0].as_ref().map_or(0, |r| r.budget());
        let deadline = rt
            .control()
            .deadline()
            .map(|d| d.saturating_duration_since(Instant::now()));
        let tables = subtree_table_deps(node)
            .into_iter()
            .map(|name| rt.env().local.get(&name).map(|rel| (name, rel)))
            .collect::<Result<Vec<_>>>()?;
        let spec = ShardSpec {
            plan_text: subtree_plan_text(node, shard_budget),
            tables,
            shard_count: n,
            batch_size: rt.env().batch_size,
            shard_budget,
            deadline,
        };
        let streams = executor.start(&spec, rt.control(), rt.trace())?;
        if streams.len() != n {
            return Err(TukwilaError::Internal(format!(
                "shard executor started {} of {n} shards",
                streams.len()
            )));
        }
        Ok(Started {
            streams,
            drivers: Vec::new(),
            leases,
        })
    }

    fn shutdown_threads(&mut self) {
        self.rx = None;
        for flag in &self.abort_flags {
            flag.store(true, Ordering::Relaxed);
        }
        let rt = self.harness.runtime();
        for d in &self.descendants {
            if rt.state(*d) == OpState::Open {
                rt.deactivate(*d);
            }
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }

    /// Push this run's per-partition spill counters into the runtime
    /// (once).
    fn report_partition_stats(&mut self) {
        if self.reported || self.spills.is_empty() {
            return;
        }
        self.reported = true;
        let load = |v: &[Arc<AtomicU64>]| -> Vec<u64> {
            v.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        let rt = self.harness.runtime();
        let op = self.join_harness.op_id().unwrap_or(u32::MAX);
        rt.note_exchange(op, &load(&self.spills));
        if rt.trace().events_enabled() {
            let rows = load(&self.rows);
            rt.trace().emit(TraceEvent::PartitionSkew { op, rows });
        }
    }
}

impl Operator for Exchange {
    fn open(&mut self) -> Result<()> {
        let Started {
            mut streams,
            drivers,
            leases,
        } = match self.scatter.take() {
            Some(Scatter::Threads {
                left,
                right,
                left_key,
                right_key,
                kind,
            }) => self.start_threads(left, right, left_key, right_key, kind)?,
            Some(Scatter::Workers(node)) => self.start_workers(&node)?,
            None => return Err(TukwilaError::Internal("Exchange opened twice".into())),
        };

        // Open every stream up front: a worker's blocks until it opened
        // the fragment, so connection and plan errors surface here rather
        // than mid-merge (workers stream ahead against their initial
        // credits meanwhile). On failure, abort the survivors.
        for flag in streams.iter().map(|s| s.abort_handle()) {
            self.harness.register_cancel(flag.clone());
            self.abort_flags.push(flag);
        }
        for stream in streams.iter_mut() {
            match stream.open() {
                Ok(schema) => self.schema = schema,
                Err(e) => {
                    self.shutdown_threads();
                    return Err(e);
                }
            }
        }

        let n = streams.len();
        self.metrics = self.harness.metrics("exchange");
        self.rows = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
        self.spills = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();

        // Lifecycle: the exchange owns the shared join subject's state.
        self.join_harness.opened();
        self.harness.opened();
        self.opened = true;

        self.threads
            .extend(drivers.into_iter().map(std::thread::spawn));
        let (out_tx, out_rx) = bounded::<Msg>(n.max(2) * 2);
        for (i, (stream, lease)) in streams.into_iter().zip(leases).enumerate() {
            let (rows, spills, out) =
                (self.rows[i].clone(), self.spills[i].clone(), out_tx.clone());
            self.threads.push(std::thread::spawn(move || {
                pump(stream, lease, rows, spills, out)
            }));
        }
        self.live = n;
        self.rx = Some(out_rx);
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        loop {
            if self.live == 0 {
                return Ok(None);
            }
            let Some(rx) = &self.rx else {
                return Ok(None);
            };
            let waited = self.metrics.as_ref().map(|_| Instant::now());
            let msg = rx.recv();
            if let (Some(m), Some(t0)) = (&self.metrics, waited) {
                m.add_queue_stall_ns(t0.elapsed().as_nanos() as u64);
            }
            match msg {
                Ok(Msg::Batch(b)) => {
                    if let Some(m) = &self.metrics {
                        m.add_output(b.len() as u64);
                    }
                    self.harness.produced(b.len() as u64);
                    return Ok(Some(b));
                }
                Ok(Msg::End) => {
                    self.live -= 1;
                }
                Ok(Msg::Err(e)) => {
                    self.harness.failed();
                    self.shutdown_threads();
                    return Err(e);
                }
                Err(_) => {
                    return Err(TukwilaError::Internal(
                        "exchange output channel disconnected".into(),
                    ))
                }
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.shutdown_threads();
        self.report_partition_stats();
        if self.opened {
            self.join_harness.closed();
            self.harness.closed();
            self.opened = false;
        }
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "exchange"
    }
}
