//! `tukwila-net`: distributed exchange — shared-nothing coordinator/worker
//! shard execution over a columnar wire protocol (DESIGN.md §12).
//!
//! The optimizer-lowered exchange over a join
//! (`tukwila_exec::operators::Exchange`) normally takes its partition
//! streams from local threads. With a [`Cluster`] installed as the
//! engine's [`tukwila_exec::ShardExecutor`], the same operator takes them
//! from worker *processes* over TCP and merges them the same way. Each
//! worker runs a [`WorkerServer`], rebuilds the join's inputs from its own
//! sources, keeps its shard with the routing thread partitions use
//! ([`tukwila_exec::shard::route_batch`]), and streams result batches back in the
//! spill codec's columnar frame format under credit-based backpressure.
//!
//! `std::net` only — no external networking dependencies.

pub mod cluster;
pub mod protocol;
pub mod worker;

pub use cluster::Cluster;
pub use protocol::{
    decode_msg, error_from_wire, Dispatch, FrameReader, FrameWriter, Msg, CREDIT_WINDOW,
    MAX_FRAME_LEN, NET_MAGIC, NET_VERSION,
};
pub use worker::{WorkerHandle, WorkerServer};
