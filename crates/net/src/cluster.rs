//! The coordinator half of distributed exchange: a [`Cluster`] dials a
//! pool of worker addresses and implements
//! [`tukwila_exec::ShardExecutor`] by scattering one shard dispatch per
//! partition (round-robin across workers) and returning a TCP-backed
//! [`tukwila_exec::ShardStream`] per shard.
//!
//! Failure semantics: a worker dying mid-query surfaces on its stream as
//! an `Io` error (the frame reader sees EOF, never a hang — reads tick
//! every 50ms to observe cancel flags) and emits a `worker-lost` trace
//! event; the consuming `Exchange` then fails the query and releases the
//! shard's memory reservation.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tukwila_common::{Result, Schema, TukwilaError, TupleBatch};
use tukwila_exec::{QueryControl, ShardExecutor, ShardSpec, ShardStats, ShardStream};
use tukwila_trace::{QueryTrace, TraceEvent};

use crate::protocol::{
    decode_msg, error_from_wire, Dispatch, FrameReader, FrameWriter, Msg, CREDIT_WINDOW,
    NET_VERSION,
};

/// Handshake must complete within this long.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// Steady-state read tick: how long a blocked batch read waits before
/// re-checking abort/cancel flags.
const STREAM_TICK: Duration = Duration::from_millis(50);

/// A pool of worker addresses acting as the coordinator's shard executor.
/// Shards are dealt round-robin: shard `i` runs on worker `i % workers`,
/// so partition degrees above the worker count multiplex cleanly.
pub struct Cluster {
    addrs: Vec<String>,
}

impl Cluster {
    /// A pool over `addrs` without probing — workers may come up later;
    /// dial errors surface when a query's exchange opens. The service tier
    /// uses this so constructing a coordinator never blocks on workers.
    pub fn new<S: AsRef<str>>(addrs: &[S]) -> Cluster {
        Cluster {
            addrs: addrs.iter().map(|a| a.as_ref().to_string()).collect(),
        }
    }

    /// Probe every address with a handshake and return the pool.
    /// Fail-fast: an unreachable or protocol-mismatched worker is an error
    /// here, not mid-query.
    pub fn connect<S: AsRef<str>>(addrs: &[S]) -> Result<Cluster> {
        if addrs.is_empty() {
            return Err(TukwilaError::Io("net: empty worker address list".into()));
        }
        let cluster = Cluster::new(addrs);
        for addr in &cluster.addrs {
            dial(addr)?;
        }
        Ok(cluster)
    }

    /// The pool's worker addresses, in dispatch order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }
}

/// Dial `addr` and complete the version handshake; returns the framed
/// connection with the steady-state read tick installed.
fn dial(addr: &str) -> Result<(FrameReader<TcpStream>, FrameWriter<TcpStream>)> {
    let conn = TcpStream::connect(addr)
        .map_err(|e| TukwilaError::Io(format!("net: connect {addr}: {e}")))?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(STREAM_TICK))?;
    let mut reader = FrameReader::new(conn.try_clone()?);
    let mut writer = FrameWriter::new(conn);
    writer.send_hello()?;
    let started = Instant::now();
    loop {
        if let Some((kind, payload)) = reader.read_frame()? {
            match decode_msg(kind, payload)? {
                Msg::HelloAck { version } if version == NET_VERSION => break,
                Msg::HelloAck { version } => {
                    return Err(TukwilaError::Io(format!(
                        "net: worker {addr} speaks protocol v{version}, expected v{NET_VERSION}"
                    )))
                }
                Msg::Error { kind, message } => return Err(error_from_wire(addr, &kind, &message)),
                other => {
                    return Err(TukwilaError::Io(format!(
                        "net: worker {addr}: expected HelloAck, got {other:?}"
                    )))
                }
            }
        }
        if started.elapsed() > HANDSHAKE_TIMEOUT {
            return Err(TukwilaError::Io(format!(
                "net: worker {addr}: handshake timed out"
            )));
        }
    }
    Ok((reader, writer))
}

impl ShardExecutor for Cluster {
    fn start(
        &self,
        spec: &ShardSpec,
        control: &Arc<QueryControl>,
        trace: &Arc<QueryTrace>,
    ) -> Result<Vec<Box<dyn ShardStream>>> {
        let mut streams: Vec<Box<dyn ShardStream>> = Vec::with_capacity(spec.shard_count);
        for shard in 0..spec.shard_count {
            let addr = &self.addrs[shard % self.addrs.len()];
            let (reader, mut writer) = dial(addr)?;
            trace.emit(TraceEvent::WorkerConnected {
                worker: addr.clone(),
            });
            let dispatch = Dispatch {
                shard_index: shard as u32,
                shard_count: spec.shard_count as u32,
                batch_size: spec.batch_size as u32,
                shard_budget: spec.shard_budget as u64,
                deadline: spec.deadline,
                initial_credits: CREDIT_WINDOW,
                plan_text: spec.plan_text.clone(),
                tables: spec.tables.clone(),
            };
            let bytes = writer.send_dispatch(&dispatch)?;
            trace.emit(TraceEvent::NetBatchSent {
                worker: addr.clone(),
                bytes,
            });
            streams.push(Box::new(TcpShardStream {
                worker: addr.clone(),
                reader,
                writer,
                control: control.clone(),
                trace: trace.clone(),
                abort: Arc::new(AtomicBool::new(false)),
                stats: ShardStats::default(),
                finished: false,
            }));
        }
        Ok(streams)
    }
}

/// One shard's TCP-backed result stream at the coordinator.
struct TcpShardStream {
    worker: String,
    reader: FrameReader<TcpStream>,
    writer: FrameWriter<TcpStream>,
    control: Arc<QueryControl>,
    trace: Arc<QueryTrace>,
    abort: Arc<AtomicBool>,
    stats: ShardStats,
    finished: bool,
}

impl TcpShardStream {
    /// Bail out of a blocked read: tell the worker to stop, then surface
    /// the cancellation to the exchange.
    fn aborted(&mut self) -> TukwilaError {
        let _ = self.writer.send_cancel();
        match self.control.check() {
            Err(e) => e,
            Ok(()) => TukwilaError::Cancelled(format!("shard stream to {} aborted", self.worker)),
        }
    }

    fn lost(&mut self, e: TukwilaError) -> TukwilaError {
        self.finished = true;
        self.trace.emit(TraceEvent::WorkerLost {
            worker: self.worker.clone(),
            reason: e.to_string(),
        });
        TukwilaError::Io(format!("net: worker {} died mid-query: {e}", self.worker))
    }

    /// Wait for the next frame, observing abort/cancel on every tick.
    fn next_msg(&mut self) -> Result<(Msg, u64)> {
        loop {
            if self.abort.load(Ordering::Relaxed) {
                return Err(self.aborted());
            }
            let before = self.reader.bytes_received();
            match self.reader.read_frame() {
                Ok(None) => continue,
                Ok(Some((kind, payload))) => {
                    let msg = decode_msg(kind, payload)?;
                    return Ok((msg, self.reader.bytes_received() - before));
                }
                Err(e) => return Err(self.lost(e)),
            }
        }
    }
}

impl ShardStream for TcpShardStream {
    fn open(&mut self) -> Result<Schema> {
        match self.next_msg()? {
            (Msg::Started { schema }, _) => Ok(schema),
            (Msg::Error { kind, message }, _) => {
                self.finished = true;
                Err(error_from_wire(&self.worker, &kind, &message))
            }
            (other, _) => Err(TukwilaError::Io(format!(
                "net: worker {}: expected Started, got {other:?}",
                self.worker
            ))),
        }
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        if self.finished {
            return Ok(None);
        }
        match self.next_msg()? {
            (Msg::Batch(batch), bytes) => {
                self.trace.emit(TraceEvent::NetBatchReceived {
                    worker: self.worker.clone(),
                    bytes,
                });
                // Credits are advisory flow control: a worker that already
                // sent Done and hung up may reset this write, which is not
                // an error — a genuinely dead worker is detected by the
                // read path, never the credit path.
                let _ = self.writer.send_credit(1);
                Ok(Some(batch))
            }
            (Msg::Done(stats), _) => {
                self.finished = true;
                self.stats = stats;
                if stats.backpressure_stalls > 0 {
                    self.trace.emit(TraceEvent::BackpressureStall {
                        worker: self.worker.clone(),
                        stalls: stats.backpressure_stalls,
                    });
                }
                Ok(None)
            }
            (Msg::Error { kind, message }, _) => {
                self.finished = true;
                Err(error_from_wire(&self.worker, &kind, &message))
            }
            (other, _) => Err(TukwilaError::Io(format!(
                "net: worker {}: unexpected frame {other:?}",
                self.worker
            ))),
        }
    }

    fn stats(&self) -> ShardStats {
        self.stats
    }

    fn abort_handle(&self) -> Arc<AtomicBool> {
        self.abort.clone()
    }
}
