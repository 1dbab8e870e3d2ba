//! `FileSpillStore`'s write and read path with memory in place of files.
//!
//! The benchmark writes nothing outside the working tree it runs in, and
//! that tree sits on a disk: with `FileSpillStore` files there, spilling
//! queries doubled in latency and drifted from run to run with the disk's
//! state (see `NOTES.md`), which measures the machine, not Tukwila. This
//! store encodes every write into one frame with the storage crate's codec
//! and keeps the frame, and decodes the bucket's frames on read, exactly as
//! the file store does minus the file system calls.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tukwila_common::{Result, TukwilaError, Tuple, TupleBatch};
use tukwila_storage::codec::{decode_batch, encode_batch, encode_batch_frame};
use tukwila_storage::{InMemorySpillStore, IoStats, SpillBucket, SpillStore};

/// One bucket's encoded frames. Each frame keeps its own allocation, so
/// appending never copies earlier frames, and a read shares them instead
/// of holding the lock while it decodes.
#[derive(Default)]
struct Bucket {
    frames: Vec<Arc<[u8]>>,
    tuples: usize,
}

/// Spill frames held in memory.
#[derive(Default)]
pub struct FrameStore {
    /// Mints bucket handles (the handle type has no public constructor)
    /// and owns the flush-event counter.
    ids: InMemorySpillStore,
    buckets: Mutex<HashMap<SpillBucket, Bucket>>,
}

impl FrameStore {
    /// An empty store.
    pub fn new() -> Self {
        FrameStore::default()
    }

    fn append(&self, bucket: SpillBucket, frame: Vec<u8>, tuples: usize) -> Result<()> {
        let mut guard = self.buckets.lock().expect("frame store lock poisoned");
        let b = guard
            .get_mut(&bucket)
            .ok_or_else(|| TukwilaError::Internal(format!("unknown spill bucket {bucket:?}")))?;
        b.frames.push(frame.into());
        b.tuples += tuples;
        Ok(())
    }
}

impl SpillStore for FrameStore {
    fn create_bucket(&self, label: &str) -> SpillBucket {
        let bucket = self.ids.create_bucket(label);
        self.buckets
            .lock()
            .expect("frame store lock poisoned")
            .insert(bucket, Bucket::default());
        bucket
    }

    fn write(&self, bucket: SpillBucket, tuples: &[Tuple]) -> Result<()> {
        let mut frame = Vec::new();
        encode_batch(tuples, &mut frame);
        self.append(bucket, frame, tuples.len())
    }

    fn write_batch(&self, bucket: SpillBucket, batch: &TupleBatch) -> Result<()> {
        let mut frame = Vec::new();
        encode_batch_frame(batch, &mut frame);
        self.append(bucket, frame, batch.len())
    }

    fn read_all(&self, bucket: SpillBucket) -> Result<Vec<Tuple>> {
        let (frames, n) = {
            let guard = self.buckets.lock().expect("frame store lock poisoned");
            let b = guard.get(&bucket).ok_or_else(|| {
                TukwilaError::Internal(format!("unknown spill bucket {bucket:?}"))
            })?;
            (b.frames.clone(), b.tuples)
        };
        let mut tuples = Vec::with_capacity(n);
        for frame in &frames {
            let mut pos = 0;
            while pos < frame.len() {
                tuples.extend(decode_batch(frame, &mut pos)?);
            }
        }
        Ok(tuples)
    }

    fn len(&self, bucket: SpillBucket) -> usize {
        self.buckets
            .lock()
            .expect("frame store lock poisoned")
            .get(&bucket)
            .map(|b| b.tuples)
            .unwrap_or(0)
    }

    fn remove_bucket(&self, bucket: SpillBucket) {
        self.buckets
            .lock()
            .expect("frame store lock poisoned")
            .remove(&bucket);
        self.ids.remove_bucket(bucket);
    }

    /// The minting store's counters: flush events only. Per-query byte and
    /// tuple counts come from the `ScopedSpillStore` every query wraps
    /// around this store.
    fn stats(&self) -> &Arc<IoStats> {
        self.ids.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_common::tuple;

    #[test]
    fn frames_round_trip_per_bucket() {
        let store = FrameStore::new();
        let a = store.create_bucket("a");
        let b = store.create_bucket("b");
        store
            .write(a, &[tuple![1, "x"], tuple![2, "y"]])
            .expect("write a");
        store
            .write_batch(b, &TupleBatch::from_tuples(vec![tuple![3, "z"]]))
            .expect("write b");
        store.write(a, &[tuple![4, "w"]]).expect("append a");
        assert_eq!(store.len(a), 3);
        assert_eq!(
            store.read_all(a).expect("read a"),
            vec![tuple![1, "x"], tuple![2, "y"], tuple![4, "w"]]
        );
        assert_eq!(store.read_all(b).expect("read b"), vec![tuple![3, "z"]]);
        store.remove_bucket(a);
        assert!(store.read_all(a).is_err());
    }
}
