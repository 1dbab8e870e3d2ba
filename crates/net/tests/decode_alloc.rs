//! Decoders of bytes from outside the process allocate in proportion to
//! the bytes they are given, never to the counts a header claims: each
//! frame below claims a huge count and then ends, and decoding it must
//! return `Err` with a peak allocation bounded by a small multiple of the
//! input length — and so must reading it off a connection. Its own test binary, for the counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use tukwila_net::{decode_msg, FrameReader};
use tukwila_storage::codec::decode_batch;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every call to `System`, only counting sizes on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            PEAK.fetch_max(
                LIVE.fetch_add(layout.size(), Relaxed) + layout.size(),
                Relaxed,
            );
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Wire frame kinds (`tukwila_net::protocol`); `BATCH` stands for a bare
/// codec batch frame, `READ` for bytes read off a connection.
const BATCH: u8 = 0;
const READ: u8 = 255;
const K_DISPATCH: u8 = 3;
const K_STARTED: u8 = 4;

/// A dispatch payload up to its table list — shard 0 of 2, batch size 64,
/// no budget, no deadline, 8 credits, empty plan text — then `rest`.
fn dispatch(rest: &[u8]) -> Vec<u8> {
    let mut f = [0u32, 2, 64].map(u32::to_le_bytes).concat();
    f.extend([0u64, u64::MAX].map(u64::to_le_bytes).concat());
    f.extend([8u32, 0].map(u32::to_le_bytes).concat());
    f.extend_from_slice(rest);
    f
}

#[test]
fn hostile_counts_fail_with_allocation_bounded_by_input() {
    let frames: [(&str, u8, Vec<u8>); 9] = [
        // A frame header declaring a 1 GiB payload, then end of stream.
        ("reader", READ, vec![5, 0, 0, 0, 0x40]),
        // Columnar: 2^26 rows, one column of tagged values.
        ("batch/values", BATCH, vec![0, 0, 0, 0x84, 1, 0, 0, 0, 4]),
        // Columnar: 2^26 rows, one int64 column without validity.
        ("batch/int64", BATCH, vec![0, 0, 0, 0x84, 1, 0, 0, 0, 0, 0]),
        // Columnar: 2^26 rows, 2^20 columns.
        ("batch/ncols", BATCH, vec![0, 0, 0, 0x84, 0, 0, 0x10, 0]),
        // Rows: 2^26 tuples.
        ("batch/rows", BATCH, vec![0, 0, 0, 0x04]),
        // Rows: one tuple of arity 2^20.
        ("batch/arity", BATCH, vec![1, 0, 0, 0, 0, 0, 0x10, 0]),
        // Started: a schema of 2^20 fields.
        ("schema", K_STARTED, vec![0, 0, 0x10, 0]),
        // Dispatch: one table with an empty name and schema, 2^20 chunks.
        (
            "relation",
            K_DISPATCH,
            dispatch(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10, 0]),
        ),
        // Dispatch: 2^16 tables.
        ("tables", K_DISPATCH, dispatch(&[0, 0, 1, 0])),
    ];
    let mut failures = Vec::new();
    for (name, kind, bytes) in &frames {
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        let is_err = match *kind {
            BATCH => decode_batch(bytes, &mut 0).is_err(),
            READ => FrameReader::new(&bytes[..]).read_frame().is_err(),
            k => decode_msg(k, bytes).is_err(),
        };
        let peak = PEAK.load(Relaxed).saturating_sub(base);
        // The error message, plus a few bytes of decoded state per input
        // byte.
        let bound = 256 + 16 * bytes.len();
        if !is_err || peak > bound {
            failures.push(format!(
                "{name}: err={is_err}, peak {peak} B for {} B of input (bound {bound} B)",
                bytes.len()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
