//! Order-insensitive result fingerprints, computed outside every timed
//! interval and compared with the reference answer's.
//!
//! The hash is the benchmark's own (not the engine's), so a bug in an
//! engine kernel cannot cancel out of both sides of the comparison.

use std::hash::{Hash, Hasher};

use tukwila_common::{Column, ColumnarBatch, Relation, Schema, Tuple, TupleBatch};

/// Row count plus two independent multiset sums of per-row hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Result rows.
    pub rows: u64,
    sum: u64,
    mixed: u64,
}

/// Multiply-rotate hash over the bytes a value hashes, eight at a time.
struct RowHasher(u64);

impl RowHasher {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(23) ^ w).wrapping_mul(Self::K);
    }
}

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w) ^ ((rest.len() as u64) << 59));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Fingerprint {
    fn empty() -> Self {
        Fingerprint {
            rows: 0,
            sum: 0,
            mixed: 0,
        }
    }

    fn add_row_hash(&mut self, h: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
        self.mixed = self.mixed.wrapping_add(mix(h ^ 0x9e37_79b9_7f4a_7c15));
    }

    /// Fingerprint rows whose columns are read in the order `order`.
    pub fn of_rows<'a>(rows: impl IntoIterator<Item = &'a Tuple>, order: &[usize]) -> Self {
        let mut fp = Fingerprint::empty();
        for t in rows {
            let mut h = RowHasher(RowHasher::SEED);
            for &c in order {
                t.value(c).hash(&mut h);
            }
            fp.add_row_hash(h.finish());
        }
        fp
    }

    fn of_columns(cols: &ColumnarBatch, order: &[usize]) -> Self {
        let picked: Vec<&Column> = order.iter().map(|&c| cols.col(c)).collect();
        let mut fp = Fingerprint::empty();
        for i in 0..cols.len() {
            let mut h = RowHasher(RowHasher::SEED);
            for col in &picked {
                col.value_at(i).hash(&mut h);
            }
            fp.add_row_hash(h.finish());
        }
        fp
    }

    /// Fingerprint a stream of batches, columns in their natural order.
    pub fn of_batches(batches: &[TupleBatch]) -> Self {
        let mut fp = Fingerprint::empty();
        for b in batches {
            let part = match b.columns() {
                Some(cols) => {
                    Fingerprint::of_columns(cols, &(0..cols.num_cols()).collect::<Vec<_>>())
                }
                None => {
                    let arity = b.get(0).map(Tuple::arity).unwrap_or(0);
                    Fingerprint::of_rows(b.tuples(), &(0..arity).collect::<Vec<_>>())
                }
            };
            fp.rows += part.rows;
            fp.sum = fp.sum.wrapping_add(part.sum);
            fp.mixed = fp.mixed.wrapping_add(part.mixed);
        }
        fp
    }

    /// Fingerprint a relation with its columns in canonical order (sorted
    /// by qualified name), so plans that emit the join's columns in
    /// different orders agree. Reads whichever representation the
    /// relation already holds.
    pub fn of_relation(rel: &Relation) -> Self {
        let order = canonical_order(rel.schema());
        match rel.columnar_cached() {
            Some(cols) => Fingerprint::of_columns(cols, &order),
            None => Fingerprint::of_rows(rel.tuples(), &order),
        }
    }
}

/// Column indices of `schema` sorted by qualified name.
fn canonical_order(schema: &Schema) -> Vec<usize> {
    let mut order: Vec<usize> = (0..schema.arity()).collect();
    order.sort_by_key(|&i| schema.field(i).qualified_name());
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_common::{tuple, DataType};

    #[test]
    fn fingerprint_ignores_row_and_column_order() {
        let ab = Schema::of("t", &[("a", DataType::Int), ("b", DataType::Str)]);
        let ba = Schema::of("t", &[("b", DataType::Str), ("a", DataType::Int)]);
        let r1 = Relation::new(ab, vec![tuple![1, "x"], tuple![2, "y"]]).expect("arity");
        let r2 = Relation::new(ba, vec![tuple!["y", 2], tuple!["x", 1]]).expect("arity");
        assert_eq!(Fingerprint::of_relation(&r1), Fingerprint::of_relation(&r2));
        let cols = Relation::from_columnar(r1.schema().clone(), (**r1.columnar()).clone())
            .expect("columnar");
        assert_eq!(
            Fingerprint::of_relation(&cols),
            Fingerprint::of_relation(&r1)
        );
    }

    #[test]
    fn fingerprint_sees_a_changed_value() {
        let s = Schema::of("t", &[("a", DataType::Int)]);
        let r1 = Relation::new(s.clone(), vec![tuple![1], tuple![2]]).expect("arity");
        let r2 = Relation::new(s, vec![tuple![1], tuple![3]]).expect("arity");
        assert_ne!(Fingerprint::of_relation(&r1), Fingerprint::of_relation(&r2));
    }
}
