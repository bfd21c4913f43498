//! A CAN node's local object store, kept as columns.
//!
//! A range flood tests every sphere a visited node stores against the
//! query ball, and most of them fail the test. So the store keeps what the
//! test reads — the centres (flat, `dim` coordinates per object) and the
//! radii — in contiguous columns of their own, beside the ids and payloads
//! that only a hit reads. [`ObjectStore::scan`] is the one pass over them,
//! behind both the range flood and the point lookup: it writes every
//! object's `(slot, b)` and advances the hit count by the match predicate,
//! so the loop carries no data-dependent branch.
//!
//! [`crate::StoredObject`] stays the owned and wire form; the store lends
//! [`ObjectView`]s of its rows and takes them back through
//! [`ObjectStore::push`].

// Panic-free hot path: no unwrap/expect, panic!/unreachable! or
// unchecked indexing outside tests without a written reason.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]
#![expect(
    clippy::indexing_slicing,
    reason = "slots index columns of equal length (`check_invariants`), and a scan's hit count never passes the slot it is written at"
)]
use crate::ops::{ObjectRef, ObjectView};
use hyperm_geometry::vecmath::sq_dist;

/// The objects one CAN node stores (owned or replicated), as four columns
/// kept in step: `ids`, `centres` (stride = the overlay's dimension),
/// `radii` and `payloads`. A row's index is its *slot*; slot order is
/// insertion order, which every mutator preserves.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectStore {
    dim: usize,
    ids: Vec<u64>,
    centres: Vec<f64>,
    radii: Vec<f64>,
    payloads: Vec<ObjectRef>,
}

impl ObjectStore {
    /// An empty store for `dim`-dimensional centres.
    pub fn new(dim: usize) -> Self {
        ObjectStore {
            dim,
            ids: Vec::new(),
            centres: Vec::new(),
            radii: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// Width of a centre row: the overlay's key-space dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The object at `slot`, if there is one.
    pub fn get(&self, slot: usize) -> Option<ObjectView<'_>> {
        (slot < self.len()).then(|| self.view(slot))
    }

    fn view(&self, slot: usize) -> ObjectView<'_> {
        ObjectView {
            id: self.ids[slot],
            centre: &self.centres[slot * self.dim..(slot + 1) * self.dim],
            radius: self.radii[slot],
            payload: self.payloads[slot],
        }
    }

    /// Every object, in slot order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ObjectView<'_>> + '_ {
        (0..self.len()).map(|slot| self.view(slot))
    }

    /// Append a copy of `obj`.
    pub fn push(&mut self, obj: ObjectView<'_>) {
        assert_eq!(obj.centre.len(), self.dim, "centre dimension mismatch");
        self.ids.push(obj.id);
        self.centres.extend_from_slice(obj.centre);
        self.radii.push(obj.radius);
        self.payloads.push(obj.payload);
    }

    /// Whether an object with this id is stored — the dedupe of a replica
    /// handoff.
    pub fn contains_id(&self, id: u64) -> bool {
        self.ids.contains(&id)
    }

    /// Keep only the objects `keep` accepts, in their order.
    pub fn retain(&mut self, mut keep: impl FnMut(ObjectView<'_>) -> bool) {
        let dim = self.dim;
        let mut kept = 0;
        for slot in 0..self.len() {
            if !keep(self.view(slot)) {
                continue;
            }
            if kept != slot {
                self.ids[kept] = self.ids[slot];
                self.radii[kept] = self.radii[slot];
                self.payloads[kept] = self.payloads[slot];
                self.centres
                    .copy_within(slot * dim..(slot + 1) * dim, kept * dim);
            }
            kept += 1;
        }
        self.ids.truncate(kept);
        self.centres.truncate(kept * dim);
        self.radii.truncate(kept);
        self.payloads.truncate(kept);
    }

    /// Absorb a handoff: append, in `from`'s order, every object of `from`
    /// that `keep` accepts and this store does not hold yet (by id).
    /// Returns how many were appended.
    pub fn absorb(
        &mut self,
        from: &ObjectStore,
        mut keep: impl FnMut(ObjectView<'_>) -> bool,
    ) -> usize {
        let before = self.len();
        for obj in from.iter() {
            if keep(obj) && !self.contains_id(obj.id) {
                self.push(obj);
            }
        }
        self.len() - before
    }

    /// Move every object out, leaving this store empty.
    pub fn take(&mut self) -> ObjectStore {
        std::mem::replace(self, ObjectStore::new(self.dim))
    }

    /// Drop every object.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.centres.clear();
        self.radii.clear();
        self.payloads.clear();
    }

    /// The one store scan: test every object against the ball
    /// `(centre, radius)` and return the hits as `(slot, b)`, in slot
    /// order, where `b` is the distance from the object's centre to
    /// `centre` (bit-equal to [`hyperm_geometry::vecmath::dist`]). An
    /// object hits when `b <= its radius + radius + 1e-12`. `hits` is
    /// scratch space the caller keeps across scans.
    pub fn scan<'h>(
        &self,
        centre: &[f64],
        radius: f64,
        hits: &'h mut Vec<(u32, f64)>,
    ) -> &'h [(u32, f64)] {
        assert_eq!(centre.len(), self.dim, "centre dimension mismatch");
        let len = self.len();
        if hits.len() < len {
            hits.resize(len, (0, 0.0));
        }
        let out = &mut hits[..len];
        // Every row's `(slot, b)` is written, and the hit count advances by
        // the predicate, so a miss is overwritten by the next row. The
        // predicate sums the two radii, then the slack, as the BATON and
        // VBI floods do; another association could flip a sphere on the
        // boundary.
        let mut found = 0;
        let rows = self.centres.chunks_exact(self.dim).zip(&self.radii);
        for (slot, (c, &r)) in rows.enumerate() {
            let b = sq_dist(c, centre).sqrt();
            out[found] = (slot as u32, b);
            found += usize::from(b <= r + radius + 1e-12);
        }
        &hits[..found]
    }

    /// Assert the column invariants: equal lengths, `dim` coordinates per
    /// object and no id stored twice. Test-support.
    pub fn check_invariants(&self) {
        let len = self.len();
        assert_eq!(self.radii.len(), len, "radii column out of step");
        assert_eq!(self.payloads.len(), len, "payload column out of step");
        assert_eq!(
            self.centres.len(),
            self.dim * len,
            "centre column is not dim × len"
        );
        let mut ids = self.ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), len, "an object id is stored twice");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::StoredObject;

    fn obj(id: u64, centre: &[f64], radius: f64) -> StoredObject {
        StoredObject {
            id,
            centre: centre.to_vec(),
            radius,
            payload: ObjectRef {
                peer: id as usize,
                tag: id,
                items: 1,
            },
        }
    }

    fn store(objs: &[StoredObject]) -> ObjectStore {
        let mut s = ObjectStore::new(objs.first().map_or(2, |o| o.centre.len()));
        for o in objs {
            s.push(o.view());
        }
        s.check_invariants();
        s
    }

    #[test]
    fn retain_keeps_columns_in_step() {
        let objs: Vec<StoredObject> = (0..6)
            .map(|i| obj(i, &[i as f64, -(i as f64)], 0.1 * i as f64))
            .collect();
        let mut s = store(&objs);
        s.retain(|o| o.id % 2 == 1);
        s.check_invariants();
        let want: Vec<StoredObject> = objs.into_iter().filter(|o| o.id % 2 == 1).collect();
        let got: Vec<StoredObject> = s.iter().map(ObjectView::to_stored).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn absorb_skips_held_ids_and_rejected_objects() {
        let mut s = store(&[obj(1, &[0.0], 0.0), obj(2, &[0.5], 0.0)]);
        let from = store(&[
            obj(2, &[0.5], 0.0),
            obj(3, &[0.7], 0.0),
            obj(4, &[0.9], 0.0),
        ]);
        assert_eq!(s.absorb(&from, |o| o.id != 4), 1);
        s.check_invariants();
        let ids: Vec<u64> = s.iter().map(|o| o.id).collect();
        assert_eq!(ids, [1, 2, 3]);
        assert!(s.contains_id(3) && !s.contains_id(4));
        let taken = s.take();
        assert!(s.is_empty() && taken.len() == 3);
    }

    #[test]
    fn scan_hits_are_the_predicate_in_slot_order() {
        for dim in [1usize, 2, 3, 4, 8] {
            let objs: Vec<StoredObject> = (0..40)
                .map(|i| {
                    let centre: Vec<f64> = (0..dim)
                        .map(|k| ((i * 7 + k * 3) % 11) as f64 / 10.0)
                        .collect();
                    obj(i as u64, &centre, (i % 4) as f64 * 0.05)
                })
                .collect();
            let s = store(&objs);
            let q = vec![0.5; dim];
            let mut hits = Vec::new();
            let got: Vec<(u32, u64)> = s
                .scan(&q, 0.2, &mut hits)
                .iter()
                .map(|&(slot, b)| (slot, b.to_bits()))
                .collect();
            let want: Vec<(u32, u64)> = objs
                .iter()
                .enumerate()
                .filter_map(|(slot, o)| {
                    let b = hyperm_geometry::vecmath::dist(&o.centre, &q);
                    (b <= o.radius + 0.2 + 1e-12).then_some((slot as u32, b.to_bits()))
                })
                .collect();
            assert_eq!(got, want, "dim {dim}");
        }
    }
}
