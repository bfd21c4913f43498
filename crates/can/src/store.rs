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
//!
//! Invalidation — a publisher withdrawing its spheres before it republishes
//! them — reads a fifth column, the publishing peer of each object as a
//! `u32`. [`ObjectStore::remove_published`] scans that column for the first
//! victim; a store that holds none is left untouched, and from the first
//! victim on each run of survivors moves down as one block per column, so
//! the survivors keep their slot order (and with it the order a flood
//! returns them in).

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
use std::ops::Range;

/// The objects one CAN node stores (owned or replicated), as five columns
/// kept in step: `ids`, `centres` (stride = the overlay's dimension),
/// `radii`, `payloads` and `publishers` (each payload's peer as a `u32`,
/// saturating). A row's index is its *slot*; slot order is insertion
/// order, which every mutator preserves.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectStore {
    dim: usize,
    ids: Vec<u64>,
    centres: Vec<f64>,
    radii: Vec<f64>,
    payloads: Vec<ObjectRef>,
    publishers: Vec<u32>,
}

/// A peer id as the publisher column holds it. Peers past `u32::MAX` share
/// the top key, so a key match only nominates a victim; the payload's own
/// `peer` decides.
fn publisher_key(peer: usize) -> u32 {
    u32::try_from(peer).unwrap_or(u32::MAX)
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
            publishers: Vec::new(),
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
        self.publishers.push(publisher_key(obj.payload.peer));
    }

    /// Whether an object with this id is stored — the dedupe of a replica
    /// handoff.
    pub fn contains_id(&self, id: u64) -> bool {
        self.ids.contains(&id)
    }

    /// Keep only the objects `keep` accepts, in their order.
    pub fn retain(&mut self, mut keep: impl FnMut(ObjectView<'_>) -> bool) {
        let len = self.len();
        let (mut kept, mut slot) = (0, 0);
        while slot < len {
            let run = slot;
            while slot < len && keep(self.view(slot)) {
                slot += 1;
            }
            self.move_rows(run..slot, kept);
            kept += slot - run;
            slot += 1;
        }
        self.truncate(kept);
    }

    /// Remove every object `peer` published under a tag in `tags`, keeping
    /// the survivors in slot order; returns how many went. The publisher
    /// column is scanned up to the first victim, and a store holding none
    /// is not written. From there on, each run of survivors between two
    /// victims moves down as one block per column.
    pub fn remove_published(&mut self, peer: usize, tags: &Range<u64>) -> usize {
        let key = publisher_key(peer);
        let len = self.len();
        // The first victim at or after `from`, or `len`.
        let next_victim = |store: &ObjectStore, from: usize| {
            let mut from = from;
            while let Some(at) = store.publishers[from..].iter().position(|&p| p == key) {
                let slot = from + at;
                let p = store.payloads[slot];
                if p.peer == peer && tags.contains(&p.tag) {
                    return slot;
                }
                from = slot + 1;
            }
            len
        };
        let first = next_victim(self, 0);
        let mut kept = first;
        let mut victim = first;
        while victim < len {
            let next = next_victim(self, victim + 1);
            self.move_rows(victim + 1..next, kept);
            kept += next - (victim + 1);
            victim = next;
        }
        self.truncate(kept);
        len - kept
    }

    /// Move the rows `from` down to start at row `to` (`to <= from.start`)
    /// in every column, in order.
    fn move_rows(&mut self, from: Range<usize>, to: usize) {
        if from.is_empty() || from.start == to {
            return;
        }
        let dim = self.dim;
        self.ids.copy_within(from.clone(), to);
        self.radii.copy_within(from.clone(), to);
        self.payloads.copy_within(from.clone(), to);
        self.publishers.copy_within(from.clone(), to);
        self.centres
            .copy_within(from.start * dim..from.end * dim, to * dim);
    }

    /// Cut every column to its first `len` rows.
    fn truncate(&mut self, len: usize) {
        self.ids.truncate(len);
        self.centres.truncate(len * self.dim);
        self.radii.truncate(len);
        self.payloads.truncate(len);
        self.publishers.truncate(len);
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
        self.truncate(0);
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
    /// object, a publisher column that matches the payloads and no id
    /// stored twice. Test-support.
    pub fn check_invariants(&self) {
        let len = self.len();
        assert_eq!(self.radii.len(), len, "radii column out of step");
        assert_eq!(self.payloads.len(), len, "payload column out of step");
        assert!(
            self.publishers
                .iter()
                .copied()
                .eq(self.payloads.iter().map(|p| publisher_key(p.peer))),
            "publisher column out of step with the payloads"
        );
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
    use proptest::prelude::*;

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

    /// The invalidation as it was before the publisher column: one
    /// `retain` over every object with the victim predicate.
    /// [`ObjectStore::remove_published`] must leave what this leaves.
    fn remove_by_retain(s: &mut ObjectStore, peer: usize, tags: &Range<u64>) -> usize {
        let before = s.len();
        s.retain(|o| !(o.payload.peer == peer && tags.contains(&o.payload.tag)));
        before - s.len()
    }

    /// Publishers the cases draw from: three small ids, and two past
    /// `u32::MAX` that share the column's top key, so only the payload
    /// tells them apart.
    const PEERS: [usize; 5] = [0, 1, 2, usize::MAX - 1, usize::MAX];

    /// A store of `rows`, each `(publisher, tag, x, radius)`, with ids from
    /// `first_id` up.
    fn store_of(rows: &[(usize, u64, f64, f64)], first_id: u64) -> ObjectStore {
        let mut s = ObjectStore::new(2);
        for (id, &(p, tag, x, r)) in (first_id..).zip(rows) {
            s.push(
                StoredObject {
                    id,
                    centre: vec![x, 1.0 - x],
                    radius: r,
                    payload: ObjectRef {
                        peer: PEERS[p],
                        tag,
                        items: 1 + id as u32,
                    },
                }
                .view(),
            );
        }
        s
    }

    fn rows() -> impl Strategy<Value = Vec<(usize, u64, f64, f64)>> {
        prop::collection::vec((0usize..5, 0u64..5, 0.0..1.0f64, 0.0..0.2f64), 0..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `remove_published` leaves exactly what the `retain` reference
        /// leaves — the same survivors with the same ids, in the same slot
        /// order, every column included — and counts the same removals, on
        /// stores with repeated publishers and tags, empty stores, stores
        /// that are all victims, and stores shaped by `absorb`, `take` and
        /// `clear`.
        #[test]
        fn remove_published_matches_the_retain_reference(
            shape in 0u8..5,
            a in rows(),
            b in rows(),
            peer in 0usize..5,
            lo in 0u64..6,
            width in 0u64..4,
        ) {
            let (peer, tags) = (PEERS[peer], lo..lo + width);
            let mut s = store_of(&a, 0);
            match shape {
                // `b`'s rows join `a`'s through a handoff that takes the
                // even tags only.
                0 => {
                    s.absorb(&store_of(&b, 1_000), |o| o.payload.tag % 2 == 0);
                }
                // Moved out: the taken store and the emptied one.
                1 => {
                    let taken = s.take();
                    prop_assert!(s.is_empty());
                    let mut emptied = s.clone();
                    prop_assert_eq!(emptied.remove_published(peer, &tags), 0);
                    prop_assert_eq!(&emptied, &s);
                    s = taken;
                }
                // Cleared, then refilled from `b`.
                2 => {
                    s.clear();
                    s.check_invariants();
                    s.absorb(&store_of(&b, 1_000), |_| true);
                }
                // Every object a victim.
                3 => {
                    let all: Vec<_> = a.iter().map(|&(_, _, x, r)| (0, lo, x, r)).collect();
                    s = store_of(&all, 0);
                }
                _ => {}
            }
            s.check_invariants();
            let mut got = s.clone();
            let mut want = s.clone();
            let removed = got.remove_published(peer, &tags);
            prop_assert_eq!(removed, remove_by_retain(&mut want, peer, &tags));
            prop_assert_eq!(&got, &want);
            got.check_invariants();
            if shape == 3 && peer == 0 && width > 0 {
                prop_assert!(got.is_empty());
            }
        }
    }
}
