//! Position list indexes (PLIs), a.k.a. stripped partitions.
//!
//! # Dense layout
//!
//! A PLI here is *dense* end to end, matching the columnar arena of
//! [`DynamicRelation`](crate::DynamicRelation):
//!
//! * Clusters hold `u32` **arena slots**, not record ids, so a validator
//!   can index `column[slot]` directly while streaming a cluster.
//! * All cluster members live in one backing `Vec<u32>` arena (`data`);
//!   a cluster is a `(start, len)` range into it, so there is no
//!   per-cluster `Vec` allocation and a cluster scan is one contiguous
//!   `u32` slice — sorted-merge intersections over two such slices
//!   autovectorize ([`intersect_clusters`]).
//! * The value-code → cluster map is a flat `heads` vector indexed by
//!   code (codes are dense, first-seen-ordered `u32`s), replacing the
//!   former `BTreeMap`. Iterating `heads` in index order reproduces the
//!   old map's ascending-code iteration order exactly, which keeps every
//!   downstream scan order — and with it witnesses and sampling — bit
//!   identical to the row-store layout.
//!
//! Cluster ranges are allocated from power-of-two size classes with
//! per-class free-lists: a cluster that outgrows its range relocates to
//! a range of twice the capacity and donates the old range to its class.
//! Ranges freed by emptied clusters are reused the same way, so heavy
//! churn cannot fragment the arena beyond a bounded factor (each class
//! holds at most the ranges ever allocated in it). The arena never
//! compacts — determinism is worth more than the slack, and the slack is
//! bounded by 2× live entries per class.
//!
//! Cluster members are kept sorted by **record id** (the occupying
//! record's id via `slot_rids`, not the slot number): record ids are
//! assigned monotonically, so an insert is an O(1) push, the last member
//! is the cluster's newest record — the O(1) *cluster pruning* test of
//! paper Section 4.2 — and scan order matches arrival order, which the
//! violation-witness contract depends on.

use crate::dictionary::ValueId;
use crate::kernel;
use dynfd_common::RecordId;

/// Sentinel in `heads` for "no cluster for this code".
const NONE: u32 = u32::MAX;

/// One cluster's range descriptor.
#[derive(Clone, Copy, Debug)]
struct ClusterMeta {
    /// The value code this cluster belongs to (needed to re-point
    /// `heads` when a swap-remove moves this descriptor).
    value: ValueId,
    /// Range start in the backing arena.
    start: u32,
    /// Number of live members.
    len: u32,
    /// Capacity class: the range spans `1 << class` slots.
    class: u8,
}

/// A position list index for one column (paper Section 3.1; also known
/// as a *stripped partition* in TANE).
///
/// For every value code, the PLI holds the *cluster* of arena slots
/// whose records carry that value in this column, sorted by record id
/// (see the module docs for the dense layout and its invariants).
///
/// Unlike a *stripped* partition, singleton clusters are retained: the
/// code → cluster map is exactly the paper's inverted index, which must
/// know about currently-unique values so that a later insert of the same
/// value lands in the right cluster. Consumers that want the stripped
/// view use [`Pli::iter_non_singleton`].
#[derive(Clone, Debug, Default)]
pub struct Pli {
    /// Value code → index into `meta`; [`NONE`] when the value has no
    /// live cluster. Indexed directly by code (codes are dense).
    heads: Vec<u32>,
    /// Active cluster descriptors (unordered; `heads` imposes order).
    meta: Vec<ClusterMeta>,
    /// The backing arena all cluster ranges carve up.
    data: Vec<u32>,
    /// Per-capacity-class free range starts (`free_ranges[c]` holds
    /// starts of free `1 << c`-slot ranges).
    free_ranges: Vec<Vec<u32>>,
    /// Number of slots across all clusters.
    entries: usize,
    /// Size of the largest cluster, maintained exactly (recomputed when
    /// a removal shrinks a maximal cluster). The validator's pivot
    /// heuristic reads this in O(1): the partition with the smallest
    /// maximal cluster is the most refined one and gives the cheapest
    /// group tables.
    max_len: usize,
}

impl Pli {
    /// Creates an empty PLI.
    pub fn new() -> Self {
        Pli::default()
    }

    /// Allocates a range of capacity `1 << class`, reusing a freed range
    /// of the same class when one exists.
    fn alloc_range(&mut self, class: u8) -> u32 {
        if let Some(list) = self.free_ranges.get_mut(class as usize) {
            if let Some(start) = list.pop() {
                return start;
            }
        }
        let start = self.data.len() as u32;
        self.data.resize(self.data.len() + (1usize << class), 0);
        start
    }

    /// Returns a freed range to its class free-list.
    fn free_range(&mut self, start: u32, class: u8) {
        if self.free_ranges.len() <= class as usize {
            self.free_ranges.resize_with(class as usize + 1, Vec::new);
        }
        self.free_ranges[class as usize].push(start);
    }

    /// Relocates cluster `idx` to a range of twice the capacity.
    fn grow_cluster(&mut self, idx: usize) {
        let ClusterMeta {
            start, len, class, ..
        } = self.meta[idx];
        let new_class = class + 1;
        let new_start = self.alloc_range(new_class);
        // Ranges are disjoint (the new one is freed or fresh), so a
        // straight copy_within is safe.
        self.data
            .copy_within(start as usize..(start + len) as usize, new_start as usize);
        self.free_range(start, class);
        self.meta[idx].start = new_start;
        self.meta[idx].class = new_class;
    }

    /// The `meta` index of `value`'s cluster, if live.
    #[inline]
    fn head(&self, value: ValueId) -> Option<usize> {
        match self.heads.get(value as usize) {
            Some(&idx) if idx != NONE => Some(idx as usize),
            _ => None,
        }
    }

    /// Creates a fresh singleton cluster for `value`.
    fn new_cluster(&mut self, value: ValueId, slot: u32) {
        let start = self.alloc_range(0);
        self.data[start as usize] = slot;
        let idx = self.meta.len() as u32;
        self.meta.push(ClusterMeta {
            value,
            start,
            len: 1,
            class: 0,
        });
        if self.heads.len() <= value as usize {
            self.heads.resize(value as usize + 1, NONE);
        }
        self.heads[value as usize] = idx;
    }

    /// Drops the (emptied) cluster `idx`, recycling its range and
    /// re-pointing `heads` around the swap-remove.
    fn drop_cluster(&mut self, idx: usize) {
        let dead = self.meta.swap_remove(idx);
        self.heads[dead.value as usize] = NONE;
        self.free_range(dead.start, dead.class);
        if idx < self.meta.len() {
            let moved_value = self.meta[idx].value;
            self.heads[moved_value as usize] = idx as u32;
        }
    }

    /// Adds `slot` (occupied by `rid`) to the cluster of `value`,
    /// creating the cluster if the value is new to this column.
    ///
    /// Record ids must be inserted in increasing order per cluster (they
    /// are surrogate keys assigned monotonically); this is
    /// debug-asserted via `slot_rids`.
    pub fn insert(&mut self, value: ValueId, slot: u32, rid: RecordId, slot_rids: &[RecordId]) {
        match self.head(value) {
            None => self.new_cluster(value, slot),
            Some(idx) => {
                let m = self.meta[idx];
                debug_assert!(
                    m.len == 0 || {
                        let last = self.data[(m.start + m.len - 1) as usize];
                        slot_rids[last as usize] < rid
                    },
                    "record ids must arrive in increasing order per cluster"
                );
                if m.len as usize == 1usize << m.class {
                    self.grow_cluster(idx);
                }
                let m = &mut self.meta[idx];
                self.data[(m.start + m.len) as usize] = slot;
                m.len += 1;
                self.max_len = self.max_len.max(m.len as usize);
            }
        }
        self.max_len = self.max_len.max(1);
        self.entries += 1;
    }

    /// Re-adds `slot` (occupied by `rid`) to the cluster of `value` at
    /// its rid-sorted position.
    ///
    /// Unlike [`Pli::insert`], this accepts ids below the cluster's
    /// current maximum: rollback of a failed batch restores records
    /// whose ids are older than surviving cluster members.
    pub fn restore(&mut self, value: ValueId, slot: u32, rid: RecordId, slot_rids: &[RecordId]) {
        let Some(idx) = self.head(value) else {
            self.new_cluster(value, slot);
            self.max_len = self.max_len.max(1);
            self.entries += 1;
            return;
        };
        let m = self.meta[idx];
        let range = &self.data[m.start as usize..(m.start + m.len) as usize];
        let Err(pos) = range.binary_search_by(|&s| slot_rids[s as usize].cmp(&rid)) else {
            return; // already present
        };
        if m.len as usize == 1usize << m.class {
            self.grow_cluster(idx);
        }
        let m = &mut self.meta[idx];
        let start = m.start as usize;
        self.data
            .copy_within(start + pos..start + m.len as usize, start + pos + 1);
        self.data[start + pos] = slot;
        m.len += 1;
        self.max_len = self.max_len.max(m.len as usize);
        self.entries += 1;
    }

    /// Removes the member occupied by `rid` from the cluster of `value`
    /// (located by binary search on record id through `slot_rids`; the
    /// caller must not have unmapped the slot yet). Emptied clusters are
    /// dropped from the index entirely (paper Section 3.1) and their
    /// range recycled.
    ///
    /// Returns `true` if the record was present.
    pub fn remove(
        &mut self,
        value: ValueId,
        slot: u32,
        rid: RecordId,
        slot_rids: &[RecordId],
    ) -> bool {
        let Some(idx) = self.head(value) else {
            return false;
        };
        let m = self.meta[idx];
        let range = &self.data[m.start as usize..(m.start + m.len) as usize];
        let Ok(pos) = range.binary_search_by(|&s| slot_rids[s as usize].cmp(&rid)) else {
            return false;
        };
        debug_assert_eq!(range[pos], slot, "slot map and cluster disagree for {rid}");
        let was_max = m.len as usize == self.max_len;
        let start = m.start as usize;
        self.data
            .copy_within(start + pos + 1..start + m.len as usize, start + pos);
        self.meta[idx].len -= 1;
        self.entries -= 1;
        if self.meta[idx].len == 0 {
            self.drop_cluster(idx);
        }
        if was_max {
            // The shrunk cluster may no longer be maximal; recompute so
            // the field stays exact. O(#clusters), only on the rare
            // shrink-from-max path.
            self.max_len = self.meta.iter().map(|m| m.len as usize).max().unwrap_or(0);
        }
        true
    }

    /// The cluster for `value` — a contiguous, rid-sorted slice of arena
    /// slots — if any record currently holds the value.
    #[inline]
    pub fn cluster(&self, value: ValueId) -> Option<&[u32]> {
        self.head(value).map(|idx| {
            let m = self.meta[idx];
            &self.data[m.start as usize..(m.start + m.len) as usize]
        })
    }

    /// Number of clusters (distinct live values).
    pub fn cluster_count(&self) -> usize {
        self.meta.len()
    }

    /// Size of the largest cluster (0 when empty). O(1): the value is
    /// maintained under inserts and removals.
    pub fn max_cluster_len(&self) -> usize {
        self.max_len
    }

    /// Total number of slots indexed (= number of live records).
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Iterates `(value, cluster)` pairs in ascending value-code order —
    /// the same order the former `BTreeMap` layout iterated in.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &[u32])> {
        self.heads
            .iter()
            .enumerate()
            .filter(|&(_, &idx)| idx != NONE)
            .map(|(value, &idx)| {
                let m = self.meta[idx as usize];
                (
                    value as ValueId,
                    &self.data[m.start as usize..(m.start + m.len) as usize],
                )
            })
    }

    /// Iterates only clusters with two or more records — the *stripped*
    /// view relevant for FD validation (a singleton cluster can never
    /// participate in a violation).
    pub fn iter_non_singleton(&self) -> impl Iterator<Item = (ValueId, &[u32])> {
        self.iter().filter(|(_, c)| c.len() > 1)
    }

    /// Number of non-singleton clusters.
    pub fn non_singleton_count(&self) -> usize {
        self.meta.iter().filter(|m| m.len > 1).count()
    }

    /// Whether the PLI indexes no records.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Backing-arena extent in slots (live ranges + free ranges), for
    /// memory accounting and fragmentation diagnostics.
    pub fn arena_capacity(&self) -> usize {
        self.data.len()
    }

    /// Approximate resident bytes of this PLI: head table, cluster
    /// descriptors, and the backing arena (free ranges included — they
    /// are allocated memory). A monotone-in-footprint estimate for quota
    /// accounting, not an exact allocator number.
    pub fn approx_bytes(&self) -> usize {
        64 + self.heads.len() * 4
            + self.meta.len() * std::mem::size_of::<ClusterMeta>()
            + self.data.len() * 4
            + self
                .free_ranges
                .iter()
                .map(|f| 24 + f.len() * 4)
                .sum::<usize>()
    }
}

/// Intersects two rid-sorted clusters (slot slices of possibly different
/// PLIs over the same relation), appending the slots common to both to
/// `out` in rid order — the partition-product refinement step
/// (π_a · π_b) evaluated cluster-by-cluster.
///
/// Both inputs are contiguous `u32` slices sorted by the occupying
/// record id (`slot_rids[slot]`), so the intersection is a sorted merge.
/// When the sizes are lopsided (> [`kernel::GALLOP_RATIO`]×), the merge
/// *gallops*: each member of the small side binary-searches the large
/// side with exponentially growing probes, giving O(small · log large)
/// instead of O(small + large). Comparable-size inputs above
/// [`kernel::SIMD_MIN_LEN`] dispatch to the explicitly vectorized
/// block-compare kernel ([`kernel::intersect_keyed`]): record-id keys
/// are gathered into thread-local scratch, narrowed to `u32` (falling
/// back to the scalar merge for the rare relation whose rids outgrow
/// `u32`), and the surviving `a`-side slots come back compacted in rid
/// order — bit-identical to the scalar merge by the kernel's contract.
pub fn intersect_clusters(a: &[u32], b: &[u32], slot_rids: &[RecordId], out: &mut Vec<u32>) {
    let (small, large, small_is_a) = if a.len() <= b.len() {
        (a, b, true)
    } else {
        (b, a, false)
    };
    if small.is_empty() {
        return;
    }
    let rid = |s: u32| slot_rids[s as usize];
    if kernel::use_gallop(small.len(), large.len()) {
        // Galloping path: probe the large side per small member.
        let mut lo = 0usize;
        for &s in small {
            let key = rid(s);
            // Exponential probe from the last match position.
            let mut step = 1usize;
            let mut hi = lo;
            while hi < large.len() && rid(large[hi]) < key {
                lo = hi + 1;
                hi += step;
                step <<= 1;
            }
            // The probe stopped at `hi` because `large[hi] >= key` (or
            // ran off the end); `hi` itself may hold the key, so the
            // search window must include it.
            let hi = (hi + 1).min(large.len());
            match large[lo..hi].binary_search_by(|&x| rid(x).cmp(&key)) {
                Ok(pos) => {
                    out.push(if small_is_a { s } else { large[lo + pos] });
                    lo += pos + 1;
                }
                Err(pos) => lo += pos,
            }
            if lo >= large.len() {
                break;
            }
        }
    } else if !try_simd_intersect(a, b, slot_rids, out) {
        // Linear merge over the two contiguous slices.
        let (mut i, mut j) = (0usize, 0usize);
        while i < small.len() && j < large.len() {
            let (ri, rj) = (rid(small[i]), rid(large[j]));
            match ri.cmp(&rj) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(if small_is_a { small[i] } else { large[j] });
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

thread_local! {
    /// Per-thread gather scratch for the SIMD path: the two clusters'
    /// record-id keys, narrowed to `u32`. Thread-local so parallel
    /// validation workers never contend or allocate per call.
    static GATHER_KEYS: std::cell::RefCell<(Vec<u32>, Vec<u32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Attempts the vectorized block-compare path. Returns `false` (having
/// written nothing) when the CPU has no vectorized kernel, either side
/// is too short to amortize the gather, or a record id does not fit in
/// `u32` (the clusters are rid-sorted, so checking each side's last
/// member bounds the whole slice).
fn try_simd_intersect(a: &[u32], b: &[u32], slot_rids: &[RecordId], out: &mut Vec<u32>) -> bool {
    let kind = kernel::detected_kernel();
    if kind == kernel::KernelKind::Scalar
        || a.len() < kernel::SIMD_MIN_LEN
        || b.len() < kernel::SIMD_MIN_LEN
    {
        return false;
    }
    let amax = slot_rids[a[a.len() - 1] as usize].0;
    let bmax = slot_rids[b[b.len() - 1] as usize].0;
    if amax > u64::from(u32::MAX) || bmax > u64::from(u32::MAX) {
        return false;
    }
    GATHER_KEYS.with(|g| {
        let (a_keys, b_keys) = &mut *g.borrow_mut();
        a_keys.clear();
        a_keys.extend(a.iter().map(|&s| slot_rids[s as usize].0 as u32));
        b_keys.clear();
        b_keys.extend(b.iter().map(|&s| slot_rids[s as usize].0 as u32));
        kernel::intersect_keyed_with(kind, a_keys, a, b_keys, out);
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test harness: slot i is occupied by rid i (identity mapping), as
    /// in a churn-free relation.
    fn identity_rids(n: u64) -> Vec<RecordId> {
        (0..n).map(RecordId).collect()
    }

    fn insert_id(p: &mut Pli, value: ValueId, i: u64, rids: &[RecordId]) {
        p.insert(value, i as u32, RecordId(i), rids);
    }

    #[test]
    fn insert_groups_by_value() {
        let rids = identity_rids(16);
        let mut p = Pli::new();
        insert_id(&mut p, 0, 1, &rids);
        insert_id(&mut p, 0, 2, &rids);
        insert_id(&mut p, 1, 3, &rids);
        assert_eq!(p.cluster(0), Some(&[1u32, 2][..]));
        assert_eq!(p.cluster(1), Some(&[3u32][..]));
        assert_eq!(p.cluster(2), None);
        assert_eq!(p.cluster_count(), 2);
        assert_eq!(p.entry_count(), 3);
    }

    #[test]
    fn remove_drops_empty_clusters_and_recycles_ranges() {
        let rids = identity_rids(16);
        let mut p = Pli::new();
        insert_id(&mut p, 5, 1, &rids);
        insert_id(&mut p, 5, 2, &rids);
        assert!(p.remove(5, 1, RecordId(1), &rids));
        assert_eq!(p.cluster(5), Some(&[2u32][..]));
        assert!(p.remove(5, 2, RecordId(2), &rids));
        assert_eq!(p.cluster(5), None);
        assert_eq!(p.cluster_count(), 0);
        assert!(p.is_empty());
        let capacity_after_churn = p.arena_capacity();
        // Re-inserting reuses freed ranges: the arena does not grow.
        insert_id(&mut p, 7, 3, &rids);
        assert_eq!(p.arena_capacity(), capacity_after_churn);
    }

    #[test]
    fn remove_missing_is_false() {
        let rids = identity_rids(16);
        let mut p = Pli::new();
        insert_id(&mut p, 1, 1, &rids);
        assert!(!p.remove(1, 9, RecordId(9), &rids));
        assert!(!p.remove(7, 1, RecordId(1), &rids));
        assert_eq!(p.entry_count(), 1);
    }

    #[test]
    fn clusters_stay_rid_sorted_under_monotonic_inserts() {
        let rids = identity_rids(100);
        let mut p = Pli::new();
        for i in 0..100u64 {
            insert_id(&mut p, (i % 3) as ValueId, i, &rids);
        }
        for (_, c) in p.iter() {
            assert!(c
                .windows(2)
                .all(|w| rids[w[0] as usize] < rids[w[1] as usize]));
        }
        // Growth through several size classes kept every member.
        assert_eq!(p.entry_count(), 100);
        assert_eq!(p.cluster(0).map(<[u32]>::len), Some(34));
    }

    #[test]
    fn clusters_sort_by_rid_not_slot() {
        // Slot numbers out of rid order (free-list reuse): cluster order
        // must follow rids.
        let rids = vec![RecordId(50), RecordId(10), RecordId(30)];
        let mut p = Pli::new();
        p.insert(0, 1, RecordId(10), &rids);
        p.insert(0, 2, RecordId(30), &rids);
        p.insert(0, 0, RecordId(50), &rids);
        assert_eq!(p.cluster(0), Some(&[1u32, 2, 0][..]));
        assert!(p.remove(0, 2, RecordId(30), &rids));
        assert_eq!(p.cluster(0), Some(&[1u32, 0][..]));
    }

    #[test]
    fn restore_reinserts_at_sorted_position() {
        let rids = identity_rids(16);
        let mut p = Pli::new();
        for i in [1u64, 3, 5] {
            insert_id(&mut p, 0, i, &rids);
        }
        assert!(p.remove(0, 3, RecordId(3), &rids));
        p.restore(0, 3, RecordId(3), &rids);
        assert_eq!(p.cluster(0), Some(&[1u32, 3, 5][..]));
        // Restoring an id below the minimum works too.
        assert!(p.remove(0, 1, RecordId(1), &rids));
        p.restore(0, 1, RecordId(1), &rids);
        assert_eq!(p.cluster(0), Some(&[1u32, 3, 5][..]));
        // Restore into a dropped cluster recreates it.
        for i in [1u64, 3, 5] {
            assert!(p.remove(0, i as u32, RecordId(i), &rids));
        }
        p.restore(0, 5, RecordId(5), &rids);
        assert_eq!(p.cluster(0), Some(&[5u32][..]));
    }

    #[test]
    fn non_singleton_view() {
        let rids = identity_rids(16);
        let mut p = Pli::new();
        insert_id(&mut p, 0, 0, &rids);
        insert_id(&mut p, 1, 1, &rids);
        insert_id(&mut p, 1, 2, &rids);
        assert_eq!(p.non_singleton_count(), 1);
        let stripped: Vec<_> = p.iter_non_singleton().collect();
        assert_eq!(stripped.len(), 1);
        assert_eq!(stripped[0].0, 1);
    }

    #[test]
    fn max_cluster_len_is_exact_under_churn() {
        let rids = identity_rids(16);
        let mut p = Pli::new();
        assert_eq!(p.max_cluster_len(), 0);
        insert_id(&mut p, 0, 0, &rids);
        insert_id(&mut p, 0, 1, &rids);
        insert_id(&mut p, 0, 2, &rids);
        insert_id(&mut p, 1, 3, &rids);
        insert_id(&mut p, 1, 4, &rids);
        assert_eq!(p.max_cluster_len(), 3);
        // Shrinking the maximal cluster recomputes the maximum.
        assert!(p.remove(0, 1, RecordId(1), &rids));
        assert_eq!(p.max_cluster_len(), 2);
        assert!(p.remove(0, 0, RecordId(0), &rids));
        assert!(p.remove(0, 2, RecordId(2), &rids));
        assert_eq!(p.max_cluster_len(), 2);
        assert!(p.remove(1, 3, RecordId(3), &rids));
        assert_eq!(p.max_cluster_len(), 1);
        // Restore grows it back.
        p.restore(1, 3, RecordId(3), &rids);
        assert_eq!(p.max_cluster_len(), 2);
        assert!(p.remove(1, 3, RecordId(3), &rids));
        assert!(p.remove(1, 4, RecordId(4), &rids));
        assert_eq!(p.max_cluster_len(), 0);
    }

    #[test]
    fn iteration_is_value_ordered() {
        let rids = identity_rids(16);
        let mut p = Pli::new();
        insert_id(&mut p, 2, 0, &rids);
        insert_id(&mut p, 0, 1, &rids);
        insert_id(&mut p, 1, 2, &rids);
        let values: Vec<ValueId> = p.iter().map(|(v, _)| v).collect();
        assert_eq!(values, vec![0, 1, 2]);
        // Dropping a cluster keeps the others ordered (swap-remove in
        // `meta` must not leak into iteration order).
        assert!(p.remove(0, 1, RecordId(1), &rids));
        let values: Vec<ValueId> = p.iter().map(|(v, _)| v).collect();
        assert_eq!(values, vec![1, 2]);
    }

    #[test]
    fn intersect_merge_and_gallop_agree() {
        let rids = identity_rids(4096);
        let a: Vec<u32> = (0..4096).filter(|i| i % 3 == 0).collect();
        let b: Vec<u32> = (0..4096).filter(|i| i % 5 == 0).collect();
        let expected: Vec<u32> = (0..4096).filter(|i| i % 15 == 0).collect();
        let mut out = Vec::new();
        intersect_clusters(&a, &b, &rids, &mut out);
        assert_eq!(out, expected);
        // Lopsided sizes take the galloping path; same result.
        let small: Vec<u32> = (0..4096).filter(|i| i % 512 == 0).collect();
        let mut out = Vec::new();
        intersect_clusters(&small, &b, &rids, &mut out);
        let expected: Vec<u32> = (0..4096).filter(|i| i % 2560 == 0).collect();
        assert_eq!(out, expected);
        // Symmetric argument order.
        let mut out2 = Vec::new();
        intersect_clusters(&b, &small, &rids, &mut out2);
        assert_eq!(out2, expected);
    }

    #[test]
    fn intersect_empty_and_disjoint() {
        let rids = identity_rids(64);
        let mut out = Vec::new();
        intersect_clusters(&[], &[1, 2, 3], &rids, &mut out);
        assert!(out.is_empty());
        intersect_clusters(&[0, 2, 4], &[1, 3, 5], &rids, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn intersect_respects_rid_order_not_slot_order() {
        // Slots scrambled relative to rids: intersection keys on rids.
        let rids = vec![RecordId(9), RecordId(1), RecordId(5), RecordId(3)];
        // Cluster A = slots {1, 3, 0} (rids 1, 3, 9); B = slots {1, 2, 0}
        // (rids 1, 5, 9).
        let mut out = Vec::new();
        intersect_clusters(&[1, 3, 0], &[1, 2, 0], &rids, &mut out);
        assert_eq!(out, vec![1, 0]);
    }

    /// Reference intersection: plain double loop on rid keys.
    fn reference_intersect(a: &[u32], b: &[u32], rids: &[RecordId]) -> Vec<u32> {
        a.iter()
            .copied()
            .filter(|&s| b.iter().any(|&t| rids[t as usize] == rids[s as usize]))
            .collect()
    }

    #[test]
    fn gallop_threshold_boundary_agrees_with_merge() {
        // Sizes at ratios GALLOP_RATIO - 1, GALLOP_RATIO, GALLOP_RATIO + 1
        // (7x / 8x / 9x): the middle one is the first to gallop, and all
        // three must agree with the plain merge result. A future tweak of
        // the tunable shifts which path runs, never what it returns.
        let rids = identity_rids(4096);
        for ratio in [
            kernel::GALLOP_RATIO - 1,
            kernel::GALLOP_RATIO,
            kernel::GALLOP_RATIO + 1,
        ] {
            let small_len = 32usize;
            let large_len = small_len * ratio;
            assert_eq!(
                kernel::use_gallop(small_len, large_len),
                ratio >= kernel::GALLOP_RATIO
            );
            let small: Vec<u32> = (0..small_len as u32).map(|i| i * 7 % 4096).collect();
            let mut small = small;
            small.sort_unstable();
            small.dedup();
            let large: Vec<u32> = (0..large_len as u32).map(|i| i * 3 % 4096).collect();
            let mut large = large;
            large.sort_unstable();
            large.dedup();
            let expected = reference_intersect(&small, &large, &rids);
            let mut out = Vec::new();
            intersect_clusters(&small, &large, &rids, &mut out);
            assert_eq!(out, expected, "ratio {ratio} (a = small) diverged");
            // Argument order flipped: the result must hold b-side slots.
            let expected_b = reference_intersect(&large, &small, &rids);
            let mut out = Vec::new();
            intersect_clusters(&large, &small, &rids, &mut out);
            assert_eq!(out, expected_b, "ratio {ratio} (a = large) diverged");
        }
    }

    #[test]
    fn vectorized_cluster_intersection_matches_reference() {
        // Comparable sizes above SIMD_MIN_LEN take the detected
        // vectorized kernel; it must not change a single slot.
        let rids = identity_rids(8192);
        let a: Vec<u32> = (0..8192).filter(|i| i % 2 == 0).collect();
        let b: Vec<u32> = (0..8192).filter(|i| i % 3 != 1).collect();
        let mut out = Vec::new();
        intersect_clusters(&a, &b, &rids, &mut out);
        assert_eq!(out, reference_intersect(&a, &b, &rids));
    }

    #[test]
    fn oversized_rids_fall_back_to_scalar() {
        // Record ids beyond u32::MAX cannot narrow: the SIMD gather is
        // refused and the scalar merge answers, keys still compared as
        // full u64 rids.
        let base = u64::from(u32::MAX) - 8;
        let rids: Vec<RecordId> = (0..64).map(|i| RecordId(base + i)).collect();
        let a: Vec<u32> = (0..64).collect();
        let b: Vec<u32> = (0..64).filter(|i| i % 2 == 0).collect();
        let mut out = Vec::new();
        intersect_clusters(&a, &b, &rids, &mut out);
        assert_eq!(out, reference_intersect(&a, &b, &rids));
    }
}
