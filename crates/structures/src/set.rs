//! A Harris-style lock-free sorted set on LL/SC.
//!
//! Harris's linked list (DISC 2001) descends directly from the lock-free
//! lists of Valois and the LL/SC-assuming algorithms the paper re-enables:
//! deletion happens in two steps — *logically*, by marking the victim's
//! next-link, then *physically*, by unlinking it, with every traverser
//! helping to complete unfinished unlinks. On CAS the algorithm needs
//! tagged pointers to survive reuse; on LL/SC the mark bit rides in the
//! link word and SC does the rest.
//!
//! **Reclamation scope note:** nodes are allocated from a bump arena and
//! **never reused** — safe memory reclamation for lock-free lists (hazard
//! pointers, epochs) is its own research lineage and out of scope for this
//! reproduction. The capacity therefore bounds the *total number of
//! inserts over the set's lifetime*, not its live size; this is documented
//! behaviour, not a leak.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::arena::StructureError;
use nbsp_core::{Backoff, LlScVar};

/// Link encoding: bit 0 is the deletion mark of the node *containing* the
/// link; the remaining bits are (index + 1) of the successor, 0 = end.
fn link(idx_plus_one: u64, marked: bool) -> u64 {
    (idx_plus_one << 1) | u64::from(marked)
}

fn link_target(l: u64) -> u64 {
    l >> 1
}

fn link_marked(l: u64) -> bool {
    l & 1 == 1
}

/// A bounded lock-free sorted set of `u64` keys over any [`LlScVar`]
/// implementation.
///
/// ```
/// use nbsp_core::{CasLlSc, Native, TagLayout};
/// use nbsp_structures::Set;
///
/// let set = Set::new(
///     8,
///     || CasLlSc::new_native(TagLayout::half(), 0).unwrap(),
///     &mut Native,
/// );
/// let mut ctx = Native;
/// assert!(set.add(&mut ctx, 5)?);
/// assert!(set.add(&mut ctx, 3)?);
/// assert!(!set.add(&mut ctx, 5)?); // already present
/// assert!(set.contains(&mut ctx, 3));
/// assert!(set.remove(&mut ctx, 3));
/// assert!(!set.contains(&mut ctx, 3));
/// # Ok::<(), nbsp_structures::StructureError>(())
/// ```
pub struct Set<V: LlScVar> {
    head: V,
    next: Vec<V>,
    keys: Vec<AtomicU64>,
    bump: AtomicUsize,
}

impl<V: LlScVar> fmt::Debug for Set<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Set")
            .field("capacity", &self.keys.len())
            .finish_non_exhaustive()
    }
}

impl<V: LlScVar> Set<V> {
    /// Creates an empty set that can absorb at most `capacity` inserts
    /// over its lifetime (see the module-level reclamation note).
    ///
    /// # Panics
    ///
    /// Panics if the link encoding (`2 · (capacity + 1)`) exceeds the
    /// variables' value range.
    #[must_use]
    pub fn new(capacity: usize, mut make_var: impl FnMut() -> V, ctx: &mut V::Ctx<'_>) -> Self {
        let head = make_var();
        assert!(
            link(capacity as u64 + 1, true) <= head.max_val(),
            "capacity {capacity} too large for the variable's value range"
        );
        let set = Set {
            head,
            next: (0..capacity).map(|_| make_var()).collect(),
            keys: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            bump: AtomicUsize::new(0),
        };
        set.force_store(ctx, &set.head, link(0, false));
        set
    }

    fn force_store(&self, ctx: &mut V::Ctx<'_>, var: &V, value: u64) {
        let mut keep = V::Keep::default();
        loop {
            let _ = var.ll(ctx, &mut keep);
            if var.sc(ctx, &mut keep, value) {
                return;
            }
        }
    }

    /// Total inserts still available.
    #[must_use]
    pub fn remaining_capacity(&self) -> usize {
        self.keys.len().saturating_sub(self.bump.load(Ordering::SeqCst))
    }

    fn link_var(&self, at: u64) -> &V {
        // at = 0 addresses the head; otherwise node (at - 1)'s next link.
        if at == 0 {
            &self.head
        } else {
            &self.next[(at - 1) as usize]
        }
    }

    /// Finds the window `(prev, curr)` for `key`: `prev` addresses the
    /// link to follow (0 = head), `curr` is the first unmarked node with
    /// `node.key >= key` (or 0 at end of list). Physically unlinks marked
    /// nodes it passes (the helping step).
    fn search(&self, ctx: &mut V::Ctx<'_>, key: u64) -> (u64, u64) {
        let mut backoff = Backoff::new();
        'restart: loop {
            let mut prev = 0u64; // address of the head link
            let mut keep = V::Keep::default();
            let mut prev_link = self.link_var(prev).ll(ctx, &mut keep);
            if link_marked(prev_link) && prev != 0 {
                backoff.spin();
                continue 'restart; // prev itself got deleted; restart
            }
            loop {
                let curr = link_target(prev_link);
                if curr == 0 {
                    self.link_var(prev).cl(ctx, &mut keep);
                    return (prev, 0);
                }
                let curr_idx = (curr - 1) as usize;
                let curr_link = self.next[curr_idx].read(ctx);
                if link_marked(curr_link) {
                    // curr is logically deleted: help unlink it from prev.
                    let unlinked = self.link_var(prev).sc(
                        ctx,
                        &mut keep,
                        link(link_target(curr_link), false),
                    );
                    if !unlinked {
                        backoff.spin();
                        continue 'restart;
                    }
                    // Re-arm the sequence on prev and continue from there.
                    prev_link = self.link_var(prev).ll(ctx, &mut keep);
                    continue;
                }
                let curr_key = self.keys[curr_idx].load(Ordering::SeqCst);
                if curr_key >= key {
                    self.link_var(prev).cl(ctx, &mut keep);
                    return (prev, curr);
                }
                // Advance: prev becomes curr.
                self.link_var(prev).cl(ctx, &mut keep);
                prev = curr;
                prev_link = self.link_var(prev).ll(ctx, &mut keep);
                if link_marked(prev_link) {
                    self.link_var(prev).cl(ctx, &mut keep);
                    backoff.spin();
                    continue 'restart;
                }
            }
        }
    }

    /// Inserts `key`. Returns `Ok(false)` if it was already present.
    ///
    /// # Errors
    ///
    /// Returns [`StructureError::Full`] when the lifetime insert budget is
    /// exhausted.
    pub fn add(&self, ctx: &mut V::Ctx<'_>, key: u64) -> Result<bool, StructureError> {
        let mut backoff = Backoff::new();
        // The node this call splices in, allocated on the first attempt
        // that needs it and kept across retries: it stays unpublished
        // until the splice SC succeeds, so a retry may rewrite it and a
        // failed splice costs no budget.
        let mut spare: Option<usize> = None;
        loop {
            let (prev, curr) = self.search(ctx, key);
            if curr != 0 && self.keys[(curr - 1) as usize].load(Ordering::SeqCst) == key {
                return Ok(false);
            }
            let idx = match spare {
                Some(idx) => idx,
                None => {
                    // A fresh node (never reclaimed; see module docs).
                    let idx = self.bump.fetch_add(1, Ordering::SeqCst);
                    if idx >= self.keys.len() {
                        self.bump.store(self.keys.len(), Ordering::SeqCst);
                        return Err(StructureError::Full);
                    }
                    self.keys[idx].store(key, Ordering::SeqCst);
                    *spare.insert(idx)
                }
            };
            self.force_store(ctx, &self.next[idx], link(curr, false));
            // Splice it in after `prev` — SC fails if the window moved.
            let mut keep = V::Keep::default();
            let prev_link = self.link_var(prev).ll(ctx, &mut keep);
            if !link_marked(prev_link)
                && link_target(prev_link) == curr
                && self
                    .link_var(prev)
                    .sc(ctx, &mut keep, link(idx as u64 + 1, false))
            {
                return Ok(true);
            }
            self.link_var(prev).cl(ctx, &mut keep);
            // Window moved: retry with the same node after backing off.
            backoff.spin();
        }
    }

    /// Removes `key`. Returns `false` if it was not present.
    pub fn remove(&self, ctx: &mut V::Ctx<'_>, key: u64) -> bool {
        let mut backoff = Backoff::new();
        loop {
            let (prev, curr) = self.search(ctx, key);
            if curr == 0 || self.keys[(curr - 1) as usize].load(Ordering::SeqCst) != key {
                return false;
            }
            let curr_idx = (curr - 1) as usize;
            // Logical delete: mark curr's next link.
            let mut keep = V::Keep::default();
            let curr_link = self.next[curr_idx].ll(ctx, &mut keep);
            if link_marked(curr_link) {
                self.next[curr_idx].cl(ctx, &mut keep);
                continue; // someone else is deleting it; retry → not found
            }
            if !self
                .next[curr_idx]
                .sc(ctx, &mut keep, link(link_target(curr_link), true))
            {
                backoff.spin();
                continue;
            }
            // Physical unlink, best effort (search() helps if we fail).
            let mut pkeep = V::Keep::default();
            let prev_link = self.link_var(prev).ll(ctx, &mut pkeep);
            if !link_marked(prev_link)
                && link_target(prev_link) == curr
                && self
                    .link_var(prev)
                    .sc(ctx, &mut pkeep, link(link_target(curr_link), false))
            {
                // unlinked
            } else {
                self.link_var(prev).cl(ctx, &mut pkeep);
            }
            return true;
        }
    }

    /// Membership test. Linearizes inside the traversal.
    pub fn contains(&self, ctx: &mut V::Ctx<'_>, key: u64) -> bool {
        let (_prev, curr) = self.search(ctx, key);
        curr != 0 && self.keys[(curr - 1) as usize].load(Ordering::SeqCst) == key
    }

    /// The smallest live key, or `None` if the set was empty — the
    /// peek-min of a priority queue (the set's sorted order makes it the
    /// head of the list). Linearizes within the traversal.
    pub fn first(&self, ctx: &mut V::Ctx<'_>) -> Option<u64> {
        let mut l = self.head.read(ctx);
        loop {
            let target = link_target(l);
            if target == 0 {
                return None;
            }
            let idx = (target - 1) as usize;
            let nl = self.next[idx].read(ctx);
            if !link_marked(nl) {
                return Some(self.keys[idx].load(Ordering::SeqCst));
            }
            l = nl;
        }
    }

    /// Removes and returns the smallest key — the extract-min of a
    /// priority queue. Lock-free: a retry means another thread extracted
    /// the key first.
    pub fn extract_min(&self, ctx: &mut V::Ctx<'_>) -> Option<u64> {
        let mut backoff = Backoff::new();
        loop {
            let k = self.first(ctx)?;
            if self.remove(ctx, k) {
                return Some(k);
            }
            // Another thread extracted this minimum first.
            backoff.spin();
        }
    }

    /// The live keys in ascending order (quiescent use only).
    pub fn to_vec_quiescent(&self, ctx: &mut V::Ctx<'_>) -> Vec<u64> {
        let mut out = Vec::new();
        let mut l = self.head.read(ctx);
        while link_target(l) != 0 {
            let idx = (link_target(l) - 1) as usize;
            let nl = self.next[idx].read(ctx);
            if !link_marked(nl) {
                out.push(self.keys[idx].load(Ordering::SeqCst));
            }
            l = nl;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_core::bounded::BoundedDomain;
    use nbsp_core::lock_baseline::LockLlSc;
    use nbsp_core::{CasLlSc, Native, TagLayout};
    use nbsp_memsim::ProcId;
    use std::collections::BTreeSet;

    fn native_set(capacity: usize) -> Set<CasLlSc<Native>> {
        Set::new(
            capacity,
            || CasLlSc::new_native(TagLayout::half(), 0).unwrap(),
            &mut Native,
        )
    }

    #[test]
    fn add_contains_remove_cycle() {
        let s = native_set(8);
        let mut ctx = Native;
        assert!(!s.contains(&mut ctx, 5));
        assert!(s.add(&mut ctx, 5).unwrap());
        assert!(s.contains(&mut ctx, 5));
        assert!(!s.add(&mut ctx, 5).unwrap());
        assert!(s.remove(&mut ctx, 5));
        assert!(!s.contains(&mut ctx, 5));
        assert!(!s.remove(&mut ctx, 5));
    }

    #[test]
    fn keys_stay_sorted() {
        let s = native_set(16);
        let mut ctx = Native;
        for k in [9, 1, 5, 3, 7] {
            assert!(s.add(&mut ctx, k).unwrap());
        }
        assert_eq!(s.to_vec_quiescent(&mut ctx), vec![1, 3, 5, 7, 9]);
        assert!(s.remove(&mut ctx, 5));
        assert_eq!(s.to_vec_quiescent(&mut ctx), vec![1, 3, 7, 9]);
    }

    #[test]
    fn duplicates_across_delete_generations() {
        let s = native_set(8);
        let mut ctx = Native;
        for _ in 0..3 {
            assert!(s.add(&mut ctx, 4).unwrap());
            assert!(s.remove(&mut ctx, 4));
        }
        assert!(!s.contains(&mut ctx, 4));
        assert_eq!(s.to_vec_quiescent(&mut ctx), Vec::<u64>::new());
    }

    #[test]
    fn lifetime_capacity_is_enforced() {
        let s = native_set(2);
        let mut ctx = Native;
        assert!(s.add(&mut ctx, 1).unwrap());
        assert!(s.remove(&mut ctx, 1)); // node NOT recycled (by design)
        assert!(s.add(&mut ctx, 2).unwrap());
        assert_eq!(s.add(&mut ctx, 3), Err(StructureError::Full));
        assert_eq!(s.remaining_capacity(), 0);
    }

    #[test]
    fn boundary_keys() {
        let s = native_set(4);
        let mut ctx = Native;
        assert!(s.add(&mut ctx, 0).unwrap());
        assert!(s.add(&mut ctx, u32::MAX as u64).unwrap());
        assert!(s.contains(&mut ctx, 0));
        assert!(s.contains(&mut ctx, u32::MAX as u64));
        assert_eq!(s.to_vec_quiescent(&mut ctx), vec![0, u32::MAX as u64]);
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let s = native_set(4 * 200);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = &s;
                scope.spawn(move || {
                    let mut ctx = Native;
                    for i in 0..200u64 {
                        assert!(s.add(&mut ctx, t * 1000 + i).unwrap());
                    }
                });
            }
        });
        let mut ctx = Native;
        let v = s.to_vec_quiescent(&mut ctx);
        assert_eq!(v.len(), 800);
        assert!(v.windows(2).all(|w| w[0] < w[1]), "sorted & deduped");
    }

    #[test]
    fn concurrent_add_remove_is_coherent() {
        // Threads fight over a small key range; afterwards the set's
        // contents must equal the replayed effect of the successful ops.
        let s = native_set(8_000);
        let ops: Vec<Vec<(bool, u64, bool)>> = std::thread::scope(|scope| {
            (0..4u64)
                .map(|t| {
                    let s = &s;
                    scope.spawn(move || {
                        let mut ctx = Native;
                        let mut log = Vec::new();
                        let mut x = t.wrapping_mul(0x9e3779b97f4a7c15) | 1;
                        for _ in 0..1_000 {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let key = (x >> 33) % 8;
                            if x & 1 == 0 {
                                let ok = s.add(&mut ctx, key).unwrap_or(false);
                                log.push((true, key, ok));
                            } else {
                                let ok = s.remove(&mut ctx, key);
                                log.push((false, key, ok));
                            }
                        }
                        log
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // Sanity: per key, successful adds and removes alternate in any
        // valid linearization, so their counts differ by at most… globally
        // we can at least check: final membership == (adds - removes) ∈ {0,1}
        let mut ctx = Native;
        let live: BTreeSet<u64> = s.to_vec_quiescent(&mut ctx).into_iter().collect();
        for key in 0..8u64 {
            let adds: i64 = ops
                .iter()
                .flatten()
                .filter(|(is_add, k, ok)| *is_add && *k == key && *ok)
                .count() as i64;
            let removes: i64 = ops
                .iter()
                .flatten()
                .filter(|(is_add, k, ok)| !*is_add && *k == key && *ok)
                .count() as i64;
            let expected_live = adds - removes;
            assert!(
                (0..=1).contains(&expected_live),
                "key {key}: {adds} adds vs {removes} removes is impossible"
            );
            assert_eq!(
                live.contains(&key),
                expected_live == 1,
                "key {key}: membership does not match successful op counts"
            );
        }
    }

    #[test]
    fn first_and_extract_min() {
        let s = native_set(16);
        let mut ctx = Native;
        assert_eq!(s.first(&mut ctx), None);
        for k in [5, 2, 9, 7] {
            assert!(s.add(&mut ctx, k).unwrap());
        }
        assert_eq!(s.first(&mut ctx), Some(2));
        assert_eq!(s.extract_min(&mut ctx), Some(2));
        assert_eq!(s.extract_min(&mut ctx), Some(5));
        assert_eq!(s.first(&mut ctx), Some(7));
        assert_eq!(s.extract_min(&mut ctx), Some(7));
        assert_eq!(s.extract_min(&mut ctx), Some(9));
        assert_eq!(s.extract_min(&mut ctx), None);
    }

    #[test]
    fn concurrent_extract_min_takes_each_key_once() {
        // Priority-queue usage: producers insert unique keys; consumers
        // extract-min. Every key must be extracted exactly once and in
        // globally respectable order per consumer.
        let s = native_set(4_096);
        let mut ctx = Native;
        for k in 0..1_000u64 {
            s.add(&mut ctx, k).unwrap();
        }
        let taken: Vec<Vec<u64>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let s = &s;
                    scope.spawn(move || {
                        let mut ctx = Native;
                        let mut mine = Vec::new();
                        while let Some(k) = s.extract_min(&mut ctx) {
                            mine.push(k);
                        }
                        mine
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mut all: Vec<u64> = taken.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1_000).collect::<Vec<u64>>(), "each key exactly once");
        // Per-consumer sequences are strictly increasing (extract-min
        // never goes backwards for a single thread).
        for mine in &taken {
            assert!(mine.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn works_on_bounded_tags() {
        let d = BoundedDomain::<Native>::new(2, 2).unwrap();
        let mut me0 = d.proc(0);
        let s = Set::new(64, || d.var(0).unwrap(), &mut me0);
        let mut me1 = d.proc(1);
        std::thread::scope(|scope| {
            let s = &s;
            scope.spawn(move || {
                for i in 0..20u64 {
                    let _ = s.add(&mut me0, i * 2);
                }
            });
            scope.spawn(move || {
                for i in 0..20u64 {
                    let _ = s.add(&mut me1, i * 2 + 1);
                }
            });
        });
    }

    #[test]
    fn works_on_lock_baseline() {
        let mut c0 = ProcId::new(0);
        let s = Set::new(8, || LockLlSc::new(2, 0), &mut c0);
        assert!(s.add(&mut c0, 2).unwrap());
        assert!(s.contains(&mut c0, 2));
        assert!(s.remove(&mut c0, 2));
    }
}
