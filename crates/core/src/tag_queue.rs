//! The constant-time tag queue of Figure 7.
//!
//! The bounded-tag construction keeps, per process, a queue `Q` of all
//! `2Nk + 1` tags and performs two operations on it:
//!
//! * line 10: `delete(Q, t); enqueue(Q, t)` — move an observed tag to the
//!   back, so it will not be chosen again soon;
//! * line 12: `t := dequeue(Q); enqueue(Q, t)` — take the head as the next
//!   tag to use, recycling it to the back.
//!
//! The paper notes that "by maintaining Q as a doubly-linked list, and by
//! having a static index table with pointers to each tag, the operations on
//! Q can also be implemented in constant time". [`TagQueue`] is that data
//! structure: since every tag is always present, the list is circular and
//! both operations reduce to O(1) pointer surgery with **no allocation**
//! after construction.

/// A fixed-universe queue of the tags `0..universe`, all always present,
/// supporting O(1) *rotate* (dequeue + re-enqueue) and *move-to-back*.
///
/// ```
/// use nbsp_core::TagQueue;
///
/// let mut q = TagQueue::new(5); // tags 0,1,2,3,4 in order
/// assert_eq!(q.rotate(), 0);    // head goes to the back
/// assert_eq!(q.rotate(), 1);
/// q.move_to_back(2);            // skip 2
/// assert_eq!(q.rotate(), 3);    // 3 is the new head
/// assert_eq!(q.to_vec(), vec![4, 0, 1, 2, 3]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagQueue {
    next: Vec<u32>,
    prev: Vec<u32>,
    head: u32,
}

impl TagQueue {
    /// Creates a queue containing `0, 1, …, universe - 1` in that order.
    ///
    /// # Panics
    ///
    /// Panics if `universe` is zero or exceeds `u32::MAX as usize`.
    #[must_use]
    pub fn new(universe: usize) -> Self {
        assert!(universe > 0, "tag universe must be non-empty");
        assert!(
            universe <= u32::MAX as usize,
            "tag universe too large for u32 links"
        );
        let n = universe as u32;
        let next: Vec<u32> = (0..n).map(|i| (i + 1) % n).collect();
        let prev: Vec<u32> = (0..n).map(|i| (i + n - 1) % n).collect();
        TagQueue {
            next,
            prev,
            head: 0,
        }
    }

    /// Number of tags in the universe (the queue always contains all of
    /// them).
    #[must_use]
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Always false: the universe is non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The tag currently at the front (the next [`TagQueue::rotate`] result).
    #[must_use]
    pub fn front(&self) -> u64 {
        u64::from(self.head)
    }

    /// Figure 7 line 12: removes the head, appends it at the back, and
    /// returns it. O(1): on a circular list this is just advancing the head.
    pub fn rotate(&mut self) -> u64 {
        let t = self.head;
        self.head = self.next[t as usize];
        u64::from(t)
    }

    /// Figure 7 line 10: moves `tag` to the back of the queue. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `tag` is outside the universe.
    pub fn move_to_back(&mut self, tag: u64) {
        let n = self.next.len() as u64;
        assert!(tag < n, "tag {tag} outside universe of {n}");
        let t = tag as u32;
        if t == self.head {
            // Head to back: advance the head pointer.
            self.head = self.next[t as usize];
            return;
        }
        let tail = self.prev[self.head as usize];
        if t == tail {
            return; // already at the back
        }
        // Unlink t …
        let (tn, tp) = (self.next[t as usize], self.prev[t as usize]);
        self.next[tp as usize] = tn;
        self.prev[tn as usize] = tp;
        // … and splice it between tail and head.
        self.next[tail as usize] = t;
        self.prev[t as usize] = tail;
        self.next[t as usize] = self.head;
        self.prev[self.head as usize] = t;
    }

    /// The queue contents front-to-back (O(n); for tests and audits).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        let mut cur = self.head;
        for _ in 0..self.len() {
            out.push(u64::from(cur));
            cur = self.next[cur as usize];
        }
        out
    }

    /// Position of `tag` from the front (O(n); for tests and audits).
    ///
    /// # Panics
    ///
    /// Panics if `tag` is outside the universe.
    #[must_use]
    pub fn position(&self, tag: u64) -> usize {
        assert!((tag as usize) < self.len(), "tag outside universe");
        let mut cur = self.head;
        for i in 0..self.len() {
            if u64::from(cur) == tag {
                return i;
            }
            cur = self.next[cur as usize];
        }
        unreachable!("tag universe invariant violated");
    }
}

/// The *paper-literal* tag queue: Figure 7 line 10 as written.
///
/// Line 10 reads `delete(Q, t); enqueue(Q, t)` over a plain queue, which
/// costs a linear search of all `2Nk + 1` tags on **every** SC — the O(Nk)
/// tag-reuse scan that the indexed [`TagQueue`] (the paper's own
/// constant-time remark) eliminates. This implementation exists as the E9
/// ablation baseline: the `fig7-bounded` provider over this queue
/// (`Fig7Bounded<ScanQueue>`) lets the experiment show the asymptotic gap
/// instead of asserting it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanQueue {
    q: std::collections::VecDeque<u32>,
}

impl ScanQueue {
    /// Creates a queue containing `0, 1, …, universe - 1` in that order.
    ///
    /// # Panics
    ///
    /// Panics if `universe` is zero or exceeds `u32::MAX as usize`.
    #[must_use]
    pub fn new(universe: usize) -> Self {
        assert!(universe > 0, "tag universe must be non-empty");
        assert!(
            universe <= u32::MAX as usize,
            "tag universe too large for u32 links"
        );
        ScanQueue {
            q: (0..universe as u32).collect(),
        }
    }

    /// Number of tags in the universe.
    #[must_use]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Always false: the universe is non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Figure 7 line 12: dequeue + re-enqueue. O(1) even here.
    pub fn rotate(&mut self) -> u64 {
        let t = self.q.pop_front().expect("universe is non-empty");
        self.q.push_back(t);
        u64::from(t)
    }

    /// Figure 7 line 10, literally: `delete(Q, t); enqueue(Q, t)` by
    /// linear search — **O(universe) per call**, the cost E9 measures.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is outside the universe.
    pub fn move_to_back(&mut self, tag: u64) {
        assert!(
            (tag as usize) < self.q.len(),
            "tag {tag} outside universe of {}",
            self.q.len()
        );
        let i = self
            .q
            .iter()
            .position(|&x| u64::from(x) == tag)
            .expect("every tag is always present");
        self.q.remove(i);
        self.q.push_back(tag as u32);
    }

    /// The queue contents front-to-back (for tests and audits).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u64> {
        self.q.iter().map(|&x| u64::from(x)).collect()
    }

    /// Position of `tag` from the front (O(n); for tests and audits).
    ///
    /// # Panics
    ///
    /// Panics if `tag` is outside the universe.
    #[must_use]
    pub fn position(&self, tag: u64) -> usize {
        assert!((tag as usize) < self.len(), "tag outside universe");
        self.q
            .iter()
            .position(|&x| u64::from(x) == tag)
            .expect("every tag is always present")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_memsim::rng::SplitMix64;
    use std::collections::VecDeque;

    #[test]
    fn initial_order() {
        let q = TagQueue::new(4);
        assert_eq!(q.to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 4);
        assert!(!q.is_empty());
        assert_eq!(q.front(), 0);
    }

    #[test]
    fn rotate_cycles_through_everything() {
        let mut q = TagQueue::new(3);
        let seq: Vec<u64> = (0..7).map(|_| q.rotate()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn move_to_back_of_head() {
        let mut q = TagQueue::new(3);
        q.move_to_back(0);
        assert_eq!(q.to_vec(), vec![1, 2, 0]);
    }

    #[test]
    fn move_to_back_of_tail_is_noop() {
        let mut q = TagQueue::new(3);
        q.move_to_back(2);
        assert_eq!(q.to_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn move_to_back_of_middle() {
        let mut q = TagQueue::new(5);
        q.move_to_back(2);
        assert_eq!(q.to_vec(), vec![0, 1, 3, 4, 2]);
    }

    #[test]
    fn singleton_universe() {
        let mut q = TagQueue::new(1);
        assert_eq!(q.rotate(), 0);
        assert_eq!(q.rotate(), 0);
        q.move_to_back(0);
        assert_eq!(q.to_vec(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn move_to_back_rejects_foreign_tag() {
        let mut q = TagQueue::new(3);
        q.move_to_back(3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_universe_rejected() {
        let _ = TagQueue::new(0);
    }

    #[test]
    fn recently_moved_tag_is_chosen_last() {
        // The property Figure 7 needs: after move_to_back(t), it takes
        // len-1 rotations before t is returned again.
        let mut q = TagQueue::new(8);
        q.move_to_back(5);
        let mut seen_before_5 = 0;
        loop {
            let t = q.rotate();
            if t == 5 {
                break;
            }
            seen_before_5 += 1;
        }
        assert_eq!(seen_before_5, 7);
    }

    /// Reference model: a VecDeque holding the same permutation.
    #[derive(Debug)]
    struct Model(VecDeque<u64>);

    impl Model {
        fn new(n: usize) -> Self {
            Model((0..n as u64).collect())
        }
        fn rotate(&mut self) -> u64 {
            let t = self.0.pop_front().unwrap();
            self.0.push_back(t);
            t
        }
        fn move_to_back(&mut self, tag: u64) {
            let i = self.0.iter().position(|&x| x == tag).unwrap();
            self.0.remove(i);
            self.0.push_back(tag);
        }
    }

    // Deterministic randomized differential tests (seeded SplitMix64, so
    // failures reproduce exactly; no registry dependency needed).
    #[test]
    fn matches_vecdeque_model() {
        let mut rng = SplitMix64::new(0x7a67_0001);
        for case in 0..200 {
            let universe = 1 + rng.next_index(39);
            let mut q = TagQueue::new(universe);
            let mut m = Model::new(universe);
            let ops = rng.next_index(200);
            for step in 0..ops {
                if rng.next_index(2) == 0 {
                    assert_eq!(q.rotate(), m.rotate(), "case {case} step {step}");
                } else {
                    let tag = rng.next_below(universe as u64);
                    q.move_to_back(tag);
                    m.move_to_back(tag);
                }
                assert_eq!(
                    q.to_vec(),
                    m.0.iter().copied().collect::<Vec<_>>(),
                    "case {case} step {step}"
                );
            }
        }
    }

    #[test]
    fn position_is_consistent_with_to_vec() {
        let mut rng = SplitMix64::new(0x7a67_0002);
        for _ in 0..100 {
            let universe = 1 + rng.next_index(19);
            let mut q = TagQueue::new(universe);
            for _ in 0..rng.next_index(50) {
                q.move_to_back(rng.next_below(universe as u64));
            }
            let v = q.to_vec();
            for (i, &t) in v.iter().enumerate() {
                assert_eq!(q.position(t), i);
            }
        }
    }

    // The scan ablation must be behaviourally identical to the indexed
    // queue — only the cost differs. Drive both with the same op stream.
    #[test]
    fn scan_queue_matches_indexed_queue() {
        let mut rng = SplitMix64::new(0x7a67_0003);
        for case in 0..100 {
            let universe = 1 + rng.next_index(29);
            let mut fast = TagQueue::new(universe);
            let mut slow = ScanQueue::new(universe);
            assert_eq!(fast.len(), slow.len());
            assert!(!slow.is_empty());
            for step in 0..rng.next_index(150) {
                if rng.next_index(2) == 0 {
                    assert_eq!(fast.rotate(), slow.rotate(), "case {case} step {step}");
                } else {
                    let tag = rng.next_below(universe as u64);
                    fast.move_to_back(tag);
                    slow.move_to_back(tag);
                }
                assert_eq!(fast.to_vec(), slow.to_vec(), "case {case} step {step}");
            }
            let v = slow.to_vec();
            for (i, &t) in v.iter().enumerate() {
                assert_eq!(slow.position(t), i);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn scan_queue_rejects_foreign_tag() {
        let mut q = ScanQueue::new(3);
        q.move_to_back(3);
    }
}
