//! An ordered map on multi-word LLX/SCX — the external BST of Ellen,
//! Fatourou, Ruppert and van Breugel, written against
//! [`nbsp_llx::LlxDomain`] so one implementation runs on every registry
//! provider.
//!
//! **Shape.** The tree is *external* (leaf-oriented): every key/value
//! pair lives in a leaf; internal nodes carry routing keys only. An
//! internal node's key is strictly greater than every key in its left
//! subtree and at most every key in its right (`k < node.key` goes
//! left). Two sentinel keys `∞₁ < ∞₂` above every user key give the tree
//! a permanent spine — the root is `internal(∞₂)` with leaf children
//! `(∞₁, ∞₂)` — so every *user* leaf has both a parent and a grandparent
//! and no update ever special-cases an empty tree.
//!
//! **Updates are copy-shaped.** Records are immutable except through
//! SCX, and every SCX installs only *freshly allocated* records:
//!
//! * insert of a new key replaces the reached leaf's edge with a new
//!   internal node over `{old leaf, new leaf}` (1 SCX, V = {parent});
//! * insert of an existing key swaps the leaf for a new one (V =
//!   {parent, leaf}, old leaf finalized);
//! * insert of an existing key with the value it already maps to is
//!   read-only: it returns that value from the reached leaf, with no
//!   record, no LLX and no SCX;
//! * delete splices the leaf and its parent out by installing a **fresh
//!   copy of the sibling** (V = {grandparent, parent, leaf, sibling},
//!   the latter three finalized).
//!
//! Copying the sibling — rather than re-linking it, as the lock-based
//! textbook splice would — is what satisfies the SCX *freshness*
//! requirement: the grandparent's child field never returns to a value
//! it held before, so a stalled helper's late field CAS can never
//! resurrect a spliced-out subtree. This is the Brown-style discipline,
//! and it is also why delete is the `PROVIDER_K` worst case: four
//! linked handles plus help's one transient sequence.
//!
//! **Reads.** `get` is a plain traversal (leaves are immutable; helping
//! happens only if it lands on a frozen record via LLX elsewhere). Every
//! record a search reaches was in the tree at some instant during the
//! search — a removed record keeps its edges and no record is ever
//! linked twice — so the reached leaf's pair held at that instant, and
//! `get` linearizes there. A same-value insert shares the argument: it
//! linearizes at the instant its leaf showed `key → value`, where writing
//! `value` changes nothing.
//! `range_snapshot` is the paper-pitched VL/VLX read path: an unlinked
//! LLX snapshot per visited record, then one `vlx_snapshots` pass over
//! all of them — if every record is unchanged, the whole traversal is a
//! consistent cut of the tree at the validation instant, and the scan
//! linearizes there. Obstruction-free: concurrent updates force a
//! retry.
//!
//! **Space.** The usual workspace arena discipline: capacity is a
//! lifetime budget ([`ordmap_capacity`]), records are never
//! reclaimed, and an exhausted arena is a typed
//! [`StructureError::Full`].

use std::fmt;
use std::sync::Mutex;

use nbsp_core::{Backoff, LlScVar};
use nbsp_llx::{LlxDomain, LlxOutcome};

use crate::StructureError;

/// The smaller sentinel: strictly above every user key.
const INF1: u64 = u64::MAX - 1;
/// The larger sentinel (the root's routing key).
const INF2: u64 = u64::MAX;

const LEFT: usize = 0;
const RIGHT: usize = 1;
const KEY: usize = 0;
const VAL: usize = 1;

/// Child-edge encoding: `0` is null, `i + 1` names record `i` — the
/// crate's index-plus-one idiom, so a zero-initialized field is an empty
/// edge. A leaf's edges are both null and an internal node's never are,
/// so whichever edge a descent reads tells it whether it stands on a leaf.
fn enc(rec: usize) -> u64 {
    rec as u64 + 1
}

fn dec(edge: u64) -> usize {
    (edge - 1) as usize
}

/// `key` routes to which child of a node with routing key `node_key`.
fn route(key: u64, node_key: u64) -> usize {
    if key < node_key {
        LEFT
    } else {
        RIGHT
    }
}

/// A non-blocking ordered map (external BST over LLX/SCX), keyed by
/// `u64` user ids strictly below `u64::MAX - 1`, provider-generic like
/// every structure in this crate.
///
/// `n` processes; mutating calls take the caller's process id `p` (its
/// SCX descriptor slot). All methods take the provider operation
/// context.
pub struct OrdMap<V: LlScVar> {
    /// Two fields (left, right child) and two meta words (key, value)
    /// per record.
    d: LlxDomain<V, 2, 2>,
    root: usize,
}

impl<V: LlScVar> fmt::Debug for OrdMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrdMap").field("domain", &self.d).finish()
    }
}

/// Record budget sufficient for `ops` arbitrary [`OrdMap`] insert/delete
/// calls: 3 sentinel records plus the per-call worst case (an insert of a
/// new key allocates a leaf and an internal node; a delete allocates one
/// sibling copy; contended retries reuse their spares). An insert of the
/// value a key already maps to spends no record, but the bound stays the
/// worst case: whether a call finds its value present depends on the
/// interleaving.
#[must_use]
pub const fn ordmap_capacity(ops: usize) -> usize {
    3 + 2 * ops
}

impl<V: LlScVar> OrdMap<V> {
    /// Builds a map for `n` processes with a lifetime budget of
    /// `capacity` records (see [`ordmap_capacity`]). `make_var`
    /// supplies every LL/SC word, as for
    /// [`Set`](crate::Set)/[`Queue`](crate::Queue), and must return
    /// words holding 0: the whole record arena is built up front, in one
    /// pass, from `3 · capacity + n` of them ([`LlxDomain::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 3` (the sentinels) or the record-index
    /// encoding does not fit the provider's value width; in debug builds,
    /// also if `make_var` returns a word that does not hold 0.
    #[must_use]
    pub fn new(
        n: usize,
        capacity: usize,
        make_var: impl FnMut() -> V,
        ctx: &mut V::Ctx<'_>,
    ) -> Self {
        let d = LlxDomain::new(n, capacity, make_var, ctx);
        assert!(
            capacity as u64 <= d.max_val(),
            "record encoding needs {capacity} values, provider holds {}",
            d.max_val()
        );
        let l = d.alloc(ctx, 0, &[INF1, 0], &[0, 0]).expect("capacity >= 3");
        let r = d.alloc(ctx, 0, &[INF2, 0], &[0, 0]).expect("capacity >= 3");
        let root = d
            .alloc(ctx, 0, &[INF2, 0], &[enc(l), enc(r)])
            .expect("capacity >= 3");
        OrdMap { d, root }
    }

    /// Records left in the lifetime budget.
    #[must_use]
    pub fn remaining_capacity(&self) -> usize {
        self.d.remaining_capacity()
    }

    /// Walks from the root to the leaf `key` routes to, returning
    /// `(grandparent, parent, leaf)`. The grandparent is `None` only when
    /// the leaf hangs directly off the root — which can only be a
    /// sentinel leaf, never a user key.
    ///
    /// One field read per level: the routed edge, which is null exactly
    /// at a leaf (leaf-ness is immutable — no SCX ever writes a null
    /// edge, and every internal node has two children).
    fn search(&self, ctx: &mut V::Ctx<'_>, key: u64) -> (Option<usize>, usize, usize) {
        let mut gp = None;
        let mut p = self.root;
        let mut cur = dec(self.d.read_field(ctx, p, route(key, self.d.meta(p, KEY))));
        loop {
            let edge = self
                .d
                .read_field(ctx, cur, route(key, self.d.meta(cur, KEY)));
            if edge == 0 {
                return (gp, p, cur);
            }
            gp = Some(p);
            p = cur;
            cur = dec(edge);
        }
    }

    /// Looks up `key`. A plain traversal: leaves are immutable, so the
    /// reached leaf either carries the key's current pair or proves the
    /// key absent at some instant during the call. Keys in the sentinel
    /// range (`key >= u64::MAX - 1`) are never stored, so they read as
    /// `None` without a descent.
    pub fn get(&self, ctx: &mut V::Ctx<'_>, key: u64) -> Option<u64> {
        if key >= INF1 {
            return None;
        }
        let (_, _, leaf) = self.search(ctx, key);
        (self.d.meta(leaf, KEY) == key).then(|| self.d.meta(leaf, VAL))
    }

    /// Inserts `key → value` as process `p`, returning the previous value
    /// if the key was present.
    ///
    /// When the reached leaf already maps `key` to `value`, the call is a
    /// read: it returns `Some(value)` and linearizes where [`get`] would
    /// have returned that value, spending no record, LLX or SCX. The
    /// check runs after every search, retries included.
    ///
    /// [`get`]: OrdMap::get
    ///
    /// # Errors
    ///
    /// [`StructureError::Full`] when the record budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `key >= u64::MAX - 1` (the sentinel range).
    pub fn insert(
        &self,
        ctx: &mut V::Ctx<'_>,
        p: usize,
        key: u64,
        value: u64,
    ) -> Result<Option<u64>, StructureError> {
        assert!(key < INF1, "keys must stay below the sentinel range");
        let mut backoff = Backoff::new();
        let mut spare_leaf: Option<usize> = None;
        let mut spare_internal: Option<usize> = None;
        loop {
            let (_gp, par, leaf) = self.search(ctx, key);
            let leaf_key = self.d.meta(leaf, KEY);
            let update = leaf_key == key;
            if update && self.d.meta(leaf, VAL) == value {
                // The leaf held `key → value` at an instant of the search:
                // writing `value` there changes nothing. Spares an earlier
                // attempt took stay unpublished, as in delete.
                return Ok(Some(value));
            }
            // Prepare the records this attempt would install *before*
            // linking anything: allocation failure must not strand open
            // keeps, and an aborted attempt's spares are reused (they were
            // never published, so rewriting them is legal).
            let nl = self.take_spare(ctx, p, &mut spare_leaf, &[key, value], &[0, 0])?;
            let internal = if update {
                None
            } else {
                let (ikey, cl, cr) = if key < leaf_key {
                    (leaf_key, nl, leaf)
                } else {
                    (key, leaf, nl)
                };
                Some(self.take_spare(
                    ctx,
                    p,
                    &mut spare_internal,
                    &[ikey, 0],
                    &[enc(cl), enc(cr)],
                )?)
            };
            let LlxOutcome::Linked(hp) = self.d.llx(ctx, par) else {
                backoff.spin();
                continue;
            };
            let pside = route(key, self.d.meta(par, KEY));
            if hp.field(pside) != enc(leaf) {
                self.d.unlink(ctx, hp);
                backoff.spin();
                continue;
            }
            let committed = if update {
                let LlxOutcome::Linked(hl) = self.d.llx(ctx, leaf) else {
                    self.d.unlink(ctx, hp);
                    backoff.spin();
                    continue;
                };
                let old = self.d.meta(leaf, VAL);
                if self.d.scx(ctx, p, [hp, hl], 0b10, par, pside, enc(nl)) {
                    return Ok(Some(old));
                }
                false
            } else {
                self.d
                    .scx(ctx, p, [hp], 0, par, pside, enc(internal.unwrap()))
            };
            if committed {
                return Ok(None);
            }
            backoff.spin();
        }
    }

    /// Removes `key` as process `p`, returning its value if present.
    ///
    /// The splice: the leaf and its parent are finalized and the
    /// grandparent's edge is redirected to a *fresh copy* of the sibling
    /// (also finalized) — see the module docs for why the copy, not a
    /// re-link, is required.
    ///
    /// # Errors
    ///
    /// [`StructureError::Full`] when the record budget is exhausted (the
    /// sibling copy costs one record).
    ///
    /// # Panics
    ///
    /// Panics if `key >= u64::MAX - 1`.
    pub fn delete(
        &self,
        ctx: &mut V::Ctx<'_>,
        p: usize,
        key: u64,
    ) -> Result<Option<u64>, StructureError> {
        assert!(key < INF1, "keys must stay below the sentinel range");
        let mut backoff = Backoff::new();
        let mut spare: Option<usize> = None;
        loop {
            let (gp, par, leaf) = self.search(ctx, key);
            if self.d.meta(leaf, KEY) != key {
                return Ok(None);
            }
            let gp = gp.expect("user leaves sit at depth >= 2");
            // Reserve the sibling copy before linking (see insert).
            let sp = self.take_spare(ctx, p, &mut spare, &[0, 0], &[0, 0])?;
            let LlxOutcome::Linked(hg) = self.d.llx(ctx, gp) else {
                backoff.spin();
                continue;
            };
            let gside = route(key, self.d.meta(gp, KEY));
            if hg.field(gside) != enc(par) {
                self.d.unlink(ctx, hg);
                backoff.spin();
                continue;
            }
            let LlxOutcome::Linked(hp) = self.d.llx(ctx, par) else {
                self.d.unlink(ctx, hg);
                backoff.spin();
                continue;
            };
            let pside = route(key, self.d.meta(par, KEY));
            if hp.field(pside) != enc(leaf) {
                self.d.unlink(ctx, hp);
                self.d.unlink(ctx, hg);
                backoff.spin();
                continue;
            }
            let sib = dec(hp.field(1 - pside));
            let LlxOutcome::Linked(hl) = self.d.llx(ctx, leaf) else {
                self.d.unlink(ctx, hp);
                self.d.unlink(ctx, hg);
                backoff.spin();
                continue;
            };
            let LlxOutcome::Linked(hs) = self.d.llx(ctx, sib) else {
                self.d.unlink(ctx, hl);
                self.d.unlink(ctx, hp);
                self.d.unlink(ctx, hg);
                backoff.spin();
                continue;
            };
            // The copy takes the sibling's meta and its LLX-snapshotted
            // edges; sibling ∈ V, so a commit certifies the edges fresh.
            self.d.reinit(
                ctx,
                sp,
                &[self.d.meta(sib, KEY), self.d.meta(sib, VAL)],
                &[hs.field(LEFT), hs.field(RIGHT)],
            );
            let old = self.d.meta(leaf, VAL);
            // V = [gp, par, leaf, sib] ancestors-first; finalize all but gp.
            if self
                .d
                .scx(ctx, p, [hg, hp, hl, hs], 0b1110, gp, gside, enc(sp))
            {
                return Ok(Some(old));
            }
            backoff.spin();
        }
    }

    /// Every `key → value` pair with `lo <= key <= hi`, sorted — a
    /// linearizable scan: each visited record is snapshot via unlinked
    /// LLX, and one VLX pass over all of them certifies the traversal as
    /// a consistent cut at the validation instant. Retries while
    /// concurrent updates keep invalidating it (obstruction-free).
    pub fn range_snapshot(&self, ctx: &mut V::Ctx<'_>, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut backoff = Backoff::new();
        'retry: loop {
            let mut snaps = Vec::new();
            let mut out = Vec::new();
            let mut stack = vec![self.root];
            while let Some(rec) = stack.pop() {
                let Some(s) = self.d.llx_snapshot(ctx, rec) else {
                    // Finalized mid-scan: the cut is already stale.
                    backoff.spin();
                    continue 'retry;
                };
                let k = self.d.meta(rec, KEY);
                if s.field(LEFT) == 0 {
                    if k >= lo && k <= hi && k < INF1 {
                        out.push((k, self.d.meta(rec, VAL)));
                    }
                } else {
                    // Left subtree holds keys < k, right holds >= k.
                    if lo < k {
                        stack.push(dec(s.field(LEFT)));
                    }
                    if hi >= k {
                        stack.push(dec(s.field(RIGHT)));
                    }
                }
                snaps.push(s);
            }
            if self.d.vlx_snapshots(ctx, &snaps) {
                out.sort_unstable();
                return out;
            }
            backoff.spin();
        }
    }

    /// The whole map, sorted.
    pub fn snapshot(&self, ctx: &mut V::Ctx<'_>) -> Vec<(u64, u64)> {
        self.range_snapshot(ctx, 0, u64::MAX)
    }

    /// Number of keys currently present (one full validated scan).
    pub fn len(&self, ctx: &mut V::Ctx<'_>) -> usize {
        self.snapshot(ctx).len()
    }

    /// Whether the map holds no keys.
    pub fn is_empty(&self, ctx: &mut V::Ctx<'_>) -> bool {
        self.len(ctx) == 0
    }

    /// Reuses (or allocates, from process `p`'s chunk) a retry spare and
    /// stamps it with this attempt's content. Spares are never published
    /// until the SCX that installs them commits, so rewriting across
    /// retries is legal.
    fn take_spare(
        &self,
        ctx: &mut V::Ctx<'_>,
        p: usize,
        spare: &mut Option<usize>,
        meta: &[u64; 2],
        fields: &[u64; 2],
    ) -> Result<usize, StructureError> {
        match *spare {
            Some(rec) => {
                self.d.reinit(ctx, rec, meta, fields);
                Ok(rec)
            }
            None => {
                let rec = self
                    .d
                    .alloc(ctx, p, meta, fields)
                    .map_err(|_| StructureError::Full)?;
                *spare = Some(rec);
                Ok(rec)
            }
        }
    }
}

/// The lock baseline the experiments measure [`OrdMap`] against: a
/// [`std::collections::BTreeMap`] under one [`Mutex`], mirroring the
/// map's interface (E15's control arm, like `lock` in the provider
/// registry).
#[derive(Debug, Default)]
pub struct LockMap {
    inner: Mutex<std::collections::BTreeMap<u64, u64>>,
}

impl LockMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `key → value`, returning the previous value if present.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        self.inner.lock().unwrap().insert(key, value)
    }

    /// Removes `key`, returning its value if present.
    pub fn delete(&self, key: u64) -> Option<u64> {
        self.inner.lock().unwrap().remove(&key)
    }

    /// Looks up `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.inner.lock().unwrap().get(&key).copied()
    }

    /// Every pair with `lo <= key <= hi`, sorted.
    pub fn range_snapshot(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.inner
            .lock()
            .unwrap()
            .range(lo..=hi)
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether the map holds no keys.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsp_core::{CasLlSc, Native, TagLayout};

    fn native_map(n: usize, ops: usize) -> OrdMap<CasLlSc<Native>> {
        let mut ctx = Native;
        OrdMap::new(
            n,
            ordmap_capacity(ops),
            || CasLlSc::new_native(TagLayout::half(), 0).unwrap(),
            &mut ctx,
        )
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let m = native_map(1, 16);
        let mut ctx = Native;
        assert_eq!(m.get(&mut ctx, 5), None);
        assert_eq!(m.insert(&mut ctx, 0, 5, 50).unwrap(), None);
        assert_eq!(m.insert(&mut ctx, 0, 7, 70).unwrap(), None);
        assert_eq!(m.insert(&mut ctx, 0, 3, 30).unwrap(), None);
        assert_eq!(m.get(&mut ctx, 5), Some(50));
        assert_eq!(m.get(&mut ctx, 4), None);
        assert_eq!(m.insert(&mut ctx, 0, 5, 55).unwrap(), Some(50));
        assert_eq!(m.get(&mut ctx, 5), Some(55));
        assert_eq!(m.delete(&mut ctx, 0, 5).unwrap(), Some(55));
        assert_eq!(m.get(&mut ctx, 5), None);
        assert_eq!(m.delete(&mut ctx, 0, 5).unwrap(), None);
        assert_eq!(m.snapshot(&mut ctx), vec![(3, 30), (7, 70)]);
    }

    #[test]
    fn range_snapshot_bounds() {
        let m = native_map(1, 16);
        let mut ctx = Native;
        for k in [2u64, 4, 6, 8, 10] {
            m.insert(&mut ctx, 0, k, k * 10).unwrap();
        }
        assert_eq!(
            m.range_snapshot(&mut ctx, 4, 8),
            vec![(4, 40), (6, 60), (8, 80)]
        );
        assert_eq!(m.range_snapshot(&mut ctx, 11, 99), vec![]);
        assert_eq!(m.len(&mut ctx), 5);
        assert!(!m.is_empty(&mut ctx));
    }

    #[test]
    fn delete_to_empty_and_reinsert() {
        let m = native_map(1, 32);
        let mut ctx = Native;
        for k in 0..6u64 {
            m.insert(&mut ctx, 0, k, k).unwrap();
        }
        for k in 0..6u64 {
            assert_eq!(m.delete(&mut ctx, 0, k).unwrap(), Some(k));
        }
        assert!(m.is_empty(&mut ctx));
        m.insert(&mut ctx, 0, 9, 99).unwrap();
        assert_eq!(m.snapshot(&mut ctx), vec![(9, 99)]);
    }

    #[test]
    fn descent_on_the_sentinel_spine() {
        // Both ends of the user key range route past the sentinels: 0 is
        // the leftmost key, u64::MAX - 2 sits just below ∞₁.
        const TOP: u64 = u64::MAX - 2;
        let m = native_map(1, 32);
        let mut ctx = Native;
        assert_eq!(m.get(&mut ctx, 0), None);
        assert_eq!(m.get(&mut ctx, TOP), None);
        // The sentinel keys themselves are not user keys: their leaves
        // must not read as stored pairs.
        assert_eq!(m.get(&mut ctx, INF1), None);
        assert_eq!(m.get(&mut ctx, INF2), None);
        assert_eq!(m.delete(&mut ctx, 0, 0).unwrap(), None);
        assert_eq!(m.delete(&mut ctx, 0, TOP).unwrap(), None);
        assert!(m.is_empty(&mut ctx));
        // Look every key up after each insert, so a misrouted descent
        // fails here rather than sending a later insert into endless
        // retries.
        let pairs = [(TOP, 1), (0, 2), (7, 3), (TOP - 1, 4)];
        for (i, &(k, v)) in pairs.iter().enumerate() {
            assert_eq!(m.insert(&mut ctx, 0, k, v).unwrap(), None);
            for &(k, v) in &pairs[..=i] {
                assert_eq!(m.get(&mut ctx, k), Some(v), "key {k}");
            }
        }
        assert_eq!(m.get(&mut ctx, 1), None);
        assert_eq!(m.get(&mut ctx, TOP - 2), None);
        // Delete down to one key, whose leaf ends up right under the
        // sentinel spine, then grow again around it.
        for k in [7, TOP, TOP - 1] {
            assert!(m.delete(&mut ctx, 0, k).unwrap().is_some());
        }
        assert_eq!(m.snapshot(&mut ctx), vec![(0, 2)]);
        assert_eq!(m.get(&mut ctx, 0), Some(2));
        assert_eq!(m.get(&mut ctx, TOP), None);
        assert_eq!(m.delete(&mut ctx, 0, TOP).unwrap(), None);
        assert_eq!(m.insert(&mut ctx, 0, TOP, 5).unwrap(), None);
        assert_eq!(m.insert(&mut ctx, 0, 0, 6).unwrap(), Some(2));
        assert_eq!(m.get(&mut ctx, TOP), Some(5));
        assert_eq!(m.get(&mut ctx, 0), Some(6));
        assert_eq!(m.snapshot(&mut ctx), vec![(0, 6), (TOP, 5)]);
        assert_eq!(m.delete(&mut ctx, 0, 0).unwrap(), Some(6));
        assert_eq!(m.delete(&mut ctx, 0, TOP).unwrap(), Some(5));
        assert!(m.is_empty(&mut ctx));
        assert_eq!(m.get(&mut ctx, INF1), None);
        assert_eq!(m.get(&mut ctx, INF2), None);
    }

    #[test]
    fn same_value_insert_spends_no_record() {
        let m = native_map(1, 16);
        let mut ctx = Native;
        assert_eq!(m.insert(&mut ctx, 0, 5, 50).unwrap(), None);
        assert_eq!(m.insert(&mut ctx, 0, 3, 30).unwrap(), None);
        let before = m.remaining_capacity();
        assert_eq!(m.insert(&mut ctx, 0, 5, 50).unwrap(), Some(50));
        assert_eq!(m.insert(&mut ctx, 0, 3, 30).unwrap(), Some(30));
        assert_eq!(m.remaining_capacity(), before, "a no-op write spent a record");
        assert_eq!(m.get(&mut ctx, 5), Some(50));
        // A different value still replaces the leaf: exactly one record.
        assert_eq!(m.insert(&mut ctx, 0, 5, 51).unwrap(), Some(50));
        assert_eq!(m.remaining_capacity(), before - 1);
        assert_eq!(m.get(&mut ctx, 5), Some(51));
        assert_eq!(m.insert(&mut ctx, 0, 5, 51).unwrap(), Some(51));
        assert_eq!(m.remaining_capacity(), before - 1);
        assert_eq!(m.snapshot(&mut ctx), vec![(3, 30), (5, 51)]);
    }

    #[test]
    fn arena_budget_surfaces_as_full() {
        let m = native_map(1, 1);
        let mut ctx = Native;
        m.insert(&mut ctx, 0, 1, 1).unwrap();
        // Budget for one op: the next new-key insert must fail typed.
        let mut k = 2;
        let err = loop {
            match m.insert(&mut ctx, 0, k, 0) {
                Ok(_) => k += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, StructureError::Full);
    }

    #[test]
    fn concurrent_mixed_ops_conserve() {
        const THREADS: usize = 4;
        const OPS: usize = 600;
        let m = native_map(THREADS, THREADS * OPS + 8);
        let inserted: Vec<u64> = std::thread::scope(|s| {
            (0..THREADS)
                .map(|p| {
                    let m = &m;
                    s.spawn(move || {
                        let mut ctx = Native;
                        let mut net = 0i64;
                        for i in 0..OPS {
                            // Disjoint-ish striped keys plus a contended
                            // hot range [0, 8).
                            let k = if i % 3 == 0 {
                                (i % 8) as u64
                            } else {
                                (p * OPS + i) as u64 + 100
                            };
                            if i % 4 == 3 {
                                if m.delete(&mut ctx, p, k).unwrap().is_some() {
                                    net -= 1;
                                }
                            } else if m.insert(&mut ctx, p, k, k).unwrap().is_none() {
                                net += 1;
                            }
                        }
                        net
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap() as u64)
                .collect()
        });
        let net: i64 = inserted.iter().map(|&x| x as i64).sum();
        let mut ctx = Native;
        assert_eq!(
            m.len(&mut ctx) as i64,
            net,
            "inserts - deletes must equal the final size"
        );
        let snap = m.snapshot(&mut ctx);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "sorted, unique");
    }

    #[test]
    fn works_on_bounded_tags() {
        use nbsp_core::bounded::BoundedDomain;
        let dom = BoundedDomain::<Native>::new(2, 5).unwrap();
        let mut p0 = dom.proc(0);
        let m = OrdMap::new(
            2,
            ordmap_capacity(8),
            || dom.var(0).unwrap(),
            &mut p0,
        );
        m.insert(&mut p0, 0, 1, 10).unwrap();
        m.insert(&mut p0, 0, 2, 20).unwrap();
        assert_eq!(m.delete(&mut p0, 0, 1).unwrap(), Some(10));
        assert_eq!(m.snapshot(&mut p0), vec![(2, 20)]);
    }

    #[test]
    fn lock_map_mirrors_the_interface() {
        let m = LockMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(1), Some(11));
        assert_eq!(m.range_snapshot(0, 5), vec![(1, 11)]);
        assert_eq!(m.delete(1), Some(11));
        assert_eq!(m.len(), 0);
    }
}
