//! **Figure 6 / Theorem 4** — WLL/VL/SC on *W-word* variables from CAS.
//!
//! > *"CAS can be used to implement WLL, VL, and SC operations for an
//! > unlimited number of W-word variables with time complexity Θ(W), Θ(1),
//! > and Θ(W), respectively, and Θ(NW) space overhead."*
//!
//! The one-word constructions force tags and data to share a machine word.
//! This construction spreads a value over `W` *segments*, each carrying the
//! tag plus one word-slice of data, with a *header* word holding the current
//! tag and the identifier of the process whose SC installed it.
//!
//! A successful SC first **announces** its full new value in a shared array
//! `A[p]`, then swings the header, then copies the announced words into the
//! segments. Because the announcing process may stall between the header
//! swing and the copying, every reader *helps*: [`WideVar::wll`] runs the
//! same `Copy` routine, completing any interrupted SC it observes. The
//! announce array is shared by *all* variables of a [`WideDomain`] — that is
//! why the overhead is Θ(NW) rather than the Θ(NWT) of a naive
//! per-variable scheme (experiment E3 measures exactly this).
//!
//! `WLL` is the *weak* LL of Anderson & Moir: when a concurrent SC dooms the
//! sequence anyway, it may return [`WllOutcome::InterferedBy`] instead of a
//! value, letting callers skip computation that a failing SC would discard.

use std::marker::PhantomData;
use std::sync::Arc;

use nbsp_memsim::{CachePadded, ProcId};
use nbsp_telemetry::{record, Event};

use crate::layout::bits_for_count;
use crate::{CasFamily, CasMemory, Error, Native, Result, TagLayout};

/// Result of a [`WideVar::wll`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub enum WllOutcome {
    /// A consistent value was stored into the caller's buffer.
    Success,
    /// A process performed a successful SC during the WLL; no value was
    /// saved, and an SC on the returned keep is certain to fail. The payload
    /// identifies one process that performed such an SC.
    InterferedBy(ProcId),
}

impl WllOutcome {
    /// True iff the WLL saved a consistent value.
    #[must_use]
    pub fn is_success(self) -> bool {
        matches!(self, WllOutcome::Success)
    }
}

/// The private word for a wide LL–SC sequence: the header tag observed by
/// [`WideVar::wll`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WideKeep {
    tag: u64,
}

/// Shared per-(N, W) state for any number of wide variables: the announce
/// array `A[0..N-1][0..W-1]` and the word layouts.
///
/// The domain's space overhead — `N · W` words — is paid **once**, no matter
/// how many variables are created in it (Theorem 4's headline).
#[derive(Debug)]
pub struct WideDomain<F: CasFamily = Native> {
    n: usize,
    w: usize,
    /// Segment layout: tag + data slice. Also used for header tag field.
    seg: TagLayout,
    pid_bits: u32,
    /// `A[p][i]` lives at `announce[p * w + i]`. Every cell is padded to its
    /// own cache line: process `p` streams W stores into row `p` on every
    /// SC while helpers concurrently read other rows, and un-padded rows
    /// false-share at row boundaries (and, for small W, within a line).
    announce: Vec<CachePadded<F::Cell>>,
    _family: PhantomData<fn() -> F>,
}

impl<F: CasFamily> WideDomain<F> {
    /// Creates a domain for `n` processes and `w`-word variables, with
    /// `tag_bits` bits of tag in every header and segment.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDomain`] if `n` or `w` is zero, or
    /// [`Error::InvalidLayout`] if `tag_bits` plus the process-id field (in
    /// headers) or plus at least one data bit (in segments) exceeds the
    /// family's usable bits.
    pub fn new(n: usize, w: usize, tag_bits: u32) -> Result<Arc<Self>> {
        if n == 0 {
            return Err(Error::InvalidDomain {
                what: "n (number of processes) must be positive",
            });
        }
        if w == 0 {
            return Err(Error::InvalidDomain {
                what: "w (words per variable) must be positive",
            });
        }
        let pid_bits = bits_for_count(n as u64);
        // Header: tag + pid must fit.
        if tag_bits == 0 || tag_bits + pid_bits > F::VALUE_BITS {
            return Err(Error::InvalidLayout {
                tag_bits,
                val_bits: pid_bits,
                available: F::VALUE_BITS,
            });
        }
        // Segment: tag + at least one data bit.
        let seg = TagLayout::for_width(tag_bits, F::VALUE_BITS - tag_bits, F::VALUE_BITS)?;
        let announce = (0..n * w)
            .map(|_| CachePadded::new(F::make_cell(0)))
            .collect();
        Ok(Arc::new(WideDomain {
            n,
            w,
            seg,
            pid_bits,
            announce,
            _family: PhantomData,
        }))
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Words per variable.
    #[must_use]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Bits of user data stored per segment word.
    #[must_use]
    pub fn value_bits(&self) -> u32 {
        self.seg.val_bits()
    }

    /// Largest value storable in each of the `w` words.
    #[must_use]
    pub fn max_val(&self) -> u64 {
        self.seg.max_val()
    }

    /// The domain's space overhead in words — `n · w`, independent of the
    /// number of variables (Theorem 4).
    #[must_use]
    pub fn space_overhead_words(&self) -> usize {
        self.n * self.w
    }

    /// Creates a variable in this domain holding `initial` (one value per
    /// word, each within [`WideDomain::max_val`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] for a wrong-length buffer or
    /// [`Error::ValueTooLarge`] for an oversized value.
    pub fn var(self: &Arc<Self>, initial: &[u64]) -> Result<WideVar<F>> {
        if initial.len() != self.w {
            return Err(Error::WidthMismatch {
                expected: self.w,
                got: initial.len(),
            });
        }
        let mut data = Vec::with_capacity(self.w);
        for &v in initial {
            data.push(F::make_cell(self.seg.pack(0, v)?));
        }
        Ok(WideVar {
            domain: Arc::clone(self),
            hdr: F::make_cell(self.pack_hdr(0, 0)),
            data,
        })
    }

    fn pack_hdr(&self, tag: u64, pid: usize) -> u64 {
        ((tag & self.seg.max_tag()) << self.pid_bits) | pid as u64
    }

    fn hdr_tag(&self, hdr: u64) -> u64 {
        (hdr >> self.pid_bits) & self.seg.max_tag()
    }

    fn hdr_pid(&self, hdr: u64) -> usize {
        (hdr & crate::layout::low_mask(self.pid_bits)) as usize
    }
}

/// A `W`-word variable supporting WLL/VL/SC (Figure 6's `vartype`:
/// one header word plus `W` tagged segments).
///
/// ```
/// use nbsp_core::wide::{WideDomain, WideKeep, WllOutcome};
/// use nbsp_core::Native;
/// use nbsp_memsim::ProcId;
///
/// let domain = WideDomain::<Native>::new(4, 3, 32)?; // N = 4, W = 3
/// let var = domain.var(&[10, 20, 30])?;
/// let mem = Native;
///
/// let mut keep = WideKeep::default();
/// let mut buf = [0u64; 3];
/// assert!(var.wll(&mem, &mut keep, &mut buf).is_success());
/// assert_eq!(buf, [10, 20, 30]);
///
/// // Store a new 3-word value atomically, as process 2:
/// assert!(var.sc(&mem, ProcId::new(2), &keep, &[11, 21, 31]));
/// assert_eq!(var.read(&mem), vec![11, 21, 31]);
/// # Ok::<(), nbsp_core::Error>(())
/// ```
#[derive(Debug)]
pub struct WideVar<F: CasFamily = Native> {
    domain: Arc<WideDomain<F>>,
    hdr: F::Cell,
    data: Vec<F::Cell>,
}

impl<F: CasFamily> WideVar<F> {
    /// The domain this variable belongs to.
    #[must_use]
    pub fn domain(&self) -> &Arc<WideDomain<F>> {
        &self.domain
    }

    /// Figure 6's `Copy` (lines 1–9): ensure every segment carries the value
    /// of the SC that installed `hdr`, helping that SC if its owner stalled;
    /// optionally save the consistent value. Returns the pid of an
    /// interfering successful SC if the header moved on.
    ///
    /// **Ordering.** The helping protocol is a message-passing chain:
    /// the SC owner release-stores its announce row, then swings the header
    /// with a release CAS. Every caller of `copy` reached it through an
    /// acquire load of that header, so the row `A[pid]` read at line 4 is
    /// the one the owner announced *before* installing `hdr` — the only
    /// happens-before edge the helping argument needs. Line 7's acquire
    /// re-read of the header serves the same role for the *next* SC: if it
    /// observes a newer header, the abort happens before any stale segment
    /// value can be saved.
    fn copy<M: CasMemory<Family = F>>(
        &self,
        mem: &M,
        hdr: u64,
        owner: bool,
        mut save: Option<&mut [u64]>,
    ) -> std::result::Result<(), ProcId> {
        let d = &*self.domain;
        let tag = d.hdr_tag(hdr);
        let pid = d.hdr_pid(hdr);
        for i in 0..d.w {
            // Line 2: read the segment. Acquire: pairs with the release
            // CAS (line 5) of whichever helper installed the segment.
            let mut y = mem.load_acquire(&self.data[i]);
            // Line 3: one tag behind ⇒ the SC that installed `hdr` has not
            // copied this segment yet — help it.
            if d.seg.tag(y) == d.seg.tag_pred(tag) {
                // Line 4: fetch the announced word. Acquire, though the
                // real guarantee comes from the header edge described
                // above: owner's release announce-stores happen-before its
                // header release-CAS happens-before our header acquire-load.
                let a = mem.load_acquire(&d.announce[pid * d.w + i]);
                let z = d.seg.pack_unchecked(tag, a);
                // Line 5: install it; a lost race means someone else did.
                // Release on success so later readers of the segment (line
                // 2 above, in another process) inherit the chain.
                if mem.cas_acqrel(&self.data[i], y, z) {
                    if !owner {
                        record(Event::HelpGiven);
                    }
                    // Line 6: the segment now holds `z`.
                    y = z;
                } else {
                    // Line 6, after a lost race: re-read the segment
                    // rather than assume it holds `z`. If the owner has
                    // already finished this SC and started its next one,
                    // `A[pid]` holds that next value, so `z` is a value
                    // that was never committed; the segment holds what
                    // the winner installed. Line 7 still catches a newer
                    // header.
                    y = mem.load_acquire(&self.data[i]);
                }
            } else if owner && d.seg.tag(y) == tag {
                // Our own line-20 copy found the segment already current:
                // a reader completed (part of) our SC on our behalf.
                record(Event::HelpReceived);
            }
            // Line 7: abort if a newer SC has been installed. Acquire, so
            // a successor SC's announce row is visible if we go around
            // again with its header.
            let h = mem.load_acquire(&self.hdr);
            if h != hdr {
                return Err(ProcId::new(d.hdr_pid(h)));
            }
            // Line 8: save the consistent word.
            if let Some(buf) = save.as_deref_mut() {
                buf[i] = d.seg.val(y);
            }
        }
        Ok(()) // line 9: succ
    }

    /// Figure 6's `WLL` (lines 10–12): reads the header, records its tag in
    /// `keep`, and collects a consistent `W`-word value into `retval` —
    /// or reports interference, in which case an SC on `keep` is certain to
    /// fail and `retval` contents are unspecified.
    ///
    /// Θ(W) time. Linearizes at the header read.
    ///
    /// # Panics
    ///
    /// Panics if `retval.len()` differs from the domain's `w`.
    pub fn wll<M: CasMemory<Family = F>>(
        &self,
        mem: &M,
        keep: &mut WideKeep,
        retval: &mut [u64],
    ) -> WllOutcome {
        assert_eq!(
            retval.len(),
            self.domain.w,
            "retval buffer length must equal the variable width"
        );
        // Line 10. Acquire: synchronizes with the release header-CAS of
        // the SC that installed `x`, making that SC's announce row visible
        // to the Copy below (the helping edge).
        let x = mem.load_acquire(&self.hdr);
        keep.tag = self.domain.hdr_tag(x); // line 11
        match self.copy(mem, x, false, Some(retval)) {
            Ok(()) => WllOutcome::Success,
            Err(pid) => {
                record(Event::LlRestart);
                WllOutcome::InterferedBy(pid)
            }
        }
    }

    /// Figure 6's `VL` (line 13): true iff no successful SC hit the variable
    /// since the WLL that filled `keep`. Θ(1); linearizes at the header read.
    ///
    /// **Ordering — acquire.** The verdict depends only on the header
    /// cell's coherence order (did its tag move?); acquire keeps the
    /// publication guarantee for callers that branch on the result.
    #[must_use]
    pub fn vl<M: CasMemory<Family = F>>(&self, mem: &M, keep: &WideKeep) -> bool {
        self.domain.hdr_tag(mem.load_acquire(&self.hdr)) == keep.tag
    }

    /// Figure 6's `SC` (lines 14–21): attempts to atomically install the
    /// `W`-word value `newval` as process `p`.
    ///
    /// Θ(W) time. Linearizes at the header CAS (line 19) on the success
    /// path, at the header read (line 14) when it fails early.
    ///
    /// # Panics
    ///
    /// Panics if `newval.len()` differs from the domain's `w`, if any value
    /// exceeds [`WideDomain::max_val`], or if `p` is outside the domain.
    #[must_use]
    pub fn sc<M: CasMemory<Family = F>>(
        &self,
        mem: &M,
        p: ProcId,
        keep: &WideKeep,
        newval: &[u64],
    ) -> bool {
        let d = &*self.domain;
        assert_eq!(
            newval.len(),
            d.w,
            "newval buffer length must equal the variable width"
        );
        assert!(p.index() < d.n, "process {p} outside domain of {} processes", d.n);
        for &v in newval {
            assert!(
                v <= d.max_val(),
                "value {v} exceeds layout maximum {}",
                d.max_val()
            );
        }
        // Lines 14–15: fail fast if a successful SC already intervened.
        // Acquire (coherence decides the tag comparison; see `vl`).
        let oldhdr = mem.load_acquire(&self.hdr);
        if d.hdr_tag(oldhdr) != keep.tag {
            record(Event::ScFail);
            return false;
        }
        // Lines 16–17: announce the value so others can help copy it.
        // Release-stores: together with the release CAS below they form the
        // write half of the helping chain — any process that acquire-reads
        // the new header is guaranteed to read *these* announce words, not
        // stale ones from this process's previous SC.
        for (i, &v) in newval.iter().enumerate() {
            mem.store_release(&d.announce[p.index() * d.w + i], v);
        }
        // Lines 18–19: try to install the new header. AcqRel: the release
        // half publishes the announce row above (the linearization point of
        // a successful SC); the acquire half on failure is just a read of
        // the winning header.
        let newhdr = d.pack_hdr(d.seg.tag_succ(d.hdr_tag(oldhdr)), p.index());
        if !mem.cas_acqrel(&self.hdr, oldhdr, newhdr) {
            record(Event::ScFail);
            return false;
        }
        record(Event::ScSuccess);
        // Line 20: copy our own value out of A[p] so A[p] can be reused by
        // our next SC; ignore interference (a later SC's WLL already
        // guaranteed our segments were complete before it could succeed).
        let _ = self.copy(mem, newhdr, true, None);
        true // line 21
    }

    /// A `W`-word compare-and-swap: iff the variable currently holds
    /// `expected`, atomically replace it with `new`.
    ///
    /// This is the "multi-word synchronization primitive" of the paper's
    /// Section-5 discussion (Greenwald & Cheriton's double-word CAS and
    /// beyond), derived from WLL/SC in the obvious way: lock-free — it
    /// retries only when a concurrent SC succeeded, and a value mismatch
    /// returns `false` immediately (linearized at the consistent WLL).
    ///
    /// # Panics
    ///
    /// Panics if `expected` or `new` has the wrong width, a word exceeds
    /// [`WideDomain::max_val`], or `p` is outside the domain.
    #[must_use]
    pub fn compare_and_swap<M: CasMemory<Family = F>>(
        &self,
        mem: &M,
        p: ProcId,
        expected: &[u64],
        new: &[u64],
    ) -> bool {
        assert_eq!(
            expected.len(),
            self.domain.w,
            "expected buffer length must equal the variable width"
        );
        let mut keep = WideKeep::default();
        let mut buf = vec![0u64; self.domain.w];
        loop {
            // nbsp-flow: allow(keep-leak) — a WideKeep is a tag snapshot; there is no announce slot to release on the value-mismatch return
            if !self.wll(mem, &mut keep, &mut buf).is_success() {
                continue;
            }
            if buf != expected {
                return false;
            }
            if self.sc(mem, p, &keep, new) {
                return true;
            }
        }
    }

    /// Convenience: retries WLL until it returns a consistent value.
    /// Lock-free (a retry implies some SC succeeded) but not wait-free.
    #[must_use]
    pub fn read<M: CasMemory<Family = F>>(&self, mem: &M) -> Vec<u64> {
        let mut buf = vec![0u64; self.domain.w];
        let mut keep = WideKeep::default();
        // nbsp-flow: allow(keep-leak) — pure read: the successful WLL is the consumer; a WideKeep claims no slot, so dropping it is free
        while !self.wll(mem, &mut keep, &mut buf).is_success() {}
        buf
    }

    /// The header's current tag (for tests and audits).
    #[must_use]
    pub fn current_tag<M: CasMemory<Family = F>>(&self, mem: &M) -> u64 {
        self.domain.hdr_tag(mem.load(&self.hdr))
    }

    /// Segment `i` as stored: its `(tag, value)` fields (for tests).
    #[cfg(test)]
    pub(crate) fn segment<M: CasMemory<Family = F>>(&self, mem: &M, i: usize) -> (u64, u64) {
        let y = mem.load(&self.data[i]);
        (self.domain.seg.tag(y), self.domain.seg.val(y))
    }

    /// Test-only hook: simulate a process that performed the header swing of
    /// an SC (lines 14–19) and then stalled *before* copying any segment
    /// (line 20). Returns `true` if the header CAS succeeded. Used to
    /// exercise the helping path deterministically.
    #[doc(hidden)]
    pub fn begin_stalled_sc<M: CasMemory<Family = F>>(
        &self,
        mem: &M,
        p: ProcId,
        keep: &WideKeep,
        newval: &[u64],
    ) -> bool {
        let d = &*self.domain;
        assert_eq!(newval.len(), d.w);
        let oldhdr = mem.load_acquire(&self.hdr);
        if d.hdr_tag(oldhdr) != keep.tag {
            return false;
        }
        for (i, &v) in newval.iter().enumerate() {
            mem.store_release(&d.announce[p.index() * d.w + i], v);
        }
        let newhdr = d.pack_hdr(d.seg.tag_succ(d.hdr_tag(oldhdr)), p.index());
        mem.cas_acqrel(&self.hdr, oldhdr, newhdr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmuCas, EmuFamily};
    use nbsp_memsim::{InstructionSet, Machine};

    fn domain(n: usize, w: usize) -> Arc<WideDomain<Native>> {
        WideDomain::<Native>::new(n, w, 32).unwrap()
    }

    #[test]
    fn wll_vl_sc_cycle() {
        let d = domain(2, 4);
        let v = d.var(&[1, 2, 3, 4]).unwrap();
        let mem = Native;
        let mut keep = WideKeep::default();
        let mut buf = [0u64; 4];
        assert_eq!(v.wll(&mem, &mut keep, &mut buf), WllOutcome::Success);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert!(v.vl(&mem, &keep));
        assert!(v.sc(&mem, ProcId::new(0), &keep, &[5, 6, 7, 8]));
        assert!(!v.vl(&mem, &keep));
        assert_eq!(v.read(&mem), vec![5, 6, 7, 8]);
    }

    #[test]
    fn stale_keep_fails_sc() {
        let d = domain(2, 2);
        let v = d.var(&[0, 0]).unwrap();
        let mem = Native;
        let mut k1 = WideKeep::default();
        let mut k2 = WideKeep::default();
        let mut buf = [0u64; 2];
        let _ = v.wll(&mem, &mut k1, &mut buf);
        let _ = v.wll(&mem, &mut k2, &mut buf);
        assert!(v.sc(&mem, ProcId::new(0), &k1, &[1, 1]));
        assert!(!v.sc(&mem, ProcId::new(1), &k2, &[2, 2]));
        assert_eq!(v.read(&mem), vec![1, 1]);
    }

    #[test]
    fn wll_helps_a_stalled_sc() {
        // Process 1 installs a header and stalls before copying (the
        // failure the helping protocol exists for); process 0's WLL must
        // complete the copy and return the *new* value.
        let d = domain(2, 3);
        let v = d.var(&[1, 2, 3]).unwrap();
        let mem = Native;
        let mut k = WideKeep::default();
        let mut buf = [0u64; 3];
        let _ = v.wll(&mem, &mut k, &mut buf);
        assert!(v.begin_stalled_sc(&mem, ProcId::new(1), &k, &[7, 8, 9]));

        let mut k0 = WideKeep::default();
        assert_eq!(v.wll(&mem, &mut k0, &mut buf), WllOutcome::Success);
        assert_eq!(buf, [7, 8, 9], "reader must observe the helped value");
        // And the segments themselves were repaired:
        assert_eq!(v.read(&mem), vec![7, 8, 9]);
    }

    #[test]
    fn sc_after_helping_uses_fresh_announce() {
        // After a stalled SC is helped, the *next* SC by the same process
        // must not be confused by its reused announce row.
        let d = domain(2, 2);
        let v = d.var(&[0, 0]).unwrap();
        let mem = Native;
        let mut k = WideKeep::default();
        let mut buf = [0u64; 2];
        let _ = v.wll(&mem, &mut k, &mut buf);
        assert!(v.begin_stalled_sc(&mem, ProcId::new(1), &k, &[5, 5]));
        // Helper completes it:
        let mut k2 = WideKeep::default();
        let _ = v.wll(&mem, &mut k2, &mut buf);
        assert_eq!(buf, [5, 5]);
        // Process 1 "wakes up", abandons (its copy would be a no-op), and
        // performs a fresh full SC:
        assert!(v.sc(&mem, ProcId::new(1), &k2, &[6, 7]));
        assert_eq!(v.read(&mem), vec![6, 7]);
    }

    #[test]
    fn wll_reports_interference() {
        let d = domain(2, 2);
        let v = d.var(&[0, 0]).unwrap();
        let mem = Native;
        // Put the variable in a state where the header changes mid-copy:
        // install a stalled SC *after* wll reads the header is hard to do
        // deterministically from outside, so instead verify the reported
        // pid when the header has already moved between header read and
        // copy — simulated by a stalled SC followed by a header bump.
        let mut k = WideKeep::default();
        let mut buf = [0u64; 2];
        let _ = v.wll(&mem, &mut k, &mut buf);
        assert!(v.sc(&mem, ProcId::new(1), &k, &[1, 1]));
        // A fresh wll sees a consistent state again:
        let mut k2 = WideKeep::default();
        assert_eq!(v.wll(&mem, &mut k2, &mut buf), WllOutcome::Success);
    }

    #[test]
    fn multiple_vars_share_one_announce_array() {
        let d = domain(3, 2);
        let v1 = d.var(&[1, 1]).unwrap();
        let v2 = d.var(&[2, 2]).unwrap();
        assert_eq!(d.space_overhead_words(), 6);
        let mem = Native;
        let mut k = WideKeep::default();
        let mut buf = [0u64; 2];
        let _ = v1.wll(&mem, &mut k, &mut buf);
        assert!(v1.sc(&mem, ProcId::new(0), &k, &[3, 3]));
        let _ = v2.wll(&mem, &mut k, &mut buf);
        assert!(v2.sc(&mem, ProcId::new(0), &k, &[4, 4]));
        assert_eq!(v1.read(&mem), vec![3, 3]);
        assert_eq!(v2.read(&mem), vec![4, 4]);
    }

    #[test]
    fn concurrent_snapshot_consistency() {
        // Writers store [i, i+1000, i+2000]; every successful WLL must see
        // a row from a single writer (all-or-nothing visibility).
        let d = domain(4, 3);
        let v = d.var(&[0, 1000, 2000]).unwrap();
        std::thread::scope(|s| {
            for t in 0..3 {
                let v = &v;
                s.spawn(move || {
                    let mem = Native;
                    let p = ProcId::new(t);
                    for round in 0..2_000u64 {
                        let mut keep = WideKeep::default();
                        let mut buf = [0u64; 3];
                        if v.wll(&mem, &mut keep, &mut buf).is_success() {
                            let base = round * 3 + t as u64;
                            let _ = v.sc(&mem, p, &keep, &[base, base + 1000, base + 2000]);
                        }
                    }
                });
            }
            let v = &v;
            s.spawn(move || {
                let mem = Native;
                for _ in 0..5_000 {
                    let mut keep = WideKeep::default();
                    let mut buf = [0u64; 3];
                    if v.wll(&mem, &mut keep, &mut buf).is_success() {
                        assert_eq!(buf[1], buf[0] + 1000, "torn read: {buf:?}");
                        assert_eq!(buf[2], buf[0] + 2000, "torn read: {buf:?}");
                    }
                }
            });
        });
        let fin = v.read(&Native);
        assert_eq!(fin[1], fin[0] + 1000);
        assert_eq!(fin[2], fin[0] + 2000);
    }

    #[test]
    fn exactly_one_sc_wins_per_round() {
        let d = domain(4, 2);
        let v = d.var(&[0, 0]).unwrap();
        let wins: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let v = &v;
                    s.spawn(move || {
                        let mem = Native;
                        let p = ProcId::new(t);
                        let mut wins = 0u64;
                        for _ in 0..3_000 {
                            let mut keep = WideKeep::default();
                            let mut buf = [0u64; 2];
                            if v.wll(&mem, &mut keep, &mut buf).is_success()
                                && v.sc(&mem, p, &keep, &[buf[0] + 1, buf[1] + 1])
                            {
                                wins += 1;
                            }
                        }
                        wins
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total: u64 = wins.iter().sum();
        let fin = v.read(&Native);
        assert_eq!(fin[0], total, "increments lost or duplicated");
        assert_eq!(fin[1], total);
    }

    #[test]
    fn runs_on_llsc_only_machine_via_emulated_cas() {
        let m = Machine::builder(3)
            .instruction_set(InstructionSet::RllRscOnly)
            .build();
        let reader = m.processor(2);
        let d = WideDomain::<EmuFamily<16>>::new(3, 2, 16).unwrap();
        let v = d.var(&[0, 0]).unwrap();
        std::thread::scope(|s| {
            for t in 0..2 {
                let p = m.processor(t);
                let v = &v;
                s.spawn(move || {
                    let mem = EmuCas::<16>::new(&p);
                    let pid = ProcId::new(t);
                    for _ in 0..300 {
                        let mut keep = WideKeep::default();
                        let mut buf = [0u64; 2];
                        if v.wll(&mem, &mut keep, &mut buf).is_success() {
                            let _ = v.sc(&mem, pid, &keep, &[buf[0] + 1, buf[1] + 1]);
                        }
                    }
                });
            }
        });
        let mem = EmuCas::<16>::new(&reader);
        let fin = v.read(&mem);
        assert_eq!(fin[0], fin[1], "words must move in lockstep");
    }

    #[test]
    fn domain_validation() {
        assert!(WideDomain::<Native>::new(0, 1, 8).is_err());
        assert!(WideDomain::<Native>::new(1, 0, 8).is_err());
        assert!(WideDomain::<Native>::new(1, 1, 0).is_err());
        assert!(WideDomain::<Native>::new(1, 1, 64).is_err()); // no room for pid/data
        assert!(WideDomain::<Native>::new(16, 8, 48).is_ok());
    }

    #[test]
    fn var_validation() {
        let d = domain(2, 2);
        assert!(matches!(
            d.var(&[0]),
            Err(Error::WidthMismatch { expected: 2, got: 1 })
        ));
        let tight = WideDomain::<Native>::new(2, 1, 60).unwrap();
        assert!(matches!(
            tight.var(&[1 << 5]),
            Err(Error::ValueTooLarge { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wll_panics_on_wrong_width() {
        let d = domain(2, 3);
        let v = d.var(&[0, 0, 0]).unwrap();
        let mut keep = WideKeep::default();
        let mut buf = [0u64; 2];
        let _ = v.wll(&Native, &mut keep, &mut buf);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn sc_panics_on_foreign_pid() {
        let d = domain(2, 1);
        let v = d.var(&[0]).unwrap();
        let mut keep = WideKeep::default();
        let mut buf = [0u64; 1];
        let _ = v.wll(&Native, &mut keep, &mut buf);
        let _ = v.sc(&Native, ProcId::new(2), &keep, &[1]);
    }

    mod properties {
        use super::*;
        use nbsp_memsim::rng::SplitMix64;

        /// Sequential wll/sc programs over random (n, w, tag_bits) behave
        /// like a plain W-word register. (Deterministic seeded cases.)
        #[test]
        fn sequential_ops_match_register_model() {
            let mut rng = SplitMix64::new(0x51de_0001);
            for case in 0..64 {
                let n = 1 + rng.next_index(5);
                let w = 1 + rng.next_index(8);
                let tag_bits = 4 + rng.next_below(36) as u32;
                let Ok(d) = WideDomain::<Native>::new(n, w, tag_bits) else {
                    continue; // layout too tight; fine
                };
                let v = d.var(&vec![0u64; w]).unwrap();
                let mem = Native;
                let mut model = vec![0u64; w];
                let mut buf = vec![0u64; w];
                for _ in 0..rng.next_index(40) {
                    let base = rng.next_below(16);
                    let mut keep = WideKeep::default();
                    assert!(v.wll(&mem, &mut keep, &mut buf).is_success());
                    assert_eq!(&buf, &model, "case {case}");
                    let newval: Vec<u64> =
                        (0..w as u64).map(|i| (base + i) & d.max_val()).collect();
                    assert!(v.sc(&mem, ProcId::new(0), &keep, &newval));
                    model = newval;
                }
                assert_eq!(v.read(&mem), model, "case {case}");
            }
        }

        /// The header pid/tag packing round-trips for every process in the
        /// domain.
        #[test]
        fn header_round_trips() {
            let mut rng = SplitMix64::new(0x51de_0002);
            for _ in 0..256 {
                let n = 1 + rng.next_index(299);
                let tag_bits = 1 + rng.next_below(47) as u32;
                let Ok(d) = WideDomain::<Native>::new(n, 1, tag_bits) else {
                    continue;
                };
                let tag = rng.next_u64() & d.seg.max_tag();
                let pid = rng.next_index(n);
                let h = d.pack_hdr(tag, pid);
                assert_eq!(d.hdr_tag(h), tag);
                assert_eq!(d.hdr_pid(h), pid);
            }
        }
    }

    #[test]
    fn wide_cas_semantics() {
        let d = domain(2, 3);
        let v = d.var(&[1, 2, 3]).unwrap();
        let mem = Native;
        let p = ProcId::new(0);
        assert!(!v.compare_and_swap(&mem, p, &[9, 9, 9], &[0, 0, 0]));
        assert_eq!(v.read(&mem), vec![1, 2, 3]);
        assert!(v.compare_and_swap(&mem, p, &[1, 2, 3], &[4, 5, 6]));
        assert_eq!(v.read(&mem), vec![4, 5, 6]);
        // Same-value replacement is a real SC (tag advances):
        let before = v.current_tag(&mem);
        assert!(v.compare_and_swap(&mem, p, &[4, 5, 6], &[4, 5, 6]));
        assert_eq!(v.current_tag(&mem), d.seg.tag_succ(before));
    }

    #[test]
    fn wide_cas_exactly_one_winner() {
        // Classic DCAS use: claim a 2-word resource; exactly one thread
        // may transition it from FREE to its own id.
        let d = domain(4, 2);
        let v = d.var(&[0, 0]).unwrap();
        let winners: u64 = std::thread::scope(|s| {
            (0..4u64)
                .map(|t| {
                    let v = &v;
                    s.spawn(move || {
                        let mem = Native;
                        let p = ProcId::new(t as usize);
                        u64::from(v.compare_and_swap(&mem, p, &[0, 0], &[t + 1, t + 1]))
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1);
        let fin = v.read(&Native);
        assert_eq!(fin[0], fin[1]);
        assert!((1..=4).contains(&fin[0]));
    }

    #[test]
    fn tag_advances_per_successful_sc() {
        let d = domain(1, 2);
        let v = d.var(&[0, 0]).unwrap();
        let mem = Native;
        for i in 0..10 {
            assert_eq!(v.current_tag(&mem), i);
            let mut keep = WideKeep::default();
            let mut buf = [0u64; 2];
            assert!(v.wll(&mem, &mut keep, &mut buf).is_success());
            assert!(v.sc(&mem, ProcId::new(0), &keep, &[i + 1, i + 1]));
        }
    }
}
