//! Host stalls. On a shared VM host a busy vCPU is descheduled for a few
//! milliseconds at a time, tens of times a second while the neighbours
//! are busy, and the guest is barely told (little of the stolen time shows
//! as steal). A stall lands in whichever window it hits and moves that
//! window's numbers by far more than any code change would, so the timing
//! medians use only the windows in which no thread of the workload saw
//! one; the open loop's latency and SLO set aside the requests a host gap
//! touched instead (see [`IdleLog`]). Every window's outputs are still
//! checked and counted.

/// A thread whose clock readings, taken at least once per call, jump by
/// more than this was stalled: no single call the workloads time takes
/// this long on its own.
pub const STALL_NS: u64 = 200_000;

/// Fewest unstalled windows a median is taken over; with fewer, every
/// window is used.
pub const MIN_UNSTALLED: usize = 5;

/// One thread's record of the stalls it saw in a window.
#[derive(Clone, Copy, Debug, Default)]
pub struct GapLog {
    last: u64,
    stalls: u32,
}

impl GapLog {
    /// A log whose first reading is `now_ns`.
    #[must_use]
    pub fn new(now_ns: u64) -> GapLog {
        GapLog {
            last: now_ns,
            stalls: 0,
        }
    }

    /// Books a clock reading; returns the gap since the previous one.
    #[inline]
    pub fn tick(&mut self, now_ns: u64) -> u64 {
        let gap = now_ns.saturating_sub(self.last);
        self.stalls += u32::from(gap > STALL_NS);
        self.last = now_ns;
        gap
    }

    /// Whether any two consecutive readings were a stall apart.
    #[must_use]
    pub fn stalled(&self) -> bool {
        self.stalls > 0
    }
}

/// An idle gap longer than this is the host's: between two readings
/// taken while a thread only waits it runs a few loads and a clock read,
/// well under a microsecond, so anything this long is an interrupt or a
/// lost CPU. The open loop sets aside the requests whose time in the
/// system overlaps one (`stats::host_clean`).
pub const HOST_GAP_NS: u64 = 20_000;

/// Host gaps one [`IdleLog`] keeps apart; further ones merge into the last.
const MAX_HOST_GAPS: usize = 32;

/// A [`GapLog`] for a thread of the open loop, which also keeps the gaps
/// that came while the thread only waited: those are the host's.
#[derive(Clone, Copy, Debug)]
pub struct IdleLog {
    log: GapLog,
    /// Idle gaps longer than [`HOST_GAP_NS`], as `(start, end)` readings.
    host: [(u64, u64); MAX_HOST_GAPS],
    n_host: usize,
}

impl IdleLog {
    /// A log whose first reading is `now_ns`.
    #[must_use]
    pub fn new(now_ns: u64) -> IdleLog {
        IdleLog {
            log: GapLog::new(now_ns),
            host: [(0, 0); MAX_HOST_GAPS],
            n_host: 0,
        }
    }

    /// Books a clock reading taken after the thread did work: a call into
    /// the program that could itself have run long.
    #[inline]
    pub fn tick(&mut self, now_ns: u64) {
        self.log.tick(now_ns);
    }

    /// Books a clock reading taken after the thread only waited: paced
    /// for an arrival, or polled a call that returned at once with nothing
    /// to do. A gap before such a reading can only be the host's.
    #[inline]
    pub fn tick_idle(&mut self, now_ns: u64) {
        let gap = self.log.tick(now_ns);
        if gap > HOST_GAP_NS {
            if self.n_host == MAX_HOST_GAPS {
                self.host[MAX_HOST_GAPS - 1].1 = now_ns;
            } else {
                self.host[self.n_host] = (now_ns - gap, now_ns);
                self.n_host += 1;
            }
        }
    }

    /// Whether any two consecutive readings were a stall apart.
    #[must_use]
    pub fn stalled(&self) -> bool {
        self.log.stalled()
    }

    /// The host's gaps: idle gaps longer than [`HOST_GAP_NS`], oldest
    /// first, as `(start, end)` readings.
    #[must_use]
    pub fn host_gaps(&self) -> &[(u64, u64)] {
        &self.host[..self.n_host]
    }
}

/// A timed window (or pass) of a workload, as the timing medians see it.
pub trait Timed {
    /// Whether the window recorded spans.
    fn traced(&self) -> bool;
    /// Whether a thread of the window saw a host stall.
    fn stalled(&self) -> bool;
}

/// The traced (`on`) or untraced windows of `ws` a timing median is taken
/// over: those no stall hit, or all of them when fewer than
/// [`MIN_UNSTALLED`] are.
pub fn plain<W: Timed>(ws: &[W], on: bool) -> Vec<&W> {
    let all: Vec<&W> = ws.iter().filter(|w| w.traced() == on).collect();
    let clean: Vec<&W> = all.iter().copied().filter(|w| !w.stalled()).collect();
    if clean.len() >= MIN_UNSTALLED {
        clean
    } else {
        all
    }
}

/// Share of the untraced windows of `ws` that a stall set aside.
pub fn stalled_frac<W: Timed>(ws: &[W]) -> f64 {
    let untraced: Vec<&W> = ws.iter().filter(|w| !w.traced()).collect();
    if untraced.is_empty() {
        0.0
    } else {
        untraced.iter().filter(|w| w.stalled()).count() as f64 / untraced.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_gap_longer_than_the_threshold_is_a_stall() {
        let mut g = GapLog::new(1_000);
        g.tick(1_000 + STALL_NS);
        assert!(!g.stalled(), "exactly the threshold is not a stall");
        g.tick(1_000 + 2 * STALL_NS + 1);
        assert!(g.stalled());
        // A long call is a stall, but not a host gap.
        let mut idle = IdleLog::new(0);
        idle.tick(2 * STALL_NS);
        assert!(idle.stalled() && idle.host_gaps().is_empty());
    }

    #[test]
    fn idle_gaps_are_the_hosts_and_merge_when_too_many() {
        let mut g = IdleLog::new(0);
        g.tick_idle(HOST_GAP_NS);
        assert!(g.host_gaps().is_empty(), "exactly the threshold is not one");
        g.tick_idle(2 * HOST_GAP_NS + 1);
        assert_eq!(g.host_gaps(), &[(HOST_GAP_NS, 2 * HOST_GAP_NS + 1)]);
        assert!(!g.stalled(), "a host gap shorter than a stall");
        let mut many = IdleLog::new(0);
        for i in 1..=MAX_HOST_GAPS as u64 + 3 {
            many.tick_idle(i * 100_000);
        }
        let gaps = many.host_gaps();
        assert_eq!(gaps.len(), MAX_HOST_GAPS);
        assert_eq!(
            gaps[MAX_HOST_GAPS - 1].1,
            (MAX_HOST_GAPS as u64 + 3) * 100_000
        );
    }

    /// (traced, stalled)
    struct W(bool, bool);

    impl Timed for W {
        fn traced(&self) -> bool {
            self.0
        }
        fn stalled(&self) -> bool {
            self.1
        }
    }

    #[test]
    fn medians_skip_stalled_windows_unless_too_few_are_left() {
        // Ten untraced windows, four of them stalled, and two traced ones.
        let mut ws: Vec<W> = (0..10).map(|i| W(false, i % 3 == 0)).collect();
        ws.push(W(true, false));
        ws.push(W(true, true));
        let clean = plain(&ws, false);
        assert_eq!(clean.len(), 6);
        assert!(clean.iter().all(|w| !w.1));
        assert!((stalled_frac(&ws) - 0.4).abs() < 1e-12);
        // Four clean windows are too few: every window is used.
        assert_eq!(plain(&ws[..6], false).len(), 6);
        assert_eq!(plain(&ws, true).len(), 2);
    }
}
