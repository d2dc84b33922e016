//! The harness's own arithmetic: medians of windows, percentiles with
//! their sample counts, SLO attainment, the requests a host gap touched,
//! and the serving ladder's pass rule and staircase. Kept free of clocks
//! and threads so the unit tests can feed it synthetic inputs.

/// Median of a sample: the middle value, or the mean of the two middle
/// values for an even count. `None` for an empty sample.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Median of `f` over the windows `ws`. NaN when there are none, which
/// fails the run when it is reported (see `report::Out::render`), so an
/// empty sample never reads as a figure.
#[must_use]
pub fn median_of<W>(ws: &[&W], f: impl Fn(&W) -> f64) -> f64 {
    median(&ws.iter().map(|w| f(w)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Tracing overhead: one minus the ratio of the traced run's throughput
/// `on` to the untraced run's `off`.
#[must_use]
pub fn overhead_frac(on: f64, off: f64) -> f64 {
    if off > 0.0 {
        1.0 - on / off
    } else {
        0.0
    }
}

/// One percentile of a sample, with the sample size that says how much to
/// trust it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The nearest-rank `q`-quantile.
    pub value: u64,
    /// Sample size.
    pub samples: usize,
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `xs`, reordering it in
/// place. `None` for an empty sample.
#[must_use]
pub fn percentile(xs: &mut [u64], q: f64) -> Option<Pct> {
    if xs.is_empty() {
        return None;
    }
    let n = xs.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let (_, &mut value, _) = xs.select_nth_unstable(rank - 1);
    Some(Pct { value, samples: n })
}

/// Mean over the clients of a closed loop of each one's median latency,
/// reordering each sample in place. Every client counts once: pooled, the
/// calls of a client on a faster CPU, which completes more of them, would
/// set the median. `None` if a client made no call.
#[must_use]
pub fn client_p50(clients: &mut [Vec<u64>]) -> Option<f64> {
    let mut sum = 0.0;
    for xs in clients.iter_mut() {
        sum += percentile(xs, 0.5)?.value as f64;
    }
    Some(sum / clients.len() as f64)
}

/// Share of attempted units that completed within the latency limit.
/// `within` counts only completed units; a shed or failed unit is in
/// `attempted` but never in `within`, so it counts as a miss.
#[must_use]
pub fn slo_attain(within: u64, attempted: u64) -> f64 {
    assert!(
        within <= attempted,
        "more units met the limit than were attempted"
    );
    if attempted == 0 {
        0.0
    } else {
        within as f64 / attempted as f64
    }
}

/// The sojourns, into `clean`, of one open-loop window's requests that no
/// host gap touched. Requests are in arrival order, which is completion
/// order (one FIFO queue, one worker): request `i` arrived (intended) at
/// `arrivals[i]` and spent `sojourns[i]` in the system. It is set aside if
/// its time in the system overlaps one of `host_gaps`, or if it arrived
/// while a request set aside was still in the system: one busy period of
/// the queue, which a stall's backlog lengthens, is set aside whole. Every
/// other request is kept, a slow one too, and those queued behind it.
/// `host_gaps` holds each thread's gaps as `(start, end)` readings.
pub fn host_clean(
    arrivals: &[u64],
    sojourns: &[u64],
    host_gaps: &[&[(u64, u64)]],
    clean: &mut Vec<u64>,
) {
    assert_eq!(arrivals.len(), sojourns.len());
    clean.clear();
    let mut prev: Option<(u64, bool)> = None;
    for (&a, &s) in arrivals.iter().zip(sojourns) {
        let end = a + s;
        let queued_behind_gap = prev.is_some_and(|(prev_end, set_aside)| set_aside && prev_end > a);
        let touched = host_gaps
            .iter()
            .flat_map(|g| g.iter())
            .any(|&(gs, ge)| gs < end && ge > a);
        let set_aside = queued_behind_gap || touched;
        if !set_aside {
            clean.push(s);
        }
        prev = Some((end, set_aside));
    }
}

/// Whether a window of the serving ladder passes: its SLO attainment
/// meets `target` and its backlog did not grow.
#[must_use]
pub fn window_passes(slo: f64, target: f64, backlog_grows: bool) -> bool {
    slo >= target && !backlog_grows
}

/// An up-down staircase on the rungs `0..rungs` of a ladder: a passing
/// window moves it `step` rungs up and a failing one `step` rungs down,
/// and every reversal halves the step, down to one rung. It climbs fast
/// from the bottom, then settles around the rung that passes half the
/// time: a bisection for the highest rate that passes, repeated as long
/// as the run lasts.
#[derive(Clone, Debug)]
pub struct Staircase {
    rung: usize,
    step: usize,
    rungs: usize,
    rising: bool,
}

impl Staircase {
    /// A staircase at rung 0 whose first moves are `first_step` rungs.
    #[must_use]
    pub fn new(rungs: usize, first_step: usize) -> Staircase {
        assert!(rungs > 0 && first_step > 0);
        Staircase {
            rung: 0,
            step: first_step,
            rungs,
            rising: true,
        }
    }

    /// The rung the next window runs at.
    #[must_use]
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Whether it moves by single rungs, which it does from its last
    /// halving on: its windows then sit around the rung that passes half
    /// the time.
    #[must_use]
    pub fn settled(&self) -> bool {
        self.step == 1
    }

    /// Moves on one window's verdict.
    pub fn record(&mut self, passed: bool) {
        if passed != self.rising {
            self.step = (self.step / 2).max(1);
            self.rising = passed;
        }
        self.rung = if passed {
            (self.rung + self.step).min(self.rungs - 1)
        } else {
            self.rung.saturating_sub(self.step)
        };
    }
}

/// The staircase's reading: the geometric mean of the offered rates of the
/// windows it ran once settled. Those windows sit around the rate at which
/// a window passes half the time, so this is the highest rate the program
/// sustains, read between the rungs. NaN for no windows.
#[must_use]
pub fn staircase_rate(settled_rates: &[f64]) -> f64 {
    if settled_rates.is_empty() {
        return f64::NAN;
    }
    let mean_ln = settled_rates.iter().map(|r| r.ln()).sum::<f64>() / settled_rates.len() as f64;
    mean_ln.exp()
}

/// Whether queueing delay grew across a window: the median sojourn of its
/// last eighth exceeds that of its second eighth (the first is warm-up)
/// by more than `slack_ns`. By Little's law a growing wait at a fixed
/// arrival rate is a growing backlog. Reorders both eighths in place, so
/// that no buffer of a size that varies with the offered rate is
/// allocated.
#[must_use]
pub fn backlog_grows(sojourns_in_arrival_order: &mut [u64], slack_ns: u64) -> bool {
    let n = sojourns_in_arrival_order.len();
    if n < 16 {
        return false;
    }
    let eighth = n / 8;
    let p = |v: &mut [u64]| percentile(v, 0.5).map_or(0, |p| p.value);
    let early = p(&mut sojourns_in_arrival_order[eighth..2 * eighth]);
    p(&mut sojourns_in_arrival_order[n - eighth..]) > early + slack_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // One stalled window does not move the median.
        assert_eq!(median(&[10.0, 11.0, 1000.0, 9.0, 10.5]), Some(10.5));
    }

    #[test]
    fn percentiles_report_their_sample_counts() {
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        let p50 = percentile(&mut xs, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples), (50, 100));
        let p99 = percentile(&mut xs, 0.99).unwrap();
        assert_eq!((p99.value, p99.samples), (99, 100));
        let max = percentile(&mut xs, 1.0).unwrap();
        assert_eq!(max.value, 100);
        let mut ties = vec![1, 2, 2, 2];
        let p = percentile(&mut ties, 0.5).unwrap();
        assert_eq!(p.value, 2);
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn every_client_counts_once() {
        // A fast client with 100 calls of 1 and a slow one with 10 of 9:
        // the pooled median would be 1.
        let mut clients = vec![vec![1; 100], vec![9; 10]];
        assert_eq!(client_p50(&mut clients), Some(5.0));
        assert_eq!(client_p50(&mut [vec![3], vec![]]), None);
    }

    #[test]
    fn shed_units_count_as_slo_misses() {
        // 100 attempted: 90 completed in time, 5 late, 5 shed.
        assert_eq!(slo_attain(90, 100), 0.9);
        assert_eq!(slo_attain(100, 100), 1.0);
        assert_eq!(slo_attain(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "more units met the limit")]
    fn slo_rejects_impossible_counts() {
        let _ = slo_attain(2, 1);
    }

    #[test]
    fn host_gaps_set_aside_their_busy_period_and_slow_calls_stay() {
        // Arrivals every 10 µs, 1 µs each.
        let arrivals: Vec<u64> = (0..10).map(|i| i * 10_000).collect();
        let mut sojourns = vec![1_000; 10];
        let mut clean = Vec::new();
        host_clean(&arrivals, &sojourns, &[], &mut clean);
        assert_eq!(clean, sojourns);
        // A host gap over 20–45 µs holds requests 2–4 back; 5 arrives
        // after it, but while 4 is still in the system, so it belongs to
        // the same busy period; 6 finds the queue empty again.
        sojourns[2] = 27_000;
        sojourns[3] = 18_000;
        sojourns[4] = 11_000;
        sojourns[5] = 3_000;
        host_clean(
            &arrivals,
            &sojourns,
            &[&[], &[(20_000, 45_000)]],
            &mut clean,
        );
        assert_eq!(clean, vec![1_000; 6]);
        // Without the gap the same delays are the program's, and stay.
        host_clean(&arrivals, &sojourns, &[], &mut clean);
        assert_eq!(clean, sojourns);
        // A gap that ends before a request arrives, or starts after it
        // left, does not touch it.
        let apart: [&[(u64, u64)]; 2] = [&[(1_500, 9_000)], &[(71_000, 79_000)]];
        host_clean(&arrivals, &[1_000; 10], &apart, &mut clean);
        assert_eq!(clean.len(), 10);
    }

    #[test]
    fn a_window_passes_on_its_slo_and_a_steady_backlog() {
        assert!(window_passes(0.9, 0.5, false));
        // Exactly at the target passes.
        assert!(window_passes(0.5, 0.5, false));
        assert!(!window_passes(0.49, 0.5, false));
        // Meets the SLO, but its backlog grows.
        assert!(!window_passes(0.99, 0.5, true));
    }

    #[test]
    fn staircase_climbs_then_settles_at_the_pass_fail_edge() {
        // Rungs below 37 pass, the others fail.
        let mut s = Staircase::new(100, 16);
        let mut visits = [0u32; 100];
        for _ in 0..200 {
            visits[s.rung()] += 1;
            let passed = s.rung() < 37;
            s.record(passed);
        }
        // After the climb it only ever runs the two rungs at the edge.
        let settled: Vec<usize> = (0..100).filter(|&r| visits[r] > 10).collect();
        assert_eq!(settled, vec![36, 37]);
        assert!(s.settled());
        // It stays inside the ladder at both ends.
        let mut top = Staircase::new(4, 16);
        for _ in 0..5 {
            top.record(true);
        }
        assert_eq!(top.rung(), 3);
        let mut bottom = Staircase::new(4, 1);
        bottom.record(false);
        assert_eq!(bottom.rung(), 0);
    }

    #[test]
    fn the_staircase_reads_between_the_rungs() {
        // Settled windows alternating between 1.0 M and 1.04 M req/s.
        let rates: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1e6 } else { 1.04e6 })
            .collect();
        let r = staircase_rate(&rates);
        assert!((r - (1e6f64 * 1.04e6).sqrt()).abs() < 1e-3);
        // A window that ran a rung higher moves the reading up a little.
        let mut more = rates.clone();
        more.push(1.0816e6);
        assert!(staircase_rate(&more) > r);
        assert!(staircase_rate(&[]).is_nan());
    }

    #[test]
    fn window_medians_and_overhead() {
        let ws = [3.0, 1.0, 2.0];
        let refs: Vec<&f64> = ws.iter().collect();
        assert_eq!(median_of(&refs, |w| *w), 2.0);
        assert!(median_of::<f64>(&[], |w| *w).is_nan());
        assert!((overhead_frac(90.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(overhead_frac(90.0, 0.0), 0.0);
    }

    #[test]
    fn backlog_growth_is_a_rising_wait() {
        let mut steady: Vec<u64> = (0..800).map(|i| 1_000 + (i % 7) * 10).collect();
        assert!(!backlog_grows(&mut steady, 5_000));
        let mut rising: Vec<u64> = (0..800).map(|i| 1_000 + i * 100).collect();
        assert!(backlog_grows(&mut rising, 5_000));
        // A slow warm-up (first eighth) is not growth.
        let mut warm: Vec<u64> = (0..800)
            .map(|i| if i < 100 { 90_000 } else { 1_000 })
            .collect();
        assert!(!backlog_grows(&mut warm, 5_000));
    }
}
