//! The fixed event vocabulary of the `nbsp` stack.
//!
//! The set is a closed enum rather than string keys on purpose: the hot
//! paths index a flat counter matrix with `event as usize`, which keeps a
//! `record` call at one thread-local read plus a relaxed load and store
//! on the thread's own row — no hashing, no interning, no allocation.

/// Number of distinct events ([`Event::ALL`]'s length, and the width `W`
/// of the Figure-6 wide variable a consistent snapshot publisher uses).
pub const EVENT_COUNT: usize = 19;

/// One countable occurrence inside the LL/SC stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Event {
    /// A successful SC (Figures 4, 6 or 7): the linearization point of a
    /// read-modify-write landed.
    ScSuccess = 0,
    /// A failed SC: an interfering successful SC (or a doomed sequence's
    /// early exit) forced a retry.
    ScFail = 1,
    /// An LL/WLL that had to be abandoned: Figure 6's
    /// `WllOutcome::InterferedBy`, Figure 7's `fail` flag, or a Figure-3
    /// RLL/RSC round that went around again.
    LlRestart = 2,
    /// A Figure-6 helper installed a segment on behalf of a stalled SC
    /// (recorded by the *helper*).
    HelpGiven = 3,
    /// A Figure-6 SC owner found one of its segments already copied by
    /// somebody else (recorded by the *owner*).
    HelpReceived = 4,
    /// The simulator's adversary injected a spurious RSC failure
    /// (the paper's "RSC may occasionally fail" restriction).
    RscSpurious = 5,
    /// One bounded spin step of [`Backoff`](../nbsp_core/backoff/index.html).
    BackoffSpin = 6,
    /// A backoff step past the spin bound: the loser yielded its quantum.
    BackoffYield = 7,
    /// A backoff state crossed from spinning into the saturated
    /// (yield-only) regime — sustained contention on one variable.
    BackoffSaturated = 8,
    /// Figure 7's feedback mechanism issued a tag from the front of the
    /// tag queue.
    TagAlloc = 9,
    /// The serving subsystem's admission controller admitted a request
    /// (one successful token-spending SC on the bucket word).
    ServeAdmit = 10,
    /// The admission controller shed a request: the token bucket was
    /// empty at the request's intended arrival time.
    ServeShed = 11,
    /// A fabric worker's steal committed: one SC on a victim's head
    /// cursor transferred a batch of queued requests to the thief.
    ServeSteal = 12,
    /// A fabric worker's local admission sub-bucket went empty and was
    /// refilled in a batch from the global wide bucket.
    ServeRefill = 13,
    /// A dynamic-joining provider admitted a late-arriving process: one
    /// successful CAS on a free membership slot.
    JoinAdmit = 14,
    /// A dynamic-joining provider retired a process, returning its
    /// membership slot (and its cells) to the pool.
    Retire = 15,
    /// A durable provider ran its crash-recovery procedure after a
    /// simulated power failure rolled memory back to the persisted image.
    CrashRecover = 16,
    /// An LLX reader (or SCX owner) helped another process's in-progress
    /// SCX to completion — the BER help-on-read rule (recorded by the
    /// *helper*).
    LlxHelp = 17,
    /// An SCX aborted: one of its linked records was frozen or mutated by
    /// a conflicting SCX between the LLX and the freeze phase.
    ScxAbort = 18,
}

impl Event {
    /// Every event, in index order (`ALL[i] as usize == i`).
    pub const ALL: [Event; EVENT_COUNT] = [
        Event::ScSuccess,
        Event::ScFail,
        Event::LlRestart,
        Event::HelpGiven,
        Event::HelpReceived,
        Event::RscSpurious,
        Event::BackoffSpin,
        Event::BackoffYield,
        Event::BackoffSaturated,
        Event::TagAlloc,
        Event::ServeAdmit,
        Event::ServeShed,
        Event::ServeSteal,
        Event::ServeRefill,
        Event::JoinAdmit,
        Event::Retire,
        Event::CrashRecover,
        Event::LlxHelp,
        Event::ScxAbort,
    ];

    /// The event's row index in the counter matrix.
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (used in report tables and the JSON schema).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Event::ScSuccess => "sc_success",
            Event::ScFail => "sc_fail",
            Event::LlRestart => "ll_restart",
            Event::HelpGiven => "help_given",
            Event::HelpReceived => "help_received",
            Event::RscSpurious => "rsc_spurious",
            Event::BackoffSpin => "backoff_spin",
            Event::BackoffYield => "backoff_yield",
            Event::BackoffSaturated => "backoff_saturated",
            Event::TagAlloc => "tag_alloc",
            Event::ServeAdmit => "serve_admit",
            Event::ServeShed => "serve_shed",
            Event::ServeSteal => "serve_steal",
            Event::ServeRefill => "serve_refill",
            Event::JoinAdmit => "join_admit",
            Event::Retire => "retire",
            Event::CrashRecover => "crash_recover",
            Event::LlxHelp => "llx_help",
            Event::ScxAbort => "scx_abort",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_in_index_order() {
        for (i, e) in Event::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Event::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EVENT_COUNT);
    }
}
