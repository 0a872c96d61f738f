//! The transaction status machine.

use std::fmt;

/// The lifecycle states of an ASSET transaction (paper §2.1 and §4.2).
///
/// ```text
/// Initiated --begin--> Running --code returns--> Completed
///     |                   |                          |
///     |                   +-------- commit --> Committing --> Committed
///     |                   |                          |
///     +------- abort -> Aborting <---- abort --------+
///                           |
///                           v
///                        Aborted
/// ```
///
/// * *Initiated*: registered via `initiate`, not yet begun.
/// * *Running*: `begin` issued; the transaction's function is executing.
/// * *Completed*: the function returned; locks are **retained** and changes
///   are **not** durable until an explicit `commit`.
/// * *Committing* / *Aborting*: the §4.2 protocols are in progress. A
///   transaction that another transaction's abort marks as doomed sits in
///   *Aborting* until its own `commit`/`abort` call performs the undo steps.
/// * *Prepared*: durable-but-undecided distributed-commit participant
///   (DESIGN.md §14): its updates and a `Prepared` WAL record are forced,
///   locks are retained, and only the coordinator's decision may move it —
///   to *Committed* or through *Aborting* to *Aborted*. Survives restart.
/// * *Committed* / *Aborted*: terminal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum TxnStatus {
    /// Registered but not yet executing.
    #[default]
    Initiated,
    /// Executing its function.
    Running,
    /// Function finished; awaiting commit/abort.
    Completed,
    /// Commit protocol in progress (may block on dependencies).
    Committing,
    /// Durable-but-undecided distributed-commit participant; awaiting the
    /// coordinator's decision, locks retained (DESIGN.md §14).
    Prepared,
    /// Terminal: effects durable, locks released.
    Committed,
    /// Abort requested or forced; undo pending or in progress.
    Aborting,
    /// Terminal: effects undone, locks released.
    Aborted,
}

impl TxnStatus {
    /// Has the transaction been terminated (committed or aborted)?
    #[inline]
    pub fn is_terminated(self) -> bool {
        matches!(self, TxnStatus::Committed | TxnStatus::Aborted)
    }

    /// Is the transaction *active* in the paper's sense — it has begun
    /// executing and has not terminated (running or completed)?
    #[inline]
    pub fn is_active(self) -> bool {
        matches!(
            self,
            TxnStatus::Running
                | TxnStatus::Completed
                | TxnStatus::Committing
                | TxnStatus::Prepared
                | TxnStatus::Aborting
        )
    }

    /// Has the transaction's code finished executing (successfully or not)?
    #[inline]
    pub fn is_complete(self) -> bool {
        matches!(
            self,
            TxnStatus::Completed
                | TxnStatus::Committing
                | TxnStatus::Prepared
                | TxnStatus::Committed
                | TxnStatus::Aborted
        )
    }

    /// Is the transaction doomed or gone — aborting or aborted?
    #[inline]
    pub fn is_abort_path(self) -> bool {
        matches!(self, TxnStatus::Aborting | TxnStatus::Aborted)
    }

    /// Is `next` a legal successor state of `self`?
    ///
    /// Used by debug assertions in the transaction manager; the status
    /// machine is the paper's, plus the rule that any non-terminal state may
    /// transition to `Aborting` (aborts can strike at any time, including
    /// before `begin`).
    pub fn can_transition_to(self, next: TxnStatus) -> bool {
        use TxnStatus::*;
        match (self, next) {
            (Initiated, Running) => true,
            (Running, Completed) => true,
            (Completed, Committing) => true,
            (Committing, Committed) => true,
            // distributed commit: a completed participant prepares; only the
            // coordinator's decision moves it out of Prepared (§14)
            (Completed | Committing, Prepared) => true,
            (Prepared, Committed) => true,
            (Prepared, Aborting) => true,
            // commit discovered a doomed transaction, or abort was called
            (Initiated | Running | Completed | Committing, Aborting) => true,
            (Aborting, Aborted) => true,
            // re-entrant commit retry keeps status at Committing
            (Committing, Committing) => true,
            _ => false,
        }
    }
}

/// A transaction's distributed-commit state as a participant reports it:
/// the §14.1 `QueryState` reply, and on the wire the one-byte OK payload
/// of `PREPARED` (DESIGN.md §13.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ParticipantState {
    /// The node does not know the tid (never existed, or terminated before
    /// a restart and since forgotten).
    Unknown = 0,
    /// Prepared — in doubt, awaiting a decision.
    Prepared = 1,
    /// Committed.
    Committed = 2,
    /// Aborted (or aborting).
    Aborted = 3,
    /// Live but not prepared.
    Other = 4,
}

impl ParticipantState {
    /// The report map: what a node answers for a transaction in `status`
    /// (`None`: the node does not know it). `Aborting` reports as aborted
    /// because the undo walk cannot be un-decided.
    pub fn of(status: Option<TxnStatus>) -> ParticipantState {
        match status {
            None => ParticipantState::Unknown,
            Some(TxnStatus::Prepared) => ParticipantState::Prepared,
            Some(TxnStatus::Committed) => ParticipantState::Committed,
            Some(TxnStatus::Aborting | TxnStatus::Aborted) => ParticipantState::Aborted,
            Some(_) => ParticipantState::Other,
        }
    }

    /// The state's `PREPARED` payload byte.
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// The state a `PREPARED` payload byte names; a byte outside the
    /// table reads as `Unknown`.
    pub fn from_byte(b: u8) -> ParticipantState {
        match b {
            1 => ParticipantState::Prepared,
            2 => ParticipantState::Committed,
            3 => ParticipantState::Aborted,
            4 => ParticipantState::Other,
            _ => ParticipantState::Unknown,
        }
    }
}

impl fmt::Display for TxnStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxnStatus::Initiated => "initiated",
            TxnStatus::Running => "running",
            TxnStatus::Completed => "completed",
            TxnStatus::Committing => "committing",
            TxnStatus::Prepared => "prepared",
            TxnStatus::Committed => "committed",
            TxnStatus::Aborting => "aborting",
            TxnStatus::Aborted => "aborted",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TxnStatus::*;

    #[test]
    fn predicates() {
        assert!(Committed.is_terminated());
        assert!(Aborted.is_terminated());
        assert!(!Running.is_terminated());

        assert!(Running.is_active());
        assert!(Completed.is_active());
        assert!(!Initiated.is_active());
        assert!(!Committed.is_active());

        assert!(Completed.is_complete());
        assert!(Committed.is_complete());
        assert!(!Running.is_complete());

        assert!(Aborting.is_abort_path());
        assert!(Aborted.is_abort_path());
        assert!(!Committing.is_abort_path());

        assert!(Prepared.is_active());
        assert!(Prepared.is_complete());
        assert!(!Prepared.is_terminated());
        assert!(!Prepared.is_abort_path());
    }

    #[test]
    fn participant_state_bytes_are_the_prepared_payload() {
        use ParticipantState as P;
        let states = [P::Unknown, P::Prepared, P::Committed, P::Aborted, P::Other];
        for (byte, state) in (0..).zip(states) {
            assert_eq!((state.byte(), P::from_byte(byte)), (byte, state));
        }
        assert_eq!(P::from_byte(5), P::Unknown);
    }

    #[test]
    fn display() {
        assert_eq!(Running.to_string(), "running");
        assert_eq!(Committed.to_string(), "committed");
    }
}
