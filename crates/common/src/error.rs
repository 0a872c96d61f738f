//! Error types for the ASSET system.

use crate::ids::{Oid, Tid};
use crate::status::TxnStatus;
use std::fmt;
use std::io;

/// The unified result type of the workspace.
pub type Result<T> = std::result::Result<T, AssetError>;

/// Every way an ASSET operation can fail.
#[derive(Debug)]
pub enum AssetError {
    /// The tid names no transaction this open knows — never issued, or
    /// ended before it without being in doubt — or, for `parent_of`, one
    /// that has ended (an ended transaction keeps only its fate).
    TxnNotFound(Tid),
    /// A primitive was invoked in a state where it is meaningless, e.g.
    /// `begin` on a running transaction.
    InvalidState {
        /// The transaction involved.
        tid: Tid,
        /// Its status at the time.
        status: TxnStatus,
        /// The primitive that was attempted.
        op: &'static str,
    },
    /// `initiate` failed because the configured transaction limit is
    /// reached (the paper: "if no resources are available ... return an
    /// error code").
    ResourceExhausted {
        /// The configured cap.
        limit: usize,
    },
    /// `form_dependency` would create a cycle in the CD/AD waits-for
    /// subgraph, which would deadlock the commit protocol.
    DependencyCycle {
        /// The dependent transaction of the rejected edge.
        dependent: Tid,
        /// The transaction it would depend on.
        on: Tid,
    },
    /// The deadlock detector chose this transaction as a victim.
    Deadlock(Tid),
    /// A lock wait exceeded the configured timeout.
    LockTimeout {
        /// The waiting transaction.
        tid: Tid,
        /// The object it waited for.
        ob: Oid,
    },
    /// The transaction was aborted (by itself, by a dependency, or by the
    /// deadlock detector) and can no longer perform work.
    TxnAborted(Tid),
    /// The object does not exist in the store.
    ObjectNotFound(Oid),
    /// Malformed or truncated data encountered in the log or a page.
    Corrupt(String),
    /// Underlying I/O failure.
    Io(io::Error),
    /// The database stopped: a write or sync of its log failed, or system
    /// code panicked. Every primitive returns this from then on, with the
    /// first failure's text; reopening the directory, which runs restart
    /// recovery, is the one way back.
    Stopped(String),
}

impl fmt::Display for AssetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssetError::TxnNotFound(t) => write!(f, "unknown transaction {t}"),
            AssetError::InvalidState { tid, status, op } => {
                write!(f, "{op} invalid for {tid} in state {status}")
            }
            AssetError::ResourceExhausted { limit } => {
                write!(f, "transaction limit reached ({limit})")
            }
            AssetError::DependencyCycle { dependent, on } => {
                write!(
                    f,
                    "dependency {dependent} -> {on} would create a commit deadlock cycle"
                )
            }
            AssetError::Deadlock(t) => write!(f, "{t} aborted as deadlock victim"),
            AssetError::LockTimeout { tid, ob } => {
                write!(f, "{tid} timed out waiting for a lock on {ob}")
            }
            AssetError::TxnAborted(t) => write!(f, "{t} is aborted"),
            AssetError::ObjectNotFound(ob) => write!(f, "object {ob} not found"),
            AssetError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            AssetError::Io(e) => write!(f, "i/o error: {e}"),
            AssetError::Stopped(cause) => write!(f, "database stopped: {cause}"),
        }
    }
}

impl std::error::Error for AssetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AssetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for AssetError {
    fn from(e: io::Error) -> Self {
        AssetError::Io(e)
    }
}

impl AssetError {
    /// Is this error one of the "the transaction cannot continue" family,
    /// after which user code should stop issuing operations and let the
    /// abort complete?
    pub fn is_abort(&self) -> bool {
        matches!(
            self,
            AssetError::TxnAborted(_) | AssetError::Deadlock(_) | AssetError::LockTimeout { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = AssetError::TxnNotFound(Tid(4));
        assert_eq!(e.to_string(), "unknown transaction t4");

        let e = AssetError::InvalidState {
            tid: Tid(1),
            status: TxnStatus::Running,
            op: "begin",
        };
        assert!(e.to_string().contains("begin"));
        assert!(e.to_string().contains("running"));

        let e = AssetError::ResourceExhausted { limit: 8 };
        assert!(e.to_string().contains('8'));

        let e = AssetError::LockTimeout {
            tid: Tid(2),
            ob: Oid(9),
        };
        assert!(e.to_string().contains("ob9"));
    }

    #[test]
    fn io_conversion_and_source() {
        let ioe = io::Error::other("boom");
        let e: AssetError = ioe.into();
        assert!(matches!(e, AssetError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&AssetError::TxnNotFound(Tid(1))).is_none());
    }

    #[test]
    fn abort_family() {
        assert!(AssetError::TxnAborted(Tid(1)).is_abort());
        assert!(AssetError::Deadlock(Tid(1)).is_abort());
        assert!(AssetError::LockTimeout {
            tid: Tid(1),
            ob: Oid(1)
        }
        .is_abort());
        assert!(!AssetError::TxnNotFound(Tid(1)).is_abort());
    }
}
