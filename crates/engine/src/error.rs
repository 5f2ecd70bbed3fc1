//! Engine-level errors: store errors plus transaction and recovery
//! failures.

use esm_store::StoreError;

/// Everything that can go wrong inside the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An underlying store operation failed.
    Store(StoreError),
    /// Optimistic commit lost the first-committer-wins race: another
    /// transaction committed an overlapping change first.
    Conflict {
        /// The table on which the overlap was detected.
        table: String,
        /// What overlapped (for diagnostics).
        detail: String,
    },
    /// A named view is not registered.
    NoSuchView(String),
    /// A view name is already registered.
    ViewExists(String),
    /// A named table is not registered with the engine.
    NoSuchTable(String),
    /// A write-ahead-log entry failed to parse during recovery.
    WalCorrupt(String),
    /// A WAL record's sequence number did not strictly increase: a
    /// duplicate or stale record reached [`crate::Wal::push`] or
    /// [`crate::Wal::replay`]. Re-applying it would double-count the
    /// delta, so it is rejected instead.
    DuplicateSeq {
        /// The offending record's sequence number.
        seq: u64,
        /// The highest sequence number already in the log.
        last: u64,
    },
    /// A durable-WAL filesystem operation failed (message carries the
    /// underlying `io::Error` text; `io::Error` itself is neither `Clone`
    /// nor `PartialEq`).
    Io(String),
    /// An optimistic write exhausted its retry budget.
    RetriesExhausted {
        /// The view being written.
        view: String,
        /// How many attempts were made.
        attempts: u32,
    },
    /// A table name collides with the WAL marker namespace (names
    /// starting with `!` are reserved — see
    /// [`crate::wal::reserved_table_name`]).
    ReservedTableName(String),
    /// A sharding-topology operation failed: bad split points, a split
    /// key outside its shard's range, an undeclared key touched by a
    /// keyed transaction, or an unmergeable shard pair.
    ShardTopology(String),
    /// A write reached a read replica. Replicas serve every read path of
    /// the [`crate::Engine`] trait but never take writes; the error
    /// carries the current primary's advertised address (empty when the
    /// replica has not learned one yet) so clients can reconnect and
    /// retry — the failover redirect.
    NotPrimary {
        /// The advertised address of the engine currently taking writes.
        primary: String,
    },
    /// A network peer sent a payload this build's wire protocol does not
    /// speak (the text protocol of revisions 1–4, or no protocol at all).
    /// The message names the offending first byte and the expected one.
    UnsupportedProtocol(String),
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> EngineError {
        EngineError::Store(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> EngineError {
        EngineError::Io(e.to_string())
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Store(e) => write!(f, "store error: {e}"),
            EngineError::Conflict { table, detail } => {
                write!(f, "commit conflict on table {table}: {detail}")
            }
            EngineError::NoSuchView(v) => write!(f, "no such view: {v}"),
            EngineError::ViewExists(v) => write!(f, "view already defined: {v}"),
            EngineError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            EngineError::WalCorrupt(msg) => write!(f, "corrupt WAL: {msg}"),
            EngineError::DuplicateSeq { seq, last } => write!(
                f,
                "WAL sequence numbers must increase strictly: {seq} after {last}"
            ),
            EngineError::Io(msg) => write!(f, "durable WAL I/O error: {msg}"),
            EngineError::RetriesExhausted { view, attempts } => {
                write!(
                    f,
                    "write to view {view} still conflicted after {attempts} attempts"
                )
            }
            EngineError::ReservedTableName(t) => {
                write!(
                    f,
                    "table name {t:?} is reserved: names starting with '!' collide \
                     with WAL markers"
                )
            }
            EngineError::ShardTopology(msg) => write!(f, "shard topology error: {msg}"),
            EngineError::UnsupportedProtocol(msg) => write!(f, "{msg}"),
            EngineError::NotPrimary { primary } => {
                if primary.is_empty() {
                    write!(f, "not the primary: this replica takes no writes")
                } else {
                    write!(f, "not the primary: retry against {primary}")
                }
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = EngineError::Conflict {
            table: "t".into(),
            detail: "key [1]".into(),
        };
        assert!(e.to_string().contains("conflict on table t"));
        let s: EngineError = StoreError::NoSuchTable("x".into()).into();
        assert!(s.to_string().contains("store error"));
        assert!(EngineError::RetriesExhausted {
            view: "v".into(),
            attempts: 3
        }
        .to_string()
        .contains("3 attempts"));
        assert!(EngineError::DuplicateSeq { seq: 3, last: 5 }
            .to_string()
            .contains("3 after 5"));
        let io: EngineError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
        assert!(EngineError::ReservedTableName("!x".into())
            .to_string()
            .contains("reserved"));
        assert!(EngineError::ShardTopology("no shard 9".into())
            .to_string()
            .contains("no shard 9"));
    }
}
