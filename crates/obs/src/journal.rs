//! A bounded structured event journal.
//!
//! The [`Journal`] is a fixed-capacity ring buffer of typed [`Event`]s:
//! lifecycle milestones (checkpoint begin/commit, restore, merge) and
//! sampled data-path events (batch ingested, shard snapshot).  When full,
//! the oldest event is dropped and the drop is *counted* — readers can
//! always tell whether the window they see is complete.  Recording takes
//! a `Mutex` (events are rare next to counter bumps: per checkpoint or
//! per snapshot, not per report), which keeps the implementation
//! dependency-free and the order globally consistent.

use std::collections::VecDeque;
use std::sync::Mutex;

/// What happened, with the numbers that matter for that event.
///
/// Each variant carries plain `u64` fields so the journal stays
/// allocation-free after construction and exports losslessly to JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A batch of reports was ingested into one shard.
    BatchIngested {
        /// Shard index the batch landed in.
        shard: u64,
        /// Reports in the batch.
        reports: u64,
    },
    /// A merged cross-shard snapshot was produced.
    ShardSnapshot {
        /// Number of shards merged.
        shards: u64,
        /// Total reports across all shards at snapshot time.
        total_reports: u64,
    },
    /// A checkpoint started writing shard snapshot files.
    CheckpointBegin {
        /// Number of shard files about to be written.
        shards: u64,
    },
    /// A checkpoint manifest was atomically committed.
    CheckpointCommit {
        /// Shard files written.
        shards: u64,
        /// Total reports captured by the checkpoint.
        total_reports: u64,
        /// Bytes written across all shard files.
        bytes: u64,
        /// Wall time of the whole checkpoint, in nanoseconds.
        nanos: u64,
    },
    /// A collector was restored from a committed checkpoint.
    Restore {
        /// Shard files read back.
        shards: u64,
        /// Total reports recovered.
        total_reports: u64,
        /// Wall time of the restore, in nanoseconds.
        nanos: u64,
    },
    /// Independent snapshots were merged into one.
    Merge {
        /// Number of operand snapshots.
        snapshots: u64,
        /// Total reports in the merged result.
        total_reports: u64,
    },
    /// A batch of frequency estimates was served from the query path.
    EstimateServed {
        /// Estimates answered.
        queries: u64,
    },
    /// A shard worker died mid-ingest and its shard was quarantined; the
    /// collector keeps running degraded on the remaining shards.
    ShardFailed {
        /// Index of the failed shard.
        shard: u64,
    },
    /// A storage operation kept failing transiently until the retry
    /// policy's attempt bound was exhausted; the error became permanent.
    RetryExhausted {
        /// Attempts made (initial try plus retries).
        attempts: u64,
    },
    /// A torn checkpoint directory was salvaged: every CRC-valid shard
    /// snapshot was recovered and a fresh manifest committed.
    SalvageCompleted {
        /// Shard snapshots recovered into the rebuilt manifest.
        recovered: u64,
        /// Shard slots whose snapshots were unreadable and dropped.
        dropped: u64,
    },
    /// A collector daemon accepted a client connection.
    ConnectionOpened {
        /// Server-assigned connection id (monotone per server).
        conn: u64,
    },
    /// A collector daemon connection ended (cleanly or not).
    ConnectionClosed {
        /// Server-assigned connection id.
        conn: u64,
        /// Reports acknowledged over this connection's lifetime.
        reports: u64,
    },
    /// A collector daemon finished draining: acceptor stopped, sessions
    /// joined, collector handed off (typically to a checkpoint).
    ServerDrained {
        /// Connections served over the daemon's lifetime.
        connections: u64,
        /// Total reports acknowledged at drain time.
        total_reports: u64,
    },
}

impl EventKind {
    /// The stable event name used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::BatchIngested { .. } => "batch_ingested",
            EventKind::ShardSnapshot { .. } => "shard_snapshot",
            EventKind::CheckpointBegin { .. } => "checkpoint_begin",
            EventKind::CheckpointCommit { .. } => "checkpoint_commit",
            EventKind::Restore { .. } => "restore",
            EventKind::Merge { .. } => "merge",
            EventKind::EstimateServed { .. } => "estimate_served",
            EventKind::ShardFailed { .. } => "shard_failed",
            EventKind::RetryExhausted { .. } => "retry_exhausted",
            EventKind::SalvageCompleted { .. } => "salvage_completed",
            EventKind::ConnectionOpened { .. } => "connection_opened",
            EventKind::ConnectionClosed { .. } => "connection_closed",
            EventKind::ServerDrained { .. } => "server_drained",
        }
    }

    /// The event's payload as stable `(field, value)` pairs, in
    /// declaration order.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            EventKind::BatchIngested { shard, reports } => {
                vec![("shard", shard), ("reports", reports)]
            }
            EventKind::ShardSnapshot {
                shards,
                total_reports,
            } => vec![("shards", shards), ("total_reports", total_reports)],
            EventKind::CheckpointBegin { shards } => vec![("shards", shards)],
            EventKind::CheckpointCommit {
                shards,
                total_reports,
                bytes,
                nanos,
            } => vec![
                ("shards", shards),
                ("total_reports", total_reports),
                ("bytes", bytes),
                ("nanos", nanos),
            ],
            EventKind::Restore {
                shards,
                total_reports,
                nanos,
            } => vec![
                ("shards", shards),
                ("total_reports", total_reports),
                ("nanos", nanos),
            ],
            EventKind::Merge {
                snapshots,
                total_reports,
            } => vec![("snapshots", snapshots), ("total_reports", total_reports)],
            EventKind::EstimateServed { queries } => vec![("queries", queries)],
            EventKind::ShardFailed { shard } => vec![("shard", shard)],
            EventKind::RetryExhausted { attempts } => vec![("attempts", attempts)],
            EventKind::SalvageCompleted { recovered, dropped } => {
                vec![("recovered", recovered), ("dropped", dropped)]
            }
            EventKind::ConnectionOpened { conn } => vec![("conn", conn)],
            EventKind::ConnectionClosed { conn, reports } => {
                vec![("conn", conn), ("reports", reports)]
            }
            EventKind::ServerDrained {
                connections,
                total_reports,
            } => vec![
                ("connections", connections),
                ("total_reports", total_reports),
            ],
        }
    }
}

/// One journal entry: a kind plus the clock reading when it was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// [`Clock::now_nanos`](crate::Clock::now_nanos) at record time
    /// (0 under a `NullClock`).
    pub at_nanos: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A bounded ring buffer of [`Event`]s.  Its storage grows with the
/// events actually recorded, up to `capacity`; nothing is reserved up
/// front.
///
/// ```
/// use mdrr_obs::{EventKind, Journal};
/// let journal = Journal::new(2);
/// journal.record(10, EventKind::CheckpointBegin { shards: 4 });
/// journal.record(20, EventKind::CheckpointCommit {
///     shards: 4, total_reports: 1_000, bytes: 65_536, nanos: 10,
/// });
/// journal.record(30, EventKind::Merge { snapshots: 2, total_reports: 2_000 });
/// let events = journal.events();
/// assert_eq!(events.len(), 2); // capacity 2: the oldest was dropped…
/// assert_eq!(journal.dropped(), 1); // …and the drop was counted.
/// assert_eq!(events[0].kind.name(), "checkpoint_commit");
/// ```
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    events: VecDeque<Event>,
    dropped: u64,
}

impl Journal {
    /// A journal keeping the most recent `capacity` events
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Journal {
            capacity,
            inner: Mutex::new(Inner {
                events: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// Appends an event, evicting (and counting) the oldest if full.
    pub fn record(&self, at_nanos: u64, kind: EventKind) {
        let mut inner = self.lock();
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(Event { at_nanos, kind });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.lock().events.iter().copied().collect()
    }

    /// How many events have been evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned journal mutex only means a panic elsewhere mid-record;
        // the ring stays structurally valid, so keep serving it.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let journal = Journal::new(3);
        for i in 0..10u64 {
            journal.record(i, EventKind::EstimateServed { queries: i });
        }
        assert_eq!(journal.len(), 3);
        assert_eq!(journal.dropped(), 7);
        let at: Vec<u64> = journal.events().iter().map(|e| e.at_nanos).collect();
        assert_eq!(at, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let journal = Journal::new(0);
        assert_eq!(journal.capacity(), 1);
        journal.record(1, EventKind::CheckpointBegin { shards: 1 });
        assert_eq!(journal.len(), 1);
    }

    /// The capacity is a bound, not a reservation: even `usize::MAX`
    /// (whose up-front reservation would overflow) records and returns
    /// events.
    #[test]
    fn capacity_reserves_nothing_up_front() {
        let journal = Journal::new(usize::MAX);
        assert_eq!(journal.capacity(), usize::MAX);
        journal.record(1, EventKind::CheckpointBegin { shards: 2 });
        journal.record(
            2,
            EventKind::Merge {
                snapshots: 2,
                total_reports: 10,
            },
        );
        let at: Vec<u64> = journal.events().iter().map(|e| e.at_nanos).collect();
        assert_eq!(at, vec![1, 2]);
        assert_eq!(journal.dropped(), 0);
    }

    #[test]
    fn every_kind_names_its_fields() {
        let kinds = [
            EventKind::BatchIngested {
                shard: 1,
                reports: 2,
            },
            EventKind::ShardSnapshot {
                shards: 3,
                total_reports: 4,
            },
            EventKind::CheckpointBegin { shards: 5 },
            EventKind::CheckpointCommit {
                shards: 6,
                total_reports: 7,
                bytes: 8,
                nanos: 9,
            },
            EventKind::Restore {
                shards: 10,
                total_reports: 11,
                nanos: 12,
            },
            EventKind::Merge {
                snapshots: 13,
                total_reports: 14,
            },
            EventKind::EstimateServed { queries: 15 },
            EventKind::ShardFailed { shard: 16 },
            EventKind::RetryExhausted { attempts: 17 },
            EventKind::SalvageCompleted {
                recovered: 18,
                dropped: 19,
            },
            EventKind::ConnectionOpened { conn: 20 },
            EventKind::ConnectionClosed {
                conn: 21,
                reports: 22,
            },
            EventKind::ServerDrained {
                connections: 23,
                total_reports: 24,
            },
        ];
        for kind in kinds {
            assert!(!kind.name().is_empty());
            assert!(!kind.fields().is_empty());
        }
    }
}
