//! The invalidation stream (§4.2, §5.3).
//!
//! When a read/write transaction commits, the database publishes one message
//! containing the transaction's commit timestamp and the set of invalidation
//! tags it affected. Messages are delivered to every cache node in commit
//! order; cache nodes use the timestamps to truncate the validity intervals
//! of affected entries, and — because cache entries and invalidations share
//! the same timestamp domain — there are no races between an item being
//! inserted with an old value and the invalidation that supersedes it.

use crossbeam::channel::{unbounded, Receiver, Sender};
use txtypes::{TagSet, Timestamp, WallClock};

/// One entry in the invalidation stream: everything a single update
/// transaction invalidated.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidationMessage {
    /// The commit timestamp of the update transaction.
    pub timestamp: Timestamp,
    /// The invalidation tags affected by the transaction.
    pub tags: TagSet,
    /// The wall-clock time of the commit (for staleness bookkeeping).
    pub committed_at: WallClock,
}

/// Fan-out distribution of invalidation messages to subscribers, standing in
/// for the paper's reliable application-level multicast.
///
/// Messages are also kept in an ordered log so late subscribers (or tests)
/// can replay history.
#[derive(Debug, Default)]
pub struct InvalidationBus {
    subscribers: Vec<Sender<InvalidationMessage>>,
    log: Vec<InvalidationMessage>,
    /// Timestamp of the most recently published message. The commit
    /// sequencer publishes while holding the timestamp-allocation lock, so
    /// this must only ever increase; [`publish`](Self::publish) counts any
    /// violation so a broken commit path is observable in tests.
    last_timestamp: Option<Timestamp>,
    out_of_order: u64,
}

impl InvalidationBus {
    /// Creates a bus with no subscribers.
    #[must_use]
    pub fn new() -> InvalidationBus {
        InvalidationBus::default()
    }

    /// Registers a new subscriber and returns its receiving end. Only
    /// messages published after subscription are delivered; use
    /// [`log`](Self::log) to catch up on history.
    pub fn subscribe(&mut self) -> Receiver<InvalidationMessage> {
        let (tx, rx) = unbounded();
        self.subscribers.push(tx);
        rx
    }

    /// Publishes a message to all subscribers, in order, and appends it to
    /// the log. Disconnected subscribers are dropped.
    pub fn publish(&mut self, message: InvalidationMessage) {
        if self
            .last_timestamp
            .is_some_and(|last| message.timestamp <= last)
        {
            self.out_of_order += 1;
        } else {
            self.last_timestamp = Some(message.timestamp);
        }
        self.subscribers.retain(|s| s.send(message.clone()).is_ok());
        self.log.push(message);
    }

    /// The ordered history of published messages.
    #[must_use]
    pub fn log(&self) -> &[InvalidationMessage] {
        &self.log
    }

    /// Reinstates the invalidation history after crash recovery. The log
    /// must be in commit order; the horizon (`last_timestamp`) is set to the
    /// newest restored message so caches reconnecting after the crash seal
    /// at the recovered horizon. Replaces any existing history — only valid
    /// on a bus with no subscribers (recovery runs before anything
    /// reconnects).
    pub fn restore(&mut self, log: Vec<InvalidationMessage>) {
        debug_assert!(self.subscribers.is_empty(), "restore before subscribers");
        self.last_timestamp = log.last().map(|m| m.timestamp);
        self.log = log;
        self.out_of_order = 0;
    }

    /// Timestamp of the most recently published message, if any.
    #[must_use]
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.last_timestamp
    }

    /// Number of messages published with a timestamp at or below an earlier
    /// message's — always zero while the commit sequencer is correct.
    #[must_use]
    pub fn out_of_order_publishes(&self) -> u64 {
        self.out_of_order
    }

    /// Number of live subscribers.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtypes::InvalidationTag;

    fn msg(ts: u64) -> InvalidationMessage {
        InvalidationMessage {
            timestamp: Timestamp(ts),
            tags: [InvalidationTag::keyed("items", format!("id={ts}"))]
                .into_iter()
                .collect(),
            committed_at: WallClock::from_secs(ts),
        }
    }

    #[test]
    fn subscribers_receive_in_order() {
        let mut bus = InvalidationBus::new();
        let rx = bus.subscribe();
        bus.publish(msg(1));
        bus.publish(msg(2));
        assert_eq!(rx.recv().unwrap().timestamp, Timestamp(1));
        assert_eq!(rx.recv().unwrap().timestamp, Timestamp(2));
        assert_eq!(bus.log().len(), 2);
    }

    #[test]
    fn late_subscribers_miss_earlier_messages_but_log_has_them() {
        let mut bus = InvalidationBus::new();
        bus.publish(msg(1));
        let rx = bus.subscribe();
        bus.publish(msg(2));
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(bus.log().len(), 2);
    }

    #[test]
    fn publish_order_is_tracked() {
        let mut bus = InvalidationBus::new();
        assert_eq!(bus.last_timestamp(), None);
        bus.publish(msg(1));
        bus.publish(msg(3));
        assert_eq!(bus.last_timestamp(), Some(Timestamp(3)));
        assert_eq!(bus.out_of_order_publishes(), 0);
        bus.publish(msg(2));
        assert_eq!(bus.out_of_order_publishes(), 1);
        assert_eq!(bus.last_timestamp(), Some(Timestamp(3)));
    }

    #[test]
    fn disconnected_subscribers_are_pruned() {
        let mut bus = InvalidationBus::new();
        let rx = bus.subscribe();
        assert_eq!(bus.subscriber_count(), 1);
        drop(rx);
        bus.publish(msg(1));
        assert_eq!(bus.subscriber_count(), 0);
    }
}
