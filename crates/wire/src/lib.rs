//! # wire — the txcached network protocol (§4, §7)
//!
//! The paper's cache is a distributed tier: application servers reach cache
//! nodes over a memcached-like binary protocol extended with *versioned*
//! lookups and an *invalidation stream*. This crate defines that protocol for
//! the reproduction: a compact, length-prefixed binary encoding of every
//! message exchanged between the TxCache client library and a `txcached`
//! cache node, independent of any particular transport.
//!
//! ## Framing (protocol v6)
//!
//! Every message travels in one frame:
//!
//! ```text
//! +-----------------+--------------+---------+--------+----------+
//! | body length u32 | sequence u64 | version | opcode | payload  |
//! +-----------------+--------------+---------+--------+----------+
//! ```
//!
//! The 4-byte little-endian length counts the body (sequence number,
//! version byte, opcode byte, and payload). The 8-byte sequence number —
//! introduced in protocol version 2 — is stamped on every request by the
//! client and echoed verbatim in the matching response. Since protocol
//! version 4 it is a true *correlation id*: many requests may be in flight
//! on one connection and the server may answer them in any order, with
//! [`FramedStream`] pairing each response to its request through a
//! pending-request table. A response whose id matches no pending request —
//! a duplicated, reordered, or invented frame — is detected as
//! [`WireError::Desync`] before a value can be attributed to the wrong
//! request; only the awaited request degrades, the connection stays
//! usable. Version 4 also added the scatter-gather [`Request::MultiGet`] /
//! [`Request::MultiPut`] opcodes, so a transaction's read or write set
//! reaches each cache node in one round trip, and a zero-copy receive path
//! ([`codec::Reader::new_shared`]) that hands out [`bytes::Bytes`] slices
//! of the received frame instead of copying every value. Frames larger
//! than [`MAX_FRAME_BYTES`] are rejected before allocation, so a corrupt
//! peer cannot make a node allocate gigabytes. Version 5 added ring
//! membership awareness: a [`Request::RingEpoch`] announcement (answered by
//! [`Response::EpochAck`]) plus an epoch field on `MultiGet`/`MultiPut`, so
//! a client routing on a stale ring view gets a typed
//! [`Response::WrongEpoch`] redirect instead of silent misses for keys that
//! moved. Version 6 added the observability pair: [`Request::Metrics`]
//! fetches the node's full metrics registry as a
//! [`Response::MetricsSnapshot`] — named counters, gauges, and sparse log2
//! latency histogram buckets ([`MetricsReport`]), the wire form of the
//! `obs` crate's registry. The version byte is checked
//! on decode; a mismatch produces [`WireError::Version`], which servers
//! answer with an explicit [`Response::Error`] frame carrying
//! [`ErrorCode::Version`].
//!
//! ## Ordering within a connection
//!
//! The protocol promises nothing about the order in which a server *applies*
//! the requests of one connection, only that each response carries its
//! request's correlation id. `txcached`'s reactor hands requests to a shared
//! worker pool, so a pipelined `Put` may apply after an `InvalidationBatch`
//! sent behind it. That is safe today only because the client awaits every
//! `InvalidationBatch` before sending the next, and because the node's
//! history scan or its history floor catches a `Put` that arrives after an
//! invalidation it should have met. ROADMAP.md (open item 1) plans the
//! contract that makes this explicit: a connection's requests apply in
//! arrival order; different connections run in parallel.
//!
//! ## Transports
//!
//! The framing layer runs over anything implementing [`Transport`]
//! (with [`Listener`] and [`Connector`] covering the accept and dial
//! sides): real TCP in production, or the deterministic in-process
//! [`sim::SimNet`] whose pipes inject seeded frame drops, duplicates,
//! reorderings, connection resets, and scripted partitions for the chaos
//! test suite (`tests/chaos.rs` at the workspace root).
//!
//! ## Messages
//!
//! Requests ([`Request`]) mirror the operations of the in-process cache:
//!
//! * [`Request::VersionedGet`] — a key plus the transaction's acceptable
//!   timestamp interval (pin-set bounds and staleness floor, §4.1);
//! * [`Request::Put`] — a computed value with its validity interval and
//!   invalidation tags (§6.1);
//! * [`Request::InvalidationBatch`] — an ordered slice of the database's
//!   invalidation stream plus a heartbeat timestamp (§4.2);
//! * [`Request::EvictStale`], [`Request::Stats`], [`Request::ResetStats`],
//!   [`Request::Ping`] — maintenance and monitoring.
//!
//! Responses ([`Response`]) carry hit/miss outcomes (with the stored and
//! effective validity intervals a hit needs for pin-set narrowing), stats
//! snapshots, acks, and typed error frames.
//!
//! The encoding is deterministic and non-self-describing, in the same spirit
//! as the value codec in the `txcache` crate: both ends know the protocol
//! version and the expected frame type, and every round trip is covered by
//! property tests (`tests/wire_roundtrip.rs` at the workspace root).

#![forbid(unsafe_code)]

pub mod codec;
pub mod frame;
pub mod msg;
pub mod sim;
pub mod transport;

pub use codec::{Reader, Writer};
pub use frame::{
    read_frame, split_seq, write_frame, FramedStream, MAX_FRAME_BYTES, PROTOCOL_VERSION, SEQ_BYTES,
};
pub use msg::{
    ErrorCode, GetResult, HistogramReport, InvalidationEvent, MetricsReport, MissCode, NodeStats,
    PutEntry, Request, Response, ShardStats,
};
pub use sim::{ChaosConfig, FaultAction, FaultCounts, SimConn, SimListener, SimNet, SplitMix64};
pub use transport::{Closer, Connector, Listener, TcpConnector, Transport};

use std::fmt;
use std::io;

/// Errors produced while encoding, decoding, or transporting frames.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (includes timeouts).
    Io(io::Error),
    /// The frame ended before the payload was complete.
    Truncated,
    /// The frame had bytes left over after the payload was decoded.
    TrailingBytes(usize),
    /// The peer speaks a different protocol version.
    Version {
        /// The version byte received.
        got: u8,
    },
    /// The opcode byte does not name a known message.
    UnknownOpcode(u8),
    /// A declared length exceeds [`MAX_FRAME_BYTES`].
    TooLarge(usize),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A tag byte (option marker, miss kind, error code) was out of range.
    BadTag(u8),
    /// A response's echoed correlation id matched no pending request — the
    /// frame was duplicated, reordered, or invented upstream. The stream
    /// is still frame-aligned: the request being awaited is abandoned, but
    /// the connection and its other in-flight requests remain usable.
    Desync {
        /// The correlation id the response carried.
        got: u64,
        /// The oldest outstanding correlation id at the time (`None` if no
        /// request was pending at all).
        want: Option<u64>,
    },
    /// The peer answered with an explicit error frame.
    Remote {
        /// The machine-readable error category.
        code: ErrorCode,
        /// The peer's human-readable message.
        message: String,
    },
}

impl WireError {
    /// Returns `true` if the error came from the transport (connection reset,
    /// timeout) rather than from malformed data; transport errors are the
    /// ones a client may heal by reconnecting.
    #[must_use]
    pub fn is_transport(&self) -> bool {
        matches!(self, WireError::Io(_))
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Truncated => f.write_str("frame truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::Version { got } => {
                write!(
                    f,
                    "protocol version mismatch: got {got}, want {PROTOCOL_VERSION}"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds limit of {MAX_FRAME_BYTES}")
            }
            WireError::BadUtf8 => f.write_str("invalid UTF-8 in string field"),
            WireError::BadTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            WireError::Desync { got, want } => match want {
                Some(want) => write!(f, "response sequence desync: got {got}, expected {want}"),
                None => write!(f, "unsolicited response with sequence {got}"),
            },
            WireError::Remote { code, message } => {
                write!(f, "remote error ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// A convenience alias for wire-level results.
pub type Result<T> = std::result::Result<T, WireError>;
