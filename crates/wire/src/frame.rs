//! Length-prefixed framing over any `Read`/`Write` transport.
//!
//! A frame is a little-endian `u32` body length followed by the body. The
//! framing layer is transport-agnostic: the `txcached` server and the
//! remote client both run it over [`crate::Transport`] implementations
//! (real `TcpStream`s or the chaos-testing [`crate::sim::SimConn`]), and
//! the tests run it over in-memory buffers.
//!
//! ## Request correlation (protocol v2) and multiplexing (protocol v4)
//!
//! Every body carried through a [`FramedStream`] starts with an 8-byte
//! little-endian **sequence number**. The client stamps each request with
//! the next value of a per-connection counter; the server echoes the
//! request's sequence number in its response. Since protocol v4 the
//! sequence numbers are *correlation ids*: many requests may be in flight
//! on one connection, the server may answer them in any order (its worker
//! pool completes requests as the cache shards release them), and the
//! stream layer pairs each response with its request through a
//! **pending-request table** instead of the old strict oldest-outstanding
//! check. A response whose id is not in the table — a duplicated frame, or
//! a frame invented by a confused peer — is still detected as
//! [`WireError::Desync`] *before* a wrong value can be attributed to the
//! wrong request; since the stream itself remains frame-aligned, only the
//! request that was being waited on degrades (it is abandoned and its late
//! response, if any, silently discarded) while the connection and its
//! other in-flight requests stay usable. Transport errors, by contrast,
//! still poison the whole connection.
//!
//! ## Partial reads
//!
//! [`FramedStream`] reads are *resumable*: if the transport returns a
//! timeout mid-frame (a slow peer, an injected delay), the bytes already
//! consumed are kept, and the next receive call continues where the last
//! one stopped instead of desynchronizing the stream or surfacing a decode
//! error. Only clean EOFs at a frame boundary are reported as end of
//! stream; an EOF mid-frame is [`WireError::Truncated`].
//!
//! ## Zero-copy receive
//!
//! Received frames are handed to the decoder as shared [`bytes::Bytes`]
//! buffers, so a hit's value travels from the socket buffer to the caller
//! with one allocation per *frame* — per-value payload bytes are
//! reference-counted subrange slices, never copied again.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::io::{Read, Write};

use bytes::Bytes;

use crate::msg::{Request, Response};
use crate::WireError;

/// The protocol version this crate encodes and accepts. Version 2 added
/// the per-request sequence number carried by [`FramedStream`]; version 3
/// added `history_floor_drops` to the `StatsSnapshot` layout and the
/// per-shard stats request/response pair; version 4 made the sequence
/// numbers true correlation ids (responses may arrive out of request
/// order) and added the scatter-gather `MultiGet`/`MultiPut` opcodes;
/// version 5 added the `RingEpoch` membership announcement with its
/// `EpochAck`/`WrongEpoch` responses and a ring-epoch fencing field on
/// `MultiGet`/`MultiPut`; version 6 added the `Metrics` request and its
/// `MetricsSnapshot` response, carrying a node's full observability
/// registry (counters, gauges, and log2 latency histogram buckets).
pub const PROTOCOL_VERSION: u8 = 6;

/// Upper bound on a frame body; larger declared lengths are rejected before
/// any allocation happens.
pub const MAX_FRAME_BYTES: usize = 32 << 20;

/// Bytes of sequence number prefixed to every framed message body.
pub const SEQ_BYTES: usize = 8;

/// Writes one frame (length prefix + body) and flushes.
///
/// Small frames go out in a single `write` call: on an unbuffered socket,
/// a separately written 4-byte prefix becomes its own tiny TCP segment,
/// and with Nagle enabled the body is then withheld until that segment is
/// ACKed — a latency cliff at best, a wedged connection at worst. Large
/// bodies are written separately to skip the copy; their first segment is
/// MSS-sized, so the tiny-segment interlock cannot arise.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> crate::Result<()> {
    if body.len() > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(body.len()));
    }
    let prefix = (body.len() as u32).to_le_bytes();
    if body.len() <= 64 * 1024 {
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&prefix);
        frame.extend_from_slice(body);
        w.write_all(&frame)?;
    } else {
        w.write_all(&prefix)?;
        w.write_all(body)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads one frame body from a stateless reader. Returns `Ok(None)` on a
/// clean EOF at a frame boundary (the peer closed the connection between
/// frames).
///
/// This free function has no resumption state: a timeout mid-frame loses
/// the partial bytes. Connection handlers should read through
/// [`FramedStream`], which resumes cleanly.
pub fn read_frame(r: &mut impl Read) -> crate::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // A clean close before any length byte is a normal disconnect; a close
    // mid-prefix or mid-body is a truncated frame.
    match r.read(&mut len_buf)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len_buf[n..]).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::Truncated
            } else {
                WireError::Io(e)
            }
        })?,
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    Ok(Some(body))
}

/// A bidirectional framed message stream over any `Read + Write` transport.
///
/// Used symmetrically: the server reads requests and writes responses, the
/// client writes requests and reads responses. `send_request` and the
/// `recv_*` family are separate calls so a client can *multiplex* — keep
/// many requests in flight on one connection and collect their responses in
/// whatever order the server finishes them, pairing each by its correlation
/// id through the pending-request table (protocol v4).
#[derive(Debug)]
pub struct FramedStream<S> {
    stream: S,
    /// The in-progress incoming frame (length prefix included), kept
    /// across calls so a timeout mid-frame resumes instead of
    /// desynchronizing. Zero-extended to the currently known frame size;
    /// `rx_filled` tracks how many bytes are real.
    rx_partial: Vec<u8>,
    /// How many bytes of `rx_partial` have been received so far.
    rx_filled: usize,
    /// The next request sequence number to stamp.
    tx_seq: u64,
    /// Correlation ids of sent requests whose responses are outstanding.
    /// Ordered so a desync diagnostic can name the oldest outstanding id.
    pending: BTreeSet<u64>,
    /// Responses that arrived while a caller was waiting for a *different*
    /// correlation id ([`FramedStream::recv_for`]); drained before the
    /// transport is read again.
    mailbox: VecDeque<(u64, Response)>,
    /// Ids of requests a caller gave up on after a desync. A late or
    /// duplicated response bearing one of these ids is discarded silently
    /// instead of cascading desyncs through unrelated in-flight requests.
    abandoned: HashSet<u64>,
}

impl<S: Read + Write> FramedStream<S> {
    /// Wraps a transport.
    #[must_use]
    pub fn new(stream: S) -> FramedStream<S> {
        FramedStream {
            stream,
            rx_partial: Vec::new(),
            rx_filled: 0,
            tx_seq: 1,
            pending: BTreeSet::new(),
            mailbox: VecDeque::new(),
            abandoned: HashSet::new(),
        }
    }

    /// Returns the underlying transport.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.stream
    }

    /// Mutably borrows the underlying transport, for callers that need to
    /// read or write raw frames alongside the typed helpers.
    #[must_use]
    pub fn transport_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Reads one frame body, resuming any partial frame left by an earlier
    /// timeout. `Ok(None)` on a clean EOF at a frame boundary.
    pub fn recv_frame(&mut self) -> crate::Result<Option<Vec<u8>>> {
        loop {
            let have = self.rx_filled;
            let need = if have < 4 {
                4
            } else {
                let len = u32::from_le_bytes([
                    self.rx_partial[0],
                    self.rx_partial[1],
                    self.rx_partial[2],
                    self.rx_partial[3],
                ]) as usize;
                if len > MAX_FRAME_BYTES {
                    self.rx_partial.clear();
                    self.rx_filled = 0;
                    return Err(WireError::TooLarge(len));
                }
                if have == 4 + len {
                    let mut frame = std::mem::take(&mut self.rx_partial);
                    self.rx_filled = 0;
                    frame.drain(..4);
                    return Ok(Some(frame));
                }
                4 + len
            };
            // Zero-extend once per stage (prefix, then body) — the fill
            // cursor makes chunked delivery linear, not quadratic.
            if self.rx_partial.len() != need {
                self.rx_partial.resize(need, 0);
            }
            match self.stream.read(&mut self.rx_partial[have..need]) {
                Ok(0) => {
                    if have == 0 {
                        return Ok(None);
                    }
                    return Err(WireError::Truncated);
                }
                Ok(n) => self.rx_filled = have + n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // The partial frame (and fill cursor) stay put: a retry
                    // after a timeout resumes exactly where this read
                    // stopped.
                    return Err(WireError::Io(e));
                }
            }
        }
    }

    /// Sends one request frame, stamped with the next sequence number, and
    /// returns that number — the correlation id to pass to
    /// [`FramedStream::recv_for`]. Any number of requests may be in flight
    /// before a response is collected.
    pub fn send_request(&mut self, request: &Request) -> crate::Result<u64> {
        let seq = self.tx_seq;
        let mut body = Vec::with_capacity(SEQ_BYTES + 32);
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(&request.encode());
        write_frame(&mut self.stream, &body)?;
        // Count the request only once it is fully written: a failed write
        // never produces a response.
        self.tx_seq += 1;
        self.pending.insert(seq);
        Ok(seq)
    }

    /// How many sent requests have no response collected yet.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Reads frames until one matches *some* pending request, returning
    /// `(correlation id, response)`; `Ok(None)` on clean disconnect.
    /// Responses to abandoned requests are discarded along the way. A frame
    /// whose id matches nothing — duplicated, reordered upstream, or
    /// invented by a confused peer — is [`WireError::Desync`]; the stream
    /// itself is still frame-aligned afterwards, so the caller may keep the
    /// connection and fail only the affected request.
    fn next_matched(&mut self) -> crate::Result<Option<(u64, Response)>> {
        loop {
            let Some(body) = self.recv_frame()? else {
                return Ok(None);
            };
            let body = Bytes::from(body);
            let (seq, rest) = split_seq_shared(&body)?;
            if self.pending.remove(&seq) {
                return Ok(Some((seq, Response::decode_shared(&rest)?)));
            }
            if self.abandoned.remove(&seq) {
                // A late response to a request the caller already gave up
                // on — drop it so it cannot desync an unrelated request.
                continue;
            }
            return Err(WireError::Desync {
                got: seq,
                want: self.pending.first().copied(),
            });
        }
    }

    /// Takes one already-received response out of the mailbox without
    /// touching the transport — the non-blocking half of the receive path,
    /// used to opportunistically collect pipelined acks that arrived while
    /// a different request was being awaited.
    pub fn pop_mailbox(&mut self) -> Option<(u64, Response)> {
        self.mailbox.pop_front()
    }

    /// Receives the next available response for any pending request,
    /// draining the mailbox first; `Ok(None)` on clean disconnect.
    pub fn recv_matched(&mut self) -> crate::Result<Option<(u64, Response)>> {
        if let Some(entry) = self.mailbox.pop_front() {
            return Ok(Some(entry));
        }
        self.next_matched()
    }

    /// Receives the next available response, discarding its correlation id
    /// — the pre-v4 convenience shape, for callers that treat any matched
    /// response as progress (e.g. draining put acks).
    pub fn recv_response(&mut self) -> crate::Result<Option<Response>> {
        Ok(self.recv_matched()?.map(|(_, response)| response))
    }

    /// Waits for the response to the specific request `seq`, parking
    /// responses to other pending requests in the mailbox for their own
    /// waiters. On [`WireError::Desync`], `seq` is marked abandoned — its
    /// late response, should one arrive, will be silently discarded — so
    /// the connection and other in-flight requests remain usable.
    pub fn recv_for(&mut self, seq: u64) -> crate::Result<Response> {
        if let Some(at) = self.mailbox.iter().position(|(s, _)| *s == seq) {
            return Ok(self.mailbox.remove(at).expect("position is in range").1);
        }
        loop {
            match self.next_matched() {
                Ok(Some((got, response))) if got == seq => return Ok(response),
                Ok(Some(other)) => self.mailbox.push_back(other),
                Ok(None) => {
                    self.pending.remove(&seq);
                    return Err(WireError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed awaiting response",
                    )));
                }
                Err(e) => {
                    if matches!(e, WireError::Desync { .. }) && self.pending.remove(&seq) {
                        self.abandoned.insert(seq);
                        // Bound the tombstone set: past this size the peer
                        // is hopeless and dropping the connection (which
                        // clears everything) is the caller's only real
                        // option anyway.
                        if self.abandoned.len() > 4096 {
                            self.abandoned.clear();
                        }
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Receives one request frame, returning its sequence number alongside
    /// the body's decode result; `Ok(None)` on clean disconnect.
    ///
    /// Frame-level failures (truncation, oversize, transport errors) are
    /// the outer `Err` — the stream is desynchronized and must be closed.
    /// A body that fails to *decode* is the inner `Err`: the stream is
    /// still at a frame boundary, so the server can answer with an error
    /// frame (echoing the sequence number) and keep serving.
    pub fn recv_request(&mut self) -> crate::Result<Option<(u64, crate::Result<Request>)>> {
        match self.recv_frame()? {
            None => Ok(None),
            Some(body) => {
                let body = Bytes::from(body);
                let (seq, rest) = split_seq_shared(&body)?;
                Ok(Some((seq, Request::decode_shared(&rest))))
            }
        }
    }

    /// Sends one response frame echoing `seq`, the sequence number of the
    /// request being answered.
    pub fn send_response(&mut self, seq: u64, response: &Response) -> crate::Result<()> {
        let mut body = Vec::with_capacity(SEQ_BYTES + 32);
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(&response.encode());
        write_frame(&mut self.stream, &body)
    }

    /// Sends a request and waits for its (correlation-verified) response —
    /// the unmultiplexed convenience path. A clean disconnect mid-call is
    /// an error here.
    pub fn call(&mut self, request: &Request) -> crate::Result<Response> {
        let seq = self.send_request(request)?;
        self.recv_for(seq)
    }
}

/// Splits the 8-byte sequence prefix off a framed body. Servers that
/// manage their own receive buffers (the event-loop server) use this to
/// recover the correlation id before decoding the request payload.
pub fn split_seq(body: &[u8]) -> crate::Result<(u64, &[u8])> {
    if body.len() < SEQ_BYTES {
        return Err(WireError::Truncated);
    }
    let seq = u64::from_le_bytes(body[..SEQ_BYTES].try_into().expect("8 bytes"));
    Ok((seq, &body[SEQ_BYTES..]))
}

/// [`split_seq`] over a shared buffer: the returned body slice shares the
/// frame's allocation, keeping the decode path zero-copy.
fn split_seq_shared(body: &Bytes) -> crate::Result<(u64, Bytes)> {
    if body.len() < SEQ_BYTES {
        return Err(WireError::Truncated);
    }
    let seq = u64::from_le_bytes(body[..SEQ_BYTES].try_into().expect("8 bytes"));
    Ok((seq, body.slice(SEQ_BYTES..)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"second").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"second");
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn truncated_frames_are_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // Cut the body short.
        let mut cur = Cursor::new(&buf[..buf.len() - 2]);
        assert!(matches!(read_frame(&mut cur), Err(WireError::Truncated)));
        // Cut the length prefix short.
        let mut cur = Cursor::new(&buf[..2]);
        assert!(matches!(read_frame(&mut cur), Err(WireError::Truncated)));
        // The stateful reader agrees on both.
        let mut framed = FramedStream::new(Cursor::new(buf[..buf.len() - 2].to_vec()));
        assert!(matches!(framed.recv_frame(), Err(WireError::Truncated)));
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cur = Cursor::new(buf.clone());
        assert!(matches!(read_frame(&mut cur), Err(WireError::TooLarge(_))));
        let mut framed = FramedStream::new(Cursor::new(buf));
        assert!(matches!(framed.recv_frame(), Err(WireError::TooLarge(_))));
    }

    /// A transport that interleaves short chunks with timeouts, to exercise
    /// the resumable read path.
    struct Stutter {
        data: Vec<u8>,
        pos: usize,
        /// Return a timeout error on every other read.
        hiccup: bool,
    }

    impl Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.hiccup = !self.hiccup;
            if self.hiccup {
                return Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "stutter"));
            }
            let n = buf.len().min(3).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Stutter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn mid_frame_timeouts_resume_cleanly() {
        let mut data = Vec::new();
        write_frame(&mut data, b"interrupted payload").unwrap();
        write_frame(&mut data, b"second").unwrap();
        let mut framed = FramedStream::new(Stutter {
            data,
            pos: 0,
            hiccup: false,
        });
        let mut frames = Vec::new();
        while frames.len() < 2 {
            match framed.recv_frame() {
                Ok(Some(body)) => frames.push(body),
                Ok(None) => panic!("unexpected EOF"),
                Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(frames[0], b"interrupted payload");
        assert_eq!(frames[1], b"second");
    }

    /// Reads from a prepared buffer, discards writes — so a test can send
    /// a request (registering its sequence number) and then feed the
    /// client an arbitrary response stream.
    struct Duplex {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn responses_with_wrong_sequence_numbers_are_desyncs() {
        // Hand-build a stream whose single response echoes sequence 9
        // while the client's outstanding request is sequence 1.
        let mut wire_bytes = Vec::new();
        let mut body = 9u64.to_le_bytes().to_vec();
        body.extend_from_slice(&Response::PutAck.encode());
        write_frame(&mut wire_bytes, &body).unwrap();

        let mut framed = FramedStream::new(Duplex {
            input: Cursor::new(wire_bytes),
            output: Vec::new(),
        });
        framed.send_request(&Request::Ping { nonce: 1 }).unwrap();
        assert!(matches!(
            framed.recv_response(),
            Err(WireError::Desync {
                got: 9,
                want: Some(1)
            })
        ));
    }

    #[test]
    fn unsolicited_responses_are_desyncs() {
        let mut wire_bytes = Vec::new();
        let mut body = 1u64.to_le_bytes().to_vec();
        body.extend_from_slice(&Response::PutAck.encode());
        write_frame(&mut wire_bytes, &body).unwrap();
        let mut framed = FramedStream::new(Cursor::new(wire_bytes));
        assert!(matches!(
            framed.recv_response(),
            Err(WireError::Desync { got: 1, want: None })
        ));
    }

    /// Encodes a response frame echoing `seq` into `out`.
    fn push_response(out: &mut Vec<u8>, seq: u64, response: &Response) {
        let mut body = seq.to_le_bytes().to_vec();
        body.extend_from_slice(&response.encode());
        write_frame(out, &body).unwrap();
    }

    #[test]
    fn out_of_order_responses_match_the_pending_table() {
        // Server answers 3, 1, 2 while the client waits 1, 2, 3.
        let mut wire_bytes = Vec::new();
        push_response(&mut wire_bytes, 3, &Response::PutAck);
        push_response(&mut wire_bytes, 1, &Response::Pong { nonce: 11 });
        push_response(&mut wire_bytes, 2, &Response::Pong { nonce: 22 });
        let mut framed = FramedStream::new(Duplex {
            input: Cursor::new(wire_bytes),
            output: Vec::new(),
        });
        let s1 = framed.send_request(&Request::Ping { nonce: 11 }).unwrap();
        let s2 = framed.send_request(&Request::Ping { nonce: 22 }).unwrap();
        let s3 = framed.send_request(&Request::Ping { nonce: 33 }).unwrap();
        assert_eq!((s1, s2, s3), (1, 2, 3));
        assert_eq!(framed.pending_count(), 3);
        assert!(matches!(
            framed.recv_for(s1),
            Ok(Response::Pong { nonce: 11 })
        ));
        // Waiting for 1 parked 3's response in the mailbox.
        assert!(matches!(
            framed.recv_for(s2),
            Ok(Response::Pong { nonce: 22 })
        ));
        assert!(matches!(framed.recv_for(s3), Ok(Response::PutAck)));
        assert_eq!(framed.pending_count(), 0);
    }

    #[test]
    fn desync_abandons_only_the_awaited_request() {
        // Stream: an unsolicited id 99 (desyncs the wait for request 1),
        // then a late response for 1 (now abandoned — must be skipped),
        // then request 2's response (must still match).
        let mut wire_bytes = Vec::new();
        push_response(&mut wire_bytes, 99, &Response::PutAck);
        push_response(&mut wire_bytes, 1, &Response::Pong { nonce: 11 });
        push_response(&mut wire_bytes, 2, &Response::Pong { nonce: 22 });
        let mut framed = FramedStream::new(Duplex {
            input: Cursor::new(wire_bytes),
            output: Vec::new(),
        });
        let s1 = framed.send_request(&Request::Ping { nonce: 11 }).unwrap();
        let s2 = framed.send_request(&Request::Ping { nonce: 22 }).unwrap();
        // The unknown id fails only the request being waited on.
        assert!(matches!(
            framed.recv_for(s1),
            Err(WireError::Desync {
                got: 99,
                want: Some(1)
            })
        ));
        // Request 2 survives: the late response to abandoned 1 is skipped,
        // then 2's own response matches.
        assert!(matches!(
            framed.recv_for(s2),
            Ok(Response::Pong { nonce: 22 })
        ));
        assert_eq!(framed.pending_count(), 0);
    }

    #[test]
    fn recv_matched_returns_any_pending_response() {
        let mut wire_bytes = Vec::new();
        push_response(&mut wire_bytes, 2, &Response::PutAck);
        push_response(&mut wire_bytes, 1, &Response::PutAck);
        let mut framed = FramedStream::new(Duplex {
            input: Cursor::new(wire_bytes),
            output: Vec::new(),
        });
        framed.send_request(&Request::Ping { nonce: 1 }).unwrap();
        framed.send_request(&Request::Ping { nonce: 2 }).unwrap();
        let (first, _) = framed.recv_matched().unwrap().unwrap();
        let (second, _) = framed.recv_matched().unwrap().unwrap();
        assert_eq!((first, second), (2, 1));
        assert!(framed.recv_matched().unwrap().is_none());
    }
}
