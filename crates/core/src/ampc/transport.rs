//! Transport abstraction for coordinator/worker exchange.
//!
//! A [`Transport`] is one duplex, ordered, reliable frame pipe. Two
//! implementations:
//!
//! * [`channel_pair`] — in-process bounded channels, the link of every
//!   worker thread `run_distributed` hosts. Frames are `Vec<u8>` moved
//!   through `std::sync::mpsc::sync_channel`, never copied, so
//!   backpressure comes for free.
//! * [`UnixTransport`] — a Unix stream socket with a 4-byte little-endian
//!   length prefix per frame, the link of every worker process
//!   `clugp-part --transport unix` spawns.
//!
//! Both count frames and payload bytes; the bench's bytes-exchanged
//! numbers come straight from these counters. Both honor a recv/send
//! deadline ([`Transport::set_deadline`]) so a dead peer surfaces as a
//! typed [`FaultKind::Timeout`] instead of a hang, and the socket framing
//! bounds frame lengths by [`MAX_FRAME_BYTES`] so a corrupt length prefix
//! fails as [`FaultKind::Corrupt`] instead of attempting a huge
//! allocation.

use crate::error::{FaultKind, PartitionError, Result};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::time::{Duration, Instant};

/// Largest accepted frame payload (1 GiB). Every legitimate frame —
/// control messages, a turn's state, inline edge ranges — is far below
/// this; a length prefix beyond it can only come from a desynchronized
/// or corrupted stream.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// Message-tag slots tracked by the per-verb histogram: one per verb the
/// protocol speaks ([`super::proto::VERBS`], indexed by tag byte) plus a
/// trailing "unknown" bucket for tags outside the protocol (e.g. a
/// fault-corrupted first byte).
pub const VERB_SLOTS: usize = super::proto::VERBS.len() + 1;

/// Per-verb traffic tally (sent + received combined, per endpoint).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerbTally {
    /// Payload bytes of frames with this tag.
    pub bytes: u64,
    /// Frames with this tag.
    pub frames: u64,
}

/// Traffic counters for one transport endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Payload bytes sent (excluding framing).
    pub bytes_sent: u64,
    /// Payload bytes received (excluding framing).
    pub bytes_received: u64,
    /// Frames sent.
    pub frames_sent: u64,
    /// Frames received.
    pub frames_received: u64,
    /// Per-message-type histogram, indexed by the frame's first (tag)
    /// byte; index [`VERB_SLOTS`]` - 1` buckets unrecognized tags.
    pub by_verb: [VerbTally; VERB_SLOTS],
}

impl NetStats {
    /// Component-wise sum.
    pub fn merge(&mut self, other: NetStats) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        for (d, s) in self.by_verb.iter_mut().zip(other.by_verb.iter()) {
            d.bytes += s.bytes;
            d.frames += s.frames;
        }
    }

    /// The histogram slot a frame lands in, keyed on its tag byte.
    pub fn verb_slot(frame: &[u8]) -> usize {
        match frame.first() {
            Some(&tag) if (tag as usize) < VERB_SLOTS - 1 => tag as usize,
            _ => VERB_SLOTS - 1,
        }
    }

    fn tally(&mut self, frame: &[u8]) {
        let slot = Self::verb_slot(frame);
        self.by_verb[slot].bytes += frame.len() as u64;
        self.by_verb[slot].frames += 1;
    }
}

/// One end of a duplex, ordered, reliable frame pipe.
pub trait Transport: Send {
    /// Sends one frame, taking it over: a frame crosses a link without
    /// being copied on the way.
    fn send(&mut self, frame: Vec<u8>) -> Result<()>;
    /// Receives the next frame, blocking until one arrives or the
    /// deadline (if any) expires.
    fn recv(&mut self) -> Result<Vec<u8>>;
    /// Bounds how long `recv` (and, where the medium can fill up, `send`)
    /// may block before failing with [`FaultKind::Timeout`]. `None`
    /// restores fully blocking behavior (the default).
    fn set_deadline(&mut self, timeout: Option<Duration>) {
        let _ = timeout;
    }
    /// Traffic counters for this endpoint.
    fn stats(&self) -> NetStats;
}

fn fault(kind: FaultKind, what: &str, e: impl std::fmt::Display) -> PartitionError {
    PartitionError::fault(kind, format!("transport {what}: {e}"))
}

/// Maps an io error to a fault kind: deadline expiries are `Timeout`,
/// everything else (EOF, reset, broken pipe) means the peer is gone.
fn io_fault(what: &str, e: std::io::Error) -> PartitionError {
    let kind = match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => FaultKind::Timeout,
        _ => FaultKind::Disconnected,
    };
    fault(kind, what, e)
}

/// In-process endpoint over a pair of bounded channels.
pub struct ChannelTransport {
    tx: SyncSender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    deadline: Option<Duration>,
    stats: NetStats,
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: Vec<u8>) -> Result<()> {
        // Counted before the frame moves, kept once it is sent.
        let mut stats = self.stats;
        stats.bytes_sent += frame.len() as u64;
        stats.frames_sent += 1;
        stats.tally(&frame);
        match self.deadline {
            None => self
                .tx
                .send(frame)
                .map_err(|_| fault(FaultKind::Disconnected, "send", "peer hung up"))?,
            Some(limit) => {
                // `SyncSender` has no bounded-wait send, so poll `try_send`
                // until the buffer drains or the deadline passes; a full
                // buffer hands the frame back.
                let start = Instant::now();
                let mut pending = frame;
                loop {
                    match self.tx.try_send(pending) {
                        Ok(()) => break,
                        Err(TrySendError::Disconnected(_)) => {
                            return Err(fault(FaultKind::Disconnected, "send", "peer hung up"))
                        }
                        Err(TrySendError::Full(back)) => {
                            if start.elapsed() >= limit {
                                return Err(fault(
                                    FaultKind::Timeout,
                                    "send",
                                    format!("peer not draining for {limit:?}"),
                                ));
                            }
                            pending = back;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
            }
        }
        self.stats = stats;
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>> {
        let frame = match self.deadline {
            None => self
                .rx
                .recv()
                .map_err(|_| fault(FaultKind::Disconnected, "recv", "peer hung up"))?,
            Some(limit) => self.rx.recv_timeout(limit).map_err(|e| match e {
                RecvTimeoutError::Timeout => fault(
                    FaultKind::Timeout,
                    "recv",
                    format!("no frame within {limit:?}"),
                ),
                RecvTimeoutError::Disconnected => {
                    fault(FaultKind::Disconnected, "recv", "peer hung up")
                }
            })?,
        };
        self.stats.bytes_received += frame.len() as u64;
        self.stats.frames_received += 1;
        self.stats.tally(&frame);
        Ok(frame)
    }

    fn set_deadline(&mut self, timeout: Option<Duration>) {
        self.deadline = timeout;
    }

    fn stats(&self) -> NetStats {
        self.stats
    }
}

/// Builds a connected pair of in-process endpoints with `capacity` frames
/// of buffering per direction.
pub fn channel_pair(capacity: usize) -> (ChannelTransport, ChannelTransport) {
    let (a_tx, b_rx) = std::sync::mpsc::sync_channel(capacity.max(1));
    let (b_tx, a_rx) = std::sync::mpsc::sync_channel(capacity.max(1));
    (
        ChannelTransport {
            tx: a_tx,
            rx: a_rx,
            deadline: None,
            stats: NetStats::default(),
        },
        ChannelTransport {
            tx: b_tx,
            rx: b_rx,
            deadline: None,
            stats: NetStats::default(),
        },
    )
}

/// Unix-socket endpoint: each frame is a 4-byte little-endian payload
/// length followed by the payload. Zero-length and over-cap frames are
/// rejected — every protocol message carries at least a tag byte, so an
/// empty or huge frame can only mean a corrupted prefix.
pub struct UnixTransport {
    stream: UnixStream,
    stats: NetStats,
}

impl UnixTransport {
    /// Wraps a connected stream.
    pub fn new(stream: UnixStream) -> UnixTransport {
        UnixTransport {
            stream,
            stats: NetStats::default(),
        }
    }
}

impl Transport for UnixTransport {
    fn send(&mut self, frame: Vec<u8>) -> Result<()> {
        if frame.is_empty() || frame.len() > MAX_FRAME_BYTES {
            return Err(fault(
                FaultKind::Corrupt,
                "send",
                format!("frame length {} outside 1..={MAX_FRAME_BYTES}", frame.len()),
            ));
        }
        // The frame is written where it lies, behind its prefix: never
        // copied into a buffer with room for both.
        let len = frame.len() as u32;
        (self.stream.write_all(&len.to_le_bytes()))
            .and_then(|()| self.stream.write_all(&frame))
            .map_err(|e| io_fault("send", e))?;
        self.stats.bytes_sent += frame.len() as u64;
        self.stats.frames_sent += 1;
        self.stats.tally(&frame);
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>> {
        let mut len = [0u8; 4];
        self.stream
            .read_exact(&mut len)
            .map_err(|e| io_fault("recv", e))?;
        let len = u32::from_le_bytes(len) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            // Do NOT allocate `len` bytes: a corrupt prefix must fail
            // cleanly, not OOM the coordinator.
            return Err(fault(
                FaultKind::Corrupt,
                "recv",
                format!("frame length prefix {len} outside 1..={MAX_FRAME_BYTES}"),
            ));
        }
        let mut frame = vec![0u8; len];
        self.stream
            .read_exact(&mut frame)
            .map_err(|e| io_fault("recv", e))?;
        self.stats.bytes_received += frame.len() as u64;
        self.stats.frames_received += 1;
        self.stats.tally(&frame);
        Ok(frame)
    }

    fn set_deadline(&mut self, timeout: Option<Duration>) {
        // A zero Duration means "block forever" to the socket API, so the
        // clamp below keeps tiny-but-nonzero deadlines meaningful.
        let t = timeout.map(|d| d.max(Duration::from_millis(1)));
        let _ = self.stream.set_read_timeout(t);
        let _ = self.stream.set_write_timeout(t);
    }

    fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected socketpair: the socket framing without a filesystem path.
    fn unix_pair() -> (UnixTransport, UnixTransport) {
        let (a, b) = UnixStream::pair().unwrap();
        (UnixTransport::new(a), UnixTransport::new(b))
    }

    fn exercise(mut a: impl Transport, mut b: impl Transport) {
        a.send(b"hello".to_vec()).unwrap();
        a.send(b"!".to_vec()).unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        assert_eq!(b.recv().unwrap(), b"!");
        b.send(vec![9u8; 100_000]).unwrap();
        assert_eq!(a.recv().unwrap().len(), 100_000);
        assert_eq!(a.stats().frames_sent, 2);
        assert_eq!(a.stats().bytes_sent, 6);
        assert_eq!(a.stats().bytes_received, 100_000);
        assert_eq!(b.stats().frames_received, 2);
    }

    #[test]
    fn channel_frames_round_trip() {
        let (a, b) = channel_pair(4);
        exercise(a, b);
    }

    #[test]
    fn per_verb_histogram_keys_on_the_tag_byte() {
        let (mut a, mut b) = channel_pair(4);
        a.send(vec![7, 1, 2, 3]).unwrap(); // tag 7 (Heartbeat), 4 bytes
        a.send(vec![7]).unwrap();
        a.send(vec![200, 0]).unwrap(); // unknown tag → last bucket
        for _ in 0..3 {
            b.recv().unwrap();
        }
        for t in [a.stats(), b.stats()] {
            assert_eq!(t.by_verb[7].frames, 2);
            assert_eq!(t.by_verb[7].bytes, 5);
            assert_eq!(t.by_verb[VERB_SLOTS - 1].frames, 1);
            assert_eq!(t.by_verb[VERB_SLOTS - 1].bytes, 2);
        }
        let mut merged = a.stats();
        merged.merge(b.stats());
        assert_eq!(merged.by_verb[7].frames, 4);
    }

    #[test]
    fn unix_frames_round_trip() {
        let (a, b) = unix_pair();
        exercise(a, b);
    }

    #[test]
    fn channel_disconnect_is_a_typed_fault() {
        let (mut a, b) = channel_pair(1);
        drop(b);
        let err = a.send(b"x".to_vec()).unwrap_err();
        assert!(matches!(
            err,
            PartitionError::Fault {
                kind: FaultKind::Disconnected,
                ..
            }
        ));
        assert!(err.is_retryable());
    }

    #[test]
    fn channel_deadline_bounds_recv_and_send() {
        let (mut a, mut b) = channel_pair(1);
        a.set_deadline(Some(Duration::from_millis(20)));
        let err = a.recv().unwrap_err();
        assert!(matches!(
            err,
            PartitionError::Fault {
                kind: FaultKind::Timeout,
                ..
            }
        ));
        // Fill the one-frame buffer; the bounded-wait send must time out
        // rather than block forever on the undrained peer.
        a.send(b"fill".to_vec()).unwrap();
        let err = a.send(b"over".to_vec()).unwrap_err();
        assert!(matches!(
            err,
            PartitionError::Fault {
                kind: FaultKind::Timeout,
                ..
            }
        ));
        b.set_deadline(Some(Duration::from_millis(20)));
        assert_eq!(b.recv().unwrap(), b"fill");
    }

    #[test]
    fn unix_deadline_bounds_recv() {
        let (mut a, _b) = unix_pair();
        a.set_deadline(Some(Duration::from_millis(20)));
        let err = a.recv().unwrap_err();
        assert!(matches!(
            err,
            PartitionError::Fault {
                kind: FaultKind::Timeout,
                ..
            }
        ));
    }

    #[test]
    fn unix_eof_is_disconnected() {
        let (mut a, b) = unix_pair();
        drop(b);
        let err = a.recv().unwrap_err();
        assert!(matches!(
            err,
            PartitionError::Fault {
                kind: FaultKind::Disconnected,
                ..
            }
        ));
    }

    #[test]
    fn unix_rejects_corrupt_length_prefix_without_allocating() {
        use std::io::Write as _;
        // Zero-length prefix: no protocol message encodes to zero bytes.
        let (mut a, b) = unix_pair();
        let mut raw = b.stream.try_clone().unwrap();
        raw.write_all(&0u32.to_le_bytes()).unwrap();
        let err = a.recv().unwrap_err();
        assert!(matches!(
            err,
            PartitionError::Fault {
                kind: FaultKind::Corrupt,
                ..
            }
        ));
        assert!(err.to_string().contains("length prefix"));

        // A hand-corrupted huge prefix must fail cleanly, not OOM.
        let (mut a, b) = unix_pair();
        let mut raw = b.stream.try_clone().unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let err = a.recv().unwrap_err();
        assert!(matches!(
            err,
            PartitionError::Fault {
                kind: FaultKind::Corrupt,
                ..
            }
        ));

        // And the cap is symmetric: empty frames cannot be sent either.
        let (mut a, _b) = unix_pair();
        assert!(a.send(Vec::new()).is_err());
    }
}
