//! Deterministic fault injection for AMPC transport links.
//!
//! [`FaultInjectingTransport`] wraps any [`Transport`] and perturbs it at
//! *scripted frame ordinals*: drop the 7th outbound frame, corrupt the
//! 12th inbound one, tear the link down after frame 20. Because the AMPC
//! engine is fully deterministic, frame ordinals are reproducible run to
//! run, which turns "a worker died mid-pass" into a unit-testable event
//! instead of a race. Scripts are grouped into a [`FaultPlan`] keyed by
//! `(worker, incarnation)` — when the supervisor respawns a worker, the
//! replacement link is the next incarnation, so a plan can express "the
//! first link dies, the respawned one is healthy" (recovery succeeds) or
//! "every incarnation dies" (retries exhaust into a typed error).

use super::transport::{NetStats, Transport};
use crate::error::{FaultKind, PartitionError, Result};
use std::time::Duration;

/// One scripted perturbation of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Swallow the frame and every later one in the same direction: the
    /// link goes half-open. On send the calls report success without
    /// transmitting; on recv arriving frames are discarded until the
    /// deadline expires. A [`Transport`] is an ordered reliable pipe, so
    /// loss never skips a single frame — the engine's unacknowledged
    /// write-backs lean on exactly that — it silences everything behind
    /// it, and the silence surfaces as a deadline timeout at whoever next
    /// awaits a reply over the link.
    DropFrame,
    /// Stall the operation for the given duration, then let it through.
    Delay(Duration),
    /// Flip the frame's first byte so the payload fails to decode.
    CorruptFrame,
    /// Tear the link down; this and every later operation fails
    /// [`FaultKind::Disconnected`], and the peer sees EOF/hangup.
    Disconnect,
}

/// Scripted faults for one link incarnation. Ordinals are 0-based and
/// counted per direction (send and recv independently).
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    /// `(frame ordinal, action)` pairs applied to outbound frames.
    pub on_send: Vec<(u64, FaultAction)>,
    /// `(frame ordinal, action)` pairs applied to inbound frames.
    pub on_recv: Vec<(u64, FaultAction)>,
}

impl FaultScript {
    /// A script whose only entry disconnects the link at outbound frame
    /// `at` — the cheapest way to simulate a worker crash.
    pub fn disconnect_at_send(at: u64) -> FaultScript {
        FaultScript {
            on_send: vec![(at, FaultAction::Disconnect)],
            on_recv: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.on_send.is_empty() && self.on_recv.is_empty()
    }
}

/// Faults for a whole worker fleet across respawns.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    entries: Vec<(u32, u32, FaultScript)>,
}

impl FaultPlan {
    /// A plan with no faults (the default for real runs).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when no link will be perturbed.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|(_, _, s)| s.is_empty())
    }

    /// Adds `script` for worker `worker`'s link incarnation
    /// `incarnation` (0 = the link it starts with, 1 = first respawn, …).
    pub fn push(&mut self, worker: u32, incarnation: u32, script: FaultScript) {
        self.entries.push((worker, incarnation, script));
    }

    /// The script for one link, if any.
    pub fn script(&self, worker: u32, incarnation: u32) -> Option<&FaultScript> {
        self.entries
            .iter()
            .find(|(w, i, _)| *w == worker && *i == incarnation)
            .map(|(_, _, s)| s)
    }

    /// Generates a single-fault plan from a seed: one pseudo-random
    /// action on a pseudo-random worker's first link at a frame ordinal in
    /// `1..=frames` — the frames a link of the run carries each way behind
    /// the handshake, so that the plan lands on one: a CLUGP link carries a
    /// handful whatever the input, a link that pages rows a few per
    /// admission window. Deterministic for a given `(seed, workers, frames)`.
    pub fn seeded(seed: u64, workers: u32, frames: u64) -> FaultPlan {
        // Small seeds leave xorshift's first outputs nearly linear in the
        // seed (seeds 1..=16 all drew worker 0): scramble the state first.
        let mut rng = XorShift64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let worker = (rng.next() % u64::from(workers.max(1))) as u32;
        let ordinal = 1 + rng.next() % frames.max(1);
        let action = match rng.next() % 4 {
            0 => FaultAction::DropFrame,
            1 => FaultAction::Delay(Duration::from_millis(5 + (rng.next() % 40))),
            2 => FaultAction::CorruptFrame,
            _ => FaultAction::Disconnect,
        };
        let on_send = rng.next().is_multiple_of(2);
        let mut script = FaultScript::default();
        if on_send {
            script.on_send.push((ordinal, action));
        } else {
            script.on_recv.push((ordinal, action));
        }
        let mut plan = FaultPlan::default();
        plan.push(worker, 0, script);
        plan
    }
}

struct XorShift64(u64);

impl XorShift64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A [`Transport`] wrapper that executes a [`FaultScript`].
pub struct FaultInjectingTransport {
    inner: Option<Box<dyn Transport>>,
    script: FaultScript,
    sent: u64,
    received: u64,
    final_stats: NetStats,
}

impl FaultInjectingTransport {
    /// Wraps `inner`, perturbing it per `script`.
    pub fn new(inner: Box<dyn Transport>, script: FaultScript) -> FaultInjectingTransport {
        FaultInjectingTransport {
            inner: Some(inner),
            script,
            sent: 0,
            received: 0,
            final_stats: NetStats::default(),
        }
    }

    fn action(list: &[(u64, FaultAction)], ordinal: u64) -> Option<FaultAction> {
        list.iter().find(|(at, _)| *at == ordinal).map(|(_, a)| *a)
    }

    /// Whether a scripted [`FaultAction::DropFrame`] at or before `ordinal`
    /// has silenced the direction `list` scripts.
    fn silenced(list: &[(u64, FaultAction)], ordinal: u64) -> bool {
        list.iter()
            .any(|&(at, a)| a == FaultAction::DropFrame && at <= ordinal)
    }

    /// Drops the wrapped link (the peer observes EOF / hangup).
    fn sever(&mut self, what: &str) -> PartitionError {
        if let Some(t) = self.inner.take() {
            self.final_stats = t.stats();
        }
        PartitionError::fault(
            FaultKind::Disconnected,
            format!("transport {what}: injected disconnect"),
        )
    }

    fn link(&mut self, what: &str) -> Result<&mut Box<dyn Transport>> {
        match self.inner.as_mut() {
            Some(t) => Ok(t),
            None => Err(PartitionError::fault(
                FaultKind::Disconnected,
                format!("transport {what}: link severed by injected disconnect"),
            )),
        }
    }
}

impl Transport for FaultInjectingTransport {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        let ordinal = self.sent;
        self.sent += 1;
        if Self::silenced(&self.script.on_send, ordinal) {
            return Ok(());
        }
        match Self::action(&self.script.on_send, ordinal) {
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                self.link("send")?.send(frame)
            }
            Some(FaultAction::CorruptFrame) => {
                let mut bad = frame.to_vec();
                if let Some(b) = bad.first_mut() {
                    *b ^= 0xFF;
                }
                self.link("send")?.send(&bad)
            }
            Some(FaultAction::Disconnect) => Err(self.sever("send")),
            Some(FaultAction::DropFrame) | None => self.link("send")?.send(frame),
        }
    }

    fn recv(&mut self) -> Result<Vec<u8>> {
        let ordinal = self.received;
        self.received += 1;
        if Self::silenced(&self.script.on_recv, ordinal) {
            // Consume and discard whatever arrives; the wrapped link's
            // deadline (or the peer hanging up) ends the wait.
            loop {
                self.link("recv")?.recv()?;
            }
        }
        match Self::action(&self.script.on_recv, ordinal) {
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                self.link("recv")?.recv()
            }
            Some(FaultAction::CorruptFrame) => {
                let mut frame = self.link("recv")?.recv()?;
                if let Some(b) = frame.first_mut() {
                    *b ^= 0xFF;
                }
                Ok(frame)
            }
            Some(FaultAction::Disconnect) => Err(self.sever("recv")),
            Some(FaultAction::DropFrame) | None => self.link("recv")?.recv(),
        }
    }

    fn set_deadline(&mut self, timeout: Option<Duration>) {
        if let Some(t) = self.inner.as_mut() {
            t.set_deadline(timeout);
        }
    }

    fn stats(&self) -> NetStats {
        match self.inner.as_ref() {
            Some(t) => t.stats(),
            None => self.final_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ampc::transport::channel_pair;

    fn wrap(script: FaultScript) -> (FaultInjectingTransport, impl Transport) {
        let (a, b) = channel_pair(8);
        (FaultInjectingTransport::new(Box::new(a), script), b)
    }

    #[test]
    fn drop_and_corrupt_on_send() {
        let mut script = FaultScript::default();
        script.on_send.push((1, FaultAction::CorruptFrame));
        script.on_send.push((2, FaultAction::DropFrame));
        let (mut a, mut b) = wrap(script);
        a.send(b"one").unwrap();
        a.send(b"two").unwrap(); // corrupted
        a.send(b"three").unwrap(); // dropped: the direction goes silent
        a.send(b"four").unwrap(); // swallowed behind it
        assert_eq!(b.recv().unwrap(), b"one");
        let corrupted = b.recv().unwrap();
        assert_eq!(corrupted[0], b't' ^ 0xFF);
        assert_eq!(&corrupted[1..], b"wo");
        b.set_deadline(Some(Duration::from_millis(20)));
        assert!(matches!(
            b.recv().unwrap_err(),
            PartitionError::Fault {
                kind: FaultKind::Timeout,
                ..
            }
        ));
        // The other direction still works: the link is half-open.
        b.send(b"back").unwrap();
        assert_eq!(a.recv().unwrap(), b"back");
    }

    #[test]
    fn drop_on_recv_silences_the_link_until_the_deadline() {
        let mut script = FaultScript::default();
        script.on_recv.push((1, FaultAction::DropFrame));
        let (a, mut b) = channel_pair(8);
        let mut a = FaultInjectingTransport::new(Box::new(a), script);
        a.set_deadline(Some(Duration::from_millis(20)));
        for frame in [&b"kept"[..], b"lost", b"lost too"] {
            b.send(frame).unwrap();
        }
        assert_eq!(a.recv().unwrap(), b"kept");
        // Nothing skips ahead of a lost frame on an ordered pipe.
        assert!(matches!(
            a.recv().unwrap_err(),
            PartitionError::Fault {
                kind: FaultKind::Timeout,
                ..
            }
        ));
        assert!(a.recv().is_err());
    }

    #[test]
    fn disconnect_severs_both_directions_and_peer_sees_hangup() {
        let script = FaultScript::disconnect_at_send(1);
        let (mut a, mut b) = wrap(script);
        a.send(b"ok").unwrap();
        let err = a.send(b"boom").unwrap_err();
        assert!(err.is_retryable());
        let err = a.recv().unwrap_err();
        assert!(matches!(
            err,
            PartitionError::Fault {
                kind: FaultKind::Disconnected,
                ..
            }
        ));
        assert_eq!(b.recv().unwrap(), b"ok");
        // Peer's next send fails: the wrapped end was dropped.
        assert!(b.send(b"x").is_err());
        // Stats survive the severed link.
        assert_eq!(a.stats().frames_sent, 1);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let p1 = FaultPlan::seeded(42, 4, 6);
        let p2 = FaultPlan::seeded(42, 4, 6);
        assert!(!p1.is_empty());
        for w in 0..4 {
            let (a, b) = (p1.script(w, 0), p2.script(w, 0));
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.on_send, y.on_send);
                    assert_eq!(x.on_recv, y.on_recv);
                }
                _ => panic!("seeded plans diverged"),
            }
        }
        assert!(p1.script(0, 1).is_none());
        // Every plan lands behind the handshake and within the link's frames.
        for seed in 0..64 {
            let plan = FaultPlan::seeded(seed, 4, 6);
            let mut scripted = (0..4).filter_map(|w| plan.script(w, 0));
            let script = scripted.next().expect("one scripted link");
            assert!(scripted.next().is_none());
            let ordinals: Vec<u64> = script
                .on_send
                .iter()
                .chain(&script.on_recv)
                .map(|f| f.0)
                .collect();
            assert!(matches!(ordinals[..], [1..=6]), "seed {seed}: {ordinals:?}");
        }
    }
}
