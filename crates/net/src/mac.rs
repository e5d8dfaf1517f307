//! Per-node MAC state for the simplified 802.11 DCF.
//!
//! The MAC is a small state machine per node:
//!
//! ```text
//!          enqueue (idle)                 channel idle at attempt time
//!   Idle ────────────────▶ Contending ───────────────────────────────▶ Transmitting
//!    ▲                        ▲   │ channel busy: re-arm attempt           │
//!    │                        └───┘                                        │
//!    └──────────── queue empty ◀──────────── TxEnd (+ACK outcome) ◀────────┘
//! ```
//!
//! The state machine data lives here; the transition logic lives in the
//! [`crate::Engine`], which owns the shared channel.

use std::collections::VecDeque;

use crate::{Message, NodeId};

/// An outbound frame waiting in (or at the head of) the MAC queue.
#[derive(Debug, Clone)]
pub struct OutFrame<M> {
    /// `Some(dest)` for unicast (ACKed, retried), `None` for broadcast.
    pub dest: Option<NodeId>,
    /// The upper-layer payload.
    pub msg: M,
}

/// MAC operating state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacState {
    /// Nothing queued.
    Idle,
    /// A backoff attempt is armed (generation tag distinguishes stale
    /// attempt events from live ones).
    Contending,
    /// A frame is in the air.
    Transmitting,
}

/// The per-node MAC: a drop-tail transmit queue plus DCF contention state.
#[derive(Debug)]
pub struct Mac<M> {
    queue: VecDeque<OutFrame<M>>,
    state: MacState,
    /// Current contention window (backoff drawn uniformly from `0..=cw`).
    pub cw: u32,
    /// Retransmissions already used for the head-of-line unicast frame.
    pub retries: u32,
    /// Generation counter for attempt events; bump to invalidate stale ones.
    pub attempt_gen: u64,
    capacity: usize,
}

impl<M: Message> Mac<M> {
    /// Creates an idle MAC with the given queue capacity and initial
    /// contention window.
    pub fn new(capacity: usize, cw_min: u32) -> Self {
        Mac {
            queue: VecDeque::new(),
            state: MacState::Idle,
            cw: cw_min,
            retries: 0,
            attempt_gen: 0,
            capacity,
        }
    }

    /// Current state.
    pub fn state(&self) -> MacState {
        self.state
    }

    /// Sets the state (engine use).
    pub fn set_state(&mut self, s: MacState) {
        self.state = s;
    }

    /// Appends a frame; returns `false` if full (a tail drop, which the
    /// engine counts as `mac.queue_drop`).
    pub fn enqueue(&mut self, frame: OutFrame<M>) -> bool {
        if self.queue.len() >= self.capacity {
            return false;
        }
        self.queue.push_back(frame);
        true
    }

    /// The frame currently being worked on, if any.
    pub fn head(&self) -> Option<&OutFrame<M>> {
        self.queue.front()
    }

    /// Removes and returns the head frame.
    pub fn pop_head(&mut self) -> Option<OutFrame<M>> {
        self.queue.pop_front()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Invalidates any armed attempt event and returns the new generation.
    pub fn bump_attempt_gen(&mut self) -> u64 {
        self.attempt_gen += 1;
        self.attempt_gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Message for u32 {
        fn wire_size(&self) -> usize {
            4
        }
    }

    fn mac() -> Mac<u32> {
        Mac::new(2, 31)
    }

    #[test]
    fn starts_idle_and_empty() {
        let m = mac();
        assert_eq!(m.state(), MacState::Idle);
        assert!(m.is_empty());
        assert!(m.head().is_none());
    }

    #[test]
    fn enqueue_respects_capacity() {
        let mut m = mac();
        assert!(m.enqueue(OutFrame { dest: None, msg: 1 }));
        assert!(m.enqueue(OutFrame { dest: None, msg: 2 }));
        assert!(!m.enqueue(OutFrame { dest: None, msg: 3 }));
        // The refused frame is gone; the two accepted ones are intact.
        assert_eq!(m.pop_head().unwrap().msg, 1);
        assert_eq!(m.pop_head().unwrap().msg, 2);
        assert!(m.is_empty());
    }

    #[test]
    fn fifo_order() {
        let mut m = mac();
        m.enqueue(OutFrame {
            dest: Some(NodeId::new(9)),
            msg: 1,
        });
        m.enqueue(OutFrame { dest: None, msg: 2 });
        assert_eq!(m.head().unwrap().msg, 1);
        assert_eq!(m.pop_head().unwrap().msg, 1);
        assert_eq!(m.pop_head().unwrap().msg, 2);
        assert!(m.pop_head().is_none());
    }

    #[test]
    fn attempt_generation_increments() {
        let mut m = mac();
        let g1 = m.bump_attempt_gen();
        let g2 = m.bump_attempt_gen();
        assert!(g2 > g1);
    }
}
