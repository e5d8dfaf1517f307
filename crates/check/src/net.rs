//! The small-N abstract network the protocol cores are checked inside.
//!
//! A [`NetModel`] wraps real, unmodified protocol state machines (any
//! [`ag_net::Protocol`]) in an abstract world: a static topology whose
//! directed links are FIFO channels, a sorted timer list, per-node
//! alive flags, and adversary budgets for message drops and radio
//! churn. The nondeterminism the engine resolves with its RNG and PHY
//! — delivery order, loss, timer ties, named random choices inside
//! handlers — becomes explicit branching:
//!
//! * `Deliver(link)` — dispatch the head frame of a channel into the
//!   receiver (`on_packet`), or into the *sender's* `on_send_failure`
//!   if the target is down and the frame was unicast (the abstract MAC
//!   discovering the peer is gone).
//! * `Drop(link)` — adversarially destroy the head frame (budgeted);
//!   unicast drops surface as `on_send_failure` at the sender, exactly
//!   like MAC retry exhaustion under the engine.
//! * `Fire(node, key)` — run a timer due *now* (`on_timer`). Ties in
//!   the same instant fire in canonical `(node, key)` order (the
//!   engine's own calendar-queue order — a partial-order reduction);
//!   fires still interleave freely with deliveries, drops and churn.
//! * `Churn(node)` — toggle a radio down/up (budgeted).
//! * `Advance` — only when every channel is drained and nothing is due
//!   does time jump to the next timer. This bounded-delay discipline
//!   keeps the state space finite without losing any delivery order.
//! * `Park` — when no timers remain (periodic timers whose next firing
//!   would land beyond the *active horizon* are discarded at
//!   `set_timer` time), jump to `end_time` and stop. Parked states are
//!   the quiescent worlds where soft-state expiry is observed.
//!
//! Named random choices ([`ProtoCtx::chance`], `pick_index`,
//! `pick_weighted`) are enumerated via a *choice tape*: a handler runs
//! once per distinct outcome vector, depth-first over the choice tree.
//! [`ProtoCtx::jitter`] resolves to 0. A draw that delays a timer
//! changes only *when* it fires, and the checker explores fire/delivery
//! interleavings instead. MAODV's orphan repair (`Maodv::tick`, step
//! 3c) compares a node's staleness with a draw, so there the draw
//! decides *whether* a repair starts in this tick: the checker explores
//! only the earliest repair, never one a larger draw defers.

use std::collections::VecDeque;
use std::hash::Hash;
use std::sync::Arc;

use ag_net::{Dispatch, Message, NodeId, ProtoCtx, Protocol, RxKind, TimerKey};
use ag_sim::{SimDuration, SimTime};

use crate::machine::Machine;

/// Safety bound on the send-failure cascade inside one dispatch.
const MAX_CASCADE: usize = 10_000;

/// A checkable world: real protocol instances on an abstract network.
#[derive(Debug, Clone)]
pub struct NetModel<P: Protocol + Clone> {
    protocols: Vec<P>,
    /// Directed links `(from, to)`, two per adjacency pair.
    links: Vec<(u32, u32)>,
    horizon: SimTime,
    end_time: SimTime,
    drop_budget: u8,
    churn_budget: u8,
    /// Overrides [`Machine::initial`] (see [`NetModel::with_root`]).
    root: Option<Box<NetState<P>>>,
}

impl<P: Protocol<Msg: Hash> + Clone + Hash> NetModel<P> {
    /// Builds a model over `protocols` (index = node id) with the given
    /// undirected `adjacency` pairs. Timers scheduled past `horizon`
    /// are parked (discarded); once quiescent, time jumps to `end_time`
    /// (the soft-state observation point). `end_time` must be at or
    /// after `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `end_time < horizon` or an adjacency endpoint is out
    /// of range.
    pub fn new(
        protocols: Vec<P>,
        adjacency: &[(u32, u32)],
        horizon: SimTime,
        end_time: SimTime,
    ) -> Self {
        assert!(end_time >= horizon, "end_time must be >= horizon");
        let n = protocols.len() as u32;
        let mut links = Vec::with_capacity(adjacency.len() * 2);
        for &(a, b) in adjacency {
            assert!(a < n && b < n && a != b, "bad adjacency ({a},{b})");
            links.push((a, b));
            links.push((b, a));
        }
        NetModel {
            protocols,
            links,
            horizon,
            end_time,
            drop_budget: 0,
            churn_budget: 0,
            root: None,
        }
    }

    /// Grants the adversary `n` message drops.
    #[must_use]
    pub fn with_drop_budget(mut self, n: u8) -> Self {
        self.drop_budget = n;
        self
    }

    /// Grants the adversary `n` radio up/down toggles.
    #[must_use]
    pub fn with_churn_budget(mut self, n: u8) -> Self {
        self.churn_budget = n;
        self
    }

    /// The active horizon (timers beyond it are parked).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Re-roots the model at `state`: [`Machine::initial`] returns it
    /// instead of running `Protocol::start` at t = 0. Pair with
    /// [`NetModel::warm_up`] to explore exhaustively from a warmed
    /// configuration.
    #[must_use]
    pub fn with_root(mut self, state: NetState<P>) -> Self {
        self.root = Some(Box::new(state));
        self
    }

    /// Runs the world forward deterministically (first enabled
    /// non-adversarial action) until `now >= until`, starting from
    /// `state`. Used to warm a scenario up to an interesting
    /// configuration (e.g. a formed multicast tree) before handing the
    /// state to the exhaustive search; the warm-up path itself is a
    /// real, reachable behavior of the model with no drops or churn.
    ///
    /// # Panics
    ///
    /// Panics if the world parks before reaching `until`.
    pub fn warm_up(&self, mut state: NetState<P>, until: SimTime) -> NetState<P> {
        while state.now < until {
            let succ = self.successors(&state);
            let (_, next) = succ
                .into_iter()
                .find(|(a, _)| !matches!(a, NetAction::Drop { .. } | NetAction::Churn { .. }))
                .expect("world parked before warm-up target");
            state = next;
        }
        state
    }
}

/// One world state: real protocol states plus the abstract network.
#[derive(Debug, Clone, Hash)]
pub struct NetState<P: Protocol + Clone> {
    /// Current simulated time.
    pub now: SimTime,
    /// Protocol instance per node, shared by every state that has not
    /// dispatched to it since ([`Arc::make_mut`]).
    pub nodes: Vec<Arc<P>>,
    /// Radio up/down per node (churn toggles these).
    pub alive: Vec<bool>,
    /// FIFO frame channels, parallel to the model's directed links.
    pub channels: Vec<VecDeque<(P::Msg, RxKind)>>,
    /// Pending timers `(at, node, key)`, sorted.
    pub timers: Vec<(SimTime, u32, TimerKey)>,
    /// Remaining adversarial drops.
    pub drops_left: u8,
    /// Remaining adversarial churn toggles.
    pub churns_left: u8,
    /// Quiescent terminal marker (time already jumped to `end_time`).
    pub parked: bool,
}

impl<P: Protocol + Clone> NetState<P> {
    /// Drops used so far (relative to the model's budget).
    pub fn drops_used(&self, model: &NetModel<P>) -> u8 {
        model.drop_budget - self.drops_left
    }
}

/// One resolved transition of a [`NetModel`]. The `tape` lists every
/// named-choice outcome drawn during the dispatch, so a printed trace
/// shows which branch each step took.
#[derive(Debug)]
pub enum NetAction {
    /// Deliver the head frame of the `from → to` channel.
    Deliver {
        /// Directed link `(from, to)`.
        link: (u32, u32),
        /// Named-choice outcomes of the triggered handler(s).
        tape: Vec<usize>,
    },
    /// Adversarially destroy the head frame of `from → to`.
    Drop {
        /// Directed link `(from, to)`.
        link: (u32, u32),
        /// Named-choice outcomes (unicast drops run the sender's
        /// `on_send_failure`).
        tape: Vec<usize>,
    },
    /// Fire a timer due at the current instant.
    Fire {
        /// The node whose timer fires.
        node: u32,
        /// The timer key.
        key: TimerKey,
        /// Named-choice outcomes of `on_timer`.
        tape: Vec<usize>,
    },
    /// Toggle a node's radio.
    Churn {
        /// The toggled node.
        node: u32,
    },
    /// Jump to the next timer instant (channels drained, nothing due).
    Advance {
        /// The new `now`.
        to: SimTime,
    },
    /// Quiesce: no timers remain; jump to `end_time` and stop.
    Park {
        /// The new (final) `now`.
        to: SimTime,
    },
}

/// A choice tape: the prefix it starts with replays fixed outcomes;
/// past the prefix, the first outcome (0) is taken and recorded so the
/// enumerator can bump to sibling branches. `arities` holds one entry
/// per choice drawn, so its length is the read position.
struct Tape {
    values: Vec<usize>,
    arities: Vec<usize>,
}

impl Tape {
    fn next(&mut self, arity: usize) -> usize {
        let pos = self.arities.len();
        if pos == self.values.len() {
            self.values.push(0);
        }
        self.arities.push(arity);
        let v = self.values[pos];
        assert!(v < arity, "tape value {v} out of range 0..{arity}");
        v
    }
}

/// Advances `values` to the lexicographically next outcome vector
/// under `arities`; `false` when exhausted.
fn bump(values: &mut Vec<usize>, arities: &[usize]) -> bool {
    while let Some(v) = values.pop() {
        let i = values.len();
        if v + 1 < arities[i] {
            values.push(v + 1);
            return true;
        }
    }
    false
}

/// The enumerating [`ProtoCtx`]: sends, broadcasts and timers land in
/// the world as the handler makes them, named choices come off the
/// [`Tape`].
struct CheckCtx<'a, M: Message> {
    now: SimTime,
    id: NodeId,
    tape: &'a mut Tape,
    /// The model's directed links, parallel to `channels`.
    links: &'a [(u32, u32)],
    horizon: SimTime,
    alive: &'a [bool],
    channels: &'a mut [VecDeque<(M, RxKind)>],
    timers: &'a mut Vec<(SimTime, u32, TimerKey)>,
    /// Send failures the handler provoked, dispatched after it returns.
    failures: &'a mut VecDeque<(usize, Dispatch<M>)>,
}

impl<M: Message> ProtoCtx<M> for CheckCtx<'_, M> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn id(&self) -> NodeId {
        self.id
    }

    fn node_count(&self) -> usize {
        self.alive.len()
    }

    fn send(&mut self, dest: NodeId, msg: M) {
        // A down radio's unicasts die in its MAC queue; so do unicasts
        // to nodes that were never in range. Both surface as send
        // failures.
        let from = self.id.raw();
        let link = self.links.iter().position(|&l| l == (from, dest.raw()));
        match link {
            Some(li) if self.alive[from as usize] => {
                self.channels[li].push_back((msg, RxKind::Unicast));
            }
            _ => self
                .failures
                .push_back((from as usize, Dispatch::SendFailure { to: dest, msg })),
        }
    }

    fn broadcast(&mut self, msg: M) {
        let from = self.id.raw();
        if !self.alive[from as usize] {
            return;
        }
        for (li, &(f, _)) in self.links.iter().enumerate() {
            if f == from {
                self.channels[li].push_back((msg.clone(), RxKind::Broadcast));
            }
        }
    }

    fn set_timer(&mut self, delay: SimDuration, key: TimerKey) {
        let at = self.now + delay;
        // Parked timer: its firing would land beyond the active
        // horizon, so it can never be observed.
        if at <= self.horizon {
            self.timers.push((at, self.id.raw(), key));
        }
    }

    fn count_n(&mut self, _name: &'static str, _n: u64) {}

    fn jitter(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "jitter bound must be positive");
        0
    }

    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.tape.next(2) == 1
    }

    fn pick_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "pick_index needs candidates");
        if n == 1 {
            return 0;
        }
        self.tape.next(n)
    }

    fn pick_weighted<F: Fn(usize) -> f64>(&mut self, n: usize, _weight: F) -> usize {
        // Strictly positive weights mean every candidate has non-zero
        // probability, so the checker enumerates them all uniformly.
        self.pick_index(n)
    }
}

impl<P: Protocol<Msg: Hash> + Clone + Hash> NetModel<P> {
    /// Runs `disp` (plus the send-failure cascade it provokes) against
    /// `st`, drawing choices from `tape`.
    fn apply_dispatch(
        &self,
        st: &mut NetState<P>,
        node: usize,
        disp: Dispatch<P::Msg>,
        tape: &mut Tape,
    ) {
        let mut work: VecDeque<(usize, Dispatch<P::Msg>)> = VecDeque::new();
        work.push_back((node, disp));
        let mut steps = 0;
        while let Some((n, d)) = work.pop_front() {
            steps += 1;
            assert!(
                steps <= MAX_CASCADE,
                "send-failure cascade did not terminate"
            );
            let NetState {
                now,
                nodes,
                alive,
                channels,
                timers,
                ..
            } = st;
            let mut ctx = CheckCtx {
                now: *now,
                id: NodeId::new(n as u32),
                tape,
                links: &self.links,
                horizon: self.horizon,
                alive,
                channels,
                timers,
                failures: &mut work,
            };
            d.deliver(Arc::make_mut(&mut nodes[n]), &mut ctx);
        }
        st.timers.sort_by_key(|&(at, n, k)| (at, n, k));
    }

    /// Runs `disp` once per distinct choice-outcome vector, each time on
    /// one clone of `st` that `prep` readies first (pops the dispatched
    /// channel head, say); returns `(tape, successor)` pairs.
    fn enumerate_dispatch(
        &self,
        st: &NetState<P>,
        prep: impl Fn(&mut NetState<P>),
        node: usize,
        disp: &Dispatch<P::Msg>,
    ) -> Vec<(Vec<usize>, NetState<P>)> {
        let mut out = Vec::new();
        let mut prefix: Vec<usize> = Vec::new();
        loop {
            let mut tape = Tape {
                values: prefix,
                arities: Vec::new(),
            };
            let mut next = st.clone();
            prep(&mut next);
            self.apply_dispatch(&mut next, node, disp.clone(), &mut tape);
            assert_eq!(
                tape.values.len(),
                tape.arities.len(),
                "handler drew fewer choices than the prefix it was given"
            );
            out.push((tape.values.clone(), next));
            prefix = tape.values;
            if !bump(&mut prefix, &tape.arities) {
                return out;
            }
        }
    }
}

impl<P: Protocol<Msg: Hash> + Clone + Hash> Machine for NetModel<P> {
    type State = NetState<P>;
    type Action = NetAction;

    fn initial(&self) -> NetState<P> {
        if let Some(root) = &self.root {
            return (**root).clone();
        }
        let n = self.protocols.len();
        let mut st = NetState {
            now: SimTime::ZERO,
            nodes: self.protocols.iter().cloned().map(Arc::new).collect(),
            alive: vec![true; n],
            channels: vec![VecDeque::new(); self.links.len()],
            timers: Vec::new(),
            drops_left: self.drop_budget,
            churns_left: self.churn_budget,
            parked: false,
        };
        for node in 0..n {
            let outs = self.enumerate_dispatch(&st, |_| {}, node, &Dispatch::Start);
            assert_eq!(
                outs.len(),
                1,
                "Protocol::start must not draw branching choices"
            );
            st = outs.into_iter().next().expect("one start outcome").1;
        }
        st
    }

    fn successors(&self, st: &NetState<P>) -> Vec<(NetAction, NetState<P>)> {
        if st.parked {
            return Vec::new();
        }
        let mut out = Vec::new();
        // 1. Channel heads: deliver, and (budget allowing) drop.
        for (li, &link) in self.links.iter().enumerate() {
            let Some((msg, rx)) = st.channels[li].front() else {
                continue;
            };
            let (from, to) = link;
            for consume_drop in [false, true] {
                if consume_drop && st.drops_left == 0 {
                    continue;
                }
                let pop = |next: &mut NetState<P>| {
                    next.channels[li].pop_front();
                    if consume_drop {
                        next.drops_left -= 1;
                    }
                };
                let mk = |tape| {
                    if consume_drop {
                        NetAction::Drop { link, tape }
                    } else {
                        NetAction::Deliver { link, tape }
                    }
                };
                let (node, disp) = if !consume_drop && st.alive[to as usize] {
                    let (from, msg, rx) = (NodeId::new(from), msg.clone(), *rx);
                    (to, Dispatch::Packet { from, msg, rx })
                } else if *rx == RxKind::Unicast {
                    // Dropped or undeliverable unicast: the sender's MAC
                    // gives up and reports the failure.
                    let (to, msg) = (NodeId::new(to), msg.clone());
                    (from, Dispatch::SendFailure { to, msg })
                } else {
                    // A broadcast copy nobody hears just vanishes.
                    let mut next = st.clone();
                    pop(&mut next);
                    out.push((mk(Vec::new()), next));
                    continue;
                };
                for (tape, next) in self.enumerate_dispatch(st, pop, node as usize, &disp) {
                    out.push((mk(tape), next));
                }
            }
        }
        // 2. Timers due now. Partial-order reduction: simultaneous
        // timers fire in canonical (node, key) order — the same
        // deterministic order the engine's calendar queue uses — so
        // only the first due timer yields a `Fire` action. Timer
        // nondeterminism survives where it matters: fires interleave
        // freely with deliveries, drops and churn. Exploring all k!
        // orders of k same-instant fires was the dominant blow-up and
        // adds no engine-reachable behavior.
        if let Some(&(at, node, key)) = st.timers.first() {
            if at == st.now {
                let due = |next: &mut NetState<P>| {
                    next.timers.remove(0);
                };
                let disp = Dispatch::Timer { key };
                for (tape, next) in self.enumerate_dispatch(st, due, node as usize, &disp) {
                    out.push((NetAction::Fire { node, key, tape }, next));
                }
            }
        }
        // 3. Churn.
        if st.churns_left > 0 && st.now <= self.horizon {
            for node in 0..st.nodes.len() {
                let mut next = st.clone();
                next.alive[node] = !next.alive[node];
                next.churns_left -= 1;
                out.push((NetAction::Churn { node: node as u32 }, next));
            }
        }
        // 4. Time: only once everything in flight has resolved.
        let drained = st.channels.iter().all(VecDeque::is_empty);
        let nothing_due = st.timers.first().is_none_or(|&(at, _, _)| at > st.now);
        if drained && nothing_due {
            if let Some(&(at, _, _)) = st.timers.first() {
                let mut next = st.clone();
                next.now = at;
                out.push((NetAction::Advance { to: at }, next));
            } else {
                let mut next = st.clone();
                next.now = next.now.max(self.end_time);
                next.parked = true;
                let to = next.now;
                out.push((NetAction::Park { to }, next));
            }
        }
        out
    }
}
