//! Lockstep conformance of engine runs: [`Conform`].

use std::hash::Hash;

use ag_net::{
    Choice, Dispatch, Message, NodeId, NodeSetup, Observer, ProtoCtx, Protocol, TimerKey,
};
use ag_sim::hash::state_key;
use ag_sim::{SimDuration, SimTime};

/// An engine [`Observer`] that checks every dispatch of a run against a
/// replica of its node: the proof that the model the checker explores
/// is the code the simulator runs.
///
/// Build the nodes, then run them with
/// `Engine::observed(phy, seed, nodes, Conform::new(&nodes))`; the run
/// is the plain engine run, handlers, [`Protocol::prefetch`] and
/// counters alike. Around each upcall the observer records the dispatch
/// and the named-choice outcomes the handler draws, then hands the
/// dispatch to the node's replica (cloned from the setup) through a
/// context that serves those outcomes back and drops every effect (a
/// transition returns its effects, so a replica can ignore them).
///
/// # Panics
///
/// The engine panics at the first dispatch after which the replica drew
/// other choices than the live instance, or hashes to another state
/// ([`state_key`]): a handler read ambient state or drew randomness
/// outside the named-choice surface. The message names the node, the
/// time, the input and the run's step.
#[derive(Debug)]
pub struct Conform<P: Protocol> {
    replicas: Vec<P>,
    /// The time and dispatch of the upcall under way.
    pending: Option<(SimTime, Dispatch<P::Msg>)>,
    /// The choices the live instance has drawn in it.
    drawn: Vec<Choice>,
    checked: usize,
}

impl<P: Protocol + Clone + Hash> Conform<P> {
    /// Clones each node's protocol as its replica.
    pub fn new(nodes: &[NodeSetup<P>]) -> Self {
        Conform {
            replicas: nodes.iter().map(|n| n.protocol.clone()).collect(),
            pending: None,
            drawn: Vec::new(),
            checked: 0,
        }
    }

    /// Dispatches checked so far.
    pub fn checked(&self) -> usize {
        self.checked
    }
}

impl<P: Protocol + Clone + Hash> Observer<P> for Conform<P> {
    fn dispatching(&mut self, _node: NodeId, now: SimTime, dispatch: &Dispatch<P::Msg>) {
        self.pending = Some((now, dispatch.clone()));
        self.drawn.clear();
    }

    fn chose(&mut self, choice: Choice) {
        self.drawn.push(choice);
    }

    fn dispatched(&mut self, id: NodeId, live: &P) {
        let (now, dispatch) = self.pending.take().expect("dispatched without dispatching");
        let node_count = self.replicas.len();
        let replica = &mut self.replicas[id.index()];
        let mut replay = ReplayCtx {
            now,
            id,
            node_count,
            recorded: self.drawn.iter(),
            drawn: Vec::new(),
        };
        dispatch.clone().deliver(replica, &mut replay);
        let step = self.checked;
        assert!(
            replay.drawn == self.drawn,
            "{id} at {now:?}, step #{step} ({dispatch:?}): the replica drew the choices {:?} \
             where the live instance drew {:?}",
            replay.drawn,
            self.drawn,
        );
        assert!(
            state_key(live) == state_key(&*replica),
            "{id} at {now:?}, step #{step} ({dispatch:?}): the replica's state diverged \
             from the live instance's",
        );
        self.checked += 1;
    }
}

/// Appends choice outcome `v` to `drawn` and returns it.
fn logged<T: Copy>(drawn: &mut Vec<Choice>, v: T, choice: fn(T) -> Choice) -> T {
    drawn.push(choice(v));
    v
}

/// The replica's context: swallows every effect and serves the
/// recorded outcomes in turn. A draw of another kind than recorded, or
/// past the end, gets a harmless stand-in; either way the served
/// outcome is logged, so one comparison of the two logs catches a
/// choice too many, too few or of the wrong kind.
struct ReplayCtx<'a> {
    now: SimTime,
    id: NodeId,
    node_count: usize,
    recorded: std::slice::Iter<'a, Choice>,
    drawn: Vec<Choice>,
}

impl<M: Message> ProtoCtx<M> for ReplayCtx<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn id(&self) -> NodeId {
        self.id
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn send(&mut self, _dest: NodeId, _msg: M) {}

    fn broadcast(&mut self, _msg: M) {}

    fn set_timer(&mut self, _delay: SimDuration, _key: TimerKey) {}

    fn count_n(&mut self, _name: &'static str, _n: u64) {}

    fn jitter(&mut self, _bound: u64) -> u64 {
        let v = match self.recorded.next() {
            Some(&Choice::Jitter(v)) => v,
            _ => 0,
        };
        logged(&mut self.drawn, v, Choice::Jitter)
    }

    fn chance(&mut self, _p: f64) -> bool {
        let v = self.recorded.next() == Some(&Choice::Chance(true));
        logged(&mut self.drawn, v, Choice::Chance)
    }

    fn pick_index(&mut self, n: usize) -> usize {
        let v = match self.recorded.next() {
            Some(&Choice::Index(i)) if i < n => i,
            _ => 0,
        };
        logged(&mut self.drawn, v, Choice::Index)
    }

    fn pick_weighted<F: Fn(usize) -> f64>(&mut self, n: usize, _weight: F) -> usize {
        <Self as ProtoCtx<M>>::pick_index(self, n)
    }
}
