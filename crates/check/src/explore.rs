//! Breadth-first exhaustive exploration with canonical state hashing.

use std::fmt;
use std::hash::Hasher;

use ag_sim::hash::{DetHashMap, FastHasher};

use crate::machine::Machine;

/// 128 bits of canonical state identity: [`FastHasher`] plus an
/// independent FNV-1a pass, both streamed over the state's `Debug`
/// rendering. The keyed protocol tables
/// ([`DetHashMap`]/[`DetHashSet`](ag_sim::hash::DetHashSet)) render in
/// key order, so states with equal contents render identically whatever
/// insert/remove history produced them. Two hashes make an accidental
/// visited-set collision astronomically unlikely even at millions of
/// states, which lets the explorer drop full states after expansion.
pub fn state_key<T: fmt::Debug>(value: &T) -> (u64, u64) {
    struct KeyWriter {
        fast: FastHasher,
        fnv: u64,
    }
    impl fmt::Write for KeyWriter {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.fast.write(s.as_bytes());
            for &b in s.as_bytes() {
                self.fnv ^= u64::from(b);
                self.fnv = self.fnv.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut w = KeyWriter {
        fast: FastHasher::default(),
        fnv: 0xcbf2_9ce4_8422_2325,
    };
    let _ = fmt::write(&mut w, format_args!("{value:?}"));
    (w.fast.finish(), w.fnv)
}

/// Exploration bounds. Exceeding a bound stops the search with
/// [`Exploration::complete`]` == false` instead of erroring.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum number of distinct states to expand.
    pub max_states: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_states: 1_000_000,
        }
    }
}

/// The explored state graph.
///
/// Full states are *not* retained (a few hundred thousand protocol
/// states would not fit in memory); instead each state keeps a
/// user-projected observation `O` (the fields the properties read), its
/// canonical key, its BFS tree parent, and its outgoing edges.
/// [`Exploration::replay_path`] re-derives the concrete states along
/// any path via [`Machine::step`].
pub struct Exploration<M: Machine, O> {
    /// Per-state property observations, indexed by state id.
    pub obs: Vec<O>,
    /// Canonical state keys (see [`state_key`]).
    pub keys: Vec<(u64, u64)>,
    /// BFS tree parent and the action that led here (`None` for the
    /// initial state). Parent chains give *shortest* counterexamples.
    pub parent: Vec<Option<(u32, M::Action)>>,
    /// Outgoing edges: `(action, successor id)` per state.
    pub edges: Vec<Vec<(M::Action, u32)>>,
    /// BFS depth per state.
    pub depth: Vec<u32>,
    /// `true` if the full reachable graph fit inside the limits
    /// (fixpoint reached).
    pub complete: bool,
}

impl<M: Machine, O> Exploration<M, O> {
    /// Number of distinct states discovered.
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// `true` if nothing was explored (cannot happen: the initial state
    /// always exists).
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    /// State ids with no outgoing edges (quiescent worlds).
    pub fn terminals(&self) -> impl Iterator<Item = usize> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_empty())
            .map(|(i, _)| i)
    }

    /// The action sequence from the initial state to `state` along BFS
    /// tree parents (one shortest path).
    pub fn path_to(&self, state: usize) -> Vec<M::Action> {
        let mut actions = Vec::new();
        let mut cur = state;
        while let Some((p, a)) = &self.parent[cur] {
            actions.push(a.clone());
            cur = *p as usize;
        }
        actions.reverse();
        actions
    }

    /// Re-derives the concrete states visited along `actions` starting
    /// from the initial state (the first element is the initial state,
    /// so the result has `actions.len() + 1` entries).
    pub fn replay_path(&self, machine: &M, actions: &[M::Action]) -> Vec<M::State> {
        let mut states = vec![machine.initial()];
        for a in actions {
            let next = machine.step(states.last().expect("non-empty"), a);
            states.push(next);
        }
        states
    }
}

/// Exhaustively explores `machine` breadth-first from its initial
/// state, projecting each discovered state through `observe` (keep it
/// small: it is retained for every state).
pub fn explore<M: Machine, O>(
    machine: &M,
    limits: Limits,
    observe: impl Fn(&M::State) -> O,
) -> Exploration<M, O> {
    let initial = machine.initial();
    let mut ex = Exploration {
        obs: vec![observe(&initial)],
        keys: vec![state_key(&initial)],
        parent: vec![None],
        edges: Vec::new(),
        depth: vec![0],
        complete: true,
    };
    let mut index: DetHashMap<(u64, u64), u32> = DetHashMap::default();
    index.insert(ex.keys[0], 0);

    // Frontier holds the concrete states awaiting expansion; they are
    // dropped once expanded.
    let mut frontier: std::collections::VecDeque<(u32, M::State)> =
        std::collections::VecDeque::new();
    frontier.push_back((0, initial));

    let progress = std::env::var_os("AG_CHECK_PROGRESS").is_some();
    while let Some((id, state)) = frontier.pop_front() {
        debug_assert_eq!(ex.edges.len(), id as usize);
        if progress && id % 50_000 == 0 && id > 0 {
            eprintln!(
                "explore: expanded {id} states, discovered {}, frontier {}",
                ex.obs.len(),
                frontier.len()
            );
        }
        let succs = machine.successors(&state);
        let mut out = Vec::with_capacity(succs.len());
        for (action, next) in succs {
            let key = state_key(&next);
            let next_id = match index.get(&key) {
                Some(&i) => i,
                None => {
                    let i = ex.obs.len() as u32;
                    if ex.obs.len() >= limits.max_states {
                        ex.complete = false;
                        continue;
                    }
                    index.insert(key, i);
                    ex.obs.push(observe(&next));
                    ex.keys.push(key);
                    ex.parent.push(Some((id, action.clone())));
                    ex.depth.push(ex.depth[id as usize] + 1);
                    frontier.push_back((i, next));
                    i
                }
            };
            out.push((action, next_id));
        }
        ex.edges.push(out);
    }
    // States admitted to the graph but cut from the frontier by the
    // limit would leave `edges` short; pad so the vectors stay aligned.
    while ex.edges.len() < ex.obs.len() {
        ex.complete = false;
        ex.edges.push(Vec::new());
    }
    ex
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-bit counter with a nondeterministic increment-by-1-or-2,
    /// saturating at 3: 4 states, terminal at 3.
    struct Counter;
    impl Machine for Counter {
        type State = u8;
        type Action = u8;
        fn initial(&self) -> u8 {
            0
        }
        fn successors(&self, s: &u8) -> Vec<(u8, u8)> {
            if *s >= 3 {
                return vec![];
            }
            [1u8, 2].iter().map(|d| (*d, (*s + *d).min(3))).collect()
        }
        fn step(&self, s: &u8, a: &u8) -> u8 {
            (*s + *a).min(3)
        }
    }

    #[test]
    fn explores_to_fixpoint() {
        let ex = explore(&Counter, Limits::default(), |s| *s);
        assert!(ex.complete);
        assert_eq!(ex.len(), 4);
        assert_eq!(ex.terminals().count(), 1);
    }

    #[test]
    fn parent_paths_are_shortest() {
        let ex = explore(&Counter, Limits::default(), |s| *s);
        let three = ex.obs.iter().position(|&o| o == 3).unwrap();
        // 0 →2→ 2 →(1|2)→ 3 is depth 2; the +1-only path is depth 3.
        assert_eq!(ex.depth[three], 2);
        let path = ex.path_to(three);
        assert_eq!(path.len(), 2);
        let states = ex.replay_path(&Counter, &path);
        assert_eq!(*states.last().unwrap(), 3);
    }

    #[test]
    fn limit_marks_incomplete() {
        let ex = explore(&Counter, Limits { max_states: 2 }, |s| *s);
        assert!(!ex.complete);
        assert!(ex.len() <= 2);
    }

    #[test]
    fn state_key_distinguishes() {
        assert_eq!(state_key(&(1, 2)), state_key(&(1, 2)));
        assert_ne!(state_key(&(1, 2)), state_key(&(2, 1)));
    }

    proptest::proptest! {
        /// Tables with equal contents are one state, whatever
        /// insert/remove history produced them. The second history grows
        /// the tables with keys it later removes, so their capacity, and
        /// with it the slot order, differs from the first's.
        #[test]
        fn prop_identity_ignores_operation_order(
            keys in proptest::collection::vec(0u32..10_000, 0..40),
            noise in proptest::collection::vec(10_000u32..20_000, 0..200),
        ) {
            type Tables = (DetHashMap<u32, u64>, ag_sim::hash::DetHashSet<u32>);
            fn tables(noise: &[u32], keys: impl Iterator<Item = u32>) -> Tables {
                let mut t = Tables::default();
                for k in noise.iter().copied().chain(keys) {
                    t.0.insert(k, u64::from(k) * 7);
                    t.1.insert(k);
                }
                for k in noise {
                    t.0.remove(k);
                    t.1.remove(k);
                }
                t
            }
            let plain = tables(&[], keys.iter().copied());
            let churned = tables(&noise, keys.iter().rev().copied());
            proptest::prop_assert_eq!(state_key(&plain), state_key(&churned));
        }
    }
}
