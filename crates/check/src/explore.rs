//! Breadth-first exhaustive exploration, states identified by
//! [`state_key`].

use ag_sim::hash::{state_key, DetHashMap};

use crate::machine::Machine;

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
/// BFS tree parent, and its outgoing edges; the visited set keeps its
/// [`state_key`].
/// [`Exploration::replay_path`] re-derives the concrete states along
/// any path via [`Machine::successors`].
pub struct Exploration<M: Machine, O> {
    /// Per-state property observations, indexed by state id.
    pub obs: Vec<O>,
    /// BFS tree parent and the index of the edge in `edges[parent]`
    /// that led here (`None` for the initial state). Parent chains give
    /// *shortest* counterexamples.
    pub parent: Vec<Option<(u32, u32)>>,
    /// Outgoing edges: `(action, successor id)` per state.
    pub edges: Vec<Vec<(M::Action, u32)>>,
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
        while let Some((p, e)) = self.parent[cur] {
            actions.push(self.edges[p as usize][e as usize].0.clone());
            cur = p as usize;
        }
        actions.reverse();
        actions
    }

    /// Re-derives the concrete states visited along `actions` starting
    /// from the initial state (the first element is the initial state,
    /// so the result has `actions.len() + 1` entries). Each step takes
    /// the successor [`Machine::successors`] pairs with the recorded
    /// action.
    ///
    /// # Panics
    ///
    /// Panics, naming the action, if a recorded action is not enabled
    /// in the state the path has reached.
    pub fn replay_path(&self, machine: &M, actions: &[M::Action]) -> Vec<M::State> {
        let mut states = vec![machine.initial()];
        for (i, a) in actions.iter().enumerate() {
            let (_, next) = machine
                .successors(states.last().expect("non-empty"))
                .into_iter()
                .find(|(b, _)| b == a)
                .unwrap_or_else(|| panic!("replayed action #{} {a:?} is not enabled", i + 1));
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
        parent: vec![None],
        edges: Vec::new(),
        complete: true,
    };
    let mut index: DetHashMap<(u64, u64), u32> = DetHashMap::default();
    index.insert(state_key(&initial), 0);

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
                    ex.parent.push(Some((id, out.len() as u32)));
                    frontier.push_back((i, next));
                    i
                }
            };
            out.push((action, next_id));
        }
        ex.edges.push(out);
    }
    // Every admitted state went through the frontier, so `edges` is
    // aligned with `obs`; the limit only refuses new states.
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
        let path = ex.path_to(three);
        assert_eq!(path.len(), 2);
        let states = ex.replay_path(&Counter, &path);
        assert_eq!(*states.last().unwrap(), 3);
    }

    #[test]
    #[should_panic(expected = "replayed action #2 3 is not enabled")]
    fn replay_names_a_disabled_action() {
        let ex = explore(&Counter, Limits::default(), |s| *s);
        ex.replay_path(&Counter, &[1, 3]);
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
        let (a, b) = (state_key(&(1, 2)), state_key(&(2, 1)));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
    }
}
