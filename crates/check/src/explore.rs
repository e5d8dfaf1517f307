//! Breadth-first exhaustive exploration, states identified by
//! [`state_key`].

use ag_sim::hash::{state_key, DetHashMap};

use crate::machine::Machine;

/// Exploration bounds. At a bound the search refuses new states (and
/// the edges to them) and ends with [`Exploration::complete`]` ==
/// false`; the temporal operators then give no `Holds` verdict.
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

/// The explored state graph, states named by their ids (discovery
/// order, the initial state is 0).
///
/// Full states are *not* retained (a few hundred thousand protocol
/// states would not fit in memory), and neither are actions: each
/// state keeps a user-projected observation `O` (the fields the
/// properties read), its BFS tree parent and its successor ids, and the
/// visited index keeps its [`state_key`].
/// [`Exploration::replay_path`] re-derives the concrete states and
/// actions along any path via [`Machine::successors`].
pub struct Exploration<O> {
    /// Per-state property observations, indexed by state id.
    pub obs: Vec<O>,
    /// BFS tree parent (`None` for the initial state). Parent chains
    /// give *shortest* counterexamples.
    pub parent: Vec<Option<u32>>,
    /// Successor ids per state, in [`Machine::successors`] order.
    pub edges: Vec<Vec<u32>>,
    /// `true` if the full reachable graph fit inside the limits
    /// (fixpoint reached).
    pub complete: bool,
    /// The visited index: each state's [`state_key`] to its id.
    index: DetHashMap<(u64, u64), u32>,
}

/// One replayed step: the action taken and the state it reaches.
pub type Step<M> = (<M as Machine>::Action, <M as Machine>::State);

impl<O> Exploration<O> {
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

    /// The state ids from the initial state to `state` along BFS tree
    /// parents (one shortest path, both ends included).
    pub fn path_to(&self, state: usize) -> Vec<u32> {
        let mut path = vec![state as u32];
        while let Some(p) = self.parent[*path.last().expect("non-empty") as usize] {
            path.push(p);
        }
        path.reverse();
        path
    }

    /// Re-derives the concrete run along `path`, a sequence of state
    /// ids starting at the initial state: the initial state, then one
    /// [`Step`] per later id. Each step takes the successor of the
    /// current state, in [`Machine::successors`], whose [`state_key`]
    /// the visited index maps to the next id.
    ///
    /// # Panics
    ///
    /// Panics if `path` does not start at state 0, or, naming the step,
    /// if a later id is not a successor of the state before it.
    pub fn replay_path<M: Machine>(&self, machine: &M, path: &[u32]) -> (M::State, Vec<Step<M>>) {
        assert_eq!(path.first(), Some(&0), "a replayed path starts at state 0");
        let initial = machine.initial();
        let mut steps: Vec<Step<M>> = Vec::with_capacity(path.len() - 1);
        for (i, &id) in path.iter().enumerate().skip(1) {
            let cur = steps.last().map_or(&initial, |(_, s)| s);
            let step = machine
                .successors(cur)
                .into_iter()
                .find(|(_, next)| self.index.get(&state_key(next)) == Some(&id))
                .unwrap_or_else(|| {
                    panic!(
                        "replayed step #{i}: state {id} is not a successor of state {}",
                        path[i - 1]
                    )
                });
            steps.push(step);
        }
        (initial, steps)
    }
}

/// Exhaustively explores `machine` breadth-first from its initial
/// state, projecting each discovered state through `observe` (keep it
/// small: it is retained for every state).
pub fn explore<M: Machine, O>(
    machine: &M,
    limits: Limits,
    observe: impl Fn(&M::State) -> O,
) -> Exploration<O> {
    let initial = machine.initial();
    let mut ex = Exploration {
        obs: vec![observe(&initial)],
        parent: vec![None],
        edges: Vec::new(),
        complete: true,
        index: DetHashMap::default(),
    };
    ex.index.insert(state_key(&initial), 0);

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
        for (_, next) in succs {
            let key = state_key(&next);
            let next_id = match ex.index.get(&key) {
                Some(&i) => i,
                None => {
                    let i = ex.obs.len() as u32;
                    if ex.obs.len() >= limits.max_states {
                        ex.complete = false;
                        continue;
                    }
                    ex.index.insert(key, i);
                    ex.obs.push(observe(&next));
                    ex.parent.push(Some(id));
                    frontier.push_back((i, next));
                    i
                }
            };
            out.push(next_id);
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
        assert_eq!(path.len(), 3);
        let (_, steps) = ex.replay_path(&Counter, &path);
        assert_eq!(steps.len(), 2);
        assert_eq!(steps.last().unwrap().1, 3);
    }

    #[test]
    #[should_panic(expected = "replayed step #2: state 0 is not a successor of state 1")]
    fn replay_names_a_disabled_action() {
        let ex = explore(&Counter, Limits::default(), |s| *s);
        ex.replay_path(&Counter, &[0, 1, 0]);
    }

    /// `0 -x-> 1` and `0 -x-> 2`: one label, two successors.
    struct Fork;
    impl Machine for Fork {
        type State = u8;
        type Action = char;
        fn initial(&self) -> u8 {
            0
        }
        fn successors(&self, s: &u8) -> Vec<(char, u8)> {
            match s {
                0 => vec![('x', 1), ('x', 2)],
                _ => vec![],
            }
        }
    }

    #[test]
    fn replay_follows_states_not_labels() {
        let ex = explore(&Fork, Limits::default(), |s| *s);
        let two = ex.obs.iter().position(|&o| o == 2).unwrap();
        let (initial, steps) = ex.replay_path(&Fork, &ex.path_to(two));
        assert_eq!(initial, 0);
        assert_eq!(steps, vec![('x', 2)]);
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
