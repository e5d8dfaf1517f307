//! Temporal properties over an explored state graph.
//!
//! Finite-trace semantics with loop detection: a *behavior* of the
//! machine is a maximal path in the graph — one that ends in a terminal
//! (quiescent) state or enters a cycle. `always p` demands `p` in every
//! reachable state; `leads_to p q` demands every behavior passing
//! through a `p`-state subsequently (or simultaneously) hit a
//! `q`-state (`eventually q` is `leads_to` with the initial state as
//! the trigger). Violations come back as a path of state ids from the
//! initial state, with the cycle marked for lasso-shaped
//! counterexamples.

use std::fmt::Write as _;

use crate::explore::Exploration;
use crate::machine::Machine;

/// A concrete violating behavior.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// State ids from the initial state (id 0) to the violation. For
    /// `always` the last state violates; for `leads_to` every state
    /// from the trigger state on avoids the goal.
    pub path: Vec<u32>,
    /// `Some(i)` marks a lasso: the last state of `path` steps back to
    /// `path[i]`, and the suffix from `i` repeats forever. `None` means
    /// the path ends in a terminal or violating state.
    pub loop_start: Option<usize>,
}

/// Outcome of checking one property.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The property holds on every behavior.
    Holds,
    /// The property fails; here is a concrete witness (a shortest path
    /// for `always`, a BFS prefix and an avoiding walk for `leads_to`).
    Violated(Counterexample),
}

impl Verdict {
    /// `true` if the property held.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }

    /// The counterexample, if violated.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Holds => None,
            Verdict::Violated(c) => Some(c),
        }
    }
}

/// `AG p`: `p` holds in every reachable state. The counterexample is a
/// shortest path (BFS parent chain) to the first discovered violation.
///
/// # Panics
///
/// Panics instead of answering [`Verdict::Holds`] on an incomplete
/// exploration: the states beyond [`Limits::max_states`](crate::Limits)
/// were never checked. A violation it finds is reported either way,
/// since every admitted state is reachable.
pub fn always<O>(ex: &Exploration<O>, p: impl Fn(&O) -> bool) -> Verdict {
    match ex.obs.iter().position(|o| !p(o)) {
        Some(bad) => Verdict::Violated(Counterexample {
            path: ex.path_to(bad),
            loop_start: None,
        }),
        None => {
            assert!(
                ex.complete,
                "always cannot hold on an incomplete exploration: it hit Limits::max_states, \
                 so the refused states were never checked"
            );
            Verdict::Holds
        }
    }
}

/// `∃` a reachable state satisfying `p` (non-vacuity helper); returns
/// its id.
pub fn exists<O>(ex: &Exploration<O>, p: impl Fn(&O) -> bool) -> Option<usize> {
    ex.obs.iter().position(p)
}

/// `AG (p → AF q)`: every behavior through a `p`-state later (or then)
/// reaches a `q`-state. The counterexample runs along BFS parents to
/// the first `p`-state with a `q`-avoiding behavior, then steps to the
/// first such successor until it reaches a terminal or a state it has
/// already walked through (the lasso).
///
/// # Panics
///
/// Panics on an incomplete exploration: hitting
/// [`Limits::max_states`](crate::Limits) drops the edges to the refused
/// states, so a state can look terminal when it is not.
pub fn leads_to<O>(ex: &Exploration<O>, p: impl Fn(&O) -> bool, q: impl Fn(&O) -> bool) -> Verdict {
    assert!(
        ex.complete,
        "leads_to needs the complete graph: the exploration hit Limits::max_states, \
         and a state whose successors were refused looks terminal"
    );
    let q_holds: Vec<bool> = ex.obs.iter().map(&q).collect();
    let bad = avoiding_states(ex, &q_holds);
    let Some(start) = (0..ex.len()).find(|&s| bad[s] && p(&ex.obs[s])) else {
        return Verdict::Holds;
    };
    let mut path = ex.path_to(start);
    let walk_from = path.len() - 1;
    let mut walked = vec![false; ex.len()];
    // A marked state that is not terminal has a marked successor.
    let loop_start = loop {
        let s = *path.last().expect("non-empty") as usize;
        walked[s] = true;
        match ex.edges[s].iter().find(|&&t| bad[t as usize]) {
            None => break None,
            Some(&t) if walked[t as usize] => {
                break path[walk_from..]
                    .iter()
                    .position(|&x| x == t)
                    .map(|i| walk_from + i);
            }
            Some(&t) => path.push(t),
        }
    };
    Verdict::Violated(Counterexample { path, loop_start })
}

/// Marks every state from which some maximal path avoids `q` states
/// entirely. Linear time: a state avoids `q` forever iff, inside the
/// `¬q` subgraph, it reaches a cycle (found by peeling zero-out-degree
/// states — whatever survives feeds a cycle) or reaches a terminal
/// state of the full graph.
fn avoiding_states<O>(ex: &Exploration<O>, q_holds: &[bool]) -> Vec<bool> {
    let n = ex.obs.len();
    // Reverse adjacency and out-degrees of the ¬q subgraph.
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut outdeg = vec![0u32; n];
    for s in 0..n {
        if q_holds[s] {
            continue;
        }
        for &t in &ex.edges[s] {
            let t = t as usize;
            if !q_holds[t] {
                outdeg[s] += 1;
                rev[t].push(s as u32);
            }
        }
    }
    // Peel ¬q states with no ¬q successors; survivors lie on or feed a
    // ¬q cycle.
    let mut queue: Vec<usize> = (0..n).filter(|&s| !q_holds[s] && outdeg[s] == 0).collect();
    let mut peeled = vec![false; n];
    for &s in &queue {
        peeled[s] = true;
    }
    let mut qi = 0;
    while qi < queue.len() {
        let s = queue[qi];
        qi += 1;
        for &pred in &rev[s] {
            let pred = pred as usize;
            outdeg[pred] -= 1;
            if outdeg[pred] == 0 && !peeled[pred] {
                peeled[pred] = true;
                queue.push(pred);
            }
        }
    }
    let mut bad: Vec<bool> = (0..n).map(|s| !q_holds[s] && !peeled[s]).collect();
    // Finite avoiders: backward closure (inside ¬q) of ¬q terminals.
    let mut stack: Vec<usize> = (0..n)
        .filter(|&s| !q_holds[s] && ex.edges[s].is_empty() && !bad[s])
        .collect();
    for &s in &stack {
        bad[s] = true;
    }
    while let Some(s) = stack.pop() {
        for &pred in &rev[s] {
            let pred = pred as usize;
            if !bad[pred] {
                bad[pred] = true;
                stack.push(pred);
            }
        }
    }
    bad
}

/// Renders a counterexample as a numbered action/state trace, its
/// states and actions re-derived through the machine's successors (see
/// [`Exploration::replay_path`]); a lasso ends with the step back to
/// its loop entry. `describe` summarizes one concrete state per line
/// (keep it short; it runs once per step).
pub fn render_counterexample<M: Machine, O>(
    machine: &M,
    ex: &Exploration<O>,
    cex: &Counterexample,
    describe: impl Fn(&M::State) -> String,
) -> String {
    let mut path = cex.path.clone();
    path.extend(cex.loop_start.map(|l| cex.path[l]));
    let (initial, steps) = ex.replay_path(machine, &path);
    let mut out = String::new();
    let _ = writeln!(out, "counterexample ({} steps):", steps.len());
    let marker = |i| match cex.loop_start {
        Some(l) if l == i => " <- loop entry",
        _ => "",
    };
    let _ = writeln!(out, "  #0 [initial] {}{}", describe(&initial), marker(0));
    for (i, (a, s)) in steps.iter().enumerate() {
        let _ = writeln!(
            out,
            "  #{} {:?} -> {}{}",
            i + 1,
            a,
            describe(s),
            marker(i + 1)
        );
    }
    if cex.loop_start.is_some() {
        let _ = writeln!(out, "  (suffix from loop entry repeats forever)");
    }
    out
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::explore::{explore, Limits};
    use crate::machine::Machine;

    /// 0 →a→ 1 →a→ 2 (terminal); 1 →b→ 1 (self loop).
    struct Loopy;
    impl Machine for Loopy {
        type State = u8;
        type Action = char;
        fn initial(&self) -> u8 {
            0
        }
        fn successors(&self, s: &u8) -> Vec<(char, u8)> {
            match s {
                0 => vec![('a', 1)],
                1 => vec![('a', 2), ('b', 1)],
                _ => vec![],
            }
        }
    }

    #[test]
    fn always_finds_shortest_violation() {
        let ex = explore(&Loopy, Limits::default(), |s| *s);
        assert!(always(&ex, |s| *s < 3).holds());
        let v = always(&ex, |s| *s != 2);
        let cex = v.counterexample().unwrap();
        assert_eq!(cex.path, vec![0, 1, 2]);
        assert!(cex.loop_start.is_none());
    }

    #[test]
    fn eventually_detects_lasso() {
        let ex = explore(&Loopy, Limits::default(), |s| *s);
        // `eventually q` is `leads_to` from the initial state. Not every
        // behavior reaches 2: looping b forever avoids it.
        let v = leads_to(&ex, |s| *s == 0, |s| *s == 2);
        let cex = v.counterexample().unwrap();
        assert_eq!(cex.path, vec![0, 1]);
        assert_eq!(cex.loop_start, Some(1));
        // But every behavior reaches 1 (the only choice from 0).
        assert!(leads_to(&ex, |s| *s == 0, |s| *s == 1).holds());
    }

    #[test]
    fn leads_to_and_exists() {
        let ex = explore(&Loopy, Limits::default(), |s| *s);
        assert!(leads_to(&ex, |s| *s == 2, |s| *s == 2).holds());
        assert!(!leads_to(&ex, |s| *s == 1, |s| *s == 2).holds());
        assert_eq!(exists(&ex, |s| *s == 2), Some(2));
        assert_eq!(exists(&ex, |s| *s == 9), None);
    }

    #[test]
    fn leads_to_holds_on_terminal_goal() {
        // Every behavior through 0 reaches 1 (only edge), so 0 ~> 1.
        let ex = explore(&Loopy, Limits::default(), |s| *s);
        assert!(leads_to(&ex, |s| *s == 0, |s| *s == 1).holds());
    }

    #[test]
    #[should_panic(expected = "leads_to needs the complete graph")]
    fn leads_to_refuses_an_incomplete_graph() {
        // State 2 is refused, so 1 keeps only its self loop.
        let ex = explore(&Loopy, Limits { max_states: 2 }, |s| *s);
        assert!(!ex.complete);
        leads_to(&ex, |s| *s == 1, |s| *s == 2);
    }

    #[test]
    #[should_panic(expected = "always cannot hold on an incomplete exploration")]
    fn always_refuses_to_hold_on_an_incomplete_graph() {
        let ex = explore(&Loopy, Limits { max_states: 2 }, |s| *s);
        // A violation among the admitted states is still reported...
        let v = always(&ex, |s| *s != 1);
        assert_eq!(v.counterexample().unwrap().path, vec![0, 1]);
        // ...but `Holds` would vouch for the refused state 2.
        always(&ex, |s| *s != 2);
    }

    #[test]
    fn render_replays_the_trace() {
        let ex = explore(&Loopy, Limits::default(), |s| *s);
        let v = always(&ex, |s| *s != 2);
        let cex = v.counterexample().unwrap();
        let text = render_counterexample(&Loopy, &ex, cex, |s| format!("state={s}"));
        assert!(text.contains("#2"));
        assert!(text.contains("state=2"));

        // A lasso ends with the step back to its loop entry.
        let v = leads_to(&ex, |s| *s == 0, |s| *s == 2);
        let text = render_counterexample(&Loopy, &ex, v.counterexample().unwrap(), |s| {
            format!("state={s}")
        });
        assert!(text.starts_with("counterexample (2 steps):"));
        assert!(text.contains("#1 'a' -> state=1 <- loop entry"));
        assert!(text.contains("#2 'b' -> state=1\n"));
    }

    /// A graph over states `0..6`: `self.0[s]` lists `s`'s successors.
    struct Graph(Vec<Vec<u8>>);
    impl Machine for Graph {
        type State = u8;
        type Action = ();
        fn initial(&self) -> u8 {
            0
        }
        fn successors(&self, s: &u8) -> Vec<((), u8)> {
            self.0[*s as usize].iter().map(|&t| ((), t)).collect()
        }
    }

    /// Brute force: some state reachable from 0 satisfies `p` and starts
    /// a simple path through `¬q` states that ends at a terminal or
    /// steps back onto itself.
    fn brute_violates(succ: &[Vec<u8>], p: impl Fn(u8) -> bool, q: &impl Fn(u8) -> bool) -> bool {
        fn avoids(succ: &[Vec<u8>], q: &impl Fn(u8) -> bool, path: &mut Vec<u8>) -> bool {
            let next = &succ[*path.last().expect("non-empty") as usize];
            next.is_empty()
                || next.iter().filter(|&&t| !q(t)).any(|&t| {
                    if path.contains(&t) {
                        return true;
                    }
                    path.push(t);
                    let found = avoids(succ, q, path);
                    path.pop();
                    found
                })
        }
        let mut reached = vec![0u8];
        let mut i = 0;
        while i < reached.len() {
            for &t in &succ[reached[i] as usize] {
                if !reached.contains(&t) {
                    reached.push(t);
                }
            }
            i += 1;
        }
        reached
            .into_iter()
            .any(|s| p(s) && !q(s) && avoids(succ, q, &mut vec![s]))
    }

    proptest! {
        /// `leads_to` agrees with the brute force, and its counterexample
        /// is a real behavior: from state 0 along edges, `¬q` from a
        /// `p`-state on, ending at a terminal or back at its loop entry.
        #[test]
        fn leads_to_matches_brute_force(
            succ in prop::collection::vec(prop::collection::vec(0u8..6, 0..3), 6..7),
            p_mask in 0u8..64,
            q_mask in 0u8..64,
        ) {
            let p = |s: u8| p_mask >> s & 1 == 1;
            let q = |s: u8| q_mask >> s & 1 == 1;
            let ex = explore(&Graph(succ.clone()), Limits::default(), |s| *s);
            let v = leads_to(&ex, |&s| p(s), |&s| q(s));
            prop_assert_eq!(v.holds(), !brute_violates(&succ, p, &q));
            if let Some(cex) = v.counterexample() {
                let states: Vec<u8> = cex.path.iter().map(|&id| ex.obs[id as usize]).collect();
                prop_assert_eq!(states[0], 0);
                for w in states.windows(2) {
                    prop_assert!(succ[w[0] as usize].contains(&w[1]));
                }
                let avoiding_from = states.iter().rposition(|&s| q(s)).map_or(0, |i| i + 1);
                prop_assert!(states[avoiding_from..].iter().any(|&s| p(s)));
                let last = &succ[*states.last().unwrap() as usize];
                match cex.loop_start {
                    None => prop_assert!(last.is_empty()),
                    Some(l) => {
                        prop_assert!(l >= avoiding_from);
                        prop_assert!(last.contains(&states[l]));
                    }
                }
            }
        }
    }
}
