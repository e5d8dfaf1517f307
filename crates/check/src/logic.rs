//! Temporal properties over an explored state graph.
//!
//! Finite-trace semantics with loop detection: a *behavior* of the
//! machine is a maximal path in the graph — one that ends in a terminal
//! (quiescent) state or enters a cycle. `always p` demands `p` in every
//! reachable state; `eventually p` demands every behavior hit a
//! `p`-state; `leads_to p q` demands every behavior passing through a
//! `p`-state subsequently (or simultaneously) hit a `q`-state.
//! Violations come back as a concrete action trace from the initial
//! state, with the cycle marked for lasso-shaped counterexamples.

use crate::explore::Exploration;
use crate::machine::Machine;

/// A concrete violating behavior.
#[derive(Debug, Clone)]
pub struct Counterexample<A> {
    /// Actions from the initial state to the violation. For `always`,
    /// the final state violates; for `eventually`/`leads_to` the whole
    /// suffix avoids the goal.
    pub actions: Vec<A>,
    /// `Some(i)` marks a lasso: the state reached after `actions[..i]`
    /// recurs after the full sequence (the suffix repeats forever).
    /// `None` means the trace ends in a terminal or violating state.
    pub loop_start: Option<usize>,
}

/// Outcome of checking one property.
#[derive(Debug, Clone)]
pub enum Verdict<A> {
    /// The property holds on every behavior.
    Holds,
    /// The property fails; here is a concrete witness (shortest-prefix
    /// for `always`, BFS-prefix + DFS suffix otherwise).
    Violated(Counterexample<A>),
}

impl<A> Verdict<A> {
    /// `true` if the property held.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }

    /// The counterexample, if violated.
    pub fn counterexample(&self) -> Option<&Counterexample<A>> {
        match self {
            Verdict::Holds => None,
            Verdict::Violated(c) => Some(c),
        }
    }
}

/// `AG p`: `p` holds in every reachable state. The counterexample is a
/// shortest path (BFS parent chain) to the first discovered violation.
pub fn always<M: Machine, O>(ex: &Exploration<M, O>, p: impl Fn(&O) -> bool) -> Verdict<M::Action> {
    match ex.obs.iter().position(|o| !p(o)) {
        None => Verdict::Holds,
        Some(bad) => Verdict::Violated(Counterexample {
            actions: ex.path_to(bad),
            loop_start: None,
        }),
    }
}

/// `∃` a reachable state satisfying `p` (non-vacuity helper); returns
/// its id.
pub fn exists<M: Machine, O>(ex: &Exploration<M, O>, p: impl Fn(&O) -> bool) -> Option<usize> {
    ex.obs.iter().position(p)
}

/// `AF q` from the initial state: every behavior eventually reaches a
/// `q`-state.
pub fn eventually<M: Machine, O>(
    ex: &Exploration<M, O>,
    q: impl Fn(&O) -> bool,
) -> Verdict<M::Action> {
    let q_holds: Vec<bool> = ex.obs.iter().map(&q).collect();
    if q_holds[0] {
        return Verdict::Holds;
    }
    match find_avoiding_behavior(ex, &q_holds, 0) {
        None => Verdict::Holds,
        Some(cex) => Verdict::Violated(cex),
    }
}

/// `AG (p → AF q)`: every behavior through a `p`-state later (or then)
/// reaches a `q`-state.
pub fn leads_to<M: Machine, O>(
    ex: &Exploration<M, O>,
    p: impl Fn(&O) -> bool,
    q: impl Fn(&O) -> bool,
) -> Verdict<M::Action> {
    let q_holds: Vec<bool> = ex.obs.iter().map(&q).collect();
    let bad = avoiding_states(ex, &q_holds);
    for (s, o) in ex.obs.iter().enumerate() {
        if p(o) && !q_holds[s] && bad[s] {
            let cex = find_avoiding_behavior(ex, &q_holds, s)
                .expect("a bad state has an avoiding behavior by construction");
            return Verdict::Violated(cex);
        }
    }
    Verdict::Holds
}

/// Marks every state from which some maximal path avoids `q` states
/// entirely. Linear time: a state avoids `q` forever iff, inside the
/// `¬q` subgraph, it reaches a cycle (found by peeling zero-out-degree
/// states — whatever survives feeds a cycle) or reaches a terminal
/// state of the full graph.
fn avoiding_states<M: Machine, O>(ex: &Exploration<M, O>, q_holds: &[bool]) -> Vec<bool> {
    let n = ex.obs.len();
    // Reverse adjacency and out-degrees of the ¬q subgraph.
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut outdeg = vec![0u32; n];
    for s in 0..n {
        if q_holds[s] {
            continue;
        }
        for (_, t) in &ex.edges[s] {
            let t = *t as usize;
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

/// Searches for a maximal path starting at `from` that never touches a
/// `q`-state: either it reaches a terminal state or it closes a cycle,
/// both entirely within `¬q` states. Returns the full counterexample
/// trace (initial → `from` via BFS parents, then the avoiding path).
fn find_avoiding_behavior<M: Machine, O>(
    ex: &Exploration<M, O>,
    q_holds: &[bool],
    from: usize,
) -> Option<Counterexample<M::Action>> {
    debug_assert!(!q_holds[from]);
    // Iterative DFS over the ¬q subgraph. Colors: 0 unvisited, 1 on
    // stack, 2 done. A terminal hit or a back edge is a violation; the
    // DFS stack *is* the avoiding path.
    let n = ex.obs.len();
    let mut color = vec![0u8; n];
    let mut stack: Vec<(usize, usize)> = vec![(from, 0)];
    color[from] = 1;
    while let Some(&(s, ei)) = stack.last() {
        if ex.edges[s].is_empty() {
            return Some(build_cex(ex, &stack, None));
        }
        if ei >= ex.edges[s].len() {
            color[s] = 2;
            stack.pop();
            continue;
        }
        stack.last_mut().expect("stack non-empty").1 += 1;
        let t = ex.edges[s][ei].1 as usize;
        if q_holds[t] {
            continue;
        }
        match color[t] {
            1 => {
                let loop_pos = stack
                    .iter()
                    .position(|&(x, _)| x == t)
                    .expect("grey state is on the stack");
                return Some(build_cex_with_edge(ex, &stack, s, t, loop_pos));
            }
            0 => {
                color[t] = 1;
                stack.push((t, 0));
            }
            _ => {}
        }
    }
    None
}

/// Assembles initial→`stack[0]` (BFS parents) followed by the DFS stack
/// path. `loop_from = Some(i)` marks the lasso entry at stack index
/// `i`.
fn build_cex<M: Machine, O>(
    ex: &Exploration<M, O>,
    stack: &[(usize, usize)],
    loop_from: Option<usize>,
) -> Counterexample<M::Action> {
    let mut actions = ex.path_to(stack[0].0);
    let prefix = actions.len();
    for w in stack.windows(2) {
        let (s, _) = w[0];
        let (t, _) = w[1];
        let (a, _) = ex.edges[s]
            .iter()
            .find(|(_, to)| *to as usize == t)
            .expect("consecutive stack entries are connected");
        actions.push(a.clone());
    }
    Counterexample {
        actions,
        loop_start: loop_from.map(|i| prefix + i),
    }
}

/// Like [`build_cex`] but appends the closing back edge `s → t`, where
/// `t` sits at `loop_pos` on the stack.
fn build_cex_with_edge<M: Machine, O>(
    ex: &Exploration<M, O>,
    stack: &[(usize, usize)],
    s: usize,
    t: usize,
    loop_pos: usize,
) -> Counterexample<M::Action> {
    let mut cex = build_cex(ex, stack, Some(loop_pos));
    let (a, _) = ex.edges[s]
        .iter()
        .find(|(_, to)| *to as usize == t)
        .expect("back edge exists");
    cex.actions.push(a.clone());
    cex
}

/// Renders a counterexample as a numbered action/state trace, its
/// states re-derived through the machine's successors (see
/// [`Exploration::replay_path`]). `describe` summarizes one concrete
/// state per line (keep it short; it runs once per step).
pub fn render_counterexample<M: Machine, O>(
    machine: &M,
    ex: &Exploration<M, O>,
    cex: &Counterexample<M::Action>,
    describe: impl Fn(&M::State) -> String,
) -> String {
    use std::fmt::Write as _;
    let states = ex.replay_path(machine, &cex.actions);
    let mut out = String::new();
    let _ = writeln!(out, "counterexample ({} steps):", cex.actions.len());
    let _ = writeln!(out, "  #0 [initial] {}", describe(&states[0]));
    for (i, (a, s)) in cex.actions.iter().zip(states.iter().skip(1)).enumerate() {
        let marker = match cex.loop_start {
            Some(l) if l == i + 1 => " <- loop entry",
            _ => "",
        };
        let _ = writeln!(out, "  #{} {:?} -> {}{}", i + 1, a, describe(s), marker);
    }
    if cex.loop_start.is_some() {
        let _ = writeln!(out, "  (suffix from loop entry repeats forever)");
    }
    out
}

#[cfg(test)]
mod tests {
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
        assert_eq!(cex.actions, vec!['a', 'a']);
        assert!(cex.loop_start.is_none());
    }

    #[test]
    fn eventually_detects_lasso() {
        let ex = explore(&Loopy, Limits::default(), |s| *s);
        // Not every behavior reaches 2: looping b forever avoids it.
        let v = eventually(&ex, |s| *s == 2);
        let cex = v.counterexample().unwrap();
        assert!(cex.loop_start.is_some(), "must be a lasso");
        // But every behavior reaches 1 (the only choice from 0).
        assert!(eventually(&ex, |s| *s == 1).holds());
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
    fn render_replays_the_trace() {
        let ex = explore(&Loopy, Limits::default(), |s| *s);
        let v = always(&ex, |s| *s != 2);
        let cex = v.counterexample().unwrap();
        let text = render_counterexample(&Loopy, &ex, cex, |s| format!("state={s}"));
        assert!(text.contains("#2"));
        assert!(text.contains("state=2"));
    }
}
