//! The Multicast Route Table (paper §3) with the Anonymous Gossip
//! `nearest_member` extension (paper §4.2).
//!
//! A node holding an entry is (or is becoming) a router of the group's
//! multicast tree. Each next hop carries:
//!
//! * an **enabled** flag — set only by MACT activation, exactly as in
//!   MAODV (inactive entries are join-in-progress bookkeeping);
//! * an **upstream** flag — the next hop toward the group leader;
//! * the **nearest_member** distance — hops from *this node* to the
//!   nearest group member reachable through that next hop. This is the
//!   field Anonymous Gossip's locality-weighted propagation reads;
//! * the value last **advertised** to that next hop, so an update goes
//!   out only when it changed (§4.2) and removing the next hop forgets
//!   what it was told.
//!
//! The propagation rule is split-horizon min-plus-one: the value this
//! node advertises *to* next hop `H` is
//! `1 + min(0 if member, min over other next hops K of nm[K])`,
//! saturating at a configured "infinity". On a tree (acyclic) with
//! split horizon this converges and changes stay local, matching §4.2.

use ag_net::NodeId;

/// One next-hop entry of the multicast route table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NextHop {
    /// The neighbour.
    pub node: NodeId,
    /// Activated by MACT (a real tree edge) vs. pending.
    pub enabled: bool,
    /// `true` if this next hop leads toward the group leader.
    pub upstream: bool,
    /// Hops from this node to the nearest member through this next hop;
    /// saturates at the table's infinity value when unknown.
    pub nearest_member: u8,
    /// The `nearest_member` value last advertised *to* this neighbour;
    /// `None` until the first advertisement.
    advertised: Option<u8>,
}

/// The per-group multicast routing state of one node.
///
/// # Example — the paper's Figure 1, seen from router E
///
/// ```
/// use ag_maodv::mrt::MulticastRouteTable;
/// use ag_net::NodeId;
///
/// let d = NodeId::new(3); // member, one hop away
/// let f = NodeId::new(5); // router toward member H (3 hops)
/// let mut mrt = MulticastRouteTable::new(32);
/// mrt.enable_next_hop(d, true);  // MACT from a member: nearest_member = 1
/// mrt.enable_next_hop(f, false);
/// mrt.set_nearest_member(f, 3);
/// // E is not a member: the value E advertises to D excludes D itself.
/// assert_eq!(mrt.advertised_nearest_member(d, false), 4); // 1 + nm[F]
/// assert_eq!(mrt.advertised_nearest_member(f, false), 2); // 1 + nm[D]
/// ```
#[derive(Debug, Clone, Hash)]
pub struct MulticastRouteTable {
    /// Freshest group sequence number seen.
    pub group_seq: u32,
    /// Hops to the leader (updated from GRPH floods).
    pub hops_to_leader: u8,
    next_hops: Vec<NextHop>,
    infinity: u8,
}

impl MulticastRouteTable {
    /// Creates an empty entry; `infinity` is the saturation value for
    /// `nearest_member` distances.
    pub fn new(infinity: u8) -> Self {
        MulticastRouteTable {
            group_seq: 0,
            hops_to_leader: u8::MAX,
            next_hops: Vec::new(),
            infinity,
        }
    }

    /// Looks up a next hop.
    pub fn next_hop(&self, node: NodeId) -> Option<&NextHop> {
        self.next_hops.iter().find(|h| h.node == node)
    }

    /// Ensures an (inactive) next-hop entry exists and returns it.
    pub fn ensure_next_hop(&mut self, node: NodeId) -> &mut NextHop {
        if let Some(i) = self.next_hops.iter().position(|h| h.node == node) {
            &mut self.next_hops[i]
        } else {
            self.next_hops.push(NextHop {
                node,
                enabled: false,
                upstream: false,
                nearest_member: self.infinity,
                advertised: None,
            });
            self.next_hops.last_mut().expect("just pushed")
        }
    }

    /// Activates the tree edge toward `node` (MACT processing). If the
    /// activating neighbour is itself a member, its distance is 1 (§4.2:
    /// "the nearest router … sets the value of nearest member field to
    /// one").
    pub fn enable_next_hop(&mut self, node: NodeId, neighbor_is_member: bool) {
        let inf = self.infinity;
        let h = self.ensure_next_hop(node);
        h.enabled = true;
        h.nearest_member = if neighbor_is_member { 1 } else { inf };
    }

    /// Marks `node` as the upstream next hop (clearing any previous one).
    pub fn set_upstream(&mut self, node: NodeId) {
        for h in &mut self.next_hops {
            h.upstream = h.node == node;
        }
    }

    /// The upstream next hop, if one is enabled.
    pub fn upstream(&self) -> Option<NodeId> {
        self.next_hops
            .iter()
            .find(|h| h.enabled && h.upstream)
            .map(|h| h.node)
    }

    /// Removes the entry for `node`; returns `true` if it existed.
    pub fn remove_next_hop(&mut self, node: NodeId) -> bool {
        let before = self.next_hops.len();
        self.next_hops.retain(|h| h.node != node);
        before != self.next_hops.len()
    }

    /// Iterator over enabled (activated) next hops, in insertion order.
    pub fn enabled(&self) -> impl Iterator<Item = &NextHop> {
        self.next_hops.iter().filter(|h| h.enabled)
    }

    /// Number of enabled next hops.
    pub fn enabled_count(&self) -> usize {
        self.enabled().count()
    }

    /// All entries including inactive ones.
    pub fn all(&self) -> &[NextHop] {
        &self.next_hops
    }

    /// Records the `nearest_member` distance learned from `node`'s
    /// update. Returns `true` if the stored value changed.
    pub fn set_nearest_member(&mut self, node: NodeId, value: u8) -> bool {
        let inf = self.infinity;
        let Some(i) = self.next_hops.iter().position(|h| h.node == node) else {
            return false;
        };
        let v = value.min(inf);
        if self.next_hops[i].nearest_member != v {
            self.next_hops[i].nearest_member = v;
            true
        } else {
            false
        }
    }

    /// The distance this node advertises to next hop `to`: one more than
    /// the nearest member reachable *not* through `to` (split horizon),
    /// or 1 if this node is itself a member.
    pub fn advertised_nearest_member(&self, to: NodeId, self_is_member: bool) -> u8 {
        let mut best = if self_is_member { 0 } else { self.infinity };
        for h in self.enabled() {
            if h.node != to {
                best = best.min(h.nearest_member);
            }
        }
        best.saturating_add(1).min(self.infinity)
    }

    /// Records and returns the value to advertise to next hop `to` now,
    /// changed or not (the exchange that opens a freshly activated edge).
    pub(crate) fn advertise_to(&mut self, to: NodeId, self_is_member: bool) -> u8 {
        let value = self.advertised_nearest_member(to, self_is_member);
        if let Some(h) = self.next_hops.iter_mut().find(|h| h.node == to) {
            h.advertised = Some(value);
        }
        value
    }

    /// Calls `send(next hop, value)` for every enabled next hop whose
    /// advertisement differs from the one it was last sent, and records
    /// the new value (§4.2: "sent only if different").
    pub(crate) fn advertise_changes(
        &mut self,
        self_is_member: bool,
        mut send: impl FnMut(NodeId, u8),
    ) {
        for i in 0..self.next_hops.len() {
            let h = self.next_hops[i];
            if !h.enabled {
                continue;
            }
            let value = self.advertised_nearest_member(h.node, self_is_member);
            if h.advertised != Some(value) {
                self.next_hops[i].advertised = Some(value);
                send(h.node, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> NodeId {
        NodeId::new(n)
    }

    fn table() -> MulticastRouteTable {
        MulticastRouteTable::new(32)
    }

    #[test]
    fn ensure_is_idempotent_and_inactive() {
        let mut m = table();
        m.ensure_next_hop(id(1));
        m.ensure_next_hop(id(1));
        assert_eq!(m.all().len(), 1);
        assert!(!m.all()[0].enabled);
        assert_eq!(m.all()[0].nearest_member, 32);
        assert_eq!(m.enabled_count(), 0);
    }

    #[test]
    fn enable_sets_member_distance_one() {
        let mut m = table();
        m.enable_next_hop(id(1), true);
        m.enable_next_hop(id(2), false);
        assert_eq!(m.next_hop(id(1)).unwrap().nearest_member, 1);
        assert_eq!(m.next_hop(id(2)).unwrap().nearest_member, 32);
        assert_eq!(m.enabled_count(), 2);
    }

    #[test]
    fn upstream_is_exclusive() {
        let mut m = table();
        m.enable_next_hop(id(1), false);
        m.enable_next_hop(id(2), false);
        m.set_upstream(id(1));
        assert_eq!(m.upstream(), Some(id(1)));
        m.set_upstream(id(2));
        assert_eq!(m.upstream(), Some(id(2)));
        assert!(!m.next_hop(id(1)).unwrap().upstream);
    }

    #[test]
    fn remove_forgets_the_entry() {
        let mut m = table();
        m.enable_next_hop(id(1), false);
        m.enable_next_hop(id(2), false);
        assert!(m.remove_next_hop(id(1)));
        assert!(!m.remove_next_hop(id(1)));
        assert_eq!(m.enabled_count(), 1);
        // What a next hop was told goes with it: told once, nothing to
        // resend; removed and re-enabled, it is told again.
        assert_eq!(m.advertise_to(id(2), true), 1);
        m.advertise_changes(true, |to, _| panic!("unchanged, yet resent to {to:?}"));
        m.remove_next_hop(id(2));
        m.enable_next_hop(id(2), false);
        let mut sent = Vec::new();
        m.advertise_changes(true, |to, value| sent.push((to, value)));
        assert_eq!(sent, [(id(2), 1)]);
    }

    /// The paper's Figure 1: members {A,C,D,H,I,J}, routers {B,E,F,G}.
    /// Checking router E (next hops D, F, B in our reconstruction) and
    /// the worked example for node D from §4.2.
    #[test]
    fn figure_one_router_e() {
        let (b, d, f) = (id(1), id(3), id(5));
        let mut e = table();
        e.enable_next_hop(d, true); // D is a member: distance 1
        e.enable_next_hop(f, false);
        e.enable_next_hop(b, false);
        e.set_nearest_member(f, 3); // E→F→G→H
        e.set_nearest_member(b, 2); // E→B→A
                                    // Split horizon: what E tells D excludes D.
        assert_eq!(e.advertised_nearest_member(d, false), 3); // 1 + min(3, 2)
        assert_eq!(e.advertised_nearest_member(f, false), 2); // 1 + min(1, 2)
        assert_eq!(e.advertised_nearest_member(b, false), 2); // 1 + min(1, 3)
    }

    /// §4.2's worked example: D has next hops {B, C, E} with values
    /// {b, c, e}; D sends 1+min(c,e) to B, 1+min(b,e) to C, 1+min(b,c)
    /// to E. (Generic form, D not a member.)
    #[test]
    fn section_4_2_update_rule() {
        let (b, c, e) = (id(1), id(2), id(4));
        let mut d = table();
        d.enable_next_hop(b, false);
        d.enable_next_hop(c, false);
        d.enable_next_hop(e, false);
        d.set_nearest_member(b, 4);
        d.set_nearest_member(c, 2);
        d.set_nearest_member(e, 7);
        let get = |n: NodeId| d.advertised_nearest_member(n, false);
        assert_eq!(get(b), 1 + 2); // 1 + min(c, e) = 1 + min(2, 7)
        assert_eq!(get(c), 1 + 4); // 1 + min(b, e) = 1 + min(4, 7)
        assert_eq!(get(e), 1 + 2); // 1 + min(b, c) = 1 + min(4, 2)
    }

    #[test]
    fn member_advertises_distance_one() {
        let mut m = table();
        m.enable_next_hop(id(1), false);
        assert_eq!(m.advertised_nearest_member(id(1), true), 1);
    }

    #[test]
    fn advertisement_saturates_at_infinity() {
        let mut m = table();
        m.enable_next_hop(id(1), false);
        // Only next hop is the excluded one, node not a member: infinity.
        assert_eq!(m.advertised_nearest_member(id(1), false), 32);
        // Values already at infinity stay there.
        m.enable_next_hop(id(2), false);
        assert_eq!(m.advertised_nearest_member(id(1), false), 32);
    }

    #[test]
    fn set_nearest_member_reports_changes() {
        let mut m = table();
        m.enable_next_hop(id(1), false);
        assert!(m.set_nearest_member(id(1), 5));
        assert!(!m.set_nearest_member(id(1), 5));
        assert!(m.set_nearest_member(id(1), 4));
        // Unknown next hop: no-op.
        assert!(!m.set_nearest_member(id(9), 1));
        // Values clamp to infinity.
        assert!(m.set_nearest_member(id(1), 200));
        assert_eq!(m.next_hop(id(1)).unwrap().nearest_member, 32);
    }

    /// Convergence sanity for the split-horizon propagation on a path
    /// A(member) — B — C — D: simulate rounds of exchanging
    /// advertisements until stable, then check the fixpoint.
    #[test]
    fn propagation_converges_on_a_path() {
        let ids: Vec<NodeId> = (0..4).map(id).collect();
        let member = [true, false, false, false];
        let mut tables: Vec<MulticastRouteTable> = (0..4).map(|_| table()).collect();
        for i in 0..4usize {
            if i > 0 {
                tables[i].enable_next_hop(ids[i - 1], member[i - 1]);
            }
            if i < 3 {
                tables[i].enable_next_hop(ids[i + 1], member[i + 1]);
            }
        }
        // Exchange advertisements until no table changes (≤ diameter rounds).
        for _ in 0..6 {
            let mut changed = false;
            for i in 0..4usize {
                let mut sent = Vec::new();
                tables[i].advertise_changes(member[i], |to, val| sent.push((to, val)));
                for (to, val) in sent {
                    changed |= tables[to.index()].set_nearest_member(ids[i], val);
                }
            }
            if !changed {
                break;
            }
        }
        // D's distance to the member A through C must be 3.
        assert_eq!(tables[3].next_hop(ids[2]).unwrap().nearest_member, 3);
        assert_eq!(tables[2].next_hop(ids[1]).unwrap().nearest_member, 2);
        assert_eq!(tables[1].next_hop(ids[0]).unwrap().nearest_member, 1);
        // Nothing claims a member in the A-ward direction beyond A itself.
        assert_eq!(tables[0].next_hop(ids[1]).unwrap().nearest_member, 32);
    }
}
