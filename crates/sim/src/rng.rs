//! Reproducible random-number streams.
//!
//! Every run of the simulator must be a pure function of `(scenario, seed)`.
//! A single shared RNG would make node A's randomness depend on how many
//! draws node B happened to make, so instead a 64-bit master seed is split
//! into *independent streams*, one per (component, index) pair, using
//! SplitMix64 as a mixing function. Each stream is a [`rand::rngs::SmallRng`]
//! seeded from the mixed value.
//!
//! # Example
//!
//! ```
//! use ag_sim::rng::SeedSplitter;
//! use rand::Rng;
//!
//! let splitter = SeedSplitter::new(42);
//! let mut node3 = splitter.stream(ag_sim::rng::StreamKind::Node, 3);
//! let mut node4 = splitter.stream(ag_sim::rng::StreamKind::Node, 4);
//! // Independent streams: different sequences…
//! let a: u64 = node3.random();
//! let b: u64 = node4.random();
//! assert_ne!(a, b);
//! // …but reproducible ones.
//! let mut again = splitter.stream(ag_sim::rng::StreamKind::Node, 3);
//! assert_eq!(a, again.random::<u64>());
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The component families that draw randomness in this workspace.
///
/// Adding a new variant never disturbs existing streams because the variant
/// tag is mixed into the seed, not drawn from a shared sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StreamKind {
    /// Per-node protocol randomness (gossip coin flips, jitter…).
    Node,
    /// Per-node mobility (waypoints, speeds, pauses).
    Mobility,
    /// Per-node MAC backoff.
    Mac,
    /// Initial placement of nodes in the field.
    Placement,
    /// Traffic generation (source jitter, payload fill).
    Traffic,
    /// Anything scenario-level (member selection etc.).
    Scenario,
    /// Channel realism: the keyed hash lattice behind the non-ideal
    /// reception models (per-packet error draws, per-link shadowing).
    Channel,
    /// Per-node radio churn (fail/recover interval draws).
    Churn,
}

impl StreamKind {
    fn tag(self) -> u64 {
        match self {
            StreamKind::Node => 0x01,
            StreamKind::Mobility => 0x02,
            StreamKind::Mac => 0x03,
            StreamKind::Placement => 0x04,
            StreamKind::Traffic => 0x05,
            StreamKind::Scenario => 0x06,
            StreamKind::Channel => 0x07,
            StreamKind::Churn => 0x08,
        }
    }
}

/// SplitMix64 step: a strong 64-bit mixing function (Steele et al., 2014).
///
/// Used to derive independent stream seeds from `(master, tag, index)`.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Splits one master seed into arbitrarily many independent named streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSplitter {
    master: u64,
}

impl SeedSplitter {
    /// Creates a splitter for `master` seed.
    pub fn new(master: u64) -> Self {
        SeedSplitter { master }
    }

    /// The master seed this splitter was built from.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derives the 64-bit seed for stream `(kind, index)`.
    pub fn derive(&self, kind: StreamKind, index: u64) -> u64 {
        // Two rounds of splitmix over a combination that keeps
        // (master, tag, index) injective enough for our stream counts.
        let mixed = splitmix64(
            self.master ^ splitmix64(kind.tag().wrapping_mul(0xA076_1D64_78BD_642F) ^ index),
        );
        splitmix64(mixed)
    }

    /// Creates the RNG for stream `(kind, index)`.
    pub fn stream(&self, kind: StreamKind, index: u64) -> SmallRng {
        // ag-lint: allow(stream-discipline) -- the one StreamKind-keyed constructor
        SmallRng::seed_from_u64(self.derive(kind, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::DetHashSet;
    use rand::Rng;

    #[test]
    fn streams_are_reproducible() {
        let s = SeedSplitter::new(7);
        let a: Vec<u64> = s
            .stream(StreamKind::Mac, 9)
            .random_iter()
            .take(16)
            .collect();
        let b: Vec<u64> = s
            .stream(StreamKind::Mac, 9)
            .random_iter()
            .take(16)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn streams_differ_by_index_and_kind() {
        let s = SeedSplitter::new(7);
        let mut seeds = DetHashSet::default();
        for kind in [
            StreamKind::Node,
            StreamKind::Mobility,
            StreamKind::Mac,
            StreamKind::Placement,
            StreamKind::Traffic,
            StreamKind::Scenario,
            StreamKind::Channel,
            StreamKind::Churn,
        ] {
            for idx in 0..200 {
                assert!(
                    seeds.insert(s.derive(kind, idx)),
                    "collision at {kind:?}/{idx}"
                );
            }
        }
    }

    #[test]
    fn master_seed_changes_everything() {
        let a = SeedSplitter::new(1).derive(StreamKind::Node, 0);
        let b = SeedSplitter::new(2).derive(StreamKind::Node, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference value for seed 0 from the SplitMix64 paper/implementations.
        assert_eq!(splitmix64(0), 0xE220A8397B1DCDAF);
    }

    #[test]
    fn stream_output_in_range() {
        let s = SeedSplitter::new(99);
        let mut r = s.stream(StreamKind::Traffic, 0);
        for _ in 0..1000 {
            let x: f64 = r.random_range(0.0..1.0);
            assert!((0.0..1.0).contains(&x));
        }
    }
}
