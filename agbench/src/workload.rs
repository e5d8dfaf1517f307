//! The four workloads: what runs, on which seeds, on how many threads.
//!
//! Every simulation seed derives from the `--seed` argument, so one
//! seed always produces the same job table and two seeds produce
//! independent ones. Node counts and (outside `--quick`) horizons are
//! fixed; only the seeds vary.

use ag_harness::{ProtocolKind, ReceptionModel, Scenario};
use ag_sim::rng::{SeedSplitter, StreamKind};

use crate::calib::Yardstick;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5 environment, ideal channel, fanned over `k`
    /// worker threads.
    PaperSweep,
    /// The same field under lossy channels and churn, three protocols,
    /// serial.
    StressHarsh,
    /// 20,000 nodes, full gossip stack, one serial engine.
    City20k,
    /// [`Workload::City20k`] with the tile-sharded layer on `k` threads.
    City20kNt,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::StressHarsh,
        Workload::City20k,
        Workload::City20kNt,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::StressHarsh => "stress_harsh",
            Workload::City20k => "city_20k",
            Workload::City20kNt => "city_20k_nt",
        }
    }

    /// Why the workload is in the benchmark (the `why` of
    /// `BENCHMARK.json`; the README gives the long form).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperSweep => {
                "Figs 2-5 regime: 40 nodes x 600 s, ideal channel, 24 jobs over k threads; cache-resident, so maodv/core handlers, ProtoCtx traffic and harness fan-out dominate"
            }
            Workload::StressHarsh => {
                "same field, serial: lossy reception, churn, MAC retries and ODMRP - the paths paper_sweep never takes, so a gain bought at their expense shows here"
            }
            Workload::City20k => {
                "20,000 nodes x 5 s on one serial engine: working set far beyond the LLC, grid/air-index and cold protocol tables dominate; the only regime where set-up and RSS are large"
            }
            Workload::City20kNt => {
                "city_20k with set_threads(k): the only workload where the tile-sharded layer engages; every change not aimed at that layer predicts the same move as city_20k"
            }
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the two 20,000-node single-engine workloads.
    pub fn is_city(self) -> bool {
        matches!(self, Workload::City20k | Workload::City20kNt)
    }

    /// The frozen loop that shares the workload's bottleneck (see
    /// [`crate::calib`]): cache-resident compute at 40 nodes, L3 latency
    /// at 20,000.
    pub fn yardstick(self) -> Yardstick {
        if self.is_city() {
            Yardstick::Chase
        } else {
            Yardstick::Heap
        }
    }

    /// Worker threads the workload uses — harness workers on
    /// `paper_sweep`, engine tiles on `city_20k_nt` — given the pool
    /// size `k`. Also the value `AG_THREADS` is pinned to, because the
    /// harness's own builder arms every engine from that variable.
    pub fn threads(self, k: usize) -> usize {
        match self {
            Workload::PaperSweep | Workload::City20kNt => k,
            Workload::StressHarsh | Workload::City20k => 1,
        }
    }

    /// The job table for `seed`. `quick` shrinks horizons (and the city
    /// population) about tenfold for smoke tests; quick numbers are
    /// never comparable with full ones.
    pub fn jobs(self, seed: u64, quick: bool) -> Vec<Job> {
        let splitter = SeedSplitter::new(seed);
        // Gossip and bare-MAODV jobs of one cell share their simulation
        // seeds, as the paper's paired series do.
        let sim_seed = |i: u64| splitter.derive(StreamKind::Scenario, i);
        let shorten = |sc: Scenario| {
            if quick {
                sc.with_duration_secs(60)
            } else {
                sc
            }
        };
        let mut jobs = Vec::new();
        match self {
            Workload::PaperSweep => {
                for range_m in [45.0, 65.0, 85.0] {
                    for max_speed in [0.2, 2.0] {
                        for kind in [ProtocolKind::Gossip, ProtocolKind::Maodv] {
                            for i in 0..2 {
                                jobs.push(Job {
                                    sc: shorten(Scenario::paper(40, range_m, max_speed)),
                                    kind,
                                    seed: sim_seed(i),
                                });
                            }
                        }
                    }
                }
            }
            Workload::StressHarsh => {
                let channels = [
                    ReceptionModel::DistanceGraded { edge_per: 0.5 },
                    ReceptionModel::Shadowing {
                        sigma_db: 8.0,
                        path_loss_exp: 3.0,
                    },
                ];
                for kind in [
                    ProtocolKind::Gossip,
                    ProtocolKind::Maodv,
                    ProtocolKind::Odmrp,
                ] {
                    for channel in channels {
                        for (up, down) in [(120.0, 15.0), (40.0, 20.0)] {
                            for i in 0..2 {
                                jobs.push(Job {
                                    sc: shorten(
                                        Scenario::paper(40, 75.0, 2.0)
                                            .with_reception(channel)
                                            .with_churn(up, down),
                                    ),
                                    kind,
                                    seed: sim_seed(i),
                                });
                            }
                        }
                    }
                }
            }
            Workload::City20k | Workload::City20kNt => {
                let sc = if quick {
                    Scenario::city_scale(2_000).with_duration_secs(2)
                } else {
                    Scenario::city_scale(20_000).with_duration_secs(5)
                };
                jobs.push(Job {
                    sc,
                    kind: ProtocolKind::Gossip,
                    seed: sim_seed(0),
                });
            }
        }
        jobs
    }
}

/// One simulation job — the benchmark's unit of work ("operation").
#[derive(Debug, Clone)]
pub struct Job {
    /// The scenario.
    pub sc: Scenario,
    /// The protocol stack.
    pub kind: ProtocolKind,
    /// The simulation's master seed.
    pub seed: u64,
}

/// The worker-pool size: `min(nproc, 4)`.
pub fn pool_size() -> usize {
    host_cores().min(4)
}

/// Cores the host offers this process (1 if unknown).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_tables_have_the_documented_shape() {
        let paper = Workload::PaperSweep.jobs(7, false);
        assert_eq!(paper.len(), 24);
        assert!(paper.iter().all(|j| j.sc.nodes == 40
            && j.sc.sim_time == ag_sim::SimTime::from_secs(600)
            && j.sc.reception.is_ideal()
            && j.sc.churn.is_none()));
        let harsh = Workload::StressHarsh.jobs(7, false);
        assert_eq!(harsh.len(), 24);
        assert!(harsh
            .iter()
            .all(|j| !j.sc.reception.is_ideal() && j.sc.churn.is_some()));
        assert_eq!(
            harsh
                .iter()
                .filter(|j| j.kind == ProtocolKind::Odmrp)
                .count(),
            8
        );
        for w in [Workload::City20k, Workload::City20kNt] {
            let city = w.jobs(7, false);
            assert_eq!(city.len(), 1);
            assert_eq!(city[0].sc.nodes, 20_000);
            assert_eq!(city[0].sc.sim_time, ag_sim::SimTime::from_secs(5));
        }
        // The two city workloads run the identical simulation.
        assert_eq!(
            Workload::City20k.jobs(7, false)[0].seed,
            Workload::City20kNt.jobs(7, false)[0].seed
        );
    }

    #[test]
    fn seeds_derive_from_the_argument() {
        let a = Workload::PaperSweep.jobs(1, false);
        let b = Workload::PaperSweep.jobs(1, false);
        let c = Workload::PaperSweep.jobs(2, false);
        let seeds = |jobs: &[Job]| jobs.iter().map(|j| j.seed).collect::<Vec<_>>();
        assert_eq!(seeds(&a), seeds(&b));
        assert_ne!(seeds(&a), seeds(&c));
        // Paired series: the Gossip and Maodv jobs of a cell share seeds.
        assert_eq!(a[0].seed, a[2].seed);
        assert_eq!(a[0].kind, ProtocolKind::Gossip);
        assert_eq!(a[2].kind, ProtocolKind::Maodv);
    }

    #[test]
    fn names_round_trip_and_threads_follow_the_table() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::PaperSweep.threads(3), 3);
        assert_eq!(Workload::StressHarsh.threads(3), 1);
        assert_eq!(Workload::City20k.threads(3), 1);
        assert_eq!(Workload::City20kNt.threads(3), 3);
    }

    #[test]
    fn quick_mode_shrinks_horizons() {
        assert!(Workload::PaperSweep
            .jobs(1, true)
            .iter()
            .all(|j| j.sc.sim_time == ag_sim::SimTime::from_secs(60)));
        assert_eq!(Workload::City20k.jobs(1, true)[0].sc.nodes, 2_000);
    }
}
