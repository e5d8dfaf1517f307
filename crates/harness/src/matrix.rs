//! The cross-protocol stress matrix: {gossip, bare MAODV, ODMRP} ×
//! {loss model, churn level, speed}.
//!
//! The paper's evaluation runs an ideal channel; its claim is that
//! anonymous gossip keeps multicast delivery high *exactly when the
//! network turns hostile*. This module makes the hostility systematic:
//! a [`MatrixSpec`] crosses every protocol stack with every requested
//! loss model, churn level and speed, runs each cell over independent
//! seeds on the [`crate::parallel`] worker pool, and reduces everything
//! to one comparison table ([`crate::report::render_matrix`]).
//!
//! Like every harness sweep, the output is **thread-count invariant**:
//! per-seed results merge in seed order, and cells run in a fixed
//! (loss, churn, speed, protocol) order.
//!
//! # Example
//!
//! ```
//! use ag_harness::matrix::MatrixSpec;
//! let spec = MatrixSpec::paper_stress(10, 600).with_speeds(vec![0.2]);
//! assert_eq!(spec.cell_count(), 3 * 3 * 3); // protocols × losses × churns
//! assert!(spec.validate().is_ok());
//! // spec.run(par) executes all 27 cells × 10 seeds (see examples/stress_matrix.rs).
//! ```

use ag_net::{ChurnParams, ReceptionModel};
use ag_sim::stats::Summary;
use ag_sim::ConfigError;

use crate::experiment::pool;
use crate::parallel::Parallelism;
use crate::{ProtocolKind, Scenario};

/// A labelled loss level (reception model) of the matrix.
#[derive(Debug, Clone)]
pub struct LossLevel {
    /// Human-readable axis label, e.g. `"per0.4"`.
    pub label: String,
    /// The reception model this level applies.
    pub model: ReceptionModel,
}

/// A labelled churn level of the matrix.
#[derive(Debug, Clone)]
pub struct ChurnLevel {
    /// Human-readable axis label, e.g. `"up120/down15"`.
    pub label: String,
    /// The churn parameters, `None` for always-on nodes.
    pub churn: Option<ChurnParams>,
}

/// The full cross-product specification of a stress run.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// The fixed-parameter base scenario (speed is overridden per cell).
    pub base: Scenario,
    /// Protocol stacks to compare (the cell-level inner axis).
    pub protocols: Vec<ProtocolKind>,
    /// Loss levels (outermost axis).
    pub losses: Vec<LossLevel>,
    /// Churn levels.
    pub churns: Vec<ChurnLevel>,
    /// Maximum node speeds, m/s.
    pub speeds: Vec<f64>,
    /// Seeds per cell.
    pub seeds: u64,
}

/// One cell of the matrix: a protocol's pooled delivery at one stress
/// configuration.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// The protocol stack.
    pub protocol: ProtocolKind,
    /// Loss-level label.
    pub loss: String,
    /// Churn-level label.
    pub churn: String,
    /// Maximum speed of the cell, m/s.
    pub max_speed: f64,
    /// Packets the source sent.
    pub sent: u64,
    /// Per-receiver packet counts pooled over seeds.
    pub received: Summary,
}

impl MatrixCell {
    /// Mean delivery across receivers as a percentage of packets sent.
    pub fn delivery_percent(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        100.0 * self.received.mean() / self.sent as f64
    }
}

/// The reduced outcome of a matrix run, in (loss, churn, speed,
/// protocol) row-major order.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Protocol order of the inner axis (one table column each).
    pub protocols: Vec<ProtocolKind>,
    /// All cells, protocols fastest-varying.
    pub cells: Vec<MatrixCell>,
}

impl MatrixSpec {
    /// The default stress matrix: the paper's 40-node environment
    /// crossed with three loss levels (ideal, distance-graded PER,
    /// log-normal shadowing), three churn levels (none, gentle,
    /// harsh) and two speeds, for all three protocol stacks.
    pub fn paper_stress(seeds: u64, duration_secs: u64) -> Self {
        MatrixSpec {
            base: Scenario::paper(40, 75.0, 0.2).with_duration_secs(duration_secs),
            protocols: vec![
                ProtocolKind::Gossip,
                ProtocolKind::Maodv,
                ProtocolKind::Odmrp,
            ],
            losses: vec![
                LossLevel {
                    label: "ideal".into(),
                    model: ReceptionModel::Ideal,
                },
                LossLevel {
                    label: "per0.5".into(),
                    model: ReceptionModel::DistanceGraded { edge_per: 0.5 },
                },
                LossLevel {
                    label: "shadow8dB".into(),
                    model: ReceptionModel::Shadowing {
                        sigma_db: 8.0,
                        path_loss_exp: 3.0,
                    },
                },
            ],
            churns: vec![
                ChurnLevel {
                    label: "none".into(),
                    churn: None,
                },
                ChurnLevel {
                    label: "up120/dn15".into(),
                    churn: Some(ChurnParams::new(120.0, 15.0)),
                },
                ChurnLevel {
                    label: "up40/dn20".into(),
                    churn: Some(ChurnParams::new(40.0, 20.0)),
                },
            ],
            speeds: vec![0.2, 2.0],
            seeds,
        }
    }

    /// Returns a copy with a different speed axis.
    pub fn with_speeds(mut self, speeds: Vec<f64>) -> Self {
        self.speeds = speeds;
        self
    }

    /// Number of cells the matrix will run.
    pub fn cell_count(&self) -> usize {
        self.protocols.len() * self.losses.len() * self.churns.len() * self.speeds.len()
    }

    /// Checks that no axis is empty and that every cell's scenario passes
    /// [`Scenario::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let cells = self.cell_count();
        ConfigError::check(cells >= 1, "MatrixSpec.cell_count()", cells, "at least 1")?;
        self.configs().try_for_each(|(.., sc)| sc.validate())
    }

    /// Each (loss, churn, speed) configuration with its scenario, in
    /// run order.
    fn configs(&self) -> impl Iterator<Item = (&LossLevel, &ChurnLevel, f64, Scenario)> {
        self.losses.iter().flat_map(move |loss| {
            self.churns.iter().flat_map(move |churn| {
                self.speeds.iter().map(move |&speed| {
                    let mut sc = self.base.clone().with_reception(loss.model);
                    sc.max_speed = speed;
                    sc.churn = churn.churn;
                    (loss, churn, speed, sc)
                })
            })
        })
    }

    /// Runs the matrix on `par` worker threads, once it passes
    /// [`MatrixSpec::validate`] (seeds of one cell run concurrently;
    /// cells run in order, so the report is identical for every thread
    /// count).
    pub fn run(&self, par: Parallelism) -> Result<MatrixReport, ConfigError> {
        self.validate()?;
        let mut cells = Vec::with_capacity(self.cell_count());
        for (loss, churn, speed, sc) in self.configs() {
            for &kind in &self.protocols {
                let pooled = pool(&sc, kind, self.seeds, par);
                cells.push(MatrixCell {
                    protocol: kind,
                    loss: loss.label.clone(),
                    churn: churn.label.clone(),
                    max_speed: speed,
                    sent: pooled.sent,
                    received: pooled.received,
                });
            }
        }
        Ok(MatrixReport {
            protocols: self.protocols.clone(),
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> MatrixSpec {
        let mut spec = MatrixSpec::paper_stress(1, 30).with_speeds(vec![0.5]);
        spec.base = Scenario::paper(8, 90.0, 0.5).with_duration_secs(30);
        spec.losses.truncate(2);
        spec.churns.truncate(2);
        spec
    }

    #[test]
    fn matrix_covers_the_full_cross_product() {
        let spec = tiny_spec();
        assert_eq!(spec.cell_count(), 3 * 2 * 2);
        let report = spec.run(Parallelism::serial()).expect("valid spec");
        assert_eq!(report.cells.len(), spec.cell_count());
        // Protocols vary fastest; every (loss, churn) pair appears.
        assert_eq!(report.cells[0].protocol, ProtocolKind::Gossip);
        assert_eq!(report.cells[1].protocol, ProtocolKind::Maodv);
        assert_eq!(report.cells[2].protocol, ProtocolKind::Odmrp);
        for loss in &spec.losses {
            for churn in &spec.churns {
                assert!(report
                    .cells
                    .iter()
                    .any(|c| c.loss == loss.label && c.churn == churn.label));
            }
        }
        for c in &report.cells {
            assert!(c.sent > 0);
            assert!(
                (0.0..=100.0 + 1e-9).contains(&c.delivery_percent()),
                "{c:?}"
            );
        }
    }

    /// A bad churn level in the last cells, or an empty axis, fails the
    /// matrix before its first cell runs.
    #[test]
    fn a_bad_cell_fails_before_any_cell_runs() {
        let mut spec = tiny_spec();
        spec.churns.push(ChurnLevel {
            label: "bad".into(),
            churn: Some(ChurnParams::new(0.0, 1.0)),
        });
        let err = spec.run(Parallelism::serial()).unwrap_err();
        assert_eq!(err.field, "ChurnParams.mean_up_secs");
        let err = tiny_spec().with_speeds(vec![]).validate().unwrap_err();
        assert_eq!(err.field, "MatrixSpec.cell_count()");
    }

    #[test]
    fn matrix_is_thread_count_invariant() {
        let spec = tiny_spec();
        let one = spec.run(Parallelism::new(1)).expect("valid spec");
        let four = spec.run(Parallelism::new(4)).expect("valid spec");
        assert_eq!(format!("{one:?}"), format!("{four:?}"));
    }
}
