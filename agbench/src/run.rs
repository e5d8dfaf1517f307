//! Runs one workload and assembles its report.
//!
//! A plain run (`--trace 0`) measures the end-to-end metrics with no
//! tracing anywhere: timed repeats until the `--seconds` budget is
//! spent, never fewer than [`MIN_REPEATS`], after one untimed warm-up
//! pass on the 40-node workloads. A traced run (`--trace 1`) alternates
//! plain and traced passes, runs the isolated drivers, and reports the
//! per-layer metrics; its difference from the plain passes is the
//! tracing overhead. Every pass re-checks the simulation's outputs, and
//! every timed segment is calibrated against the host-speed yardstick
//! that brackets it ([`crate::calib`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ag_core::AnonymousGossip;
use ag_harness::{run_counting, run_seeds, Parallelism, ProtocolKind, RunResult, RunStats};
use ag_maodv::MaodvProtocol;
use ag_odmrp::OdmrpProtocol;
use ag_sim::SimTime;

use crate::alloc::thread_allocs;
use crate::builder::{build, combine_digests, result_digest, Built, Stack};
use crate::calib::{bracket, factor, Segment, Yardstick};
use crate::clock::{now, status_kb, timed};
use crate::drivers;
use crate::names::PER_LAYER;
use crate::stats::{median, ratio, Quartiles};
use crate::trace::{record_job, span, Classify, CtxOp, JobTrace, Kind, Layer, Span, Timed};
use crate::workload::{host_cores, pool_size, Job, Workload};

/// Fewest timed repeats a plain run reports a median over, whatever the
/// `--seconds` budget (a `city_20k_nt` repeat is ~9 s, so the budget
/// alone would stop after one).
pub const MIN_REPEATS: usize = 2;

/// Set-up samples taken beside the repeats' own: on the 40-node
/// workloads each is [`TABLE_BUILDS`] builds of the whole job table, on
/// `city_*` one build of the 20,000-node engine.
const EXTRA_SETUPS: usize = 12;
/// See [`EXTRA_SETUPS`].
const TABLE_BUILDS: usize = 10;

/// Slices a city run's `run_until` is cut into, each bracketed by the
/// yardstick. Repeated `run_until` calls with increasing times are the
/// engine's documented use and change no result.
const CITY_SLICES: u64 = 20;

/// Seconds of a traced run's budget left to the isolated drivers.
const DRIVERS_S: f64 = 6.0;

/// Process age beyond which no further pass (nor the isolated drivers)
/// starts, so that a run still ends inside the contract's 180 s when
/// the host is several times slower than usual — seen on the sandbox:
/// for a quarter of an hour every pass took 4–6× its normal time.
const HARD_CAP_S: f64 = 90.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The seed every simulation seed derives from.
    pub seed: u64,
    /// Seconds of timed repeats to aim for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or plain run (end-to-end metrics).
    pub trace: bool,
    /// Shrunken horizons for smoke tests.
    pub quick: bool,
    /// Time every `stride`-th call of each handler kind; `None` picks
    /// [`DEFAULT_STRIDE`].
    pub stride: Option<u64>,
}

/// The default sampling stride. Timing every handler call and every
/// context call it makes costs 79 % on `paper_sweep` (36 % on
/// `city_20k`), stride 4 still 28–33 %, stride 8 14–24 %; the wrappers'
/// untimed bookkeeping alone is ~13 %. Stride 16 keeps all four
/// workloads clear of the 25 % overhead allowance.
pub const DEFAULT_STRIDE: u64 = 16;

/// One output check and whether it held on every pass.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short name.
    pub name: &'static str,
    /// Held everywhere it was evaluated.
    pub ok: bool,
    /// First violation, or what was compared.
    pub detail: String,
}

/// Everything one invocation measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The options the run was made with.
    pub opts: Options,
    /// Worker-pool size `min(nproc, 4)`.
    pub k: usize,
    /// Cores the host offers.
    pub nproc: usize,
    /// Threads this workload used (and `AG_THREADS` was pinned to).
    pub threads: usize,
    /// The sampling stride of traced passes.
    pub stride: u64,
    /// Timed plain repeats.
    pub repeats: usize,
    /// Simulation jobs attempted, over every pass.
    pub attempted: u64,
    /// Jobs that panicked.
    pub failed: u64,
    /// The output checks.
    pub checks: Vec<Check>,
    /// Digest of the workload's results (job digests folded in job
    /// order); equal across repeats, thread counts and tracing.
    pub digest: u64,
    /// End-to-end metrics with their within-run quartiles (plain runs),
    /// timings calibrated.
    pub end_to_end: Vec<(&'static str, Quartiles)>,
    /// The same timings uncalibrated — raw host seconds, for reading,
    /// never for comparing.
    pub raw: Vec<(&'static str, Quartiles)>,
    /// Per-layer metrics (traced runs); a metric that does not apply to
    /// the workload reads 0.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Every reading of the workload's yardstick around its passes and
    /// builds: median, quartiles and, through `min` and
    /// [`Report::host_ref_max_ns`], the range — so a host that slowed
    /// mid-run is visible instead of being read as a regression.
    pub host_ref_ns: Quartiles,
    /// The slowest yardstick reading of the run.
    pub host_ref_max_ns: f64,
    /// The merged trace of the last traced pass, for the trace file.
    pub trace: Option<JobTrace>,
}

impl Report {
    /// True when no job failed and every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) if !c.ok => {}
            Some(c) => {
                if !ok {
                    c.ok = false;
                    c.detail = detail();
                }
            }
            None => self.checks.push(Check {
                name,
                ok,
                detail: detail(),
            }),
        }
    }

    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`]: the run may report no
    /// metric `BENCHMARK.json` does not list.
    fn set(&mut self, name: &str, value: f64) {
        let metric = crate::names::per_layer(name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
        self.per_layer.insert(metric.name, value);
    }
}

/// The outcome of one job of one pass.
struct JobOut {
    digest: u64,
    events: u64,
    /// The job's duration and the yardstick around it.
    seg: Segment,
    result: RunResult,
    /// Replica-built engines only (the harness's own runner exposes
    /// none of the three).
    scheduled: u64,
    run_allocs: u64,
    par_hits: u64,
}

/// One pass over the workload's job table.
struct Pass {
    /// Seconds the pass took, yardstick slices included: what the
    /// `--seconds` budget is charged.
    elapsed: f64,
    /// Raw seconds of the timed region, yardstick slices removed.
    wall_raw: f64,
    /// `wall_raw` calibrated for host speed.
    wall: f64,
    jobs: Vec<Option<JobOut>>,
    /// Merged trace, durations calibrated (traced passes).
    trace: JobTrace,
    /// Every yardstick reading taken during the pass.
    refs: Vec<f64>,
    /// `city_*`: the engine build that preceded the run.
    build: Option<CityBuild>,
}

/// What a city pass learned while building its engine.
struct CityBuild {
    setup: Segment,
    /// VmRSS growth across the build, bytes.
    rss_bytes: f64,
}

macro_rules! for_stack {
    ($kind:expr, $S:ident => $body:expr) => {
        match $kind {
            ProtocolKind::Gossip => {
                type $S = AnonymousGossip;
                $body
            }
            ProtocolKind::Maodv => {
                type $S = MaodvProtocol;
                $body
            }
            ProtocolKind::Odmrp => {
                type $S = OdmrpProtocol;
                $body
            }
        }
    };
}

/// What the benchmark reads off a finished engine.
fn job_out<S: Stack>(built: &mut Built<S>, job: &Job, seg: Segment, run_allocs: u64) -> JobOut {
    let result = built.reduce(&job.sc, job.seed);
    JobOut {
        digest: result_digest(&result),
        events: built.engine.events_processed(),
        seg,
        result,
        scheduled: built.engine.events_scheduled(),
        run_allocs,
        par_hits: built.engine.parallel_hits(),
    }
}

/// Builds, runs and reduces one 40-node job with every handler traced.
fn traced_job<S: Stack + Classify>(
    index: u32,
    job: &Job,
    threads: usize,
    stride: u64,
    yardstick: Yardstick,
) -> (JobOut, JobTrace) {
    let ((mut out, trace), seg) = bracket(yardstick, || {
        record_job(index, stride, || {
            let mut built: Built<Timed<S>> =
                span(Span::Setup, || build(&job.sc, job.seed, threads));
            let a0 = thread_allocs();
            span(Span::Run, || built.run(&job.sc));
            let run_allocs = thread_allocs() - a0;
            span(Span::Fold, || {
                job_out(&mut built, job, Segment::default(), run_allocs)
            })
        })
    });
    out.seg = seg;
    (out, trace.scaled(seg.factor))
}

/// One pass over a 40-node job table on `threads` harness workers:
/// through `ag_harness::run_counting` when `stride` is `None` (what a
/// user runs), through the replica builder and [`Timed`] otherwise.
fn small_pass(jobs: &[Job], threads: usize, stride: Option<u64>, yardstick: Yardstick) -> Pass {
    let (outs, elapsed) = timed(|| {
        run_seeds(jobs.len() as u64, Parallelism::new(threads), |j| {
            let job = &jobs[j as usize];
            catch_unwind(AssertUnwindSafe(|| match stride {
                None => {
                    let ((result, events), seg) =
                        bracket(yardstick, || run_counting(&job.sc, job.seed, job.kind));
                    let out = JobOut {
                        digest: result_digest(&result),
                        events,
                        seg,
                        result,
                        scheduled: 0,
                        run_allocs: 0,
                        par_hits: 0,
                    };
                    (out, JobTrace::default())
                }
                Some(stride) => {
                    for_stack!(job.kind, S => {
                        traced_job::<S>(j as u32, job, threads, stride, yardstick)
                    })
                }
            }))
            .ok()
        })
    });
    let mut trace = JobTrace::default();
    let jobs: Vec<Option<JobOut>> = outs
        .into_iter()
        .map(|o| {
            o.map(|(out, t)| {
                trace.merge(&t);
                out
            })
        })
        .collect();
    let segs: Vec<Segment> = jobs.iter().flatten().map(|o| o.seg).collect();
    // Each worker spent its share of the yardstick slices inside the
    // timed region; what is left is jobs plus harness fan-out, scaled
    // by the jobs' duration-weighted calibration factor.
    let ref_secs: f64 = segs.iter().map(|s| s.ref_secs).sum();
    let wall_raw = elapsed - ref_secs / threads as f64;
    Pass {
        elapsed,
        wall_raw,
        wall: wall_raw * factor(&segs),
        refs: segs.iter().map(|s| s.ref_ns).collect(),
        jobs,
        trace,
        build: None,
    }
}

/// Builds — and drops — every engine of the job table through the
/// replica builder; returns the seconds spent inside `Engine::new`.
fn build_table(jobs: &[Job], threads: usize) -> f64 {
    jobs.iter()
        .map(|job| for_stack!(job.kind, S => build::<S>(&job.sc, job.seed, threads).engine_new_s))
        .sum()
}

/// One full city simulation: build (timed apart), run in
/// [`CITY_SLICES`] calibrated slices, reduce.
fn city_pass(job: &Job, threads: usize, stride: Option<u64>, yardstick: Yardstick) -> Pass {
    /// `f` under a span when the pass is traced; a plain pass touches
    /// no recorder.
    fn maybe_span<T>(traced: bool, name: Span, f: impl FnOnce() -> T) -> T {
        if traced {
            span(name, f)
        } else {
            f()
        }
    }
    fn go<S: Stack>(job: &Job, threads: usize, traced: bool, yardstick: Yardstick) -> Pass {
        let rss0 = status_kb("VmRSS");
        let (mut built, setup) = bracket(yardstick, || {
            maybe_span(traced, Span::Setup, || {
                build::<S>(&job.sc, job.seed, threads)
            })
        });
        let build = CityBuild {
            setup,
            rss_bytes: status_kb("VmRSS").saturating_sub(rss0) as f64 * 1024.0,
        };
        let a0 = thread_allocs();
        let horizon = job.sc.sim_time.as_nanos();
        let mut segs = Vec::new();
        for i in 1..=CITY_SLICES {
            let until = if i == CITY_SLICES {
                job.sc.sim_time
            } else {
                SimTime::from_nanos(horizon / CITY_SLICES * i)
            };
            let ((), seg) = bracket(yardstick, || {
                maybe_span(traced, Span::Run, || built.engine.run_until(until))
            });
            segs.push(seg);
        }
        let run_allocs = thread_allocs() - a0;
        let whole = Segment {
            secs: segs.iter().map(|s| s.secs).sum(),
            factor: factor(&segs),
            ref_ns: median(&segs.iter().map(|s| s.ref_ns).collect::<Vec<_>>()),
            ref_secs: segs.iter().map(|s| s.ref_secs).sum(),
        };
        let out = maybe_span(traced, Span::Fold, || {
            job_out(&mut built, job, whole, run_allocs)
        });
        Pass {
            elapsed: whole.secs + whole.ref_secs,
            wall_raw: whole.secs,
            wall: whole.cal_secs(),
            refs: segs
                .iter()
                .map(|s| s.ref_ns)
                .chain([setup.ref_ns])
                .collect(),
            jobs: vec![Some(out)],
            trace: JobTrace::default(),
            build: Some(build),
        }
    }
    let lost = || Pass {
        elapsed: 0.0,
        wall_raw: 0.0,
        wall: 0.0,
        refs: Vec::new(),
        jobs: vec![None],
        trace: JobTrace::default(),
        build: None,
    };
    catch_unwind(AssertUnwindSafe(|| match stride {
        None => go::<AnonymousGossip>(job, threads, false, yardstick),
        Some(stride) => {
            let (mut pass, trace) = record_job(0, stride, || {
                go::<Timed<AnonymousGossip>>(job, threads, true, yardstick)
            });
            pass.trace = trace.scaled(ratio(pass.wall, pass.wall_raw));
            pass
        }
    }))
    .unwrap_or_else(|_| lost())
}

/// Accumulates passes into a [`Report`].
struct Runner {
    report: Report,
    jobs: Vec<Job>,
    started: Instant,
    /// Per-job digests of the first pass; every later pass must match.
    reference: Option<Vec<u64>>,
    /// Every yardstick reading so far.
    refs: Vec<f64>,
    /// VmRSS growth across the process's first 20,000-node build: only
    /// that one grows the resident set by the engine's whole footprint,
    /// later ones reuse its pages.
    first_build_rss_bytes: Option<f64>,
}

/// The per-stack `ns_per_event` metrics: full-stack cost of an event in
/// the jobs of one protocol stack.
const STACK_NS_PER_EVENT: [(&str, ProtocolKind); 3] = [
    ("core.ns_per_event", ProtocolKind::Gossip),
    ("maodv.ns_per_event", ProtocolKind::Maodv),
    ("odmrp.ns_per_event", ProtocolKind::Odmrp),
];

/// Per-pass readings a traced run takes the median of.
#[derive(Default)]
struct PlainSeries {
    wall: Vec<f64>,
    ns_per_event: Vec<f64>,
    /// Keyed by the names of [`STACK_NS_PER_EVENT`].
    by_stack: BTreeMap<&'static str, Vec<f64>>,
    job_median: Vec<f64>,
    job_max: Vec<f64>,
    pool_efficiency: Vec<f64>,
}

impl Runner {
    fn out_of_time(&self) -> bool {
        self.started.elapsed().as_secs_f64() > HARD_CAP_S
    }

    /// One pass of the workload on `threads` threads.
    fn pass(&mut self, threads: usize, stride: Option<u64>) -> Pass {
        let workload = self.report.opts.workload;
        let pass = if workload.is_city() {
            city_pass(&self.jobs[0], threads, stride, workload.yardstick())
        } else {
            small_pass(&self.jobs, threads, stride, workload.yardstick())
        };
        self.refs.extend_from_slice(&pass.refs);
        if let (None, Some(build)) = (self.first_build_rss_bytes, &pass.build) {
            self.first_build_rss_bytes = Some(build.rss_bytes);
        }
        pass
    }

    /// Books one pass's jobs: operation counts and output checks (a),
    /// (b), (c) and (d). Returns the job outcomes that succeeded.
    fn absorb<'a>(&mut self, pass: &'a Pass, traced: bool) -> Vec<&'a JobOut> {
        let outs = &pass.jobs;
        self.report.attempted += outs.len() as u64;
        self.report.failed += outs.iter().filter(|o| o.is_none()).count() as u64;
        let digests: Vec<u64> = outs
            .iter()
            .map(|o| o.as_ref().map_or(0, |o| o.digest))
            .collect();
        let name = if traced {
            "traced_digest_equals_plain"
        } else {
            "repeat_digests_equal"
        };
        match &self.reference {
            None => {
                self.report.digest = combine_digests(digests.iter().copied());
                self.reference = Some(digests);
            }
            Some(reference) => {
                let diverged = reference.iter().zip(&digests).position(|(a, b)| a != b);
                self.report
                    .check(name, diverged.is_none(), || match diverged {
                        Some(j) => format!(
                            "job {j}: {:016x} vs first pass {:016x}",
                            digests[j], reference[j]
                        ),
                        None => "every pass reproduced the first pass's per-job digests".into(),
                    });
            }
        }
        for (job, out) in self.jobs.iter().zip(outs) {
            let Some(out) = out else { continue };
            let r = &out.result;
            let emitted = r
                .members
                .iter()
                .find(|m| m.node == r.source)
                .map_or(0, |m| m.received);
            let expected = job.sc.packets_sent();
            let ok = r.sent == expected && emitted == expected;
            self.report.check("sent_equals_packets_sent", ok, || {
                if ok {
                    "every source emitted Scenario::packets_sent() packets".into()
                } else {
                    format!(
                        "{:?} seed {}: sent {} emitted {emitted} expected {expected}",
                        job.kind, job.seed, r.sent
                    )
                }
            });
        }
        outs.iter().flatten().collect()
    }

    /// Check (e): the paper's claim, on the paper's workload.
    fn check_gossip_beats_maodv(&mut self, outs: &[&JobOut]) {
        if self.report.opts.workload != Workload::PaperSweep {
            return;
        }
        let gossip = pooled(outs, ProtocolKind::Gossip).delivery_ratio();
        let maodv = pooled(outs, ProtocolKind::Maodv).delivery_ratio();
        self.report
            .check("gossip_delivery_at_least_maodv", gossip >= maodv, || {
                format!(
                    "pooled delivery: gossip {:.3} % vs maodv {:.3} %",
                    100.0 * gossip,
                    100.0 * maodv
                )
            });
    }

    /// Check (b), `city_20k_nt` only: one serial run, whose digest the
    /// tiled runs must reproduce. Returns its calibrated wall seconds.
    fn serial_reference(&mut self) -> f64 {
        if self.report.threads == 1 || !self.report.opts.workload.is_city() {
            return 0.0;
        }
        let serial = self.pass(1, None);
        self.absorb(&serial, false);
        serial.wall
    }

    /// Set-up samples beyond the repeats' own: each a yardstick-bracketed
    /// build of the workload's engines — the one 20,000-node engine, or
    /// the whole job table ([`TABLE_BUILDS`] times over, averaged) — with
    /// the seconds of it spent inside `Engine::new`.
    fn setup_samples(&mut self) -> Vec<(Segment, f64)> {
        let threads = self.report.threads;
        let workload = self.report.opts.workload;
        let jobs = &self.jobs;
        let builds = if workload.is_city() { 1 } else { TABLE_BUILDS };
        let samples: Vec<(Segment, f64)> = (0..EXTRA_SETUPS)
            .map(|_| {
                let (new_s, mut seg) = bracket(workload.yardstick(), || {
                    (0..builds).map(|_| build_table(jobs, threads)).sum::<f64>()
                });
                seg.secs /= builds as f64;
                (seg, new_s / builds as f64)
            })
            .collect();
        self.refs.extend(samples.iter().map(|(seg, _)| seg.ref_ns));
        samples
    }

    // ─────────────────────────── plain run ────────────────────────────

    fn plain(&mut self) {
        let threads = self.report.threads;

        // The first pass runs in a fresh process, like a user's run, so
        // the resident-set peak is read right after it. On the 40-node
        // workloads it is the untimed warm-up; a 6 s city run warms
        // itself and is the first repeat.
        let first = self.pass(threads, None);
        let rss_mb = status_kb("VmHWM") as f64 / 1024.0;
        let ok = self.absorb(&first, false);
        self.check_gossip_beats_maodv(&ok);
        let mut timed_passes = Vec::new();
        if self.report.opts.workload.is_city() {
            timed_passes.push(first);
        }
        let mut setups: Vec<Segment> = self.setup_samples().into_iter().map(|(s, _)| s).collect();
        self.serial_reference();

        loop {
            let took: Vec<f64> = timed_passes.iter().map(|p| p.elapsed).collect();
            let spent: f64 = took.iter().sum();
            let enough =
                took.len() >= MIN_REPEATS && spent + 0.5 * median(&took) > self.report.opts.seconds;
            // A failed job already makes the run incorrect; stop timing.
            if enough || self.report.failed > 0 || self.out_of_time() {
                break;
            }
            let pass = self.pass(threads, None);
            self.absorb(&pass, false);
            timed_passes.push(pass);
        }

        setups.extend(
            timed_passes
                .iter()
                .filter_map(|p| Some(p.build.as_ref()?.setup)),
        );
        let col =
            |f: fn(&Pass) -> f64| Quartiles::of(&timed_passes.iter().map(f).collect::<Vec<_>>());
        let setup_col =
            |f: fn(&Segment) -> f64| Quartiles::of(&setups.iter().map(f).collect::<Vec<_>>());
        self.report.repeats = timed_passes.len();
        self.report.end_to_end = vec![
            ("wall_s", col(|p| p.wall)),
            ("peak_rss_mb", Quartiles::of(&[rss_mb])),
            ("setup_s", setup_col(Segment::cal_secs)),
        ];
        self.report.raw = vec![
            ("wall_raw_s", col(|p| p.wall_raw)),
            ("setup_raw_s", setup_col(|s| s.secs)),
        ];
    }

    // ─────────────────────────── traced run ───────────────────────────

    fn traced(&mut self) {
        let threads = self.report.threads;
        let stride = self.report.stride;
        let city = self.report.opts.workload.is_city();
        let serial_wall = self.serial_reference();
        let nodes: usize = self.jobs.iter().map(|j| j.sc.nodes).sum();
        let new_ns: Vec<f64> = self
            .setup_samples()
            .iter()
            .map(|(seg, new_s)| new_s * seg.factor * 1e9 / nodes as f64)
            .collect();
        self.report
            .set("net.engine_new_ns_per_node", median(&new_ns));
        if !city {
            let warm = self.pass(threads, None);
            let ok = self.absorb(&warm, false);
            self.check_gossip_beats_maodv(&ok);
        }

        let mut plain = PlainSeries::default();
        let mut traced_walls = Vec::new();
        let mut spent = 0.0;
        loop {
            let pass = self.pass(threads, None);
            let pass_t = self.pass(threads, Some(stride));
            let ok = self.absorb(&pass, false);
            let ok_t = self.absorb(&pass_t, true);
            if self.report.failed > 0 {
                break;
            }
            plain.push(&ok, pass.wall, threads);
            self.set_simulated(&ok);
            let plain_run_s = ok.iter().map(|o| o.seg.cal_secs()).sum();
            self.set_traced(&ok_t, &pass_t.trace, plain_run_s);
            traced_walls.push(pass_t.wall);
            spent += pass.elapsed + pass_t.elapsed;
            self.report.trace = Some(pass_t.trace);

            let round = spent / plain.wall.len() as f64;
            let enough = spent + 0.5 * round > self.report.opts.seconds - DRIVERS_S;
            if enough || self.out_of_time() {
                break;
            }
        }

        self.report.repeats = plain.wall.len();
        let r = &mut self.report;
        r.set("net.ns_per_event", median(&plain.ns_per_event));
        for (name, values) in &plain.by_stack {
            r.set(name, median(values));
        }
        if !city {
            // One engine has no harness fan-out to measure.
            r.set("harness.job_median_s", median(&plain.job_median));
            r.set("harness.job_max_s", median(&plain.job_max));
            r.set("harness.pool_efficiency", median(&plain.pool_efficiency));
        }
        r.set(
            "net.bytes_per_node",
            self.first_build_rss_bytes.unwrap_or(0.0) / nodes as f64,
        );
        let base = median(&plain.wall);
        r.set("net.par_cost_x", ratio(base, serial_wall));
        r.set(
            "trace.overhead_pct",
            100.0 * ratio(median(&traced_walls) - base, base),
        );
        if !self.out_of_time() {
            let r = &mut self.report;
            for (name, value) in drivers::run_all(r.opts.seed, r.opts.quick) {
                r.set(name, value);
            }
        }
    }

    /// Exact simulated readings of a plain pass.
    fn set_simulated(&mut self, outs: &[&JobOut]) {
        let all = pooled(outs, None);
        let c = |name: &str| all.counter(name) as f64;
        let tx = c("mac.unicast_tx") + c("mac.broadcast_tx");
        let delivered = c("mac.rx_delivered");
        let lost = c("mac.rx_collision") + c("mac.rx_channel_drop");
        let r = &mut self.report;
        r.set(
            "sim.events_processed",
            outs.iter().map(|o| o.events).sum::<u64>() as f64,
        );
        r.set("mobility.transitions", c("mob.transition"));
        r.set("net.tx", tx);
        r.set("net.rx_delivered", delivered);
        r.set("net.rx_collision", c("mac.rx_collision"));
        r.set("net.rx_channel_drop", c("mac.rx_channel_drop"));
        r.set("net.cs_busy", c("mac.cs_busy"));
        r.set("net.unicast_retry", c("mac.unicast_retry"));
        r.set("net.send_fail", c("mac.send_fail"));
        r.set("net.queue_drop", c("mac.queue_drop"));
        r.set("net.churn_toggles", c("churn.fail") + c("churn.recover"));
        r.set("net.rx_useful_ratio", ratio(delivered, delivered + lost));
        r.set("net.receivers_per_tx", ratio(delivered, tx));

        let gossip = pooled(outs, ProtocolKind::Gossip);
        let rx = |stream: &str| gossip.receivers.get(stream);
        r.set("core.delivery_pct", 100.0 * gossip.delivery_ratio());
        r.set(
            "core.via_gossip_share",
            ratio(rx("via_gossip").mean(), rx("received").mean()),
        );
        r.set("core.goodput_pct", rx("goodput").mean());
        r.set(
            "core.rounds",
            rx("gossip_rounds").mean() * rx("gossip_rounds").count() as f64,
        );
        r.set(
            "maodv.delivery_pct",
            100.0 * pooled(outs, ProtocolKind::Maodv).delivery_ratio(),
        );
        r.set(
            "odmrp.events",
            outs.iter()
                .filter(|o| o.result.protocol == ProtocolKind::Odmrp)
                .map(|o| o.events)
                .sum::<u64>() as f64,
        );
        r.set(
            "odmrp.delivery_pct",
            100.0 * pooled(outs, ProtocolKind::Odmrp).delivery_ratio(),
        );
    }

    /// Readings of a traced pass: span aggregates and the engine getters
    /// only the replica builder reaches. Shares are of `plain_run_s`,
    /// the seconds the same jobs took in the plain pass beside it.
    fn set_traced(&mut self, outs: &[&JobOut], t: &JobTrace, plain_run_s: f64) {
        let events: u64 = outs.iter().map(|o| o.events).sum();
        let plain_events = self.report.per_layer["sim.events_processed"];
        self.report.check(
            "traced_events_equal_plain",
            plain_events == events as f64,
            || format!("traced passes dispatched {events} events, plain {plain_events}"),
        );
        let share = |s: f64| ratio(s, plain_run_s);
        let engine_self_s = t.engine_self_s(plain_run_s);
        let sum = |f: fn(&JobOut) -> u64| outs.iter().map(|o| f(o)).sum::<u64>() as f64;
        let r = &mut self.report;
        r.set("sim.events_scheduled", sum(|o| o.scheduled));
        r.set(
            "net.run_allocs_per_event",
            ratio(sum(|o| o.run_allocs), events as f64),
        );
        let hits = sum(|o| o.par_hits);
        r.set("net.par_hits", hits);
        let tx = r.per_layer.get("net.tx").copied().unwrap_or(0.0);
        r.set("net.par_hit_ratio", ratio(hits, tx));

        r.set("net.engine_self_s", engine_self_s);
        r.set("net.engine_self_share", share(engine_self_s));
        r.set("net.ctx_s", t.ctx_s());
        r.set("net.ctx_calls", t.ctx_calls() as f64);
        r.set(
            "net.ctx_count_calls",
            t.agg(Span::Ctx(CtxOp::Count)).calls as f64,
        );
        for (name, op) in [
            ("net.ctx_send_ns", CtxOp::Send),
            ("net.ctx_broadcast_ns", CtxOp::Broadcast),
            ("net.ctx_set_timer_ns", CtxOp::SetTimer),
            ("net.ctx_count_ns", CtxOp::Count),
            ("net.ctx_choice_ns", CtxOp::Choice),
        ] {
            r.set(name, t.agg(Span::Ctx(op)).mean_total_ns());
        }
        for (prefix, layer) in [
            ("maodv", Layer::Maodv),
            ("core", Layer::Core),
            ("odmrp", Layer::Odmrp),
        ] {
            let self_s = t.handler_self_s(layer);
            if layer != Layer::Odmrp {
                r.set(&format!("{prefix}.handler_self_s"), self_s);
            }
            r.set(&format!("{prefix}.handler_share"), share(self_s));
        }
        r.set("trace.other_share", share(t.handler_self_s(Layer::Other)));
        // `handler.maodv.rx_hello` is `maodv.rx_hello_ns` / `_calls` —
        // for the kinds the table lists; the rest stay spans only.
        for &kind in Kind::ALL {
            let base = kind.span_name().trim_start_matches("handler.");
            if crate::names::per_layer(&format!("{base}_ns")).is_some() {
                let agg = t.agg(Span::Handler(kind));
                r.set(&format!("{base}_ns"), agg.mean_self_ns());
                r.set(&format!("{base}_calls"), agg.calls as f64);
            }
        }
        r.set(
            "trace.spans",
            t.aggs.iter().map(|a| a.timed).sum::<u64>() as f64,
        );
    }
}

impl PlainSeries {
    /// Books one plain pass; job durations are calibrated seconds.
    fn push(&mut self, outs: &[&JobOut], wall: f64, threads: usize) {
        self.wall.push(wall);
        let secs = |kind: Option<ProtocolKind>| -> (f64, f64) {
            outs.iter()
                .filter(|o| kind.is_none_or(|k| o.result.protocol == k))
                .fold((0.0, 0.0), |(s, e), o| {
                    (s + o.seg.cal_secs(), e + o.events as f64)
                })
        };
        let (job_s, events) = secs(None);
        self.ns_per_event.push(ratio(job_s * 1e9, events));
        for (name, kind) in STACK_NS_PER_EVENT {
            let (s, e) = secs(Some(kind));
            if e > 0.0 {
                self.by_stack
                    .entry(name)
                    .or_default()
                    .push(ratio(s * 1e9, e));
            }
        }
        let job_secs: Vec<f64> = outs.iter().map(|o| o.seg.cal_secs()).collect();
        self.job_median.push(median(&job_secs));
        self.job_max
            .push(job_secs.iter().copied().fold(0.0, f64::max));
        self.pool_efficiency
            .push(ratio(job_s, threads as f64 * wall));
    }
}

/// Streams the results of `kind`'s jobs (all jobs for `None`) into the
/// harness's constant-size accumulator.
fn pooled(outs: &[&JobOut], kind: impl Into<Option<ProtocolKind>>) -> RunStats {
    let kind = kind.into();
    let mut stats = RunStats::new();
    for o in outs {
        if kind.is_none_or(|k| o.result.protocol == k) {
            stats.absorb(&o.result);
        }
    }
    stats
}

/// Runs `opts.workload` and reports what it measured.
///
/// `AG_THREADS` must already be pinned to the workload's thread count
/// (`main` does so before any thread starts): the harness's own builder
/// arms every engine from it.
pub fn run(opts: &Options) -> Report {
    let k = pool_size();
    let mut runner = Runner {
        report: Report {
            opts: opts.clone(),
            k,
            nproc: host_cores(),
            threads: opts.workload.threads(k),
            stride: opts.stride.unwrap_or(DEFAULT_STRIDE),
            repeats: 0,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            digest: 0,
            end_to_end: Vec::new(),
            raw: Vec::new(),
            per_layer: BTreeMap::new(),
            host_ref_ns: Quartiles::of(&[]),
            host_ref_max_ns: 0.0,
            trace: None,
        },
        jobs: opts.workload.jobs(opts.seed, opts.quick),
        started: now(),
        reference: None,
        refs: Vec::new(),
        first_build_rss_bytes: None,
    };
    if opts.trace {
        for m in PER_LAYER {
            runner.report.per_layer.insert(m.name, 0.0);
        }
        runner.traced();
    } else {
        runner.plain();
    }
    let mut report = runner.report;
    report.host_ref_ns = Quartiles::of(&runner.refs);
    report.host_ref_max_ns = runner.refs.iter().copied().fold(0.0, f64::max);
    if opts.trace {
        report.set("host.yardstick_ns", report.host_ref_ns.median);
        report.set("host.yardstick_max_ns", report.host_ref_max_ns);
    }
    report
}
