//! The outside-in tracer: spans recorded entirely from benchmark code.
//!
//! [`Timed`] wraps a protocol and [`TimedCtx`] wraps the context the
//! engine hands it, so every crossing of the protocol ↔ engine boundary
//! is visible without touching a library crate:
//!
//! ```text
//! workload › job › { setup, run › handler.<layer>.<kind> › ctx.<op>, fold }
//! ```
//!
//! A handler span is attributed by *entry kind* — the message variant or
//! timer key the engine dispatched — which is all that is observable
//! from outside (see [`Classify`]). Self time is a span's duration minus
//! its children's; the engine's self time is the *untraced* run minus
//! the handlers, and the clock's own cost is taken out of both
//! ([`JobTrace::without_clock_cost`]).
//!
//! Every call is counted; every `stride`-th call of each handler kind is
//! timed, together with the context calls it makes. Totals of a sampled
//! name are scaled by `calls / timed`. Spans aggregate in memory per
//! name; a bounded raw sample is kept for the trace file.

use std::cell::RefCell;
use std::time::Instant;

use ag_core::{AgMsg, AnonymousGossip};
use ag_harness::{MemberStats, ProtocolKind, Scenario};
use ag_maodv::{
    MaodvMsg, MaodvProtocol, NoExt, TrafficSource, TIMER_GRPH, TIMER_HELLO, TIMER_JOIN_START,
    TIMER_TICK, TIMER_USER_BASE,
};
use ag_net::{Message, NodeId, ProtoCtx, Protocol, RxKind, TimerKey};
use ag_odmrp::OdmrpProtocol;
use ag_sim::{SimDuration, SimTime};

use crate::builder::Stack;
use crate::clock::{epoch_ns, now};

/// The crate a handler span is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ag-maodv`.
    Maodv,
    /// `ag-core` (the gossip layer).
    Core,
    /// `ag-odmrp`.
    Odmrp,
    /// Entry kinds the classifier does not know; reported, never
    /// silently charged to a layer.
    Other,
}

macro_rules! span_names {
    ($( $variant:ident => $name:literal, $layer:expr; )*) => {
        /// What the engine dispatched into a protocol: the entry kind a
        /// handler span is named after.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Kind { $( #[doc = $name] $variant, )* }

        impl Kind {
            /// Every kind, in index order.
            pub const ALL: &'static [Kind] = &[ $( Kind::$variant, )* ];

            /// The span name, `handler.<layer>.<kind>`.
            pub fn span_name(self) -> &'static str {
                match self { $( Kind::$variant => $name, )* }
            }

            /// The layer the span is charged to.
            pub fn layer(self) -> Layer {
                match self { $( Kind::$variant => $layer, )* }
            }
        }
    };
}

span_names! {
    MaodvStart => "handler.maodv.start", Layer::Maodv;
    MaodvRxHello => "handler.maodv.rx_hello", Layer::Maodv;
    MaodvRxRreq => "handler.maodv.rx_rreq", Layer::Maodv;
    MaodvRxRrep => "handler.maodv.rx_rrep", Layer::Maodv;
    MaodvRxMact => "handler.maodv.rx_mact", Layer::Maodv;
    MaodvRxGrph => "handler.maodv.rx_grph", Layer::Maodv;
    MaodvRxData => "handler.maodv.rx_data", Layer::Maodv;
    MaodvRxNmUpdate => "handler.maodv.rx_nm_update", Layer::Maodv;
    MaodvTimerHello => "handler.maodv.timer_hello", Layer::Maodv;
    MaodvTimerTick => "handler.maodv.timer_tick", Layer::Maodv;
    MaodvTimerGrph => "handler.maodv.timer_grph", Layer::Maodv;
    MaodvTimerJoin => "handler.maodv.timer_join", Layer::Maodv;
    MaodvTimerRelay => "handler.maodv.timer_relay", Layer::Maodv;
    MaodvTimerTraffic => "handler.maodv.timer_traffic", Layer::Maodv;
    MaodvSendFailure => "handler.maodv.send_failure", Layer::Maodv;
    CoreStart => "handler.core.start", Layer::Core;
    CoreRxRequest => "handler.core.rx_request", Layer::Core;
    CoreRxReply => "handler.core.rx_reply", Layer::Core;
    CoreTimerGossip => "handler.core.timer_gossip", Layer::Core;
    CoreTimerTraffic => "handler.core.timer_traffic", Layer::Core;
    OdmrpStart => "handler.odmrp.start", Layer::Odmrp;
    OdmrpRx => "handler.odmrp.rx", Layer::Odmrp;
    OdmrpTimer => "handler.odmrp.timer", Layer::Odmrp;
    OdmrpSendFailure => "handler.odmrp.send_failure", Layer::Odmrp;
    Other => "handler.other", Layer::Other;
}

impl Kind {
    /// True for the `Protocol::start` kinds, which run inside
    /// `Engine::new` (the `setup` span), not inside `run`.
    pub fn is_start(self) -> bool {
        matches!(self, Kind::MaodvStart | Kind::CoreStart | Kind::OdmrpStart)
    }
}

/// A context operation a `ctx.<op>` span is named after. The three
/// getters (`now`, `id`, `node_count`) are forwarded untimed: they read
/// a field, and a clock read on either side would measure the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CtxOp {
    /// `ProtoCtx::send`.
    Send,
    /// `ProtoCtx::broadcast`.
    Broadcast,
    /// `ProtoCtx::set_timer`.
    SetTimer,
    /// `ProtoCtx::count` and `count_n`.
    Count,
    /// The named random choices: `jitter`, `chance`, `pick_index`,
    /// `pick_weighted`.
    Choice,
}

impl CtxOp {
    /// Every operation, in index order.
    pub const ALL: [CtxOp; 5] = [
        CtxOp::Send,
        CtxOp::Broadcast,
        CtxOp::SetTimer,
        CtxOp::Count,
        CtxOp::Choice,
    ];

    /// The span name, `ctx.<op>`.
    pub fn span_name(self) -> &'static str {
        match self {
            CtxOp::Send => "ctx.send",
            CtxOp::Broadcast => "ctx.broadcast",
            CtxOp::SetTimer => "ctx.set_timer",
            CtxOp::Count => "ctx.count",
            CtxOp::Choice => "ctx.choice",
        }
    }
}

/// A span name: the four structural spans, then one per handler kind,
/// then one per context operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One simulation job.
    Job,
    /// Scenario, placement, mobility and `Engine::new`.
    Setup,
    /// `Engine::run_until`.
    Run,
    /// Reducing the engine to a result.
    Fold,
    /// One protocol handler invocation.
    Handler(Kind),
    /// One context call made by a handler.
    Ctx(CtxOp),
}

const STRUCTURAL: usize = 4;

/// Number of distinct span names.
pub fn span_count() -> usize {
    STRUCTURAL + Kind::ALL.len() + CtxOp::ALL.len()
}

impl Span {
    /// Dense index in `0..span_count()`.
    pub fn index(self) -> usize {
        match self {
            Span::Job => 0,
            Span::Setup => 1,
            Span::Run => 2,
            Span::Fold => 3,
            Span::Handler(k) => STRUCTURAL + k as usize,
            Span::Ctx(op) => STRUCTURAL + Kind::ALL.len() + op as usize,
        }
    }

    /// The span of a dense index.
    pub fn from_index(i: usize) -> Span {
        match i {
            0 => Span::Job,
            1 => Span::Setup,
            2 => Span::Run,
            3 => Span::Fold,
            i if i < STRUCTURAL + Kind::ALL.len() => Span::Handler(Kind::ALL[i - STRUCTURAL]),
            i => Span::Ctx(CtxOp::ALL[i - STRUCTURAL - Kind::ALL.len()]),
        }
    }

    /// The name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Span::Job => "job",
            Span::Setup => "setup",
            Span::Run => "run",
            Span::Fold => "fold",
            Span::Handler(k) => k.span_name(),
            Span::Ctx(op) => op.span_name(),
        }
    }
}

/// In-memory aggregate of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans opened (exact, whether or not they were timed).
    pub calls: u64,
    /// Spans that were timed.
    pub timed: u64,
    /// Summed duration of the timed spans, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus children) of the timed spans.
    pub self_ns: u64,
    /// Longest timed span, ns.
    pub max_ns: u64,
    /// Timed spans directly inside the timed spans of this name.
    pub children: u64,
}

impl Agg {
    fn scale(&self, sampled_ns: u64) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            sampled_ns as f64 * (self.calls as f64 / self.timed as f64)
        }
    }

    /// Estimated total duration of all `calls` spans, seconds.
    pub fn total_s(&self) -> f64 {
        self.scale(self.total_ns) * 1e-9
    }

    /// Estimated total self time of all `calls` spans, seconds.
    pub fn self_s(&self) -> f64 {
        self.scale(self.self_ns) * 1e-9
    }

    /// Mean self time of a timed span, ns.
    pub fn mean_self_ns(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64, self.timed as f64)
    }

    /// Mean duration of a timed span, ns.
    pub fn mean_total_ns(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.timed as f64)
    }

    /// Adds another aggregate of the same name.
    pub fn merge(&mut self, other: &Agg) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.children += other.children;
    }
}

/// One raw span of the bounded sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    /// Span name index ([`Span::index`]).
    pub name: u8,
    /// The job the span belongs to.
    pub job: u32,
    /// Span id, unique within its job.
    pub id: u32,
    /// Id of the enclosing span (0 for a job span: the workload).
    pub parent: u32,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// End, ns since the process epoch.
    pub end_ns: u64,
}

struct Open {
    name: u8,
    id: u32,
    start: Instant,
    child_ns: u64,
    children: u64,
}

/// Raw spans kept per job: the first [`RAW_HEAD`] timed spans and every
/// [`RAW_EVERY`]-th after that.
pub const RAW_HEAD: u64 = 512;
/// See [`RAW_HEAD`].
pub const RAW_EVERY: u64 = 1024;

/// Records the spans of one job on one thread.
struct Recorder {
    job: u32,
    stride: u64,
    next_id: u32,
    aggs: Vec<Agg>,
    stack: Vec<Open>,
    raw: Vec<RawSpan>,
    timed_spans: u64,
}

impl Recorder {
    /// A recorder for job `job`, timing every `stride`-th call of each
    /// handler kind. `stride == 0` times no handler (calls are still
    /// counted).
    fn new(job: u32, stride: u64) -> Recorder {
        Recorder {
            job,
            stride,
            next_id: 1,
            aggs: vec![Agg::default(); span_count()],
            stack: Vec::with_capacity(8),
            raw: Vec::new(),
            timed_spans: 0,
        }
    }

    /// Opens a timed span; spans nest, so [`Recorder::close`] closes
    /// the most recently opened one.
    fn open(&mut self, span: Span) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            name: span.index() as u8,
            id,
            start: now(),
            child_ns: 0,
            children: 0,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    fn close(&mut self) {
        let end = now();
        let open = self.stack.pop().expect("close without a matching open");
        self.record(open.name, open.id, open.start, end, open.child_ns);
        self.aggs[open.name as usize].children += open.children;
    }

    /// Books one finished span: charges its duration to the enclosing
    /// span's children, updates the aggregate, maybe keeps it raw.
    fn record(&mut self, name: u8, id: u32, start: Instant, end: Instant, child_ns: u64) {
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.children += 1;
                p.id
            }
            None => 0,
        };
        let agg = &mut self.aggs[name as usize];
        agg.calls += 1;
        agg.timed += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(child_ns);
        agg.max_ns = agg.max_ns.max(dur);
        if self.timed_spans < RAW_HEAD || self.timed_spans.is_multiple_of(RAW_EVERY) {
            self.raw.push(RawSpan {
                name,
                job: self.job,
                id,
                parent,
                start_ns: epoch_ns(start),
                end_ns: epoch_ns(end),
            });
        }
        self.timed_spans += 1;
    }

    /// Counts a handler call of `kind` and, on every `stride`-th one,
    /// opens its span. Returns whether the call is timed.
    #[inline]
    fn enter_handler(&mut self, kind: Kind) -> bool {
        let span = Span::Handler(kind);
        let agg = &mut self.aggs[span.index()];
        let timed = self.stride != 0 && agg.calls.is_multiple_of(self.stride);
        if timed {
            self.open(span);
        } else {
            agg.calls += 1;
        }
        timed
    }

    /// Counts a context call and, inside a timed handler, times it.
    #[inline]
    fn ctx_call<T>(&mut self, op: CtxOp, timed: bool, f: impl FnOnce() -> T) -> T {
        let span = Span::Ctx(op);
        if !timed {
            self.aggs[span.index()].calls += 1;
            return f();
        }
        let start = now();
        let out = f();
        let end = now();
        let id = self.next_id;
        self.next_id += 1;
        self.record(span.index() as u8, id, start, end, 0);
        out
    }

    /// The finished job's aggregates and raw sample.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    fn finish(self) -> JobTrace {
        assert!(self.stack.is_empty(), "unclosed span at job end");
        JobTrace {
            aggs: self.aggs,
            raw: self.raw,
        }
    }
}

/// What one job's recorder produced (or several jobs', merged).
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Aggregate per span name, indexed by [`Span::index`].
    pub aggs: Vec<Agg>,
    /// The bounded raw sample.
    pub raw: Vec<RawSpan>,
}

impl Default for JobTrace {
    fn default() -> Self {
        JobTrace {
            aggs: vec![Agg::default(); span_count()],
            raw: Vec::new(),
        }
    }
}

impl JobTrace {
    /// The aggregate of `span`.
    pub fn agg(&self, span: Span) -> Agg {
        self.aggs[span.index()]
    }

    /// Multiplies every duration by `factor` (host-speed calibration;
    /// see [`crate::calib`]). Counts and the raw sample are untouched.
    pub fn scaled(mut self, factor: f64) -> JobTrace {
        let scale = |ns: &mut u64| *ns = (*ns as f64 * factor).round() as u64;
        for a in &mut self.aggs {
            scale(&mut a.total_ns);
            scale(&mut a.self_ns);
            scale(&mut a.max_ns);
        }
        self
    }

    /// Removes the clock's own cost from the handler and context spans.
    ///
    /// A span is `start = now(); work; end = now()`, and a clock read
    /// takes `c` ns (~20 on the sandbox, a fifth of a small handler):
    /// about one read's worth falls inside the span's own interval, and
    /// both reads of each timed child fall inside its parent's. So a
    /// name whose timed spans had `n` timed children in all measured
    /// `total + (2n + timed)·c` and `self + (n + timed)·c`.
    pub fn without_clock_cost(mut self, c: f64) -> JobTrace {
        for (i, a) in self.aggs.iter_mut().enumerate() {
            if matches!(Span::from_index(i), Span::Handler(_) | Span::Ctx(_)) {
                let cut = |ns: u64, reads: u64| ns.saturating_sub((reads as f64 * c) as u64);
                a.total_ns = cut(a.total_ns, 2 * a.children + a.timed);
                a.self_ns = cut(a.self_ns, a.children + a.timed);
            }
        }
        self
    }

    /// Adds another job's trace.
    pub fn merge(&mut self, other: &JobTrace) {
        for (a, b) in self.aggs.iter_mut().zip(&other.aggs) {
            a.merge(b);
        }
        self.raw.extend_from_slice(&other.raw);
    }

    /// The handler kinds that run inside `run` (all but the starts).
    fn run_kinds() -> impl Iterator<Item = Kind> {
        Kind::ALL.iter().copied().filter(|k| !k.is_start())
    }

    /// Estimated seconds of `run` spent in handlers of `layer`, context
    /// calls excluded (those are the engine's work).
    pub fn handler_self_s(&self, layer: Layer) -> f64 {
        Self::run_kinds()
            .filter(|k| k.layer() == layer)
            .map(|k| self.agg(Span::Handler(k)).self_s())
            .sum()
    }

    /// Estimated seconds of `run` spent in context calls.
    pub fn ctx_s(&self) -> f64 {
        CtxOp::ALL
            .iter()
            .map(|&op| self.agg(Span::Ctx(op)).total_s())
            .sum()
    }

    /// Exact number of context calls made inside `run`.
    pub fn ctx_calls(&self) -> u64 {
        CtxOp::ALL
            .iter()
            .map(|&op| self.agg(Span::Ctx(op)).calls)
            .sum()
    }

    /// Estimated seconds the engine spent outside every handler — event
    /// queue, MAC, grid, air index, reception, mobility — given the
    /// seconds `run` takes *untraced*: the traced `run` span also holds
    /// the wrappers' bookkeeping and every clock read, which are the
    /// tracer's cost, not the engine's.
    pub fn engine_self_s(&self, plain_run_s: f64) -> f64 {
        let handlers: f64 = Self::run_kinds()
            .map(|k| self.agg(Span::Handler(k)).total_s())
            .sum();
        (plain_run_s - handlers).max(0.0)
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new(0, 0));
}

/// Installs a fresh recorder for `job` on this thread, runs `f` under a
/// `job` span, and returns `f`'s result with the job's trace.
pub fn record_job<T>(job: u32, stride: u64, f: impl FnOnce() -> T) -> (T, JobTrace) {
    RECORDER.set(Recorder::new(job, stride));
    let out = span(Span::Job, f);
    let trace = RECORDER.replace(Recorder::new(0, 0)).finish();
    (out, trace.without_clock_cost(clock_read_ns()))
}

/// What one `now()` costs in this process, ns: the fastest of five
/// batches of back-to-back reads, measured once.
pub fn clock_read_ns() -> f64 {
    static COST: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *COST.get_or_init(|| {
        const READS: u32 = 20_000;
        (0..5)
            .map(|_| {
                let t0 = now();
                let mut last = t0;
                for _ in 0..READS {
                    last = std::hint::black_box(now());
                }
                last.duration_since(t0).as_nanos() as f64 / f64::from(READS)
            })
            .fold(f64::INFINITY, f64::min)
    })
}

/// Runs `f` under a span of this thread's recorder. The recorder is not
/// borrowed while `f` runs, so `f` may dispatch traced handlers.
pub fn span<T>(span: Span, f: impl FnOnce() -> T) -> T {
    RECORDER.with_borrow_mut(|r| r.open(span));
    let out = f();
    RECORDER.with_borrow_mut(Recorder::close);
    out
}

/// Maps what the engine dispatched to the handler span it opens.
///
/// The match over message variants is exhaustive on purpose: a new
/// `MaodvMsg` or `AgMsg` variant fails to compile here instead of being
/// charged silently to a layer. Timer keys are integers, so an unknown
/// key lands in [`Kind::Other`], whose share the run reports.
pub trait Classify: Protocol {
    /// The kind of `Protocol::start`.
    const START: Kind;

    /// The kind of an `on_packet` carrying `msg`.
    fn packet_kind(msg: &Self::Msg) -> Kind;

    /// The kind of an `on_timer` with `key`.
    fn timer_kind(key: TimerKey) -> Kind;

    /// The kind of an `on_send_failure`.
    fn failure_kind() -> Kind;
}

/// `TIMER_RELAY` of `ag_maodv::node`: public there, but the module is
/// private and the constant is not re-exported.
const MAODV_TIMER_RELAY: TimerKey = 5;

/// MAODV's own timers, shared by both stacks built on it.
fn maodv_timer_kind(key: TimerKey) -> Option<Kind> {
    match key {
        TIMER_HELLO => Some(Kind::MaodvTimerHello),
        TIMER_TICK => Some(Kind::MaodvTimerTick),
        TIMER_GRPH => Some(Kind::MaodvTimerGrph),
        TIMER_JOIN_START => Some(Kind::MaodvTimerJoin),
        MAODV_TIMER_RELAY => Some(Kind::MaodvTimerRelay),
        _ => None,
    }
}

/// MAODV's own frames; `ext` names the extension payload's kind.
fn maodv_packet_kind<X>(msg: &MaodvMsg<X>, ext: impl Fn(&X) -> Kind) -> Kind {
    match msg {
        MaodvMsg::Hello => Kind::MaodvRxHello,
        MaodvMsg::Rreq(_) => Kind::MaodvRxRreq,
        MaodvMsg::Rrep(_) => Kind::MaodvRxRrep,
        MaodvMsg::Mact(_) => Kind::MaodvRxMact,
        MaodvMsg::Grph(_) => Kind::MaodvRxGrph,
        MaodvMsg::Data(_) => Kind::MaodvRxData,
        MaodvMsg::NmUpdate { .. } => Kind::MaodvRxNmUpdate,
        MaodvMsg::Ext(x) => ext(x),
        MaodvMsg::Routed(r) => ext(&r.payload),
    }
}

impl Classify for MaodvProtocol {
    const START: Kind = Kind::MaodvStart;

    fn packet_kind(msg: &MaodvMsg<NoExt>) -> Kind {
        maodv_packet_kind(msg, |x| match *x {})
    }

    fn timer_kind(key: TimerKey) -> Kind {
        maodv_timer_kind(key).unwrap_or(if key == TIMER_USER_BASE {
            // `MaodvProtocol`'s private TIMER_TRAFFIC.
            Kind::MaodvTimerTraffic
        } else {
            Kind::Other
        })
    }

    fn failure_kind() -> Kind {
        Kind::MaodvSendFailure
    }
}

impl Classify for AnonymousGossip {
    const START: Kind = Kind::CoreStart;

    fn packet_kind(msg: &MaodvMsg<AgMsg>) -> Kind {
        maodv_packet_kind(msg, |x| match x {
            AgMsg::Request(_) => Kind::CoreRxRequest,
            AgMsg::Reply(_) => Kind::CoreRxReply,
        })
    }

    fn timer_kind(key: TimerKey) -> Kind {
        // `AnonymousGossip`'s private TIMER_GOSSIP and TIMER_TRAFFIC.
        const GOSSIP: TimerKey = TIMER_USER_BASE;
        const TRAFFIC: TimerKey = TIMER_USER_BASE + 1;
        maodv_timer_kind(key).unwrap_or(match key {
            GOSSIP => Kind::CoreTimerGossip,
            TRAFFIC => Kind::CoreTimerTraffic,
            _ => Kind::Other,
        })
    }

    fn failure_kind() -> Kind {
        // Unicast failure is MAODV's link-break signal, whatever the
        // frame carried.
        Kind::MaodvSendFailure
    }
}

impl Classify for OdmrpProtocol {
    const START: Kind = Kind::OdmrpStart;

    fn packet_kind(_msg: &Self::Msg) -> Kind {
        Kind::OdmrpRx
    }

    fn timer_kind(_key: TimerKey) -> Kind {
        Kind::OdmrpTimer
    }

    fn failure_kind() -> Kind {
        Kind::OdmrpSendFailure
    }
}

/// A protocol whose every handler runs under a span of the calling
/// thread's recorder, with its context wrapped in [`TimedCtx`].
/// Forwards everything unchanged, so the simulation is bit-identical to
/// the unwrapped protocol's.
#[derive(Debug)]
pub struct Timed<P>(pub P);

impl<P: Classify> Timed<P> {
    #[inline]
    fn dispatch<C: ProtoCtx<P::Msg>>(
        &mut self,
        kind: Kind,
        ctx: &mut C,
        f: impl FnOnce(&mut P, &mut TimedCtx<'_, C>),
    ) {
        RECORDER.with_borrow_mut(|rec| {
            let timed = rec.enter_handler(kind);
            f(
                &mut self.0,
                &mut TimedCtx {
                    inner: ctx,
                    rec,
                    timed,
                },
            );
            if timed {
                rec.close();
            }
        });
    }
}

impl<P: Classify> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn start<C: ProtoCtx<Self::Msg>>(&mut self, ctx: &mut C) {
        // `start` runs inside `Engine::new`, under `setup`: one span per
        // node, its context calls left unwrapped so the `ctx.*` names
        // hold `run`-phase calls only.
        span(Span::Handler(P::START), || self.0.start(ctx));
    }

    fn on_packet<C: ProtoCtx<Self::Msg>>(
        &mut self,
        ctx: &mut C,
        from: NodeId,
        msg: Self::Msg,
        rx: RxKind,
    ) {
        self.dispatch(P::packet_kind(&msg), ctx, |p, c| {
            p.on_packet(c, from, msg, rx)
        });
    }

    fn on_timer<C: ProtoCtx<Self::Msg>>(&mut self, ctx: &mut C, key: TimerKey) {
        self.dispatch(P::timer_kind(key), ctx, |p, c| p.on_timer(c, key));
    }

    fn on_send_failure<C: ProtoCtx<Self::Msg>>(&mut self, ctx: &mut C, to: NodeId, msg: Self::Msg) {
        self.dispatch(P::failure_kind(), ctx, |p, c| p.on_send_failure(c, to, msg));
    }
}

impl<P: Stack + Classify> Stack for Timed<P> {
    const KIND: ProtocolKind = P::KIND;

    fn make(sc: &Scenario, id: NodeId, member: bool, traffic: Option<TrafficSource>) -> Self {
        Timed(P::make(sc, id, member, traffic))
    }

    fn member_stats(&self, node: NodeId) -> MemberStats {
        self.0.member_stats(node)
    }
}

/// The context a [`Timed`] protocol's handlers see: forwards every call
/// to the engine's context, counting each and timing those made by a
/// timed handler.
pub struct TimedCtx<'a, C> {
    inner: &'a mut C,
    rec: &'a mut Recorder,
    timed: bool,
}

impl<M: Message, C: ProtoCtx<M>> ProtoCtx<M> for TimedCtx<'_, C> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn send(&mut self, dest: NodeId, msg: M) {
        let inner = &mut *self.inner;
        self.rec
            .ctx_call(CtxOp::Send, self.timed, || inner.send(dest, msg));
    }

    fn broadcast(&mut self, msg: M) {
        let inner = &mut *self.inner;
        self.rec
            .ctx_call(CtxOp::Broadcast, self.timed, || inner.broadcast(msg));
    }

    fn set_timer(&mut self, delay: SimDuration, key: TimerKey) {
        let inner = &mut *self.inner;
        self.rec
            .ctx_call(CtxOp::SetTimer, self.timed, || inner.set_timer(delay, key));
    }

    fn count(&mut self, name: &'static str) {
        let inner = &mut *self.inner;
        self.rec
            .ctx_call(CtxOp::Count, self.timed, || inner.count(name));
    }

    fn count_n(&mut self, name: &'static str, n: u64) {
        let inner = &mut *self.inner;
        self.rec
            .ctx_call(CtxOp::Count, self.timed, || inner.count_n(name, n));
    }

    fn jitter(&mut self, bound: u64) -> u64 {
        let inner = &mut *self.inner;
        self.rec
            .ctx_call(CtxOp::Choice, self.timed, || inner.jitter(bound))
    }

    fn chance(&mut self, p: f64) -> bool {
        let inner = &mut *self.inner;
        self.rec
            .ctx_call(CtxOp::Choice, self.timed, || inner.chance(p))
    }

    fn pick_index(&mut self, n: usize) -> usize {
        let inner = &mut *self.inner;
        self.rec
            .ctx_call(CtxOp::Choice, self.timed, || inner.pick_index(n))
    }

    fn pick_weighted<F: Fn(usize) -> f64>(&mut self, n: usize, weight: F) -> usize {
        let inner = &mut *self.inner;
        self.rec
            .ctx_call(CtxOp::Choice, self.timed, || inner.pick_weighted(n, weight))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_maodv::{GroupId, RoutedExt};
    use std::sync::Arc;

    #[test]
    fn span_indices_are_dense_and_named_once() {
        let mut names = Vec::new();
        for i in 0..span_count() {
            let s = Span::from_index(i);
            assert_eq!(s.index(), i);
            names.push(s.name());
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate span name");
        for (i, k) in Kind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
        for (i, op) in CtxOp::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i);
        }
    }

    /// Books a hand-built tree with known durations through the same
    /// `record` path real spans take.
    #[test]
    fn self_time_is_span_minus_children() {
        let t0 = now();
        let at = |us: u64| t0 + std::time::Duration::from_micros(us);
        let mut rec = Recorder::new(3, 1);
        // run [0, 100) › handler [10, 60) › { ctx.send [20, 30), ctx.count [40, 45) }
        //              › handler [70, 90)
        let open = |rec: &mut Recorder, span: Span, us: u64| {
            let id = rec.next_id;
            rec.next_id += 1;
            rec.stack.push(Open {
                name: span.index() as u8,
                id,
                start: at(us),
                child_ns: 0,
                children: 0,
            });
        };
        let close = |rec: &mut Recorder, us: u64| {
            let o = rec.stack.pop().expect("open span");
            rec.record(o.name, o.id, o.start, at(us), o.child_ns);
            rec.aggs[o.name as usize].children += o.children;
        };
        let leaf = |rec: &mut Recorder, span: Span, from: u64, to: u64| {
            let id = rec.next_id;
            rec.next_id += 1;
            rec.record(span.index() as u8, id, at(from), at(to), 0);
        };
        let rx_data = Span::Handler(Kind::MaodvRxData);
        open(&mut rec, Span::Run, 0);
        open(&mut rec, rx_data, 10);
        leaf(&mut rec, Span::Ctx(CtxOp::Send), 20, 30);
        leaf(&mut rec, Span::Ctx(CtxOp::Count), 40, 45);
        close(&mut rec, 60);
        open(&mut rec, Span::Handler(Kind::CoreTimerGossip), 70);
        close(&mut rec, 90);
        close(&mut rec, 100);
        let t = rec.finish();

        let h = t.agg(rx_data);
        assert_eq!(
            (h.calls, h.timed, h.total_ns, h.self_ns),
            (1, 1, 50_000, 35_000)
        );
        assert_eq!(t.agg(Span::Ctx(CtxOp::Send)).total_ns, 10_000);
        let run = t.agg(Span::Run);
        assert_eq!((run.total_ns, run.self_ns), (100_000, 30_000));
        assert!((t.handler_self_s(Layer::Maodv) - 35e-6).abs() < 1e-12);
        assert!((t.handler_self_s(Layer::Core) - 20e-6).abs() < 1e-12);
        assert!((t.ctx_s() - 15e-6).abs() < 1e-12);
        // The engine's share is taken against the *untraced* run: with
        // a 90 µs plain run, 90 − (50 + 20) µs of handlers.
        assert!((t.engine_self_s(100e-6) - 30e-6).abs() < 1e-12);
        assert!((t.engine_self_s(90e-6) - 20e-6).abs() < 1e-12);
        assert_eq!((h.children, run.children), (2, 2));

        // Clock cost c = 1 µs: the first handler's two reads and its
        // two children's four leave its total, one + two its self time.
        let c = t.clone().without_clock_cost(1_000.0);
        let h = c.agg(rx_data);
        assert_eq!((h.total_ns, h.self_ns), (50_000 - 5_000, 35_000 - 3_000));
        assert_eq!(c.agg(Span::Ctx(CtxOp::Send)).total_ns, 10_000 - 1_000);
        assert_eq!(c.agg(Span::Ctx(CtxOp::Send)).self_ns, 10_000 - 1_000);
        // Structural spans are left as measured.
        assert_eq!(c.agg(Span::Run), t.agg(Span::Run));
        assert_eq!(t.ctx_calls(), 2);
        // Parent links: both ctx leaves point at the first handler,
        // both handlers at `run`, `run` at the workload (0).
        let by_id = |id: u32| t.raw.iter().find(|s| s.id == id).expect("raw span");
        assert_eq!(by_id(1).parent, 0);
        assert_eq!(by_id(2).parent, 1);
        assert_eq!(by_id(3).parent, 2);
        assert_eq!(by_id(4).parent, 2);
        assert_eq!(by_id(5).parent, 1);
        assert!(t.raw.iter().all(|s| s.job == 3));
    }

    #[test]
    fn sampled_totals_scale_by_calls_over_timed() {
        let a = Agg {
            calls: 80,
            timed: 10,
            total_ns: 5_000,
            self_ns: 4_000,
            max_ns: 900,
            children: 0,
        };
        assert!((a.total_s() - 40e-6).abs() < 1e-15);
        assert!((a.self_s() - 32e-6).abs() < 1e-15);
        assert_eq!(a.mean_self_ns(), 400.0);
        assert_eq!(Agg::default().total_s(), 0.0);
        let mut rec = Recorder::new(0, 4);
        let timed: Vec<bool> = (0..9)
            .map(|_| {
                let t = rec.enter_handler(Kind::MaodvRxHello);
                if t {
                    rec.close();
                }
                t
            })
            .collect();
        assert_eq!(
            timed,
            [true, false, false, false, true, false, false, false, true]
        );
        let agg = rec.finish().agg(Span::Handler(Kind::MaodvRxHello));
        assert_eq!((agg.calls, agg.timed), (9, 3));
    }

    #[test]
    fn classifier_maps_every_entry_kind() {
        let grp = GroupId(0);
        let id = NodeId::new(1);
        let req = || {
            AgMsg::request(ag_core::GossipRequest {
                group: grp,
                initiator: id,
                lost: vec![],
                expected: vec![],
                hops: 0,
                ttl: 4,
            })
        };
        let rep = AgMsg::Reply(Arc::new(ag_core::GossipReply {
            group: grp,
            responder: id,
            packets: vec![],
        }));
        type G = AnonymousGossip;
        assert_eq!(G::packet_kind(&MaodvMsg::Hello), Kind::MaodvRxHello);
        assert_eq!(
            G::packet_kind(&MaodvMsg::NmUpdate {
                group: grp,
                value: 1
            }),
            Kind::MaodvRxNmUpdate
        );
        assert_eq!(G::packet_kind(&MaodvMsg::Ext(req())), Kind::CoreRxRequest);
        assert_eq!(
            G::packet_kind(&MaodvMsg::Ext(rep.clone())),
            Kind::CoreRxReply
        );
        let routed = |payload| {
            MaodvMsg::Routed(RoutedExt {
                src: id,
                dest: NodeId::new(2),
                ttl: 3,
                hops: 1,
                payload,
            })
        };
        assert_eq!(G::packet_kind(&routed(req())), Kind::CoreRxRequest);
        assert_eq!(G::packet_kind(&routed(rep)), Kind::CoreRxReply);
        assert_eq!(
            MaodvProtocol::packet_kind(&MaodvMsg::Hello),
            Kind::MaodvRxHello
        );

        for (key, kind) in [
            (TIMER_HELLO, Kind::MaodvTimerHello),
            (TIMER_TICK, Kind::MaodvTimerTick),
            (TIMER_GRPH, Kind::MaodvTimerGrph),
            (TIMER_JOIN_START, Kind::MaodvTimerJoin),
            (MAODV_TIMER_RELAY, Kind::MaodvTimerRelay),
        ] {
            assert_eq!(G::timer_kind(key), kind);
            assert_eq!(MaodvProtocol::timer_kind(key), kind);
        }
        assert_eq!(G::timer_kind(TIMER_USER_BASE), Kind::CoreTimerGossip);
        assert_eq!(G::timer_kind(TIMER_USER_BASE + 1), Kind::CoreTimerTraffic);
        assert_eq!(
            MaodvProtocol::timer_kind(TIMER_USER_BASE),
            Kind::MaodvTimerTraffic
        );
        // Unknown keys are reported, never charged to a layer.
        for unknown in [0, 6, 63, TIMER_USER_BASE + 2, u64::MAX] {
            assert_eq!(G::timer_kind(unknown), Kind::Other);
            assert_eq!(Kind::Other.layer(), Layer::Other);
        }
        assert_eq!(MaodvProtocol::timer_kind(TIMER_USER_BASE + 1), Kind::Other);
        assert_eq!(G::failure_kind().layer(), Layer::Maodv);
        assert_eq!(OdmrpProtocol::timer_kind(9).layer(), Layer::Odmrp);
    }
}
