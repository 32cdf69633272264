//! The traced run: decorators on the `Controller` and `LoadGenerator`
//! seams, the simulator's own `PerfReport`, and the reduction of all of it
//! to per-layer metrics.
//!
//! Every span is timed from outside the layer, at a public boundary:
//! `Cluster::run` as a whole, the controller's `on_period_boundary`, each
//! generator's `arrive`, and the per-event-kind phases the simulator's perf
//! layer times itself. Self times subtract nested spans: the controller
//! runs inside the `period_release` phase, so that phase's self time
//! excludes it.
//!
//! The load decorator is optional. It reads the clock twice per arrival,
//! millions of times per batch, so the batch that times `Cluster::run` and
//! its phases runs without it, and a second batch with it times the
//! arrivals.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rtds_arm::predictor::Predictor;
use rtds_sim::cluster::ClusterApi;
use rtds_sim::control::{ControlAction, ControlContext, Controller, PeriodObservation};
use rtds_sim::ids::NodeId;
use rtds_sim::load::{LoadArrival, LoadGenerator};
use rtds_sim::metrics::ForecastResidualStat;
use rtds_sim::perf::{PerfReport, N_PHASES, PHASE_NAMES};
use rtds_sim::rng::SimRng;
use rtds_sim::time::SimTime;

use crate::workload::{Outcome, Point, Wrap};

/// A decorator's totals: calls, nanoseconds inside the wrapped call, and
/// items the calls returned. Kept in plain fields while the run is hot and
/// published to the shared [`Probe`] when the decorator is dropped, which
/// `Cluster::run` does before it returns.
#[derive(Default, Clone, Copy)]
struct Tally {
    calls: u64,
    ns: u64,
    items: u64,
}

impl Tally {
    fn record(&mut self, started: Instant, items: u64) {
        self.calls += 1;
        self.ns += started.elapsed().as_nanos() as u64;
        self.items += items;
    }
}

/// The totals of every decorator of one kind in one run.
#[derive(Default)]
struct Probe(Mutex<Tally>);

impl Probe {
    fn publish(&self, t: &Tally) {
        let mut total = self.0.lock().unwrap_or_else(|e| e.into_inner());
        total.calls += t.calls;
        total.ns += t.ns;
        total.items += t.items;
    }

    fn read(&self) -> Tally {
        *self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Times and counts every control epoch of the wrapped policy.
struct TimedController {
    inner: Box<dyn Controller>,
    tally: Tally,
    probe: Arc<Probe>,
}

impl Drop for TimedController {
    fn drop(&mut self) {
        self.probe.publish(&self.tally);
    }
}

impl Controller for TimedController {
    fn on_period_boundary(
        &mut self,
        completed: &[PeriodObservation],
        ctx: &ControlContext,
    ) -> Vec<ControlAction> {
        let t0 = Instant::now();
        let actions = self.inner.on_period_boundary(completed, ctx);
        self.tally.record(t0, actions.len() as u64);
        actions
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn forecast_residuals(&self) -> Vec<ForecastResidualStat> {
        self.inner.forecast_residuals()
    }
}

/// Times and counts every arrival drawn from the wrapped generator.
struct TimedLoad {
    inner: Box<dyn LoadGenerator>,
    tally: Tally,
    probe: Arc<Probe>,
}

impl Drop for TimedLoad {
    fn drop(&mut self) {
        self.probe.publish(&self.tally);
    }
}

impl LoadGenerator for TimedLoad {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn first_at(&self, rng: &mut SimRng) -> SimTime {
        self.inner.first_at(rng)
    }

    fn arrive(&mut self, now: SimTime, rng: &mut SimRng) -> LoadArrival {
        let t0 = Instant::now();
        let a = self.inner.arrive(now, rng);
        self.tally.record(t0, 0);
        a
    }

    fn target_utilization(&self) -> f64 {
        self.inner.target_utilization()
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }
}

/// Exact work done by one batch: identical on every repetition of the
/// same workload and seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Events handled per kind, indexed as `PHASE_NAMES`.
    pub events: [u64; N_PHASES],
    /// Dispatches elided by the virtual dispatch chain.
    pub elided_dispatches: u64,
    /// Background polls elided by the fast path.
    pub elided_bg_polls: u64,
    /// Background-only dispatches fired directly by the fast path.
    pub elided_bg_dispatches: u64,
    /// Queue operations.
    pub scheduled: u64,
    /// Queue pops.
    pub popped: u64,
    /// Queue cancellations (tombstones).
    pub cancelled: u64,
    /// Largest heap population of any run.
    pub heap_high_water: u64,
    /// Controller invocations.
    pub epochs: u64,
    /// Actions the controller returned.
    pub actions: u64,
    /// Placement changes applied.
    pub placement_changes: u64,
    /// Actions the cluster rejected.
    pub rejected_actions: u64,
    /// Background arrivals drawn; counted only by the load decorator.
    pub arrivals: u64,
    /// Messages offered to the bus.
    pub offered: u64,
    /// Sender retransmissions.
    pub retransmits: u64,
    /// Messages corrupted on the wire.
    pub dropped: u64,
    /// Messages lost for good.
    pub lost: u64,
    /// Crash–restart cycles completed.
    pub node_restarts: u64,
}

impl Counters {
    /// The counters as `(name, value)` pairs, in report order.
    pub fn named(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = PHASE_NAMES
            .iter()
            .zip(self.events)
            .map(|(n, v)| (format!("events.{n}"), v))
            .collect();
        for (n, v) in [
            ("elided.dispatch", self.elided_dispatches),
            ("elided.bg_poll", self.elided_bg_polls),
            ("elided.bg_dispatch", self.elided_bg_dispatches),
            ("queue.scheduled", self.scheduled),
            ("queue.popped", self.popped),
            ("queue.cancelled", self.cancelled),
            ("queue.heap_high_water", self.heap_high_water),
            ("arm.epochs", self.epochs),
            ("arm.actions", self.actions),
            ("arm.placement_changes", self.placement_changes),
            ("arm.rejected_actions", self.rejected_actions),
            ("load.arrivals", self.arrivals),
            ("net.offered", self.offered),
            ("net.retransmits", self.retransmits),
            ("net.dropped", self.dropped),
            ("net.lost", self.lost),
            ("fault.node_restarts", self.node_restarts),
        ] {
            out.push((n.to_string(), v));
        }
        out
    }
}

/// Host times of one traced batch, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Times {
    /// Wall of the whole traced batch (assembly plus runs).
    pub batch_s: f64,
    /// Cluster assembly, summed over the batch.
    pub build_s: f64,
    /// `Cluster::run`, summed over the batch.
    pub run_s: f64,
    /// Per-phase handler time from `PerfReport.ns`.
    pub phase_s: [f64; N_PHASES],
    /// Controller time from the decorator.
    pub arm_s: f64,
    /// `LoadGenerator::arrive` time from the decorator.
    pub arrive_s: f64,
}

/// Everything one traced batch produced.
pub struct TracedBatch {
    /// Exact work counters.
    pub counters: Counters,
    /// Host times.
    pub times: Times,
    /// Per-point outcomes, in batch order.
    pub outcomes: Vec<Outcome>,
    /// Pooled forecast MAPE numerator and denominator.
    pub mape: (f64, u64),
}

/// Assembles and runs one point with the perf layer, the controller
/// decorator and, if `probe_load`, the load decorator, folding its work and
/// times into `batch`.
fn run_traced(
    point: &Point,
    predictor: Option<&Predictor>,
    probe_load: bool,
    batch: &mut TracedBatch,
) {
    let arm = Arc::new(Probe::default());
    let load = Arc::new(Probe::default());
    let wrap_controller = |inner| -> Box<dyn Controller> {
        Box::new(TimedController {
            inner,
            tally: Tally::default(),
            probe: Arc::clone(&arm),
        })
    };
    let wrap_load = |inner| -> Box<dyn LoadGenerator> {
        Box::new(TimedLoad {
            inner,
            tally: Tally::default(),
            probe: Arc::clone(&load),
        })
    };
    let wrap = Wrap {
        controller: &wrap_controller,
        load: probe_load.then_some(&wrap_load as _),
    };

    let t0 = Instant::now();
    let mut cluster = point.assemble(predictor, Some(&wrap));
    cluster.enable_perf(None);
    let t1 = Instant::now();
    let out = cluster.run();
    let run_s = t1.elapsed().as_secs_f64();
    let perf: PerfReport = out.perf.expect("perf was enabled");
    let m = &out.metrics;

    // The run dropped the decorators, which published their tallies.
    let Tally {
        calls: epochs,
        ns: arm_ns,
        items: actions,
    } = arm.read();
    let Tally {
        calls: arrivals,
        ns: arrive_ns,
        ..
    } = load.read();
    assert_eq!(
        epochs, perf.control_epochs,
        "controller decorator missed epochs"
    );

    let c = &mut batch.counters;
    for (total, n) in c.events.iter_mut().zip(perf.events) {
        *total += n;
    }
    c.elided_dispatches += perf.elided_dispatches;
    c.elided_bg_polls += perf.elided_bg_polls;
    c.elided_bg_dispatches += perf.elided_bg_dispatches;
    c.scheduled += perf.queue.scheduled;
    c.popped += perf.queue.popped;
    c.cancelled += perf.queue.cancelled;
    c.heap_high_water = c.heap_high_water.max(perf.queue.heap_high_water as u64);
    c.epochs += epochs;
    c.actions += actions;
    c.placement_changes += m.placement_changes;
    c.rejected_actions += m.rejected_actions;
    c.arrivals += arrivals;
    c.offered += m.messages_offered;
    c.retransmits += m.retransmits;
    c.dropped += m.messages_dropped;
    c.lost += m.messages_lost;
    c.node_restarts += m.node_restarts;

    let t = &mut batch.times;
    t.build_s += (t1 - t0).as_secs_f64();
    t.run_s += run_s;
    for (total, ns) in t.phase_s.iter_mut().zip(perf.ns) {
        *total += ns as f64 / 1e9;
    }
    t.arm_s += arm_ns as f64 / 1e9;
    t.arrive_s += arrive_ns as f64 / 1e9;

    for r in &m.forecast_residuals {
        batch.mape.0 += r.sum_abs_pct_err;
        batch.mape.1 += r.pct_count;
    }
    batch.outcomes.push(point.outcome_of(m));
}

/// Runs a whole batch traced; `probe_load` installs the load decorator.
pub fn run_batch_traced(
    points: &[Point],
    predictor: Option<&Predictor>,
    probe_load: bool,
) -> TracedBatch {
    let mut batch = TracedBatch {
        counters: Counters::default(),
        times: Times::default(),
        outcomes: Vec::with_capacity(points.len()),
        mape: (0.0, 0),
    };
    let t0 = Instant::now();
    for p in points {
        run_traced(p, predictor, probe_load, &mut batch);
    }
    batch.times.batch_s = t0.elapsed().as_secs_f64();
    batch
}

/// Index of a phase in `PHASE_NAMES`.
pub fn phase(name: &str) -> usize {
    PHASE_NAMES
        .iter()
        .position(|&n| n == name)
        .unwrap_or_else(|| panic!("no perf phase named {name}"))
}
