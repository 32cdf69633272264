//! Evaluation-scenario assembly.
//!
//! One scenario = the paper's Table 1 system (6 nodes, round-robin 1 ms,
//! 100 Mbps Ethernet, the 5-subtask AAW task, 990 ms deadline) + a
//! workload pattern + a resource-management policy + ambient background
//! load. [`run_scenario`] builds the cluster, runs it, and reduces the
//! result to the four paper metrics plus the combined metric;
//! [`run_policies`] runs one scenario under several policies as one
//! group run that shares the simulation until their decisions differ. Every
//! experiment cluster, including the hand-assembled ones of the
//! extensions and ablations, is built by [`paper_cluster`] and run by
//! [`run_cluster`], so `--no-bg-ff` and `--perf` reach all of them.

use std::sync::{Arc, Mutex};

use rtds_arm::audit::DecisionRecord;
use rtds_arm::config::ArmConfig;
use rtds_arm::manager::ResourceManager;
use rtds_arm::metrics::{combined_breakdown, CombinedBreakdown};
use rtds_arm::predictor::Predictor;
use rtds_dynbench::app::{aaw_task, EVAL_DECIDE_STAGE, FILTER_STAGE};
use rtds_sim::cluster::{Cluster, ClusterApi, ClusterConfig, RunOutcome, WorkloadFn};
use rtds_sim::control::{Controller, NullController};
use rtds_sim::ids::{LoadGenId, NodeId};
use rtds_sim::load::PoissonLoad;
use rtds_sim::metrics::{RunMetrics, RunSummary};
use rtds_sim::net::JamWindow;
use rtds_sim::sched::SchedulerKind;
use rtds_sim::sink::BoundedSink;
use rtds_sim::time::{SimDuration, SimTime};
use rtds_sim::trace::TraceSink;
use rtds_workloads::{
    Burst, DecreasingRamp, IncreasingRamp, Pattern, RandomWalk, Sinusoid, Step,
    Triangular, WorkloadRange,
};

/// Which workload pattern drives the scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum PatternSpec {
    /// Paper Fig. 8, increasing ramp over `ramp_periods`.
    Increasing {
        /// Periods to go min → max.
        ramp_periods: u64,
    },
    /// Paper Fig. 8, decreasing ramp.
    Decreasing {
        /// Periods to go max → min.
        ramp_periods: u64,
    },
    /// Paper Fig. 8, triangular.
    Triangular {
        /// Periods per leg.
        half_period: u64,
    },
    /// Extension: square wave.
    Step {
        /// Periods at the minimum.
        low: u64,
        /// Periods at the maximum.
        high: u64,
    },
    /// Extension: bursts to the maximum.
    Burst {
        /// Cycle length.
        every: u64,
        /// Burst width.
        width: u64,
    },
    /// Extension: sinusoid.
    Sinusoid {
        /// Wavelength in periods.
        wavelength: u64,
    },
    /// Extension: bounded random walk.
    RandomWalk {
        /// Maximum per-period step, tracks.
        max_step: u64,
        /// Walk seed.
        seed: u64,
    },
}

impl PatternSpec {
    /// Instantiates the pattern over a workload range.
    pub fn build(self, range: WorkloadRange) -> Box<dyn Pattern> {
        match self {
            PatternSpec::Increasing { ramp_periods } => {
                Box::new(IncreasingRamp::new(range, ramp_periods))
            }
            PatternSpec::Decreasing { ramp_periods } => {
                Box::new(DecreasingRamp::new(range, ramp_periods))
            }
            PatternSpec::Triangular { half_period } => {
                Box::new(Triangular::new(range, half_period))
            }
            PatternSpec::Step { low, high } => Box::new(Step::new(range, low, high)),
            PatternSpec::Burst { every, width } => Box::new(Burst::new(range, every, width)),
            PatternSpec::Sinusoid { wavelength } => Box::new(Sinusoid::new(range, wavelength)),
            PatternSpec::RandomWalk { max_step, seed } => {
                Box::new(RandomWalk::new(range, max_step, seed))
            }
        }
    }

    /// Pattern family name.
    pub fn name(self) -> &'static str {
        match self {
            PatternSpec::Increasing { .. } => "increasing-ramp",
            PatternSpec::Decreasing { .. } => "decreasing-ramp",
            PatternSpec::Triangular { .. } => "triangular",
            PatternSpec::Step { .. } => "step",
            PatternSpec::Burst { .. } => "burst",
            PatternSpec::Sinusoid { .. } => "sinusoid",
            PatternSpec::RandomWalk { .. } => "random-walk",
        }
    }
}

/// Which resource-management policy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum PolicySpec {
    /// The paper's predictive algorithm.
    Predictive,
    /// The paper's non-predictive baseline.
    NonPredictive,
    /// Extension baseline: one least-utilized replica per round, no
    /// forecast.
    Incremental,
    /// No adaptation at all (static single placement).
    None,
}

impl PolicySpec {
    /// Policy name.
    pub fn name(self) -> &'static str {
        match self {
            PolicySpec::Predictive => "predictive",
            PolicySpec::NonPredictive => "non-predictive",
            PolicySpec::Incremental => "incremental",
            PolicySpec::None => "static",
        }
    }
}

/// Full scenario description.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Workload pattern.
    pub pattern: PatternSpec,
    /// Policy under test.
    pub policy: PolicySpec,
    /// Workload interval (min/max tracks per period).
    pub workload: WorkloadRange,
    /// Number of 1 s periods to simulate.
    pub n_periods: u64,
    /// Ambient Poisson background utilization per node, `[0, 1)`.
    pub ambient_util: f64,
    /// Master seed.
    pub seed: u64,
    /// CPU scheduling policy on every node (Table 1: round-robin 1 ms).
    pub scheduler: SchedulerKind,
    /// Enable online Eq. (3) model refinement in the manager (extension).
    pub online_refinement: bool,
    /// Fault plan: `(node index, failure time in whole seconds)` pairs.
    /// These are legacy *permanent* fail-stop faults; for crash–restart
    /// and degraded-network faults see [`ScenarioConfig::faults`].
    pub failures: Vec<(u32, u64)>,
    /// Failure-realism plan: lossy/duplicating bus, retransmission,
    /// jamming, and crash–restart faults. Defaults to everything off, in
    /// which case the run is byte-identical to a scenario without the
    /// field.
    pub faults: FaultPlan,
    /// Observability sinks: event trace and decision audit. Defaults to
    /// everything off; enabling them never changes simulation outcomes
    /// (zero observer effect), it only fills [`ScenarioResult::trace`]
    /// and [`ScenarioResult::decisions`].
    pub observe: ObserveConfig,
    /// Background-load fast path (see `ClusterConfig::bg_fast_path`).
    /// Byte-identical on or off; off (`--no-bg-ff`) exists for A/B
    /// verification and debugging. Default: on.
    pub bg_fast_path: bool,
}

/// Opt-in observability for one scenario run. Everything defaults to off;
/// each knob only *collects* data — decisions, placements, metrics, and
/// figures are identical with or without it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct ObserveConfig {
    /// Capacity of the in-memory [`TraceSink`] (ordinary events beyond it
    /// are dropped; failure-class events are always kept). `None`
    /// disables tracing entirely.
    pub trace_capacity: Option<usize>,
    /// Collect a [`DecisionRecord`] stream from the resource manager
    /// explaining every replicate / shut-down / no-op choice.
    pub decisions: bool,
}

impl ObserveConfig {
    /// Trace capacity used by [`ObserveConfig::full`] — generous enough
    /// for any paper-scale run without risking unbounded growth.
    pub const FULL_TRACE_CAPACITY: usize = 1 << 16;

    /// Everything on: bounded trace plus decision audit.
    pub fn full() -> Self {
        ObserveConfig {
            trace_capacity: Some(Self::FULL_TRACE_CAPACITY),
            decisions: true,
        }
    }
}

/// Declarative failure-realism configuration for a scenario: the knobs of
/// the degraded-mode experiments. `FaultPlan::default()` disables every
/// feature and leaves runs byte-identical to the clean baseline.
#[derive(Debug, Clone, Default, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// Per-message corruption probability on the shared bus, `[0, 1]`.
    pub drop_prob: f64,
    /// Per-message spurious-duplication probability, `[0, 1]`.
    pub dup_prob: f64,
    /// Sender-side retransmit timeout in microseconds; 0 disables
    /// retransmission (losses are then final).
    pub retx_timeout_us: u64,
    /// Optional transient bandwidth-degradation window.
    pub jam: Option<JamWindow>,
    /// Crash–restart faults, in schedule order.
    pub crashes: Vec<CrashFault>,
}

/// One crash–restart fault in a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct CrashFault {
    /// Node index to crash.
    pub node: u32,
    /// Crash time, whole seconds from the start of the run.
    pub at_s: u64,
    /// Restart delay in whole seconds; `None` means the node never comes
    /// back (but unlike `ScenarioConfig::failures`, the crash still tears
    /// down its in-flight traffic).
    pub restart_after_s: Option<u64>,
}

impl FaultPlan {
    /// True when any failure-realism feature is enabled.
    pub fn is_active(&self) -> bool {
        *self != FaultPlan::default()
    }
}

impl ScenarioConfig {
    /// The paper's evaluation defaults for a given pattern, policy and
    /// maximum workload (in tracks): minimum workload 500 tracks, 240
    /// periods, 10 % ambient load.
    pub fn paper(pattern: PatternSpec, policy: PolicySpec, max_tracks: u64) -> Self {
        ScenarioConfig {
            pattern,
            policy,
            workload: WorkloadRange::new(500.min(max_tracks), max_tracks),
            n_periods: 240,
            ambient_util: 0.10,
            seed: 0x5EED,
            scheduler: SchedulerKind::paper_baseline(),
            online_refinement: false,
            failures: Vec::new(),
            faults: FaultPlan::default(),
            observe: ObserveConfig::default(),
            bg_fast_path: true,
        }
    }
}

/// Everything produced by one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The four paper metrics.
    pub summary: RunSummary,
    /// Combined-metric breakdown.
    pub breakdown: CombinedBreakdown,
    /// Raw run metrics, for detailed analysis.
    pub metrics: RunMetrics,
    /// Policy that ran.
    pub policy: &'static str,
    /// Event trace, when [`ObserveConfig::trace_capacity`] was set.
    pub trace: Option<TraceSink>,
    /// Decision-audit records in emission order, when
    /// [`ObserveConfig::decisions`] was set (always empty for
    /// [`PolicySpec::None`], which makes no decisions).
    pub decisions: Vec<(SimTime, DecisionRecord)>,
}

/// Indices of the replicable stages, for summarization.
pub fn replicable_stage_indices() -> [usize; 2] {
    [FILTER_STAGE, EVAL_DECIDE_STAGE]
}

/// Builds and runs one scenario with the given predictor (shared by both
/// policies — the non-predictive algorithm uses it only for EQF deadline
/// estimation, exactly as §4.1 prescribes).
pub fn run_scenario(cfg: &ScenarioConfig, predictor: &Predictor) -> ScenarioResult {
    let mut cluster = scenario_cluster(cfg, adapt(cfg.pattern.build(cfg.workload)));
    let (controller, sink) = controller_for(cfg, cfg.policy, predictor);
    if let Some(c) = controller {
        cluster.set_controller(c);
    }
    scenario_result(cfg.policy, run_cluster(cluster), sink)
}

/// Runs `cfg` once per policy in `policies` (its own `policy` field is
/// ignored) and hands `each(i, result)` the result of `policies[i]` as
/// soon as it is finished. Each result equals
/// `run_scenario(&ScenarioConfig { policy: policies[i], ..cfg })`.
///
/// With two or more policies the runs are one group
/// ([`ClusterApi::run_group`]): the simulation is shared up to the first
/// period boundary at which the policies ask for different placements,
/// and copied there. The pattern is evaluated once, in period order, into
/// a table every copy reads. One policy is a plain [`run_scenario`].
pub fn run_policies(
    cfg: &ScenarioConfig,
    policies: &[PolicySpec],
    predictor: &Predictor,
    mut each: impl FnMut(usize, ScenarioResult),
) {
    if let [policy] = policies {
        let solo = ScenarioConfig {
            policy: *policy,
            ..cfg.clone()
        };
        return each(0, run_scenario(&solo, predictor));
    }
    let table = PatternTable::new(cfg.pattern.build(cfg.workload));
    let mut cluster = scenario_cluster(cfg, table.reader());
    let (controllers, mut sinks): (Vec<Box<dyn Controller>>, Vec<_>) = policies
        .iter()
        .map(|&policy| {
            let (c, sink) = controller_for(cfg, policy, predictor);
            (c.unwrap_or_else(|| Box::new(NullController)), sink)
        })
        .unzip();
    if crate::perfmon::enabled() {
        cluster.enable_perf(crate::perfmon::probe());
    }
    cluster
        .run_group(controllers, &mut || vec![table.reader()], &mut |i, outcome| {
            if let Some(p) = &outcome.perf {
                crate::perfmon::record(p);
            }
            each(i, scenario_result(policies[i], outcome, sinks[i].take()));
        })
        .expect("every paper-cluster load generator forks");
}

/// A decision-audit sink shared between a manager and the harness.
type DecisionSink = Arc<Mutex<BoundedSink<DecisionRecord>>>;

/// The scenario's cluster, with `workload` driving its task and the
/// trace and faults of `cfg` installed, but no controller.
fn scenario_cluster(cfg: &ScenarioConfig, workload: WorkloadFn) -> Cluster {
    assert!(cfg.n_periods > 0, "empty scenario");
    assert!((0.0..1.0).contains(&cfg.ambient_util), "ambient must be in [0,1)");
    let mut cluster = paper_cluster(
        cfg.seed,
        SimDuration::from_secs(cfg.n_periods),
        cfg.ambient_util,
        cfg.bg_fast_path,
        |c| {
            c.scheduler = cfg.scheduler;
            c.bus.drop_prob = cfg.faults.drop_prob;
            c.bus.dup_prob = cfg.faults.dup_prob;
            c.bus.retx_timeout_us = cfg.faults.retx_timeout_us;
            c.bus.jam = cfg.faults.jam;
        },
    );
    cluster.add_task(aaw_task(), workload);
    if let Some(capacity) = cfg.observe.trace_capacity {
        cluster.enable_trace(capacity);
    }
    for &(node, at_s) in &cfg.failures {
        cluster.fail_node_at(rtds_sim::ids::NodeId(node), SimTime::from_secs(at_s));
    }
    for &CrashFault { node, at_s, restart_after_s } in &cfg.faults.crashes {
        cluster.crash_node_at(
            rtds_sim::ids::NodeId(node),
            SimTime::from_secs(at_s),
            restart_after_s.map(SimDuration::from_secs),
        );
    }
    cluster
}

/// The manager running `policy` under `cfg` (`None` for
/// [`PolicySpec::None`], which keeps the cluster's null controller),
/// and its decision sink when `cfg` observes decisions. The manager
/// records through one handle; [`scenario_result`] drains the other once
/// the run has dropped the manager.
fn controller_for(
    cfg: &ScenarioConfig,
    policy: PolicySpec,
    predictor: &Predictor,
) -> (Option<Box<dyn Controller>>, Option<DecisionSink>) {
    let mut arm = match policy {
        PolicySpec::Predictive => ArmConfig::paper_predictive(),
        PolicySpec::NonPredictive => ArmConfig::paper_nonpredictive(),
        PolicySpec::Incremental => ArmConfig::incremental(),
        PolicySpec::None => return (None, None),
    };
    arm.online_refinement = cfg.online_refinement;
    let mut manager = ResourceManager::new(arm, predictor.clone());
    let sink = cfg.observe.decisions.then(|| {
        let sink = Arc::new(Mutex::new(BoundedSink::<DecisionRecord>::bounded(
            ObserveConfig::FULL_TRACE_CAPACITY,
        )));
        manager.set_decision_sink(Box::new(Arc::clone(&sink)));
        sink
    });
    (Some(Box::new(manager)), sink)
}

/// Reduces a finished run of `policy` to the scenario result, draining
/// its decision sink.
fn scenario_result(
    policy: PolicySpec,
    outcome: RunOutcome,
    sink: Option<DecisionSink>,
) -> ScenarioResult {
    let summary = outcome
        .metrics
        .summarize(&replicable_stage_indices());
    let breakdown = combined_breakdown(&summary, 6);
    // The run dropped the manager, so this is the last handle to the
    // decision sink.
    let decisions = sink
        .map(|sink| {
            Arc::try_unwrap(sink)
                .map(|m| {
                    m.into_inner()
                        .unwrap_or_else(|e| e.into_inner())
                        .into_events()
                })
                .unwrap_or_default()
        })
        .unwrap_or_default();
    ScenarioResult {
        summary,
        breakdown,
        metrics: outcome.metrics,
        policy: policy.name(),
        trace: outcome.trace,
        decisions,
    }
}

/// A workload pattern evaluated once, in period order, into a table that
/// every branch of a group run reads. Branches split mid-run, so each
/// must continue the one sequence rather than restart a stateful pattern.
struct PatternTable(Arc<Mutex<Evaluated>>);

/// A pattern and its values so far, in period order.
struct Evaluated {
    pattern: Box<dyn Pattern>,
    tracks: Vec<u64>,
}

impl PatternTable {
    fn new(pattern: Box<dyn Pattern>) -> Self {
        PatternTable(Arc::new(Mutex::new(Evaluated {
            pattern,
            tracks: Vec::new(),
        })))
    }

    /// A workload function reading the table, extending it on demand.
    fn reader(&self) -> WorkloadFn {
        let table = Arc::clone(&self.0);
        Box::new(move |period| {
            let mut t = table.lock().unwrap_or_else(|e| e.into_inner());
            while t.tracks.len() as u64 <= period {
                let next = t.tracks.len() as u64;
                let tracks = t.pattern.tracks_at(next);
                t.tracks.push(tracks);
            }
            t.tracks[period as usize]
        })
    }
}

/// Builds the paper's Table 1 cluster (`ClusterConfig::paper_baseline`)
/// for `seed` and `horizon` with `ambient_util` Poisson background load
/// on every node (none at 0). `tune` adjusts the rest of the cluster
/// configuration; the background-load fast path is then set to
/// `bg_fast_path`, so every experiment honours `--no-bg-ff`.
pub fn paper_cluster(
    seed: u64,
    horizon: SimDuration,
    ambient_util: f64,
    bg_fast_path: bool,
    tune: impl FnOnce(&mut ClusterConfig),
) -> Cluster {
    let mut cluster_cfg = ClusterConfig::paper_baseline(seed, horizon);
    tune(&mut cluster_cfg);
    cluster_cfg.bg_fast_path = bg_fast_path;
    let n_nodes = cluster_cfg.n_nodes as u32;
    let mut cluster = Cluster::new(cluster_cfg);
    if ambient_util > 0.0 {
        for n in 0..n_nodes {
            cluster.add_load(Box::new(PoissonLoad::with_utilization(
                LoadGenId(n),
                NodeId(n),
                ambient_util,
                SimDuration::from_millis(2),
            )));
        }
    }
    cluster
}

/// Runs `cluster` to its horizon. Under `--perf` the run is instrumented
/// and its report folded into the [`crate::perfmon`] aggregate.
pub fn run_cluster(mut cluster: Cluster) -> RunOutcome {
    if crate::perfmon::enabled() {
        cluster.enable_perf(crate::perfmon::probe());
    }
    let outcome = cluster.run();
    if let Some(p) = &outcome.perf {
        crate::perfmon::record(p);
    }
    outcome
}

fn adapt(mut p: Box<dyn Pattern>) -> WorkloadFn {
    Box::new(move |period| p.tracks_at(period))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::quick_predictor;

    fn quick_cfg(policy: PolicySpec, max: u64) -> ScenarioConfig {
        let mut c = ScenarioConfig::paper(
            PatternSpec::Triangular { half_period: 10 },
            policy,
            max,
        );
        c.n_periods = 40;
        c
    }

    #[test]
    fn light_load_meets_all_deadlines_without_adaptation() {
        let r = run_scenario(&quick_cfg(PolicySpec::None, 2_000), &quick_predictor());
        assert_eq!(r.summary.missed_deadline_pct, 0.0, "{:?}", r.summary);
        assert!(r.summary.avg_replicas >= 1.0 && r.summary.avg_replicas < 1.01);
        assert_eq!(r.policy, "static");
    }

    #[test]
    fn heavy_load_without_adaptation_misses_deadlines() {
        let r = run_scenario(&quick_cfg(PolicySpec::None, 17_500), &quick_predictor());
        assert!(
            r.summary.missed_deadline_pct > 10.0,
            "static placement must collapse at max workload: {:?}",
            r.summary
        );
    }

    #[test]
    fn predictive_policy_rescues_heavy_load() {
        let p = quick_predictor();
        let none = run_scenario(&quick_cfg(PolicySpec::None, 14_000), &p);
        let pred = run_scenario(&quick_cfg(PolicySpec::Predictive, 14_000), &p);
        assert!(
            pred.summary.missed_deadline_pct < none.summary.missed_deadline_pct,
            "predictive {:?} vs static {:?}",
            pred.summary,
            none.summary
        );
        assert!(pred.summary.avg_replicas > 1.0, "replication happened");
        assert!(pred.summary.placement_changes > 0);
    }

    #[test]
    fn nonpredictive_uses_more_replicas_than_predictive() {
        let p = quick_predictor();
        let pred = run_scenario(&quick_cfg(PolicySpec::Predictive, 14_000), &p);
        let nonp = run_scenario(&quick_cfg(PolicySpec::NonPredictive, 14_000), &p);
        assert!(
            nonp.summary.avg_replicas > pred.summary.avg_replicas,
            "paper's headline resource contrast: non-predictive {} vs predictive {}",
            nonp.summary.avg_replicas,
            pred.summary.avg_replicas
        );
    }

    #[test]
    fn results_are_deterministic() {
        let p = quick_predictor();
        let a = run_scenario(&quick_cfg(PolicySpec::Predictive, 10_000), &p);
        let b = run_scenario(&quick_cfg(PolicySpec::Predictive, 10_000), &p);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn pattern_spec_builds_all_variants() {
        let range = WorkloadRange::new(100, 1_000);
        for (spec, name) in [
            (PatternSpec::Increasing { ramp_periods: 10 }, "increasing-ramp"),
            (PatternSpec::Decreasing { ramp_periods: 10 }, "decreasing-ramp"),
            (PatternSpec::Triangular { half_period: 5 }, "triangular"),
            (PatternSpec::Step { low: 2, high: 2 }, "step"),
            (PatternSpec::Burst { every: 5, width: 1 }, "burst"),
            (PatternSpec::Sinusoid { wavelength: 10 }, "sinusoid"),
            (PatternSpec::RandomWalk { max_step: 50, seed: 1 }, "random-walk"),
        ] {
            let mut p = spec.build(range);
            assert_eq!(spec.name(), name);
            assert_eq!(p.name(), name);
            for i in 0..20 {
                let v = p.tracks_at(i);
                assert!((100..=1_000).contains(&v), "{name} out of range: {v}");
            }
        }
    }

    #[test]
    fn paper_cluster_passes_the_fast_path_flag_through() {
        for fast in [false, true] {
            let mut cluster = paper_cluster(7, SimDuration::from_secs(5), 0.10, fast, |_| {});
            cluster.enable_perf(None);
            let perf = cluster.run().perf.expect("perf was enabled");
            assert_eq!(
                perf.elided_bg_polls > 0,
                fast,
                "bg_fast_path = {fast}: {} elided background polls",
                perf.elided_bg_polls
            );
        }
    }
}
