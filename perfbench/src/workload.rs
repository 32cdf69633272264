//! The three benchmark workloads: their inputs (generated from the
//! benchmark seed), their set-up, and the batch of simulation runs they
//! repeat.
//!
//! A workload is a fixed batch of simulation [`Point`]s plus the predictor
//! the batch needs. Untraced runs go through the program's public entry
//! points (`run_campaign`, `predictor_from_profile`, `quick_predictor`,
//! `run_sweep`); traced runs assemble the same clusters themselves so
//! that decorators can sit on the `Controller` and `LoadGenerator` seams
//! (see [`crate::layers`]), and are checked against the untraced runs.

use rtds_arm::config::ArmConfig;
use rtds_arm::manager::ResourceManager;
use rtds_arm::metrics::combined_breakdown;
use rtds_arm::predictor::Predictor;
use rtds_dynbench::app::aaw_task;
use rtds_experiments::models::{predictor_from_profile, quick_predictor, run_campaign};
use rtds_experiments::scenario::{
    replicable_stage_indices, run_scenario, CrashFault, FaultPlan, ObserveConfig, PatternSpec,
    PolicySpec, ScenarioConfig,
};
use rtds_experiments::sweep::{SweepConfig, SweepPoint, TRACKS_PER_UNIT};
use rtds_sim::clock::ClockConfig;
use rtds_sim::cluster::{Cluster, ClusterApi, ClusterConfig};
use rtds_sim::control::Controller;
use rtds_sim::ids::{LoadGenId, NodeId};
use rtds_sim::load::{LoadGenerator, PoissonLoad};
use rtds_sim::metrics::{RunMetrics, RunSummary};
use rtds_sim::net::JamWindow;
use rtds_sim::sched::SchedulerKind;
use rtds_sim::time::{SimDuration, SimTime};
use rtds_workloads::WorkloadRange;

/// Nodes in the `ambient_64` cluster.
const AMBIENT_NODES: usize = 64;
/// Per-node ambient utilization of `ambient_64`.
const AMBIENT_UTIL: f64 = 0.60;
/// Simulated seconds of one `ambient_64` run. Short runs (~50 ms of host
/// time each) let the best-repetition rate find undisturbed stretches on a
/// shared machine; see `README.md`, "Steadiness".
const AMBIENT_HORIZON_S: u64 = 5;
/// Runs (seeds) in one `ambient_64` batch: 120 simulated seconds in all.
const AMBIENT_RUNS: u64 = 24;
/// Set-ups per process on the workloads without a profiling campaign.
const SMALL_SETUP_REPS: usize = 11;
/// Nodes of the paper's Table 1 system.
const PAPER_NODES: usize = 6;
/// Periods of every paper-scale run.
const PAPER_PERIODS: u64 = 240;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's evaluation: three patterns × 1–35 units × both policies.
    PaperEval,
    /// 64 nodes of Poisson ambient load, no task, no controller.
    Ambient64,
    /// Predictive policy on a lossy, jammed bus with a crash–restart.
    DegradedNet,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_eval" => Some(Workload::PaperEval),
            "ambient_64" => Some(Workload::Ambient64),
            "degraded_net" => Some(Workload::DegradedNet),
            _ => None,
        }
    }

    /// The name `BENCHMARK.json` gives the workload.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEval => "paper_eval",
            Workload::Ambient64 => "ambient_64",
            Workload::DegradedNet => "degraded_net",
        }
    }

    /// Whether the workload runs the task and the resource manager.
    pub fn has_task(self) -> bool {
        self != Workload::Ambient64
    }

    /// Nodes of every cluster of the workload.
    pub fn n_nodes(self) -> usize {
        match self {
            Workload::Ambient64 => AMBIENT_NODES,
            Workload::PaperEval | Workload::DegradedNet => PAPER_NODES,
        }
    }

    /// How many times set-up is repeated before the first batch, and again
    /// after each batch; the median of all is `setup_s`.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::PaperEval => 5,
            Workload::Ambient64 | Workload::DegradedNet => SMALL_SETUP_REPS,
        }
    }

    /// The sweeps whose points make up the batch, if the workload is a
    /// sweep; untraced batches run them through `run_sweep`.
    pub fn sweeps(self, sim_seed: u64) -> Vec<SweepConfig> {
        let base = |pattern| SweepConfig {
            n_periods: PAPER_PERIODS,
            seed: sim_seed,
            threads: 1,
            ..SweepConfig::paper(pattern)
        };
        match self {
            Workload::PaperEval => vec![
                base(PatternSpec::Triangular {
                    half_period: PAPER_PERIODS / 8,
                }),
                base(PatternSpec::Increasing {
                    ramp_periods: PAPER_PERIODS,
                }),
                base(PatternSpec::Decreasing {
                    ramp_periods: PAPER_PERIODS,
                }),
            ],
            Workload::DegradedNet => vec![SweepConfig {
                units: (20..=35).collect(),
                policies: vec![PolicySpec::Predictive],
                ambient_util: 0.0,
                faults: degraded_faults(),
                ..base(PatternSpec::Triangular {
                    half_period: PAPER_PERIODS / 8,
                })
            }],
            Workload::Ambient64 => Vec::new(),
        }
    }

    /// The batch of simulation runs, in `run_sweep` order.
    pub fn points(self, sim_seed: u64) -> Vec<Point> {
        if self == Workload::Ambient64 {
            return (0..AMBIENT_RUNS)
                .map(|k| Point::Ambient {
                    seed: sim_seed.wrapping_add(k),
                })
                .collect();
        }
        let mut points = Vec::new();
        for sweep in self.sweeps(sim_seed) {
            for &units in &sweep.units {
                for &policy in &sweep.policies {
                    points.push(Point::Scenario(Box::new(sweep_scenario(
                        &sweep, units, policy,
                    ))));
                }
            }
        }
        points
    }

    /// Builds the predictor the batch runs with.
    pub fn predictor(self) -> Option<Predictor> {
        match self {
            Workload::PaperEval => Some(predictor_from_profile(&run_campaign())),
            Workload::DegradedNet => Some(quick_predictor()),
            Workload::Ambient64 => None,
        }
    }

    /// Everything a batch needs before its first simulated event.
    pub fn prepare(self, sim_seed: u64) -> Prepared {
        Prepared {
            predictor: self.predictor(),
            sweeps: self.sweeps(sim_seed),
            points: self.points(sim_seed),
        }
    }
}

/// The failure plan of `degraded_net`: 10 % loss, 2 % duplication, 80 ms
/// retransmit timeout, a 2 s quarter-bandwidth jam every 20 s, and node 2
/// crashing at 40 s for 10 s.
fn degraded_faults() -> FaultPlan {
    FaultPlan {
        drop_prob: 0.10,
        dup_prob: 0.02,
        retx_timeout_us: 80_000,
        jam: Some(JamWindow {
            start_us: 10_000_000,
            duration_us: 2_000_000,
            bandwidth_factor: 0.25,
            repeat_us: 20_000_000,
        }),
        crashes: vec![CrashFault {
            node: 2,
            at_s: 40,
            restart_after_s: Some(10),
        }],
    }
}

/// The scenario `run_sweep` runs for one grid point.
fn sweep_scenario(sweep: &SweepConfig, units: u64, policy: PolicySpec) -> ScenarioConfig {
    let max_tracks = units * TRACKS_PER_UNIT;
    ScenarioConfig {
        pattern: sweep.pattern,
        policy,
        workload: WorkloadRange::new(500.min(max_tracks), max_tracks),
        n_periods: sweep.n_periods,
        ambient_util: sweep.ambient_util,
        seed: sweep.seed,
        scheduler: SchedulerKind::paper_baseline(),
        online_refinement: false,
        failures: Vec::new(),
        faults: sweep.faults.clone(),
        observe: ObserveConfig::default(),
        bg_fast_path: sweep.bg_fast_path,
    }
}

/// The fixed ARM scenario whose outcome stands in for the outcome metrics
/// of a workload without a task (`ambient_64`): the paper's triangular
/// pattern at 35 units under the predictive policy, seed `0x5EED`.
pub fn reference_scenario() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(
        PatternSpec::Triangular {
            half_period: PAPER_PERIODS / 8,
        },
        PolicySpec::Predictive,
        35 * TRACKS_PER_UNIT,
    );
    cfg.n_periods = PAPER_PERIODS;
    cfg
}

/// The predictor and the batch of one set-up.
pub struct Prepared {
    /// `None` for workloads without a controller.
    pub predictor: Option<Predictor>,
    /// The sweeps of the batch; empty for `ambient_64`.
    pub sweeps: Vec<SweepConfig>,
    /// The batch, one point per run, in `run_sweep` order.
    pub points: Vec<Point>,
}

/// One simulation run.
#[derive(Debug, Clone)]
pub enum Point {
    /// A paper-system scenario, run through `run_scenario`.
    Scenario(Box<ScenarioConfig>),
    /// The `ambient_64` cluster.
    Ambient {
        /// Cluster seed.
        seed: u64,
    },
}

/// A decorator: wraps a trait object in another of the same trait.
pub type Decorate<'a, T> = &'a dyn Fn(Box<T>) -> Box<T>;

/// The decorators a traced assembly installs; `None` assembles plainly.
pub struct Wrap<'a> {
    /// Wraps the resource manager.
    pub controller: Decorate<'a, dyn Controller>,
    /// Wraps each background generator, if set.
    pub load: Option<Decorate<'a, dyn LoadGenerator>>,
}

/// The fields of one run that `run_sweep` reports, and that every way of
/// running the same point must reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Missed-deadline percentage (the paper's MD).
    pub missed_pct: f64,
    /// Average CPU utilization, percent.
    pub cpu_pct: f64,
    /// Average network utilization, percent.
    pub net_pct: f64,
    /// Average replicas per replicable stage (the paper's R̄).
    pub avg_replicas: f64,
    /// The combined metric `C`.
    pub combined: f64,
    /// Placement changes over the run.
    pub placement_changes: u64,
    /// Whether the run used the predictive policy.
    pub predictive: bool,
}

impl From<&SweepPoint> for Row {
    fn from(p: &SweepPoint) -> Self {
        Row {
            missed_pct: p.missed_pct,
            cpu_pct: p.cpu_pct,
            net_pct: p.net_pct,
            avg_replicas: p.avg_replicas,
            combined: p.combined,
            placement_changes: p.placement_changes,
            predictive: p.policy == PolicySpec::Predictive,
        }
    }
}

/// The deterministic outcome of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// The paper's per-run summary.
    pub summary: RunSummary,
    /// The combined metric `C`.
    pub combined: f64,
    /// Whether the run used the predictive policy.
    pub predictive: bool,
    /// Simulated node-seconds the run advanced.
    pub node_s: f64,
}

impl Outcome {
    /// The fields `run_sweep` reports for the same run.
    pub fn row(&self) -> Row {
        let s = &self.summary;
        Row {
            missed_pct: s.missed_deadline_pct,
            cpu_pct: s.avg_cpu_util_pct,
            net_pct: s.avg_net_util_pct,
            avg_replicas: s.avg_replicas,
            combined: self.combined,
            placement_changes: s.placement_changes,
            predictive: self.predictive,
        }
    }
}

impl Point {
    /// Simulated node-seconds of the run.
    pub fn node_s(&self) -> f64 {
        match self {
            Point::Scenario(cfg) => (PAPER_NODES as u64 * cfg.n_periods) as f64,
            Point::Ambient { .. } => (AMBIENT_NODES as u64 * AMBIENT_HORIZON_S) as f64,
        }
    }

    /// Runs the point through the program's own entry point, untraced.
    pub fn run(&self, predictor: Option<&Predictor>) -> Outcome {
        match self {
            Point::Scenario(cfg) => {
                let r = run_scenario(cfg, predictor.expect("scenario points need a predictor"));
                self.outcome(r.summary)
            }
            Point::Ambient { .. } => {
                let metrics = self.assemble(predictor, None).run().metrics;
                self.outcome_of(&metrics)
            }
        }
    }

    /// Assembles the cluster exactly as `run_scenario` does (or, for the
    /// ambient point, as the benchmark defines it), optionally with
    /// decorators on the controller and the background generators.
    pub fn assemble(&self, predictor: Option<&Predictor>, wrap: Option<&Wrap>) -> Cluster {
        let wrap_load = |g: Box<dyn LoadGenerator>| match wrap.and_then(|w| w.load) {
            Some(load) => load(g),
            None => g,
        };
        match self {
            Point::Ambient { seed } => {
                let mut cc =
                    ClusterConfig::paper_baseline(*seed, SimDuration::from_secs(AMBIENT_HORIZON_S));
                cc.n_nodes = AMBIENT_NODES;
                let mut cluster = Cluster::new(cc);
                for n in 0..AMBIENT_NODES as u32 {
                    cluster.add_load(wrap_load(Box::new(PoissonLoad::with_utilization(
                        LoadGenId(n),
                        NodeId(n),
                        AMBIENT_UTIL,
                        SimDuration::from_millis(2),
                    ))));
                }
                cluster
            }
            Point::Scenario(cfg) => {
                let mut cc =
                    ClusterConfig::paper_baseline(cfg.seed, SimDuration::from_secs(cfg.n_periods));
                cc.clock = ClockConfig::lan_default();
                cc.scheduler = cfg.scheduler;
                cc.bus.drop_prob = cfg.faults.drop_prob;
                cc.bus.dup_prob = cfg.faults.dup_prob;
                cc.bus.retx_timeout_us = cfg.faults.retx_timeout_us;
                cc.bus.jam = cfg.faults.jam;
                cc.bg_fast_path = cfg.bg_fast_path;
                let mut cluster = Cluster::new(cc);
                let mut pattern = cfg.pattern.build(cfg.workload);
                cluster.add_task(
                    aaw_task(),
                    Box::new(move |period| pattern.tracks_at(period)),
                );
                if cfg.ambient_util > 0.0 {
                    for n in 0..PAPER_NODES as u32 {
                        cluster.add_load(wrap_load(Box::new(PoissonLoad::with_utilization(
                            LoadGenId(n),
                            NodeId(n),
                            cfg.ambient_util,
                            SimDuration::from_millis(2),
                        ))));
                    }
                }
                let arm = match cfg.policy {
                    PolicySpec::Predictive => Some(ArmConfig::paper_predictive()),
                    PolicySpec::NonPredictive => Some(ArmConfig::paper_nonpredictive()),
                    PolicySpec::Incremental => Some(ArmConfig::incremental()),
                    PolicySpec::None => None,
                };
                if let Some(mut arm) = arm {
                    arm.online_refinement = cfg.online_refinement;
                    let predictor = predictor.expect("a controlled scenario needs a predictor");
                    let manager: Box<dyn Controller> =
                        Box::new(ResourceManager::new(arm, predictor.clone()));
                    cluster.set_controller(match wrap {
                        Some(w) => (w.controller)(manager),
                        None => manager,
                    });
                }
                for &(node, at_s) in &cfg.failures {
                    cluster.fail_node_at(NodeId(node), SimTime::from_secs(at_s));
                }
                for c in &cfg.faults.crashes {
                    cluster.crash_node_at(
                        NodeId(c.node),
                        SimTime::from_secs(c.at_s),
                        c.restart_after_s.map(SimDuration::from_secs),
                    );
                }
                cluster
            }
        }
    }

    /// Reduces raw run metrics to an [`Outcome`], as `run_scenario` does.
    pub fn outcome_of(&self, metrics: &RunMetrics) -> Outcome {
        self.outcome(metrics.summarize(&replicable_stage_indices()))
    }

    fn outcome(&self, summary: RunSummary) -> Outcome {
        let (n_nodes, predictive) = match self {
            Point::Scenario(cfg) => (PAPER_NODES, cfg.policy == PolicySpec::Predictive),
            Point::Ambient { .. } => (AMBIENT_NODES, false),
        };
        Outcome {
            summary,
            combined: combined_breakdown(&summary, n_nodes).combined,
            predictive,
            node_s: self.node_s(),
        }
    }
}
