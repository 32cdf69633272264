//! Fast-path / slow-path equivalence: the background-load fast path
//! (`bg_fast_path`) must be invisible in every observable — metrics,
//! summaries, event traces, and decision-audit records — across seeds,
//! workload patterns, and fault plans. This is the contract that lets
//! the fast path stay on by default while `tests/golden/` and the figure
//! outputs remain byte-stable.

use rtds::experiments::models::quick_predictor;
use rtds::experiments::scenario::{
    run_scenario, CrashFault, FaultPlan, ObserveConfig, PatternSpec, PolicySpec, ScenarioConfig,
    ScenarioResult,
};
use rtds::workloads::WorkloadRange;

fn scenario(
    pattern: PatternSpec,
    seed: u64,
    faults: FaultPlan,
    bg_fast_path: bool,
) -> ScenarioConfig {
    ScenarioConfig {
        pattern,
        policy: PolicySpec::Predictive,
        workload: WorkloadRange::new(500, 10_000),
        n_periods: 30,
        ambient_util: 0.25,
        seed,
        scheduler: rtds_sim::sched::SchedulerKind::paper_baseline(),
        online_refinement: false,
        failures: Vec::new(),
        faults,
        observe: ObserveConfig::full(),
        bg_fast_path,
    }
}

fn faulty_plan() -> FaultPlan {
    FaultPlan {
        drop_prob: 0.10,
        dup_prob: 0.05,
        retx_timeout_us: 20_000,
        jam: None,
        crashes: vec![CrashFault {
            node: 2,
            at_s: 8,
            restart_after_s: Some(3),
        }],
    }
}

/// Every observable of a run, rendered to comparable text. `RunMetrics`
/// intentionally has no `PartialEq` (it carries floats); the Debug
/// rendering is exact and catches any drifted field.
fn observables(r: &ScenarioResult) -> String {
    let trace = r.trace.as_ref().map(|t| t.render()).unwrap_or_default();
    let decisions = format!("{:?}", r.decisions);
    format!(
        "metrics={:?}\nsummary={:?}\nbreakdown={:?}\ntrace={trace}\ndecisions={decisions}",
        r.metrics, r.summary, r.breakdown,
    )
}

#[test]
fn fast_path_matches_slow_path_across_patterns_seeds_and_faults() {
    let predictor = quick_predictor();
    let patterns = [
        PatternSpec::Triangular { half_period: 5 },
        PatternSpec::Increasing { ramp_periods: 30 },
        PatternSpec::Step { low: 5, high: 5 },
    ];
    for pattern in patterns {
        for faults in [FaultPlan::default(), faulty_plan()] {
            for seed in [0x5EED_u64, 1, 0xBAD_CAFE] {
                let on = run_scenario(&scenario(pattern, seed, faults.clone(), true), &predictor);
                let off = run_scenario(&scenario(pattern, seed, faults.clone(), false), &predictor);
                assert_eq!(
                    observables(&on),
                    observables(&off),
                    "fast path diverged: pattern {pattern:?}, seed {seed:#x}, \
                     faults active: {}",
                    faults.is_active(),
                );
            }
        }
    }
}

#[test]
fn fast_path_matches_slow_path_without_ambient_load() {
    // Degenerate case: no generators at all. The fast path must be a
    // strict no-op (no lanes ever armed).
    let predictor = quick_predictor();
    let base = |fast| {
        let mut c = scenario(
            PatternSpec::Triangular { half_period: 5 },
            7,
            FaultPlan::default(),
            fast,
        );
        c.ambient_util = 0.0;
        c
    };
    let on = run_scenario(&base(true), &predictor);
    let off = run_scenario(&base(false), &predictor);
    assert_eq!(observables(&on), observables(&off));
}

/// A pure ambient-load cluster shaped like `rtds-bench`'s
/// `run_large_cluster` (60 % Poisson load of 2 ms mean jobs on every
/// node, no task), on a 2 s horizon. Its deep lane heaps — one dispatch
/// lane and one poll lane per node — are what the lane layer is built
/// for and what the 6-node scenarios above never reach.
fn ambient_cluster_metrics(n_nodes: usize, seed: u64, bg_fast_path: bool) -> String {
    use rtds_sim::prelude::*;
    let mut cfg = ClusterConfig::paper_baseline(seed, SimDuration::from_secs(2));
    cfg.n_nodes = n_nodes;
    cfg.bg_fast_path = bg_fast_path;
    let mut cluster = Cluster::new(cfg);
    for n in 0..n_nodes {
        cluster.add_load(Box::new(PoissonLoad::with_utilization(
            LoadGenId(n as u32),
            NodeId(n as u32),
            0.60,
            SimDuration::from_millis(2),
        )));
    }
    format!("{:?}", cluster.run().metrics)
}

#[test]
fn fast_path_matches_slow_path_on_large_ambient_clusters() {
    for n_nodes in [16, 64] {
        for seed in [0xC1_05E ^ n_nodes as u64, 0x5EED] {
            assert_eq!(
                ambient_cluster_metrics(n_nodes, seed, true),
                ambient_cluster_metrics(n_nodes, seed, false),
                "fast path diverged: {n_nodes} nodes, seed {seed:#x}",
            );
        }
    }
}
