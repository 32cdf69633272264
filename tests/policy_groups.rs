//! Policy groups: a sweep runs the policies of each grid point as one
//! group that shares the simulation until their decisions first differ
//! (`run_policies`, `ClusterApi::run_group`). Every policy's result must
//! still be exactly its independent `run_scenario` run: full metrics,
//! trace and decisions, for groups that never split, split late and
//! split early, on both background paths, on a clean and on a degraded
//! network.

use rtds::experiments::models::quick_predictor;
use rtds::experiments::scenario::{
    run_policies, run_scenario, CrashFault, FaultPlan, ObserveConfig, PatternSpec, PolicySpec,
    ScenarioConfig, ScenarioResult,
};
use rtds::experiments::sweep::{deterministic_csv, run_sweep, SweepConfig, SweepPoint};
use rtds::experiments::TRACKS_PER_UNIT;
use rtds::workloads::WorkloadRange;
use rtds_sim::net::JamWindow;

const PERIODS: u64 = 50;
const POLICIES: [PolicySpec; 2] = [PolicySpec::Predictive, PolicySpec::NonPredictive];
const UNITS: [u64; 3] = [4, 17, 28];

/// The degraded-network plan of the benchmark's `degraded_net` workload:
/// 10 % loss, 2 % duplication, 80 ms retransmit timeout, a recurring
/// quarter-bandwidth jam, and node 2 crashing at 40 s for 10 s.
fn degraded() -> FaultPlan {
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

fn patterns() -> [PatternSpec; 3] {
    [
        PatternSpec::Triangular {
            half_period: PERIODS / 8,
        },
        PatternSpec::Increasing {
            ramp_periods: PERIODS,
        },
        PatternSpec::Decreasing {
            ramp_periods: PERIODS,
        },
    ]
}

/// The sweep of one matrix cell, as `SweepConfig::quick` would set it up.
fn sweep(pattern: PatternSpec, seed: u64, faults: &FaultPlan, fast: bool) -> SweepConfig {
    SweepConfig {
        units: UNITS.to_vec(),
        n_periods: PERIODS,
        seed,
        threads: 1,
        faults: faults.clone(),
        bg_fast_path: fast,
        ..SweepConfig::quick(pattern)
    }
}

/// The scenario `run_sweep` runs for one grid point and policy.
fn scenario(s: &SweepConfig, units: u64, policy: PolicySpec, observe: bool) -> ScenarioConfig {
    let max_tracks = units * TRACKS_PER_UNIT;
    ScenarioConfig {
        pattern: s.pattern,
        policy,
        workload: WorkloadRange::new(500.min(max_tracks), max_tracks),
        n_periods: s.n_periods,
        ambient_util: s.ambient_util,
        seed: s.seed,
        scheduler: rtds_sim::sched::SchedulerKind::paper_baseline(),
        online_refinement: false,
        failures: Vec::new(),
        faults: s.faults.clone(),
        observe: if observe {
            ObserveConfig::full()
        } else {
            ObserveConfig::default()
        },
        bg_fast_path: s.bg_fast_path,
    }
}

/// Every observable of a run, rendered to comparable text (`RunMetrics`
/// has no `PartialEq`; its Debug rendering is exact).
fn observables(r: &ScenarioResult) -> String {
    let trace = r.trace.as_ref().map(|t| t.render()).unwrap_or_default();
    format!(
        "policy={}\nmetrics={:?}\nsummary={:?}\nbreakdown={:?}\ntrace={trace}\ndecisions={:?}",
        r.policy, r.metrics, r.summary, r.breakdown, r.decisions,
    )
}

/// The first period at which the two runs' placements differ, if any.
fn divergence(a: &ScenarioResult, b: &ScenarioResult) -> Option<usize> {
    let reps = |r: &ScenarioResult| -> Vec<Vec<u32>> {
        r.metrics
            .periods
            .iter()
            .map(|p| p.replicas_per_stage.clone())
            .collect()
    };
    let (a, b) = (reps(a), reps(b));
    a.iter().zip(&b).position(|(x, y)| x != y)
}

#[test]
fn grouped_policies_reproduce_their_solo_runs() {
    let predictor = quick_predictor();
    let (mut never, mut late, mut early) = (0, 0, 0);
    for seed in [0x5EED_u64, 3, 5] {
        for pattern in patterns() {
            for faults in [FaultPlan::default(), degraded()] {
                for fast in [true, false] {
                    let s = sweep(pattern, seed, &faults, fast);
                    let cell = format!(
                        "seed {seed:#x}, {pattern:?}, faults {}, fast path {fast}",
                        faults.is_active()
                    );
                    // Observe traces and decisions on one seed; the rest
                    // compare metrics only.
                    let observe = seed == 0x5EED;
                    let mut solo_points = Vec::new();
                    for units in UNITS {
                        let solo: Vec<ScenarioResult> = POLICIES
                            .iter()
                            .map(|&p| run_scenario(&scenario(&s, units, p, observe), &predictor))
                            .collect();
                        let mut grouped: Vec<Option<ScenarioResult>> = vec![None, None];
                        let cfg = scenario(&s, units, POLICIES[0], observe);
                        run_policies(&cfg, &POLICIES, &predictor, |i, r| {
                            assert!(grouped[i].replace(r).is_none(), "policy {i} twice");
                        });
                        for (i, (g, alone)) in grouped.iter().zip(&solo).enumerate() {
                            let g = g.as_ref().expect("every policy delivered");
                            assert_eq!(
                                observables(g),
                                observables(alone),
                                "{cell}, units {units}: {} differs from its solo run",
                                POLICIES[i].name()
                            );
                        }
                        match divergence(&solo[0], &solo[1]) {
                            None => never += 1,
                            Some(k) if k > PERIODS as usize / 2 => late += 1,
                            Some(_) => early += 1,
                        }
                        for (&policy, r) in POLICIES.iter().zip(&solo) {
                            solo_points.push(SweepPoint {
                                units,
                                policy,
                                missed_pct: r.summary.missed_deadline_pct,
                                cpu_pct: r.summary.avg_cpu_util_pct,
                                net_pct: r.summary.avg_net_util_pct,
                                avg_replicas: r.summary.avg_replicas,
                                combined: r.breakdown.combined,
                                placement_changes: r.summary.placement_changes,
                                wall_ms: 0.0,
                            });
                        }
                    }
                    assert_eq!(
                        deterministic_csv(&run_sweep(&s, &predictor)),
                        deterministic_csv(&solo_points),
                        "{cell}: run_sweep differs from per-policy run_scenario"
                    );
                }
            }
        }
    }
    // The matrix must exercise every case: groups that never split, that
    // split in the second half of the run, and that split early.
    assert!(
        never > 0 && late > 0 && early > 0,
        "never {never}, late {late}, early {early}"
    );
}

#[test]
fn three_policies_group_like_their_solo_runs() {
    // Non-predictive and incremental both answer an overload with more
    // replicas but differ in how many; static never acts. Three members
    // exercise a split that leaves two of them sharing.
    let predictor = quick_predictor();
    let policies = [PolicySpec::None, PolicySpec::Incremental, PolicySpec::NonPredictive];
    let s = sweep(patterns()[0], 0x5EED, &FaultPlan::default(), true);
    for units in UNITS {
        let cfg = scenario(&s, units, policies[0], true);
        let mut seen = 0;
        run_policies(&cfg, &policies, &predictor, |i, r| {
            let alone = run_scenario(&scenario(&s, units, policies[i], true), &predictor);
            assert_eq!(observables(&r), observables(&alone), "units {units}, member {i}");
            seen += 1;
        });
        assert_eq!(seen, policies.len());
    }
}
