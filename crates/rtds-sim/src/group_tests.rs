//! Group runs (`ClusterApi::run_group`): every member's outcome must be
//! the outcome of its controller run alone, whether the members agree
//! throughout, split once, or split into several branches.

use super::*;
use crate::load::PoissonLoad;
use crate::metrics::{ForecastResidualStat, ResidualKind};
use crate::pipeline::{PolynomialCost, StageSpec};

/// Replicates the replicable middle stage onto `width(epoch)` nodes at
/// each control epoch. Different scripts agree exactly while their widths
/// do.
struct Scripted {
    name: &'static str,
    width: fn(u64) -> usize,
    epochs: u64,
}

impl Controller for Scripted {
    fn on_period_boundary(
        &mut self,
        _completed: &[PeriodObservation],
        ctx: &ControlContext,
    ) -> Vec<ControlAction> {
        let width = (self.width)(self.epochs);
        self.epochs += 1;
        if ctx.placements[0][1].len() == width {
            return Vec::new();
        }
        vec![ControlAction::SetPlacement {
            task: TaskId(0),
            subtask: SubtaskIdx(1),
            nodes: (1..=width as u32).map(NodeId).collect(),
        }]
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn forecast_residuals(&self) -> Vec<ForecastResidualStat> {
        // A per-controller field: tells apart members that shared the
        // whole run.
        let mut r = ForecastResidualStat::new(0, 1, ResidualKind::Exec);
        r.count = self.epochs + self.name.len() as u64;
        vec![r]
    }
}

fn scripted(name: &'static str, width: fn(u64) -> usize) -> Box<dyn Controller> {
    Box::new(Scripted {
        name,
        width,
        epochs: 0,
    })
}

fn workload(i: u64) -> u64 {
    600 + 150 * (i % 7)
}

/// A cluster exercising every forked part: jittered releases, Poisson
/// load on each node, a lossy and duplicating bus with retransmission, a
/// crash–restart and a trace.
fn cluster(fast: bool) -> Cluster {
    let mut c = ClusterConfig::paper_baseline(9, SimDuration::from_secs(16));
    c.release_jitter_us = 3_000;
    c.bus.drop_prob = 0.05;
    c.bus.dup_prob = 0.02;
    c.bus.retx_timeout_us = 30_000;
    c.bg_fast_path = fast;
    let mut cl = Cluster::new(c);
    cl.add_task(
        TaskSpec {
            id: TaskId(0),
            name: "group".into(),
            period: SimDuration::from_secs(1),
            deadline: SimDuration::from_millis(990),
            track_bytes: 80,
            stages: [(2.0, false, 0), (6.0, true, 1), (1.0, false, 5)]
                .iter()
                .map(|&(lin, replicable, home)| StageSpec {
                    name: format!("s{home}"),
                    cost: PolynomialCost::linear(lin, 1.0),
                    replicable,
                    home: NodeId(home),
                    output_bytes_per_track: 80.0,
                })
                .collect(),
        },
        Box::new(workload),
    );
    for n in 0..6 {
        cl.add_load(Box::new(PoissonLoad::with_utilization(
            crate::ids::LoadGenId(n),
            NodeId(n),
            0.2,
            SimDuration::from_millis(2),
        )));
    }
    cl.crash_node_at(NodeId(4), SimTime::from_secs(7), Some(SimDuration::from_secs(3)));
    cl.enable_trace(1 << 14);
    cl.enable_perf(None);
    cl
}

/// Everything deterministic a run reports.
fn observables(o: &RunOutcome) -> String {
    format!(
        "controller={}\nmetrics={:?}\ntrace={}",
        o.controller,
        o.metrics,
        o.trace.as_ref().map(|t| t.render()).unwrap_or_default()
    )
}

fn solo(fast: bool, controller: Box<dyn Controller>) -> RunOutcome {
    let mut cl = cluster(fast);
    cl.set_controller(controller);
    cl.run()
}

/// Runs the group and returns each member's outcome in member order,
/// checking that every member is delivered exactly once.
fn group(fast: bool, controllers: Vec<Box<dyn Controller>>) -> Vec<RunOutcome> {
    let n = controllers.len();
    let mut out: Vec<Option<RunOutcome>> = (0..n).map(|_| None).collect();
    cluster(fast)
        .run_group(
            controllers,
            &mut || vec![Box::new(workload) as WorkloadFn],
            &mut |i, o| assert!(out[i].replace(o).is_none(), "member {i} delivered twice"),
        )
        .expect("forkable group");
    out.into_iter()
        .map(|o| o.expect("every member delivered"))
        .collect()
}

/// Checks each member against its solo run and returns the group's perf
/// reports summed.
fn check_group(make: &dyn Fn() -> Vec<Box<dyn Controller>>) -> PerfReport {
    let mut total = PerfReport::default();
    for fast in [true, false] {
        let outcomes = group(fast, make());
        total = PerfReport::default();
        for (i, (o, c)) in outcomes.iter().zip(make()).enumerate() {
            let alone = solo(fast, c);
            assert_eq!(
                observables(o),
                observables(&alone),
                "member {i} (fast path {fast}) differs from its solo run"
            );
            total.merge(o.perf.as_ref().expect("perf was enabled"));
        }
    }
    total
}

fn early(_: u64) -> usize {
    1
}

fn grow_at_4(e: u64) -> usize {
    if e < 4 {
        1
    } else {
        3
    }
}

fn grow_at_9(e: u64) -> usize {
    if e < 9 {
        1
    } else {
        2
    }
}

#[test]
fn members_that_always_agree_share_the_whole_run() {
    let perf = check_group(&|| vec![scripted("a", grow_at_4), scripted("bb", grow_at_4)]);
    assert_eq!(perf.forks, 0);
    // Releases at 0..=15 s (the jittered 16 s one falls past the horizon).
    assert_eq!(perf.shared_epochs, 16, "one shared epoch per release");
    assert_eq!(perf.control_epochs, 2 * 16, "each member is asked at each epoch");
}

#[test]
fn members_split_at_their_first_differing_epoch() {
    let perf = check_group(&|| vec![scripted("late", grow_at_9), scripted("early", grow_at_4)]);
    assert_eq!(perf.forks, 1);
    // Epochs 0..=4 are shared; epoch 4 is where the lists differ.
    assert_eq!(perf.shared_epochs, 5);
    assert_eq!(perf.control_epochs, 2 * 5 + 2 * 11);
}

#[test]
fn three_members_split_into_two_branches() {
    let perf = check_group(&|| {
        vec![
            scripted("x", grow_at_9),
            scripted("y", grow_at_4),
            scripted("z", grow_at_9),
        ]
    });
    assert_eq!(perf.forks, 1);
    // 5 epochs shared by all three, then x and z share epochs 5..=15.
    assert_eq!(perf.shared_epochs, 5 + 11);
    assert_eq!(perf.control_epochs, 3 * 5 + 3 * 11);
}

#[test]
fn a_group_of_one_is_a_plain_run() {
    let outcomes = group(true, vec![scripted("solo", grow_at_4)]);
    let alone = solo(true, scripted("solo", grow_at_4));
    assert_eq!(observables(&outcomes[0]), observables(&alone));
    let perf = outcomes[0].perf.as_ref().expect("perf was enabled");
    assert_eq!((perf.forks, perf.shared_epochs), (0, 0));
}

#[test]
fn only_the_first_sharing_member_carries_the_perf_report() {
    let outcomes = group(true, vec![scripted("a", early), scripted("b", early)]);
    let first = outcomes[0].perf.as_ref().expect("perf was enabled");
    let second = outcomes[1].perf.as_ref().expect("perf was enabled");
    assert!(first.total_events() > 0);
    assert_eq!(format!("{second:?}"), format!("{:?}", PerfReport::default()));
}

/// A generator that cannot fork (the trait default).
struct Opaque(PoissonLoad);

impl LoadGenerator for Opaque {
    fn node(&self) -> NodeId {
        self.0.node()
    }
    fn first_at(&self, rng: &mut crate::rng::SimRng) -> SimTime {
        self.0.first_at(rng)
    }
    fn arrive(&mut self, now: SimTime, rng: &mut crate::rng::SimRng) -> crate::load::LoadArrival {
        self.0.arrive(now, rng)
    }
    fn target_utilization(&self) -> f64 {
        self.0.target_utilization()
    }
}

fn opaque() -> Box<dyn LoadGenerator> {
    Box::new(Opaque(PoissonLoad::with_utilization(
        crate::ids::LoadGenId(6),
        NodeId(2),
        0.1,
        SimDuration::from_millis(2),
    )))
}

#[test]
fn a_generator_that_cannot_fork_is_rejected_before_the_run() {
    let mut cl = cluster(true);
    cl.add_load(opaque());
    let mut calls = 0;
    let err = cl
        .run_group(
            vec![scripted("a", early), scripted("b", grow_at_4)],
            &mut || {
                calls += 1;
                vec![Box::new(workload) as WorkloadFn]
            },
            &mut |i, _| panic!("member {i} ran although the group was rejected"),
        )
        .expect_err("a non-forkable generator must be rejected");
    assert!(err.contains("load generator 6 cannot fork"), "{err}");
    assert_eq!(calls, 0);

    // A group of one never forks, so the same generator is fine.
    let mut cl = cluster(true);
    cl.add_load(opaque());
    let mut ran = 0;
    cl.run_group(vec![scripted("a", early)], &mut Vec::new, &mut |_, _| ran += 1)
        .expect("a group of one needs no fork");
    assert_eq!(ran, 1);
}

#[test]
fn an_empty_group_is_rejected() {
    let err = cluster(true)
        .run_group(Vec::new(), &mut Vec::new, &mut |_, _| {})
        .expect_err("no controllers");
    assert!(err.contains("at least one controller"), "{err}");
}
