//! Cross-module conservation and sanity properties of whole simulation
//! runs: quantities that must balance no matter the configuration.

use rtds_sim::prelude::*;

fn base_config(seed: u64, secs: u64) -> ClusterConfig {
    let mut c = ClusterConfig::paper_baseline(seed, SimDuration::from_secs(secs));
    c.clock = ClockConfig::perfect();
    c
}

fn three_stage_task(replicable_mid: bool) -> TaskSpec {
    TaskSpec {
        id: TaskId(0),
        name: "probe".into(),
        period: SimDuration::from_secs(1),
        deadline: SimDuration::from_millis(990),
        track_bytes: 80,
        stages: vec![
            StageSpec {
                name: "a".into(),
                cost: PolynomialCost::linear(0.5, 1.0),
                replicable: false,
                home: NodeId(0),
                output_bytes_per_track: 80.0,
            },
            StageSpec {
                name: "b".into(),
                cost: PolynomialCost::new(0.002, 0.8, 0.0),
                replicable: replicable_mid,
                home: NodeId(1),
                output_bytes_per_track: 40.0,
            },
            StageSpec {
                name: "c".into(),
                cost: PolynomialCost::linear(0.3, 1.0),
                replicable: false,
                home: NodeId(2),
                output_bytes_per_track: 8.0,
            },
        ],
    }
}

#[test]
fn network_bytes_balance_exactly() {
    // Every completed period sends stage-a output (80 B/track) and
    // stage-b output (40 B/track) over the bus; offered bytes must equal
    // the sum over released periods that reached each hop.
    let tracks = 1_000u64;
    let mut cl = Cluster::new(base_config(1, 10));
    cl.add_task(three_stage_task(false), Box::new(move |_| tracks));
    let out = cl.run();
    let completed = out
        .metrics
        .periods
        .iter()
        .filter(|p| p.end_to_end.is_some())
        .count() as u64;
    // Hops may be in flight at the horizon; offered >= completed * both
    // hops and <= released * both hops.
    let per_period = tracks * 80 + tracks * 40;
    let released = out.metrics.periods.len() as u64;
    assert!(out.metrics.bytes_offered >= completed * per_period);
    assert!(out.metrics.bytes_offered <= released * per_period);
    // Exactly two bus messages per period that got past stage a and b.
    assert!(out.metrics.messages_offered >= 2 * completed);
}

#[test]
fn utilizations_are_fractions() {
    let mut cl = Cluster::new(base_config(2, 15));
    cl.add_task(three_stage_task(false), Box::new(|i| 500 + i * 200));
    cl.add_load(Box::new(PeriodicLoad::new(
        LoadGenId(0),
        NodeId(3),
        SimDuration::from_millis(10),
        0.6,
    )));
    let out = cl.run();
    for (n, &u) in out.metrics.cpu_lifetime_util.iter().enumerate() {
        assert!((0.0..=1.0).contains(&u), "node {n} utilization {u}");
    }
    assert!((0.0..=1.0).contains(&out.metrics.net_lifetime_util));
    for row in out.metrics.cpu_samples.rows() {
        for &u in row {
            assert!((0.0..=1.000001).contains(&u), "sample {u}");
        }
    }
}

#[test]
fn stage_records_cover_every_completed_instance() {
    let mut cl = Cluster::new(base_config(3, 12));
    cl.add_task(three_stage_task(false), Box::new(|_| 800));
    let out = cl.run();
    let completed: Vec<u64> = out
        .metrics
        .periods
        .iter()
        .filter(|p| p.end_to_end.is_some())
        .map(|p| p.instance)
        .collect();
    for &inst in &completed {
        let rows: Vec<_> = out
            .metrics
            .stage_records
            .iter()
            .filter(|r| r.instance == inst)
            .collect();
        assert_eq!(rows.len(), 3, "one record per stage for instance {inst}");
        // Stage latencies sum to no more than end-to-end (messages add).
        let e2e = out
            .metrics
            .periods
            .iter()
            .find(|p| p.instance == inst)
            .unwrap()
            .end_to_end
            .unwrap()
            .as_millis_f64();
        let exec_sum: f64 = rows.iter().map(|r| r.exec_ms).sum();
        assert!(
            exec_sum <= e2e + 1e-6,
            "instance {inst}: exec sum {exec_sum} vs e2e {e2e}"
        );
        for r in &rows {
            assert!(r.exec_ms >= 0.0 && r.msg_ms >= 0.0);
        }
    }
}

#[test]
fn end_to_end_is_at_least_the_critical_path() {
    // The pipeline cannot beat its intrinsic demand plus wire time.
    let tracks = 2_000u64;
    let task = three_stage_task(false);
    let intrinsic: f64 = task
        .stages
        .iter()
        .map(|s| s.cost.demand(tracks).as_millis_f64())
        .sum();
    let mut cl = Cluster::new(base_config(4, 8));
    cl.add_task(task, Box::new(move |_| tracks));
    let out = cl.run();
    for p in out.metrics.periods.iter().filter(|p| p.end_to_end.is_some()) {
        let e2e = p.end_to_end.unwrap().as_millis_f64();
        assert!(
            e2e >= intrinsic,
            "instance {}: {e2e} ms < intrinsic demand {intrinsic} ms",
            p.instance
        );
    }
}

#[test]
fn replica_counts_in_records_match_placement_history() {
    use rtds_sim::control::{ControlAction, ControlContext, Controller, PeriodObservation};
    use rtds_sim::ids::SubtaskIdx;
    struct GrowAt(u64);
    impl Controller for GrowAt {
        fn on_period_boundary(
            &mut self,
            completed: &[PeriodObservation],
            ctx: &ControlContext,
        ) -> Vec<ControlAction> {
            let past = completed.iter().any(|o| o.instance + 1 >= self.0);
            if past && ctx.placements[0][1].len() == 1 {
                vec![ControlAction::SetPlacement {
                    task: TaskId(0),
                    subtask: SubtaskIdx(1),
                    nodes: vec![NodeId(1), NodeId(4)],
                }]
            } else {
                Vec::new()
            }
        }
        fn name(&self) -> &'static str {
            "grow-at"
        }
    }
    let mut cl = Cluster::new(base_config(5, 14));
    cl.add_task(three_stage_task(true), Box::new(|_| 900));
    cl.set_controller(Box::new(GrowAt(5)));
    let out = cl.run();
    for p in &out.metrics.periods {
        let expect = if p.instance < 5 { 1 } else { 2 };
        assert_eq!(
            p.replicas_per_stage[1], expect,
            "instance {}: replica snapshot",
            p.instance
        );
    }
    // Stage records agree with the snapshots.
    for r in out.metrics.stage_records.iter().filter(|r| r.stage == 1) {
        let expect = if r.instance < 5 { 1 } else { 2 };
        assert_eq!(r.replicas, expect);
    }
}
