//! Figures 9–13: the evaluation sweeps.
//!
//! Every figure sweeps the maximum workload (scale unit = 500 tracks) and
//! compares the predictive and non-predictive algorithms:
//!
//! * Fig. 9 (a–d) — triangular pattern: missed-deadline %, average CPU
//!   utilization, average network utilization, average subtask replicas;
//! * Fig. 10 — triangular pattern: combined metric;
//! * Fig. 11 / 12 (a–d) — increasing / decreasing ramps, same four
//!   metrics;
//! * Fig. 13 (a, b) — combined metric for both ramps, including the
//!   extended-workload run behind the paper's §5.2 claim that the ranking
//!   fluctuates beyond the threshold workload.
//!
//! Each figure function renders the sweep points it is handed; the caller
//! runs each sweep once with [`paper_sweep`] and passes it to every figure
//! built from it (9+10 share the triangular sweep, 11+13(a) the
//! increasing ramp, 12+13(b) the decreasing ramp).

use super::{FigureOptions, FigureOutput};
use crate::report::{ascii_chart, fmt_f, Series, Table};
use crate::scenario::{PatternSpec, PolicySpec};
use crate::sweep::{points_for, run_sweep, SweepConfig, SweepPoint};

/// The workload patterns of the paper's evaluation figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperPattern {
    /// Figs. 9 and 10.
    Triangular,
    /// Figs. 11 and 13(a).
    Increasing,
    /// Figs. 12 and 13(b).
    Decreasing,
}

/// Runs the sweep behind one paper pattern under the given options, both
/// policies at every unit. `extended` widens the workload axis past the
/// paper's 35 units (Fig. 13's fluctuation study).
pub fn paper_sweep(pattern: PaperPattern, opts: &FigureOptions, extended: bool) -> Vec<SweepPoint> {
    // Pattern parameterizations, scaled to run length.
    let n = if opts.quick { 40 } else { 240 };
    let spec = match pattern {
        PaperPattern::Triangular => PatternSpec::Triangular { half_period: n / 8 },
        PaperPattern::Increasing => PatternSpec::Increasing { ramp_periods: n },
        PaperPattern::Decreasing => PatternSpec::Decreasing { ramp_periods: n },
    };
    let mut cfg = if opts.quick {
        SweepConfig::quick(spec)
    } else {
        SweepConfig::paper(spec)
    };
    cfg.threads = opts.threads;
    cfg.bg_fast_path = opts.bg_fast_path;
    if extended {
        let top = if opts.quick { 40 } else { 50 };
        let step = if opts.quick { 6 } else { 1 };
        cfg.units = (1..=top).step_by(step).collect();
    }
    run_sweep(&cfg, &opts.predictor())
}

/// Builds the four-metric table + charts from sweep points.
fn metric_tables(points: &[SweepPoint]) -> (Table, String) {
    let mut table = Table::new(vec![
        "max_workload_units",
        "policy",
        "missed_pct",
        "avg_cpu_pct",
        "avg_net_pct",
        "avg_replicas",
        "placement_changes",
    ]);
    for p in points {
        table.row(vec![
            p.units.to_string(),
            p.policy.name().to_string(),
            fmt_f(p.missed_pct),
            fmt_f(p.cpu_pct),
            fmt_f(p.net_pct),
            fmt_f(p.avg_replicas),
            p.placement_changes.to_string(),
        ]);
    }
    let chart = |f: fn(&SweepPoint) -> f64, title: &str| {
        let pred = points_for(points, PolicySpec::Predictive)
            .iter()
            .map(|p| (p.units as f64, f(p)))
            .collect();
        let nonp = points_for(points, PolicySpec::NonPredictive)
            .iter()
            .map(|p| (p.units as f64, f(p)))
            .collect();
        format!(
            "({title})\n{}",
            ascii_chart(
                &[
                    Series {
                        label: "P=predictive",
                        points: pred,
                    },
                    Series {
                        label: "N=non-predictive",
                        points: nonp,
                    },
                ],
                64,
                12,
            )
        )
    };
    let charts = format!(
        "{}\n{}\n{}\n{}",
        chart(|p| p.missed_pct, "a: missed deadlines, %"),
        chart(|p| p.cpu_pct, "b: average CPU utilization, %"),
        chart(|p| p.net_pct, "c: average network utilization, %"),
        chart(|p| p.avg_replicas, "d: average subtask replicas"),
    );
    (table, charts)
}

/// Shared implementation of Figs. 9, 11, 12.
fn four_metric_figure(
    id: &'static str,
    title: &'static str,
    points: &[SweepPoint],
) -> FigureOutput {
    let (table, charts) = metric_tables(points);
    let text = format!("{title}\n\n{}\n{charts}\n", table.render());
    FigureOutput {
        id,
        title,
        text,
        tables: vec![("metrics".into(), table)],
    }
}

/// Shared implementation of Figs. 10 and 13(a)/(b).
fn combined_figure(id: &'static str, title: &'static str, points: &[SweepPoint]) -> FigureOutput {
    let mut table = Table::new(vec!["max_workload_units", "policy", "combined_metric"]);
    for p in points {
        table.row(vec![
            p.units.to_string(),
            p.policy.name().to_string(),
            fmt_f(p.combined),
        ]);
    }
    let pred: Vec<(f64, f64)> = points_for(points, PolicySpec::Predictive)
        .iter()
        .map(|p| (p.units as f64, p.combined))
        .collect();
    let nonp: Vec<(f64, f64)> = points_for(points, PolicySpec::NonPredictive)
        .iter()
        .map(|p| (p.units as f64, p.combined))
        .collect();
    let chart = ascii_chart(
        &[
            Series {
                label: "P=predictive",
                points: pred.clone(),
            },
            Series {
                label: "N=non-predictive",
                points: nonp.clone(),
            },
        ],
        64,
        14,
    );
    // Who wins where (the §5.2 narrative).
    let mut verdicts = String::new();
    let mut pred_wins = 0usize;
    let mut flips = Vec::new();
    let mut last: Option<bool> = None;
    for (p, n) in pred.iter().zip(&nonp) {
        let pw = p.1 <= n.1;
        if pw {
            pred_wins += 1;
        }
        if let Some(prev) = last {
            if prev != pw {
                flips.push(p.0 as u64);
            }
        }
        last = Some(pw);
    }
    use std::fmt::Write as _;
    let _ = writeln!(
        verdicts,
        "predictive wins {pred_wins}/{} points; ranking flips at units {flips:?}",
        pred.len()
    );
    let text = format!("{title}\n\n{}\n{chart}\n{verdicts}", table.render());
    FigureOutput {
        id,
        title,
        text,
        tables: vec![("combined".into(), table)],
    }
}

/// Fig. 9 (a–d): triangular pattern, four metrics.
pub fn fig9(points: &[SweepPoint]) -> FigureOutput {
    four_metric_figure(
        "fig9",
        "Figure 9: Performance for the triangular workload pattern",
        points,
    )
}

/// Fig. 10: triangular pattern, combined metric.
pub fn fig10(points: &[SweepPoint]) -> FigureOutput {
    combined_figure(
        "fig10",
        "Figure 10: Combined performance, triangular pattern",
        points,
    )
}

/// Fig. 11 (a–d): increasing-ramp pattern, four metrics.
pub fn fig11(points: &[SweepPoint]) -> FigureOutput {
    four_metric_figure(
        "fig11",
        "Figure 11: Performance for the increasing-ramp workload pattern",
        points,
    )
}

/// Fig. 12 (a–d): decreasing-ramp pattern, four metrics.
pub fn fig12(points: &[SweepPoint]) -> FigureOutput {
    four_metric_figure(
        "fig12",
        "Figure 12: Performance for the decreasing-ramp workload pattern",
        points,
    )
}

/// Fig. 13 (a): increasing ramp, combined metric (from an extended sweep
/// for the fluctuation study beyond the paper's 35-unit axis).
pub fn fig13a(points: &[SweepPoint]) -> FigureOutput {
    combined_figure(
        "fig13a",
        "Figure 13(a): Combined performance, increasing-ramp pattern",
        points,
    )
}

/// Fig. 13 (b): decreasing ramp, combined metric.
pub fn fig13b(points: &[SweepPoint]) -> FigureOutput {
    combined_figure(
        "fig13b",
        "Figure 13(b): Combined performance, decreasing-ramp pattern",
        points,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep(pattern: PaperPattern, extended: bool) -> Vec<SweepPoint> {
        paper_sweep(pattern, &FigureOptions::quick_for_tests("eval"), extended)
    }

    /// The (unit, policy) cells of a figure's table, in order.
    fn grid(f: &FigureOutput) -> Vec<String> {
        f.tables[0]
            .1
            .to_csv()
            .lines()
            .map(|l| l.split(',').take(2).collect::<Vec<_>>().join(","))
            .collect()
    }

    #[test]
    fn fig9_compares_both_policies_at_every_unit() {
        let f = fig9(&quick_sweep(PaperPattern::Triangular, false));
        // quick sweep: 3 units x 2 policies.
        assert_eq!(f.tables[0].1.len(), 6);
        assert!(f.text.contains("non-predictive"));
        assert!(f.text.contains("average subtask replicas"));
    }

    #[test]
    fn fig10_reports_winner_summary() {
        let f = fig10(&quick_sweep(PaperPattern::Triangular, false));
        assert!(f.text.contains("predictive wins"));
        assert_eq!(f.tables[0].1.len(), 6);
    }

    #[test]
    fn fig13_extended_covers_more_units() {
        let normal = fig13a(&quick_sweep(PaperPattern::Increasing, false));
        let extended = fig13a(&quick_sweep(PaperPattern::Increasing, true));
        assert!(extended.tables[0].1.len() > normal.tables[0].1.len());
    }

    #[test]
    fn figures_built_from_one_sweep_share_its_grid() {
        // fig9 and fig10 render the same triangular sweep: they must agree
        // on the (unit, policy) grid, row for row.
        let points = quick_sweep(PaperPattern::Triangular, false);
        let (a, b) = (fig9(&points), fig10(&points));
        assert_eq!(grid(&a).len(), 7, "header + 3 units x 2 policies");
        assert_eq!(grid(&a), grid(&b));
    }
}
