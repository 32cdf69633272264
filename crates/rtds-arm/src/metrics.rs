//! The paper's combined performance metric (§5.2).
//!
//! `C = MD + U_CPU + U_Net + R̄ / Max(R)`
//!
//! where `MD` is the missed-deadline percentage, `U_CPU`/`U_Net` the
//! average processor/network utilizations, and `R̄ / Max(R)` the "percentage
//! replica use" — the average replica count over the maximum concurrency
//! the cluster could exploit (bounded by the processor count). All four
//! addends are percentages, so `C ∈ [0, 400]` and **smaller is better**.

use rtds_sim::metrics::RunSummary;

/// Computes the combined metric for a run on an `n_nodes`-processor
/// cluster.
///
/// # Panics
/// Panics if `n_nodes == 0`.
pub fn combined_metric(summary: &RunSummary, n_nodes: usize) -> f64 {
    // Unit weights multiply exactly and keep the summation order, so
    // this is bit-identical to the unweighted sum.
    combined_metric_weighted(summary, n_nodes, &MetricWeights::paper())
}

/// Weights for a generalized combined metric. The paper weights the four
/// components equally; the weighted form lets the robustness of the
/// paper's conclusion be checked against other operator preferences
/// (e.g. timeliness-dominant or resource-dominant valuations).
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct MetricWeights {
    /// Weight on missed-deadline percentage.
    pub missed: f64,
    /// Weight on average CPU utilization.
    pub cpu: f64,
    /// Weight on average network utilization.
    pub net: f64,
    /// Weight on replica-use percentage.
    pub replicas: f64,
}

impl MetricWeights {
    /// The paper's equal weighting.
    pub fn paper() -> Self {
        MetricWeights {
            missed: 1.0,
            cpu: 1.0,
            net: 1.0,
            replicas: 1.0,
        }
    }

    /// A timeliness-dominant valuation (misses 10x as costly).
    pub fn timeliness_dominant() -> Self {
        MetricWeights {
            missed: 10.0,
            ..Self::paper()
        }
    }

    /// A resource-dominant valuation (replica use 5x as costly).
    pub fn resource_dominant() -> Self {
        MetricWeights {
            replicas: 5.0,
            ..Self::paper()
        }
    }
}

/// The weighted combined metric; [`combined_metric`] is the special case
/// of all-ones weights.
///
/// # Panics
/// Panics if `n_nodes == 0` or any weight is negative/non-finite.
pub fn combined_metric_weighted(
    summary: &RunSummary,
    n_nodes: usize,
    w: &MetricWeights,
) -> f64 {
    assert!(n_nodes > 0, "cluster has no processors");
    for v in [w.missed, w.cpu, w.net, w.replicas] {
        assert!(v.is_finite() && v >= 0.0, "weights must be finite and >= 0");
    }
    w.missed * summary.missed_deadline_pct
        + w.cpu * summary.avg_cpu_util_pct
        + w.net * summary.avg_net_util_pct
        + w.replicas * 100.0 * summary.avg_replicas / n_nodes as f64
}

/// The four components, for tabular reports.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct CombinedBreakdown {
    /// Missed-deadline percentage.
    pub missed_pct: f64,
    /// Average CPU utilization, percent.
    pub cpu_pct: f64,
    /// Average network utilization, percent.
    pub net_pct: f64,
    /// Replica use, percent of maximum concurrency.
    pub replica_use_pct: f64,
    /// The sum.
    pub combined: f64,
}

/// Computes the metric with its breakdown.
pub fn combined_breakdown(summary: &RunSummary, n_nodes: usize) -> CombinedBreakdown {
    let combined = combined_metric(summary, n_nodes);
    CombinedBreakdown {
        missed_pct: summary.missed_deadline_pct,
        cpu_pct: summary.avg_cpu_util_pct,
        net_pct: summary.avg_net_util_pct,
        replica_use_pct: 100.0 * summary.avg_replicas / n_nodes as f64,
        combined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(md: f64, cpu: f64, net: f64, replicas: f64) -> RunSummary {
        RunSummary {
            missed_deadline_pct: md,
            avg_cpu_util_pct: cpu,
            avg_net_util_pct: net,
            avg_replicas: replicas,
            decided_periods: 100,
            released_periods: 100,
            placement_changes: 0,
        }
    }

    #[test]
    fn combined_is_sum_of_percentages() {
        let s = summary(10.0, 30.0, 20.0, 3.0);
        // 3 replicas of 6 nodes = 50 % replica use.
        assert!((combined_metric(&s, 6) - 110.0).abs() < 1e-9);
    }

    #[test]
    fn zero_everything_is_zero() {
        assert_eq!(combined_metric(&summary(0.0, 0.0, 0.0, 0.0), 6), 0.0);
    }

    #[test]
    fn smaller_is_better_ordering_holds() {
        let good = summary(0.0, 20.0, 10.0, 1.5);
        let bad = summary(5.0, 18.0, 30.0, 5.5);
        assert!(combined_metric(&good, 6) < combined_metric(&bad, 6));
    }

    #[test]
    fn breakdown_sums_to_combined() {
        let s = summary(7.0, 33.0, 12.0, 2.4);
        let b = combined_breakdown(&s, 6);
        assert!((b.combined - combined_metric(&s, 6)).abs() < 1e-12);
        assert!((b.replica_use_pct - 40.0).abs() < 1e-9);
        assert!(
            (b.missed_pct + b.cpu_pct + b.net_pct + b.replica_use_pct - b.combined).abs() < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "no processors")]
    fn zero_nodes_panics() {
        let _ = combined_metric(&summary(0.0, 0.0, 0.0, 0.0), 0);
    }

    #[test]
    fn paper_weights_reduce_to_unweighted_metric() {
        // Bit-for-bit, not just approximately: the paper metric and the
        // breakdown are derived from the weighted form, and the figures
        // print them at full precision.
        for (md, cpu, net, r, n) in [
            (7.0, 33.0, 12.0, 2.4, 6),
            (0.1, 41.37, 0.3, 1.0 / 3.0, 6),
            (12.5, 17.000_000_1, 9.81, 2.618_034, 7),
        ] {
            let s = summary(md, cpu, net, r);
            let plain = md + cpu + net + 100.0 * r / n as f64;
            assert_eq!(combined_metric(&s, n).to_bits(), plain.to_bits());
            assert_eq!(combined_breakdown(&s, n).combined.to_bits(), plain.to_bits());
            assert_eq!(
                combined_metric_weighted(&s, n, &MetricWeights::paper()).to_bits(),
                plain.to_bits()
            );
        }
    }

    #[test]
    fn weights_shift_the_winner_as_expected() {
        // A: no misses, many replicas. B: some misses, few replicas.
        let a = summary(0.0, 15.0, 20.0, 4.0);
        let b = summary(5.0, 15.0, 20.0, 1.5);
        let td = MetricWeights::timeliness_dominant();
        let rd = MetricWeights::resource_dominant();
        assert!(
            combined_metric_weighted(&a, 6, &td) < combined_metric_weighted(&b, 6, &td),
            "timeliness-dominant prefers the clean run"
        );
        assert!(
            combined_metric_weighted(&b, 6, &rd) < combined_metric_weighted(&a, 6, &rd),
            "resource-dominant prefers the frugal run"
        );
    }

    #[test]
    #[should_panic(expected = "weights")]
    fn negative_weights_rejected() {
        let w = MetricWeights {
            missed: -1.0,
            ..MetricWeights::paper()
        };
        let _ = combined_metric_weighted(&summary(0.0, 0.0, 0.0, 0.0), 6, &w);
    }
}
