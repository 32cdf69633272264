//! Per-node clocks with drift and periodic synchronization.
//!
//! The paper assumes "the clocks of the processors are synchronized using
//! an algorithm such as \[Mills95\]" (§3, item 12) — i.e. NTP-style sync
//! keeps offsets bounded but not zero, which is part of what makes the
//! system *asynchronous*. This module models each node's local clock as
//! `local(t) = t + offset(t)` where the offset drifts linearly between
//! sync rounds and is clamped to within a residual error at each round.
//!
//! The resource manager consumes observations "on a global time scale"
//! (paper Fig. 1); the cluster timestamps observations with node-local
//! clocks and the monitor tolerates the bounded skew. Tests verify the
//! bound holds, which is the property the algorithms rely on.

use crate::ids::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Configuration of the clock-skew model.
#[derive(Debug, Clone, Copy)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct ClockConfig {
    /// Maximum absolute drift rate in parts-per-million. Each node draws a
    /// fixed rate uniformly in `[-max, +max]`.
    pub max_drift_ppm: f64,
    /// Interval between synchronization rounds.
    pub sync_interval: SimDuration,
    /// Residual offset bound after a sync round, microseconds. Mills-style
    /// NTP on a LAN achieves sub-millisecond accuracy.
    pub sync_error_us: f64,
}

impl ClockConfig {
    /// A LAN profile consistent with \[Mills95\]-class synchronization:
    /// ±50 ppm oscillators, 10 s sync rounds, ≤500 µs residual error.
    pub fn lan_default() -> Self {
        ClockConfig {
            max_drift_ppm: 50.0,
            sync_interval: SimDuration::from_secs(10),
            sync_error_us: 500.0,
        }
    }

    /// Perfect clocks: no drift, no residual error. Useful for isolating
    /// algorithmic effects in tests.
    pub fn perfect() -> Self {
        ClockConfig {
            max_drift_ppm: 0.0,
            sync_interval: SimDuration::from_secs(10),
            sync_error_us: 0.0,
        }
    }

    /// Worst-case offset any clock can reach between syncs: the residual
    /// error plus drift accumulated over one interval.
    pub fn max_offset_us(&self) -> f64 {
        self.sync_error_us + self.max_drift_ppm * 1e-6 * self.sync_interval.as_micros() as f64
    }
}

/// One node's clock state.
#[derive(Debug, Clone, Copy)]
struct NodeClock {
    /// Offset from global time at `anchored_at`, in microseconds (signed).
    offset_us: f64,
    /// Fixed drift rate, ppm (signed).
    drift_ppm: f64,
    /// Global time the offset was last updated.
    anchored_at: SimTime,
}

impl NodeClock {
    fn offset_at(&self, now: SimTime) -> f64 {
        let dt_us = now.saturating_since(self.anchored_at).as_micros() as f64;
        self.offset_us + self.drift_ppm * 1e-6 * dt_us
    }
}

/// Clock ensemble for all nodes in the cluster.
#[derive(Clone)]
pub struct ClockModel {
    config: ClockConfig,
    clocks: Vec<NodeClock>,
}

impl ClockModel {
    /// Creates clocks for `n` nodes, drawing initial offsets within the
    /// sync error and drift rates within the configured bound.
    pub fn new(n: usize, config: ClockConfig, rng: &mut SimRng) -> Self {
        let clocks = (0..n)
            .map(|_| NodeClock {
                offset_us: rng.uniform_range(-config.sync_error_us, config.sync_error_us),
                drift_ppm: rng.uniform_range(-config.max_drift_ppm, config.max_drift_ppm),
                anchored_at: SimTime::ZERO,
            })
            .collect();
        ClockModel { config, clocks }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ClockConfig {
        &self.config
    }

    /// Number of modeled clocks.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// True if no clocks are modeled.
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// The node's local reading of global instant `now`, as a signed
    /// microsecond value (may be slightly behind zero early in a run).
    pub fn local_reading_us(&self, node: NodeId, now: SimTime) -> f64 {
        now.as_micros() as f64 + self.clocks[node.index()].offset_at(now)
    }

    /// Current offset of a node's clock from global time, microseconds.
    pub fn offset_us(&self, node: NodeId, now: SimTime) -> f64 {
        self.clocks[node.index()].offset_at(now)
    }

    /// Runs one synchronization round at `now`: every clock's offset is
    /// re-anchored to a fresh residual error within the configured bound.
    pub fn sync_round(&mut self, now: SimTime, rng: &mut SimRng) {
        let e = self.config.sync_error_us;
        for c in &mut self.clocks {
            c.offset_us = if e > 0.0 { rng.uniform_range(-e, e) } else { 0.0 };
            c.anchored_at = now;
        }
    }

    /// Largest pairwise clock disagreement at `now`, in microseconds.
    pub fn max_pairwise_skew_us(&self, now: SimTime) -> f64 {
        let offsets: Vec<f64> = self.clocks.iter().map(|c| c.offset_at(now)).collect();
        let min = offsets.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = offsets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if offsets.is_empty() {
            0.0
        } else {
            max - min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::from_seed_stream(99, 4)
    }

    #[test]
    fn perfect_clocks_read_global_time() {
        let mut r = rng();
        let m = ClockModel::new(4, ClockConfig::perfect(), &mut r);
        let t = SimTime::from_secs(123);
        for i in 0..4 {
            assert_eq!(m.local_reading_us(NodeId(i), t), t.as_micros() as f64);
        }
        assert_eq!(m.max_pairwise_skew_us(t), 0.0);
    }

    #[test]
    fn drift_accumulates_between_syncs() {
        let mut r = rng();
        let cfg = ClockConfig {
            max_drift_ppm: 50.0,
            sync_interval: SimDuration::from_secs(10),
            sync_error_us: 0.0,
        };
        let mut m = ClockModel::new(2, cfg, &mut r);
        m.sync_round(SimTime::ZERO, &mut r); // zero offsets (error bound 0)
        let t = SimTime::from_secs(10);
        // After 10 s at <=50 ppm, offsets are bounded by 500 us and at
        // least one should be visibly nonzero for a random drift draw.
        for i in 0..2 {
            assert!(m.offset_us(NodeId(i), t).abs() <= 500.0 + 1e-9);
        }
        assert!(m.max_pairwise_skew_us(t) > 0.0);
    }

    #[test]
    fn sync_round_clamps_offsets() {
        let mut r = rng();
        let cfg = ClockConfig::lan_default();
        let mut m = ClockModel::new(6, cfg, &mut r);
        // Let offsets grow for a long time, then sync.
        let late = SimTime::from_secs(1000);
        m.sync_round(late, &mut r);
        for i in 0..6 {
            assert!(
                m.offset_us(NodeId(i), late).abs() <= cfg.sync_error_us,
                "offset after sync exceeds residual bound"
            );
        }
    }

    #[test]
    fn offset_never_exceeds_model_bound_with_regular_sync() {
        let mut r = rng();
        let cfg = ClockConfig::lan_default();
        let mut m = ClockModel::new(6, cfg, &mut r);
        let bound = cfg.max_offset_us();
        let mut now = SimTime::ZERO;
        for _ in 0..50 {
            // Check just before each sync (worst case).
            let check = now + cfg.sync_interval;
            for i in 0..6 {
                assert!(
                    m.offset_us(NodeId(i), check).abs() <= bound + 1e-6,
                    "offset beyond bound {bound}"
                );
            }
            now = check;
            m.sync_round(now, &mut r);
        }
    }

    #[test]
    fn lan_default_bound_is_sub_millisecond_scale() {
        let b = ClockConfig::lan_default().max_offset_us();
        // 500 us residual + 50 ppm * 10 s = 1000 us total.
        assert!((b - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn local_reading_moves_forward() {
        let mut r = rng();
        let m = ClockModel::new(3, ClockConfig::lan_default(), &mut r);
        for i in 0..3 {
            let a = m.local_reading_us(NodeId(i), SimTime::from_secs(1));
            let b = m.local_reading_us(NodeId(i), SimTime::from_secs(2));
            assert!(b > a, "clocks always advance (drift ≪ 1)");
        }
    }
}
