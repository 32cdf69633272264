//! # rtds-workloads — workload pattern generators
//!
//! The paper evaluates the algorithms under three workload patterns
//! (Fig. 8): an **increasing ramp**, a **decreasing ramp**, and a
//! **triangular** pattern, each defined by a minimum and maximum workload
//! over a run of periods. This crate provides those three plus a family of
//! extensions (step, burst, sinusoid, bounded random walk) used by the
//! extension experiments.
//!
//! A pattern maps a period index to the number of data items (`tracks`)
//! arriving that period. Patterns are deterministic given their parameters
//! (and seed, where applicable); [`Pattern::tracks_at`] takes `&mut self`
//! only so that stateful patterns (the random walk) can memoize.
//!
//! ```
//! use rtds_workloads::{Pattern, Triangular, WorkloadRange};
//! let mut tri = Triangular::new(WorkloadRange::new(500, 10_500), 50);
//! assert_eq!(tri.tracks_at(0), 500);
//! assert_eq!(tri.tracks_at(50), 10_500);
//! assert_eq!(tri.tracks_at(100), 500);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// A deterministic per-period workload source.
pub trait Pattern: Send {
    /// Number of tracks arriving in period `period` (0-based).
    fn tracks_at(&mut self, period: u64) -> u64;

    /// Pattern family name for reports.
    fn name(&self) -> &'static str;
}

/// Workload interval shared by the paper's patterns: minimum and maximum
/// tracks per period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct WorkloadRange {
    /// Minimum tracks per period.
    pub min: u64,
    /// Maximum tracks per period.
    pub max: u64,
}

impl WorkloadRange {
    /// Creates a range.
    ///
    /// # Panics
    /// Panics if `min > max`.
    pub fn new(min: u64, max: u64) -> Self {
        assert!(min <= max, "workload range inverted: {min} > {max}");
        WorkloadRange { min, max }
    }

    /// Linear interpolation: fraction 0 → min, 1 → max (clamped).
    pub fn lerp(&self, f: f64) -> u64 {
        let f = f.clamp(0.0, 1.0);
        (self.min as f64 + f * (self.max - self.min) as f64).round() as u64
    }
}

/// Constant workload.
#[derive(Debug, Clone, Copy)]
pub struct Constant(pub u64);

impl Pattern for Constant {
    fn tracks_at(&mut self, _period: u64) -> u64 {
        self.0
    }
    fn name(&self) -> &'static str {
        "constant"
    }
}

/// The paper's increasing-ramp pattern: "starts with the minimum workload
/// and gradually increases the workload until it reaches the maximum",
/// over `ramp_periods` periods, then holds at the maximum.
#[derive(Debug, Clone, Copy)]
pub struct IncreasingRamp {
    range: WorkloadRange,
    ramp_periods: u64,
}

impl IncreasingRamp {
    /// Creates the ramp.
    ///
    /// # Panics
    /// Panics if `ramp_periods == 0`.
    pub fn new(range: WorkloadRange, ramp_periods: u64) -> Self {
        assert!(ramp_periods > 0, "ramp needs at least one period");
        IncreasingRamp { range, ramp_periods }
    }
}

impl Pattern for IncreasingRamp {
    fn tracks_at(&mut self, period: u64) -> u64 {
        self.range
            .lerp(period.min(self.ramp_periods) as f64 / self.ramp_periods as f64)
    }
    fn name(&self) -> &'static str {
        "increasing-ramp"
    }
}

/// The paper's decreasing-ramp pattern: maximum down to minimum, then
/// holds at the minimum.
#[derive(Debug, Clone, Copy)]
pub struct DecreasingRamp {
    range: WorkloadRange,
    ramp_periods: u64,
}

impl DecreasingRamp {
    /// Creates the ramp.
    ///
    /// # Panics
    /// Panics if `ramp_periods == 0`.
    pub fn new(range: WorkloadRange, ramp_periods: u64) -> Self {
        assert!(ramp_periods > 0, "ramp needs at least one period");
        DecreasingRamp { range, ramp_periods }
    }
}

impl Pattern for DecreasingRamp {
    fn tracks_at(&mut self, period: u64) -> u64 {
        self.range
            .lerp(1.0 - period.min(self.ramp_periods) as f64 / self.ramp_periods as f64)
    }
    fn name(&self) -> &'static str {
        "decreasing-ramp"
    }
}

/// The paper's triangular pattern: "alternates between workload increases
/// and decreases" — a symmetric sawtooth with `half_period` periods per
/// leg, starting at the minimum.
#[derive(Debug, Clone, Copy)]
pub struct Triangular {
    range: WorkloadRange,
    half_period: u64,
}

impl Triangular {
    /// Creates the triangular pattern.
    ///
    /// # Panics
    /// Panics if `half_period == 0`.
    pub fn new(range: WorkloadRange, half_period: u64) -> Self {
        assert!(half_period > 0, "triangle needs a positive half-period");
        Triangular { range, half_period }
    }
}

impl Pattern for Triangular {
    fn tracks_at(&mut self, period: u64) -> u64 {
        let cycle = 2 * self.half_period;
        let pos = period % cycle;
        let f = if pos <= self.half_period {
            pos as f64 / self.half_period as f64
        } else {
            (cycle - pos) as f64 / self.half_period as f64
        };
        self.range.lerp(f)
    }
    fn name(&self) -> &'static str {
        "triangular"
    }
}

/// Extension: square wave alternating `low_periods` at the minimum and
/// `high_periods` at the maximum — the harshest test of adaptation speed.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    range: WorkloadRange,
    low_periods: u64,
    high_periods: u64,
}

impl Step {
    /// Creates the square wave.
    ///
    /// # Panics
    /// Panics if either phase is empty.
    pub fn new(range: WorkloadRange, low_periods: u64, high_periods: u64) -> Self {
        assert!(low_periods > 0 && high_periods > 0, "phases must be non-empty");
        Step {
            range,
            low_periods,
            high_periods,
        }
    }
}

impl Pattern for Step {
    fn tracks_at(&mut self, period: u64) -> u64 {
        let cycle = self.low_periods + self.high_periods;
        if period % cycle < self.low_periods {
            self.range.min
        } else {
            self.range.max
        }
    }
    fn name(&self) -> &'static str {
        "step"
    }
}

/// Extension: baseline workload with short bursts to the maximum every
/// `every` periods, lasting `width` periods.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    range: WorkloadRange,
    every: u64,
    width: u64,
}

impl Burst {
    /// Creates the burst pattern.
    ///
    /// # Panics
    /// Panics unless `0 < width < every`.
    pub fn new(range: WorkloadRange, every: u64, width: u64) -> Self {
        assert!(width > 0 && width < every, "need 0 < width < every");
        Burst { range, every, width }
    }
}

impl Pattern for Burst {
    fn tracks_at(&mut self, period: u64) -> u64 {
        if period % self.every < self.width {
            self.range.max
        } else {
            self.range.min
        }
    }
    fn name(&self) -> &'static str {
        "burst"
    }
}

/// Extension: sinusoid between the range bounds with the given wavelength
/// in periods — a smooth analogue of the triangular pattern.
#[derive(Debug, Clone, Copy)]
pub struct Sinusoid {
    range: WorkloadRange,
    wavelength: u64,
}

impl Sinusoid {
    /// Creates the sinusoid.
    ///
    /// # Panics
    /// Panics if `wavelength == 0`.
    pub fn new(range: WorkloadRange, wavelength: u64) -> Self {
        assert!(wavelength > 0, "wavelength must be positive");
        Sinusoid { range, wavelength }
    }
}

impl Pattern for Sinusoid {
    fn tracks_at(&mut self, period: u64) -> u64 {
        let phase = period as f64 / self.wavelength as f64 * core::f64::consts::TAU;
        // Start at the minimum (like the triangle): use 1 - cos.
        self.range.lerp((1.0 - phase.cos()) / 2.0)
    }
    fn name(&self) -> &'static str {
        "sinusoid"
    }
}

/// Extension: bounded random walk — workload moves by a uniform step each
/// period, reflected at the range bounds. Deterministic per seed;
/// memoized so queries are O(1) amortized for sequential access.
#[derive(Debug, Clone)]
pub struct RandomWalk {
    range: WorkloadRange,
    max_step: u64,
    state: u64,
    memo: Vec<u64>,
}

impl RandomWalk {
    /// Creates the walk starting mid-range.
    ///
    /// # Panics
    /// Panics if `max_step == 0` or the range is a single point.
    pub fn new(range: WorkloadRange, max_step: u64, seed: u64) -> Self {
        assert!(max_step > 0, "walk needs a positive step");
        assert!(range.min < range.max, "walk needs a non-degenerate range");
        RandomWalk {
            range,
            max_step,
            state: seed | 1, // xorshift state must be nonzero
            memo: vec![(range.min + range.max) / 2],
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: plenty for workload jitter, no rand dependency here.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl Pattern for RandomWalk {
    fn tracks_at(&mut self, period: u64) -> u64 {
        let idx = usize::try_from(period).expect("period fits usize");
        while self.memo.len() <= idx {
            let prev = *self.memo.last().expect("memo never empty");
            let r = self.next_u64();
            let step = r % (2 * self.max_step + 1);
            let next = if step <= self.max_step {
                prev.saturating_add(step)
            } else {
                prev.saturating_sub(step - self.max_step)
            };
            self.memo.push(next.clamp(self.range.min, self.range.max));
        }
        self.memo[idx]
    }
    fn name(&self) -> &'static str {
        "random-walk"
    }
}

/// Extension: plays a sequence of patterns back to back, each for a fixed
/// number of periods, then repeats — mission phases (patrol, raid,
/// stand-down) as one pattern.
pub struct Composite {
    phases: Vec<(Box<dyn Pattern>, u64)>,
    cycle: u64,
}

impl Composite {
    /// Creates a composite from `(pattern, periods)` phases.
    ///
    /// # Panics
    /// Panics if there are no phases or any phase is empty.
    pub fn new(phases: Vec<(Box<dyn Pattern>, u64)>) -> Self {
        assert!(!phases.is_empty(), "composite needs phases");
        assert!(phases.iter().all(|(_, n)| *n > 0), "phases must be non-empty");
        let cycle = phases.iter().map(|(_, n)| n).sum();
        Composite { phases, cycle }
    }
}

impl Pattern for Composite {
    fn tracks_at(&mut self, period: u64) -> u64 {
        let mut pos = period % self.cycle;
        for (p, n) in &mut self.phases {
            if pos < *n {
                return p.tracks_at(pos);
            }
            pos -= *n;
        }
        unreachable!("pos < cycle by construction")
    }
    fn name(&self) -> &'static str {
        "composite"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range() -> WorkloadRange {
        WorkloadRange::new(500, 10_500)
    }

    fn series<P: Pattern>(p: &mut P, n: u64) -> Vec<u64> {
        (0..n).map(|i| p.tracks_at(i)).collect()
    }

    #[test]
    fn range_lerp_clamps_and_interpolates() {
        let r = range();
        assert_eq!(r.lerp(0.0), 500);
        assert_eq!(r.lerp(1.0), 10_500);
        assert_eq!(r.lerp(0.5), 5_500);
        assert_eq!(r.lerp(-1.0), 500);
        assert_eq!(r.lerp(2.0), 10_500);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        let _ = WorkloadRange::new(10, 5);
    }

    #[test]
    fn increasing_ramp_goes_min_to_max_then_holds() {
        let mut p = IncreasingRamp::new(range(), 100);
        assert_eq!(p.tracks_at(0), 500);
        assert_eq!(p.tracks_at(100), 10_500);
        assert_eq!(p.tracks_at(250), 10_500, "holds after the ramp");
        let s = series(&mut p, 101);
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "monotone increase");
    }

    #[test]
    fn decreasing_ramp_goes_max_to_min_then_holds() {
        let mut p = DecreasingRamp::new(range(), 100);
        assert_eq!(p.tracks_at(0), 10_500);
        assert_eq!(p.tracks_at(100), 500);
        assert_eq!(p.tracks_at(400), 500);
        let s = series(&mut p, 101);
        assert!(s.windows(2).all(|w| w[0] >= w[1]), "monotone decrease");
    }

    #[test]
    fn triangular_oscillates_between_bounds() {
        let mut p = Triangular::new(range(), 50);
        assert_eq!(p.tracks_at(0), 500);
        assert_eq!(p.tracks_at(50), 10_500);
        assert_eq!(p.tracks_at(100), 500);
        assert_eq!(p.tracks_at(150), 10_500);
        // Symmetry of the two legs.
        assert_eq!(p.tracks_at(25), p.tracks_at(75));
    }

    #[test]
    fn triangular_covers_full_range_repeatedly() {
        let mut p = Triangular::new(range(), 30);
        let s = series(&mut p, 300);
        assert_eq!(*s.iter().min().unwrap(), 500);
        assert_eq!(*s.iter().max().unwrap(), 10_500);
        let peaks = s.iter().filter(|&&v| v == 10_500).count();
        assert!(peaks >= 4, "several peaks over 300 periods: {peaks}");
    }

    #[test]
    fn step_alternates_phases_with_right_lengths() {
        let mut p = Step::new(range(), 10, 5);
        let s = series(&mut p, 30);
        assert!(s[..10].iter().all(|&v| v == 500));
        assert!(s[10..15].iter().all(|&v| v == 10_500));
        assert!(s[15..25].iter().all(|&v| v == 500));
    }

    #[test]
    fn burst_is_high_only_during_bursts() {
        let mut p = Burst::new(range(), 20, 3);
        let s = series(&mut p, 60);
        let highs = s.iter().filter(|&&v| v == 10_500).count();
        assert_eq!(highs, 9, "3 bursts x 3 periods");
        assert_eq!(s[0], 10_500, "burst opens each cycle");
        assert_eq!(s[3], 500);
    }

    #[test]
    fn sinusoid_starts_at_min_peaks_mid_wavelength() {
        let mut p = Sinusoid::new(range(), 100);
        assert_eq!(p.tracks_at(0), 500);
        assert_eq!(p.tracks_at(50), 10_500);
        assert_eq!(p.tracks_at(100), 500);
        let s = series(&mut p, 200);
        assert!(s.iter().all(|&v| (500..=10_500).contains(&v)));
    }

    #[test]
    fn random_walk_is_bounded_and_deterministic() {
        let mut a = RandomWalk::new(range(), 400, 42);
        let mut b = RandomWalk::new(range(), 400, 42);
        let sa = series(&mut a, 500);
        let sb = series(&mut b, 500);
        assert_eq!(sa, sb);
        assert!(sa.iter().all(|&v| (500..=10_500).contains(&v)));
        // It actually moves.
        let distinct: std::collections::HashSet<_> = sa.iter().collect();
        assert!(distinct.len() > 50, "walk explores: {}", distinct.len());
    }

    #[test]
    fn random_walk_different_seeds_differ() {
        let mut a = RandomWalk::new(range(), 400, 2);
        let mut b = RandomWalk::new(range(), 400, 4);
        assert_ne!(series(&mut a, 100), series(&mut b, 100));
    }

    #[test]
    fn random_walk_supports_random_access() {
        let mut a = RandomWalk::new(range(), 100, 7);
        let direct = a.tracks_at(250);
        let mut b = RandomWalk::new(range(), 100, 7);
        let sequential = series(&mut b, 251)[250];
        assert_eq!(direct, sequential);
    }

    #[test]
    fn composite_plays_phases_in_order_and_repeats() {
        let c = Composite::new(vec![
            (Box::new(Constant(100)), 3),
            (Box::new(IncreasingRamp::new(WorkloadRange::new(0, 1000), 4)), 5),
            (Box::new(Constant(50)), 2),
        ]);
        let mut c = c;
        // Phase 1: constant 100 for 3 periods.
        assert_eq!(series(&mut c, 3), vec![100, 100, 100]);
        // Phase 2: ramp (local periods 0..5).
        assert_eq!(c.tracks_at(3), 0);
        assert_eq!(c.tracks_at(7), 1000);
        // Phase 3: constant 50.
        assert_eq!(c.tracks_at(8), 50);
        assert_eq!(c.tracks_at(9), 50);
        // Repeats with cycle 10.
        assert_eq!(c.tracks_at(10), 100);
        assert_eq!(c.tracks_at(13), 0);
    }

    #[test]
    #[should_panic(expected = "needs phases")]
    fn empty_composite_panics() {
        let _ = Composite::new(vec![]);
    }

    #[test]
    fn pattern_names_are_stable() {
        assert_eq!(Constant(5).name(), "constant");
        assert_eq!(IncreasingRamp::new(range(), 1).name(), "increasing-ramp");
        assert_eq!(DecreasingRamp::new(range(), 1).name(), "decreasing-ramp");
        assert_eq!(Triangular::new(range(), 1).name(), "triangular");
        assert_eq!(Step::new(range(), 1, 1).name(), "step");
        assert_eq!(Burst::new(range(), 2, 1).name(), "burst");
        assert_eq!(Sinusoid::new(range(), 1).name(), "sinusoid");
        assert_eq!(RandomWalk::new(range(), 1, 0).name(), "random-walk");
    }
}
