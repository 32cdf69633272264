//! Output checks run with every workload. A failed check counts the runs
//! it covers as failed; any failure makes the benchmark exit non-zero.

use std::path::Path;
use std::time::Instant;

use rtds_experiments::models::quick_predictor;
use rtds_experiments::report::Table;
use rtds_experiments::scenario::PatternSpec;
use rtds_experiments::sweep::{run_sweep, SweepConfig};

use crate::layers::run_batch_traced;
use crate::workload::{Outcome, Row, Workload};

/// Attempted and failed simulation runs, with the reasons for failures.
#[derive(Default)]
pub struct Ledger {
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Runs that panicked or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Ledger {
    /// Records `runs` attempted runs and the check result that covers them.
    pub fn record(&mut self, runs: u64, result: Result<(), String>) {
        self.attempted += runs;
        if let Err(e) = result {
            self.failed += runs;
            self.errors.push(e);
        }
    }

    /// Runs `f`, recording a panic as `runs` failed runs.
    pub fn guard<T>(&mut self, what: &str, runs: u64, f: impl FnOnce() -> T) -> Option<T> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".to_string());
                self.record(runs, Err(format!("{what} panicked: {msg}")));
                None
            }
        }
    }
}

/// Per-run sanity of a full summary: decided ≤ released periods, a task
/// that released periods, and the reported fields in range.
pub fn sanity(w: Workload, o: &Outcome) -> Result<(), String> {
    let s = &o.summary;
    if s.decided_periods > s.released_periods {
        return Err(format!(
            "decided {} > released {} periods",
            s.decided_periods, s.released_periods
        ));
    }
    if w.has_task() && s.released_periods == 0 {
        return Err("a run with a task released no period".into());
    }
    if !o.node_s.is_finite() || o.node_s <= 0.0 {
        return Err(format!("node_s = {} is not finite and positive", o.node_s));
    }
    sanity_row(w, &o.row())
}

/// Per-run sanity of the fields `run_sweep` reports: every one finite and
/// in range.
pub fn sanity_row(w: Workload, r: &Row) -> Result<(), String> {
    let max_combined = 300.0 + 100.0;
    for (name, v, hi) in [
        ("missed_pct", r.missed_pct, 100.0),
        ("cpu_pct", r.cpu_pct, 100.0),
        ("net_pct", r.net_pct, 100.0),
        ("combined", r.combined, max_combined),
    ] {
        if !v.is_finite() || !(0.0..=hi).contains(&v) {
            return Err(format!("{name} = {v} is not finite or outside [0, {hi}]"));
        }
    }
    let x = r.avg_replicas;
    let ok = if w.has_task() {
        (1.0..=w.n_nodes() as f64).contains(&x)
    } else {
        x == 0.0
    };
    if !ok {
        return Err(format!(
            "avg_replicas = {x} out of range for {} nodes",
            w.n_nodes()
        ));
    }
    Ok(())
}

/// The quick Fig. 9 sweep, rendered exactly as the golden test renders it,
/// compared byte for byte with the golden file read in place.
pub fn golden(path: &Path) -> Result<(), String> {
    let golden = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read golden file {}: {e}", path.display()))?;
    let mut cfg = SweepConfig::quick(PatternSpec::Triangular { half_period: 10 });
    cfg.units = vec![4, 16, 28];
    cfg.n_periods = 40;
    cfg.threads = 1;
    let points = run_sweep(&cfg, &quick_predictor());
    let mut t = Table::new(vec![
        "units",
        "policy",
        "missed_pct",
        "cpu_pct",
        "net_pct",
        "avg_replicas",
        "combined",
    ]);
    for p in &points {
        t.row(vec![
            p.units.to_string(),
            p.policy.name().to_string(),
            format!("{:.6}", p.missed_pct),
            format!("{:.6}", p.cpu_pct),
            format!("{:.6}", p.net_pct),
            format!("{:.6}", p.avg_replicas),
            format!("{:.6}", p.combined),
        ]);
    }
    if t.to_csv() == golden {
        Ok(())
    } else {
        Err(format!(
            "quick Fig. 9 sweep differs from {}",
            path.display()
        ))
    }
}

/// Runs of the quick Fig. 9 sweep the golden check makes.
pub const GOLDEN_RUNS: u64 = 6;

/// Two outcomes of the same run must be bit-identical.
pub fn same(what: &str, a: &Outcome, b: &Outcome) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:?} != {b:?}"))
    }
}

/// Cache self-test: two in-process set-ups must each simulate (non-zero
/// events, and non-zero control epochs where a controller runs), and on
/// `paper_eval`, the one workload with a cacheable set-up cost, the second
/// must pay the profiling campaign again. Each of the two set-up times is
/// the fastest of three, so a preemption cannot fake the 20x gap a cache
/// hit would leave.
pub fn self_test(w: Workload, sim_seed: u64) -> Result<(), String> {
    let mut setup_s = Vec::new();
    for rep in 0..2 {
        let mut fastest = f64::INFINITY;
        let mut prep = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            let p = w.prepare(sim_seed);
            fastest = fastest.min(t0.elapsed().as_secs_f64());
            prep = Some(p);
        }
        setup_s.push(fastest);
        let prep = prep.expect("three set-ups ran");
        let batch = run_batch_traced(&prep.points[..1], prep.predictor.as_ref(), true);
        let events: u64 = batch.counters.events.iter().sum::<u64>()
            + batch.counters.elided_bg_polls
            + batch.counters.elided_bg_dispatches;
        if events == 0 {
            return Err(format!("self-test repetition {rep} simulated no event"));
        }
        if w.has_task() && batch.counters.epochs == 0 {
            return Err(format!("self-test repetition {rep} ran no control epoch"));
        }
    }
    // A cache hit costs orders of magnitude less than a profiling campaign.
    if w == Workload::PaperEval && setup_s[1] * 20.0 < setup_s[0] {
        return Err(format!(
            "self-test set-up times {setup_s:?}: the second skipped the profiling campaign"
        ));
    }
    Ok(())
}
