//! Benchmark of the RTDS simulator and predictive ARM stack.
//!
//! ```text
//! perfbench --workload <paper_eval|ambient_64|degraded_net> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: the output check reads
//! `tests/golden/fig9_quick.csv` in place.
//!
//! With `--trace 0` it repeats set-up several times, then repeats the
//! workload's batch through `run_sweep` (or `Cluster::run`) until
//! `--seconds` have passed, and reports the end-to-end metrics. With
//! `--trace 1` it alternates untraced, traced and load-probed batches over
//! the same time and reports per-layer metrics. Either way it
//! then runs the output checks and prints, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. It exits 1 if
//! any run panicked or any check failed. See `perfbench/README.md`.

mod check;
mod layers;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rtds_experiments::models::{quick_predictor, run_campaign};
use rtds_experiments::scenario::run_scenario;
use rtds_experiments::sweep::run_sweep;
use rtds_sim::perf::PHASE_NAMES;

use check::Ledger;
use layers::{phase, run_batch_traced, Counters, TracedBatch};
use workload::{reference_scenario, Point, Prepared, Row, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// The golden output of the quick Fig. 9 sweep, relative to the
/// repository root.
const GOLDEN: &str = "tests/golden/fig9_quick.csv";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64: spreads consecutive benchmark seeds over the simulator's
/// seed space.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Process high-water resident memory, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A metric as the result line reports it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One untraced batch through the program's own entry points: `run_sweep`
/// (one worker thread) for the sweep workloads, `Cluster::run` for
/// `ambient_64`. Returns each run's fields and its host seconds, in batch
/// order (for sweeps, `SweepPoint::wall_ms`).
fn run_untraced(prep: &Prepared) -> Vec<(Row, f64)> {
    if prep.sweeps.is_empty() {
        return prep
            .points
            .iter()
            .map(|pt| {
                let t0 = Instant::now();
                let o = pt.run(prep.predictor.as_ref());
                (o.row(), t0.elapsed().as_secs_f64())
            })
            .collect();
    }
    let p = prep
        .predictor
        .as_ref()
        .expect("sweeps run with a predictor");
    prep.sweeps
        .iter()
        .flat_map(|s| run_sweep(s, p))
        .map(|sp| (Row::from(&sp), sp.wall_ms / 1e3))
        .collect()
}

/// Checks a batch's rows: per-run sanity, and bit-identity with the first
/// batch of the process (every run is a repeated run).
fn check_rows(w: Workload, rows: &[Row], first: Option<&[Row]>, ledger: &mut Ledger) {
    for (i, r) in rows.iter().enumerate() {
        let mut res = check::sanity_row(w, r).map_err(|e| format!("run {i}: {e}"));
        if let (Ok(()), Some(f)) = (&res, first.and_then(|f| f.get(i))) {
            if r != f {
                res = Err(format!("run {i} repeated: {r:?} != {f:?}"));
            }
        }
        ledger.record(1, res);
    }
}

/// The paper's outcome metrics (MD, R̄, C) as means over predictive runs.
fn arm_outcomes(rows: &[Row]) -> Option<(f64, f64, f64)> {
    let pred: Vec<&Row> = rows.iter().filter(|r| r.predictive).collect();
    if pred.is_empty() {
        return None;
    }
    let n = pred.len() as f64;
    let mean = |f: fn(&Row) -> f64| pred.iter().map(|r| f(r)).sum::<f64>() / n;
    Some((
        mean(|r| r.missed_pct),
        mean(|r| r.avg_replicas),
        mean(|r| r.combined),
    ))
}

/// One set-up: the predictor, the batch's configs, and the construction
/// of every cluster of the batch. Returns the set-up and its host seconds;
/// dropping the clusters is not timed.
fn timed_setup(w: Workload, sim_seed: u64) -> (Prepared, f64) {
    let t0 = Instant::now();
    let prep = w.prepare(sim_seed);
    let mut secs = t0.elapsed().as_secs_f64();
    for pt in &prep.points {
        let t0 = Instant::now();
        let cluster = pt.assemble(prep.predictor.as_ref(), None);
        secs += t0.elapsed().as_secs_f64();
        drop(cluster);
    }
    (prep, secs)
}

/// Untraced run: set-up repetitions, then the measured batches.
fn untraced(a: &Args, sim_seed: u64, ledger: &mut Ledger) -> Option<Vec<Metric>> {
    let w = a.workload;
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..w.setup_reps() {
        let (prep, secs) = timed_setup(w, sim_seed);
        setup_s.push(secs);
        prepared = Some(prep);
    }
    let prep = prepared.expect("at least one set-up");
    let predictor = prep.predictor.as_ref();
    let node_s: f64 = prep.points.iter().map(Point::node_s).sum();
    let n = prep.points.len() as u64;

    let budget = Duration::from_secs(a.seconds);
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut best = vec![f64::INFINITY; prep.points.len()];
    let mut first: Option<Vec<Row>> = None;
    while rates.is_empty() || started.elapsed() < budget {
        let t0 = Instant::now();
        let runs = ledger.guard("untraced batch", n, || run_untraced(&prep))?;
        rates.push(node_s / t0.elapsed().as_secs_f64());
        for (b, (_, secs)) in best.iter_mut().zip(&runs) {
            *b = b.min(*secs);
        }
        let rows: Vec<Row> = runs.into_iter().map(|(r, _)| r).collect();
        check_rows(w, &rows, first.as_deref(), ledger);
        first.get_or_insert(rows);
        // More set-ups after every batch spread the set-up samples over
        // the whole run, so that one slow stretch of the host cannot move
        // their median.
        for _ in 0..w.setup_reps() {
            setup_s.push(timed_setup(w, sim_seed).1);
        }
    }
    let best_rate = node_s / best.iter().sum::<f64>();
    eprintln!(
        "perfbench: {} batches; node-s/s median batch {:.0}, best-of-run {best_rate:.0}",
        rates.len(),
        median(&rates),
    );
    let mut sorted = setup_s.clone();
    sorted.sort_by(f64::total_cmp);
    eprintln!(
        "perfbench: {} set-ups; min {:.6} s, median {:.6} s, max {:.6} s",
        sorted.len(),
        sorted[0],
        median(&sorted),
        sorted[sorted.len() - 1],
    );
    let rss = peak_rss_mb();
    let rows = first.expect("one batch ran");

    // One point repeated on its own: identical full summaries, and the
    // same fields as in the batch.
    let pt = &prep.points[0];
    let repeat = ledger.guard("repeated point", 2, || {
        (pt.run(predictor), pt.run(predictor))
    });
    if let Some((r1, r2)) = &repeat {
        let mut res = check::sanity(w, r1).and_then(|()| check::same("repeated point", r1, r2));
        if res.is_ok() && r1.row() != rows[0] {
            res = Err(format!(
                "point 0 alone {:?} != in batch {:?}",
                r1.row(),
                rows[0]
            ));
        }
        ledger.record(2, res);
    }
    // Zero observer effect: the traced assembly of the first point, with
    // every decorator, gives the same full summary as the untraced run.
    let traced = ledger.guard("traced point", 1, || {
        run_batch_traced(&prep.points[..1], predictor, true).outcomes[0]
    });
    if let (Some(t), Some((r1, _))) = (traced, &repeat) {
        ledger.record(1, check::same("traced vs untraced point", &t, r1));
    }

    let arm = match arm_outcomes(&rows) {
        Some(v) => Some(v),
        // No task in this workload: report the fixed reference scenario.
        None => ledger.guard("reference scenario", 1, || {
            let cfg = reference_scenario();
            let r = run_scenario(&cfg, &quick_predictor());
            (
                r.summary.missed_deadline_pct,
                r.summary.avg_replicas,
                r.breakdown.combined,
            )
        }),
    };
    let rss = match rss {
        Ok(v) => v,
        Err(e) => {
            ledger.record(1, Err(e));
            return None;
        }
    };
    let (missed, replicas, combined) = arm?;
    Some(vec![
        m("setup_s", median(&setup_s), "s"),
        m("sim_node_s_per_s", best_rate, "node_s/s"),
        m("peak_rss_mb", rss, "MB"),
        m("missed_pct", missed, "%"),
        m("avg_replicas", replicas, "replicas"),
        m("combined", combined, "C"),
    ])
}

/// Times `run_campaign` and, on a copy of its result, `ProfileData::fit_all`
/// again, which refits from the stored samples. Returns the campaign's
/// sampling time and its fitting time.
fn campaign_times() -> (f64, f64) {
    let t0 = Instant::now();
    let data = run_campaign();
    let total_s = t0.elapsed().as_secs_f64();
    let mut refit = data.clone();
    let t1 = Instant::now();
    refit.fit_all();
    let fit_s = t1.elapsed().as_secs_f64();
    (total_s - fit_s, fit_s)
}

/// Per-iteration times of the traced run, reduced to medians at the end.
#[derive(Default)]
struct TraceTimes {
    rows: Vec<(&'static str, Vec<f64>)>,
}

impl TraceTimes {
    fn push(&mut self, name: &'static str, v: f64) {
        match self.rows.iter_mut().find(|(n, _)| *n == name) {
            Some((_, xs)) => xs.push(v),
            None => self.rows.push((name, vec![v])),
        }
    }

    fn median(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, xs)| median(xs))
            .unwrap_or(0.0)
    }
}

/// Traced run: an untraced batch, a traced batch and a load-probed batch
/// alternate; per-layer metrics.
fn traced(a: &Args, sim_seed: u64, ledger: &mut Ledger) -> Option<Vec<Metric>> {
    let w = a.workload;
    let mut times = TraceTimes::default();
    let prep = w.prepare(sim_seed);
    let p = prep.predictor.as_ref();
    let n = prep.points.len() as u64;

    let budget = Duration::from_secs(a.seconds);
    let started = Instant::now();
    let mut first: Option<(Counters, (f64, u64))> = None;
    let mut last: Option<TracedBatch> = None;
    let mut iters = 0;
    let mut iter_s = 0.0;
    while iters < 2 || started.elapsed().as_secs_f64() + iter_s < budget.as_secs_f64() {
        iters += 1;
        let iter_t0 = Instant::now();
        if w == Workload::PaperEval {
            let (campaign_s, fit_s) = campaign_times();
            times.push("models.campaign_s", campaign_s);
            times.push("models.fit_s", fit_s);
        }
        let t0 = Instant::now();
        let runs = ledger.guard("untraced batch", n, || run_untraced(&prep))?;
        let wall_u = t0.elapsed().as_secs_f64();
        let mut batch = ledger.guard("traced batch", n, || {
            run_batch_traced(&prep.points, p, false)
        })?;
        let probed = ledger.guard("load-probed batch", n, || {
            run_batch_traced(&prep.points, p, true)
        })?;

        // Zero observer effect: both traced batches give the untraced
        // fields, and each other's full summaries.
        let pairs = batch.outcomes.iter().zip(&probed.outcomes);
        for (i, ((o, q), (row, _))) in pairs.zip(&runs).enumerate() {
            let mut r = check::sanity(w, o)
                .and_then(|()| check::same(&format!("traced point {i} with load probe"), o, q))
                .map_err(|e| format!("traced point {i}: {e}"));
            if r.is_ok() && o.row() != *row {
                r = Err(format!(
                    "traced point {i}: {:?} != run_sweep {row:?}",
                    o.row()
                ));
            }
            ledger.record(3, r);
        }
        // The load decorator adds the arrival count and changes no work.
        let mut work = probed.counters.clone();
        work.arrivals = 0;
        if work != batch.counters {
            ledger.record(
                n,
                Err(format!(
                    "load decorator changed the work: {:?} vs {:?}",
                    work, batch.counters
                )),
            );
        }
        batch.counters.arrivals = probed.counters.arrivals;
        let key = (batch.counters.clone(), batch.mape);
        match &first {
            None => first = Some(key),
            Some(f) if *f != key => ledger.record(
                n,
                Err(format!(
                    "work counters differ between repetitions: {:?} vs {:?}",
                    f.0, key.0
                )),
            ),
            Some(_) => {}
        }

        let t = &batch.times;
        let ph = |name| t.phase_s[phase(name)];
        let busy = if prep.sweeps.is_empty() {
            0.0
        } else {
            runs.iter().map(|r| r.1).sum()
        };
        times.push("sweep.busy_s", busy);
        times.push(
            "sweep.overhead_s",
            if busy > 0.0 { wall_u - busy } else { 0.0 },
        );
        times.push("scenario.build_s", t.build_s);
        times.push("sim.run_s", t.run_s);
        times.push("arm.self_s", t.arm_s);
        times.push("dispatch.self_s", ph("dispatch"));
        times.push("load.arrive_s", probed.times.arrive_s);
        times.push("load.bg_poll_s", ph("bg_poll"));
        times.push("net.tx_complete_s", ph("tx_complete"));
        times.push("net.deliver_s", ph("deliver"));
        times.push("net.retx_timeout_s", ph("retx_timeout"));
        times.push("fault.node_fail_s", ph("node_fail"));
        times.push("fault.crash_s", ph("node_crash"));
        times.push("fault.restart_s", ph("node_restart"));
        times.push("tasks.period_release_s", ph("period_release") - t.arm_s);
        times.push("tasks.sample_s", ph("sample"));
        times.push("tasks.clock_sync_s", ph("clock_sync"));
        let timed: f64 = t.phase_s.iter().sum();
        times.push("sim.untimed_pct", 100.0 * (1.0 - timed / t.run_s));
        times.push("wall.traced_s", t.batch_s);
        times.push("wall.probed_s", probed.times.batch_s);
        times.push("wall.untraced_s", wall_u);
        last = Some(batch);
        iter_s = iter_t0.elapsed().as_secs_f64();
    }
    let batch = last.expect("at least one traced batch");
    let c = &batch.counters;
    let ev = |name| c.events[phase(name)] as f64;
    let overhead = |traced| 100.0 * (times.median(traced) / times.median("wall.untraced_s") - 1.0);
    let mape = if batch.mape.1 == 0 {
        0.0
    } else {
        100.0 * batch.mape.0 / batch.mape.1 as f64
    };
    let delivery = if c.offered == 0 {
        0.0
    } else {
        (c.offered - c.lost.min(c.offered)) as f64 / c.offered as f64
    };
    let t = |name| times.median(name);
    let metrics = vec![
        m("models.campaign_s", t("models.campaign_s"), "s"),
        m("models.fit_s", t("models.fit_s"), "s"),
        m("scenario.build_s", t("scenario.build_s"), "s"),
        m("sweep.busy_s", t("sweep.busy_s"), "s"),
        m("sweep.overhead_s", t("sweep.overhead_s"), "s"),
        m("arm.epochs", c.epochs as f64, "count"),
        m("arm.self_s", t("arm.self_s"), "s"),
        m("arm.actions", c.actions as f64, "count"),
        m("arm.placement_changes", c.placement_changes as f64, "count"),
        m("arm.rejected_actions", c.rejected_actions as f64, "count"),
        m("arm.forecast_mape_pct", mape, "%"),
        m("kernel.scheduled", c.scheduled as f64, "count"),
        m("kernel.popped", c.popped as f64, "count"),
        m("kernel.cancelled", c.cancelled as f64, "count"),
        m("kernel.heap_high_water", c.heap_high_water as f64, "count"),
        m("dispatch.events", ev("dispatch"), "count"),
        m("dispatch.self_s", t("dispatch.self_s"), "s"),
        m("dispatch.elided", c.elided_dispatches as f64, "count"),
        m("load.arrivals", c.arrivals as f64, "count"),
        m("load.arrive_s", t("load.arrive_s"), "s"),
        m("load.bg_polls_elided", c.elided_bg_polls as f64, "count"),
        m(
            "load.bg_dispatches_elided",
            c.elided_bg_dispatches as f64,
            "count",
        ),
        m("net.tx_complete", ev("tx_complete"), "count"),
        m("net.tx_complete_s", t("net.tx_complete_s"), "s"),
        m("net.deliver", ev("deliver"), "count"),
        m("net.deliver_s", t("net.deliver_s"), "s"),
        m("net.retx_timeout", ev("retx_timeout"), "count"),
        m("net.retx_timeout_s", t("net.retx_timeout_s"), "s"),
        m("net.offered", c.offered as f64, "count"),
        m("net.retransmits", c.retransmits as f64, "count"),
        m("net.dropped", c.dropped as f64, "count"),
        m("net.lost", c.lost as f64, "count"),
        m("net.delivery_ratio", delivery, "ratio"),
        m("fault.crash", ev("node_crash"), "count"),
        m("fault.crash_s", t("fault.crash_s"), "s"),
        m("fault.restart", ev("node_restart"), "count"),
        m("fault.restart_s", t("fault.restart_s"), "s"),
        m("fault.node_restarts", c.node_restarts as f64, "count"),
        m("tasks.period_release", ev("period_release"), "count"),
        m("tasks.period_release_s", t("tasks.period_release_s"), "s"),
        m("tasks.sample", ev("sample"), "count"),
        m("tasks.sample_s", t("tasks.sample_s"), "s"),
        m("tasks.clock_sync", ev("clock_sync"), "count"),
        m("tasks.clock_sync_s", t("tasks.clock_sync_s"), "s"),
        m("sim.run_s", t("sim.run_s"), "s"),
        m("sim.untimed_pct", t("sim.untimed_pct"), "%"),
        m("trace.overhead_pct", overhead("wall.traced_s"), "%"),
    ];
    print_report(a, iters, &times, c, &metrics);
    println!(
        "  load-probed batch: wall {:.6} s, {:.2} % over untraced",
        t("wall.probed_s"),
        overhead("wall.probed_s")
    );
    Some(metrics)
}

/// The layered report of a traced run: every per-layer metric by module,
/// the self-time breakdown of `sim.run_s`, and the exact work counters.
fn print_report(a: &Args, iters: usize, times: &TraceTimes, c: &Counters, metrics: &[Metric]) {
    let name = a.workload.name();
    println!(
        "perfbench trace: workload={name} seed={} iterations={iters} (times are medians)",
        a.seed
    );
    println!("  {:<28} {:>16} unit", "metric", "value");
    let mut layer = "";
    for x in metrics {
        let l = x.name.split('.').next().unwrap_or("");
        if l != layer {
            println!("  [{l}]");
            layer = l;
        }
        println!("  {:<28} {:>16.6} {}", x.name, x.value, x.unit);
    }
    let run_s = times.median("sim.run_s");
    println!("  self time of sim.run_s = {run_s:.6} s (nested spans subtracted):");
    let mut rows: Vec<(&str, f64)> = vec![("arm (controller)", times.median("arm.self_s"))];
    for n in PHASE_NAMES {
        let key: &str = match n {
            "period_release" => "tasks.period_release_s",
            "dispatch" => "dispatch.self_s",
            "bg_poll" => "load.bg_poll_s",
            "tx_complete" => "net.tx_complete_s",
            "deliver" => "net.deliver_s",
            "clock_sync" => "tasks.clock_sync_s",
            "sample" => "tasks.sample_s",
            "node_fail" => "fault.node_fail_s",
            "node_crash" => "fault.crash_s",
            "node_restart" => "fault.restart_s",
            "retx_timeout" => "net.retx_timeout_s",
            other => panic!("perf phase {other} has no layer"),
        };
        rows.push((key, times.median(key)));
    }
    let timed: f64 = rows.iter().map(|r| r.1).sum();
    for (k, v) in &rows {
        println!("    {:<26} {:>12.6} s {:>7.2} %", k, v, 100.0 * v / run_s);
    }
    println!(
        "    {:<26} {:>12.6} s {:>7.2} %  (of which load.arrive_s {:.6} s)",
        "untimed",
        run_s - timed,
        100.0 * (run_s - timed) / run_s,
        times.median("load.arrive_s"),
    );
    let counters: Vec<String> = c
        .named()
        .iter()
        .map(|(n, v)| format!("\"{n}\": {v}"))
        .collect();
    println!(
        "work_counters {{\"workload\": \"{name}\", \"seed\": {}, {}}}",
        a.seed,
        counters.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sim_seed = mix(args.seed);
    let mut ledger = Ledger::default();
    let metrics = if args.trace {
        traced(&args, sim_seed, &mut ledger)
    } else {
        untraced(&args, sim_seed, &mut ledger)
    };
    let golden = ledger.guard("golden sweep", check::GOLDEN_RUNS, || {
        check::golden(Path::new(GOLDEN))
    });
    if let Some(r) = golden {
        ledger.record(check::GOLDEN_RUNS, r);
    }
    let self_test = ledger.guard("self-test", 2, || check::self_test(args.workload, sim_seed));
    if let Some(r) = self_test {
        ledger.record(2, r);
    }

    let mut metrics = metrics.unwrap_or_default();
    if !args.trace {
        let ok = ledger.attempted.saturating_sub(ledger.failed) as f64;
        metrics.push(m(
            "ok_run_pct",
            100.0 * ok / ledger.attempted.max(1) as f64,
            "%",
        ));
    }
    for x in &metrics {
        if !x.value.is_finite() {
            ledger.record(1, Err(format!("metric {} is {}", x.name, x.value)));
        }
    }
    for e in &ledger.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let correct = ledger.errors.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .filter(|x| x.value.is_finite())
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted.max(1),
        ledger.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
