//! Zero-cost-when-disabled performance instrumentation.
//!
//! The simulator's hot loop pops millions of events per experiment; this
//! module lets a run account for where that time goes without taxing
//! normal runs. When disabled (the default) the only cost is one branch
//! per popped event. When enabled, the engine records per-event-kind
//! counts and wall nanoseconds, controller-epoch timing, event-queue
//! operation statistics, and — if the embedder supplies an allocation
//! probe — heap allocations per control epoch.
//!
//! The allocation probe is a plain `fn() -> u64` returning a monotone
//! allocation count. The simulator crate forbids `unsafe`, so it cannot
//! install a counting global allocator itself; binaries that want
//! allocation numbers install their own counting allocator and pass its
//! reader in (see `run_all --perf`).

use std::time::Instant;

use crate::event::QueueStats;

/// Number of distinct event kinds the engine dispatches on.
pub const N_PHASES: usize = 11;

/// Labels for the per-kind breakdown, in engine dispatch order.
pub const PHASE_NAMES: [&str; N_PHASES] = [
    "period_release",
    "dispatch",
    "bg_poll",
    "tx_complete",
    "deliver",
    "clock_sync",
    "sample",
    "node_fail",
    "node_crash",
    "node_restart",
    "retx_timeout",
];

/// Lane-heap operation counters (see the `LaneHeap` of the virtual-lane
/// fast path). Every entry is pushed once and popped at most once; a
/// firing lane that re-arms itself re-keys its entry in place instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Entries pushed (a lane armed while its entry was not firing).
    pub pushes: u64,
    /// Entries popped: fired lanes that did not re-arm, plus
    /// [`Self::stale_discards`].
    pub pops: u64,
    /// Entries re-keyed in place by a firing lane re-arming itself.
    pub rekeys: u64,
    /// Popped entries whose lane had been cancelled out of band (a
    /// materialized or torn-down dispatch lane).
    pub stale_discards: u64,
}

/// Everything measured by an instrumented run.
#[derive(Debug, Clone, Default)]
pub struct PerfReport {
    /// Events handled, by kind (indexed as [`PHASE_NAMES`]).
    pub events: [u64; N_PHASES],
    /// Wall nanoseconds spent handling each kind.
    pub ns: [u64; N_PHASES],
    /// Event-queue operation counters (pops, cancels, compactions, heap
    /// high-water mark).
    pub queue: QueueStats,
    /// Controller invocations (control epochs).
    pub control_epochs: u64,
    /// Wall nanoseconds inside the controller (subset of the
    /// `period_release` phase).
    pub controller_ns: u64,
    /// Per-quantum dispatch events elided by the virtual dispatch chain
    /// (lone jobs run without round-trips through the event heap).
    pub elided_dispatches: u64,
    /// `BgPoll` events elided by the background-load fast path: polls
    /// carried on virtual lanes instead of the event heap.
    pub elided_bg_polls: u64,
    /// Slice-boundary `Dispatch` events of background-only nodes elided
    /// by the background-load fast path (fired as direct handler calls).
    pub elided_bg_dispatches: u64,
    /// Lane-heap operation counters.
    pub lanes: LaneStats,
    /// Heap allocations observed across all control epochs, if an
    /// allocation probe was supplied.
    pub epoch_allocs: Option<u64>,
    /// Total wall nanoseconds of the run loop.
    pub wall_ns: u64,
    /// Copies of the cluster made where the members of a group run
    /// (`ClusterApi::run_group`) first chose different actions.
    pub forks: u64,
    /// Control epochs at which two or more members of a group run still
    /// shared the cluster: simulated once, asked of each member.
    pub shared_epochs: u64,
}

impl PerfReport {
    /// Total events handled.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Virtual-lane firings: elided chain advances, polls and background
    /// dispatches.
    pub fn lane_firings(&self) -> u64 {
        self.elided_dispatches + self.elided_bg_polls + self.elided_bg_dispatches
    }

    /// Mean heap allocations per control epoch, if probed.
    pub fn allocs_per_epoch(&self) -> Option<f64> {
        let a = self.epoch_allocs?;
        if self.control_epochs == 0 {
            return Some(0.0);
        }
        Some(a as f64 / self.control_epochs as f64)
    }

    /// Folds another run's report into this one: counters and times are
    /// summed, the queue's heap high-water mark is the larger of the
    /// two, and allocation counts are summed where `other` has one.
    pub fn merge(&mut self, other: &PerfReport) {
        // Destructured without `..`: a new field must be merged here.
        let PerfReport {
            events,
            ns,
            queue:
                QueueStats {
                    scheduled,
                    popped,
                    cancelled,
                    compactions,
                    heap_high_water,
                },
            control_epochs,
            controller_ns,
            elided_dispatches,
            elided_bg_polls,
            elided_bg_dispatches,
            lanes:
                LaneStats {
                    pushes,
                    pops,
                    rekeys,
                    stale_discards,
                },
            epoch_allocs,
            wall_ns,
            forks,
            shared_epochs,
        } = other;
        for (acc, x) in self.events.iter_mut().zip(events) {
            *acc += x;
        }
        for (acc, x) in self.ns.iter_mut().zip(ns) {
            *acc += x;
        }
        self.queue.scheduled += scheduled;
        self.queue.popped += popped;
        self.queue.cancelled += cancelled;
        self.queue.compactions += compactions;
        self.queue.heap_high_water = self.queue.heap_high_water.max(*heap_high_water);
        self.control_epochs += control_epochs;
        self.controller_ns += controller_ns;
        self.elided_dispatches += elided_dispatches;
        self.elided_bg_polls += elided_bg_polls;
        self.elided_bg_dispatches += elided_bg_dispatches;
        self.lanes.pushes += pushes;
        self.lanes.pops += pops;
        self.lanes.rekeys += rekeys;
        self.lanes.stale_discards += stale_discards;
        if let Some(a) = epoch_allocs {
            *self.epoch_allocs.get_or_insert(0) += a;
        }
        self.wall_ns += wall_ns;
        self.forks += forks;
        self.shared_epochs += shared_epochs;
    }

    /// Renders an aligned, human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total = self.total_events().max(1);
        let _ = writeln!(
            out,
            "perf: {} events in {:.1} ms ({:.0} ns/event)",
            self.total_events(),
            self.wall_ns as f64 / 1e6,
            self.wall_ns as f64 / total as f64,
        );
        let _ = writeln!(out, "  {:<16} {:>12} {:>12} {:>10}", "phase", "events", "ms", "ns/event");
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            if self.events[i] == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>12.2} {:>10.0}",
                name,
                self.events[i],
                self.ns[i] as f64 / 1e6,
                self.ns[i] as f64 / self.events[i] as f64,
            );
        }
        if self.elided_dispatches > 0 {
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>12} {:>10} (virtual chain, no heap round-trip)",
                "dispatch-elided", self.elided_dispatches, "-", "-"
            );
        }
        if self.elided_bg_polls > 0 {
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>12} {:>10} (bg fast path, no heap round-trip)",
                "bg_poll-elided", self.elided_bg_polls, "-", "-"
            );
        }
        if self.elided_bg_dispatches > 0 {
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>12} {:>10} (bg fast path, direct boundary fire)",
                "bg_disp-elided", self.elided_bg_dispatches, "-", "-"
            );
        }
        let q = &self.queue;
        let _ = writeln!(
            out,
            "  queue: scheduled={} popped={} cancelled={} compactions={} heap_high_water={}",
            q.scheduled, q.popped, q.cancelled, q.compactions, q.heap_high_water
        );
        let l = &self.lanes;
        if l.pushes + l.rekeys > 0 {
            let _ = writeln!(
                out,
                "  lanes: pushes={} pops={} rekeys={} stale={} push+pop/firing={:.3}",
                l.pushes,
                l.pops,
                l.rekeys,
                l.stale_discards,
                (l.pushes + l.pops) as f64 / self.lane_firings().max(1) as f64
            );
        }
        let _ = write!(
            out,
            "  control: epochs={} controller_ms={:.2}",
            self.control_epochs,
            self.controller_ns as f64 / 1e6
        );
        if let Some(a) = self.allocs_per_epoch() {
            let _ = write!(out, " allocs/epoch={a:.1}");
        }
        if self.shared_epochs > 0 {
            let _ = write!(
                out,
                "\n  group: shared_epochs={} forks={} (shared work counted once)",
                self.shared_epochs, self.forks
            );
        }
        out.push('\n');
        out
    }
}

/// Live instrumentation state owned by a running cluster.
pub(crate) struct PerfState {
    pub report: PerfReport,
    /// Monotone allocation counter supplied by the embedder, if any.
    pub alloc_probe: Option<fn() -> u64>,
    pub run_started: Option<Instant>,
}

impl PerfState {
    pub fn new(alloc_probe: Option<fn() -> u64>) -> Self {
        PerfState {
            report: PerfReport::default(),
            alloc_probe,
            run_started: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_field_and_keeps_the_high_water_max() {
        let report = |k: u64| PerfReport {
            events: [k; N_PHASES],
            ns: [10 * k; N_PHASES],
            queue: QueueStats {
                scheduled: k,
                popped: 2 * k,
                cancelled: 3 * k,
                compactions: 4 * k,
                heap_high_water: 5 * k as usize,
            },
            control_epochs: 6 * k,
            controller_ns: 7 * k,
            elided_dispatches: 8 * k,
            elided_bg_polls: 9 * k,
            elided_bg_dispatches: 11 * k,
            lanes: LaneStats {
                pushes: 12 * k,
                pops: 13 * k,
                rekeys: 14 * k,
                stale_discards: 15 * k,
            },
            epoch_allocs: Some(16 * k),
            wall_ns: 17 * k,
            forks: 18 * k,
            shared_epochs: 19 * k,
        };
        let mut a = report(1);
        a.merge(&report(2));
        let mut want = report(3);
        want.queue.heap_high_water = 10; // max(5, 10), not 5 + 10
        assert_eq!(format!("{a:?}"), format!("{want:?}"));

        // No allocation count on either side stays `None`; one side's
        // count survives a merge with a probe-less report.
        let mut none = PerfReport::default();
        none.merge(&PerfReport::default());
        assert_eq!(none.epoch_allocs, None);
        none.merge(&report(1));
        assert_eq!(none.epoch_allocs, Some(16));
        none.merge(&PerfReport::default());
        assert_eq!(none.epoch_allocs, Some(16));
    }

    #[test]
    fn render_includes_only_active_phases() {
        let mut r = PerfReport::default();
        r.events[1] = 10;
        r.ns[1] = 5_000;
        r.wall_ns = 10_000;
        let s = r.render();
        assert!(s.contains("dispatch"));
        assert!(!s.contains("bg_poll"), "inactive phase hidden:\n{s}");
        assert!(s.contains("queue:"));
        assert!(!s.contains("group:"), "no group line for a plain run:\n{s}");
        r.shared_epochs = 7;
        r.forks = 1;
        let s = r.render();
        assert!(s.contains("group: shared_epochs=7 forks=1"), "{s}");
    }

    #[test]
    fn allocs_per_epoch_requires_probe() {
        let mut r = PerfReport::default();
        assert_eq!(r.allocs_per_epoch(), None);
        r.epoch_allocs = Some(120);
        r.control_epochs = 60;
        assert_eq!(r.allocs_per_epoch(), Some(2.0));
        r.control_epochs = 0;
        assert_eq!(r.allocs_per_epoch(), Some(0.0));
    }

    #[test]
    fn render_shows_elision_counters_when_nonzero() {
        let mut r = PerfReport::default();
        let s = r.render();
        assert!(!s.contains("bg_poll-elided"));
        assert!(!s.contains("bg_disp-elided"));
        r.elided_bg_polls = 42;
        r.elided_bg_dispatches = 7;
        let s = r.render();
        assert!(s.contains("bg_poll-elided"), "missing bg poll line:\n{s}");
        assert!(s.contains("42"));
        assert!(s.contains("bg_disp-elided"), "missing bg dispatch line:\n{s}");
    }

    #[test]
    fn render_shows_lane_counters_when_the_heap_was_used() {
        let mut r = PerfReport::default();
        assert!(!r.render().contains("lanes:"));
        r.lanes = LaneStats { pushes: 3, pops: 2, rekeys: 5, stale_discards: 1 };
        r.elided_bg_polls = 10;
        let s = r.render();
        assert!(
            s.contains("lanes: pushes=3 pops=2 rekeys=5 stale=1 push+pop/firing=0.500"),
            "missing lane line:\n{s}"
        );
    }

    #[test]
    fn total_events_sums_all_phases() {
        let r = PerfReport {
            events: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            ..Default::default()
        };
        assert_eq!(r.total_events(), 66);
    }
}
