//! Background load: ambient-load generators and their poll lanes.
//!
//! The [`LoadEngine`] owns the [`LoadGenerator`]s and the per-generator
//! poll state that drives them — either as real `BgPoll` heap events
//! (slow path) or as elided polls carried on virtual lanes (fast path).
//! Both paths draw the generator at the same program point with the same
//! RNG stream, so they are byte-identical by construction.

use crate::engine::dispatch::DispatchEngine;
use crate::engine::tasks::TaskTable;
use crate::ids::NodeId;
use crate::job::JobKind;
use crate::kernel::{Ev, SimKernel};
use crate::lane::LaneRef;
use crate::load::LoadGenerator;
use crate::time::SimTime;

/// Per-generator poll bookkeeping (see [`LoadEngine::polls`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PollLane {
    /// Fast path: `(time, seq)` of the next elided poll; `None` when the
    /// generator is retired (past horizon), dormant, or the slow path
    /// owns the poll as a real heap event.
    pub next: Option<(SimTime, u64)>,
    /// The generator's node was down when its poll fired; no further
    /// polls are armed until the node restarts.
    pub dormant: bool,
}

/// Ambient-load state and behavior: the generators and their poll lanes.
#[derive(Default)]
pub(crate) struct LoadEngine {
    /// The background load generators.
    pub gens: Vec<Box<dyn LoadGenerator>>,
    /// Per-generator poll state. With the fast path on, `next` holds the
    /// `(time, seq)` key of the next elided poll — the heap never sees a
    /// `BgPoll`. In both modes `dormant` marks a generator whose poll
    /// fired while its node was down; it is re-armed on restart.
    pub polls: Vec<PollLane>,
}

impl LoadEngine {
    /// A copy for one branch of a split group run: every generator
    /// forked in its current state, the poll lanes copied.
    ///
    /// # Panics
    /// Panics if a generator cannot fork; group runs check that before
    /// the run starts.
    pub fn fork(&self) -> Self {
        LoadEngine {
            gens: self
                .gens
                .iter()
                .map(|g| g.fork().expect("generators were checked forkable"))
                .collect(),
            polls: self.polls.clone(),
        }
    }

    /// Slow-path poll (real `BgPoll` heap event): admit the arrival and
    /// reschedule.
    pub fn on_bg_poll(
        &mut self,
        k: &mut SimKernel,
        dispatch: &mut DispatchEngine,
        tasks: &mut TaskTable,
        now: SimTime,
        gen: usize,
    ) {
        if let Some(next_at) = self.poll_generator(k, dispatch, tasks, now, gen) {
            k.queue.schedule(next_at, Ev::BgPoll { gen });
        }
    }

    /// Fast-path poll (virtual lane, no heap event): identical to
    /// [`Self::on_bg_poll`] except the next poll's `(time, seq)` key is
    /// reserved instead of scheduled. The seq allocation sits at the
    /// exact program point of the slow path's `schedule` — after the
    /// admission — so tie-breaking is bit-identical.
    ///
    /// The run loop holds the poll's lane entry at the heap top while
    /// this fires, so a re-arm re-keys it in place; a generator that
    /// retires (dormant or past the horizon) leaves it to be popped.
    pub fn on_virtual_poll(
        &mut self,
        k: &mut SimKernel,
        dispatch: &mut DispatchEngine,
        tasks: &mut TaskTable,
        now: SimTime,
        gen: usize,
    ) {
        self.polls[gen].next.take().expect("poll lane is armed");
        if let Some(next_at) = self.poll_generator(k, dispatch, tasks, now, gen) {
            let seq = k.queue.alloc_seq();
            self.polls[gen].next = Some((next_at, seq));
            k.lanes.arm(next_at, seq, LaneRef::Poll(gen as u32));
        }
        if let Some(p) = k.perf.as_mut() {
            p.report.elided_bg_polls += 1;
        }
    }

    /// Common poll body: draw the generator (same RNG call, same program
    /// point in both paths), admit the arrival, and return the next poll
    /// time if one is due within the horizon. A poll that finds its node
    /// down marks the generator dormant — no RNG draw, no reschedule —
    /// until the fault engine's restart handler re-arms it, so ambient
    /// load survives crash–restart instead of silently vanishing.
    pub fn poll_generator(
        &mut self,
        k: &mut SimKernel,
        dispatch: &mut DispatchEngine,
        tasks: &mut TaskTable,
        now: SimTime,
        gen: usize,
    ) -> Option<SimTime> {
        let node = self.gens[gen].node();
        if !dispatch.nodes[node.index()].alive {
            self.polls[gen].dormant = true;
            return None;
        }
        let arrival = self.gens[gen].arrive(now, &mut k.rng);
        // A generator yielding `next_at <= now` would re-poll at the
        // current instant forever and spin the event loop; this is a
        // contract violation by the generator, not a simulation outcome.
        assert!(
            arrival.next_at > now,
            "load generator {gen} scheduled its next arrival at {} <= now {now}; \
             degenerate intervals would spin the event loop",
            arrival.next_at,
        );
        if !arrival.demand.is_zero() {
            let gid = crate::ids::LoadGenId(gen as u32);
            dispatch.admit_job(k, tasks, now, node, JobKind::Background(gid), arrival.demand, 1);
        }
        (arrival.next_at <= k.horizon()).then_some(arrival.next_at)
    }

    /// Re-arms `node`'s dormant generators at `now` (restart re-arm). A
    /// generator whose poll was still pending at restart (crash shorter
    /// than one interarrival gap) is not dormant and needs nothing — its
    /// poll fires normally. Index order keeps the re-arm deterministic.
    pub fn rearm_dormant(&mut self, k: &mut SimKernel, now: SimTime, node: NodeId) {
        for g in 0..self.gens.len() {
            if self.gens[g].node() != node || !self.polls[g].dormant {
                continue;
            }
            self.polls[g].dormant = false;
            if k.config.bg_fast_path {
                let seq = k.queue.alloc_seq();
                self.polls[g].next = Some((now, seq));
                k.lanes.arm(now, seq, LaneRef::Poll(g as u32));
            } else {
                k.queue.schedule(now, Ev::BgPoll { gen: g });
            }
        }
    }
}
