//! Node scheduling: CPU dispatch, the job slab, and the per-node virtual
//! dispatch lanes of the fast path.
//!
//! The [`DispatchEngine`] owns the processor nodes and every live job.
//! It admits work (from stage starts, message deliveries, and background
//! polls), drives slice-boundary dispatches, and carries the elided
//! dispatch state of the fast path: one [`DispatchLane`] per node, either
//! the quantum chain of a lone job or the slice boundary of a
//! background-only node. All `(time, seq)` allocation happens at the
//! exact program points where the slow path would `schedule`, which is
//! what keeps the two modes byte-identical.

use crate::engine::net::NetEngine;
use crate::engine::tasks::TaskTable;
use crate::ids::{JobId, NodeId};
use crate::job::{Job, JobKind};
use crate::kernel::{Ev, SimKernel};
use crate::lane::LaneRef;
use crate::node::{Node, Running};
use crate::sched::SchedulerKind;
use crate::time::{SimDuration, SimTime};

/// The elided continuation of a lone running job (see
/// [`DispatchLane::Chain`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DispatchChain {
    /// Time of the next (elided) quantum-boundary dispatch.
    pub next_at: SimTime,
    /// The sequence number that dispatch would occupy in the event queue.
    pub next_seq: u64,
    /// When the job completes if it keeps the CPU: `slice_start +
    /// remaining` at chain creation. The dispatch at this instant has real
    /// effects and is scheduled as a real event when the chain reaches it.
    pub completion: SimTime,
    /// The node's scheduling quantum (chains only exist under a quantum).
    pub quantum: SimDuration,
}

/// A node's elided next `Dispatch`: a key carried on the lane heap
/// instead of an event in the queue. A node has at most one, so "a node
/// never has both a chain and a boundary" holds by construction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DispatchLane {
    /// A lone job spanning several quanta: every intermediate
    /// per-quantum `Dispatch` is a state no-op — it serves one quantum,
    /// requeues into an empty queue, picks the same job back, and
    /// schedules the next slice. Those events are elided; the chain
    /// tracks the `(time, seq)` key the *next* one would have carried,
    /// with the seq allocated at the exact point the real event would
    /// have been scheduled, so same-time tie-breaking is bit-identical to
    /// the unelided execution (see
    /// [`crate::event::EventQueue::alloc_seq`]).
    Chain(DispatchChain),
    /// Fast path, background-only node: the slice-end `Dispatch` has no
    /// external observer, so it is carried here and fired as a direct
    /// handler call.
    Bound {
        /// When the slice ends.
        at: SimTime,
        /// The sequence number reserved for the slice-end dispatch.
        seq: u64,
    },
}

impl DispatchLane {
    /// The `(time, seq)` key of the lane's next firing.
    #[inline]
    pub fn key(&self) -> (SimTime, u64) {
        match *self {
            DispatchLane::Chain(c) => (c.next_at, c.next_seq),
            DispatchLane::Bound { at, seq } => (at, seq),
        }
    }
}

/// CPU-side state and behavior: nodes, the job slab, and elided dispatch.
#[derive(Clone)]
pub(crate) struct DispatchEngine {
    /// The processor nodes.
    pub nodes: Vec<Node>,
    /// Live jobs in a slot-reuse slab: `JobId` *is* the slot index, so
    /// the admit → dispatch → complete lifecycle (one per background
    /// arrival, millions per run) costs three `Vec` accesses instead of
    /// three hash-map operations. Ids are recycled; every id held by a
    /// scheduler queue or a `Running` slot is live by construction.
    pub jobs: Vec<Option<Job>>,
    /// Vacated job slots awaiting reuse.
    pub free_jobs: Vec<u32>,
    /// Per-node count of live application (stage) jobs — queued or
    /// running. Zero means every job on the node is background load and
    /// its dispatch boundaries are eligible for elision.
    pub stage_jobs: Vec<u32>,
    /// Per-node elided dispatch (see [`DispatchLane`]), keyed on the
    /// lane heap as [`LaneRef::Dispatch`]. An arrival at a chained node
    /// truncates the chain: to a boundary under the same key if the node
    /// stays background-only, else to a real `Dispatch` in the queue
    /// ([`Self::materialize_lane`]).
    pub lanes: Vec<Option<DispatchLane>>,
}

impl DispatchEngine {
    /// Builds `n_nodes` homogeneous nodes under `scheduler`.
    pub fn new(n_nodes: usize, scheduler: &SchedulerKind) -> Self {
        let nodes = (0..n_nodes)
            .map(|i| Node::new(NodeId::from_index(i), scheduler.build()))
            .collect();
        DispatchEngine {
            nodes,
            jobs: Vec::new(),
            free_jobs: Vec::new(),
            stage_jobs: vec![0; n_nodes],
            lanes: vec![None; n_nodes],
        }
    }

    /// Admits a job to `node`'s scheduler (or fails its instance if the
    /// node is dead) and dispatches if the CPU is idle.
    #[allow(clippy::too_many_arguments)]
    pub fn admit_job(
        &mut self,
        k: &mut SimKernel,
        tasks: &mut TaskTable,
        now: SimTime,
        node: NodeId,
        kind: JobKind,
        demand: SimDuration,
        priority: u8,
    ) {
        if !self.nodes[node.index()].alive {
            // Work routed to a dead node is lost; a stage job's instance
            // can never complete.
            if let JobKind::Stage { stage, instance, .. } = kind {
                tasks.fail_instance(k, now, stage.task, instance);
            }
            return;
        }
        let slot = match self.free_jobs.pop() {
            Some(s) => s,
            None => {
                self.jobs.push(None);
                (self.jobs.len() - 1) as u32
            }
        };
        let id = JobId(slot);
        let job = Job::new(id, node, kind, demand, now).with_priority(priority);
        self.jobs[slot as usize] = Some(job);
        if kind.is_stage() {
            self.stage_jobs[node.index()] += 1;
        }
        if k.config.bg_fast_path && self.stage_jobs[node.index()] == 0 {
            // Still background-only: the running job (if chained) is no
            // longer alone, but its truncated slice boundary can stay
            // virtual — same key, same heap entry.
            self.truncate_chain_to_bound(node);
        } else {
            // A stage job makes the node externally consequential: an
            // elided boundary or chain link re-materializes as a real
            // event in its reserved tie-break slot.
            self.materialize_lane(k, node);
        }
        self.nodes[node.index()].sched.enqueue(id, priority);
        self.try_dispatch(k, now, node);
    }

    /// Frees a job slot, returning the job. The id becomes eligible for
    /// reuse by the next admission.
    #[inline]
    pub fn remove_job(&mut self, id: JobId) -> Option<Job> {
        let job = self.jobs[id.index()].take();
        if let Some(j) = &job {
            self.free_jobs.push(id.0);
            if j.kind.is_stage() {
                self.stage_jobs[j.node.index()] -= 1;
            }
        }
        job
    }

    /// Re-materializes a node's elided dispatch as a real `Dispatch` in
    /// its reserved tie-break slot: another job arrived at a chained node
    /// (round-robin interleaving must resume at the next quantum boundary
    /// exactly as it would have without elision), or a stage job arrived
    /// at a background-only node (its scheduling is externally observable
    /// from here on and runs on real events). The lane's heap entry goes
    /// stale.
    pub fn materialize_lane(&mut self, k: &mut SimKernel, node: NodeId) {
        if let Some(lane) = self.lanes[node.index()].take() {
            let (at, seq) = lane.key();
            let h = k.queue.schedule_at_seq(at, seq, Ev::Dispatch { node });
            let r = self.nodes[node.index()]
                .running
                .as_mut()
                .expect("a node with a dispatch lane has a running job");
            debug_assert!(
                matches!(lane, DispatchLane::Chain(_)) || r.slice_end == at,
                "boundary key drifted from the running slice"
            );
            r.slice_end = at;
            r.dispatch_handle = Some(h);
        }
    }

    /// Truncates a chain to its pending link, which stays virtual as the
    /// node's boundary: on a background-only node the dispatch at
    /// `link.next_at` has no external observer. The key — and so the
    /// heap entry — is unchanged, so event order, and hence every RNG
    /// draw and output byte, is too.
    pub fn truncate_chain_to_bound(&mut self, node: NodeId) {
        if let Some(DispatchLane::Chain(link)) = self.lanes[node.index()] {
            self.lanes[node.index()] = Some(DispatchLane::Bound {
                at: link.next_at,
                seq: link.next_seq,
            });
            let r = self.nodes[node.index()]
                .running
                .as_mut()
                .expect("chained node has a running job");
            r.slice_end = link.next_at;
            debug_assert!(r.dispatch_handle.is_none(), "chained node had a heap dispatch");
        }
    }

    /// Fires node `i`'s elided intermediate dispatches, starting at its
    /// chain's pending link. For the lone job each is a state no-op
    /// (serve one quantum, requeue into an empty queue, pick itself
    /// back), so only its bookkeeping is replayed: the dispatch that
    /// handler would have scheduled takes the next sequence number, now.
    /// The chain's last link — the job's completion, which has real
    /// effects — keeps `next_at == completion` and is fired by the run
    /// loop as a direct handler call, never touching the queue.
    ///
    /// Burst: firing continues while the next link is intermediate,
    /// within `horizon`, and precedes `bound`, the earliest other pending
    /// key (no advance moves it). The caller holds the chain's lane entry
    /// at the heap top; it is re-keyed once, to the link the burst
    /// stopped at.
    pub fn advance_chain(
        &mut self,
        k: &mut SimKernel,
        i: usize,
        bound: Option<(SimTime, u64)>,
        horizon: SimTime,
    ) {
        let Some(DispatchLane::Chain(mut link)) = self.lanes[i] else {
            panic!("node {i} has no chain to advance");
        };
        let mut fired = 0;
        loop {
            debug_assert!(link.next_at < link.completion, "final link fired as intermediate");
            k.queue.advance_now(link.next_at);
            link.next_at = (link.next_at + link.quantum).min(link.completion);
            link.next_seq = k.queue.alloc_seq();
            fired += 1;
            if link.next_at >= link.completion
                || link.next_at > horizon
                || bound.is_some_and(|b| (link.next_at, link.next_seq) >= b)
            {
                break;
            }
        }
        self.lanes[i] = Some(DispatchLane::Chain(link));
        k.lanes.arm(link.next_at, link.next_seq, LaneRef::Dispatch(i as u32));
        if let Some(p) = k.perf.as_mut() {
            p.report.elided_dispatches += fired;
        }
    }

    /// A node's CPU slice ended: debit the served time, then complete or
    /// rotate the job and dispatch the next one.
    pub fn on_dispatch(
        &mut self,
        k: &mut SimKernel,
        tasks: &mut TaskTable,
        net: &mut NetEngine,
        now: SimTime,
        node: NodeId,
    ) {
        let running = self.nodes[node.index()]
            .running
            .take()
            .expect("dispatch event on idle node");
        debug_assert_eq!(running.slice_end, now, "dispatch at wrong instant");
        let served = now.since(running.slice_start);
        let job = self.jobs[running.job.index()]
            .as_mut()
            .expect("running job exists");
        job.serve(served);
        if job.is_complete() {
            let job = self.remove_job(running.job).expect("job exists");
            if let JobKind::Stage { stage, replica, instance } = job.kind {
                let released = job.released;
                tasks.on_stage_job_complete(k, net, now, stage, replica, instance, released);
            }
        } else {
            let prio = job.priority;
            self.nodes[node.index()].sched.requeue(running.job, prio);
        }
        self.try_dispatch(k, now, node);
    }

    /// Picks and starts the next job on an idle node, arming either a
    /// real slice-boundary `Dispatch`, a virtual chain (lone multi-quantum
    /// job), or a virtual boundary (background-only node, fast path).
    /// When the node's own lane is firing (held at the heap top), arming
    /// either virtual lane re-keys that entry in place.
    pub fn try_dispatch(&mut self, k: &mut SimKernel, now: SimTime, node: NodeId) {
        let (jid, lone, quantum) = {
            let n = &mut self.nodes[node.index()];
            if n.running.is_some() {
                return;
            }
            match n.sched.pick() {
                Some(jid) => (jid, n.sched.ready_len() == 0, n.sched.quantum()),
                None => {
                    n.end_busy(now);
                    return;
                }
            }
        };
        let job = self.jobs[jid.index()].as_mut().expect("picked job exists");
        if job.first_dispatch.is_none() {
            job.first_dispatch = Some(now);
        }
        let remaining = job.remaining;
        // Fast path, background-only node: the coming slice boundary has
        // no external observer, so it is carried on the boundary lane
        // instead of the heap (the chain arm below is already heap-free).
        let bg_only = k.config.bg_fast_path && self.stage_jobs[node.index()] == 0;
        let (slice_end, handle) = match quantum {
            // A lone job spanning several quanta: every intermediate
            // dispatch would requeue into an empty queue and pick the
            // same job back, so the whole run is carried on the virtual
            // chain. The first elided dispatch would be scheduled right
            // here; its sequence number is allocated right here.
            Some(q) if lone && remaining > q => {
                let completion = now + remaining;
                let next_at = now + q;
                let next_seq = k.queue.alloc_seq();
                self.lanes[node.index()] = Some(DispatchLane::Chain(DispatchChain {
                    next_at,
                    next_seq,
                    completion,
                    quantum: q,
                }));
                k.lanes.arm(next_at, next_seq, LaneRef::Dispatch(node.index() as u32));
                (completion, None)
            }
            Some(q) => {
                let end = now + q.min(remaining);
                if bg_only {
                    (end, self.elide_bound(k, end, node))
                } else {
                    (end, Some(k.queue.schedule(end, Ev::Dispatch { node })))
                }
            }
            None => {
                let end = now + remaining;
                if bg_only {
                    (end, self.elide_bound(k, end, node))
                } else {
                    (end, Some(k.queue.schedule(end, Ev::Dispatch { node })))
                }
            }
        };
        let n = &mut self.nodes[node.index()];
        n.running = Some(Running {
            job: jid,
            slice_start: now,
            slice_end,
            dispatch_handle: handle,
        });
        n.begin_busy(now);
    }

    /// Arms the boundary lane for a background-only node's slice end and
    /// returns the (absent) dispatch handle. The seq is allocated at the
    /// exact program point where the slow path would `schedule`, keeping
    /// tie-break order bit-identical.
    #[inline]
    fn elide_bound(
        &mut self,
        k: &mut SimKernel,
        end: SimTime,
        node: NodeId,
    ) -> Option<crate::event::EventHandle> {
        let seq = k.queue.alloc_seq();
        self.lanes[node.index()] = Some(DispatchLane::Bound { at: end, seq });
        k.lanes.arm(end, seq, LaneRef::Dispatch(node.index() as u32));
        None
    }
}
