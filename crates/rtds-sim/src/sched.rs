//! The per-node CPU ready queue.
//!
//! The paper's testbed runs a round-robin scheduler with a 1 ms time slice
//! (Table 1). FIFO (run-to-completion) and static priority are provided for
//! ablation studies — the latency inflation that the Eq. (3) regression
//! captures depends on the policy, and comparing policies shows the
//! regression pipeline adapting to each. The three policies form a closed
//! set: [`SchedulerKind::build`] configures one concrete [`ReadyQueue`]
//! for each of them.

use std::collections::VecDeque;

use crate::ids::JobId;
use crate::time::SimDuration;

/// Which policy to run on each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum SchedulerKind {
    /// Round-robin with the given quantum (the paper's baseline is 1 ms).
    RoundRobin {
        /// Time-slice in microseconds.
        quantum_us: u64,
    },
    /// FIFO, run-to-completion.
    Fifo,
    /// Non-preemptive static priority (lower number served first), with an
    /// optional quantum applied *within* a priority level.
    StaticPriority {
        /// Optional intra-level time-slice in microseconds.
        quantum_us: Option<u64>,
    },
}

impl SchedulerKind {
    /// The paper's baseline: round-robin, 1 ms slice.
    pub fn paper_baseline() -> Self {
        SchedulerKind::RoundRobin { quantum_us: 1_000 }
    }

    /// Builds one node's ready queue under this policy.
    ///
    /// # Panics
    /// Panics if the round-robin quantum, or a static-priority quantum
    /// when set, is zero (a zero slice would live-lock dispatch).
    pub fn build(self) -> ReadyQueue {
        let (quantum_us, by_priority) = match self {
            SchedulerKind::RoundRobin { quantum_us } => (Some(quantum_us), false),
            SchedulerKind::Fifo => (None, false),
            SchedulerKind::StaticPriority { quantum_us } => (quantum_us, true),
        };
        assert!(quantum_us != Some(0), "{self:?}: quantum must be positive");
        ReadyQueue {
            levels: vec![VecDeque::new()],
            by_priority,
            quantum: quantum_us.map(SimDuration::from_micros),
            len: 0,
        }
    }
}

/// One node's ready set: the jobs waiting for its CPU, in service order.
///
/// Round-robin and FIFO keep one list in arrival order and ignore job
/// priority. Static priority keeps one list per level, serves the lowest
/// level first and is FIFO within a level. Under a quantum, a job whose
/// slice expires unfinished rejoins the tail of its level, so ready jobs
/// time-share; without one, each job runs to completion.
///
/// The queue only orders job ids; the dispatch engine owns job state
/// (remaining service time) and drives dispatch at slice boundaries.
/// Every pick is a function of the `enqueue`/`pick`/`requeue` call
/// sequence alone. The engine elides provably inert dispatch events
/// (lone-job quantum chains, the background-load fast path) on that
/// guarantee: replaying the same calls reproduces the same picks, which
/// byte-identical fast/slow execution and `tests/golden/` depend on.
#[derive(Clone)]
pub struct ReadyQueue {
    /// Ready jobs per priority level, each in service order. Round-robin
    /// and FIFO use level 0 only.
    levels: Vec<VecDeque<JobId>>,
    /// Whether jobs are filed by priority (static priority).
    by_priority: bool,
    /// The time slice, or `None` for run-to-completion.
    quantum: Option<SimDuration>,
    /// Ready jobs across all levels.
    len: usize,
}

impl ReadyQueue {
    /// Admits a newly released job at the tail of its level.
    pub fn enqueue(&mut self, job: JobId, priority: u8) {
        let level = if self.by_priority { usize::from(priority) } else { 0 };
        if level >= self.levels.len() {
            self.levels.resize_with(level + 1, VecDeque::new);
        }
        self.levels[level].push_back(job);
        self.len += 1;
    }

    /// Removes and returns the next job to run, if any.
    pub fn pick(&mut self) -> Option<JobId> {
        let job = self.levels.iter_mut().find_map(VecDeque::pop_front)?;
        self.len -= 1;
        Some(job)
    }

    /// Returns a job whose quantum expired (still unfinished) to the tail
    /// of its level. Without a quantum a slice always completes its job,
    /// so run-to-completion never re-queues.
    pub fn requeue(&mut self, job: JobId, priority: u8) {
        debug_assert!(self.quantum.is_some(), "only a quantum expiry re-queues a job");
        self.enqueue(job, priority);
    }

    /// The time slice after which an unfinished job is put back, or `None`
    /// for run-to-completion.
    pub fn quantum(&self) -> Option<SimDuration> {
        self.quantum
    }

    /// Number of ready (not currently running) jobs.
    pub fn ready_len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `q` in service order.
    pub(super) fn served(q: &mut ReadyQueue) -> Vec<u32> {
        std::iter::from_fn(|| q.pick()).map(|j| j.0).collect()
    }

    #[test]
    fn paper_baseline_is_1ms_round_robin() {
        let kind = SchedulerKind::paper_baseline();
        assert_eq!(kind, SchedulerKind::RoundRobin { quantum_us: 1_000 });
        assert_eq!(kind.build().quantum(), Some(SimDuration::from_millis(1)));
    }

    #[test]
    fn build_dispatches_to_each_policy() {
        for (kind, quantum) in [
            (SchedulerKind::RoundRobin { quantum_us: 500 }, Some(SimDuration::from_micros(500))),
            (SchedulerKind::Fifo, None),
            (SchedulerKind::StaticPriority { quantum_us: None }, None),
            (
                SchedulerKind::StaticPriority { quantum_us: Some(1_000) },
                Some(SimDuration::from_millis(1)),
            ),
        ] {
            assert_eq!(kind.build().quantum(), quantum, "{kind:?}");
        }
    }
}

/// Per-policy behaviour of [`ReadyQueue`], one module per
/// [`SchedulerKind`] variant.
#[cfg(test)]
mod round_robin {
    mod tests {
        use crate::ids::JobId;
        use crate::sched::tests::served;
        use crate::sched::{ReadyQueue, SchedulerKind};

        fn rr() -> ReadyQueue {
            SchedulerKind::RoundRobin { quantum_us: 1_000 }.build()
        }

        #[test]
        fn serves_in_arrival_order_initially() {
            let mut q = rr();
            // Priority is ignored: one ring in arrival order.
            for (job, prio) in [(1, 3), (2, 0), (3, 7)] {
                q.enqueue(JobId(job), prio);
            }
            assert_eq!(served(&mut q), [1, 2, 3]);
            assert_eq!(q.pick(), None);
        }

        #[test]
        fn requeue_rotates_to_tail() {
            let mut q = rr();
            q.enqueue(JobId(1), 0);
            q.enqueue(JobId(2), 0);
            let first = q.pick().unwrap();
            q.requeue(first, 0);
            assert_eq!(served(&mut q), [2, 1]);
        }

        #[test]
        fn rotation_is_fair_over_many_rounds() {
            let mut q = rr();
            for i in 0..4 {
                q.enqueue(JobId(i), 0);
            }
            let mut counts = [0u32; 4];
            for _ in 0..400 {
                let j = q.pick().unwrap();
                counts[j.0 as usize] += 1;
                q.requeue(j, 0);
            }
            assert!(counts.iter().all(|&c| c == 100), "{counts:?}");
        }

        #[test]
        fn ready_len_tracks_membership() {
            let mut q = rr();
            assert_eq!(q.ready_len(), 0);
            q.enqueue(JobId(0), 0);
            q.enqueue(JobId(1), 5);
            assert_eq!(q.ready_len(), 2);
            q.pick();
            assert_eq!(q.ready_len(), 1);
            q.pick();
            assert_eq!(q.ready_len(), 0);
        }

        #[test]
        #[should_panic(expected = "quantum must be positive")]
        fn zero_quantum_rejected() {
            let _ = SchedulerKind::RoundRobin { quantum_us: 0 }.build();
        }
    }
}

#[cfg(test)]
mod fifo {
    mod tests {
        use crate::ids::JobId;
        use crate::sched::tests::served;
        use crate::sched::SchedulerKind;

        #[test]
        fn strictly_fifo_order() {
            let mut q = SchedulerKind::Fifo.build();
            // Priority is ignored.
            for (job, prio) in [(0, 4), (1, 0), (2, 9), (3, 0), (4, 1)] {
                q.enqueue(JobId(job), prio);
            }
            assert_eq!(q.ready_len(), 5);
            assert_eq!(served(&mut q), [0, 1, 2, 3, 4]);
            assert_eq!(q.pick(), None);
            assert_eq!(q.ready_len(), 0);
        }

        #[test]
        fn run_to_completion_has_no_quantum() {
            assert_eq!(SchedulerKind::Fifo.build().quantum(), None);
        }

        /// Without a quantum, dispatch grants a job its whole remaining
        /// demand and the slice always completes it, so FIFO never
        /// re-queues. A re-queue would be an engine bug; the debug check
        /// makes it loud instead of silently reordering the queue.
        #[test]
        #[cfg(debug_assertions)]
        #[should_panic(expected = "only a quantum expiry re-queues")]
        fn never_requeued_without_a_quantum() {
            let mut q = SchedulerKind::Fifo.build();
            q.enqueue(JobId(1), 0);
            let j = q.pick().unwrap();
            q.requeue(j, 0);
        }
    }
}

#[cfg(test)]
mod priority {
    mod tests {
        use crate::ids::JobId;
        use crate::sched::tests::served;
        use crate::sched::{ReadyQueue, SchedulerKind};

        fn prio(quantum_us: Option<u64>) -> ReadyQueue {
            SchedulerKind::StaticPriority { quantum_us }.build()
        }

        #[test]
        fn lower_number_served_first() {
            let mut q = prio(None);
            for (job, level) in [(10, 2), (20, 0), (30, 1)] {
                q.enqueue(JobId(job), level);
            }
            assert_eq!(served(&mut q), [20, 30, 10]);
        }

        #[test]
        fn fifo_within_a_level() {
            let mut q = prio(None);
            for (job, level) in [(1, 1), (2, 1), (9, 3), (3, 1)] {
                q.enqueue(JobId(job), level);
            }
            assert_eq!(served(&mut q), [1, 2, 3, 9]);
        }

        #[test]
        fn requeue_rotates_within_level() {
            let mut q = prio(Some(1_000));
            q.enqueue(JobId(1), 1);
            q.enqueue(JobId(2), 1);
            q.enqueue(JobId(3), 2);
            let j = q.pick().unwrap();
            q.requeue(j, 1);
            // Job 1 goes behind job 2, but stays ahead of level 2.
            assert_eq!(served(&mut q), [2, 1, 3]);
        }

        #[test]
        fn high_priority_arrival_wins_next_pick() {
            let mut q = prio(None);
            q.enqueue(JobId(1), 5);
            q.enqueue(JobId(2), 5);
            q.pick();
            q.enqueue(JobId(3), 0);
            assert_eq!(q.pick(), Some(JobId(3)), "urgent job jumps the queue");
        }

        #[test]
        fn len_is_maintained_across_levels() {
            let mut q = prio(None);
            assert_eq!(q.ready_len(), 0);
            q.enqueue(JobId(1), 0);
            q.enqueue(JobId(2), 7);
            assert_eq!(q.ready_len(), 2);
            q.pick();
            assert_eq!(q.ready_len(), 1);
            q.pick();
            assert_eq!(q.ready_len(), 0);
            assert_eq!(q.pick(), None);
        }

        #[test]
        #[should_panic(expected = "quantum must be positive")]
        fn zero_quantum_rejected() {
            let _ = prio(Some(0));
        }
    }
}
