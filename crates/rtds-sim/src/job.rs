//! CPU jobs.
//!
//! A [`Job`] is one contiguous piece of CPU demand queued at a node: either
//! one replica of one pipeline stage processing its share of the period's
//! data stream, or a slice of synthetic background load. The scheduler
//! interleaves jobs; the engine tracks each job's remaining service time.

use crate::ids::{JobId, LoadGenId, NodeId, StageId};
use crate::time::{SimDuration, SimTime};

/// What a job is doing, for attribution in metrics and traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One replica of a pipeline stage for one period instance.
    Stage {
        /// Which stage of which task.
        stage: StageId,
        /// Replica index within the stage's current placement (0 = original).
        replica: u32,
        /// Period instance number this job belongs to.
        instance: u64,
    },
    /// Synthetic background load from a generator.
    Background(LoadGenId),
}

impl JobKind {
    /// True for application (stage) work as opposed to background load.
    pub fn is_stage(&self) -> bool {
        matches!(self, JobKind::Stage { .. })
    }
}

/// One unit of CPU demand on one node.
#[derive(Debug, Clone)]
pub struct Job {
    /// Unique id within the run.
    pub id: JobId,
    /// Node whose CPU this job consumes.
    pub node: NodeId,
    /// What the job is.
    pub kind: JobKind,
    /// Total service demand.
    pub total: SimDuration,
    /// Service demand not yet received.
    pub remaining: SimDuration,
    /// When the job entered the ready queue.
    pub released: SimTime,
    /// When the job first received CPU, if it has.
    pub first_dispatch: Option<SimTime>,
    /// Scheduling priority (lower number = more urgent); only the priority
    /// scheduler looks at this.
    pub priority: u8,
}

impl Job {
    /// Creates a ready job with full remaining demand.
    pub fn new(
        id: JobId,
        node: NodeId,
        kind: JobKind,
        demand: SimDuration,
        released: SimTime,
    ) -> Self {
        Job {
            id,
            node,
            kind,
            total: demand,
            remaining: demand,
            released,
            first_dispatch: None,
            priority: 0,
        }
    }

    /// Same, with an explicit priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// True once the job has consumed its whole demand.
    pub fn is_complete(&self) -> bool {
        self.remaining.is_zero()
    }

    /// Applies `served` microseconds of CPU service.
    ///
    /// # Panics
    /// Panics in debug builds if serving more than remains.
    pub fn serve(&mut self, served: SimDuration) {
        debug_assert!(served <= self.remaining, "over-serving job {}", self.id);
        self.remaining -= served;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SubtaskIdx, TaskId};

    fn stage_kind() -> JobKind {
        JobKind::Stage {
            stage: StageId::new(TaskId(0), SubtaskIdx(2)),
            replica: 1,
            instance: 42,
        }
    }

    #[test]
    fn new_job_has_full_remaining() {
        let j = Job::new(
            JobId(0),
            NodeId(1),
            stage_kind(),
            SimDuration::from_millis(10),
            SimTime::from_secs(1),
        );
        assert_eq!(j.remaining, j.total);
        assert!(!j.is_complete());
        assert!(j.first_dispatch.is_none());
    }

    #[test]
    fn serving_runs_job_to_completion() {
        let mut j = Job::new(
            JobId(0),
            NodeId(0),
            JobKind::Background(LoadGenId(0)),
            SimDuration::from_millis(3),
            SimTime::ZERO,
        );
        j.serve(SimDuration::from_millis(1));
        assert_eq!(j.remaining, SimDuration::from_millis(2));
        j.serve(SimDuration::from_millis(2));
        assert!(j.is_complete());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn over_serving_panics() {
        let mut j = Job::new(
            JobId(0),
            NodeId(0),
            JobKind::Background(LoadGenId(0)),
            SimDuration::from_millis(1),
            SimTime::ZERO,
        );
        j.serve(SimDuration::from_millis(2));
    }

    #[test]
    fn kind_classification() {
        assert!(stage_kind().is_stage());
        assert!(!JobKind::Background(LoadGenId(3)).is_stage());
    }

    #[test]
    fn priority_builder() {
        let j = Job::new(
            JobId(0),
            NodeId(0),
            stage_kind(),
            SimDuration::from_millis(5),
            SimTime::ZERO,
        )
        .with_priority(3);
        assert_eq!(j.priority, 3);
    }
}
