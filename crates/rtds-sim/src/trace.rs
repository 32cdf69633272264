//! Structured run tracing.
//!
//! A lightweight, allocation-conscious event trace the cluster can emit
//! into: one [`TraceEvent`] per interesting state change (release, stage
//! completion, message delivery, placement change, shedding, node
//! failure). Tests assert against traces instead of printf-debugging, and
//! the `aaw_mission` example renders one. Disabled by default — a
//! [`TraceSink`] is opt-in and bounded: it is the generic
//! [`BoundedSink`] over [`TraceEvent`], built with
//! [`TraceEvent::is_failure_class`] as its retention predicate.

use crate::ids::{MsgId, NodeId, StageId};
use crate::sink::BoundedSink;
use crate::time::SimDuration;

/// One traced state change.
#[derive(Debug, Clone, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum TraceEvent {
    /// A period instance was released with this many tracks.
    Release {
        /// Instance number.
        instance: u64,
        /// Data items this period.
        tracks: u64,
    },
    /// A period instance was shed by admission control.
    Shed {
        /// Instance number.
        instance: u64,
    },
    /// One replica of a stage finished its CPU job.
    ReplicaDone {
        /// Stage.
        stage: StageId,
        /// Replica index.
        replica: u32,
        /// Instance number.
        instance: u64,
        /// Observed execution latency.
        latency: SimDuration,
    },
    /// All replicas of a stage finished.
    StageDone {
        /// Stage.
        stage: StageId,
        /// Instance number.
        instance: u64,
    },
    /// An instance completed end-to-end.
    InstanceDone {
        /// Instance number.
        instance: u64,
        /// End-to-end latency.
        latency: SimDuration,
        /// Whether the deadline was missed.
        missed: bool,
    },
    /// A placement change took effect.
    Placement {
        /// Stage whose replica set changed.
        stage: StageId,
        /// New replica nodes.
        nodes: Vec<NodeId>,
    },
    /// A node failed (fault injection).
    NodeFailed {
        /// The failed node.
        node: NodeId,
    },
    /// A crashed node came back online (cold caches, empty queues).
    NodeRestarted {
        /// The restarted node.
        node: NodeId,
    },
    /// A message was lost for good: delivered to a dead node with no
    /// retransmission pending, purged when its sender crashed, or
    /// abandoned after the retransmit budget ran out.
    MessageLost {
        /// Id of the original send.
        msg: MsgId,
        /// Intended destination.
        dst: NodeId,
    },
    /// The lossy bus corrupted a message after it burned its wire time.
    MessageDropped {
        /// Id of the original send.
        msg: MsgId,
    },
    /// The bus delivered a spurious duplicate of a message.
    MessageDuplicated {
        /// Id of the original send.
        msg: MsgId,
    },
    /// A sender timed out waiting for delivery and retransmitted.
    Retransmit {
        /// Id of the original send.
        msg: MsgId,
        /// Retransmission attempt number (1-based).
        attempt: u32,
    },
}

impl TraceEvent {
    /// True for events that witness a failure or a lost deadline: sheds,
    /// missed instances, node failures/restarts, and terminal message
    /// losses. These are what post-mortems and tests care most about, so
    /// this is the retention predicate of the run trace: a full
    /// [`TraceSink`] keeps them even past its capacity.
    /// `Retransmit` and `MessageDuplicated` are *recovered* anomalies and
    /// deliberately excluded — under a lossy bus they are high-volume and
    /// would defeat the bound.
    pub fn is_failure_class(&self) -> bool {
        matches!(
            self,
            TraceEvent::Shed { .. }
                | TraceEvent::InstanceDone { missed: true, .. }
                | TraceEvent::NodeFailed { .. }
                | TraceEvent::NodeRestarted { .. }
                | TraceEvent::MessageLost { .. }
                | TraceEvent::MessageDropped { .. }
        )
    }
}

/// A bounded in-memory trace sink.
///
/// Once `capacity` ordinary events have been recorded, further ordinary
/// events are counted in [`BoundedSink::dropped`] and discarded.
/// Failure-class events ([`TraceEvent::is_failure_class`]) are exempt
/// from the bound when the sink is built with
/// `BoundedSink::retaining(capacity, TraceEvent::is_failure_class)`, as
/// `Cluster::enable_trace` does: a crash or deadline miss at the end of a
/// long run must not vanish because the buffer filled with routine
/// releases hours earlier. Failure events are rare by nature (bounded by
/// fault-plan entries and released instances, not by simulated time), so
/// the memory bound stays effective.
pub type TraceSink = BoundedSink<TraceEvent>;

impl BoundedSink<TraceEvent> {
    /// Renders a human-readable log.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (t, e) in self.events() {
            let _ = match e {
                TraceEvent::Release { instance, tracks } => {
                    writeln!(out, "{t} release   #{instance} tracks={tracks}")
                }
                TraceEvent::Shed { instance } => writeln!(out, "{t} SHED      #{instance}"),
                TraceEvent::ReplicaDone {
                    stage,
                    replica,
                    instance,
                    latency,
                } => writeln!(out, "{t} replica   {stage}[{replica}] #{instance} {latency}"),
                TraceEvent::StageDone { stage, instance } => {
                    writeln!(out, "{t} stage     {stage} #{instance}")
                }
                TraceEvent::InstanceDone {
                    instance,
                    latency,
                    missed,
                } => writeln!(
                    out,
                    "{t} done      #{instance} {latency}{}",
                    if *missed { " MISSED" } else { "" }
                ),
                TraceEvent::Placement { stage, nodes } => {
                    writeln!(out, "{t} placement {stage} -> {nodes:?}")
                }
                TraceEvent::NodeFailed { node } => writeln!(out, "{t} FAILURE   {node}"),
                TraceEvent::NodeRestarted { node } => writeln!(out, "{t} RESTART   {node}"),
                TraceEvent::MessageLost { msg, dst } => {
                    writeln!(out, "{t} MSG-LOST  {msg} -> {dst}")
                }
                TraceEvent::MessageDropped { msg } => writeln!(out, "{t} MSG-DROP  {msg}"),
                TraceEvent::MessageDuplicated { msg } => writeln!(out, "{t} MSG-DUP   {msg}"),
                TraceEvent::Retransmit { msg, attempt } => {
                    writeln!(out, "{t} RETX      {msg} attempt={attempt}")
                }
            };
        }
        if self.dropped() > 0 {
            let _ = writeln!(out, "({} further events dropped)", self.dropped());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SubtaskIdx, TaskId};
    use crate::sink::EventSink;
    use crate::time::SimTime;

    fn retaining(capacity: usize) -> TraceSink {
        TraceSink::retaining(capacity, TraceEvent::is_failure_class)
    }

    fn stage() -> StageId {
        StageId::new(TaskId(0), SubtaskIdx(2))
    }

    #[test]
    fn records_in_order() {
        let mut s = retaining(10);
        s.record(SimTime::from_millis(1), TraceEvent::Release { instance: 0, tracks: 7 });
        s.record(
            SimTime::from_millis(2),
            TraceEvent::StageDone { stage: stage(), instance: 0 },
        );
        assert_eq!(s.events().len(), 2);
        assert!(s.events()[0].0 < s.events()[1].0);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn render_reports_dropped_count() {
        let mut s = retaining(2);
        for i in 0..5 {
            s.record(SimTime::from_millis(i), TraceEvent::Release { instance: i, tracks: 1 });
        }
        assert_eq!(s.dropped(), 3);
        assert!(s.render().contains("3 further events dropped"));
    }

    #[test]
    fn full_sink_still_retains_failure_class_events() {
        // Regression: a full sink used to drop the *newest* events
        // unconditionally, so end-of-run failures — exactly what
        // post-mortems need — vanished first.
        let mut s = retaining(2);
        for i in 0..4 {
            s.record(SimTime::from_millis(i), TraceEvent::Release { instance: i, tracks: 1 });
        }
        s.record(SimTime::from_millis(10), TraceEvent::NodeFailed { node: NodeId(3) });
        s.record(SimTime::from_millis(11), TraceEvent::Shed { instance: 9 });
        s.record(
            SimTime::from_millis(12),
            TraceEvent::MessageLost { msg: MsgId(5), dst: NodeId(3) },
        );
        s.record(
            SimTime::from_millis(13),
            TraceEvent::InstanceDone {
                instance: 9,
                latency: SimDuration::from_millis(999),
                missed: true,
            },
        );
        // Recovered anomalies and routine events still respect the bound.
        s.record(SimTime::from_millis(14), TraceEvent::Retransmit { msg: MsgId(6), attempt: 1 });
        s.record(SimTime::from_millis(15), TraceEvent::Release { instance: 10, tracks: 1 });

        let kept: Vec<&TraceEvent> = s.events().iter().map(|(_, e)| e).collect();
        assert_eq!(kept.len(), 6, "2 ordinary + 4 failure-class:\n{}", s.render());
        assert!(kept.iter().filter(|e| e.is_failure_class()).count() == 4);
        assert_eq!(s.dropped(), 4); // 2 overflow releases + retransmit + last release
    }

    #[test]
    fn filtered_selects_matching_kinds() {
        let mut s = retaining(16);
        s.record(SimTime::ZERO, TraceEvent::Release { instance: 0, tracks: 1 });
        s.record(SimTime::ZERO, TraceEvent::NodeFailed { node: NodeId(3) });
        s.record(SimTime::ZERO, TraceEvent::Release { instance: 1, tracks: 2 });
        let releases: Vec<_> = s
            .filtered(|e| matches!(e, TraceEvent::Release { .. }))
            .collect();
        assert_eq!(releases.len(), 2);
    }

    #[test]
    fn render_is_line_oriented_and_labeled() {
        let mut s = retaining(8);
        s.record(
            SimTime::from_millis(5),
            TraceEvent::InstanceDone {
                instance: 3,
                latency: SimDuration::from_millis(700),
                missed: true,
            },
        );
        s.record(
            SimTime::from_millis(6),
            TraceEvent::Placement {
                stage: stage(),
                nodes: vec![NodeId(2), NodeId(5)],
            },
        );
        let r = s.render();
        assert!(r.contains("MISSED"));
        assert!(r.contains("placement"));
        assert_eq!(r.lines().count(), 2);
    }

    #[test]
    fn failure_realism_events_render_distinctly() {
        let mut s = retaining(8);
        s.record(SimTime::ZERO, TraceEvent::NodeRestarted { node: NodeId(2) });
        s.record(SimTime::ZERO, TraceEvent::MessageLost { msg: MsgId(7), dst: NodeId(1) });
        s.record(SimTime::ZERO, TraceEvent::MessageDropped { msg: MsgId(8) });
        s.record(SimTime::ZERO, TraceEvent::MessageDuplicated { msg: MsgId(9) });
        s.record(SimTime::ZERO, TraceEvent::Retransmit { msg: MsgId(7), attempt: 2 });
        let r = s.render();
        for needle in ["RESTART", "MSG-LOST", "MSG-DROP", "MSG-DUP", "RETX", "attempt=2"] {
            assert!(r.contains(needle), "missing {needle}:\n{r}");
        }
    }
}
