//! Event sinks.
//!
//! [`EventSink`] is anything that accepts `(time, event)` pairs. The
//! simulator and the managers write through the trait; what happens to
//! the events is the sink's business. Two backends exist:
//! [`BoundedSink`], a bounded in-memory buffer for any event type (the
//! run trace, [`crate::trace::TraceSink`], is one with failure-class
//! retention), and [`JsonlSink`], which streams JSONL to a writer.
//!
//! Sinks are strictly opt-in and must never influence the simulation:
//! implementations record and step aside. Nothing in this module draws
//! randomness or feeds back into event ordering, so a run with sinks
//! attached is byte-identical to the same run without them.

use crate::time::SimTime;

/// A consumer of timestamped events.
///
/// `record` is called in nondecreasing time order, once per event, and
/// must not fail
/// loudly — a sink that hits an internal error (e.g. a full buffer or a
/// broken writer) degrades by dropping events and exposing a counter,
/// never by panicking into the simulation.
pub trait EventSink<E> {
    /// Accepts one event observed at simulated time `now`.
    fn record(&mut self, now: SimTime, event: E);

    /// Flushes any buffered output. Default: nothing to flush.
    fn flush(&mut self) {}
}

/// Every sink behind `Arc<Mutex<_>>` is itself a sink; this is how one
/// sink is shared between the embedder (which drains it after the run)
/// and a producer that is consumed by the simulation (a boxed
/// controller, typically). Lock poisoning is recovered, not propagated:
/// a panic elsewhere must not cascade through telemetry.
impl<E, S: EventSink<E>> EventSink<E> for std::sync::Arc<std::sync::Mutex<S>> {
    fn record(&mut self, now: SimTime, event: E) {
        self.lock().unwrap_or_else(|e| e.into_inner()).record(now, event);
    }

    fn flush(&mut self) {
        self.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

/// A bounded in-memory sink for any event type. Events past `capacity`
/// are counted and dropped — newest first, since the buffer fills
/// front-to-back — so a runaway producer cannot OOM the run. Events the
/// sink's retention predicate accepts are kept even past capacity; they
/// must be rare by nature for the bound to stay effective.
#[derive(Debug, Clone)]
pub struct BoundedSink<E> {
    events: Vec<(SimTime, E)>,
    capacity: usize,
    dropped: u64,
    retain: fn(&E) -> bool,
}

impl<E> BoundedSink<E> {
    /// Creates a sink holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        Self::retaining(capacity, |_| false)
    }

    /// Creates a sink holding at most `capacity` events, plus every event
    /// `retain` accepts regardless of capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn retaining(capacity: usize, retain: fn(&E) -> bool) -> Self {
        assert!(capacity > 0, "zero-capacity event sink");
        BoundedSink {
            events: Vec::new(),
            capacity,
            dropped: 0,
            retain,
        }
    }

    /// All recorded events in arrival order.
    pub fn events(&self) -> &[(SimTime, E)] {
        &self.events
    }

    /// Recorded events matching a predicate.
    pub fn filtered<'a>(
        &'a self,
        mut pred: impl FnMut(&E) -> bool + 'a,
    ) -> impl Iterator<Item = &'a (SimTime, E)> + 'a {
        self.events.iter().filter(move |(_, e)| pred(e))
    }

    /// Consumes the sink, yielding its events.
    pub fn into_events(self) -> Vec<(SimTime, E)> {
        self.events
    }

    /// Number of events dropped after the sink filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<E> EventSink<E> for BoundedSink<E> {
    fn record(&mut self, now: SimTime, event: E) {
        if self.events.len() < self.capacity || (self.retain)(&event) {
            self.events.push((now, event));
        } else {
            self.dropped += 1;
        }
    }
}

/// A streaming JSONL sink: each event becomes one line of the form
/// `{"at_us":<time>,"event":<serialized event>}` written straight to the
/// underlying writer. Memory use is constant regardless of run length —
/// the right backend for long soaks where a bounded buffer would wrap.
///
/// Write errors do not panic (telemetry must never take down a run):
/// the first error is retained, subsequent events are counted as dropped,
/// and the embedder can inspect [`JsonlSink::error`] after the run.
#[derive(Debug)]
pub struct JsonlSink<W: std::io::Write> {
    out: W,
    lines: u64,
    dropped: u64,
    error: Option<String>,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            lines: 0,
            dropped: 0,
            error: None,
        }
    }

    /// Lines successfully written.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Events dropped after the first error.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The first serialization or write error, if any occurred.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: std::io::Write, E: serde::Serialize> EventSink<E> for JsonlSink<W> {
    fn record(&mut self, now: SimTime, event: E) {
        if self.error.is_some() {
            self.dropped += 1;
            return;
        }
        let line = match serde_json::to_string(&event) {
            Ok(js) => js,
            Err(e) => {
                self.error = Some(format!("serialize: {e:?}"));
                self.dropped += 1;
                return;
            }
        };
        if let Err(e) = writeln!(self.out, "{{\"at_us\":{},\"event\":{}}}", now.as_micros(), line)
        {
            self.error = Some(format!("write: {e}"));
            self.dropped += 1;
        } else {
            self.lines += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn bounded_sink_stores_in_order_and_drops_overflow() {
        let mut s: BoundedSink<u32> = BoundedSink::bounded(2);
        for i in 0..5u32 {
            s.record(SimTime::from_millis(u64::from(i)), i);
        }
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.events()[0].1, 0);
        assert_eq!(s.events()[1].1, 1);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.into_events().len(), 2);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn bounded_sink_rejects_zero_capacity() {
        let _: BoundedSink<u32> = BoundedSink::bounded(0);
    }

    #[test]
    fn jsonl_sink_writes_one_envelope_per_event() {
        let mut s = JsonlSink::new(Vec::new());
        s.record(SimTime::from_micros(1_500), 7u32);
        s.record(SimTime::from_micros(2_500), 9u32);
        EventSink::<u32>::flush(&mut s);
        assert_eq!(s.lines(), 2);
        assert_eq!(s.error(), None);
        let text = String::from_utf8(s.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"at_us\":1500,\"event\":7}");
        assert_eq!(lines[1], "{\"at_us\":2500,\"event\":9}");
    }

    #[test]
    fn jsonl_sink_survives_a_broken_writer() {
        /// A writer that always fails.
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut s = JsonlSink::new(Broken);
        s.record(SimTime::ZERO, 1u32);
        s.record(SimTime::ZERO, 2u32);
        assert_eq!(s.lines(), 0);
        assert_eq!(s.dropped(), 2);
        assert!(s.error().unwrap().contains("disk on fire"));
    }

    #[test]
    fn shared_sink_records_through_the_mutex() {
        let shared = Arc::new(Mutex::new(BoundedSink::bounded(4)));
        let mut handle = Arc::clone(&shared);
        handle.record(SimTime::from_millis(3), 42u32);
        EventSink::<u32>::flush(&mut handle);
        assert_eq!(shared.lock().unwrap().events(), &[(SimTime::from_millis(3), 42)]);
    }
}
