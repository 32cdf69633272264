//! Lazy min-heap over the engine's *virtual* event lanes.
//!
//! A virtual lane is a pending event that the fast path carries as a key
//! instead of a heap event: each node's dispatch lane (the elided quantum
//! chain of a lone job, or the elided slice boundary of a
//! background-only node — never both, by construction) and each
//! background generator's poll lane. The [`LaneHeap`] orders their keys
//! by the same total `(time, seq)` order as the real event queue, so the
//! run loop can interleave the two exactly.
//!
//! Entries are packed into one `u128`, `at_us << 64 | seq << 21 | kind
//! << 20 | index`. Seqs are unique for the lifetime of a run, so the
//! packed order is the `(time, seq)` order and the lane bits never
//! decide a comparison. Packing requires `seq < 2^43` and `index < 2^20`
//! (asserted here; `Cluster` also checks the node and generator counts
//! up front).
//!
//! **Fire in place.** The run loop [`hold`](LaneHeap::hold)s the entry it
//! fires at the top of the heap while the lane's handler runs. Anything
//! the handler arms takes a fresh seq at a time no earlier than now, so
//! it keys strictly after the held entry, which therefore stays on top.
//! If the handler re-arms the same lane, [`arm`](LaneHeap::arm) re-keys
//! the held entry in place — one sift instead of a pop plus a push; if it
//! does not (the node went idle or its next slice is a real event, the
//! generator retired), [`release`](LaneHeap::release) pops it. Either
//! way, a firing costs one heap operation — and a burst of chain links
//! that all precede every other pending key costs one re-key in total.
//!
//! **Lazy invalidation.** An entry is live iff its seq equals the owning
//! lane's current seq; the run loop checks this on peek and discards
//! stale entries. Stale entries only arise when a node's dispatch lane is
//! cancelled out of band: a stage admission materializes it as a real
//! event in the queue, or the node dies with it. The common paths — arm →
//! fire → re-arm, and the chain-to-boundary hand-off, which keeps the
//! key — leave none.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::perf::LaneStats;
use crate::time::SimTime;

/// Which virtual lane an entry refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneRef {
    /// `DispatchEngine::lanes[i]`: node `i`'s elided dispatch, a quantum
    /// chain or a background boundary.
    Dispatch(u32),
    /// `LoadEngine::polls[g]`: the elided next poll of a background
    /// generator (fast path only).
    Poll(u32),
}

/// Bits of the packed key below the seq: one kind bit plus the index.
const LANE_BITS: u32 = 21;
/// Exclusive bound on a lane index (node or generator).
pub(crate) const MAX_LANE_INDEX: usize = 1 << (LANE_BITS - 1);
/// Exclusive bound on a packable seq: what is left of the low 64 bits.
const MAX_SEQ: u64 = 1 << (64 - LANE_BITS);
const POLL_BIT: u32 = 1 << (LANE_BITS - 1);

impl LaneRef {
    /// The low [`LANE_BITS`] of a packed key.
    #[inline]
    fn bits(self) -> u32 {
        match self {
            LaneRef::Dispatch(i) => i,
            LaneRef::Poll(g) => POLL_BIT | g,
        }
    }
}

/// Packs a lane key into its heap representation.
///
/// # Panics
/// Panics if `seq >= 2^43` or the lane index is `>= 2^20`.
#[inline]
fn pack(at: SimTime, seq: u64, lane: LaneRef) -> u128 {
    let index = match lane {
        LaneRef::Dispatch(i) | LaneRef::Poll(i) => i,
    };
    assert!(
        seq < MAX_SEQ && (index as usize) < MAX_LANE_INDEX,
        "lane key out of packing range: seq={seq}, index={index}"
    );
    ((at.as_micros() as u128) << 64) | ((seq as u128) << LANE_BITS) | lane.bits() as u128
}

/// Unpacks a heap key into `(at, seq, lane)`.
#[inline]
fn unpack(key: u128) -> (SimTime, u64, LaneRef) {
    let at = SimTime::from_micros((key >> 64) as u64);
    let low = key as u64;
    let bits = (low as u32) & ((1 << LANE_BITS) - 1);
    let index = bits & (POLL_BIT - 1);
    let lane = if bits & POLL_BIT == 0 {
        LaneRef::Dispatch(index)
    } else {
        LaneRef::Poll(index)
    };
    (at, low >> LANE_BITS, lane)
}

/// Min-heap of lane keys with lazy invalidation and in-place firing (see
/// module docs).
#[derive(Debug, Default, Clone)]
pub(crate) struct LaneHeap {
    heap: BinaryHeap<Reverse<u128>>,
    /// The packed key of the top entry while its lane fires.
    held: Option<u128>,
    stats: LaneStats,
}

impl LaneHeap {
    /// Registers a lane's new key. If the lane's own entry is being held
    /// (it is firing), the entry is re-keyed in place; otherwise a new
    /// entry is pushed, and any previous entry of the lane goes stale.
    ///
    /// Debug-asserts that a held entry is still the top and that the new
    /// key does not precede it.
    #[inline]
    pub fn arm(&mut self, at: SimTime, seq: u64, lane: LaneRef) {
        let key = pack(at, seq, lane);
        match self.held {
            Some(h) if h as u32 & ((1 << LANE_BITS) - 1) == lane.bits() => {
                self.held = None;
                let mut top = self.heap.peek_mut().expect("held entry exists");
                debug_assert_eq!(top.0, h, "held lane entry left the top of the heap");
                debug_assert!(key > h, "re-arm moved a lane backwards");
                top.0 = key;
                self.stats.rekeys += 1;
                // Dropping the PeekMut sifts the re-keyed entry into place.
            }
            _ => {
                self.heap.push(Reverse(key));
                self.stats.pushes += 1;
            }
        }
    }

    /// The earliest entry as `(at, seq, lane)`, without validation. The
    /// caller checks it against the owning lane's current key and then
    /// either [`Self::discard_top`]s it as stale or
    /// [`Self::hold`]s it to fire.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, u64, LaneRef)> {
        self.heap.peek().map(|Reverse(k)| unpack(*k))
    }

    /// Pops the top entry, which the caller found stale.
    #[inline]
    pub fn discard_top(&mut self) {
        debug_assert!(self.held.is_none(), "discarding a held entry");
        self.heap.pop();
        self.stats.pops += 1;
        self.stats.stale_discards += 1;
    }

    /// Marks the (live) top entry as firing: a re-arm of its lane before
    /// the matching [`Self::release`] re-keys it in place.
    #[inline]
    pub fn hold(&mut self) {
        debug_assert!(self.held.is_none(), "a lane entry is already held");
        self.held = self.heap.peek().map(|Reverse(k)| *k);
    }

    /// Ends a firing: pops the held entry unless its lane was re-armed.
    #[inline]
    pub fn release(&mut self) {
        if let Some(h) = self.held.take() {
            let top = self.heap.pop();
            debug_assert_eq!(top, Some(Reverse(h)), "held lane entry left the top of the heap");
            self.stats.pops += 1;
        }
    }

    /// The smallest key among every entry *except* the top. In a binary
    /// min-heap the runner-up is one of the root's two children, so this
    /// is two slice reads. The result may belong to a stale entry, whose
    /// key can only be older (smaller) than its lane's live key — safe
    /// for bounding a burst of top-lane self-reschedules, which stops at
    /// the bound rather than relying on it being live.
    #[inline]
    pub fn runner_up(&self) -> Option<(SimTime, u64)> {
        let s = self.heap.as_slice();
        let min = match (s.get(1), s.get(2)) {
            (Some(Reverse(a)), Some(Reverse(b))) => *a.min(b),
            (Some(Reverse(a)), None) => *a,
            _ => return None,
        };
        let (at, seq, _) = unpack(min);
        Some((at, seq))
    }

    /// Operation counters since construction.
    #[inline]
    pub fn stats(&self) -> LaneStats {
        self.stats
    }

    /// Zeroes the operation counters, so a copy of the heap counts only
    /// its own operations.
    pub fn reset_stats(&mut self) {
        self.stats = LaneStats::default();
    }

    /// Number of entries, counting stale ones.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn pop(h: &mut LaneHeap) -> Option<(SimTime, u64, LaneRef)> {
        let top = h.peek()?;
        h.hold();
        h.release();
        Some(top)
    }

    #[test]
    fn packing_round_trips_at_the_bounds() {
        let max_at = SimTime::from_micros(u64::MAX);
        for (at, seq, lane) in [
            (SimTime::ZERO, 0, LaneRef::Dispatch(0)),
            (max_at, MAX_SEQ - 1, LaneRef::Poll(MAX_LANE_INDEX as u32 - 1)),
            (t(7), 12_345, LaneRef::Dispatch(MAX_LANE_INDEX as u32 - 1)),
            (t(7), 12_345, LaneRef::Poll(0)),
        ] {
            assert_eq!(unpack(pack(at, seq, lane)), (at, seq, lane));
        }
    }

    #[test]
    #[should_panic(expected = "out of packing range")]
    fn packing_rejects_a_seq_past_43_bits() {
        pack(t(1), MAX_SEQ, LaneRef::Dispatch(0));
    }

    #[test]
    #[should_panic(expected = "out of packing range")]
    fn packing_rejects_an_index_past_20_bits() {
        pack(t(1), 0, LaneRef::Poll(MAX_LANE_INDEX as u32));
    }

    #[test]
    fn orders_by_time_then_seq() {
        let mut h = LaneHeap::default();
        h.arm(t(5), 10, LaneRef::Dispatch(0));
        h.arm(t(3), 99, LaneRef::Poll(1));
        h.arm(t(3), 7, LaneRef::Dispatch(2));
        assert_eq!(pop(&mut h).unwrap().2, LaneRef::Dispatch(2));
        assert_eq!(pop(&mut h).unwrap().2, LaneRef::Poll(1));
        assert_eq!(pop(&mut h).unwrap().2, LaneRef::Dispatch(0));
        assert!(pop(&mut h).is_none());
    }

    #[test]
    fn runner_up_is_the_second_smallest_key() {
        let mut h = LaneHeap::default();
        assert_eq!(h.runner_up(), None);
        h.arm(t(5), 3, LaneRef::Dispatch(0));
        assert_eq!(h.runner_up(), None, "lone entry has no runner-up");
        h.arm(t(2), 9, LaneRef::Poll(1));
        assert_eq!(h.runner_up(), Some((t(5), 3)));
        h.arm(t(3), 4, LaneRef::Dispatch(2));
        assert_eq!(h.runner_up(), Some((t(3), 4)));
        pop(&mut h);
        assert_eq!(h.runner_up(), Some((t(5), 3)));
    }

    #[test]
    fn hold_rekey_release_costs_one_operation_per_firing() {
        let mut h = LaneHeap::default();
        h.arm(t(1), 0, LaneRef::Poll(0));
        h.arm(t(5), 1, LaneRef::Dispatch(1));
        // Poll 0 fires at t=1; while it is held, its handler arms node 3
        // (a later key: pushed) and then re-arms poll 0 at t=8 (re-keyed
        // in place: same slot, no stale residue).
        h.hold();
        h.arm(t(2), 2, LaneRef::Dispatch(3));
        h.arm(t(8), 3, LaneRef::Poll(0));
        h.release();
        assert_eq!(h.len(), 3);
        assert_eq!(pop(&mut h).unwrap().2, LaneRef::Dispatch(3));
        // Node 1 fires and goes idle: no re-arm, so release pops it.
        h.hold();
        h.release();
        assert_eq!(h.len(), 1);
        assert_eq!(h.peek(), Some((t(8), 3, LaneRef::Poll(0))));
        let s = h.stats();
        assert_eq!((s.pushes, s.rekeys, s.pops, s.stale_discards), (3, 1, 2, 0));
    }

    #[test]
    fn a_second_arm_of_the_held_lane_pushes() {
        let mut h = LaneHeap::default();
        h.arm(t(1), 0, LaneRef::Dispatch(0));
        h.hold();
        h.arm(t(2), 1, LaneRef::Dispatch(0));
        // The hold was consumed by the first re-arm; a further re-arm
        // (after an out-of-band cancel) is an ordinary push.
        h.arm(t(3), 2, LaneRef::Dispatch(0));
        h.release();
        assert_eq!(h.len(), 2);
        assert_eq!(h.stats().rekeys, 1);
        assert_eq!(h.stats().pushes, 2);
    }

    #[test]
    fn chain_to_boundary_hand_off_keeps_exactly_one_entry() {
        use crate::cluster::ClusterConfig;
        use crate::engine::dispatch::DispatchLane;
        use crate::engine::{DispatchEngine, TaskTable};
        use crate::ids::{LoadGenId, NodeId};
        use crate::job::JobKind;
        use crate::kernel::SimKernel;

        let cfg = ClusterConfig::paper_baseline(7, SimDuration::from_secs(10));
        assert!(cfg.bg_fast_path, "the hand-off is a fast-path transition");
        let mut d = DispatchEngine::new(cfg.n_nodes, &cfg.scheduler);
        let mut k = SimKernel::new(cfg);
        let mut tasks = TaskTable::default();
        let bg = JobKind::Background(LoadGenId(0));
        // A lone multi-quantum background job: chain lane, one entry.
        d.admit_job(&mut k, &mut tasks, SimTime::ZERO, NodeId(0), bg, SimDuration::from_secs(1), 1);
        let Some(DispatchLane::Chain(link)) = d.lanes[0] else {
            panic!("expected a chain lane, got {:?}", d.lanes[0]);
        };
        assert_eq!(k.lanes.len(), 1);
        // A second background job arrives: the chain's pending link
        // becomes the boundary under the same key, in the same entry.
        d.admit_job(&mut k, &mut tasks, SimTime::ZERO, NodeId(0), bg, SimDuration::from_millis(3), 1);
        let Some(DispatchLane::Bound { at, seq }) = d.lanes[0] else {
            panic!("expected a boundary lane, got {:?}", d.lanes[0]);
        };
        assert_eq!((at, seq), (link.next_at, link.next_seq));
        assert_eq!(k.lanes.len(), 1, "hand-off must not push a second entry");
        assert_eq!(k.lanes.peek(), Some((at, seq, LaneRef::Dispatch(0))));
        assert_eq!(k.lanes.stats().pushes, 1);
    }

    /// A naive reference for [`LaneHeap`]: the live keys in a sorted
    /// `Vec`, one per lane.
    #[derive(Default)]
    struct Reference {
        live: Vec<(SimTime, u64, u32)>,
    }

    impl Reference {
        fn set(&mut self, lane: u32, key: Option<(SimTime, u64)>) {
            self.live.retain(|&(_, _, l)| l != lane);
            if let Some((at, seq)) = key {
                self.live.push((at, seq, lane));
                self.live.sort_unstable();
            }
        }
    }

    fn lane_of(i: u32) -> LaneRef {
        if i.is_multiple_of(2) {
            LaneRef::Dispatch(i / 2)
        } else {
            LaneRef::Poll(i / 2)
        }
    }

    fn index_of(lane: LaneRef) -> u32 {
        match lane {
            LaneRef::Dispatch(i) => 2 * i,
            LaneRef::Poll(g) => 2 * g + 1,
        }
    }

    #[test]
    fn randomized_operations_match_a_sorted_reference() {
        const LANES: u32 = 12;
        for seed in 0..40 {
            let mut rng = SimRng::from_seed_stream(seed, 3);
            let mut h = LaneHeap::default();
            let mut r = Reference::default();
            // Owner state: each lane's current key, as an engine holds it.
            let mut current: Vec<Option<(SimTime, u64)>> = vec![None; LANES as usize];
            let mut now = SimTime::ZERO;
            let mut seq = 0u64;
            let mut next_key = |now: SimTime, rng: &mut SimRng| {
                seq += 1;
                (now + SimDuration::from_micros(rng.below(50)), seq)
            };
            for _ in 0..2_000 {
                // Drop stale entries the way the run loop does.
                let top = loop {
                    match h.peek() {
                        Some((at, s, lane)) if current[index_of(lane) as usize] != Some((at, s)) => {
                            h.discard_top()
                        }
                        top => break top,
                    }
                };
                assert_eq!(
                    top,
                    r.live.first().map(|&(at, s, l)| (at, s, lane_of(l))),
                    "seed {seed}: heap top diverged from the reference"
                );
                match rng.below(4) {
                    // Arm an idle lane.
                    0 => {
                        let l = rng.below(LANES as u64) as u32;
                        if current[l as usize].is_none() {
                            let key = next_key(now, &mut rng);
                            h.arm(key.0, key.1, lane_of(l));
                            current[l as usize] = Some(key);
                            r.set(l, Some(key));
                        }
                    }
                    // Cancel a lane out of band: its entry goes stale.
                    1 => {
                        let l = rng.below(LANES as u64) as u32;
                        current[l as usize] = None;
                        r.set(l, None);
                    }
                    // Fire the top lane in place; its handler arms other
                    // idle lanes and maybe re-arms (re-keys) itself.
                    _ => {
                        let Some((at, _, lane)) = top else { continue };
                        now = at;
                        let me = index_of(lane);
                        current[me as usize] = None;
                        r.set(me, None);
                        h.hold();
                        for _ in 0..rng.below(3) {
                            let l = rng.below(LANES as u64) as u32;
                            if l != me && current[l as usize].is_none() {
                                let key = next_key(now, &mut rng);
                                h.arm(key.0, key.1, lane_of(l));
                                current[l as usize] = Some(key);
                                r.set(l, Some(key));
                            }
                        }
                        if rng.below(3) > 0 {
                            let key = next_key(now, &mut rng);
                            h.arm(key.0, key.1, lane);
                            current[me as usize] = Some(key);
                            r.set(me, Some(key));
                        }
                        h.release();
                    }
                }
            }
            let s = h.stats();
            assert_eq!(
                s.pushes,
                s.pops + h.len() as u64,
                "seed {seed}: every pushed entry is popped or still queued"
            );
        }
    }
}
