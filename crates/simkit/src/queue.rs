//! Finite FIFOs with explicit backpressure and latency.
//!
//! Every buffering structure in the modelled SoC is finite: L2/L3 MSHRs,
//! memory-controller ingress FIFOs and front-end queues, and the per-bank
//! back-end queues. Backpressure through these queues is *the* reason
//! target-only bandwidth regulation fails when the system is oversubscribed
//! (PABST §I, Fig. 1), so the queues make fullness explicit: `push` returns
//! the item back to the caller when there is no room.

use std::collections::VecDeque;

use crate::Cycle;

/// A finite FIFO. `push` fails (returning the item) when the queue is full.
///
/// # Examples
///
/// ```
/// use pabst_simkit::queue::BoundedQueue;
///
/// let mut q = BoundedQueue::new(1);
/// assert_eq!(q.push(7), Ok(()));
/// assert_eq!(q.push(8), Err(8)); // full: backpressure
/// assert_eq!(q.pop(), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates an empty queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; a zero-capacity queue can never accept
    /// an item and always indicates a configuration bug.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        Self { items: VecDeque::with_capacity(capacity), capacity }
    }

    /// Appends `item`, or returns it back when the queue is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the queue is at capacity, handing the item
    /// back so the producer can hold it and retry (backpressure).
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            Err(item)
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    /// Removes and returns the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Returns a reference to the oldest item without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when `push` would fail.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// The maximum number of items the queue can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Iterates over queued items from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Mutably iterates over queued items from oldest to newest.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.items.iter_mut()
    }

    /// Removes and returns the item at `index` (0 = oldest).
    ///
    /// For schedulers that service a queue out of order.
    pub fn remove(&mut self, index: usize) -> Option<T> {
        self.items.remove(index)
    }

    /// Removes and returns the first item matching `pred`, scanning from the
    /// oldest entry.
    pub fn pop_where(&mut self, pred: impl FnMut(&T) -> bool) -> Option<T> {
        let idx = self.items.iter().position(pred)?;
        self.items.remove(idx)
    }
}

/// A FIFO whose entries become visible a fixed number of cycles after they
/// are pushed. Models fixed-latency pipelined paths such as network hops and
/// cache array lookups.
///
/// An entry pushed at cycle `c` with latency `L` is poppable from cycle
/// `c + L` onward. The queue preserves push order and is unbounded — use it
/// for paths whose buffering is modelled elsewhere (the finite structure at
/// the far end applies the backpressure).
///
/// # Examples
///
/// ```
/// use pabst_simkit::queue::DelayQueue;
///
/// let mut link: DelayQueue<u32> = DelayQueue::new(5);
/// link.push(100, 1);
/// link.push(101, 2);
/// assert_eq!(link.pop_ready(104), None);
/// assert_eq!(link.pop_ready(105), Some(1));
/// assert_eq!(link.pop_ready(105), None); // 2 not ready until 106
/// assert_eq!(link.pop_ready(106), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct DelayQueue<T> {
    latency: Cycle,
    items: VecDeque<(Cycle, T)>, // (ready_at, item)
}

impl<T> DelayQueue<T> {
    /// Creates a queue whose entries become visible `latency` cycles after
    /// being pushed.
    pub fn new(latency: Cycle) -> Self {
        Self { latency, items: VecDeque::new() }
    }

    /// The fixed latency applied to every entry.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Pushes `item` at cycle `now`; it becomes poppable at `now + latency`.
    pub fn push(&mut self, now: Cycle, item: T) {
        let ready = now + self.latency;
        debug_assert!(
            self.items.back().is_none_or(|(r, _)| *r <= ready),
            "DelayQueue pushes must be in non-decreasing time order"
        );
        self.items.push_back((ready, item));
    }

    /// Pops the oldest entry if it is ready at cycle `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        match self.items.front() {
            Some((ready, _)) if *ready <= now => self.items.pop_front().map(|(_, t)| t),
            _ => None,
        }
    }

    /// Peeks at the oldest entry if it is ready at cycle `now`.
    pub fn peek_ready(&self, now: Cycle) -> Option<&T> {
        match self.items.front() {
            Some((ready, item)) if *ready <= now => Some(item),
            _ => None,
        }
    }

    /// Number of in-flight entries (ready or not).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no entries are in flight.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Cycle at which the oldest in-flight entry becomes visible, or
    /// `None` when the queue is empty. Entries are pushed in program
    /// order with a fixed latency, so ready times are non-decreasing and
    /// the front entry is always the earliest — this is the queue's
    /// contribution to a fast-forward horizon.
    pub fn next_ready(&self) -> Option<Cycle> {
        self.items.front().map(|(ready, _)| *ready)
    }
}

/// A delay queue whose entries may carry *different* latencies — the
/// distance-dependent network paths of a modelled topology, where a hop
/// count per (source, destination) pair replaces [`DelayQueue`]'s single
/// fixed latency.
///
/// Entries are delivered in (ready_at, push order) — a stable min-heap on
/// the ready cycle, so two entries becoming ready on the same cycle pop in
/// the order they were pushed. With a uniform latency this reproduces
/// [`DelayQueue`]'s FIFO pop order exactly, which is what keeps the
/// uniform-topology defaults byte-identical to the fixed-latency model
/// they replace.
///
/// # Examples
///
/// ```
/// use pabst_simkit::queue::VarDelayQueue;
///
/// let mut net: VarDelayQueue<&str> = VarDelayQueue::new();
/// net.push(105, "far");  // pushed first, arrives later
/// net.push(102, "near"); // pushed second, arrives sooner
/// assert_eq!(net.next_ready(), Some(102));
/// assert_eq!(net.pop_ready(104), Some("near"));
/// assert_eq!(net.pop_ready(104), None);
/// assert_eq!(net.pop_ready(105), Some("far"));
/// ```
#[derive(Debug, Clone)]
pub struct VarDelayQueue<T> {
    heap: std::collections::BinaryHeap<VarEntry<T>>,
    seq: u64,
}

/// Heap entry ordered min-first on (ready, seq). Only the key fields take
/// part in comparisons, so the payload needs no `Ord`.
#[derive(Debug, Clone)]
struct VarEntry<T> {
    ready: Cycle,
    seq: u64,
    item: T,
}

impl<T> PartialEq for VarEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.ready, self.seq) == (other.ready, other.seq)
    }
}
impl<T> Eq for VarEntry<T> {}
impl<T> PartialOrd for VarEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for VarEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest entry
        // (lowest ready, then lowest seq) on top.
        (other.ready, other.seq).cmp(&(self.ready, self.seq))
    }
}

impl<T> VarDelayQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self { heap: std::collections::BinaryHeap::new(), seq: 0 }
    }

    /// Enqueues `item` for delivery at cycle `ready` (absolute, not a
    /// latency — the caller owns the distance model).
    pub fn push(&mut self, ready: Cycle, item: T) {
        self.heap.push(VarEntry { ready, seq: self.seq, item });
        self.seq += 1;
    }

    /// Pops the earliest entry whose ready cycle is `<= now`; ties pop in
    /// push order.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.heap.peek().is_some_and(|e| e.ready <= now) {
            self.heap.pop().map(|e| e.item)
        } else {
            None
        }
    }

    /// Number of in-flight entries (ready or not).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entries are in flight.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Cycle at which the earliest in-flight entry becomes deliverable
    /// (its horizon contribution), or `None` when empty.
    pub fn next_ready(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.ready)
    }
}

impl<T> Default for VarDelayQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_fifo_order() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert!(q.is_full());
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_queue_backpressure_returns_item() {
        let mut q = BoundedQueue::new(2);
        q.push("a").unwrap();
        q.push("b").unwrap();
        assert_eq!(q.push("c"), Err("c"));
        q.pop();
        assert_eq!(q.push("c"), Ok(()));
    }

    #[test]
    fn bounded_queue_free_and_capacity_track_len() {
        let mut q = BoundedQueue::new(3);
        assert_eq!(q.free(), 3);
        q.push(1).unwrap();
        assert_eq!(q.free(), 2);
        assert_eq!(q.capacity(), 3);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn bounded_queue_remove_middle() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.remove(2), Some(2));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn bounded_queue_pop_where_scans_oldest_first() {
        let mut q = BoundedQueue::new(4);
        q.push(10).unwrap();
        q.push(21).unwrap();
        q.push(31).unwrap();
        assert_eq!(q.pop_where(|v| v % 10 == 1), Some(21));
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn bounded_queue_zero_capacity_panics() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    #[test]
    fn delay_queue_respects_latency() {
        let mut q = DelayQueue::new(10);
        q.push(0, 'x');
        for now in 0..10 {
            assert_eq!(q.pop_ready(now), None);
        }
        assert_eq!(q.pop_ready(10), Some('x'));
    }

    #[test]
    fn delay_queue_zero_latency_ready_same_cycle() {
        let mut q = DelayQueue::new(0);
        q.push(5, 1u8);
        assert_eq!(q.pop_ready(5), Some(1));
    }

    #[test]
    fn delay_queue_next_ready_tracks_front_entry() {
        let mut q = DelayQueue::new(4);
        assert_eq!(q.next_ready(), None);
        q.push(10, 'a');
        q.push(12, 'b');
        assert_eq!(q.next_ready(), Some(14));
        assert_eq!(q.pop_ready(14), Some('a'));
        assert_eq!(q.next_ready(), Some(16));
        assert_eq!(q.pop_ready(16), Some('b'));
        assert_eq!(q.next_ready(), None);
    }

    #[test]
    fn delay_queue_preserves_order_and_peek() {
        let mut q = DelayQueue::new(2);
        q.push(0, 1);
        q.push(0, 2);
        q.push(1, 3);
        assert_eq!(q.peek_ready(2), Some(&1));
        assert_eq!(q.pop_ready(2), Some(1));
        assert_eq!(q.pop_ready(2), Some(2));
        assert_eq!(q.pop_ready(2), None);
        assert_eq!(q.pop_ready(3), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn var_delay_queue_delivers_in_ready_order() {
        let mut q = VarDelayQueue::new();
        q.push(30, 'c');
        q.push(10, 'a');
        q.push(20, 'b');
        assert_eq!(q.next_ready(), Some(10));
        assert_eq!(q.pop_ready(9), None);
        assert_eq!(q.pop_ready(25), Some('a'));
        assert_eq!(q.pop_ready(25), Some('b'));
        assert_eq!(q.pop_ready(25), None);
        assert_eq!(q.next_ready(), Some(30));
        assert_eq!(q.pop_ready(30), Some('c'));
        assert!(q.is_empty());
    }

    #[test]
    fn var_delay_queue_ties_break_by_push_order() {
        let mut q = VarDelayQueue::new();
        for i in 0..100u32 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop_ready(7), Some(i), "equal-ready entries must pop FIFO");
        }
    }

    #[test]
    fn var_delay_queue_with_uniform_latency_matches_delay_queue() {
        // The byte-compatibility claim in miniature: identical push/pop
        // sequences through a fixed-latency DelayQueue and a VarDelayQueue
        // given the same uniform latency produce identical pop streams.
        let mut fixed = DelayQueue::new(8);
        let mut var = VarDelayQueue::new();
        let mut popped = (Vec::new(), Vec::new());
        for now in 0..200u64 {
            if now % 3 == 0 {
                fixed.push(now, now);
                var.push(now + 8, now);
            }
            while let Some(v) = fixed.pop_ready(now) {
                popped.0.push((now, v));
            }
            while let Some(v) = var.pop_ready(now) {
                popped.1.push((now, v));
            }
            assert_eq!(fixed.next_ready(), var.next_ready(), "horizons agree at {now}");
        }
        assert_eq!(popped.0, popped.1);
    }
}
