//! A finite FIFO with explicit backpressure, and a latency queue for the
//! modelled network paths.
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
}

/// A delay queue whose entries may carry *different* latencies — the
/// distance-dependent network paths of a modelled topology, where a hop
/// count per (source, destination) pair sets each entry's ready cycle.
///
/// Entries are delivered in (ready_at, push order) — a stable min-heap on
/// the ready cycle, so two entries becoming ready on the same cycle pop in
/// the order they were pushed. With a uniform latency the queue is a plain
/// FIFO, which is what keeps the uniform-topology defaults byte-identical
/// to a fixed-latency pipe.
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
    #[should_panic(expected = "non-zero")]
    fn bounded_queue_zero_capacity_panics() {
        let _ = BoundedQueue::<u8>::new(0);
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
    fn var_delay_queue_with_uniform_latency_pops_fifo() {
        // The byte-compatibility claim in miniature: with one latency for
        // every entry, pops come out in push order, each exactly `lat`
        // cycles after its push.
        let lat = 8;
        let mut q = VarDelayQueue::new();
        let mut popped = Vec::new();
        for now in 0..200u64 {
            if now % 3 == 0 {
                q.push(now + lat, now);
            }
            while let Some(v) = q.pop_ready(now) {
                popped.push((now, v));
            }
        }
        let expected: Vec<(u64, u64)> =
            (0..200 - lat).filter(|t| t % 3 == 0).map(|t| (t + lat, t)).collect();
        assert_eq!(popped, expected);
        // Pushes at 192, 195 and 198 are still in flight; the oldest is next.
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_ready(), Some(192 + lat));
    }
}
