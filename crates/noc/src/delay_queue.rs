//! A bounded FIFO queue with a fixed traversal latency.

use orderlight::rng::Rng;
use orderlight::types::CoreCycle;
use orderlight::NextEvent;
use std::collections::VecDeque;

/// A FIFO whose items become visible `latency` cycles after being pushed.
///
/// Models a pipelined queue segment of the memory pipe: items preserve
/// order, at most `capacity` are in flight, and the head can only be
/// popped once its latency has elapsed (downstream backpressure leaves it
/// in place).
#[derive(Debug, Clone)]
pub struct DelayQueue<T> {
    items: VecDeque<(CoreCycle, T)>,
    latency: CoreCycle,
    capacity: usize,
    /// Fault injection: each push draws `0..=max_extra` extra cycles
    /// added to the item's ready stamp. FIFO order is untouched, so this
    /// only *delays* traffic — a legal perturbation.
    jitter: Option<(Rng, u64)>,
}

impl<T> DelayQueue<T> {
    /// Creates a queue with the given traversal `latency` and `capacity`.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(latency: CoreCycle, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        DelayQueue { items: VecDeque::new(), latency, capacity, jitter: None }
    }

    /// Enables seeded traversal jitter: every subsequent push adds a
    /// uniform `0..=max_extra` cycles to the item's ready stamp.
    pub fn set_jitter(&mut self, seed: u64, max_extra: u64) {
        self.jitter = Some((Rng::new(seed), max_extra));
    }

    /// Whether another item can be pushed.
    #[must_use]
    #[inline]
    pub fn has_space(&self) -> bool {
        self.items.len() < self.capacity
    }

    /// Number of items in flight.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Pushes an item at time `now`; it becomes poppable at
    /// `now + latency`.
    ///
    /// # Panics
    /// Panics if the queue is full — check [`has_space`](Self::has_space)
    /// first; the pipe applies backpressure upstream.
    #[inline]
    pub fn push(&mut self, item: T, now: CoreCycle) {
        assert!(self.has_space(), "delay queue overflow");
        let extra = match &mut self.jitter {
            Some((rng, max_extra)) => rng.gen_range(*max_extra + 1),
            None => 0,
        };
        // Saturating: a ready deadline past `u64::MAX` clamps to
        // "never" instead of wrapping behind `now`, where the event
        // core would treat the head as already due.
        self.items.push_back((now.saturating_add(self.latency).saturating_add(extra), item));
    }

    /// Peeks at the head if its latency has elapsed.
    #[must_use]
    #[inline]
    pub fn peek_ready(&self, now: CoreCycle) -> Option<&T> {
        match self.items.front() {
            Some((ready, item)) if *ready <= now => Some(item),
            _ => None,
        }
    }

    /// Pops the head if its latency has elapsed.
    #[inline]
    pub fn pop_ready(&mut self, now: CoreCycle) -> Option<T> {
        if self.peek_ready(now).is_some() {
            self.items.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    /// The cycle the head item becomes (or became) poppable, if any.
    /// Items behind the head never matter: FIFO order means the head's
    /// deadline is the queue's earliest possible state change.
    #[must_use]
    #[inline]
    pub fn next_ready(&self) -> Option<CoreCycle> {
        self.items.front().map(|(ready, _)| *ready)
    }
}

/// Quiescence horizon of a delay queue: the head's ready deadline
/// (clamped to `now` — an already-ready head is consumable immediately,
/// the queue cannot know whether downstream will take it). Empty means
/// drained.
impl<T> NextEvent for DelayQueue<T> {
    fn next_event(&self, now: u64) -> Option<u64> {
        self.next_ready().map(|ready| ready.max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_appear_after_latency_in_order() {
        let mut q = DelayQueue::new(10, 4);
        q.push('a', 0);
        q.push('b', 3);
        assert_eq!(q.peek_ready(9), None);
        assert_eq!(q.pop_ready(10), Some('a'));
        assert_eq!(q.pop_ready(10), None, "b not ready until 13");
        assert_eq!(q.pop_ready(13), Some('b'));
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_enforced() {
        let mut q = DelayQueue::new(1, 2);
        assert!(q.has_space());
        q.push(1, 0);
        q.push(2, 0);
        assert!(!q.has_space());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn head_of_line_blocking_preserves_order() {
        // Even if the second item's latency elapsed, it cannot pass the
        // unpopped head.
        let mut q = DelayQueue::new(5, 4);
        q.push(1, 0);
        q.push(2, 0);
        assert_eq!(q.pop_ready(100), Some(1));
        assert_eq!(q.pop_ready(100), Some(2));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = DelayQueue::new(1, 1);
        q.push(1, 0);
        q.push(2, 0);
    }

    #[test]
    fn zero_latency_is_immediate() {
        let mut q = DelayQueue::new(0, 1);
        q.push(7, 42);
        assert_eq!(q.pop_ready(42), Some(7));
    }

    #[test]
    fn ready_deadline_saturates_near_u64_max() {
        let mut q = DelayQueue::new(4, 2);
        let now = u64::MAX - 1;
        q.push('a', now);
        // The deadline clamps to "never" instead of wrapping behind
        // `now`, which would make the head appear already ready.
        assert_eq!(q.next_ready(), Some(u64::MAX));
        assert!(q.peek_ready(now).is_none());
        assert_eq!(q.next_event(now), Some(u64::MAX));
    }
}
