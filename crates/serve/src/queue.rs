//! A bounded MPMC queue with batch-draining consumers.
//!
//! Producers never block: a full queue rejects the push (the engine's
//! backpressure signal). Consumers block until work arrives, then coalesce
//! up to `max` items, lingering at most `max_wait` after the first item so
//! lightly-loaded queues still flush promptly.

use adv_obs::sync::unpoison;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

#[cfg(loom)]
use loom::sync::{Condvar, Mutex};
#[cfg(not(loom))]
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is returned to the caller.
    Full(T),
    /// The queue was closed; the item is returned to the caller.
    Closed(T),
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer multi-consumer queue (std `Mutex` + `Condvar`;
/// no external concurrency crates are available offline).
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item` without blocking, returning the new queue depth.
    ///
    /// # Errors
    ///
    /// Returns the item back inside [`PushError::Full`] when at capacity and
    /// [`PushError::Closed`] after [`close`](Self::close).
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut guard = unpoison(self.inner.lock());
        if guard.closed {
            return Err(PushError::Closed(item));
        }
        if guard.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        guard.items.push_back(item);
        let depth = guard.items.len();
        drop(guard);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        unpoison(self.inner.lock()).items.len()
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: future pushes fail, consumers drain what remains and
    /// then observe end-of-stream.
    pub fn close(&self) {
        unpoison(self.inner.lock()).closed = true;
        self.not_empty.notify_all();
    }

    /// Blocks until at least one item is available, then drains up to `max`
    /// items, waiting at most `max_wait` (measured from the first item) for
    /// the batch to fill.
    ///
    /// Returns `None` only when the queue is closed *and* empty — consumers
    /// use this as their shutdown signal, so close-time stragglers are still
    /// delivered.
    pub fn pop_batch(&self, max: usize, max_wait: Duration) -> Option<Vec<T>> {
        let mut guard = unpoison(self.inner.lock());
        loop {
            if !guard.items.is_empty() {
                break;
            }
            if guard.closed {
                return None;
            }
            guard = unpoison(self.not_empty.wait(guard));
        }

        let mut batch = Vec::with_capacity(max.min(guard.items.len()));
        #[expect(
            clippy::disallowed_methods,
            reason = "the batching deadline is the feature — `max_wait` is measured in wall-clock time by contract."
        )]
        let deadline = Instant::now() + max_wait;
        loop {
            while batch.len() < max {
                match guard.items.pop_front() {
                    Some(item) => batch.push(item),
                    None => break,
                }
            }
            if batch.len() >= max || guard.closed {
                break;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "same deadline contract as above."
            )]
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (g, timeout) = unpoison(self.not_empty.wait_timeout(guard, deadline - now));
            guard = g;
            if guard.items.is_empty() && timeout.timed_out() {
                break;
            }
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_then_batch_preserves_fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let batch = q.pop_batch(8, Duration::from_millis(1)).unwrap();
        assert_eq!(batch, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_queue_rejects_and_returns_item() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed(8)));
        assert_eq!(q.pop_batch(4, Duration::ZERO).unwrap(), vec![7]);
        assert!(q.pop_batch(4, Duration::ZERO).is_none());
    }

    #[test]
    fn batch_flushes_on_max_batch_without_waiting() {
        let q = BoundedQueue::new(16);
        for i in 0..6 {
            q.try_push(i).unwrap();
        }
        // max = 4 < queued: must not linger for the deadline.
        #[expect(
            clippy::disallowed_methods,
            reason = "the test asserts the batch did not wait for its deadline"
        )]
        let t0 = Instant::now();
        let batch = q.pop_batch(4, Duration::from_secs(5)).unwrap();
        assert_eq!(batch.len(), 4);
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn batch_flushes_on_deadline_when_underfull() {
        let q = BoundedQueue::new(16);
        q.try_push(1).unwrap();
        let batch = q.pop_batch(32, Duration::from_millis(5)).unwrap();
        assert_eq!(batch, vec![1]);
    }

    #[test]
    fn consumer_wakes_on_push_from_other_thread() {
        let q = Arc::new(BoundedQueue::new(4));
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                q.try_push(42).unwrap();
            })
        };
        let batch = q.pop_batch(1, Duration::from_millis(1)).unwrap();
        assert_eq!(batch, vec![42]);
        producer.join().unwrap();
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q: Arc<BoundedQueue<i32>> = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || q.pop_batch(4, Duration::from_millis(1)))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert!(consumer.join().unwrap().is_none());
    }
}
