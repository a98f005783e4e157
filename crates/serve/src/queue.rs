//! A bounded MPMC queue with batch-draining consumers.
//!
//! Producers never block: a full queue rejects the push (the engine's
//! backpressure signal). Consumers block until work arrives, then batch by
//! Nagle's rule (RFC 896, which holds back a small TCP segment only while
//! earlier data is unacknowledged): a consumer holding a partial batch
//! keeps waiting for more only while another pass handed out by this queue
//! is running. It leaves as soon as the batch fills, the last running pass
//! ends, `max_wait` passes, or the queue closes. An idle queue therefore
//! hands out its first item at once, and items that arrive during a pass
//! batch up behind it. Each batch comes with a [`Pass`] guard that counts
//! as running until it drops.

use adv_profile::sync::unpoison;
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
    /// Passes handed out by [`BoundedQueue::pop_batch`] whose [`Pass`]
    /// has not dropped yet.
    running: usize,
}

/// Bounded multi-producer multi-consumer queue (std `Mutex` + `Condvar`;
/// no external concurrency crates are available offline).
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled on a push, on close, and when the last running pass ends.
    changed: Condvar,
    capacity: usize,
}

/// One running pass over a batch from [`BoundedQueue::pop_batch`]. While
/// any pass runs, consumers holding a partial batch wait for more items;
/// dropping the last guard, also while unwinding, wakes them.
#[derive(Debug)]
#[must_use = "the pass ends when the guard drops"]
pub struct Pass<'q, T> {
    queue: &'q BoundedQueue<T>,
}

impl<T> Drop for Pass<'_, T> {
    fn drop(&mut self) {
        let mut guard = unpoison(self.queue.inner.lock());
        guard.running = guard.running.saturating_sub(1);
        let idle = guard.running == 0;
        drop(guard);
        if idle {
            self.queue.changed.notify_all();
        }
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                running: 0,
            }),
            changed: Condvar::new(),
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
        self.changed.notify_one();
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

    /// Passes whose [`Pass`] guard has not dropped yet.
    pub fn running(&self) -> usize {
        unpoison(self.inner.lock()).running
    }

    /// Closes the queue: future pushes fail, consumers drain what remains and
    /// then observe end-of-stream.
    pub fn close(&self) {
        unpoison(self.inner.lock()).closed = true;
        self.changed.notify_all();
    }

    /// Blocks until at least one item is available, then takes up to `max`
    /// items by Nagle's rule: with no pass running it returns at once;
    /// while another pass runs it waits for more items until the batch
    /// fills, the last running pass ends, `max_wait` passes (measured from
    /// the first wait) or the queue closes. The returned [`Pass`] counts as
    /// running until it drops, so the caller holds it for as long as it
    /// works on the batch.
    ///
    /// Returns `None` only when the queue is closed *and* empty — consumers
    /// use this as their shutdown signal, so close-time stragglers are still
    /// delivered.
    pub fn pop_batch(&self, max: usize, max_wait: Duration) -> Option<(Vec<T>, Pass<'_, T>)> {
        let mut guard = unpoison(self.inner.lock());
        while guard.items.is_empty() {
            if guard.closed {
                return None;
            }
            guard = unpoison(self.changed.wait(guard));
        }

        let mut batch = Vec::with_capacity(max.min(guard.items.len()));
        let mut deadline = None;
        loop {
            while batch.len() < max {
                match guard.items.pop_front() {
                    Some(item) => batch.push(item),
                    None => break,
                }
            }
            if batch.len() >= max || guard.closed || guard.running == 0 {
                break;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "the linger bound is the feature — `max_wait` is measured in wall-clock time by contract."
            )]
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + max_wait);
            if now >= deadline {
                break;
            }
            guard = unpoison(self.changed.wait_timeout(guard, deadline - now)).0;
        }
        guard.running += 1;
        drop(guard);
        Some((batch, Pass { queue: self }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The items of the next batch, its pass ended at once.
    fn pop(q: &BoundedQueue<i32>, max: usize, max_wait: Duration) -> Option<Vec<i32>> {
        q.pop_batch(max, max_wait).map(|(batch, _pass)| batch)
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the tests assert how long a batch waited"
    )]
    fn now() -> Instant {
        Instant::now()
    }

    #[test]
    fn push_then_batch_preserves_fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(
            pop(&q, 8, Duration::from_millis(1)).unwrap(),
            vec![0, 1, 2, 3, 4]
        );
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
        assert_eq!(pop(&q, 4, Duration::ZERO).unwrap(), vec![7]);
        assert!(q.pop_batch(4, Duration::ZERO).is_none());
    }

    #[test]
    fn a_lone_item_leaves_at_once_when_no_pass_runs() {
        let q = BoundedQueue::new(16);
        q.try_push(1).unwrap();
        let t0 = now();
        assert_eq!(pop(&q, 32, Duration::from_secs(5)).unwrap(), vec![1]);
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(q.running(), 0);
    }

    #[test]
    fn batch_flushes_on_max_batch_without_waiting() {
        let q = BoundedQueue::new(16);
        for i in 0..6 {
            q.try_push(i).unwrap();
        }
        // max = 4 < queued: must not linger for the deadline.
        let t0 = now();
        assert_eq!(pop(&q, 4, Duration::from_secs(5)).unwrap().len(), 4);
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn a_full_batch_leaves_at_once_while_a_pass_runs() {
        let q = BoundedQueue::new(16);
        for i in 0..7 {
            q.try_push(i).unwrap();
        }
        let (first, pass) = q.pop_batch(1, Duration::ZERO).unwrap();
        assert_eq!(first, vec![0]);
        let t0 = now();
        assert_eq!(
            pop(&q, 4, Duration::from_secs(5)).unwrap(),
            vec![1, 2, 3, 4]
        );
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(q.len(), 2);
        drop(pass);
    }

    /// Waits until a consumer has taken every queued item; `false` if
    /// none did within a second.
    fn drained(q: &BoundedQueue<i32>) -> bool {
        let t0 = now();
        while !q.is_empty() {
            if t0.elapsed() > Duration::from_secs(1) {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn a_partial_batch_lingers_behind_a_pass_until_it_ends() {
        let q = BoundedQueue::new(16);
        q.try_push(1).unwrap();
        let (_, pass) = q.pop_batch(32, Duration::ZERO).unwrap();
        assert_eq!(q.running(), 1);
        std::thread::scope(|s| {
            let lingerer = s.spawn(|| {
                let t0 = now();
                let batch = pop(&q, 32, Duration::from_secs(5)).unwrap();
                (batch, t0.elapsed())
            });
            q.try_push(2).unwrap();
            assert!(drained(&q));
            q.try_push(3).unwrap();
            assert!(drained(&q), "only a consumer still lingering takes item 3");
            assert!(!lingerer.is_finished(), "it waits while the pass runs");
            drop(pass);
            let (batch, waited) = lingerer.join().unwrap();
            assert_eq!(batch, vec![2, 3]);
            assert!(waited < Duration::from_secs(2), "left after {waited:?}");
        });
        assert_eq!(q.running(), 0);
    }

    #[test]
    fn a_lingerer_leaves_at_max_wait_while_the_pass_runs_on() {
        let q = BoundedQueue::new(16);
        q.try_push(1).unwrap();
        let (_, pass) = q.pop_batch(32, Duration::ZERO).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(pop(&q, 32, Duration::from_millis(5)).unwrap(), vec![2]);
        assert_eq!(q.running(), 1);
        drop(pass);
        assert_eq!(q.running(), 0);
    }

    #[test]
    fn a_pass_dropped_while_unwinding_leaves_the_count_at_zero() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (_batch, _pass) = q.pop_batch(4, Duration::ZERO).unwrap();
            assert_eq!(q.running(), 1);
            panic!("a pipeline panic mid-pass");
        }));
        assert!(unwound.is_err());
        assert_eq!(q.running(), 0);
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
        assert_eq!(pop(&q, 1, Duration::from_millis(1)).unwrap(), vec![42]);
        producer.join().unwrap();
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q: Arc<BoundedQueue<i32>> = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || pop(&q, 4, Duration::from_millis(1)))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert!(consumer.join().unwrap().is_none());
    }
}
