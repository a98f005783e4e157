//! Model checks for the serving engine's MPMC queue, run with
//! `RUSTFLAGS="--cfg loom" cargo test -p adv-serve --test loom`.
//!
//! Under `cfg(loom)` the queue's `Mutex`/`Condvar` come from the loom shim,
//! which injects deterministic per-iteration schedule perturbation at every
//! lock, wait and notify (see `shims/loom`). Each check therefore runs the
//! scenario across many distinct schedules; the invariants below must hold
//! on all of them.

#![cfg(loom)]

use adv_serve::queue::{BoundedQueue, PushError};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Every accepted item is delivered exactly once, across multiple producers
/// and multiple batch-draining consumers, with close-time stragglers still
/// drained (the queue's documented shutdown contract).
#[test]
fn mpmc_delivers_every_accepted_item_exactly_once() {
    loom::model(|| {
        const PRODUCERS: u64 = 3;
        const PER_PRODUCER: u64 = 8;
        let queue: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(4));

        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let queue = queue.clone();
                loom::thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some((batch, _pass)) = queue.pop_batch(3, Duration::from_micros(50)) {
                        seen.extend(batch);
                    }
                    seen
                })
            })
            .collect();

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let queue = queue.clone();
                loom::thread::spawn(move || {
                    let mut accepted = Vec::new();
                    for i in 0..PER_PRODUCER {
                        let item = p * 100 + i;
                        loop {
                            match queue.try_push(item) {
                                Ok(_) => {
                                    accepted.push(item);
                                    break;
                                }
                                Err(PushError::Full(_)) => loom::thread::yield_now(),
                                Err(PushError::Closed(_)) => {
                                    unreachable!("queue closed while producing")
                                }
                            }
                        }
                    }
                    accepted
                })
            })
            .collect();

        let mut accepted = Vec::new();
        for producer in producers {
            accepted.extend(producer.join().expect("producer panicked"));
        }
        queue.close();

        let mut delivered = Vec::new();
        for consumer in consumers {
            delivered.extend(consumer.join().expect("consumer panicked"));
        }

        assert_eq!(
            delivered.len(),
            accepted.len(),
            "every accepted item is delivered exactly once (no loss, no duplication)"
        );
        let delivered_set: HashSet<u64> = delivered.iter().copied().collect();
        let accepted_set: HashSet<u64> = accepted.iter().copied().collect();
        assert_eq!(delivered_set, accepted_set);
    });
}

/// With a single consumer the queue is FIFO per producer: each producer's
/// items arrive in submission order (the engine relies on this for fair
/// latency attribution).
#[test]
fn single_consumer_preserves_per_producer_order() {
    loom::model(|| {
        let queue: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(16));

        let consumer = {
            let queue = queue.clone();
            loom::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some((batch, _pass)) = queue.pop_batch(4, Duration::from_micros(50)) {
                    seen.extend(batch);
                }
                seen
            })
        };

        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let queue = queue.clone();
                loom::thread::spawn(move || {
                    for i in 0..6 {
                        let mut item = p * 100 + i;
                        loop {
                            match queue.try_push(item) {
                                Ok(_) => break,
                                Err(PushError::Full(returned)) => {
                                    item = returned;
                                    loom::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => {
                                    unreachable!("queue closed while producing")
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().expect("producer panicked");
        }
        queue.close();
        let seen = consumer.join().expect("consumer panicked");

        assert_eq!(seen.len(), 12);
        for p in 0..2u64 {
            let per_producer: Vec<u64> = seen.iter().copied().filter(|v| v / 100 == p).collect();
            let mut sorted = per_producer.clone();
            sorted.sort_unstable();
            assert_eq!(
                per_producer, sorted,
                "producer {p}'s items must arrive in submission order"
            );
        }
    });
}

/// Model of the engine's supervision protocol: a worker that dies mid-batch
/// answers every request of the doomed batch *before* dying (mirroring the
/// engine's `catch_unwind` with the senders held outside the closure), and
/// the supervisor's replacement worker drains the remainder. Across all
/// perturbed schedules, every accepted request is answered exactly once —
/// the worker's death neither loses a request nor double-delivers one.
#[test]
fn worker_death_mid_batch_never_loses_or_double_delivers() {
    use loom::sync::Mutex;

    const N: usize = 6;
    const POISON: usize = 2;

    /// Worker body: drain batches, answering each item exactly once; a
    /// batch containing the poison item is still fully answered, then the
    /// worker reports its own death (`true`) as the engine's caught-panic
    /// path does.
    fn run_worker(queue: &BoundedQueue<usize>, responses: &Mutex<Vec<u8>>) -> bool {
        while let Some((batch, _pass)) = queue.pop_batch(3, Duration::from_micros(10)) {
            let poisoned = batch.iter().any(|&item| item == POISON);
            let mut delivered = responses.lock().unwrap();
            for item in batch {
                delivered[item] += 1;
            }
            drop(delivered);
            if poisoned {
                return true;
            }
        }
        false
    }

    loom::model(|| {
        let queue: Arc<BoundedQueue<usize>> = Arc::new(BoundedQueue::new(N));
        let responses = Arc::new(Mutex::new(vec![0u8; N]));

        let supervisor = {
            let queue = queue.clone();
            let responses = responses.clone();
            loom::thread::spawn(move || {
                let mut restarts = 0u32;
                loop {
                    let worker = {
                        let queue = queue.clone();
                        let responses = responses.clone();
                        loom::thread::spawn(move || run_worker(&queue, &responses))
                    };
                    let died = worker.join().expect("worker thread panicked");
                    if !died {
                        break;
                    }
                    restarts += 1;
                    assert!(restarts <= 1, "the single poison can kill only one worker");
                }
                restarts
            })
        };

        for item in 0..N {
            loop {
                match queue.try_push(item) {
                    Ok(_) => break,
                    Err(PushError::Full(_)) => loom::thread::yield_now(),
                    Err(PushError::Closed(_)) => unreachable!("queue closed while producing"),
                }
            }
        }
        queue.close();
        let restarts = supervisor.join().expect("supervisor panicked");

        let delivered = responses.lock().unwrap();
        assert!(
            delivered.iter().all(|&count| count == 1),
            "every request must be answered exactly once, got {delivered:?}"
        );
        // The poison is always delivered (exactly once, per the assert
        // above), so the worker that took it always died and was replaced.
        assert_eq!(restarts, 1, "the poisoned worker must die and be respawned");
    });
}

/// Closing an empty queue wakes every blocked consumer (no lost wakeup: a
/// missed `notify_all` would hang this test rather than fail it, which is
/// exactly the regression signal we want in CI).
#[test]
fn close_wakes_all_blocked_consumers() {
    loom::model(|| {
        let queue: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(4));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let queue = queue.clone();
                loom::thread::spawn(move || {
                    queue
                        .pop_batch(4, Duration::from_micros(10))
                        .map(|(batch, _pass)| batch)
                })
            })
            .collect();
        // No sleep: under schedule perturbation some iterations close before
        // the consumers block, some after — both must terminate.
        queue.close();
        for consumer in consumers {
            assert!(
                consumer.join().expect("consumer panicked").is_none(),
                "a consumer must observe end-of-stream after close"
            );
        }
    });
}

/// Nagle's rule: a consumer holding a partial batch lingers while another
/// pass runs, and the end of that pass must wake it (no lost wake-up: with
/// a 10 s `max_wait`, a missed `notify_all` shows up as a consumer that
/// only leaves at its deadline). On every schedule the pass count returns
/// to 0 once both guards drop.
#[test]
fn the_end_of_a_pass_wakes_a_lingering_consumer() {
    const MAX_WAIT: Duration = Duration::from_secs(10);
    loom::model(|| {
        let queue: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(4));
        queue.try_push(1).expect("empty queue accepts");
        let (first, pass) = queue
            .pop_batch(4, MAX_WAIT)
            .expect("an open queue with an item hands it out");
        assert_eq!(first, vec![1], "no pass ran, so the lone item left at once");

        let lingerer = {
            let queue = queue.clone();
            loom::thread::spawn(move || {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the check is that the consumer left before its deadline"
                )]
                let started = std::time::Instant::now();
                let (batch, pass) = queue.pop_batch(4, MAX_WAIT).expect("queue stays open");
                let waited = started.elapsed();
                drop(pass);
                (batch, waited)
            })
        };
        queue.try_push(2).expect("queue has room");
        // Some schedules end the pass before the lingerer arrives (it then
        // leaves at once), others while it waits for items or lingers.
        drop(pass);
        let (batch, waited) = lingerer.join().expect("lingerer panicked");
        assert_eq!(batch, vec![2]);
        assert!(
            waited < MAX_WAIT / 2,
            "the pass's end must wake the lingerer, which waited {waited:?}"
        );
        assert_eq!(queue.running(), 0, "every pass guard dropped");
    });
}
