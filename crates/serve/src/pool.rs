//! A bounded MPMC queue built on `Mutex` + `Condvar`.
//!
//! Both daemon queues use it: the connection queue feeding the worker
//! pool (multi-consumer) and the ingress queue feeding each lane's
//! decide thread. Bounding is the backpressure mechanism —
//! [`BoundedQueue::try_push`] fails immediately when the queue is full so
//! the caller can send a typed overload rejection instead of stalling the
//! socket.
//!
//! Wake-ups are paid only when somebody sleeps: a futex `Condvar`'s
//! `notify_one` is a system call whether or not a thread waits, so the
//! queue counts its parked consumers and producers under the lock and
//! notifies only when the count is non-zero. A waiter registers under
//! the same lock it checked the queue under, so a push or pop that sees
//! no waiter cannot have one about to sleep on stale state.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How a [`BoundedQueue::drain_timeout`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drained {
    /// At least one item was moved into the caller's buffer.
    Items,
    /// The queue stayed empty for the whole wait.
    TimedOut,
    /// The queue is closed and drained; no item will ever arrive.
    Closed,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    // Threads parked on `not_empty` / `not_full` right now.
    consumers_parked: usize,
    producers_parked: usize,
}

/// A bounded multi-producer multi-consumer FIFO queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    // `items.len()`, stored under the lock after every change; a
    // statistic for gauges and overload replies, never a decision input,
    // hence `Relaxed`.
    depth: AtomicUsize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                consumers_parked: 0,
                producers_parked: 0,
            }),
            capacity: capacity.max(1),
            depth: AtomicUsize::new(0),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queue depth as of the last push or pop; takes no lock.
    pub fn len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        // Every update leaves the state valid at every step, so a
        // panicking holder (there is none in this module) poisons nothing.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    // Appends under the lock, then wakes one parked consumer if any.
    fn enqueue(&self, mut s: MutexGuard<'_, QueueState<T>>, item: T) {
        s.items.push_back(item);
        self.depth.store(s.items.len(), Ordering::Relaxed);
        let wake = s.consumers_parked > 0;
        drop(s);
        if wake {
            self.not_empty.notify_one();
        }
    }

    // Publishes the depth after `taken` items left, then wakes as many
    // parked producers as slots were freed.
    fn dequeued(&self, s: MutexGuard<'_, QueueState<T>>, taken: usize) {
        self.depth.store(s.items.len(), Ordering::Relaxed);
        let parked = s.producers_parked;
        drop(s);
        match parked.min(taken) {
            0 => {}
            1 => self.not_full.notify_one(),
            _ => self.not_full.notify_all(),
        }
    }

    /// Enqueues without blocking. Returns the item back on a full or
    /// closed queue so the caller can reject it explicitly.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let s = self.lock();
        if s.closed || s.items.len() >= self.capacity {
            return Err(item);
        }
        self.enqueue(s, item);
        Ok(())
    }

    /// Enqueues, blocking while the queue is full. Returns the item back
    /// only if the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut s = self.lock();
        loop {
            if s.closed {
                return Err(item);
            }
            if s.items.len() < self.capacity {
                self.enqueue(s, item);
                return Ok(());
            }
            s.producers_parked += 1;
            s = self.not_full.wait(s).unwrap_or_else(|e| e.into_inner());
            s.producers_parked -= 1;
        }
    }

    /// Dequeues, blocking until an item arrives or the queue closes.
    /// `None` means closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                self.dequeued(s, 1);
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s.consumers_parked += 1;
            s = self.not_empty.wait(s).unwrap_or_else(|e| e.into_inner());
            s.consumers_parked -= 1;
        }
    }

    /// Moves every queued item, oldest first and at most `max` of them,
    /// onto the back of `out` in one lock take, waiting up to `timeout`
    /// for the first one.
    pub fn drain_timeout(&self, out: &mut VecDeque<T>, max: usize, timeout: Duration) -> Drained {
        // Set on the first wait: a drain that finds items reads no clock.
        let mut deadline: Option<Instant> = None;
        let mut s = self.lock();
        loop {
            if !s.items.is_empty() {
                let take = s.items.len().min(max.max(1));
                out.extend(s.items.drain(..take));
                self.dequeued(s, take);
                return Drained::Items;
            }
            if s.closed {
                return Drained::Closed;
            }
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + timeout);
            if now >= deadline {
                return Drained::TimedOut;
            }
            s.consumers_parked += 1;
            s = (self.not_empty.wait_timeout(s, deadline - now))
                .unwrap_or_else(|e| e.into_inner())
                .0;
            s.consumers_parked -= 1;
        }
    }

    /// Closes the queue: producers start failing, consumers drain what is
    /// left and then observe the close.
    pub fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        drop(s);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    // Spins until `n` producers are parked on a full queue: the
    // interleaving the blocked-push tests need, forced rather than slept
    // for.
    fn await_parked_producers<T>(q: &BoundedQueue<T>, n: usize) {
        while q.lock().producers_parked < n {
            thread::yield_now();
        }
    }

    fn await_parked_consumers<T>(q: &BoundedQueue<T>, n: usize) {
        while q.lock().consumers_parked < n {
            thread::yield_now();
        }
    }

    #[test]
    fn fifo_order_and_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.capacity(), 2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn close_wakes_consumers_and_rejects_producers() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.pop());
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(q.try_push(7), Err(7));
        assert_eq!(q.push(8), Err(8));
    }

    #[test]
    fn close_wakes_every_blocked_producer_and_consumer() {
        let full: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        full.try_push(0).unwrap();
        let producers: Vec<_> = (1..=3)
            .map(|i| {
                let q = Arc::clone(&full);
                thread::spawn(move || q.push(i))
            })
            .collect();
        await_parked_producers(&full, 3);
        full.close();
        for (i, producer) in (1..=3).zip(producers) {
            assert_eq!(producer.join().unwrap(), Err(i));
        }

        let empty: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let mut consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&empty);
                thread::spawn(move || q.pop().is_none())
            })
            .collect();
        let q = Arc::clone(&empty);
        consumers.push(thread::spawn(move || {
            let mut out = VecDeque::new();
            q.drain_timeout(&mut out, 8, Duration::from_secs(60)) == Drained::Closed
        }));
        await_parked_consumers(&empty, 3);
        empty.close();
        for consumer in consumers {
            assert!(consumer.join().unwrap(), "a consumer missed the close");
        }
    }

    #[test]
    fn close_lets_consumers_drain() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(1));
        let mut out = VecDeque::new();
        let wait = Duration::from_millis(1);
        assert_eq!(q.drain_timeout(&mut out, 8, wait), Drained::Items);
        assert_eq!(out, [2]);
        assert_eq!(q.pop(), None);
        assert_eq!(q.drain_timeout(&mut out, 8, wait), Drained::Closed);
    }

    #[test]
    fn drain_times_out_then_delivers() {
        let q = BoundedQueue::new(4);
        let mut out = VecDeque::new();
        let wait = Duration::from_millis(5);
        assert_eq!(q.drain_timeout(&mut out, 8, wait), Drained::TimedOut);
        assert!(out.is_empty());
        q.try_push(9).unwrap();
        assert_eq!(q.drain_timeout(&mut out, 8, wait), Drained::Items);
        assert_eq!(out, [9]);
    }

    #[test]
    fn drain_is_fifo_and_respects_the_chunk_bound() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.try_push(i).unwrap();
        }
        // Appends behind what the caller still holds.
        let mut out = VecDeque::from([100]);
        assert_eq!(q.drain_timeout(&mut out, 4, Duration::ZERO), Drained::Items);
        assert_eq!(out, [100, 0, 1, 2, 3]);
        assert_eq!(q.len(), 6);
        out.clear();
        assert_eq!(
            q.drain_timeout(&mut out, 64, Duration::ZERO),
            Drained::Items
        );
        assert_eq!(out, [4, 5, 6, 7, 8, 9]);
        assert!(q.is_empty());
        assert_eq!(
            q.drain_timeout(&mut out, 64, Duration::ZERO),
            Drained::TimedOut
        );
    }

    #[test]
    fn blocked_push_resumes_after_pop() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        q.try_push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push(2));
        await_parked_producers(&q, 1);
        assert_eq!(q.pop(), Some(1));
        assert!(producer.join().unwrap().is_ok());
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn blocked_pushes_resume_after_a_drain_that_empties_the_queue() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(2));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let producers: Vec<_> = (3..=4)
            .map(|i| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push(i))
            })
            .collect();
        await_parked_producers(&q, 2);
        // One drain frees two slots: both producers must be woken by it,
        // nothing else will ever touch the queue.
        let mut out = VecDeque::new();
        assert_eq!(
            q.drain_timeout(&mut out, 64, Duration::ZERO),
            Drained::Items
        );
        assert_eq!(out, [1, 2]);
        for producer in producers {
            assert!(producer.join().unwrap().is_ok());
        }
        out.clear();
        q.drain_timeout(&mut out, 64, Duration::ZERO);
        out.make_contiguous().sort_unstable();
        assert_eq!(out, [3, 4]);
    }

    // Edge notification must lose no wake-up: with every producer and
    // consumer able to park at capacity 1 and 2, and rarely at 64, each
    // item still arrives exactly once and every thread terminates.
    #[test]
    fn producers_and_consumers_deliver_every_item_exactly_once() {
        const PRODUCERS: u32 = 4;
        const PER_PRODUCER: u32 = 5_000;
        for capacity in [1, 2, 64] {
            let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(capacity));
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        for i in 0..PER_PRODUCER {
                            q.push(p * PER_PRODUCER + i).expect("queue is open");
                        }
                    })
                })
                .collect();
            // Two consumers pop (the worker pool's way), one drains in
            // chunks (a lane's way).
            let mut consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || std::iter::from_fn(|| q.pop()).collect::<Vec<u32>>())
                })
                .collect();
            let q2 = Arc::clone(&q);
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                let mut chunk = VecDeque::new();
                while q2.drain_timeout(&mut chunk, 8, Duration::from_millis(50)) != Drained::Closed
                {
                    assert!(chunk.len() <= 8, "chunk bound exceeded");
                    got.extend(chunk.drain(..));
                }
                got
            }));
            for producer in producers {
                producer.join().unwrap();
            }
            q.close();
            let mut all: Vec<u32> = Vec::new();
            for consumer in consumers {
                let got = consumer.join().unwrap();
                // Each producer's items reach any one consumer in order.
                for p in 0..PRODUCERS {
                    let range = p * PER_PRODUCER..(p + 1) * PER_PRODUCER;
                    let mine: Vec<u32> = (got.iter().copied())
                        .filter(|v| range.contains(v))
                        .collect();
                    assert!(mine.windows(2).all(|w| w[0] < w[1]), "capacity {capacity}");
                }
                all.extend(got);
            }
            all.sort_unstable();
            let expected: Vec<u32> = (0..PRODUCERS * PER_PRODUCER).collect();
            assert_eq!(all, expected, "capacity {capacity}");
        }
    }
}
