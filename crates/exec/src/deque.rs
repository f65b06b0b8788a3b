//! The task queue the executor schedules tokens on. It plays the roles of
//! `crossbeam-deque`'s `Injector`, `Worker` and `Stealer` with one type over
//! `Mutex<VecDeque>`: every injector shard and every worker's local deque is
//! a [`Fifo`], any thread may push, and any thread may take the oldest task
//! (the owning worker pops it, an idle sibling steals it). At this
//! workspace's scale (a handful of worker threads dispatching
//! millisecond-scale batches) the mutex is nowhere near contention.

use crate::lock;
use std::collections::VecDeque;
use std::sync::Mutex;

/// A shared FIFO of tasks.
pub(crate) struct Fifo<T>(Mutex<VecDeque<T>>);

impl<T> Fifo<T> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        Fifo(Mutex::new(VecDeque::new()))
    }

    /// Push a task at the tail.
    pub(crate) fn push(&self, task: T) {
        lock(&self.0).push_back(task);
    }

    /// Take the oldest task, as its owner or as a thief.
    pub(crate) fn pop(&self) -> Option<T> {
        lock(&self.0).pop_front()
    }

    /// Number of queued tasks at the instant of the call.
    pub(crate) fn len(&self) -> usize {
        lock(&self.0).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_worker_pops_oldest_and_stealer_takes_the_same_end() {
        let local: Fifo<i32> = Fifo::new();
        local.push(1);
        local.push(2);
        local.push(3);
        let stealer = &local;
        assert_eq!(local.pop(), Some(1));
        assert_eq!(stealer.pop(), Some(2));
        assert_eq!(local.pop(), Some(3));
        assert_eq!(stealer.pop(), None);
    }

    #[test]
    fn injector_is_a_shared_fifo() {
        let inj: Fifo<usize> = Fifo::new();
        assert_eq!(inj.len(), 0);
        for i in 0..4 {
            inj.push(i);
        }
        assert_eq!(inj.len(), 4);
        for i in 0..4 {
            assert_eq!(inj.pop(), Some(i));
        }
        assert_eq!(inj.pop(), None);
    }

    #[test]
    fn concurrent_thieves_drain_a_worker_exactly_once_each() {
        let local: Fifo<usize> = Fifo::new();
        const TASKS: usize = 1000;
        for i in 0..TASKS {
            local.push(i);
        }
        let taken = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while local.pop().is_some() {
                        taken.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(
            taken.load(Ordering::Relaxed),
            TASKS,
            "every task stolen exactly once"
        );
        assert_eq!(local.len(), 0);
    }
}
