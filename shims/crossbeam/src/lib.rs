//! Minimal in-tree stand-in for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel`: an unbounded multi-producer,
//! **multi-consumer** channel (std's mpsc receiver is single-consumer).
//! Implemented as a `Mutex<VecDeque>` plus a condvar. No workspace code
//! calls it today: `farm-net` still declares the dependency only because
//! dropping it would rewrite the frozen `benchmark/Cargo.lock`.

pub mod channel {
    //! Multi-producer multi-consumer FIFO channel.

    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        available: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::try_send`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is full (never produced by this unbounded shim, but
        /// present so call sites can match exhaustively).
        Full(T),
        /// All receivers have been dropped.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders have been dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and all senders have been dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// The sending half of the channel. Cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of the channel. Cloneable (multi-consumer).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`; fails only if every receiver has been dropped.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push_back(msg);
            self.shared.available.notify_one();
            Ok(())
        }

        /// Enqueues `msg` (alias of [`Sender::try_send`] for an unbounded
        /// channel); the error carries the message back.
        pub fn send(&self, msg: T) -> Result<(), TrySendError<T>> {
            self.try_send(msg)
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake blocked receivers so they observe
                // the disconnect.
                self.shared.available.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            match q.pop_front() {
                Some(v) => Ok(v),
                None if self.shared.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Dequeues, blocking up to `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timeout_result) = self
                    .shared
                    .available
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
        }

        /// Dequeues, blocking until a message arrives or all senders drop.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q = self
                    .shared
                    .available
                    .wait(q)
                    .unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn multi_consumer_drains_disjointly() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            for i in 0..100 {
                tx.try_send(i).unwrap();
            }
            let h = std::thread::spawn(move || {
                let mut got = 0;
                while rx2.try_recv().is_ok() {
                    got += 1;
                }
                got
            });
            let mut got = 0;
            while rx.try_recv().is_ok() {
                got += 1;
            }
            assert_eq!(got + h.join().unwrap(), 100);
        }

        #[test]
        fn disconnect_propagates_both_ways() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert!(matches!(tx.try_send(1), Err(TrySendError::Disconnected(1))));
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn blocked_receiver_wakes_on_send() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
            std::thread::sleep(Duration::from_millis(20));
            tx.try_send(7u8).unwrap();
            assert_eq!(h.join().unwrap(), Ok(7));
        }
    }
}
