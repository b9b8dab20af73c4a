//! Offline stand-in for the `crossbeam` crate, covering the subset this
//! workspace uses: `channel::unbounded` with blocking, timed and
//! non-blocking receives.
//!
//! The channel is a Mutex+Condvar VecDeque. Every receive blocks on the
//! condvar, so a hand-off is one wake with no sleep-poll; a send notifies
//! only when the receiver is parked, so handing a message to a busy
//! receiver costs no wake-up syscall. There is no
//! `select!`: a thread that serves two channels is written as two threads,
//! each blocked in `recv()` on one of them.
//!
//! Disconnect is tracked in both directions:
//! - a sender count; the last `Sender::drop` notifies while holding the
//!   queue lock, so a receiver between its disconnect check and its wait
//!   cannot miss the wake-up;
//! - a receiver-alive flag that `Receiver::drop` clears and `send` reads
//!   under the queue lock, so a concurrent `Sender::clone` can never make a
//!   live channel look closed.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receiver_alive: AtomicBool,
        /// Receivers parked on `ready`; changed and read only under the
        /// queue lock, so `send` skips the wake-up when nobody waits.
        waiting: AtomicUsize,
    }

    impl<T> Inner<T> {
        fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
            self.queue.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Park on `ready` until notified or `timeout` passes.
        fn wait<'a>(
            &self,
            q: MutexGuard<'a, VecDeque<T>>,
            timeout: Option<Duration>,
        ) -> MutexGuard<'a, VecDeque<T>> {
            self.waiting.fetch_add(1, Ordering::Relaxed);
            let q = match timeout {
                None => self.ready.wait(q).unwrap_or_else(|e| e.into_inner()),
                Some(t) => {
                    self.ready
                        .wait_timeout(q, t)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
            self.waiting.fetch_sub(1, Ordering::Relaxed);
            q
        }

        fn disconnected(&self) -> bool {
            self.senders.load(Ordering::SeqCst) == 0
        }
    }

    /// Receiving half of a channel has been disconnected and drained.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    /// All receivers are gone; the message is returned to the caller.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receiver_alive: AtomicBool::new(true),
            waiting: AtomicUsize::new(0),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.inner.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // last sender gone: wake blocked receivers so they observe
                // the disconnect. Taking the lock first orders this after
                // any receiver's check-then-wait, so the wake cannot be lost.
                let _q = self.inner.lock();
                self.inner.ready.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut q = self.inner.lock();
            // an unbounded send never blocks; with the receiver dropped the
            // message would be unobservable, so report that case
            if !self.inner.receiver_alive.load(Ordering::SeqCst) {
                return Err(SendError(value));
            }
            q.push_back(value);
            let parked = self.inner.waiting.load(Ordering::Relaxed) > 0;
            drop(q);
            if parked {
                self.inner.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let _q = self.inner.lock();
            self.inner.receiver_alive.store(false, Ordering::SeqCst);
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.inner.lock();
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.inner.disconnected() {
                    return Err(RecvError);
                }
                q = self.inner.wait(q, None);
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.inner.lock();
            if let Some(v) = q.pop_front() {
                return Ok(v);
            }
            if self.inner.disconnected() {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.inner.lock();
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.inner.disconnected() {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                q = self.inner.wait(q, Some(deadline - now));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = channel::unbounded();
        tx.send(7).unwrap();
        tx.send(8).unwrap();
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.try_recv(), Ok(8));
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
    }

    #[test]
    fn disconnect_is_observable() {
        let (tx, rx) = channel::unbounded::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(channel::RecvError));
        let (tx2, rx2) = channel::unbounded::<u32>();
        tx2.send(1).unwrap();
        drop(tx2);
        // queued message still delivered before disconnect surfaces
        assert_eq!(rx2.recv(), Ok(1));
        assert_eq!(rx2.try_recv(), Err(channel::TryRecvError::Disconnected));
    }

    #[test]
    fn send_to_dropped_receiver_returns_the_message() {
        let (tx, rx) = channel::unbounded::<u32>();
        let tx2 = tx.clone();
        drop(rx);
        assert_eq!(tx.send(5), Err(channel::SendError(5)));
        assert_eq!(tx2.send(6), Err(channel::SendError(6)));
    }

    #[test]
    fn recv_timeout_times_out_and_delivers() {
        let (tx, rx) = channel::unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(42).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
        t.join().unwrap();
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = channel::unbounded();
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clone_while_sending_delivers_every_message() {
        // every thread clones the sender and sends while the others do the
        // same; a clone landing in the middle of a send must never make
        // the live channel look closed
        const THREADS: usize = 4;
        const PER_THREAD: usize = 100_000;
        let (tx, rx) = channel::unbounded::<usize>();
        let start = Arc::new(Barrier::new(THREADS));
        let producers: Vec<_> = (0..THREADS)
            .map(|_| {
                let tx = tx.clone();
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut refused = 0usize;
                    for i in 0..PER_THREAD {
                        let clone = tx.clone();
                        if tx.send(i).is_err() {
                            refused += 1;
                        }
                        drop(clone);
                    }
                    refused
                })
            })
            .collect();
        drop(tx);
        let mut received = 0usize;
        while rx.recv().is_ok() {
            received += 1;
        }
        let refused: usize = producers.into_iter().map(|p| p.join().unwrap()).sum();
        assert_eq!(refused, 0, "sends refused on a live channel");
        assert_eq!(received, THREADS * PER_THREAD);
    }

    #[test]
    fn last_sender_drop_wakes_a_blocked_receiver() {
        // race the last sender's drop against a receiver entering recv();
        // every round must see the disconnect, never block forever
        for _ in 0..2_000 {
            let (tx, rx) = channel::unbounded::<u32>();
            let start = Arc::new(Barrier::new(2));
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let receiver = {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let _ = done_tx.send(rx.recv());
                })
            };
            start.wait();
            drop(tx);
            let outcome = done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("receiver stayed blocked after the last sender dropped");
            assert_eq!(outcome, Err(channel::RecvError));
            receiver.join().unwrap();
        }
    }
}
