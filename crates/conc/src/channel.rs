//! Blocking MPMC channels built from a mutex and condition variables, with
//! bounded capacity for backpressure.
//!
//! Message passing is one of the "alternative concurrency models" the paper's
//! discussion points toward (and the model Erlang, Go, and Rust's `mpsc`
//! adopted). This implementation is deliberately from scratch — the substrate
//! rule — and is the transport under the [`crate::actor`] runtime.
//!
//! The mutex and condvars come from `syscheck::shim`, so the blocking
//! protocol (including the timeout paths) is exhaustively model-checked by
//! the `checker_*` tests below; on ordinary threads the shim is `std` plus
//! one relaxed load. [`BrokenSignal`] is a deliberately buggy wait/notify
//! cell kept as a known-defect specimen for the checker (E13).
//!
//! Wakeups are counted: `State` records how many receivers and senders are
//! parked on each condvar, and a send or receive notifies only when that
//! count is non-zero. With `std`'s futex condvar every `notify_one` is a
//! `futex_wake` syscall whether or not anyone waits, so an uncontended
//! hand-off would otherwise pay two syscalls for nothing. Disconnects and
//! [`Receiver::drain`] still `notify_all` unconditionally.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use syscheck::shim::{Condvar, Mutex, MutexGuard};

/// Error returned by [`Sender::send`] when every receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "send on a channel with no receivers")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::recv`] when the channel is empty and every
/// sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recv on an empty channel with no senders")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message available right now.
    Empty,
    /// Channel empty and all senders dropped.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "channel empty"),
            TryRecvError::Disconnected => write!(f, "channel disconnected"),
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Error returned by [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The bounded channel is at capacity right now; the message comes back.
    Full(T),
    /// Every receiver is gone; the message comes back.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// Recovers the message that could not be sent.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
        }
    }
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "try_send on a full channel"),
            TrySendError::Disconnected(_) => write!(f, "send on a channel with no receivers"),
        }
    }
}

impl<T: fmt::Debug> std::error::Error for TrySendError<T> {}

/// Error returned by [`Sender::send_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The channel stayed full for the whole timeout; the message comes
    /// back.
    Timeout(T),
    /// Every receiver is gone; the message comes back.
    Disconnected(T),
}

impl<T> fmt::Display for SendTimeoutError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendTimeoutError::Timeout(_) => write!(f, "send timed out on a full channel"),
            SendTimeoutError::Disconnected(_) => {
                write!(f, "send on a channel with no receivers")
            }
        }
    }
}

impl<T: fmt::Debug> std::error::Error for SendTimeoutError<T> {}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The channel stayed empty for the whole timeout.
    Timeout,
    /// Channel empty and all senders dropped.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "recv timed out on an empty channel"),
            RecvTimeoutError::Disconnected => {
                write!(f, "recv on an empty channel with no senders")
            }
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

#[derive(Debug)]
struct Shared<T> {
    queue: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: Option<usize>,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers parked on `not_empty`: a send notifies only if non-zero.
    parked_receivers: usize,
    /// Senders parked on `not_full`: a receive notifies only if non-zero.
    parked_senders: usize,
}

type Guard<'a, T> = MutexGuard<'a, State<T>>;

/// Waits on `cv`, for at most `timeout` when one is given; returns whether
/// the timeout fired.
fn wait_on<'a, T>(
    cv: &Condvar,
    state: Guard<'a, T>,
    timeout: Option<Duration>,
) -> (Guard<'a, T>, bool) {
    match timeout {
        None => (cv.wait(state).expect("channel poisoned"), false),
        Some(dur) => {
            let (state, wait) = cv.wait_timeout(state, dur).expect("channel poisoned");
            (state, wait.timed_out())
        }
    }
}

impl<T> Shared<T> {
    /// Parks on `not_empty`, counted so that senders know to wake us. The
    /// condvar releases the lock and enqueues the waiter atomically, so a
    /// sender that sees the count under the lock always finds us queued.
    fn park_receiver<'a>(
        &self,
        mut state: Guard<'a, T>,
        timeout: Option<Duration>,
    ) -> (Guard<'a, T>, bool) {
        state.parked_receivers += 1;
        let (mut state, timed_out) = wait_on(&self.not_empty, state, timeout);
        state.parked_receivers -= 1;
        (state, timed_out)
    }

    /// Parks on `not_full`, counted so that receivers know to wake us.
    fn park_sender<'a>(
        &self,
        mut state: Guard<'a, T>,
        timeout: Option<Duration>,
    ) -> (Guard<'a, T>, bool) {
        state.parked_senders += 1;
        let (mut state, timed_out) = wait_on(&self.not_full, state, timeout);
        state.parked_senders -= 1;
        (state, timed_out)
    }

    /// Enqueues `value`, releases the lock, and wakes one receiver if any
    /// is parked.
    fn push(&self, mut state: Guard<'_, T>, value: T) {
        state.items.push_back(value);
        let wake = state.parked_receivers > 0;
        drop(state);
        if wake {
            self.not_empty.notify_one();
        }
        sysobs::obs_count!("chan.sends", 1);
    }

    /// Dequeues the head, if any: on success the lock is released and one
    /// parked sender woken; on an empty queue the guard comes back.
    fn pop<'a>(&self, mut state: Guard<'a, T>) -> Result<T, Guard<'a, T>> {
        let Some(v) = state.items.pop_front() else {
            return Err(state);
        };
        let wake = state.parked_senders > 0;
        drop(state);
        if wake {
            self.not_full.notify_one();
        }
        sysobs::obs_count!("chan.recvs", 1);
        Ok(v)
    }
}

/// Creates an unbounded channel.
#[must_use]
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity_inner(None)
}

/// Creates a bounded channel: `send` blocks while `capacity` messages are
/// queued, applying backpressure to producers.
///
/// # Panics
///
/// Panics if `capacity` is zero (rendezvous channels are not supported).
#[must_use]
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "bounded channel capacity must be nonzero");
    with_capacity_inner(Some(capacity))
}

fn with_capacity_inner<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(State {
            items: VecDeque::new(),
            senders: 1,
            receivers: 1,
            parked_receivers: 0,
            parked_senders: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity,
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// The sending half of a channel. Cloneable (multi-producer).
#[derive(Debug)]
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Sends a message, blocking while a bounded channel is full.
    ///
    /// # Errors
    ///
    /// Returns the message back if every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.queue.lock().expect("channel poisoned");
        loop {
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            match self.shared.capacity {
                Some(cap) if state.items.len() >= cap => {
                    state = self.shared.park_sender(state, None).0;
                }
                _ => break,
            }
        }
        self.shared.push(state, value);
        Ok(())
    }

    /// Sends without blocking: if a bounded channel is at capacity the
    /// message comes straight back instead of stalling the producer. This is
    /// the primitive the `sysnet` dispatcher builds head-of-line-blocking
    /// avoidance from — one slow consumer's full queue must not stop traffic
    /// destined to every other consumer.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when the channel is at capacity,
    /// [`TrySendError::Disconnected`] when every receiver is gone; both
    /// return the message.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let state = self.shared.queue.lock().expect("channel poisoned");
        if state.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if let Some(cap) = self.shared.capacity {
            if state.items.len() >= cap {
                return Err(TrySendError::Full(value));
            }
        }
        self.shared.push(state, value);
        Ok(())
    }

    /// Like [`Sender::send`], but gives up after `timeout` instead of
    /// blocking indefinitely on a full channel — backpressure with a
    /// deadline, so a stalled consumer costs the producer bounded time.
    ///
    /// # Errors
    ///
    /// [`SendTimeoutError::Timeout`] if the channel stayed full,
    /// [`SendTimeoutError::Disconnected`] if every receiver is gone; both
    /// return the message.
    pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        // A timeout too large to represent as an Instant (e.g. Duration::MAX)
        // means "wait forever" — it must not panic the sender.
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.shared.queue.lock().expect("channel poisoned");
        loop {
            if state.receivers == 0 {
                return Err(SendTimeoutError::Disconnected(value));
            }
            match self.shared.capacity {
                Some(cap) if state.items.len() >= cap => {
                    let Some(deadline) = deadline else {
                        state = self.shared.park_sender(state, None).0;
                        continue;
                    };
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        sysobs::obs_count!("chan.send_timeouts", 1);
                        return Err(SendTimeoutError::Timeout(value));
                    };
                    let (s, timed_out) = self.shared.park_sender(state, Some(left));
                    state = s;
                    if timed_out && state.items.len() >= cap {
                        if state.receivers == 0 {
                            return Err(SendTimeoutError::Disconnected(value));
                        }
                        sysobs::obs_count!("chan.send_timeouts", 1);
                        return Err(SendTimeoutError::Timeout(value));
                    }
                }
                _ => break,
            }
        }
        self.shared.push(state, value);
        Ok(())
    }

    /// Number of queued messages (racy; for monitoring only).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("channel poisoned")
            .items
            .len()
    }

    /// True if no messages are queued (racy; for monitoring only).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.queue.lock().expect("channel poisoned").senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.queue.lock().expect("channel poisoned");
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            self.shared.not_empty.notify_all();
        }
    }
}

/// The receiving half of a channel. Cloneable (multi-consumer).
#[derive(Debug)]
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Receives the next message, blocking while the channel is empty.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once the channel is empty and all senders are
    /// gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.queue.lock().expect("channel poisoned");
        loop {
            state = match self.shared.pop(state) {
                Ok(v) => return Ok(v),
                Err(s) => s,
            };
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.shared.park_receiver(state, None).0;
        }
    }

    /// Like [`Receiver::recv`], but gives up after `timeout` instead of
    /// blocking indefinitely on an empty channel.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if nothing arrived in time,
    /// [`RecvTimeoutError::Disconnected`] once the channel is empty and all
    /// senders are gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        // As in [`Sender::send_timeout`]: an unrepresentable deadline means
        // "wait forever", not an `Instant` addition panic.
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.shared.queue.lock().expect("channel poisoned");
        loop {
            state = match self.shared.pop(state) {
                Ok(v) => return Ok(v),
                Err(s) => s,
            };
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let Some(deadline) = deadline else {
                state = self.shared.park_receiver(state, None).0;
                continue;
            };
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                sysobs::obs_count!("chan.recv_timeouts", 1);
                return Err(RecvTimeoutError::Timeout);
            };
            let (s, timed_out) = self.shared.park_receiver(state, Some(left));
            state = s;
            if timed_out && state.items.is_empty() {
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                sysobs::obs_count!("chan.recv_timeouts", 1);
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// Receives without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] if nothing is queued,
    /// [`TryRecvError::Disconnected`] if additionally all senders are gone.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let state = self.shared.queue.lock().expect("channel poisoned");
        let state = match self.shared.pop(state) {
            Ok(v) => return Ok(v),
            Err(s) => s,
        };
        if state.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Drains and returns everything currently queued.
    #[must_use]
    pub fn drain(&self) -> Vec<T> {
        let mut state = self.shared.queue.lock().expect("channel poisoned");
        let out: Vec<T> = state.items.drain(..).collect();
        drop(state);
        self.shared.not_full.notify_all();
        out
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared
            .queue
            .lock()
            .expect("channel poisoned")
            .receivers += 1;
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.queue.lock().expect("channel poisoned");
        state.receivers -= 1;
        if state.receivers == 0 {
            drop(state);
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> Iterator for Receiver<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.recv().ok()
    }
}

/// A deliberately broken one-shot wait/notify cell: the textbook lost
/// wakeup, kept (like `bank::BrokenComposedBank`) as a known-defect specimen
/// the checker must rediscover.
///
/// [`BrokenSignal::wait`] samples the flag under the lock, *releases the
/// lock*, and only then parks on the condvar — without re-checking the flag
/// under the re-acquired lock. A [`BrokenSignal::notify`] landing in that
/// window finds no waiter to wake, and the subsequent naked `Condvar::wait`
/// sleeps forever. OS schedulers hit the window rarely enough that the stress
/// test for the original bug this models passed for weeks; `syscheck` finds
/// it in a handful of schedules and reports it as a deadlock
/// (`checker_broken_signal_loses_wakeup`).
#[derive(Debug, Default)]
pub struct BrokenSignal {
    ready: Mutex<bool>,
    cv: Condvar,
}

impl BrokenSignal {
    /// Creates an unsignaled cell.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the flag and wakes one waiter (correct half of the protocol).
    pub fn notify(&self) {
        let mut g = self.ready.lock().expect("signal poisoned");
        *g = true;
        drop(g);
        self.cv.notify_one();
    }

    /// Blocks until [`BrokenSignal::notify`] — except it doesn't, always:
    /// the check-then-park window described on [`BrokenSignal`] loses a
    /// concurrent notify.
    pub fn wait(&self) {
        let signaled = *self.ready.lock().expect("signal poisoned");
        if signaled {
            return;
        }
        // BUG: between the check above and the wait below the notifier can
        // set the flag and notify; the wait that follows never re-checks the
        // predicate, so that wakeup is lost for good.
        let g = self.ready.lock().expect("signal poisoned");
        let _g = self.cv.wait(g).expect("signal poisoned");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn messages_arrive_in_fifo_order() {
        let (tx, rx) = channel();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    /// Formerly a sleep-20ms-and-hope real-thread test: now every
    /// interleaving of the blocking receiver against the sender is explored,
    /// including the ones where the receiver parks first.
    #[test]
    fn checker_recv_blocks_until_send() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let (tx, rx) = channel();
            let h = syscheck::shim::spawn(move || rx.recv().unwrap());
            tx.send(7u8).unwrap();
            let got = h.join().unwrap();
            assert_eq!(got, 7);
            u64::from(got)
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
        assert!(ex.complete);
        assert_eq!(ex.distinct_states, 1);
    }

    #[test]
    fn multi_producer_delivers_everything() {
        let (tx, rx) = channel();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..1000 {
                        tx.send(t * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got: Vec<i32> = rx.collect();
        for h in handles {
            h.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got.len(), 4000);
        assert_eq!(got[0], 0);
        assert_eq!(got[3999], 3999);
    }

    /// Formerly asserted "producer still blocked after 20ms" with real
    /// threads (flaky both ways). The model states the actual contract: the
    /// over-capacity send cannot complete before a recv frees a slot, so
    /// FIFO order is preserved in *every* schedule.
    #[test]
    fn checker_bounded_send_applies_backpressure() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let t = {
                let tx = tx.clone();
                syscheck::shim::spawn(move || {
                    tx.send(2).unwrap(); // must block until the recv below
                })
            };
            assert_eq!(rx.recv().unwrap(), 1, "backpressure preserves FIFO");
            assert_eq!(rx.recv().unwrap(), 2);
            t.join().unwrap();
            0
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
        assert!(ex.complete);
    }

    #[test]
    fn recv_errors_after_all_senders_drop() {
        let (tx, rx) = channel::<u8>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_after_all_receivers_drop() {
        let (tx, rx) = channel::<u8>();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn try_recv_distinguishes_empty_and_disconnected() {
        let (tx, rx) = channel::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn multi_consumer_partitions_messages() {
        let (tx, rx) = channel();
        let rx2 = rx.clone();
        for i in 0..1000 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let h1 = thread::spawn(move || rx.count());
        let h2 = thread::spawn(move || rx2.count());
        assert_eq!(h1.join().unwrap() + h2.join().unwrap(), 1000);
    }

    #[test]
    fn drain_empties_the_queue() {
        let (tx, rx) = channel();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.drain(), vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_is_rejected() {
        let _ = bounded::<u8>(0);
    }

    #[test]
    fn try_send_fills_then_reports_full() {
        let (tx, rx) = bounded(2);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Ok(()));
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(tx.try_send(3), Ok(()), "space freed by the recv");
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn try_send_never_blocks_and_reports_disconnect() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        // Full channel: returns immediately with the message.
        let t0 = std::time::Instant::now();
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert!(t0.elapsed() < Duration::from_millis(100));
        drop(rx);
        assert_eq!(
            tx.try_send(2),
            Err(TrySendError::Disconnected(2)),
            "disconnect wins over full"
        );
        assert_eq!(TrySendError::Full(7).into_inner(), 7);
    }

    #[test]
    fn try_send_on_unbounded_always_succeeds() {
        let (tx, rx) = channel();
        for i in 0..1000 {
            assert_eq!(tx.try_send(i), Ok(()));
        }
        assert_eq!(rx.drain().len(), 1000);
    }

    #[test]
    fn recv_timeout_returns_value_or_times_out() {
        let (tx, rx) = channel::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
    }

    /// Formerly "sleep 20ms, hope the receiver parked first". Under the
    /// checker a timed wait only times out when the model would otherwise
    /// deadlock, so with a live sender the receiver must get the message in
    /// every schedule — parked-before-send and arrived-after-send alike.
    #[test]
    fn checker_recv_timeout_sees_late_arrivals() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let (tx, rx) = channel::<u8>();
            let h = syscheck::shim::spawn(move || rx.recv_timeout(Duration::from_secs(3600)));
            tx.send(9).unwrap();
            assert_eq!(h.join().unwrap(), Ok(9));
            0
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
        assert!(ex.complete);
    }

    #[test]
    fn recv_timeout_reports_disconnect() {
        let (tx, rx) = channel::<u8>();
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_timeout_times_out_on_full_bounded_channel() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        assert_eq!(
            tx.send_timeout(2, Duration::from_millis(10)),
            Err(SendTimeoutError::Timeout(2))
        );
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(tx.send_timeout(3, Duration::from_millis(10)), Ok(()));
        assert_eq!(rx.recv().unwrap(), 3);
    }

    /// Formerly sleep-based; now exhaustive: with a consumer draining, a
    /// timed send on a full channel completes (never times out) in every
    /// schedule.
    #[test]
    fn checker_send_timeout_unblocks_when_space_frees() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let t = {
                let tx = tx.clone();
                syscheck::shim::spawn(move || tx.send_timeout(2, Duration::from_secs(3600)))
            };
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(t.join().unwrap(), Ok(()));
            assert_eq!(rx.recv().unwrap(), 2);
            0
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
        assert!(ex.complete);
    }

    /// Regression (now exhaustive): `Instant::now() + Duration::MAX` used to
    /// panic; an unrepresentable deadline must behave as wait-forever.
    #[test]
    fn checker_recv_timeout_with_huge_timeout_waits_instead_of_panicking() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let (tx, rx) = channel::<u8>();
            let h = syscheck::shim::spawn(move || rx.recv_timeout(Duration::MAX));
            tx.send(9).unwrap();
            assert_eq!(h.join().unwrap(), Ok(9));
            0
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
        assert!(ex.complete);
    }

    #[test]
    fn checker_recv_timeout_with_huge_timeout_still_sees_disconnect() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let (tx, rx) = channel::<u8>();
            let h = syscheck::shim::spawn(move || rx.recv_timeout(Duration::MAX));
            drop(tx);
            assert_eq!(h.join().unwrap(), Err(RecvTimeoutError::Disconnected));
            0
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
        assert!(ex.complete);
    }

    #[test]
    fn checker_send_timeout_with_huge_timeout_waits_instead_of_panicking() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let t = {
                let tx = tx.clone();
                syscheck::shim::spawn(move || tx.send_timeout(2, Duration::MAX))
            };
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(t.join().unwrap(), Ok(()));
            assert_eq!(rx.recv().unwrap(), 2);
            0
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
        assert!(ex.complete);
    }

    #[test]
    fn send_timeout_reports_disconnect() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(
            tx.send_timeout(7, Duration::from_millis(10)),
            Err(SendTimeoutError::Disconnected(7))
        );
    }

    /// `try_send` racing a consumer: never blocks, and every accepted
    /// message is delivered exactly once in every schedule.
    #[test]
    fn checker_try_send_conserves_messages() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let (tx, rx) = bounded(1);
            let h = {
                let tx = tx.clone();
                syscheck::shim::spawn(move || {
                    let mut accepted = 0u64;
                    for i in 0..2 {
                        if tx.try_send(i).is_ok() {
                            accepted += 1;
                        }
                    }
                    accepted
                })
            };
            drop(tx);
            let accepted = h.join().unwrap();
            let mut got = 0u64;
            while rx.recv().is_ok() {
                got += 1;
            }
            assert_eq!(got, accepted, "accepted messages must all arrive");
            // Digest: how many of the two try_sends got through.
            accepted
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
        assert!(ex.complete);
    }

    /// Wake-only-if-parked, receiver side: a receiver parked on an empty
    /// channel is woken by `send` and by `try_send`. The sender stays alive
    /// until the receiver is joined, so the wakeup cannot come from the
    /// disconnect's `notify_all` instead — a send that skipped its notify
    /// would deadlock the schedule in which the receiver parks first.
    #[test]
    fn checker_parked_receiver_is_woken_by_send_and_try_send() {
        for via_try_send in [false, true] {
            let ex = syscheck::explore(&syscheck::Config::default(), move || {
                let (tx, rx) = bounded::<u8>(1);
                let h = syscheck::shim::spawn(move || rx.recv().unwrap());
                if via_try_send {
                    tx.try_send(7).unwrap();
                } else {
                    tx.send(7).unwrap();
                }
                let got = h.join().unwrap();
                drop(tx);
                u64::from(got)
            });
            assert!(
                ex.failure.is_none(),
                "try_send={via_try_send}: {:?}",
                ex.failure
            );
            assert!(ex.complete);
            assert_eq!(ex.distinct_states, 1);
        }
    }

    /// Wake-only-if-parked, sender side: a sender parked on a full bounded
    /// channel is woken by `recv` and by `try_recv`. The receiver outlives
    /// the sender's join, so only the receive can release it.
    #[test]
    fn checker_parked_sender_is_woken_by_recv_and_try_recv() {
        for via_try_recv in [false, true] {
            let ex = syscheck::explore(&syscheck::Config::default(), move || {
                let (tx, rx) = bounded::<u8>(1);
                tx.send(1).unwrap();
                let t = {
                    let tx = tx.clone();
                    syscheck::shim::spawn(move || tx.send(2).unwrap())
                };
                // The queue holds 1 whether or not the sender has parked,
                // so the first receive never fails in either form.
                let first = if via_try_recv {
                    rx.try_recv().unwrap()
                } else {
                    rx.recv().unwrap()
                };
                assert_eq!(first, 1);
                t.join().unwrap();
                assert_eq!(rx.try_recv(), Ok(2), "the woken send landed");
                drop(rx);
                0
            });
            assert!(
                ex.failure.is_none(),
                "try_recv={via_try_recv}: {:?}",
                ex.failure
            );
            assert!(ex.complete);
        }
    }

    /// The disconnect path keeps its unconditional `notify_all`: when the
    /// last of two senders drops — on either thread, in either order — a
    /// parked receiver wakes and sees the disconnect.
    #[test]
    fn checker_last_sender_drop_wakes_parked_receiver() {
        let ex = syscheck::explore(&syscheck::Config::default(), || {
            let (tx, rx) = channel::<u8>();
            let rx_thread = syscheck::shim::spawn(move || rx.recv());
            let tx2 = tx.clone();
            let dropper = syscheck::shim::spawn(move || drop(tx2));
            drop(tx);
            dropper.join().unwrap();
            assert_eq!(rx_thread.join().unwrap(), Err(RecvError));
            0
        });
        assert!(ex.failure.is_none(), "{:?}", ex.failure);
        assert!(ex.complete);
    }

    /// The checker rediscovers the lost wakeup seeded in [`BrokenSignal`]:
    /// notify lands between the waiter's flag check and its park, and the
    /// execution deadlocks. Both search modes must find it, and the shrunken
    /// reproduction needs at most two forced preemptions.
    #[test]
    fn checker_broken_signal_loses_wakeup() {
        let model = || {
            let sig = Arc::new(BrokenSignal::new());
            let waiter = {
                let sig = Arc::clone(&sig);
                syscheck::shim::spawn(move || sig.wait())
            };
            sig.notify();
            waiter.join().unwrap();
            0
        };
        let cfg = syscheck::Config::default();
        let ex = syscheck::explore(&cfg, model);
        let failure = ex.failure.expect("DFS must find the lost wakeup");
        assert_eq!(failure.kind, syscheck::FailureKind::Deadlock);
        assert!(
            ex.schedules <= 10_000,
            "must be found within the E13 budget, took {}",
            ex.schedules
        );

        let shrunk = syscheck::shrink::shrink_failure(&cfg, &failure, model);
        assert!(
            shrunk.report.failure.is_some(),
            "shrunken schedule still fails"
        );
        assert!(
            (1..=2).contains(&shrunk.deviations.len()),
            "lost wakeup needs 1-2 preemptions, got {:?}",
            shrunk.deviations
        );

        let exr = syscheck::explore_random(&cfg, 0xBAD_5EED, model);
        let rf = exr.failure.expect("random schedules must find it too");
        let seed = rf.seed.expect("random failure carries a seed");
        let replay = syscheck::replay_seed(&cfg, seed, model);
        assert_eq!(
            replay
                .failure
                .expect("seed replays the deadlock")
                .trace
                .digest(),
            rf.trace.digest()
        );
    }

    /// The one intentionally wall-clock stress run for this module (the
    /// checker models above cover correctness): real threads, real
    /// contention, real timeouts.
    #[test]
    #[ignore = "wall-clock stress; run with --ignored"]
    fn stress_channel_with_real_threads() {
        let (tx, rx) = bounded(4);
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..5_000 {
                        tx.send(t * 5_000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut n = 0usize;
                    while rx.recv().is_ok() {
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 20_000);
    }
}
