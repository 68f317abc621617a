//! Bounded single-producer/single-consumer ring channel.
//!
//! The sharded engine's dispatch topology is strictly SPSC: one
//! dispatcher thread owns the send side of every shard queue, and each
//! shard worker is the sole consumer of its own queue. The general MPMC
//! channel previously used there pays for multi-producer coordination
//! (CAS loops over shared indices) that this topology never needs. This
//! ring keeps one index per side — the producer alone advances `tail`,
//! the consumer alone advances `head` — so the steady-state transfer is
//! a slot write, one atomic store, and one atomic load per side.
//!
//! The crate forbids `unsafe`, so slots are `Mutex<Option<T>>` rather
//! than `UnsafeCell` + manual synchronization. The mutexes are
//! uncontended by construction (the producer only locks a slot it knows
//! is empty, the consumer one it knows is full, and the head/tail
//! protocol keeps them on different slots), so each lock is a single
//! uncontended atomic — and misuse can only deadlock or panic, never
//! corrupt memory.
//!
//! Parking mirrors the classic two-flag scheme: each side publishes a
//! `waiting` flag before re-checking the condition and sleeping on the
//! shared condvar, and the opposite side wakes it only when the flag is
//! set — the uncontended fast path never touches the condvar mutex. A
//! `SeqCst` fence on each side, between its store and its load, keeps
//! the two from missing each other.
//!
//! The API is the bounded-channel subset the shard layer uses
//! ([`bounded`], [`Sender::try_send`], [`Sender::send`],
//! [`Receiver::recv`], disconnect-on-drop), so batching, linger and
//! backpressure semantics do not depend on the channel.

use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Error from [`Sender::try_send`]: the value comes back to the caller.
pub enum TrySendError<T> {
    /// The ring is full; retry after the consumer drains.
    Full(T),
    /// The receiver is gone; no send can ever succeed again.
    Disconnected(T),
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "Full(..)"),
            TrySendError::Disconnected(_) => write!(f, "Disconnected(..)"),
        }
    }
}

/// Error from [`Sender::send`]: the receiver disconnected.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SendError(..)")
    }
}

/// Error from [`Receiver::recv`]: the channel is empty and the sender
/// disconnected, so no value will ever arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

struct Ring<T> {
    /// `capacity` slots; slot `i % capacity` holds sequence-`i` values.
    slots: Box<[Mutex<Option<T>>]>,
    /// Next sequence number the consumer will take. Only the consumer
    /// stores it.
    head: AtomicU64,
    /// Next sequence number the producer will fill. Only the producer
    /// stores it.
    tail: AtomicU64,
    /// Set by the sender's drop.
    tx_dropped: AtomicBool,
    /// Set by the receiver's drop.
    rx_dropped: AtomicBool,
    /// True while the consumer is (about to be) parked on `cond`.
    rx_waiting: AtomicBool,
    /// True while the producer is (about to be) parked on `cond`.
    tx_waiting: AtomicBool,
    /// Parking lot for both sides; guards nothing but the sleep itself.
    /// `std` rather than the workspace `parking_lot` stub because the
    /// stub carries no condvar; poisoning is ignored (the guard holds no
    /// data).
    park: StdMutex<()>,
    cond: Condvar,
}

/// Acquires a `std` mutex, treating poison as still-locked (the guard
/// protects no data, only the sleep).
fn park_lock(park: &StdMutex<()>) -> std::sync::MutexGuard<'_, ()> {
    park.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T> Ring<T> {
    /// Wakes any parked peer. Called after publishing a state change
    /// (slot filled, slot drained, side dropped).
    fn wake(&self, flag: &AtomicBool) {
        // Pairs with the fence a waiter issues between raising its flag
        // and re-checking the ring: either that re-check sees the change
        // published before this call, or this swap sees the flag. Without
        // both fences the two store-then-load sequences may each miss the
        // other's store, and the waiter sleeps on a ring that has work.
        fence(Ordering::SeqCst);
        if flag.swap(false, Ordering::AcqRel) {
            // The peer either holds `park` (about to sleep) or is
            // already asleep; taking the lock before notifying closes
            // the window where a wake could slip between its re-check
            // and its sleep.
            drop(park_lock(&self.park));
            self.cond.notify_all();
        }
    }
}

/// Producer half of an SPSC ring. Not cloneable: the topology is
/// single-producer by type.
pub struct Sender<T> {
    ring: Arc<Ring<T>>,
}

/// Consumer half of an SPSC ring.
pub struct Receiver<T> {
    ring: Arc<Ring<T>>,
}

/// Creates a bounded SPSC ring holding at most `capacity` in-flight
/// values (clamped to at least 1).
///
/// # Examples
///
/// ```
/// let (tx, rx) = scidive_core::spsc::bounded::<u32>(2);
/// tx.try_send(7).unwrap();
/// assert_eq!(rx.recv(), Ok(7));
/// drop(tx);
/// assert!(rx.recv().is_err());
/// ```
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let capacity = capacity.max(1);
    let ring = Arc::new(Ring {
        slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        head: AtomicU64::new(0),
        tail: AtomicU64::new(0),
        tx_dropped: AtomicBool::new(false),
        rx_dropped: AtomicBool::new(false),
        rx_waiting: AtomicBool::new(false),
        tx_waiting: AtomicBool::new(false),
        park: StdMutex::new(()),
        cond: Condvar::new(),
    });
    (Sender { ring: ring.clone() }, Receiver { ring })
}

impl<T> Sender<T> {
    /// Attempts to enqueue without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when `capacity` values are in flight,
    /// [`TrySendError::Disconnected`] when the receiver is gone; the
    /// value is returned either way.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let ring = &*self.ring;
        if ring.rx_dropped.load(Ordering::Acquire) {
            return Err(TrySendError::Disconnected(value));
        }
        let tail = ring.tail.load(Ordering::Relaxed);
        let head = ring.head.load(Ordering::Acquire);
        if tail - head >= ring.slots.len() as u64 {
            return Err(TrySendError::Full(value));
        }
        *ring.slots[(tail % ring.slots.len() as u64) as usize].lock() = Some(value);
        ring.tail.store(tail + 1, Ordering::Release);
        ring.wake(&ring.rx_waiting);
        Ok(())
    }

    /// Enqueues, blocking while the ring is full (the shard layer's
    /// backpressure path).
    ///
    /// # Errors
    ///
    /// [`SendError`] when the receiver disconnected; the value is
    /// returned.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut value = value;
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(v)) => return Err(SendError(v)),
                Err(TrySendError::Full(v)) => {
                    value = v;
                    let ring = &*self.ring;
                    let guard = park_lock(&ring.park);
                    ring.tx_waiting.store(true, Ordering::Release);
                    fence(Ordering::SeqCst);
                    // Re-check under the park lock: a drain (or receiver
                    // drop) that raced the flag store will have taken the
                    // lock in `wake` and be ordered after this check.
                    let tail = ring.tail.load(Ordering::Relaxed);
                    let head = ring.head.load(Ordering::Acquire);
                    let full = tail - head >= ring.slots.len() as u64;
                    if full && !ring.rx_dropped.load(Ordering::Acquire) {
                        drop(ring.cond.wait(guard).unwrap_or_else(|e| e.into_inner()));
                    }
                    ring.tx_waiting.store(false, Ordering::Release);
                }
            }
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.ring.tx_dropped.store(true, Ordering::Release);
        self.ring.wake(&self.ring.rx_waiting);
    }
}

impl<T> Receiver<T> {
    /// Dequeues the oldest value, blocking while the ring is empty.
    ///
    /// # Errors
    ///
    /// [`RecvError`] once the ring is empty *and* the sender is gone —
    /// values in flight at sender drop are still delivered first.
    pub fn recv(&self) -> Result<T, RecvError> {
        let ring = &*self.ring;
        loop {
            let head = ring.head.load(Ordering::Relaxed);
            let tail = ring.tail.load(Ordering::Acquire);
            if head < tail {
                let value = ring.slots[(head % ring.slots.len() as u64) as usize]
                    .lock()
                    .take()
                    .expect("slot below tail must be filled");
                ring.head.store(head + 1, Ordering::Release);
                ring.wake(&ring.tx_waiting);
                return Ok(value);
            }
            if ring.tx_dropped.load(Ordering::Acquire) {
                // Re-check emptiness: the sender may have filled a slot
                // between the loads above and its drop.
                if ring.head.load(Ordering::Relaxed) == ring.tail.load(Ordering::Acquire) {
                    return Err(RecvError);
                }
                continue;
            }
            let guard = park_lock(&ring.park);
            ring.rx_waiting.store(true, Ordering::Release);
            fence(Ordering::SeqCst);
            let empty = ring.head.load(Ordering::Relaxed) == ring.tail.load(Ordering::Acquire);
            if empty && !ring.tx_dropped.load(Ordering::Acquire) {
                drop(ring.cond.wait(guard).unwrap_or_else(|e| e.into_inner()));
            }
            ring.rx_waiting.store(false, Ordering::Release);
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.ring.rx_dropped.store(true, Ordering::Release);
        self.ring.wake(&self.ring.tx_waiting);
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("spsc::Sender").finish_non_exhaustive()
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("spsc::Receiver").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_capacity() {
        let (tx, rx) = bounded::<u32>(4);
        for v in 0..4 {
            tx.try_send(v).unwrap();
        }
        assert!(matches!(tx.try_send(99), Err(TrySendError::Full(99))));
        for v in 0..4 {
            assert_eq!(rx.recv(), Ok(v));
        }
    }

    #[test]
    fn capacity_clamped_to_one() {
        let (tx, rx) = bounded::<u8>(0);
        tx.try_send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        assert_eq!(rx.recv(), Ok(1));
    }

    #[test]
    fn drain_after_sender_drop_then_disconnect() {
        let (tx, rx) = bounded::<u32>(8);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_reports_receiver_gone() {
        let (tx, rx) = bounded::<u32>(2);
        drop(rx);
        assert!(matches!(tx.try_send(5), Err(TrySendError::Disconnected(5))));
        assert!(matches!(tx.send(6), Err(SendError(6))));
    }

    #[test]
    fn blocking_send_resumes_after_drain() {
        let (tx, rx) = bounded::<u64>(2);
        tx.try_send(0).unwrap();
        tx.try_send(1).unwrap();
        let producer = std::thread::spawn(move || {
            // Full: must block until the consumer drains, then finish.
            for v in 2..100u64 {
                tx.send(v).unwrap();
            }
        });
        let mut got = Vec::new();
        while got.len() < 100 {
            got.push(rx.recv().unwrap());
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn cross_thread_stress_preserves_order() {
        for trial in 0..8 {
            let (tx, rx) = bounded::<u64>(1 + trial % 4);
            let n = 5_000u64;
            let producer = std::thread::spawn(move || {
                for v in 0..n {
                    tx.send(v).unwrap();
                }
            });
            let consumer = std::thread::spawn(move || {
                let mut next = 0u64;
                while let Ok(v) = rx.recv() {
                    assert_eq!(v, next);
                    next += 1;
                }
                next
            });
            producer.join().unwrap();
            assert_eq!(consumer.join().unwrap(), n);
        }
    }

    #[test]
    fn receiver_drop_unblocks_full_sender() {
        let (tx, rx) = bounded::<u64>(1);
        tx.try_send(0).unwrap();
        let producer = std::thread::spawn(move || tx.send(1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert!(producer.join().unwrap().is_err());
    }
}
