//! Raw locks with explicit acquire/release, matching the sync engine's
//! paired `__lock_acquire` / `__lock_release` operations (paper §4.6).

use crate::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Which lock implementation a [`RawLock`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// Busy-waiting spin lock.
    Spin,
    /// Blocking mutex (sleep/wakeup).
    Mutex,
}

/// A lock with free acquire/release calls (no RAII guard), usable from
/// compiler-generated code where the acquire and release are separate
/// operations.
pub struct RawLock {
    kind: LockKind,
    spin: AtomicBool,
    mutex: Mutex<MutexState>,
    cv: Condvar,
}

/// The blocking lock's state, guarded by the inner mutex.
#[derive(Default)]
struct MutexState {
    held: bool,
    /// Threads blocked on the condvar. Changed only under the mutex, so a
    /// release that reads zero knows no waiter can miss its wakeup: a
    /// would-be waiter registers before it sleeps and rechecks `held`
    /// under the same mutex first.
    sleepers: u32,
}

impl RawLock {
    /// Creates an unlocked lock of the given kind.
    pub fn new(kind: LockKind) -> Self {
        RawLock {
            kind,
            spin: AtomicBool::new(false),
            mutex: Mutex::new(MutexState::default()),
            cv: Condvar::new(),
        }
    }

    /// The lock's kind.
    pub fn kind(&self) -> LockKind {
        self.kind
    }

    /// Acquires the lock, spinning or sleeping per kind.
    pub fn acquire(&self) {
        match self.kind {
            LockKind::Spin => {
                let mut spins = 0u32;
                while self
                    .spin
                    .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_err()
                {
                    spins += 1;
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
            LockKind::Mutex => {
                let mut state = self.mutex.lock();
                while state.held {
                    state.sleepers += 1;
                    self.cv.wait(&mut state);
                    state.sleepers -= 1;
                }
                state.held = true;
            }
        }
    }

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the lock is not held — generated code
    /// always pairs acquires and releases.
    pub fn release(&self) {
        match self.kind {
            LockKind::Spin => {
                debug_assert!(self.spin.load(Ordering::Relaxed), "release of free lock");
                self.spin.store(false, Ordering::Release);
            }
            LockKind::Mutex => {
                let mut state = self.mutex.lock();
                debug_assert!(state.held, "release of free lock");
                state.held = false;
                // Uncontended release makes no futex-wake syscall.
                if state.sleepers > 0 {
                    self.cv.notify_one();
                }
            }
        }
    }

    /// Acquires the lock unless `cancel` becomes true first.
    ///
    /// Returns `false` (without holding the lock) when canceled. This is
    /// the containment path: when a sibling worker fails, the executor
    /// raises the cancel flag and every worker blocked on a lock unwinds
    /// cleanly instead of waiting on a grant that may never come.
    pub fn acquire_canceling(&self, cancel: &AtomicBool) -> bool {
        match self.kind {
            LockKind::Spin => {
                let mut spins = 0u32;
                while self
                    .spin
                    .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_err()
                {
                    if cancel.load(Ordering::Relaxed) {
                        return false;
                    }
                    spins += 1;
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
                true
            }
            LockKind::Mutex => {
                let mut state = self.mutex.lock();
                while state.held {
                    if cancel.load(Ordering::Relaxed) {
                        return false;
                    }
                    // Bounded waits so the cancel flag is observed even if
                    // the holder died without releasing.
                    state.sleepers += 1;
                    self.cv.wait_timeout(&mut state, Duration::from_millis(2));
                    state.sleepers -= 1;
                }
                state.held = true;
                true
            }
        }
    }

    /// Attempts to acquire without waiting.
    pub fn try_acquire(&self) -> bool {
        match self.kind {
            LockKind::Spin => self
                .spin
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok(),
            LockKind::Mutex => {
                let mut state = self.mutex.lock();
                if state.held {
                    false
                } else {
                    state.held = true;
                    true
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn hammer(kind: LockKind) {
        let lock = Arc::new(RawLock::new(kind));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    lock.acquire();
                    // Non-atomic read-modify-write made safe by the lock.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    lock.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn spin_lock_mutual_exclusion() {
        hammer(LockKind::Spin);
    }

    #[test]
    fn mutex_mutual_exclusion() {
        hammer(LockKind::Mutex);
    }

    #[test]
    fn acquire_canceling_unblocks_on_cancel() {
        for kind in [LockKind::Spin, LockKind::Mutex] {
            let lock = Arc::new(RawLock::new(kind));
            let cancel = Arc::new(AtomicBool::new(false));
            lock.acquire(); // hold it so the worker must block
            let t = {
                let lock = Arc::clone(&lock);
                let cancel = Arc::clone(&cancel);
                std::thread::spawn(move || lock.acquire_canceling(&cancel))
            };
            std::thread::sleep(std::time::Duration::from_millis(20));
            cancel.store(true, Ordering::Relaxed);
            assert!(!t.join().unwrap(), "canceled acquire must report failure");
            lock.release();
            // And the fast path still works when the lock is free.
            assert!(
                lock.acquire_canceling(&cancel),
                "free lock acquires even when canceled later"
            );
            lock.release();
        }
    }

    /// A waiter parked in the untimed `acquire()` is woken by `release()`:
    /// release notifies only when a sleeper is registered, so a lost
    /// wakeup here would hang the waiter (`acquire_canceling`'s timed wait
    /// would hide one). The test waits until the waiter is counted as a
    /// sleeper — which it becomes under the mutex, right before the
    /// condvar wait releases it — so the release must take the wake path.
    #[test]
    fn release_wakes_a_blocked_untimed_waiter() {
        use std::sync::mpsc;
        use std::time::Instant;
        let lock = Arc::new(RawLock::new(LockKind::Mutex));
        lock.acquire();
        let (tx, rx) = mpsc::channel();
        let waiter = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                lock.acquire();
                tx.send(()).expect("test thread listens");
                lock.release();
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while lock.mutex.lock().sleepers == 0 {
            assert!(Instant::now() < deadline, "waiter never blocked");
            std::thread::yield_now();
        }
        lock.release();
        rx.recv_timeout(Duration::from_secs(10))
            .expect("release must wake the blocked waiter");
        waiter.join().expect("waiter thread");
        let state = lock.mutex.lock();
        assert!(!state.held && state.sleepers == 0);
    }

    #[test]
    fn try_acquire_reports_state() {
        let l = RawLock::new(LockKind::Spin);
        assert!(l.try_acquire());
        assert!(!l.try_acquire());
        l.release();
        assert!(l.try_acquire());
        l.release();
    }
}
