//! Poison-free synchronization primitives over `std::sync`.
//!
//! The library's internal invariants never depend on observing a
//! panicked critical section (slot state machines are single-assignment
//! and the match engine re-checks under the lock), so lock poisoning is
//! recovered rather than propagated — giving the ergonomics of
//! `parking_lot` with zero dependencies.

use std::ops::{Deref, DerefMut};
use std::sync;
use std::time::Duration;

/// A mutex whose `lock` recovers from poisoning instead of panicking.
#[derive(Debug, Default)]
pub(crate) struct Mutex<T> {
    inner: sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`].
///
/// The inner `Option` is `Some` for the guard's whole life; it exists
/// only so [`Condvar::wait`] can move the std guard out and back in
/// through a `&mut` borrow.
#[derive(Debug)]
pub(crate) struct MutexGuard<'a, T> {
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub(crate) fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Acquire the lock, recovering the data if a holder panicked.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(
                self.inner
                    .lock()
                    .unwrap_or_else(sync::PoisonError::into_inner),
            ),
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            // Unreachable by construction: `inner` is only ever `None`
            // transiently inside `Condvar::wait`, which holds the sole
            // `&mut` borrow for that whole window.
            #[expect(
                clippy::unreachable,
                reason = "invariant: inner is Some outside wait()"
            )]
            None => unreachable!("guard vacated outside Condvar::wait"),
        }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            #[expect(
                clippy::unreachable,
                reason = "invariant: inner is Some outside wait()"
            )]
            None => unreachable!("guard vacated outside Condvar::wait"),
        }
    }
}

/// A condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub(crate) struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// A fresh condition variable.
    pub(crate) fn new() -> Condvar {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Atomically release the guard's lock and block until notified.
    pub(crate) fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if let Some(g) = guard.inner.take() {
            guard.inner = Some(
                self.inner
                    .wait(g)
                    .unwrap_or_else(sync::PoisonError::into_inner),
            );
        }
    }

    /// Atomically release the guard's lock and block until notified or
    /// `dur` elapses. Returns `true` if the wait timed out (the caller
    /// must still re-check its predicate either way — wakes can race
    /// with the timeout).
    pub(crate) fn wait_timeout<T>(&self, guard: &mut MutexGuard<'_, T>, dur: Duration) -> bool {
        let mut timed_out = false;
        if let Some(g) = guard.inner.take() {
            let (g, res) = self
                .inner
                .wait_timeout(g, dur)
                .unwrap_or_else(sync::PoisonError::into_inner);
            timed_out = res.timed_out();
            guard.inner = Some(g);
        }
        timed_out
    }

    /// Wake every waiter.
    pub(crate) fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 5;
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn wait_timeout_reports_expiry_and_keeps_the_lock() {
        let m = Mutex::new(7);
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_timeout(&mut g, Duration::from_millis(20)));
        assert_eq!(*g, 7, "guard must still be usable after a timeout");
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        waiter.join().expect("waiter exits");
    }
}
