//! The injectable monotonic clock boundary.
//!
//! Library crates on the deterministic-resume path must never read
//! ambient time themselves (the root `clippy.toml` lists
//! `Instant`/`SystemTime` under `disallowed-types`): they accept a
//! `&dyn Clock` / `Arc<dyn Clock>` from the caller instead.  This module
//! is the single reasoned place in the workspace where
//! `std::time::Instant` is read — behind [`MonotonicClock`], under
//! `#[expect(clippy::disallowed_types)]` — so a grep for clock sources has
//! exactly one hit, and swapping the time source (tests, simulation,
//! `NullClock` production-off mode) is a constructor argument, not a code
//! change.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic nanosecond source.
///
/// `now_nanos` values are only meaningful as differences; the epoch is
/// arbitrary (for [`MonotonicClock`] it is the moment of construction).
pub trait Clock: std::fmt::Debug + Send + Sync {
    /// Nanoseconds since the clock's arbitrary epoch.  Monotone
    /// non-decreasing for every real implementation; a [`NullClock`]
    /// returns 0 forever.
    fn now_nanos(&self) -> u64;

    /// Whether this clock produces real readings.  Instrumented hot paths
    /// consult this once per batch and skip timing work entirely when it
    /// is `false`, so a [`NullClock`] costs nothing beyond the check.
    fn enabled(&self) -> bool {
        true
    }

    /// Blocks (in this clock's notion of time) until `now_nanos()` has
    /// reached `deadline_nanos`.  This is the waiting primitive behind
    /// retry backoff: library code never sleeps on ambient time, it asks
    /// its injected clock to wait.
    ///
    /// Semantics per implementation:
    ///
    /// * a disabled clock (`!enabled()`) returns immediately — its time
    ///   never advances, so waiting on it would never end and backoff
    ///   under a [`NullClock`] degenerates to immediate retries;
    /// * [`ManualClock`] jumps itself forward to the deadline, so tests
    ///   observe exactly the waits the retry policy requested;
    /// * [`MonotonicClock`] sleeps the calling thread for the remainder.
    ///
    /// The provided default covers the first case and otherwise yields
    /// the thread between polls; real clocks override it.
    fn sleep_until(&self, deadline_nanos: u64) {
        if !self.enabled() {
            return;
        }
        while self.now_nanos() < deadline_nanos {
            std::thread::yield_now();
        }
    }
}

/// The production clock: monotonic nanoseconds measured from the moment
/// of construction via `std::time::Instant` — the workspace's one ambient
/// clock read.
///
/// ```
/// use mdrr_obs::{Clock, MonotonicClock};
/// let clock = MonotonicClock::new();
/// let a = clock.now_nanos();
/// let b = clock.now_nanos();
/// assert!(b >= a);
/// assert!(clock.enabled());
/// ```
#[derive(Debug)]
#[expect(
    clippy::disallowed_types,
    reason = "the workspace's one ambient clock read"
)]
pub struct MonotonicClock {
    origin: std::time::Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is now.
    #[expect(
        clippy::disallowed_types,
        reason = "the workspace's one ambient clock read"
    )]
    pub fn new() -> Self {
        MonotonicClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        // Saturates after ~584 years of process uptime; fine.
        self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    fn sleep_until(&self, deadline_nanos: u64) {
        let now = self.now_nanos();
        if let Some(remaining) = deadline_nanos.checked_sub(now) {
            if remaining > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(remaining));
            }
        }
    }
}

/// The observability-off clock: always reads 0 and reports itself
/// disabled, so instrumented library code skips every timing section and
/// stays byte-identical to uninstrumented output.
///
/// ```
/// use mdrr_obs::{Clock, NullClock};
/// let clock = NullClock;
/// assert_eq!(clock.now_nanos(), 0);
/// assert!(!clock.enabled());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullClock;

impl Clock for NullClock {
    fn now_nanos(&self) -> u64 {
        0
    }

    fn enabled(&self) -> bool {
        false
    }
}

/// A hand-advanced clock for deterministic tests: time moves only when
/// the test says so.
///
/// ```
/// use mdrr_obs::{Clock, ManualClock};
/// let clock = ManualClock::new();
/// assert_eq!(clock.now_nanos(), 0);
/// clock.advance(250);
/// assert_eq!(clock.now_nanos(), 250);
/// clock.set(1_000);
/// assert_eq!(clock.now_nanos(), 1_000);
/// ```
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at 0.
    pub fn new() -> Self {
        ManualClock {
            nanos: AtomicU64::new(0),
        }
    }

    /// Moves the clock forward by `delta` nanoseconds.
    pub fn advance(&self, delta: u64) {
        self.nanos.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the absolute reading.  Setting the clock backwards is allowed
    /// here (it is a test tool), unlike every production clock.
    pub fn set(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    fn sleep_until(&self, deadline_nanos: u64) {
        // Jump straight to the deadline (never backwards): the test clock
        // "waits" by making the wait observable in its reading.
        self.nanos.fetch_max(deadline_nanos, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let clock = MonotonicClock::default();
        let mut last = 0;
        for _ in 0..100 {
            let now = clock.now_nanos();
            assert!(now >= last);
            last = now;
        }
    }

    #[test]
    fn sleep_until_advances_manual_and_skips_null() {
        let clock = ManualClock::new();
        clock.set(100);
        clock.sleep_until(1_000);
        assert_eq!(clock.now_nanos(), 1_000);
        // Never backwards.
        clock.sleep_until(500);
        assert_eq!(clock.now_nanos(), 1_000);
        // A disabled clock returns immediately instead of spinning on a
        // reading that never advances.
        NullClock.sleep_until(u64::MAX);
        assert_eq!(NullClock.now_nanos(), 0);
    }

    #[test]
    fn monotonic_sleep_until_reaches_deadline() {
        let clock = MonotonicClock::new();
        let deadline = clock.now_nanos() + 2_000_000; // 2ms
        clock.sleep_until(deadline);
        assert!(clock.now_nanos() >= deadline);
        // A deadline in the past returns without sleeping.
        clock.sleep_until(0);
    }

    #[test]
    fn clocks_are_object_safe_and_shareable() {
        let clocks: Vec<Arc<dyn Clock>> = vec![
            Arc::new(MonotonicClock::new()),
            Arc::new(NullClock),
            Arc::new(ManualClock::new()),
        ];
        assert!(clocks[0].enabled());
        assert!(!clocks[1].enabled());
        assert_eq!(clocks[2].now_nanos(), 0);
    }
}
