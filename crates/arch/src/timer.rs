//! Per-CPU generic timer model.
//!
//! Each core owns a down-counting timer that raises a private peripheral
//! interrupt when it expires and (optionally) reloads itself. The root
//! cell's guest uses it as the scheduler tick; the RTOS cell uses its
//! own instance for the FreeRTOS tick. Time is counted in simulator
//! steps, not nanoseconds — the paper's "1 minute test" becomes a fixed
//! step budget (see `certify-core`).

use crate::gic::IrqId;

/// The PPI line conventionally used by the virtual generic timer.
pub const TIMER_IRQ: IrqId = IrqId(27);

/// A down-counting, auto-reloading timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenericTimer {
    period: u64,
    remaining: u64,
    enabled: bool,
}

impl GenericTimer {
    /// Creates a disabled timer with the given reload period (in steps)
    /// wired to [`TIMER_IRQ`].
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64) -> GenericTimer {
        assert!(period > 0, "timer period must be non-zero");
        GenericTimer {
            period,
            remaining: period,
            enabled: false,
        }
    }

    /// Starts the timer from a full period.
    pub fn start(&mut self) {
        self.enabled = true;
        self.remaining = self.period;
    }

    /// Stops the timer; the counter keeps its value.
    pub fn stop(&mut self) {
        self.enabled = false;
    }

    /// Whether the timer is running.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Advances the timer by one step. Returns `Some(TIMER_IRQ)` when
    /// the timer expires on this step (the caller forwards it to the
    /// GIC).
    pub fn step(&mut self) -> Option<IrqId> {
        if !self.enabled {
            return None;
        }
        self.remaining -= 1;
        if self.remaining == 0 {
            self.remaining = self.period;
            Some(TIMER_IRQ)
        } else {
            None
        }
    }

    /// How many steps from now [`GenericTimer::step`] would return
    /// `None` on, in a row: `remaining - 1` while running, unbounded
    /// while stopped.
    pub fn quiet_steps(&self) -> u64 {
        if self.enabled {
            self.remaining - 1
        } else {
            u64::MAX
        }
    }

    /// Advances the timer by `k` steps at once, exactly as `k` calls of
    /// [`GenericTimer::step`] would.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `k` exceeds
    /// [`GenericTimer::quiet_steps`]: the timer would have fired.
    pub fn skip(&mut self, k: u64) {
        debug_assert!(k <= self.quiet_steps(), "skip({k}) crosses a timer expiry");
        if self.enabled {
            self.remaining -= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "period must be non-zero")]
    fn zero_period_rejected() {
        let _ = GenericTimer::new(0);
    }

    #[test]
    fn disabled_timer_never_fires() {
        let mut t = GenericTimer::new(3);
        for _ in 0..10 {
            assert_eq!(t.step(), None);
        }
    }

    #[test]
    fn fires_every_period_steps() {
        let mut t = GenericTimer::new(3);
        t.start();
        let fires: Vec<bool> = (0..9).map(|_| t.step().is_some()).collect();
        assert_eq!(
            fires,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn skipping_the_quiet_steps_matches_stepping_them() {
        let mut stepped = GenericTimer::new(5);
        assert_eq!(
            stepped.quiet_steps(),
            u64::MAX,
            "a stopped timer never fires"
        );
        stepped.start();
        stepped.step();
        let mut skipped = stepped.clone();
        assert_eq!(skipped.quiet_steps(), 3);
        for _ in 0..3 {
            assert_eq!(stepped.step(), None);
        }
        skipped.skip(3);
        assert_eq!(skipped, stepped);
        assert_eq!(skipped.quiet_steps(), 0);
        assert!(skipped.step().is_some(), "the step after the span fires");
    }

    #[test]
    fn start_reloads_full_period() {
        let mut t = GenericTimer::new(4);
        t.start();
        t.step();
        t.step();
        t.start(); // restart mid-count
        assert_eq!(t.step(), None);
        assert_eq!(t.step(), None);
        assert_eq!(t.step(), None);
        assert!(t.step().is_some());
    }
}
