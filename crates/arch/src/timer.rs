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
    irq: IrqId,
    fired: u64,
}

impl GenericTimer {
    /// Creates a disabled timer with the given reload period (in steps)
    /// wired to [`TIMER_IRQ`].
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64) -> GenericTimer {
        Self::with_irq(period, TIMER_IRQ)
    }

    /// Creates a disabled timer wired to a custom interrupt line.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_irq(period: u64, irq: IrqId) -> GenericTimer {
        assert!(period > 0, "timer period must be non-zero");
        GenericTimer {
            period,
            remaining: period,
            enabled: false,
            irq,
            fired: 0,
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

    /// The reload period in steps.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Changes the reload period; takes effect at the next reload.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn set_period(&mut self, period: u64) {
        assert!(period > 0, "timer period must be non-zero");
        self.period = period;
    }

    /// The interrupt line this timer raises.
    pub fn irq(&self) -> IrqId {
        self.irq
    }

    /// How many times the timer has expired since creation.
    pub fn fired_count(&self) -> u64 {
        self.fired
    }

    /// Advances the timer by one step. Returns `Some(irq)` when the
    /// timer expires on this step (the caller forwards it to the GIC).
    pub fn step(&mut self) -> Option<IrqId> {
        if !self.enabled {
            return None;
        }
        self.remaining -= 1;
        if self.remaining == 0 {
            self.remaining = self.period;
            self.fired += 1;
            Some(self.irq)
        } else {
            None
        }
    }

    /// Advances the timer by `delta` steps *known not to reach an
    /// expiry boundary* — the deadline-driven fast path of the board's
    /// clock. Returns `Some(irq)` when the timer expires exactly at
    /// the end of the delta.
    ///
    /// # Panics
    ///
    /// Panics if `delta` would step past an expiry (the caller must
    /// synchronise at every deadline).
    pub fn advance_by(&mut self, delta: u64) -> Option<IrqId> {
        if !self.enabled || delta == 0 {
            return None;
        }
        assert!(delta <= self.remaining, "advance past a timer expiry");
        self.remaining -= delta;
        if self.remaining == 0 {
            self.remaining = self.period;
            self.fired += 1;
            Some(self.irq)
        } else {
            None
        }
    }

    /// Steps until the next expiry, or `None` when disabled.
    pub fn steps_until_fire(&self) -> Option<u64> {
        self.enabled.then_some(self.remaining)
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
        assert_eq!(t.fired_count(), 0);
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
        assert_eq!(t.fired_count(), 3);
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

    #[test]
    fn set_period_applies_at_reload() {
        let mut t = GenericTimer::new(2);
        t.start();
        t.step();
        t.set_period(5);
        assert!(t.step().is_some()); // old period completes
        let mut count = 0;
        while t.step().is_none() {
            count += 1;
        }
        assert_eq!(count, 4); // new period of 5 steps
    }

    #[test]
    fn custom_irq_line_is_reported() {
        let mut t = GenericTimer::with_irq(1, IrqId(30));
        t.start();
        assert_eq!(t.step(), Some(IrqId(30)));
        assert_eq!(t.irq(), IrqId(30));
    }
}
