//! Hardware watchdog timer.
//!
//! The paper's outlook asks for mechanisms that turn silent failures
//! into detected ones. A watchdog is the automotive-domain staple for
//! exactly that: software must periodically *feed* it; if the feeding
//! stops — e.g. because the root kernel panicked (*panic park*) — the
//! countdown expires and the device records (and would, on real
//! hardware, reset the SoC). The extension experiment E5a measures
//! the detection latency this buys over the paper's outcomes.
//!
//! Register model (Allwinner-style):
//!
//! * `CTRL` — writing the restart key reloads the countdown;
//! * `MODE` — bit 0 enables the countdown.

use crate::memmap::{WDT_CTRL_OFFSET, WDT_MODE_OFFSET, WDT_RESTART_KEY};

/// Default countdown, in simulator steps.
pub const DEFAULT_TIMEOUT: u64 = 256;

/// The watchdog device.
#[derive(Debug, Clone)]
pub struct Watchdog {
    timeout: u64,
    remaining: u64,
    enabled: bool,
    feeds: u64,
    /// Steps at which the watchdog expired (it keeps running after an
    /// expiry so repeated starvation is visible).
    expiries: Vec<u64>,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog::new(DEFAULT_TIMEOUT)
    }
}

impl Watchdog {
    /// Creates a disabled watchdog with the given timeout in steps.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero.
    pub fn new(timeout: u64) -> Watchdog {
        assert!(timeout > 0, "watchdog timeout must be non-zero");
        Watchdog {
            timeout,
            remaining: timeout,
            enabled: false,
            feeds: 0,
            expiries: Vec::new(),
        }
    }

    /// Handles a 32-bit register write.
    pub fn write_reg(&mut self, offset: u32, value: u32) {
        match offset {
            WDT_CTRL_OFFSET if value == WDT_RESTART_KEY => {
                self.remaining = self.timeout;
                self.feeds += 1;
            }
            WDT_MODE_OFFSET => {
                let was_enabled = self.enabled;
                self.enabled = value & 1 != 0;
                if self.enabled && !was_enabled {
                    self.remaining = self.timeout;
                }
            }
            _ => {}
        }
    }

    /// Handles a 32-bit register read.
    pub fn read_reg(&self, offset: u32) -> u32 {
        match offset {
            WDT_MODE_OFFSET => u32::from(self.enabled),
            _ => 0,
        }
    }

    /// Advances the countdown by one step at simulator time `now`.
    /// Returns `true` if the watchdog expired on this step.
    pub fn step(&mut self, now: u64) -> bool {
        if !self.enabled {
            return false;
        }
        self.remaining = self.remaining.saturating_sub(1);
        if self.remaining == 0 {
            self.remaining = self.timeout;
            self.expiries.push(now);
            true
        } else {
            false
        }
    }

    /// How many steps from now [`Watchdog::step`] would return `false`
    /// on, in a row: `remaining - 1` while enabled, unbounded while
    /// disabled.
    pub fn quiet_steps(&self) -> u64 {
        if self.enabled {
            self.remaining - 1
        } else {
            u64::MAX
        }
    }

    /// Advances the countdown by `k` steps at once, exactly as `k`
    /// calls of [`Watchdog::step`] would.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `k` exceeds
    /// [`Watchdog::quiet_steps`]: the watchdog would have expired.
    pub fn skip(&mut self, k: u64) {
        debug_assert!(
            k <= self.quiet_steps(),
            "skip({k}) crosses a watchdog expiry"
        );
        if self.enabled {
            self.remaining -= k;
        }
    }

    /// Whether the countdown is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Successful feeds so far.
    pub fn feed_count(&self) -> u64 {
        self.feeds
    }

    /// Steps at which the watchdog expired.
    pub fn expiries(&self) -> &[u64] {
        &self.expiries
    }

    /// The first expiry, if any — the detection instant for a silent
    /// system failure.
    pub fn first_expiry(&self) -> Option<u64> {
        self.expiries.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "timeout must be non-zero")]
    fn zero_timeout_rejected() {
        let _ = Watchdog::new(0);
    }

    #[test]
    fn disabled_watchdog_never_expires() {
        let mut wdt = Watchdog::new(4);
        for now in 0..100 {
            assert!(!wdt.step(now));
        }
        assert!(wdt.expiries().is_empty());
    }

    #[test]
    fn expires_after_timeout_without_feeding() {
        let mut wdt = Watchdog::new(4);
        wdt.write_reg(WDT_MODE_OFFSET, 1);
        let mut expired_at = None;
        for now in 1..=10 {
            if wdt.step(now) {
                expired_at = Some(now);
                break;
            }
        }
        assert_eq!(expired_at, Some(4));
        assert_eq!(wdt.first_expiry(), Some(4));
    }

    #[test]
    fn feeding_defers_expiry() {
        let mut wdt = Watchdog::new(4);
        wdt.write_reg(WDT_MODE_OFFSET, 1);
        for now in 0..20 {
            if now % 3 == 0 {
                wdt.write_reg(WDT_CTRL_OFFSET, WDT_RESTART_KEY);
            }
            assert!(!wdt.step(now), "expired at {now} despite feeding");
        }
        assert!(wdt.feed_count() >= 6);
    }

    #[test]
    fn wrong_key_does_not_feed() {
        let mut wdt = Watchdog::new(3);
        wdt.write_reg(WDT_MODE_OFFSET, 1);
        wdt.step(1);
        wdt.write_reg(WDT_CTRL_OFFSET, 0x123);
        assert_eq!(wdt.feed_count(), 0);
        assert!(!wdt.step(2));
        assert!(wdt.step(3));
    }

    #[test]
    fn keeps_recording_repeated_expiries() {
        let mut wdt = Watchdog::new(2);
        wdt.write_reg(WDT_MODE_OFFSET, 1);
        for now in 1..=8 {
            wdt.step(now);
        }
        assert_eq!(wdt.expiries(), &[2, 4, 6, 8]);
    }

    #[test]
    fn skipping_the_quiet_steps_matches_stepping_them() {
        let mut stepped = Watchdog::new(4);
        assert_eq!(
            stepped.quiet_steps(),
            u64::MAX,
            "a disabled watchdog never expires"
        );
        stepped.write_reg(WDT_MODE_OFFSET, 1);
        stepped.step(1);
        let mut skipped = stepped.clone();
        assert_eq!(skipped.quiet_steps(), 2);
        assert!(!stepped.step(2));
        assert!(!stepped.step(3));
        skipped.skip(2);
        assert_eq!(format!("{skipped:?}"), format!("{stepped:?}"));
        assert_eq!(skipped.quiet_steps(), 0);
        assert!(skipped.step(4), "the step after the span expires");
    }

    #[test]
    fn mode_read_back() {
        let mut wdt = Watchdog::new(2);
        assert_eq!(wdt.read_reg(WDT_MODE_OFFSET), 0);
        wdt.write_reg(WDT_MODE_OFFSET, 1);
        assert_eq!(wdt.read_reg(WDT_MODE_OFFSET), 1);
    }

    #[test]
    fn enable_reloads_countdown() {
        let mut wdt = Watchdog::new(4);
        wdt.write_reg(WDT_MODE_OFFSET, 1);
        wdt.step(1);
        wdt.step(2);
        wdt.write_reg(WDT_MODE_OFFSET, 0);
        wdt.write_reg(WDT_MODE_OFFSET, 1);
        assert!(!wdt.step(3));
        assert!(!wdt.step(4));
        assert!(!wdt.step(5));
        assert!(wdt.step(6));
    }
}
