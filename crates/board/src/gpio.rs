//! GPIO block with per-pin toggle counters.
//!
//! The FreeRTOS workload of the paper includes "a task to blink an
//! onboard led". LED activity is therefore a liveness signal for the
//! non-root cell: a cell whose LED stops toggling but which the
//! hypervisor still reports *running* is in the inconsistent state of
//! experiment E2. The model counts toggles per pin so the analysis
//! crate can measure blink progress without sampling.

use crate::memmap::GPIO_DATA_OFFSET;

/// Number of modelled pins (one data register's worth).
pub const NUM_PINS: u8 = 32;

/// The GPIO device.
#[derive(Debug, Clone)]
pub struct Gpio {
    levels: u32,
    toggles: [u64; NUM_PINS as usize],
}

impl Default for Gpio {
    fn default() -> Self {
        Gpio {
            levels: 0,
            toggles: [0; NUM_PINS as usize],
        }
    }
}

impl Gpio {
    /// Creates a GPIO block with all pins low.
    pub fn new() -> Gpio {
        Gpio::default()
    }

    /// Handles a 32-bit register write at `offset` within the GPIO
    /// block: writing the data register sets all pin levels at once.
    pub fn write_reg(&mut self, offset: u32, value: u32) {
        if offset == GPIO_DATA_OFFSET {
            let changed = self.levels ^ value;
            for pin in 0..NUM_PINS {
                if changed & (1 << pin) != 0 {
                    self.toggles[pin as usize] += 1;
                }
            }
            self.levels = value;
        }
    }

    /// Handles a 32-bit register read.
    pub fn read_reg(&self, offset: u32) -> u32 {
        if offset == GPIO_DATA_OFFSET {
            self.levels
        } else {
            0
        }
    }

    /// Current level of `pin`.
    pub fn level(&self, pin: u8) -> bool {
        pin < NUM_PINS && self.levels & (1 << pin) != 0
    }

    /// How many times `pin` has changed level.
    pub fn toggle_count(&self, pin: u8) -> u64 {
        if pin < NUM_PINS {
            self.toggles[pin as usize]
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memmap::LED_PIN;

    #[test]
    fn pins_start_low() {
        let gpio = Gpio::new();
        for pin in 0..NUM_PINS {
            assert!(!gpio.level(pin));
            assert_eq!(gpio.toggle_count(pin), 0);
        }
    }

    #[test]
    fn data_writes_toggle_and_count() {
        let mut gpio = Gpio::new();
        for value in [1 << LED_PIN, 0, 1 << LED_PIN] {
            gpio.write_reg(GPIO_DATA_OFFSET, value);
        }
        assert!(gpio.level(LED_PIN));
        assert_eq!(gpio.toggle_count(LED_PIN), 3);
    }

    #[test]
    fn rewriting_same_level_does_not_count() {
        let mut gpio = Gpio::new();
        gpio.write_reg(GPIO_DATA_OFFSET, 1 << 3);
        gpio.write_reg(GPIO_DATA_OFFSET, 1 << 3);
        assert_eq!(gpio.toggle_count(3), 1);
    }

    #[test]
    fn data_register_write_affects_multiple_pins() {
        let mut gpio = Gpio::new();
        gpio.write_reg(GPIO_DATA_OFFSET, 0b101);
        assert!(gpio.level(0));
        assert!(!gpio.level(1));
        assert!(gpio.level(2));
        assert_eq!(gpio.toggle_count(0), 1);
        assert_eq!(gpio.toggle_count(2), 1);
        assert_eq!(gpio.read_reg(GPIO_DATA_OFFSET), 0b101);
    }

    #[test]
    fn out_of_range_pin_is_ignored() {
        let mut gpio = Gpio::new();
        gpio.write_reg(GPIO_DATA_OFFSET, u32::MAX);
        assert!(!gpio.level(40));
        assert_eq!(gpio.toggle_count(40), 0);
    }

    #[test]
    fn non_data_registers_read_zero() {
        let gpio = Gpio::new();
        assert_eq!(gpio.read_reg(0x0), 0);
    }
}
