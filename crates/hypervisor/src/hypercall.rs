//! Hypercall codes.
//!
//! Codes 0–8 follow Jailhouse's numbering. Codes ≥ 100 are extensions
//! the model needs because operations that are *not* hypercalls in
//! real Jailhouse (loading the firmware via the kernel driver, PSCI
//! CPU power control) still flow through `arch_handle_hvc()` in the
//! simulator so that the fault campaigns can target them — see
//! DESIGN.md §2 for the substitution note.

/// Disable the hypervisor and return the machine to the root guest.
pub const HVC_HYPERVISOR_DISABLE: u32 = 0;
/// Create a cell from a configuration blob staged in root RAM.
pub const HVC_CELL_CREATE: u32 = 1;
/// Start a created (and loaded) cell.
pub const HVC_CELL_START: u32 = 2;
/// Mark a cell loadable and (abstractly) load its image.
pub const HVC_CELL_SET_LOADABLE: u32 = 3;
/// Destroy a cell, returning all resources to the root cell.
pub const HVC_CELL_DESTROY: u32 = 4;
/// Query hypervisor information (returns the number of cells).
pub const HVC_HYPERVISOR_GET_INFO: u32 = 5;
/// Query a cell's lifecycle state.
pub const HVC_CELL_GET_STATE: u32 = 6;
/// Query a CPU's park state.
pub const HVC_CPU_GET_INFO: u32 = 7;
/// Emit one character on the hypervisor debug console (the shared
/// UART) — the non-root cell's only way to print.
pub const HVC_DEBUG_CONSOLE_PUTC: u32 = 8;

/// Install the hypervisor from a system-configuration blob
/// (models `jailhouse enable`; extension code).
pub const HVC_HYPERVISOR_ENABLE: u32 = 100;
/// Offline the calling CPU (models the PSCI `CPU_OFF` leg of the CPU
/// hot-plug handover; extension code).
pub const HVC_CPU_OFF: u32 = 101;
/// Boot the calling (woken) CPU into its cell at the given entry point
/// (models the PSCI `CPU_ON` leg; extension code).
pub const HVC_CPU_BOOT: u32 = 102;
/// Shut a cell down, returning CPU and peripherals to the root cell
/// while keeping the cell allocated (models `jailhouse cell shutdown`;
/// extension code).
pub const HVC_CELL_SHUTDOWN: u32 = 103;

/// Human-readable hypercall name for logs.
pub fn name(code: u32) -> &'static str {
    match code {
        HVC_HYPERVISOR_DISABLE => "hypervisor_disable",
        HVC_CELL_CREATE => "cell_create",
        HVC_CELL_START => "cell_start",
        HVC_CELL_SET_LOADABLE => "cell_set_loadable",
        HVC_CELL_DESTROY => "cell_destroy",
        HVC_HYPERVISOR_GET_INFO => "hypervisor_get_info",
        HVC_CELL_GET_STATE => "cell_get_state",
        HVC_CPU_GET_INFO => "cpu_get_info",
        HVC_DEBUG_CONSOLE_PUTC => "debug_console_putc",
        HVC_HYPERVISOR_ENABLE => "hypervisor_enable",
        HVC_CPU_OFF => "cpu_off",
        HVC_CPU_BOOT => "cpu_boot",
        HVC_CELL_SHUTDOWN => "cell_shutdown",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_codes_have_names() {
        for code in (0..=8).chain(100..=103) {
            assert_ne!(name(code), "unknown");
        }
    }

    #[test]
    fn unknown_codes_are_rejected() {
        for code in [9, 42, 99, 104, u32::MAX] {
            assert_eq!(name(code), "unknown");
        }
    }
}
