//! Outcome classification.
//!
//! The paper buckets test outcomes into the categories visible in §III
//! and Figure 3. The classifier reproduces them from the observation
//! channels a real test bench has — the serial log, the hypervisor's
//! reported cell state, and the CPU park state — plus the structured
//! event trace for explainability:
//!
//! * **Correct** — the system kept operating (cells alive, output
//!   flowing);
//! * **InvalidArguments** — a management operation was cleanly
//!   rejected and nothing was allocated (E1's fail-stop);
//! * **InconsistentState** — the hypervisor reports the non-root cell
//!   *running* but the cell never executed: blank USART, CPU parked or
//!   guest non-executable (E2);
//! * **PanicPark** — the fault propagated beyond the injected cell and
//!   the whole system died in a kernel (or hypervisor) panic;
//! * **CpuPark** — an unhandled trap (`0x24`) parked the affected CPU;
//!   the fault stayed isolated in the injected cell (E3's third bar).
//!
//! The memory-fault subsystem adds two classes the register campaigns
//! cannot produce:
//!
//! * **TranslationFaultStorm** — injected stage-2 descriptor
//!   corruption made the victim's own memory fault under it, and the
//!   hypervisor logged the resulting access-violation storm;
//! * **SilentDataCorruption** — memory faults were applied but every
//!   observation channel stayed green: the corruption is latent in
//!   RAM (or the published comm state), undetected.

use crate::injector::InjectionRecord;
use crate::json::Json;
use crate::memfault::MemLocus;
use crate::meminjector::MemInjectionRecord;
use crate::system::System;
use certify_arch::cpu::ParkReason;
use certify_arch::CpuId;
use certify_guest_linux::MgmtOp;
use certify_hypervisor::{CellState, Guest, GuestHealth};
use std::fmt;

/// The outcome classes of the paper, plus the memory-fault extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Outcome {
    /// Whole-system failure: the fault propagated (root kernel panic
    /// or hypervisor panic).
    PanicPark,
    /// The cell is reported running but never executed — blank USART
    /// (E2's dangerous state).
    InconsistentState,
    /// Injected stage-2 table corruption made the victim cell's own
    /// accesses fault: the hypervisor saw an access-violation storm.
    TranslationFaultStorm,
    /// The affected CPU was parked on an unhandled trap; the fault was
    /// isolated.
    CpuPark,
    /// A management operation was rejected with "invalid arguments";
    /// nothing was allocated.
    InvalidArguments,
    /// Memory faults were applied but nothing detected them: the
    /// corruption sits silently in RAM or the published cell state.
    SilentDataCorruption,
    /// Expected behaviour throughout.
    Correct,
}

impl Outcome {
    /// All outcomes, in classification precedence order.
    pub const ALL: [Outcome; 7] = [
        Outcome::PanicPark,
        Outcome::InconsistentState,
        Outcome::TranslationFaultStorm,
        Outcome::CpuPark,
        Outcome::InvalidArguments,
        Outcome::SilentDataCorruption,
        Outcome::Correct,
    ];
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Outcome::Correct => "correct",
            Outcome::InvalidArguments => "invalid arguments",
            Outcome::InconsistentState => "inconsistent state",
            Outcome::TranslationFaultStorm => "translation fault storm",
            Outcome::PanicPark => "panic park",
            Outcome::CpuPark => "cpu park",
            Outcome::SilentDataCorruption => "silent data corruption",
        };
        f.write_str(name)
    }
}

/// A classified run with its supporting evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The classified outcome.
    pub outcome: Outcome,
    /// Register injections performed during the run.
    pub injections: Vec<InjectionRecord>,
    /// Memory-injection attempts (applied and skipped) during the run.
    pub mem_injections: Vec<MemInjectionRecord>,
    /// Human-readable evidence notes.
    pub notes: Vec<String>,
    /// Final state of the non-root cell, if it exists.
    pub cell_state: Option<CellState>,
    /// Final park reason of CPU 1, if parked.
    pub cpu1_park: Option<String>,
    /// Number of serial-log lines.
    pub serial_line_count: usize,
    /// First hardware-watchdog expiry, if the watchdog was armed and
    /// starved (extension E5a: panic detection instant).
    pub watchdog_first_expiry: Option<u64>,
    /// Alarms raised by the root-side heartbeat safety monitor
    /// (extension E5b: inconsistent-state detection).
    pub monitor_alarms: usize,
}

impl RunReport {
    /// The report as a JSON value (via [`crate::json`]) — the ROADMAP
    /// export surface. Mirrors the CSV columns: faults render through
    /// their `Display` impls, evidence fields keep their names, and
    /// absent observations are `null`.
    pub fn to_json(&self) -> Json {
        let faults = |records: &[String]| Json::Arr(records.iter().map(Json::str).collect());
        let injections: Vec<String> = self
            .injections
            .iter()
            .flat_map(|r| r.faults.iter().map(|f| f.to_string()))
            .collect();
        let mem_injections: Vec<String> = self
            .mem_injections
            .iter()
            .flat_map(|r| r.faults.iter().map(|f| f.to_string()))
            .collect();
        Json::obj([
            ("outcome", Json::str(self.outcome.to_string())),
            ("injections", faults(&injections)),
            ("mem_injections", faults(&mem_injections)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            (
                "cell_state",
                self.cell_state
                    .map(|s| Json::str(s.to_string()))
                    .unwrap_or(Json::Null),
            ),
            (
                "cpu1_park",
                self.cpu1_park
                    .as_deref()
                    .map(Json::str)
                    .unwrap_or(Json::Null),
            ),
            (
                "serial_line_count",
                Json::U64(self.serial_line_count as u64),
            ),
            (
                "watchdog_first_expiry",
                self.watchdog_first_expiry
                    .map(Json::U64)
                    .unwrap_or(Json::Null),
            ),
            ("monitor_alarms", Json::U64(self.monitor_alarms as u64)),
        ])
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "outcome: {}", self.outcome)?;
        for note in &self.notes {
            writeln!(f, "  - {note}")?;
        }
        Ok(())
    }
}

/// Classifies a finished run.
///
/// Runs once per campaign trial, so it reads O(1) evidence: the
/// hypervisor's online counters ([`certify_hypervisor::Evidence`])
/// replace the four event-trace scans the classifier used to make,
/// and the serial log is consulted through the UART's incremental
/// line index (borrowed bytes, no per-line allocation).
pub fn classify(system: &System) -> RunReport {
    let mut notes = Vec::new();
    let uart = &system.machine.uart;
    let serial_line_count = uart.line_count();
    let evidence = system.hv.evidence();

    let injections = system.injections().to_vec();
    let mem_injections = system.mem_injections().to_vec();

    let cell_state = system
        .rtos_cell()
        .and_then(|id| system.hv.cell(id))
        .map(|c| c.state());
    let cpu1_park = system
        .machine
        .cpu(CpuId(1))
        .park_reason()
        .map(|r| r.to_string());
    let watchdog_first_expiry = system.machine.wdt.first_expiry();
    let monitor_alarms = system.linux.monitor_alarms().len();

    // Memory-fault evidence shared by several attributions below —
    // single passes over the records, no intermediate collections
    // (this runs once per trial on the campaign hot path).
    //
    // Step of the first applied *live* stage-2 descriptor fault: only
    // access violations at or after it can be attributed to injected
    // table corruption.
    let first_table_fault_step = mem_injections
        .iter()
        .filter(|r| r.applied())
        .filter(|r| {
            r.faults
                .iter()
                .any(|f| f.locus == MemLocus::Stage2Descriptor && f.live)
        })
        .map(|r| r.step)
        .min();
    let mut live_mem_corruption = false;
    let mut latent_mem_corruption = false;
    let mut skipped_count = 0usize;
    let mut first_skip_reason: Option<&str> = None;
    for record in &mem_injections {
        if let Some(reason) = record.skipped.as_deref() {
            skipped_count += 1;
            first_skip_reason.get_or_insert(reason);
            continue;
        }
        for fault in &record.faults {
            live_mem_corruption |= fault.live;
            latent_mem_corruption |= !fault.live && fault.before != fault.after;
        }
    }
    if skipped_count > 0 {
        notes.push(format!(
            "{} memory injection(s) skipped (first: {})",
            skipped_count,
            first_skip_reason.unwrap_or_default()
        ));
    }

    // Published comm-region state vs the hypervisor's belief — the
    // channel a `jailhouse cell list` style tool would read.
    let comm_state = system
        .rtos_cell()
        .and_then(|id| system.hv.cell(id))
        .and_then(|cell| cell.comm_region())
        .map(|region| region.read_state(&system.machine));
    let comm_mismatch = match (comm_state, cell_state) {
        (Some(published), Some(actual)) => published != Some(actual),
        _ => false,
    };

    let outcome;

    // --- Panic park: whole-system failure ---------------------------
    let hyp_panic = system.hv.panicked().is_some();
    let linux_panic = system.linux.health() == GuestHealth::Panicked
        || uart
            .indexed_lines()
            .any(|l| l.contains("Kernel panic - not syncing"));
    let root_parked_on_trap = matches!(
        system.machine.cpu(CpuId(0)).park_reason(),
        Some(ParkReason::UnhandledTrap(_))
    );

    // --- Inconsistent state: reported running, never executed -------
    let cpu1_tally = evidence.park_tally(CpuId(1));
    let failed_online = cpu1_tally.failed_online > 0;
    let broken_guest = system.rtos_broken_observed();
    let boot_rejected = system.boot_failures() > 0;

    // --- CPU park / translation storm evidence ----------------------
    let cpu1_unhandled = cpu1_tally.unhandled_trap > 0;
    // Violations at or after the first live table fault — violations
    // that predate it (or occur with no table fault at all) cannot
    // have been caused by injected descriptor corruption.
    let storm_violations = match first_table_fault_step {
        Some(first) => evidence.violations_since(first),
        None => 0,
    };

    if hyp_panic || linux_panic || root_parked_on_trap {
        outcome = Outcome::PanicPark;
        if hyp_panic {
            notes.push(format!(
                "hypervisor panic: {}",
                system.hv.panicked().unwrap_or_default()
            ));
        }
        if linux_panic {
            notes.push("root cell kernel panic on serial log".into());
        }
        if root_parked_on_trap {
            notes.push("root CPU parked on unhandled trap".into());
        }
    } else if failed_online || broken_guest || boot_rejected {
        outcome = Outcome::InconsistentState;
        if failed_online {
            notes.push("CPU 1 failed to come online (hot-plug swap)".into());
        }
        if broken_guest {
            notes.push("guest entered at corrupted address: non-executable".into());
        }
        if boot_rejected {
            notes.push(format!(
                "{} cell-boot hypercall(s) rejected; CPU left parked",
                system.boot_failures()
            ));
        }
        if let Some(start) = system.cell_start_step() {
            // Binary-searched tail of the incremental line index — no
            // capture reassembly.
            let output = uart
                .lines_since(start)
                .filter(|line| line.starts_with("[rtos]"))
                .count();
            notes.push(format!("rtos serial lines since start: {output}"));
        }
        if cell_state == Some(CellState::Running) {
            notes.push("hypervisor still reports the cell running".into());
        }
    } else if storm_violations > 0 {
        // Injected stage-2 corruption made the victim's own accesses
        // fault — attribute the violations to the table fault rather
        // than to a generic CPU park.
        outcome = Outcome::TranslationFaultStorm;
        notes.push(format!(
            "{storm_violations} access violation(s) after injected stage-2 descriptor corruption"
        ));
        if cpu1_unhandled {
            notes.push("cpu1 parked on the resulting translation fault".into());
        }
    } else if cpu1_unhandled {
        outcome = Outcome::CpuPark;
        if let Some(reason) = cpu1_tally.first_unhandled_trap {
            notes.push(format!("cpu1 parked: {reason}"));
        }
        notes.push("fault isolated to the non-root cell".into());
    } else if system
        .linux
        .records()
        .iter()
        .any(|r| matches!(r.op, MgmtOp::Enable | MgmtOp::CreateCell) && r.result < 0)
        && !system.hv.is_enabled()
    {
        outcome = Outcome::InvalidArguments;
        notes.push("management operation rejected; hypervisor/cell not allocated".into());
    } else if live_mem_corruption
        || latent_mem_corruption
        || (comm_mismatch && !mem_injections.is_empty())
    {
        // Every ordinary channel is green, yet injected corruption is
        // sitting in memory (or in the published cell state) with
        // nothing having detected it.
        outcome = Outcome::SilentDataCorruption;
        let applied = mem_injections.iter().filter(|r| r.applied()).count();
        notes.push(format!(
            "{applied} memory injection(s) applied with no detection"
        ));
        if comm_mismatch {
            notes.push(format!(
                "published comm-region state {:?} disagrees with hypervisor state {:?}",
                comm_state.flatten(),
                cell_state
            ));
        }
    } else {
        outcome = Outcome::Correct;
        notes.push("system operated within expectations".into());
    }

    RunReport {
        outcome,
        injections,
        mem_injections,
        notes,
        cell_state,
        cpu1_park,
        serial_line_count,
        watchdog_first_expiry,
        monitor_alarms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certify_guest_linux::MgmtScript;

    #[test]
    fn golden_run_classifies_correct() {
        let mut system = System::new(MgmtScript::bring_up_and_run(1500));
        system.run(2500);
        let report = classify(&system);
        assert_eq!(report.outcome, Outcome::Correct, "report: {report}");
        assert!(report.injections.is_empty());
        assert!(report.serial_line_count > 0);
    }

    #[test]
    fn outcome_display_matches_paper_vocabulary() {
        assert_eq!(Outcome::PanicPark.to_string(), "panic park");
        assert_eq!(Outcome::CpuPark.to_string(), "cpu park");
        assert_eq!(Outcome::InvalidArguments.to_string(), "invalid arguments");
        assert_eq!(
            Outcome::SilentDataCorruption.to_string(),
            "silent data corruption"
        );
        assert_eq!(
            Outcome::TranslationFaultStorm.to_string(),
            "translation fault storm"
        );
    }

    #[test]
    fn precedence_order_is_stable() {
        assert_eq!(Outcome::ALL[0], Outcome::PanicPark);
        assert_eq!(Outcome::ALL[6], Outcome::Correct);
    }

    #[test]
    fn latent_memory_corruption_classifies_silent() {
        use crate::memfault::{MemFaultModel, MemRegionKind, MemTarget};
        use crate::spec::{MemorySpec, Paced};
        use certify_arch::CpuId;
        use certify_hypervisor::HandlerKind;
        // Bit flips into pristine root DRAM: nothing ever reads them,
        // so every channel stays green — silent data corruption.
        let mut system = System::new(MgmtScript::bring_up_and_run(1500));
        let spec = MemorySpec::new(
            MemFaultModel::SingleBitFlip,
            MemTarget::only(MemRegionKind::Custom {
                base: certify_board::memmap::ROOT_RAM_BASE + 0x2000_0000,
                size: 0x0100_0000,
            }),
            [HandlerKind::IrqchipHandleIrq],
            Some(CpuId(0)),
        )
        .with_rate(10);
        system.install_mem_injector(spec, 3);
        system.run(2500);
        let report = classify(&system);
        assert!(
            !report.mem_injections.is_empty(),
            "no memory injections fired"
        );
        assert_eq!(report.outcome, Outcome::SilentDataCorruption, "{report}");
    }

    #[test]
    fn skipped_injections_are_noted_never_fatal() {
        use crate::memfault::{MemFaultModel, MemRegionKind, MemTarget};
        use crate::spec::{MemorySpec, Paced};
        use certify_arch::CpuId;
        use certify_hypervisor::HandlerKind;
        let mut system = System::new(MgmtScript::bring_up_and_run(1500));
        let spec = MemorySpec::new(
            MemFaultModel::SingleBitFlip,
            MemTarget::only(MemRegionKind::Custom {
                base: 0x1000_0000, // unmapped hole: every sample skips
                size: 0x1000,
            }),
            [HandlerKind::IrqchipHandleIrq],
            Some(CpuId(0)),
        )
        .with_rate(10);
        system.install_mem_injector(spec, 4);
        system.run(2500);
        let report = classify(&system);
        assert_eq!(report.outcome, Outcome::Correct, "{report}");
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("memory injection(s) skipped")),
            "no skipped-injection note in {report}"
        );
    }
}
