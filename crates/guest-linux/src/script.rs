//! Management scripts: the sequence of driver operations a test run
//! performs.
//!
//! The paper's experiments differ only in *what the root cell does*
//! and *where faults are injected*. Scripts capture the former: E1 is
//! "poll, then try to enable the hypervisor"; E2/E3 are "enable,
//! hand over CPU 1, create/load/start the FreeRTOS cell, let it run"
//! (optionally cycling shutdown/destroy/recreate).

use std::fmt;

/// One management operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MgmtOp {
    /// Do nothing for the given number of steps.
    Delay(u64),
    /// Issue a `HYPERVISOR_GET_INFO` hypercall (cheap traffic that
    /// also advances the injection cadence).
    PollInfo,
    /// Write the serialized system configuration into root RAM.
    StageSystemConfig,
    /// Issue `HYPERVISOR_ENABLE` on the staged configuration.
    Enable,
    /// Ask the kernel to offline the given CPU (the hot-unplug leg of
    /// the CPU handover; the idle thread on that CPU issues the
    /// `CPU_OFF` hypercall).
    RequestCpuOffline(u32),
    /// Poll `CPU_GET_INFO` until the CPU reports parked.
    WaitCpuParked(u32),
    /// Write the serialized non-root cell configuration into root RAM.
    StageCellConfig,
    /// Issue `CELL_CREATE` on the staged cell configuration.
    CreateCell,
    /// Issue `CELL_SET_LOADABLE` on the created cell.
    LoadCell,
    /// Issue `CELL_START` on the created cell.
    StartCell,
    /// Let the system run for the given number of steps.
    RunFor(u64),
    /// Issue `CELL_GET_STATE` on the created cell, recording the
    /// result.
    QueryCellState,
    /// Issue `CELL_SHUTDOWN` on the created cell.
    ShutdownCell,
    /// Issue `CELL_DESTROY` on the created cell.
    DestroyCell,
    /// Enable the hardware watchdog; the kernel's heartbeat path feeds
    /// it from then on, so a kernel panic is converted into a detected
    /// (and, on real hardware, reset-triggering) event — extension
    /// experiment E5a.
    ArmWatchdog,
    /// Run a safety monitor for the given number of steps: watch the
    /// non-root cell's shared-memory heartbeat and raise an alarm if
    /// it stalls for more than the window — extension experiment E5b.
    MonitorFor {
        /// Steps to monitor.
        steps: u64,
        /// Stall window (steps without a heartbeat) that raises the
        /// alarm.
        window: u64,
    },
    /// Jump back to the operation at the given index (lifecycle
    /// cycling).
    Restart(usize),
    /// Stop executing the script (the driver goes quiet; the system
    /// keeps running).
    Halt,
}

impl fmt::Display for MgmtOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgmtOp::Delay(n) => write!(f, "delay({n})"),
            MgmtOp::PollInfo => write!(f, "poll_info"),
            MgmtOp::StageSystemConfig => write!(f, "stage_system_config"),
            MgmtOp::Enable => write!(f, "enable"),
            MgmtOp::RequestCpuOffline(c) => write!(f, "request_cpu{c}_offline"),
            MgmtOp::WaitCpuParked(c) => write!(f, "wait_cpu{c}_parked"),
            MgmtOp::StageCellConfig => write!(f, "stage_cell_config"),
            MgmtOp::CreateCell => write!(f, "cell_create"),
            MgmtOp::LoadCell => write!(f, "cell_set_loadable"),
            MgmtOp::StartCell => write!(f, "cell_start"),
            MgmtOp::RunFor(n) => write!(f, "run_for({n})"),
            MgmtOp::QueryCellState => write!(f, "cell_get_state"),
            MgmtOp::ShutdownCell => write!(f, "cell_shutdown"),
            MgmtOp::DestroyCell => write!(f, "cell_destroy"),
            MgmtOp::ArmWatchdog => write!(f, "arm_watchdog"),
            MgmtOp::MonitorFor { steps, window } => {
                write!(f, "monitor_for({steps}, window={window})")
            }
            MgmtOp::Restart(i) => write!(f, "restart(@{i})"),
            MgmtOp::Halt => write!(f, "halt"),
        }
    }
}

/// A recorded operation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgmtRecord {
    /// Simulator step at which the operation completed.
    pub step: u64,
    /// The operation.
    pub op: MgmtOp,
    /// The hypercall result (0 for local operations like staging).
    pub result: i64,
}

/// A named, ordered operation list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgmtScript {
    /// Script name for logs.
    pub name: String,
    /// The operations.
    pub ops: Vec<MgmtOp>,
}

impl MgmtScript {
    /// E1's script: boot, issue `polls` info hypercalls (advancing the
    /// injection cadence), stage the system configuration and attempt
    /// one `enable`, then keep polling so post-condition liveness can
    /// be observed.
    pub fn enable_attempt(polls: usize) -> MgmtScript {
        let mut ops = vec![MgmtOp::Delay(8), MgmtOp::StageSystemConfig];
        ops.extend(std::iter::repeat_n(MgmtOp::PollInfo, polls));
        ops.push(MgmtOp::Enable);
        ops.push(MgmtOp::RunFor(64));
        ops.push(MgmtOp::PollInfo);
        ops.push(MgmtOp::Halt);
        MgmtScript {
            name: "enable-attempt".into(),
            ops,
        }
    }

    /// The golden / E3 script: enable, hand over CPU 1, bring up the
    /// FreeRTOS cell, then let the mixed-criticality system run.
    pub fn bring_up_and_run(run_steps: u64) -> MgmtScript {
        MgmtScript {
            name: "bring-up-and-run".into(),
            ops: vec![
                MgmtOp::Delay(8),
                MgmtOp::StageSystemConfig,
                MgmtOp::Enable,
                MgmtOp::RequestCpuOffline(1),
                MgmtOp::WaitCpuParked(1),
                MgmtOp::StageCellConfig,
                MgmtOp::CreateCell,
                MgmtOp::LoadCell,
                MgmtOp::StartCell,
                MgmtOp::RunFor(run_steps),
                MgmtOp::QueryCellState,
                MgmtOp::Halt,
            ],
        }
    }

    /// E2's script: like [`MgmtScript::bring_up_and_run`] but cycling
    /// the cell lifecycle — run, query, shutdown, destroy, recreate —
    /// so injections repeatedly cross the cell-boot window.
    pub fn lifecycle_cycling(run_steps: u64) -> MgmtScript {
        MgmtScript {
            name: "lifecycle-cycling".into(),
            ops: vec![
                MgmtOp::Delay(8),
                MgmtOp::StageSystemConfig,
                MgmtOp::Enable,
                MgmtOp::RequestCpuOffline(1),
                MgmtOp::WaitCpuParked(1),
                MgmtOp::StageCellConfig,
                // index 6: loop head
                MgmtOp::CreateCell,
                MgmtOp::LoadCell,
                MgmtOp::StartCell,
                MgmtOp::RunFor(run_steps),
                MgmtOp::QueryCellState,
                MgmtOp::ShutdownCell,
                MgmtOp::QueryCellState,
                MgmtOp::DestroyCell,
                MgmtOp::Restart(6),
            ],
        }
    }

    /// E5a: like [`MgmtScript::bring_up_and_run`] but with the
    /// hardware watchdog armed, so a root-cell panic is detected.
    pub fn bring_up_with_watchdog(run_steps: u64) -> MgmtScript {
        let mut script = MgmtScript::bring_up_and_run(run_steps);
        script.name = "bring-up-with-watchdog".into();
        script.ops.insert(1, MgmtOp::ArmWatchdog);
        script
    }

    /// E5b: bring the cell up and run the heartbeat safety monitor, so
    /// a silently-dead cell (the E2 inconsistent state) is detected.
    pub fn bring_up_with_monitor(monitor_steps: u64, window: u64) -> MgmtScript {
        MgmtScript {
            name: "bring-up-with-monitor".into(),
            ops: vec![
                MgmtOp::Delay(8),
                MgmtOp::StageSystemConfig,
                MgmtOp::Enable,
                MgmtOp::RequestCpuOffline(1),
                MgmtOp::WaitCpuParked(1),
                MgmtOp::StageCellConfig,
                MgmtOp::CreateCell,
                MgmtOp::LoadCell,
                MgmtOp::StartCell,
                MgmtOp::MonitorFor {
                    steps: monitor_steps,
                    window,
                },
                MgmtOp::QueryCellState,
                MgmtOp::Halt,
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_attempt_places_enable_after_the_polls() {
        let script = MgmtScript::enable_attempt(49);
        let polls = script
            .ops
            .iter()
            .filter(|op| matches!(op, MgmtOp::PollInfo))
            .count();
        assert_eq!(polls, 50); // 49 pre-enable + 1 liveness poll
        let enable_pos = script
            .ops
            .iter()
            .position(|op| matches!(op, MgmtOp::Enable))
            .unwrap();
        // Exactly 49 polls precede the enable.
        let pre = script.ops[..enable_pos]
            .iter()
            .filter(|op| matches!(op, MgmtOp::PollInfo))
            .count();
        assert_eq!(pre, 49);
    }

    #[test]
    fn lifecycle_restart_points_at_create() {
        let script = MgmtScript::lifecycle_cycling(100);
        let Some(&MgmtOp::Restart(head)) = script.ops.last() else {
            panic!("the lifecycle loop must end in a restart");
        };
        assert_eq!(head, 6);
        assert_eq!(script.ops[head], MgmtOp::CreateCell);
    }

    #[test]
    fn ops_display_is_stable() {
        assert_eq!(MgmtOp::Enable.to_string(), "enable");
        assert_eq!(
            MgmtOp::RequestCpuOffline(1).to_string(),
            "request_cpu1_offline"
        );
        assert_eq!(MgmtOp::Restart(6).to_string(), "restart(@6)");
    }
}
