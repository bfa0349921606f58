//! The script abstract interpreter — a symbolic walk of a
//! [`MgmtScript`] against an abstract machine model.
//!
//! The concrete driver ([`certify_guest_linux`]'s root guest) executes
//! scripts with *no data-dependent branches*: every op has exactly one
//! successor (`pc + 1`, a `Restart` target, or termination). That makes
//! the abstract walk exact on control flow: we execute each reachable
//! op once over an abstract state (hypervisor enabled?, cell created?,
//! image loaded?, which CPUs were offlined?) and stop the moment an op
//! is revisited — from there on the script provably loops forever.
//!
//! The walk yields two things:
//!
//! * an [`AbstractScript`] — the facts the certificate builder
//!   ([`crate::certificate`]) needs: reachability of `enable`,
//!   `cell_create`, the monitor and the watchdog, plus a lower-bound
//!   estimate of the step at which a non-looping script goes quiet;
//! * script-shape diagnostics (`cert-*` codes) for operations that are
//!   unreachable or reached in a state where the concrete driver's
//!   hypercall is guaranteed to fail or spin.

use crate::diagnostic::{Code, Diagnostic};
use certify_guest_linux::{MgmtOp, MgmtScript};
use std::collections::BTreeSet;

/// The facts a symbolic walk of a script establishes.
///
/// "Reachable" always means *reachable by the walk*, which — because
/// script control flow is deterministic — coincides with "executed by
/// every concrete trial" (up to hypercall failures, which never change
/// the driver's control flow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractScript {
    /// Lower-bound estimate of the step at which the script goes
    /// quiet: explicit durations (`delay`, `run_for`, `monitor_for`)
    /// plus one step per other executed op. Meaningless when
    /// [`AbstractScript::loops`] is set.
    pub steps_consumed: u64,
    /// The walk revisited an op: the script provably never ends.
    pub loops: bool,
    /// `enable` is reachable.
    pub enable_reachable: bool,
    /// `cell_create` is reachable: the derived topology contains the
    /// non-root cell and its memory regions.
    pub cell_reachable: bool,
    /// The heartbeat safety monitor (`monitor_for`) is reachable.
    pub monitor_reachable: bool,
}

/// Symbolically execute `script`, returning the derived facts and any
/// script-shape diagnostics. Spans use the `script.ops[i]` form the
/// spec analyzer also uses.
pub fn interpret_script(script: &MgmtScript) -> (AbstractScript, Vec<Diagnostic>) {
    let mut diagnostics = Vec::new();
    let mut facts = AbstractScript {
        steps_consumed: 0,
        loops: false,
        enable_reachable: false,
        cell_reachable: false,
        monitor_reachable: false,
    };

    // The abstract machine state the ops transform.
    let mut hv_enabled = false;
    let mut cell_exists = false;
    let mut cell_loaded = false;
    let mut offline: BTreeSet<u32> = BTreeSet::new();

    let mut visited = vec![false; script.ops.len()];
    let mut pc = 0usize;
    // Runs until the walk falls off the end (or a restart jumps past
    // it), halts, or revisits an op.
    while let Some(&op) = script.ops.get(pc) {
        if visited[pc] {
            facts.loops = true;
            break;
        }
        visited[pc] = true;
        let span = format!("script.ops[{pc}]");
        let mut next = pc + 1;
        match op {
            MgmtOp::Delay(n) | MgmtOp::RunFor(n) => {
                facts.steps_consumed = facts.steps_consumed.saturating_add(n);
            }
            MgmtOp::MonitorFor { steps, .. } => {
                facts.steps_consumed = facts.steps_consumed.saturating_add(steps);
                facts.monitor_reachable = true;
            }
            MgmtOp::PollInfo | MgmtOp::StageSystemConfig | MgmtOp::StageCellConfig => {
                facts.steps_consumed = facts.steps_consumed.saturating_add(1);
            }
            MgmtOp::Enable => {
                facts.steps_consumed = facts.steps_consumed.saturating_add(1);
                hv_enabled = true;
                facts.enable_reachable = true;
            }
            MgmtOp::RequestCpuOffline(cpu) => {
                facts.steps_consumed = facts.steps_consumed.saturating_add(1);
                offline.insert(cpu);
            }
            MgmtOp::WaitCpuParked(cpu) => {
                facts.steps_consumed = facts.steps_consumed.saturating_add(1);
                if !offline.contains(&cpu) {
                    diagnostics.push(Diagnostic::new(
                        Code::CertWaitWithoutOffline,
                        span,
                        format!(
                            "waits for CPU {cpu} to park but no prior op requested it \
                             offline: the poll can never succeed"
                        ),
                    ));
                }
            }
            MgmtOp::CreateCell => {
                facts.steps_consumed = facts.steps_consumed.saturating_add(1);
                if !hv_enabled {
                    diagnostics.push(Diagnostic::new(
                        Code::CertCellOpWithoutEnable,
                        span,
                        "cell_create is reached before any enable: the hypervisor is \
                         off and must reject it"
                            .to_string(),
                    ));
                } else if cell_exists {
                    diagnostics.push(Diagnostic::new(
                        Code::CertDoubleCreate,
                        span,
                        "cell_create is reached while the cell from an earlier create \
                         still exists"
                            .to_string(),
                    ));
                }
                cell_exists = true;
                cell_loaded = false;
                facts.cell_reachable = true;
            }
            MgmtOp::LoadCell | MgmtOp::StartCell | MgmtOp::ShutdownCell | MgmtOp::DestroyCell => {
                facts.steps_consumed = facts.steps_consumed.saturating_add(1);
                if !cell_exists {
                    diagnostics.push(Diagnostic::new(
                        Code::CertCellOpWithoutCreate,
                        span,
                        format!("{op} is reached while no created cell exists"),
                    ));
                } else if matches!(op, MgmtOp::StartCell) && !cell_loaded {
                    diagnostics.push(Diagnostic::new(
                        Code::CertStartWithoutLoad,
                        span,
                        "cell_start is reached with no cell_set_loadable since the \
                         create: the guest image was never loaded"
                            .to_string(),
                    ));
                }
                match op {
                    MgmtOp::LoadCell => cell_loaded = true,
                    MgmtOp::DestroyCell => {
                        cell_exists = false;
                        cell_loaded = false;
                    }
                    _ => {}
                }
            }
            MgmtOp::QueryCellState | MgmtOp::ArmWatchdog => {
                facts.steps_consumed = facts.steps_consumed.saturating_add(1);
            }
            MgmtOp::Restart(target) => {
                // The concrete driver clamps an out-of-range target to
                // "end of script" (the existing
                // script-restart-out-of-bounds lint warns about that).
                next = target.min(script.ops.len());
            }
            MgmtOp::Halt => break,
        }
        pc = next;
    }

    for (index, reached) in visited.iter().enumerate() {
        if !reached {
            diagnostics.push(Diagnostic::new(
                Code::CertUnreachableOp,
                format!("script.ops[{index}]"),
                format!(
                    "`{}` can never execute: the walk ends before reaching it",
                    script.ops[index]
                ),
            ));
        }
    }

    (facts, diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(diagnostics: &[Diagnostic]) -> Vec<Code> {
        diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn stock_scripts_walk_clean() {
        for script in [
            MgmtScript::enable_attempt(49),
            MgmtScript::bring_up_and_run(1000),
            MgmtScript::lifecycle_cycling(100),
            MgmtScript::bring_up_with_watchdog(1000),
            MgmtScript::bring_up_with_monitor(1000, 32),
        ] {
            let (_, diagnostics) = interpret_script(&script);
            assert!(
                diagnostics.is_empty(),
                "{}: {:?}",
                script.name,
                codes(&diagnostics)
            );
        }
    }

    #[test]
    fn bring_up_facts_are_exact() {
        let (facts, _) = interpret_script(&MgmtScript::bring_up_and_run(1000));
        assert!(!facts.loops);
        assert!(facts.enable_reachable);
        assert!(facts.cell_reachable);
        assert!(!facts.monitor_reachable);
        // delay(8) + 9 single-step ops + run_for(1000); halt consumes
        // nothing.
        assert_eq!(facts.steps_consumed, 8 + 9 + 1000);
    }

    #[test]
    fn lifecycle_cycling_is_detected_as_a_loop() {
        let (facts, diagnostics) = interpret_script(&MgmtScript::lifecycle_cycling(50));
        assert!(facts.loops);
        assert!(facts.cell_reachable);
        assert!(diagnostics.is_empty());
    }

    #[test]
    fn monitor_reachability_is_tracked() {
        let (facts, _) = interpret_script(&MgmtScript::bring_up_with_monitor(500, 16));
        assert!(facts.monitor_reachable);
    }

    #[test]
    fn create_before_enable_is_an_error() {
        let script = MgmtScript {
            name: "bad".into(),
            ops: vec![MgmtOp::StageCellConfig, MgmtOp::CreateCell, MgmtOp::Halt],
        };
        let (facts, diagnostics) = interpret_script(&script);
        assert!(facts.cell_reachable);
        assert_eq!(codes(&diagnostics), vec![Code::CertCellOpWithoutEnable]);
        assert_eq!(diagnostics[0].span, "script.ops[1]");
    }

    #[test]
    fn cell_ops_without_create_are_errors() {
        let script = MgmtScript {
            name: "bad".into(),
            ops: vec![MgmtOp::Enable, MgmtOp::StartCell, MgmtOp::DestroyCell],
        };
        let (_, diagnostics) = interpret_script(&script);
        assert_eq!(
            codes(&diagnostics),
            vec![Code::CertCellOpWithoutCreate, Code::CertCellOpWithoutCreate]
        );
    }

    #[test]
    fn double_create_and_start_without_load_warn() {
        let script = MgmtScript {
            name: "bad".into(),
            ops: vec![
                MgmtOp::Enable,
                MgmtOp::CreateCell,
                MgmtOp::CreateCell,
                MgmtOp::StartCell,
            ],
        };
        let (_, diagnostics) = interpret_script(&script);
        assert_eq!(
            codes(&diagnostics),
            vec![Code::CertDoubleCreate, Code::CertStartWithoutLoad]
        );
    }

    #[test]
    fn destroy_resets_the_abstract_cell_state() {
        let script = MgmtScript {
            name: "ok".into(),
            ops: vec![
                MgmtOp::Enable,
                MgmtOp::CreateCell,
                MgmtOp::LoadCell,
                MgmtOp::DestroyCell,
                MgmtOp::CreateCell,
                MgmtOp::LoadCell,
                MgmtOp::StartCell,
            ],
        };
        let (_, diagnostics) = interpret_script(&script);
        assert!(diagnostics.is_empty(), "{:?}", codes(&diagnostics));
    }

    #[test]
    fn wait_without_offline_warns() {
        let script = MgmtScript {
            name: "bad".into(),
            ops: vec![MgmtOp::WaitCpuParked(1), MgmtOp::Halt],
        };
        let (_, diagnostics) = interpret_script(&script);
        assert_eq!(codes(&diagnostics), vec![Code::CertWaitWithoutOffline]);
    }

    #[test]
    fn ops_after_halt_or_skipped_by_restart_are_unreachable() {
        let script = MgmtScript {
            name: "bad".into(),
            ops: vec![MgmtOp::Delay(1), MgmtOp::Halt, MgmtOp::PollInfo],
        };
        let (facts, diagnostics) = interpret_script(&script);
        assert!(!facts.loops);
        assert_eq!(codes(&diagnostics), vec![Code::CertUnreachableOp]);
        assert_eq!(diagnostics[0].span, "script.ops[2]");

        let script = MgmtScript {
            name: "skip".into(),
            ops: vec![MgmtOp::Restart(2), MgmtOp::PollInfo, MgmtOp::Halt],
        };
        let (_, diagnostics) = interpret_script(&script);
        assert_eq!(codes(&diagnostics), vec![Code::CertUnreachableOp]);
        assert_eq!(diagnostics[0].span, "script.ops[1]");
    }

    #[test]
    fn restart_past_the_end_ends_the_walk() {
        let script = MgmtScript {
            name: "oob".into(),
            ops: vec![MgmtOp::Delay(4), MgmtOp::Restart(99)],
        };
        let (facts, diagnostics) = interpret_script(&script);
        assert!(!facts.loops);
        assert_eq!(facts.steps_consumed, 4);
        assert!(diagnostics.is_empty());
    }

    #[test]
    fn empty_script_is_quiet() {
        let script = MgmtScript {
            name: "empty".into(),
            ops: vec![],
        };
        let (facts, diagnostics) = interpret_script(&script);
        assert!(!facts.loops);
        assert_eq!(facts.steps_consumed, 0);
        assert!(diagnostics.is_empty());
    }
}
