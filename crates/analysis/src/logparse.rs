//! Structured parsing of the serial log.
//!
//! Every guest and the hypervisor share one UART, exactly like the
//! paper's board; lines are distinguishable by their prefix. The
//! parser is total: unknown lines are preserved as
//! [`LogEvent::Other`], never dropped, so analytics can always account
//! for the full capture.

use std::fmt;

/// Who emitted a log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogSource {
    /// The root-cell Linux guest.
    Linux,
    /// The non-root FreeRTOS guest (via the hypervisor debug console).
    Rtos,
    /// The hypervisor itself.
    Hypervisor,
    /// Unattributable output (corrupted or partial lines).
    Unknown,
}

impl fmt::Display for LogSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LogSource::Linux => "linux",
            LogSource::Rtos => "rtos",
            LogSource::Hypervisor => "hyp",
            LogSource::Unknown => "?",
        };
        f.write_str(name)
    }
}

/// A parsed log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEvent {
    /// Root kernel boot progress.
    LinuxBoot {
        /// The boot message.
        message: String,
    },
    /// The root kernel panicked — the paper's panic-park evidence.
    KernelPanic {
        /// The panic message.
        message: String,
    },
    /// A jailhouse-driver management message.
    Management {
        /// The message.
        message: String,
    },
    /// The hypervisor parked a CPU; carries the CPU number and, for
    /// unhandled traps, the exception-class code (`0x24` in the
    /// paper).
    CpuParked {
        /// Which CPU.
        cpu: u32,
        /// The trap class code, if the park was an unhandled trap.
        code: Option<u8>,
        /// The raw reason text.
        reason: String,
    },
    /// The hypervisor panicked.
    HypervisorPanic {
        /// The panic message.
        message: String,
    },
    /// An RTOS liveness line (blink/send/recv/compute heartbeat).
    RtosHeartbeat {
        /// The task-class tag (`blink`, `sent`, `recv`, `float`,
        /// `int`).
        task: String,
        /// The full message.
        message: String,
    },
    /// Anything else.
    Other {
        /// The raw line.
        line: String,
    },
}

impl LogEvent {
    /// The source of this event.
    pub fn source(&self) -> LogSource {
        match self {
            LogEvent::LinuxBoot { .. }
            | LogEvent::KernelPanic { .. }
            | LogEvent::Management { .. } => LogSource::Linux,
            LogEvent::CpuParked { .. } | LogEvent::HypervisorPanic { .. } => LogSource::Hypervisor,
            LogEvent::RtosHeartbeat { .. } => LogSource::Rtos,
            LogEvent::Other { .. } => LogSource::Unknown,
        }
    }
}

/// Parses one serial line.
pub fn parse_line(line: &str) -> LogEvent {
    if let Some(rest) = line.strip_prefix("[hyp] ") {
        if let Some(msg) = rest.strip_prefix("PANIC: ") {
            return LogEvent::HypervisorPanic {
                message: msg.to_string(),
            };
        }
        if let Some(park) = rest.strip_prefix("parking cpu") {
            // Format: "parking cpu<N>: <reason>", reason may end with
            // "0x<code>".
            let mut parts = park.splitn(2, ':');
            let cpu = parts
                .next()
                .and_then(|c| c.trim().parse::<u32>().ok())
                .unwrap_or(u32::MAX);
            let reason = parts.next().unwrap_or("").trim().to_string();
            let code = reason
                .rsplit("0x")
                .next()
                .filter(|_| reason.contains("0x"))
                .and_then(|hex| u8::from_str_radix(hex.trim(), 16).ok());
            return LogEvent::CpuParked { cpu, code, reason };
        }
        return LogEvent::Other {
            line: line.to_string(),
        };
    }
    if let Some(rest) = line.strip_prefix("[linux] ") {
        if rest.contains("Kernel panic") || rest.contains("Unable to handle kernel") {
            return LogEvent::KernelPanic {
                message: rest.to_string(),
            };
        }
        if rest.starts_with("jailhouse:") || rest.starts_with("smp:") {
            return LogEvent::Management {
                message: rest.to_string(),
            };
        }
        return LogEvent::LinuxBoot {
            message: rest.to_string(),
        };
    }
    if let Some(rest) = line.strip_prefix("[rtos] ") {
        let task = rest
            .split_whitespace()
            .next()
            .unwrap_or("")
            .trim_end_matches(|c: char| c.is_ascii_digit() || c == '#')
            .to_string();
        return LogEvent::RtosHeartbeat {
            task,
            message: rest.to_string(),
        };
    }
    LogEvent::Other {
        line: line.to_string(),
    }
}

/// Parses a `(step, line)` capture into `(step, event)` pairs.
pub fn parse_log(lines: &[(u64, String)]) -> Vec<(u64, LogEvent)> {
    lines
        .iter()
        .map(|(step, line)| (*step, parse_line(line)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_park_banner_with_code() {
        let event = parse_line("[hyp] parking cpu1: unhandled trap 0x24");
        match event {
            LogEvent::CpuParked { cpu, code, .. } => {
                assert_eq!(cpu, 1);
                assert_eq!(code, Some(0x24));
            }
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn parses_park_banner_without_code() {
        let event = parse_line("[hyp] parking cpu1: failed to come online");
        match event {
            LogEvent::CpuParked { cpu, code, .. } => {
                assert_eq!(cpu, 1);
                assert_eq!(code, None);
            }
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn parses_kernel_panic() {
        let event = parse_line("[linux] Kernel panic - not syncing: Fatal exception");
        assert!(matches!(event, LogEvent::KernelPanic { .. }));
        assert_eq!(event.source(), LogSource::Linux);
    }

    #[test]
    fn parses_hypervisor_panic() {
        let event = parse_line("[hyp] PANIC: HYP data abort at 0x09000000");
        assert!(matches!(event, LogEvent::HypervisorPanic { .. }));
        assert_eq!(event.source(), LogSource::Hypervisor);
    }

    #[test]
    fn parses_rtos_heartbeats_with_task_tags() {
        for (line, task) in [
            ("[rtos] blink #32", "blink"),
            ("[rtos] sent 64", "sent"),
            ("[rtos] recv 64 sum 0a0b0c0d", "recv"),
            ("[rtos] float0 pi~3.141593", "float"),
            ("[rtos] int07 deadbeef", "int"),
        ] {
            match parse_line(line) {
                LogEvent::RtosHeartbeat { task: t, .. } => assert_eq!(t, task, "line {line}"),
                other => panic!("wrong event for {line}: {other:?}"),
            }
        }
    }

    #[test]
    fn parses_management_lines() {
        let event = parse_line("[linux] jailhouse: cell 1 created");
        assert!(matches!(event, LogEvent::Management { .. }));
        let event = parse_line("[linux] smp: CPU1 offlined");
        assert!(matches!(event, LogEvent::Management { .. }));
    }

    #[test]
    fn unknown_lines_are_preserved() {
        let event = parse_line("garbage \u{fffd}\u{fffd}");
        match &event {
            LogEvent::Other { line } => assert!(line.starts_with("garbage")),
            other => panic!("wrong event: {other:?}"),
        }
        assert_eq!(event.source(), LogSource::Unknown);
    }

    #[test]
    fn parse_log_keeps_steps() {
        let lines = vec![
            (5, "[linux] Booting Linux on physical CPU 0x0".to_string()),
            (9, "[rtos] blink #32".to_string()),
        ];
        let events = parse_log(&lines);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].0, 5);
        assert_eq!(events[1].0, 9);
    }
}
