//! Property-based tests for the RTOS kernel.

use certify_arch::CpuId;
use certify_board::Machine;
use certify_hypervisor::{GuestCtx, Hypervisor, SystemConfig};
use certify_rtos::kernel::Rtos;
use certify_rtos::task::{Priority, SliceResult, TaskCode, TaskEnv, TaskState};
use proptest::prelude::*;

/// A task that yields forever.
#[derive(Debug, Clone)]
struct Spin;
impl TaskCode for Spin {
    fn execute_slice(&mut self, _env: &mut TaskEnv<'_, '_>) -> SliceResult {
        SliceResult::Yield
    }
}

/// A task that alternates between running and sleeping.
#[derive(Debug, Clone)]
struct Sleeper(u64);
impl TaskCode for Sleeper {
    fn execute_slice(&mut self, _env: &mut TaskEnv<'_, '_>) -> SliceResult {
        SliceResult::Delay(self.0)
    }
}

fn with_ctx<R>(f: impl FnOnce(&mut GuestCtx<'_>) -> R) -> R {
    let mut machine = Machine::new_banana_pi();
    let mut hv = Hypervisor::new(SystemConfig::banana_pi_demo());
    let mut ctx = GuestCtx::new(CpuId(1), &mut machine, &mut hv);
    f(&mut ctx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The scheduler never runs a blocked or done task, whatever mix
    /// of spinners and sleepers is spawned and however ticks are
    /// interleaved.
    #[test]
    fn scheduler_never_runs_non_ready_tasks(
        spec in proptest::collection::vec((0u8..3, 1u64..5), 1..8),
        ticks in proptest::collection::vec(any::<bool>(), 10..60),
    ) {
        with_ctx(|ctx| {
            let mut rtos = Rtos::new("prop");
            for (i, (kind, delay)) in spec.iter().enumerate() {
                let priority = Priority((i % 4) as u8);
                let code: Box<dyn TaskCode> = match kind {
                    0 => Box::new(Spin),
                    _ => Box::new(Sleeper(*delay)),
                };
                rtos.spawn(format!("t{i}"), priority, code);
            }
            for tick in &ticks {
                if *tick {
                    rtos.tick();
                }
                if let Some(ran) = rtos.run_slice(ctx) {
                    // The ran task was observed Ready when picked; its
                    // state afterwards is whatever the slice decided,
                    // but it must never be inconsistent.
                    let task = rtos.task(ran).unwrap();
                    prop_assert!(
                        task.state == TaskState::Ready || task.state == TaskState::Blocked,
                        "task in state {:?} after a slice", task.state
                    );
                }
            }
            Ok(())
        })?;
    }

    /// Work conservation: when at least one spinner exists, the
    /// scheduler never idles.
    #[test]
    fn work_conservation_with_a_spinner(extra_sleepers in 0usize..6) {
        with_ctx(|ctx| {
            let mut rtos = Rtos::new("prop");
            rtos.spawn("spin", Priority::IDLE, Box::new(Spin));
            for i in 0..extra_sleepers {
                rtos.spawn(format!("s{i}"), Priority::NORMAL, Box::new(Sleeper(3)));
            }
            for _ in 0..50 {
                prop_assert!(rtos.run_slice(ctx).is_some(), "scheduler idled");
                rtos.tick();
            }
            Ok(())
        })?;
    }

    /// Total slice count equals the number of successful run_slice
    /// calls (accounting is exact).
    #[test]
    fn slice_accounting_is_exact(slices in 1u32..100) {
        with_ctx(|ctx| {
            let mut rtos = Rtos::new("prop");
            rtos.spawn("a", Priority::NORMAL, Box::new(Spin));
            rtos.spawn("b", Priority::NORMAL, Box::new(Spin));
            let mut ran = 0u64;
            for _ in 0..slices {
                if rtos.run_slice(ctx).is_some() {
                    ran += 1;
                }
            }
            prop_assert_eq!(rtos.total_slices(), ran);
            Ok(())
        })?;
    }

    /// Queue conservation: items received never exceed items sent,
    /// and after draining, the difference is exactly the in-queue
    /// count — under arbitrary interleavings.
    #[test]
    fn queue_conservation(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut queues = certify_rtos::queue::QueueSet::new();
        let q = queues.create(4);
        let mut value = 0u32;
        for is_send in ops {
            if is_send {
                let _ = queues.try_send(q, value);
                value += 1;
            } else {
                let _ = queues.try_recv(q);
            }
        }
        prop_assert!(queues.received_total(q) <= queues.sent_total(q));
        // Drain whatever is left: afterwards every sent item has been
        // received exactly once.
        while let certify_rtos::queue::RecvOutcome::Received(_) = queues.try_recv(q) {}
        prop_assert_eq!(queues.received_total(q), queues.sent_total(q));
    }
}
