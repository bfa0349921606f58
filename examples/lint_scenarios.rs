//! Static analysis of campaign specs with `certify-lint`.
//!
//! Lints every built-in scenario (all must be clean), then
//! deliberately breaks one spec three ways — a window past the
//! horizon, an unsatisfiable rate, a memory target in the unmapped
//! hole — and shows the diagnostics the coordinator would refuse the
//! campaign with, both as text and as the `--json` wire form.
//!
//! ```sh
//! cargo run --example lint_scenarios
//! ```

use certify_core::campaign::Scenario;
use certify_core::memfault::{MemFaultModel, MemRegionKind};
use certify_core::spec::InjectionWindow;
use certify_lint::{
    builtin_scenarios, diagnostics_to_json, has_errors, lint_mem_regions, lint_scenario,
};

fn main() {
    println!("== built-in scenarios ==");
    for scenario in builtin_scenarios() {
        let diags = lint_scenario(&scenario);
        println!(
            "  {:<28} {}",
            scenario.name,
            if diags.is_empty() {
                "clean".to_string()
            } else {
                format!("{} finding(s)", diags.len())
            }
        );
    }

    println!("\n== a deliberately broken spec ==");
    let mut scenario = Scenario::e3_fig3();
    {
        let spec = scenario.spec.as_mut().unwrap();
        // Opens after the 4500-step horizon: never arms.
        spec.cadence.windows = vec![InjectionWindow::new(9000, 9500)];
        // More injections demanded than handler calls exist.
        spec.cadence.rate = u64::MAX;
    }
    let mut diags = lint_scenario(&scenario);
    // A memory target aimed at the unmapped hole below DRAM: every
    // sampled address would be a skipped injection.
    diags.extend(lint_mem_regions(
        &MemFaultModel::SingleBitFlip,
        &[MemRegionKind::Custom {
            base: 0x1000_0000,
            size: 0x1000,
        }],
        "mem_spec.target",
    ));
    for diag in &diags {
        println!("  {diag}");
    }
    println!(
        "\n  verdict: {}",
        if has_errors(&diags) {
            "REFUSED (the shard coordinator would not spawn workers)"
        } else {
            "runnable with warnings"
        }
    );

    println!("\n== the same findings as `certify-lint --json` emits ==");
    println!("{}", diagnostics_to_json(&diags).render());
}
