//! Shared harness code for the figure regeneration binary.

use nzomp::report::{bar, fig11_header, relative_performance, ConfigRow};
use nzomp::BuildConfig;
use nzomp_proxies::{run_config, Proxy, RunError};
use nzomp_vgpu::DeviceConfig;

/// Device used for evaluation runs: release semantics (assumes unchecked —
/// they were either folded away or hold by contract).
pub fn eval_device() -> DeviceConfig {
    DeviceConfig {
        check_assumes: false,
        ..DeviceConfig::default()
    }
}

/// Run one proxy under every configuration; `None` entries are the paper's
/// "n/a" cells.
pub fn run_all_configs(proxy: &dyn Proxy) -> Vec<(BuildConfig, Option<ConfigRow>)> {
    BuildConfig::ALL
        .iter()
        .map(|&cfg| {
            let row = match run_config(proxy, cfg, &eval_device()) {
                Ok(r) => Some(ConfigRow {
                    config: cfg,
                    metrics: r.metrics,
                }),
                Err(RunError::NotApplicable) => None,
                Err(e) => panic!("{} under {cfg:?}: {e}", proxy.name()),
            };
            (cfg, row)
        })
        .collect()
}

/// Print a Fig. 10-style relative-performance block (bars are speedup over
/// Old RT (Nightly); higher is better).
pub fn print_fig10_block(proxy: &dyn Proxy, rows: &[(BuildConfig, Option<ConfigRow>)]) {
    println!("\n--- {} (relative performance vs Old RT (Nightly)) ---", proxy.name());
    let present: Vec<ConfigRow> = rows.iter().filter_map(|(_, r)| r.clone()).collect();
    let rel = relative_performance(&present, BuildConfig::OldRtNightly);
    for (cfg, row) in rows {
        let speedup = row
            .as_ref()
            .and_then(|_| rel.iter().find(|(c, _)| c == cfg))
            .and_then(|(_, v)| *v);
        match speedup {
            Some(v) => println!("  {:<26} {:>6.2}x  {}", cfg.label(), v, bar(v, 20.0)),
            None => println!("  {:<26}    n/a", cfg.label()),
        }
    }
}

/// Print a Fig. 11-style table block.
pub fn print_fig11_block(proxy: &dyn Proxy, rows: &[(BuildConfig, Option<ConfigRow>)]) {
    println!("\n--- {} ---", proxy.name());
    println!("  {}", fig11_header());
    for (cfg, row) in rows {
        match row {
            Some(r) => println!("  {}", r.fig11_row()),
            None => println!(
                "  {:<26} | {:>12} | {:>5} | {:>8}",
                cfg.label(),
                "n/a",
                "n/a",
                "n/a"
            ),
        }
    }
}
