//! Machine-learning scenario: the data-intensive batch-normalization
//! layers of a ResNet-style network (paper Section 2.1 — data-intensive
//! phases are ~32% of ResNet50 training time on GPUs).
//!
//! Runs BN forward and backward as fine-grained PIM kernels across all
//! TS sizes, fence vs OrderLight, and prints the per-layer execution
//! times and the OrderLight speedup.
//!
//! ```text
//! cargo run --release --example ml_batchnorm
//! ```

use orderlight_suite::pim::TsSize;
use orderlight_suite::sim::config::ExecMode;
use orderlight_suite::sim::experiments::JobSpec;
use orderlight_suite::workloads::{OrderingMode, WorkloadId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 64 KiB of activations per structure per channel = a 1 MiB feature
    // map slice per structure across the 16 channels.
    let data = 64 * 1024;
    println!("Batch normalization on PIM-enabled HBM (BMF = 16)\n");
    for wl in [WorkloadId::BnFwd, WorkloadId::BnBwd] {
        let meta = wl.meta();
        println!("{} — {} (compute:memory {})", meta.name, meta.description, meta.ratio);
        for ts in TsSize::ALL {
            let fence = JobSpec::new(wl, ts, ExecMode::Pim(OrderingMode::Fence), data).run()?;
            let ol = JobSpec::new(wl, ts, ExecMode::Pim(OrderingMode::OrderLight), data).run()?;
            assert!(fence.stats.is_correct() && ol.stats.is_correct());
            println!(
                "  TS {:>7}: fence {:>7.4} ms | OrderLight {:>7.4} ms | speedup {:>5.1}x | {:.3} primitives/instr",
                ts.to_string(),
                fence.stats.exec_time_ms,
                ol.stats.exec_time_ms,
                fence.stats.exec_time_ms / ol.stats.exec_time_ms,
                ol.stats.primitives_per_pim_instr,
            );
        }
        println!();
    }
    println!("Both layers verify bit-exactly against the golden model; the backward");
    println!("phase touches six operand streams, so its row locality is worst and the");
    println!("ordering overhead of fences is most visible at small TS sizes.");
    Ok(())
}
