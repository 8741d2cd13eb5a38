//! Genomics scenario: GRIM-style seed-location filtering (paper
//! Section 2.1 — filtering is ~65% of sequence-alignment runtime).
//!
//! The filter probes pseudo-random candidate locations of the reference
//! at 128 B granularity and accumulates Hamming distances. Because the
//! probe size is fixed by the algorithm, a bigger PIM temporary storage
//! does *not* reduce the number of ordering primitives — which is why
//! Gen_Fil shows no TS sensitivity in paper Figure 12 and why OrderLight
//! helps it at every design point.
//!
//! ```text
//! cargo run --release --example genomics_filter
//! ```

use orderlight_suite::pim::TsSize;
use orderlight_suite::sim::config::ExecMode;
use orderlight_suite::sim::experiments::JobSpec;
use orderlight_suite::workloads::{OrderingMode, WorkloadId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = 64 * 1024; // reference slice per channel
    println!("Genomic sequence filtering (Gen_Fil, GRIM algorithm) on PIM\n");
    println!("  128 B probes at pseudo-random candidate locations; 3:1 compute:memory\n");
    let mut prim_per_instr = Vec::new();
    for ts in TsSize::ALL {
        let fence =
            JobSpec::new(WorkloadId::GenFil, ts, ExecMode::Pim(OrderingMode::Fence), data).run()?;
        let ol =
            JobSpec::new(WorkloadId::GenFil, ts, ExecMode::Pim(OrderingMode::OrderLight), data)
                .run()?;
        assert!(fence.stats.is_correct() && ol.stats.is_correct());
        prim_per_instr.push(ol.stats.primitives_per_pim_instr);
        println!(
            "  TS {:>7}: fence {:>7.4} ms | OrderLight {:>7.4} ms | speedup {:>5.1}x | {:.3} primitives/instr",
            ts.to_string(),
            fence.stats.exec_time_ms,
            ol.stats.exec_time_ms,
            fence.stats.exec_time_ms / ol.stats.exec_time_ms,
            ol.stats.primitives_per_pim_instr,
        );
    }
    let first = prim_per_instr[0];
    assert!(
        prim_per_instr.iter().all(|p| (p - first).abs() < 1e-9),
        "probe granularity pins the ordering rate regardless of TS"
    );
    println!("\nNote the constant primitives-per-instruction column: the 128 B probe");
    println!("granularity (not the TS size) dictates how often ordering is needed —");
    println!("paper Figure 12's observation that Gen_Fil shows no TS variability.");
    Ok(())
}
