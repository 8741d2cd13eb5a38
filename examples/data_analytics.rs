//! Data-analytics scenario (paper Section 2.1): after feature
//! extraction, unstructured data is clustered with KMeans and
//! Histogram — data-intensive kernels that sift large datasets with
//! simple computations (distance from centres, bin updates).
//!
//! Runs the clustering stage on PIM under fence and OrderLight and
//! shows the two kernels' opposite characters: KMeans is compute-heavy
//! (10:1) with a reduction structure that keeps ordering frequent even
//! at large TS; Histogram is memory-heavy (3:2) with data-dependent bin
//! addresses.
//!
//! ```text
//! cargo run --release --example data_analytics
//! ```

use orderlight_suite::pim::TsSize;
use orderlight_suite::sim::config::ExecMode;
use orderlight_suite::sim::experiments::JobSpec;
use orderlight_suite::workloads::{OrderingMode, WorkloadId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = 64 * 1024; // feature vectors per channel
    println!("Clustering a feature-vector dataset on PIM (BMF = 16)\n");
    let mut pipeline_fence = 0.0;
    let mut pipeline_ol = 0.0;
    for wl in [WorkloadId::Kmeans, WorkloadId::Hist] {
        let meta = wl.meta();
        println!("{} — {} (compute:memory {})", meta.name, meta.description, meta.ratio);
        for ts in TsSize::ALL {
            let fence = JobSpec::new(wl, ts, ExecMode::Pim(OrderingMode::Fence), data).run()?;
            let ol = JobSpec::new(wl, ts, ExecMode::Pim(OrderingMode::OrderLight), data).run()?;
            assert!(fence.stats.is_correct() && ol.stats.is_correct());
            if ts == TsSize::Eighth {
                pipeline_fence += fence.stats.exec_time_ms;
                pipeline_ol += ol.stats.exec_time_ms;
            }
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
    println!(
        "Clustering pipeline (KMeans + Histogram at 1/8 RB): fence {pipeline_fence:.4} ms, OrderLight {pipeline_ol:.4} ms — {:.1}x end to end.",
        pipeline_fence / pipeline_ol
    );
    println!("KMeans' reduction keeps its primitive rate high at every TS; Histogram's");
    println!("random bin updates cost extra row activations but order cheaply.");
    Ok(())
}
