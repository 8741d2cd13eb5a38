//! Integration coverage for every canned experiment runner — the same
//! code paths `orderlight figure` drives, at a reduced job size, with
//! the paper's qualitative claims asserted.

use orderlight_suite::pim::TsSize;
use orderlight_suite::sim::experiments::{
    ablation_arbitration, ablation_cpu_host, ablation_fence_scope, ablation_page_policy,
    ablation_refresh, ablation_scheduler, ablation_seqnum, fig05_points, fig07, fig10_points,
    fig11, fig12_points, fig13_points, table1, Runner, FIG07_STRIPES,
};
use orderlight_suite::sim::Pool;
use orderlight_suite::trace::TraceEvent;

const DATA: u64 = 32 * 1024;

/// A one-worker runner, as the serial loop runs.
fn runner() -> Runner {
    Runner::new(Pool::new(1))
}

#[test]
fn fig05_shape() {
    let rows = runner().points(&fig05_points(DATA)).expect("runs");
    assert_eq!(rows.len(), 5, "NoFence + 4 fence TS points");
    assert!(!rows[0].stats.is_correct(), "unordered bar is incorrect");
    // Execution time falls monotonically with TS under fences.
    let times: Vec<f64> = rows[1..].iter().map(|p| p.stats.exec_time_ms).collect();
    assert!(times.windows(2).all(|w| w[1] < w[0]), "{times:?}");
    // Fence waits are in the hundreds of cycles.
    for p in &rows[1..] {
        assert!(p.stats.is_correct());
        let w = p.stats.wait_cycles_per_fence();
        assert!((200.0..2000.0).contains(&w), "wait {w}");
    }
}

/// Figure 7: the fence tile drains phase by phase, while the OrderLight
/// tile streams whole and the controller keeps the same phase order.
#[test]
fn fig07_fence_drains_each_phase_and_orderlight_streams_the_tile() {
    let f = fig07();
    assert_eq!(f.fence_drains.len(), 3, "one drain per phase: load, add, store");
    assert!(f.fence_drains.iter().all(|&d| d > 0), "{:?}", f.fence_drains);
    let fence_total: u64 = f.fence_drains.iter().sum();
    // One bank, three rows: the controller-side schedule cannot beat the
    // three drains laid end to end. OrderLight's gain is that the core
    // never waits between them, which this controller-only trace leaves
    // out.
    assert!(f.orderlight_cycles <= fence_total, "{} vs {fence_total}", f.orderlight_cycles);
    let issued_seqs = |trace: &[TraceEvent]| {
        let seqs = trace.iter().filter_map(|e| match e {
            TraceEvent::ReqIssued { seq, .. } => Some(*seq),
            _ => None,
        });
        seqs.collect::<Vec<_>>()
    };
    let fence_seqs = issued_seqs(&f.fence_trace);
    assert_eq!(fence_seqs.len() as u64, 3 * FIG07_STRIPES);
    assert_eq!(issued_seqs(&f.orderlight_trace), fence_seqs, "same commands, same phase order");
}

#[test]
#[ignore = "tier 2: full Figure 10 sweep (~9 s debug); run via --include-ignored or ORDERLIGHT_TIER2=1 ./ci.sh"]
fn fig10_shape() {
    let rows = runner().points(&fig10_points(DATA)).expect("runs");
    // 5 kernels x (1 GPU + 4 TS x 2 modes).
    assert_eq!(rows.len(), 5 * 9);
    for p in &rows {
        assert!(p.stats.is_correct(), "{} {} {}", p.workload, p.ts, p.mode);
    }
    // OrderLight beats fence at every point.
    for w in ["Scale", "Copy", "Daxpy", "Triad", "Add"] {
        for ts in ["1/16 RB", "1/8 RB", "1/4 RB", "1/2 RB"] {
            let get = |mode: &str| {
                rows.iter()
                    .find(|p| p.workload == w && p.ts == ts && p.mode == mode)
                    .map(|p| p.stats.exec_time_ms)
                    .expect("point exists")
            };
            assert!(get("pim-orderlight") < get("pim-fence"), "{w} {ts}: OrderLight must win");
        }
    }
}

#[test]
fn fig11_exact() {
    let f = fig11();
    assert_eq!(f.analytic_window, 44);
    assert_eq!(f.simulated_window, 44);
    assert_eq!(f.writes_per_window, 8);
    assert!((f.peak_command_gcs - 2.47).abs() < 0.01);
}

#[test]
#[ignore = "tier 2: full Figure 12 sweep (~12 s debug); run via --include-ignored or ORDERLIGHT_TIER2=1 ./ci.sh"]
fn fig12_shape() {
    let rows = runner().points(&fig12_points(DATA)).expect("runs");
    assert_eq!(rows.len(), 7 * 4 * 2);
    for p in &rows {
        assert!(p.stats.is_correct(), "{} {} {}", p.workload, p.ts, p.mode);
    }
    // The Gen_Fil primitive rate is identical at every TS; the
    // elementwise BN_Fwd rate halves per doubling.
    let prim = |w: &str, ts: &str| {
        rows.iter()
            .find(|p| p.workload == w && p.ts == ts && p.mode == "pim-orderlight")
            .map(|p| p.stats.primitives_per_pim_instr)
            .expect("point")
    };
    assert!((prim("Gen_Fil", "1/16 RB") - prim("Gen_Fil", "1/2 RB")).abs() < 1e-9);
    assert!(prim("BN_Fwd", "1/16 RB") > 3.0 * prim("BN_Fwd", "1/2 RB"));
    // FC's rate is nearly flat (reduction chunking).
    assert!(prim("FC", "1/2 RB") > 0.6 * prim("FC", "1/16 RB"));
}

#[test]
#[ignore = "tier 2: full Figure 13 sweep (~10 s debug); run via --include-ignored or ORDERLIGHT_TIER2=1 ./ci.sh"]
fn fig13_shape() {
    let rows = runner().points(&fig13_points(DATA)).expect("runs");
    assert_eq!(rows.len(), 3 * 4 * 2);
    for p in &rows {
        assert!(p.stats.is_correct());
    }
    // For the same TS, lower BMF means more commands for the same job,
    // so fence execution time grows as BMF shrinks.
    let fence_ms = |bmf: u32| {
        rows.iter()
            .find(|p| p.bmf == bmf && p.ts == "1/8 RB" && p.mode == "pim-fence")
            .map(|p| p.stats.exec_time_ms)
            .expect("point")
    };
    assert!(fence_ms(4) > fence_ms(8));
    assert!(fence_ms(8) > fence_ms(16));
}

#[test]
fn arbitration_ablation_orders_of_magnitude() {
    let a = ablation_arbitration(DATA, &mut runner()).expect("runs");
    assert!(a.fga_mean_host_latency > 0.0);
    assert!(
        a.cga_host_wait_cycles as f64 > 20.0 * a.fga_mean_host_latency,
        "coarse arbitration must cost orders of magnitude more"
    );
}

#[test]
fn fence_scope_ablation_trades_cost_for_guarantee() {
    let a = ablation_fence_scope(DATA, TsSize::Eighth, &mut runner()).expect("runs");
    assert!(a.dram_issue_correct, "issue-to-DRAM fence is always safe");
    assert!(a.l2_ack_wait < a.dram_issue_wait, "the serialization-point fence must be cheaper");
    assert!(a.l2_ack_ms < a.dram_issue_ms);
}

#[test]
fn seqnum_ablation_converges_to_orderlight() {
    let rows = ablation_seqnum(DATA, TsSize::Eighth, &mut runner()).expect("runs");
    assert_eq!(rows[0].label, "orderlight");
    for r in &rows {
        assert!(r.correct, "{}", r.label);
    }
    let ol = rows[0].exec_time_ms;
    let b4 = rows[1].exec_time_ms;
    let b64 = rows[5].exec_time_ms;
    assert!(b4 > 3.0 * ol, "tiny buffers pay credit round trips");
    assert!(b64 < 1.6 * ol, "a big reorder buffer approaches OrderLight");
    assert!(
        rows[1].credit_wait_cycles > rows[5].credit_wait_cycles,
        "credit waits shrink with the buffer"
    );
}

#[test]
fn cpu_host_study_transfers() {
    let rows = ablation_cpu_host(DATA, TsSize::Eighth, &mut runner()).expect("runs");
    assert!(rows.iter().all(|r| r.correct));
    let fence = &rows[0];
    let ol = &rows[1];
    assert!(
        fence.wait_per_fence > 100.0 && fence.wait_per_fence < 600.0,
        "CPU fences cost on the order of 100 cycles (paper Conclusion), got {}",
        fence.wait_per_fence
    );
    assert!(fence.exec_time_ms > 1.3 * ol.exec_time_ms, "OrderLight still wins");
}

#[test]
fn refresh_ablation_bounded_by_trfc_over_trefi() {
    let rows = ablation_refresh(DATA, &mut runner()).expect("runs");
    assert!(rows.iter().all(|r| r.correct), "refresh never breaks ordering");
    let slowdown = rows[1].exec_time_ms / rows[0].exec_time_ms;
    assert!((1.0..1.15).contains(&slowdown), "refresh steals at most ~tRFC/tREFI: {slowdown}");
}

#[test]
fn scheduler_ablation_scan_depth_matters_for_host() {
    let rows = ablation_scheduler(32 * 1024, &mut runner()).expect("runs");
    let host_ms =
        |label: &str| rows.iter().find(|r| r.label == label).map(|r| r.host_exec_ms).expect("row");
    assert!(
        host_ms("scan_depth=1") > 1.3 * host_ms("scan_depth=16"),
        "FCFS-degenerate scheduling must hurt the host stream"
    );
    // The ordered PIM stream is insensitive.
    let pim: Vec<f64> = rows.iter().map(|r| r.pim_command_gcs).collect();
    let spread =
        pim.iter().copied().fold(0.0f64, f64::max) - pim.iter().copied().fold(f64::MAX, f64::min);
    assert!(spread < 0.2, "ordered PIM stream should be knob-insensitive: {pim:?}");
}

#[test]
fn page_policy_is_a_noop_for_ordered_pim() {
    let rows = ablation_page_policy(DATA, &mut runner()).expect("runs");
    // (Add, Open) vs (Add, Closed) within 5%.
    assert!((rows[0].exec_time_ms - rows[1].exec_time_ms).abs() < 0.05 * rows[0].exec_time_ms);
}

#[test]
fn table1_is_stable() {
    let rows = table1();
    assert!(rows.len() >= 13);
    assert!(rows.iter().any(|(k, v)| k == "Memory scheduler" && v == "FRFCFS"));
}
