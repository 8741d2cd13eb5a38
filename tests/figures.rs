//! The report table behind `orderlight figure`: it lists every paper
//! table, figure and ablation exactly once, and its printers produce
//! reports. The cheap printers run in tier 1; the sweep-backed ones
//! are tier 2 (`cargo test -- --ignored`, or `ORDERLIGHT_TIER2=1
//! ./ci.sh`).

use orderlight_suite::sim::experiments::Runner;
use orderlight_suite::sim::figures::FIGURES;
use orderlight_suite::sim::Pool;

const DATA: u64 = 8 * 1024;

#[test]
fn the_table_lists_every_report_once() {
    let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        ids,
        [
            "table1",
            "table2",
            "fig05",
            "fig07",
            "fig10a",
            "fig10b",
            "fig11",
            "fig12",
            "fig13",
            "ablation_arbitration",
            "ablation_cpu_host",
            "ablation_fence_scope",
            "ablation_page_policy",
            "ablation_refresh",
            "ablation_scheduler",
            "ablation_seqnum",
        ]
    );
}

/// Runs the printer for `id` through `runner` and checks the report's
/// shape: a title line, then a blank line, then the body, ending in a
/// newline.
fn report_with(id: &str, runner: &mut Runner) -> String {
    let (_, print) = FIGURES.iter().find(|(name, _)| *name == id).expect("id is registered");
    let out = print(DATA, runner).unwrap_or_else(|e| panic!("{id}: {e}"));
    let mut lines = out.lines();
    assert!(!lines.next().unwrap_or_default().is_empty(), "{id}: title line");
    assert_eq!(lines.next(), Some(""), "{id}: blank line after the title");
    assert!(out.ends_with('\n') && out.lines().count() > 4, "{id}:\n{out}");
    out
}

/// [`report_with`] through a fresh runner.
fn report(id: &str) -> String {
    report_with(id, &mut Runner::new(Pool::new(2)))
}

#[test]
fn cheap_printers_render() {
    assert!(report("table1").contains("FRFCFS"));
    assert!(report("table2").contains("Gen_Fil"));
    assert!(report("fig11").contains("analytic window             :  44 cycles"));
    let fig07 = report("fig07");
    assert!(fig07.contains("core idle between phases (memory cycles): [16, 40, 40]"), "{fig07}");
    assert!(fig07.contains("finished in 96 memory cycles"), "{fig07}");
}

/// `figure fig07` prints the fig07 section of the golden `figure all`
/// transcript byte for byte. The report drives two controllers by hand
/// and does not depend on the data size.
#[test]
fn fig07_matches_the_golden_transcript() {
    let golden = include_str!("golden/figure_all_8k.txt");
    let start = golden.find("One vector_add tile").expect("fig07 section");
    let end = start + golden[start..].find("\nFigure 10a").expect("fig10a follows fig07");
    assert_eq!(report("fig07"), golden[start..end]);
}

/// Every printer renders the same text through one shared runner (as
/// `orderlight figure all` runs them) as through a fresh runner of its
/// own, and the shared runner runs each distinct design point once.
#[test]
#[ignore = "tier 2: every sweep-backed report, twice (~10 s debug); run via --include-ignored or ORDERLIGHT_TIER2=1 ./ci.sh"]
fn sweep_printers_render() {
    let mut shared = Runner::new(Pool::new(2));
    for (id, _) in FIGURES {
        assert_eq!(report_with(id, &mut shared), report(id), "{id}: shared vs fresh runner");
    }
    // 215 points across the printers; 145 distinct scenarios.
    assert_eq!(shared.memoised(), 145);
}
