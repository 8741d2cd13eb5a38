//! The documents the `orderlight` binary writes: the per-epoch
//! `counters.csv` of `trace`, the `orderlight/profile/v1` report that
//! `profile-verify` re-checks, and the `orderlight/bench-sweep/v5`
//! record of `compare-ordering`. Every JSON document built through the
//! canonical writer is a fixed point of `parse` followed by `to_json`.
//! (The Chrome traces `trace` and `profile` also write are streamed row
//! by row and are not canonical, so they are not checked here.)

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use orderlight_suite::trace::json::{self, Value};

fn orderlight(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_orderlight")).args(args).output().expect("run orderlight")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A fresh directory for one test's files.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orderlight-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Reads a JSON file, asserts it is canonical and returns it parsed.
fn canonical(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("read JSON document");
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(doc.to_json() + "\n", text, "{} is not canonical JSON", path.display());
    doc
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("UTF-8 path")
}

#[test]
fn trace_writes_eight_epochs_of_the_twenty_two_counters() {
    let dir = scratch("trace");
    let out = dir.join("add");
    let run =
        orderlight(&["trace", "Add", "--mode", "fence", "--data-kb", "4", "--out", path_str(&out)]);
    assert_ok(&run, "trace");
    let csv = std::fs::read_to_string(dir.join("add.counters.csv")).expect("counters.csv");
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some(
            "epoch,sm.warp_issue,sm.warp_retire,sm.fence_stalls,sm.stall_cycles,packet.created,\
             packet.enqueued,packet.merged,packet.fence_acks,sched.picks_rd,sched.picks_wr,\
             sched.row_hits,sched.req_enqueued,sched.req_dequeued,sched.req_issued,dram.act,\
             dram.pre,dram.rd,dram.wr,dram.exec,dram.row_closes,dram.refreshes,host.reads_done"
        ),
        "the epoch column and the 22 counters, in order"
    );
    let rows: Vec<Vec<u64>> =
        lines.map(|l| l.split(',').map(|c| c.parse().expect("integer cell")).collect()).collect();
    assert_eq!(rows.len(), 8, "one row per epoch");
    for (epoch, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), 23);
        assert_eq!(row[0], epoch as u64);
    }
    // Every warp issues, and a fence run stalls.
    let total = |col: usize| rows.iter().map(|r| r[col]).sum::<u64>();
    assert!(total(1) > 0 && total(4) > 0, "issues and stall cycles are counted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_verify_accepts_the_report_and_rejects_a_tampered_total() {
    let dir = scratch("profile");
    let out = dir.join("add");
    let run = orderlight(&[
        "profile",
        "Add",
        "--mode",
        "fence",
        "--data-kb",
        "4",
        "--out",
        path_str(&out),
    ]);
    assert_ok(&run, "profile");
    let report = dir.join("add.profile.json");
    let doc = canonical(&report);
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("orderlight/profile/v1"));
    assert_ok(&orderlight(&["profile-verify", path_str(&report)]), "profile-verify");

    let Value::Obj(mut map) = doc else { panic!("profile is an object") };
    let Some(Value::Obj(stalls)) = map.get_mut("stalls") else { panic!("stall breakdown") };
    let total = stalls["total"].as_f64().expect("numeric total");
    stalls.insert("total".to_string(), Value::Num(total + 1.0));
    let tampered = dir.join("tampered.profile.json");
    std::fs::write(&tampered, Value::Obj(map).to_json() + "\n").expect("write tampered copy");
    let verify = orderlight(&["profile-verify", path_str(&tampered)]);
    assert!(!verify.status.success(), "a total that disagrees with its causes must fail");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_ordering_records_every_backend_in_a_v5_document() {
    let dir = scratch("compare");
    let out = dir.join("cmp.json");
    assert_ok(
        &orderlight(&["compare-ordering", "--data-kb", "4", "--out", path_str(&out)]),
        "compare-ordering",
    );
    let doc = canonical(&out);
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("orderlight/bench-sweep/v5"));
    let backends: Vec<&str> = doc
        .get("ordering")
        .and_then(Value::as_array)
        .expect("ordering records")
        .iter()
        .map(|r| r.get("ordering").and_then(Value::as_str).expect("backend label"))
        .collect();
    assert_eq!(backends, ["fence", "orderlight", "seqnum", "louvre", "bulk"]);
    let _ = std::fs::remove_dir_all(&dir);
}
