//! The documents the `orderlight` binary writes: the per-epoch
//! `counters.csv` of `trace`, the `orderlight/profile/v1` report that
//! `profile-verify` re-checks, and the `orderlight/bench-sweep/v6`
//! record of `compare-ordering` that `bench --compare` reads. Every JSON document built through the
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
fn compare_ordering_records_every_backend_in_a_bench_document() {
    let dir = scratch("compare");
    let out = dir.join("cmp.json");
    assert_ok(
        &orderlight(&["compare-ordering", "--data-kb", "4", "--out", path_str(&out)]),
        "compare-ordering",
    );
    let doc = canonical(&out);
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("orderlight/bench-sweep/v6"));
    assert_eq!(doc.get("core").and_then(Value::as_str), Some("event"));
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

/// A `check --mutate CH:G` that elides no ordering edge broke nothing,
/// yet its gate used to report "oracle stayed silent on a broken
/// schedule". A channel the system does not have is now rejected before
/// anything runs; a mutation no edge matches (GPU mode has none) says
/// so.
#[test]
fn check_mutate_says_when_no_ordering_edge_was_elided() {
    let missing = orderlight(&["check", "--mutate", "99:0", "--data-kb", "4"]);
    let stderr = String::from_utf8_lossy(&missing.stderr);
    assert_eq!(missing.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("drop_edge channel = 99, valid range 0..16"), "{stderr}");
    assert!(!String::from_utf8_lossy(&missing.stdout).contains("mutation gate"));

    let gpu = orderlight(&["check", "--mode", "gpu", "--mutate", "0:0", "--data-kb", "4"]);
    let stdout = String::from_utf8_lossy(&gpu.stdout);
    assert_eq!(gpu.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FAIL (no ordering edge matched 0:0;"), "{stdout}");
    assert!(!stdout.contains("stayed silent"), "{stdout}");
}

/// `bench` lost its `--quick`, `--profile` and `--threshold` knobs: each
/// is a usage error before anything runs. `--compare` is exact, so a
/// record compared with itself passes.
#[test]
fn bench_rejects_the_removed_knobs_and_compares_a_record_with_itself() {
    for args in [
        &["bench", "--quick"][..],
        &["bench", "--profile"],
        &["bench", "--compare", "a.json", "b.json", "--threshold", "5"],
    ] {
        let run = orderlight(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed {}", String::from_utf8_lossy(&run.stdout));
    }
    let dir = scratch("bench-compare");
    let record = dir.join("record.json");
    std::fs::write(&record, "{\"schema\":\"orderlight/bench-sweep/v6\",\"data_kb\":8}\n")
        .expect("write record");
    let path = path_str(&record);
    assert_ok(&orderlight(&["bench", "--compare", path, path]), "bench --compare X X");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that stops early (`orderlight trace | head -1`) ends the
/// binary quietly: status 0 and nothing on stderr, where every later
/// write used to panic with "failed printing to stdout".
#[test]
fn closed_stdout_ends_the_binary_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let dir = scratch("pipe");
    let out = dir.join("add");
    let mut child = Command::new(env!("CARGO_BIN_EXE_orderlight"))
        .args(["trace", "--data-kb", "4", "--out", path_str(&out)])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn orderlight");
    let mut first = String::new();
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    stdout.read_line(&mut first).expect("first line");
    assert!(first.starts_with("tracing"), "got {first:?}");
    // The run, its charts and its histograms are all written after the
    // reader is gone.
    drop(stdout);
    let mut stderr = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).expect("stderr");
    let status = child.wait().expect("orderlight exits");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(status.success(), "status {status}, stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A usage error whose stderr reader has gone away
/// (`orderlight run --bogus 2>&1 | head -1`) still exits 2: writing the
/// error and the synopsis to a closed stderr used to panic, exiting 101.
#[test]
fn closed_stderr_keeps_the_usage_exit_status() {
    use std::process::Stdio;

    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_orderlight"))
        .args(["run", "--bogus"])
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("run orderlight");
    assert_eq!(status.code(), Some(2), "status {status}");
}

/// A `--data-kb` or `ORDERLIGHT_DATA_KB` whose byte count overflows
/// `u64` is a usage error: 2^54 + 1 KiB used to wrap to 1 KiB, and
/// `figure` and `sweep` silently ran and labelled a 1 KiB sweep.
#[test]
fn overflowing_data_kb_is_rejected_before_anything_runs() {
    const KB: &str = "18014398509481985";
    for args in [["figure", "fig05"], ["sweep", "fig05"]] {
        let by_flag = orderlight(&[args[0], args[1], "--data-kb", KB]);
        let by_env = Command::new(env!("CARGO_BIN_EXE_orderlight"))
            .args(args)
            .env("ORDERLIGHT_DATA_KB", KB)
            .output()
            .expect("run orderlight");
        for (run, source) in [(by_flag, "--data-kb"), (by_env, "ORDERLIGHT_DATA_KB")] {
            assert!(!run.status.success(), "{args:?} with {source} must fail");
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(stdout.is_empty(), "{args:?} with {source} printed {stdout:?}");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(stderr.contains(&format!("invalid value '{KB}' for {source}")), "{stderr}");
        }
    }
}

/// Every subcommand reads its flags through one parser, so a bad flag
/// is one of three usage errors, worded alike everywhere and reported
/// before anything runs: a flag the subcommand does not read, a value
/// flag last on the line, or a value its flag rejects. `--bogus` used to
/// read as "missing value for --bogus" on eight subcommands, and `list`
/// and `schema` ignored flags altogether. An `ORDERLIGHT_*` variable the
/// subcommand reads is checked like the flag it stands for.
#[test]
fn every_subcommand_rejects_a_bad_flag_in_the_same_words() {
    const SUBCOMMANDS: [&str; 15] = [
        "run",
        "check",
        "trace",
        "profile",
        "profile-verify",
        "sweep",
        "figure",
        "compare-ordering",
        "bench",
        "serve",
        "submit",
        "top",
        "schema",
        "list",
        "taxonomy",
    ];
    let bogus = SUBCOMMANDS.map(|command| (vec![command, "--bogus"], "unknown flag --bogus"));
    // Every command runs the event core; the ten that once took a core
    // choice reject the flag like any other.
    let core = [
        "run",
        "check",
        "trace",
        "profile",
        "sweep",
        "figure",
        "compare-ordering",
        "bench",
        "serve",
        "submit",
    ]
    .map(|command| (vec![command, "--core", "event"], "unknown flag --core"));
    let others = [
        (vec!["trace", "--out"], "missing value for --out"),
        (vec!["profile", "Add", "--data-kb"], "missing value for --data-kb"),
        (vec!["figure", "fig05", "--jobs"], "missing value for --jobs"),
        (vec!["submit", "--addr"], "missing value for --addr"),
        (vec!["top", "--interval-ms"], "missing value for --interval-ms"),
        (vec!["run", "--ts", "3"], "invalid value '3' for --ts"),
        (vec!["trace", "--events", "0"], "invalid value '0' for --events"),
        (vec!["profile", "--events", "0"], "invalid value '0' for --events"),
        (vec!["sweep", "-j", "many"], "invalid value 'many' for -j"),
        (vec!["schema", "--jobs", "2"], "unknown flag --jobs"),
        (vec!["run", "--seed", "1"], "unknown flag --seed"),
        (vec!["list", "--core", "event"], "unknown flag --core"),
        (vec!["compare-ordering", "--jobs", "2"], "unknown flag --jobs"),
        (vec!["run", "--ordering", "fence"], "unknown flag --ordering"),
        (vec!["sweep", "--jobs", "0"], "invalid value '0' for --jobs"),
        (vec!["figure", "fig05", "-j", "257"], "invalid value '257' for -j"),
        (
            vec!["bench", "--out", "/nonexistent/x.json", "--data-kb", "4", "--compare", "r", "r"],
            "unknown flag --out",
        ),
    ];
    // An invalid `ORDERLIGHT_JOBS` used to be ignored; it is the same
    // usage error, naming the variable.
    let from_env = [
        (vec!["sweep", "--data-kb", "4"], ("ORDERLIGHT_JOBS", "many")),
        (vec!["sweep", "--data-kb", "4"], ("ORDERLIGHT_JOBS", "0")),
    ]
    .map(|(args, (var, value))| {
        (args, Some((var, value)), format!("invalid value '{value}' for {var}"))
    });
    let rows = bogus
        .into_iter()
        .chain(core)
        .chain(others)
        .map(|(args, message)| (args, None, message.into()));
    for (args, env, message) in rows.chain(from_env) {
        let mut command = Command::new(env!("CARGO_BIN_EXE_orderlight"));
        command.args(&args).envs(env);
        let run = command.output().expect("run orderlight");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} printed {}", String::from_utf8_lossy(&run.stdout));
        let mut lines = stderr.lines();
        assert_eq!(lines.next(), Some(message.as_str()), "{args:?} {env:?}");
        assert_eq!(lines.next(), Some("usage:"), "{args:?}: the synopsis follows");
    }
}
