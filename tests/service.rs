//! Contract tests for the `orderlight serve` service surface: served
//! replies are bit-identical to direct in-process runs, repeated
//! requests hit the scenario cache, many concurrent clients are served
//! correctly, and every error path (malformed JSON, bad schema
//! version, unknown field, mid-run disconnect) yields a typed reply —
//! never a panic, a dropped connection without a reply, or a wedged
//! worker.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use orderlight_suite::core::rng::Rng;

use orderlight_suite::sim::schema::{stats_to_value, ScenarioSpec, SCENARIO_SCHEMA_V1};
use orderlight_suite::sim::service::{
    extract_stats, reply_kind, request, Server, FLIGHTREC_SCHEMA_V1, MAX_LINE_BYTES,
    SERVICE_METRICS_SCHEMA_V1, SERVICE_STATS_SCHEMA_V1,
};
use orderlight_suite::trace::json;

/// Binds a server on an ephemeral loopback port and runs it on a
/// background thread. Send `{"cmd":"shutdown"}` and join the handle to
/// tear it down.
fn start_server(workers: usize) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    start_configured(Server::bind("127.0.0.1:0", workers).expect("bind loopback"))
}

fn start_configured(server: Server) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let replies = request(addr, r#"{"cmd":"shutdown"}"#).expect("shutdown request");
    assert_eq!(reply_kind(replies.last().expect("bye reply")).as_deref(), Some("bye"));
    handle.join().expect("server thread joins").expect("server exits cleanly");
}

/// A small, fast scenario request (the fig05 shape: Add under
/// OrderLight).
fn add_request() -> String {
    format!(r#"{{"schema": "{SCENARIO_SCHEMA_V1}", "workload": "Add", "data_kb": 8}}"#)
}

/// What a direct in-process run of [`add_request`] serialises to.
fn direct_stats() -> String {
    let spec = ScenarioSpec::parse_str(&add_request()).expect("request parses");
    let stats = spec.build().expect("scenario builds").run().expect("scenario runs");
    stats_to_value(&stats).to_json()
}

/// The terminal reply of one served request, parsed.
fn result_of(addr: &str, line: &str) -> json::Value {
    let replies = request(addr, line).expect("request round-trips");
    let last = replies.last().expect("a terminal reply");
    json::parse(last).expect("terminal reply parses")
}

#[test]
fn served_reply_is_bit_identical_and_repeat_hits_the_cache() {
    let (addr, handle) = start_server(2);
    let expected = direct_stats();

    let first = result_of(&addr, &add_request());
    assert_eq!(first.get("reply").and_then(json::Value::as_str), Some("result"));
    assert_eq!(first.get("cached").and_then(json::Value::as_bool), Some(false));
    assert!(first.get("slo").and_then(|s| s.get("p50")).is_some(), "SLO percentiles present");
    assert_eq!(
        first.get("stats").expect("stats present").to_json(),
        expected,
        "served stats must be byte-identical to a direct run"
    );

    let second = result_of(&addr, &add_request());
    assert_eq!(
        second.get("cached").and_then(json::Value::as_bool),
        Some(true),
        "repeated request must be answered from the cache"
    );
    assert_eq!(second.get("stats").expect("stats present").to_json(), expected);

    shutdown(&addr, handle);
}

#[test]
fn eight_concurrent_clients_all_get_exact_replies() {
    let (addr, handle) = start_server(4);
    let expected = direct_stats();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let addr = &addr;
                scope.spawn(move || {
                    // Tag each request with an id to prove reply routing.
                    let line = format!(
                        r#"{{"id": {i}, "schema": "{SCENARIO_SCHEMA_V1}", "workload": "Add", "data_kb": 8}}"#
                    );
                    let replies = request(addr, &line).expect("request round-trips");
                    let last = replies.last().expect("terminal reply").clone();
                    (i, last)
                })
            })
            .collect();
        for h in handles {
            let (i, last) = h.join().expect("client thread joins");
            let doc = json::parse(&last).expect("reply parses");
            assert_eq!(
                doc.get("id").and_then(json::Value::as_f64),
                Some(f64::from(i)),
                "reply must echo the request id"
            );
            let stats = extract_stats(&last).expect("a result reply");
            assert_eq!(stats, expected, "client {i}: served stats must match a direct run");
        }
    });
    shutdown(&addr, handle);
}

#[test]
fn error_surfaces_are_typed_replies() {
    let (addr, handle) = start_server(1);
    let cases = [
        ("{not json", "parse"),
        (r#"{"workload": "Add"}"#, "schema"), // missing version
        (r#"{"schema": "orderlight/scenario/v2", "workload": "Add"}"#, "schema"), // bad version
        (
            &format!(r#"{{"schema": "{SCENARIO_SCHEMA_V1}", "workload": "Add", "bmg": 4}}"#),
            "schema",
        ), // unknown field
        (
            &format!(r#"{{"schema": "{SCENARIO_SCHEMA_V1}", "workload": "Add", "bmf": 0}}"#),
            "config",
        ), // fields valid, config inconsistent
        (r#"{"cmd": "reboot"}"#, "proto"),
    ];
    for (line, kind) in cases {
        let doc = result_of(&addr, line);
        assert_eq!(
            doc.get("reply").and_then(json::Value::as_str),
            Some("error"),
            "{line} must produce an error reply"
        );
        assert_eq!(
            doc.get("kind").and_then(json::Value::as_str),
            Some(kind),
            "{line} must be typed '{kind}'"
        );
        assert!(
            doc.get("message").and_then(json::Value::as_str).is_some_and(|m| !m.is_empty()),
            "{line} must carry a message"
        );
    }
    // The connection and workers survive every error: a real request
    // still round-trips afterwards.
    let ok = result_of(&addr, &add_request());
    assert_eq!(ok.get("reply").and_then(json::Value::as_str), Some("result"));
    shutdown(&addr, handle);
}

#[test]
fn mid_run_disconnect_does_not_lose_the_run_or_wedge_a_worker() {
    let (addr, handle) = start_server(1);
    // Fire a request and hang up immediately, before any reply can be
    // consumed — the single worker must survive the dead client.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(add_request().as_bytes()).expect("send request");
        stream.write_all(b"\n").expect("send newline");
        // Dropping the stream here closes the socket mid-run.
    }
    // The same scenario from a live client still completes — and once
    // the abandoned run finishes, the cache retains its result, so
    // this reply eventually comes back cached (either from our own run
    // or the abandoned one; both are byte-identical by determinism).
    let expected = direct_stats();
    let doc = result_of(&addr, &add_request());
    assert_eq!(doc.get("reply").and_then(json::Value::as_str), Some("result"));
    assert_eq!(doc.get("stats").expect("stats present").to_json(), expected);
    let again = result_of(&addr, &add_request());
    assert_eq!(again.get("cached").and_then(json::Value::as_bool), Some(true));
    shutdown(&addr, handle);
}

/// Reads reply lines off a persistent connection up to the terminal
/// one, parsed.
fn terminal_reply(reader: &mut BufReader<TcpStream>) -> json::Value {
    let mut line = String::new();
    loop {
        line.clear();
        assert!(reader.read_line(&mut line).expect("reply line") > 0, "connection closed");
        let doc = json::parse(line.trim()).expect("reply parses");
        let kind = doc.get("reply").and_then(json::Value::as_str).expect("reply kind");
        if !matches!(kind, "accepted" | "running") {
            return doc;
        }
    }
}

/// A request line whose bytes straddle the daemon's 100 ms read poll
/// must be reassembled, not dropped: the line is sent in two parts with
/// a 250 ms pause between them, split at a seeded byte offset — and
/// once inside a multi-byte character of the echoed id — and the reply
/// must be the exact result of a direct run.
#[test]
fn request_line_split_across_the_read_poll_is_reassembled() {
    let (addr, handle) = start_server(1);
    let expected = direct_stats();
    let line = format!(
        "{{\"id\": \"split-\u{e9}\", \"schema\": \"{SCENARIO_SCHEMA_V1}\", \"workload\": \"Add\", \"data_kb\": 8}}\n"
    );
    let bytes = line.as_bytes();
    let mid_char = line.find('\u{e9}').expect("id has a two-byte char") + 1;
    let mut rng = Rng::new(0x005b_117e);
    let seeded = 1 + (rng.next_u64() % (bytes.len() as u64 - 2)) as usize;
    for split in [seeded, mid_char] {
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone stream");
        writer.write_all(&bytes[..split]).expect("send first part");
        std::thread::sleep(Duration::from_millis(250));
        writer.write_all(&bytes[split..]).expect("send second part");
        let doc = terminal_reply(&mut BufReader::new(stream));
        assert_eq!(
            doc.get("reply").and_then(json::Value::as_str),
            Some("result"),
            "split at byte {split}: {}",
            doc.to_json()
        );
        assert_eq!(doc.get("id").and_then(json::Value::as_str), Some("split-\u{e9}"));
        assert_eq!(doc.get("stats").expect("stats present").to_json(), expected);
    }
    shutdown(&addr, handle);
}

/// A 500 KB line of `[` used to overflow the parser's stack and kill
/// the daemon; it must get a typed `parse` error on a connection that
/// then still serves a normal request.
#[test]
fn deeply_nested_line_is_a_parse_error_and_the_daemon_survives() {
    let (addr, handle) = start_server(1);
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut bomb = "[".repeat(500_000);
    bomb.push('\n');
    writer.write_all(bomb.as_bytes()).expect("send nested line");
    let doc = terminal_reply(&mut reader);
    assert_eq!(doc.get("reply").and_then(json::Value::as_str), Some("error"));
    assert_eq!(doc.get("kind").and_then(json::Value::as_str), Some("parse"));
    writer.write_all(format!("{}\n", add_request()).as_bytes()).expect("send request");
    let ok = terminal_reply(&mut reader);
    assert_eq!(ok.get("reply").and_then(json::Value::as_str), Some("result"));
    assert_eq!(ok.get("stats").expect("stats present").to_json(), direct_stats());
    shutdown(&addr, handle);
}

/// A request line that is not UTF-8 used to drop the connection without
/// a reply. A 0xFF byte at a seeded offset must get a typed `parse`
/// error, and the same connection must then serve a normal request
/// exactly.
#[test]
fn invalid_utf8_line_is_a_parse_error_on_a_live_connection() {
    let (addr, handle) = start_server(1);
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut bad = add_request().into_bytes();
    let mut rng = Rng::new(0x0ff_0ff);
    let at = (rng.next_u64() % bad.len() as u64) as usize;
    bad[at] = 0xFF;
    bad.push(b'\n');
    writer.write_all(&bad).expect("send invalid line");
    let doc = terminal_reply(&mut reader);
    assert_eq!(doc.get("reply").and_then(json::Value::as_str), Some("error"), "byte {at}");
    assert_eq!(doc.get("kind").and_then(json::Value::as_str), Some("parse"));
    assert!(doc.get("message").and_then(json::Value::as_str).is_some_and(|m| m.contains("UTF-8")));
    writer.write_all(format!("{}\n", add_request()).as_bytes()).expect("send request");
    let ok = terminal_reply(&mut reader);
    assert_eq!(ok.get("reply").and_then(json::Value::as_str), Some("result"));
    assert_eq!(ok.get("stats").expect("stats present").to_json(), direct_stats());
    shutdown(&addr, handle);
}

/// A line longer than `MAX_LINE_BYTES` is never buffered whole: a 2 MiB
/// line gets a typed `proto` error, counted in the metrics plane, and
/// its connection closes — while a concurrent client is served exactly.
#[test]
fn oversized_line_is_a_proto_error_and_a_concurrent_client_is_served_exactly() {
    let (addr, handle) = start_server(2);
    let expected = direct_stats();
    std::thread::scope(|scope| {
        let other = scope.spawn(|| result_of(&addr, &add_request()));
        let stream = TcpStream::connect(&addr).expect("connect");
        // A daemon that kept the connection open would hang the read.
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        let mut writer = stream.try_clone().expect("clone stream");
        let sender = scope.spawn(move || {
            let mut line = "x".repeat(2 * MAX_LINE_BYTES);
            line.push('\n');
            writer.write_all(line.as_bytes())
        });
        let replies: Vec<String> =
            BufReader::new(stream).lines().collect::<Result<_, _>>().expect("replies, then EOF");
        sender.join().expect("sender joins").expect("the daemon reads the whole line");
        assert_eq!(replies.len(), 1, "one reply, then the connection closes: {replies:?}");
        let doc = json::parse(&replies[0]).expect("reply parses");
        assert_eq!(doc.get("reply").and_then(json::Value::as_str), Some("error"));
        assert_eq!(doc.get("kind").and_then(json::Value::as_str), Some("proto"));
        let ok = other.join().expect("client joins");
        assert_eq!(ok.get("stats").expect("stats present").to_json(), expected);
    });
    let snap = metrics_snapshot(&addr);
    assert_eq!(counter(&snap, "requests", "received"), 3.0);
    assert_eq!(counter(&snap, "requests", "result"), 1.0);
    assert_eq!(counter(&snap, "requests", "error"), 1.0);
    shutdown(&addr, handle);
}

/// A scenario too large for the banks is a typed error reply, never a
/// worker panic: `data_kb` values the layout cannot place (one that also
/// overflows the default cycle budget) get a `config` error, and one
/// whose byte count overflows `u64` a `schema` error. The workload and
/// the order of the oversized requests are seeded; a concurrent
/// well-behaved client is still served the exact direct-run result.
#[test]
fn oversized_scenarios_are_typed_errors_and_a_concurrent_client_is_served_exactly() {
    let (addr, handle) = start_server(2);
    let expected = direct_stats();
    let mut rng = Rng::new(0x0b16_da7a);
    let mut cases = [
        (100_000_000u64, "config"),
        (9_000_000_000_000_000, "config"),
        (20_000_000_000_000_000, "schema"),
    ];
    rng.shuffle(&mut cases);
    let workloads = ["Add", "Scale", "Triad", "Hist"];
    std::thread::scope(|scope| {
        let other = scope.spawn(|| result_of(&addr, &add_request()));
        for (data_kb, kind) in cases {
            let workload = workloads[rng.gen_index(workloads.len())];
            let mode = if rng.gen_bool(1, 2) { "gpu" } else { "orderlight" };
            let line = format!(
                r#"{{"schema": "{SCENARIO_SCHEMA_V1}", "workload": "{workload}", "mode": "{mode}", "data_kb": {data_kb}}}"#
            );
            let doc = result_of(&addr, &line);
            assert_eq!(doc.get("reply").and_then(json::Value::as_str), Some("error"), "{line}");
            assert_eq!(doc.get("kind").and_then(json::Value::as_str), Some(kind), "{line}");
        }
        let ok = other.join().expect("client joins");
        assert_eq!(ok.get("stats").expect("stats present").to_json(), expected);
    });
    let snap = metrics_snapshot(&addr);
    assert_eq!(counter(&snap, "requests", "result"), 1.0);
    assert_eq!(counter(&snap, "requests", "error"), 3.0);
    shutdown(&addr, handle);
}

#[test]
fn stats_command_reports_hits_misses_and_cache_occupancy() {
    let (addr, handle) = start_server(1);
    let _ = result_of(&addr, &add_request());
    let _ = result_of(&addr, &add_request());
    let doc = result_of(&addr, r#"{"cmd": "stats"}"#);
    assert_eq!(doc.get("reply").and_then(json::Value::as_str), Some("stats"));
    assert_eq!(
        doc.get("schema").and_then(json::Value::as_str),
        Some(SERVICE_STATS_SCHEMA_V1),
        "the stats reply is schema-versioned like scenario/v1"
    );
    assert_eq!(doc.get("misses").and_then(json::Value::as_f64), Some(1.0));
    assert_eq!(doc.get("hits").and_then(json::Value::as_f64), Some(1.0));
    assert_eq!(doc.get("hit_ratio").and_then(json::Value::as_f64), Some(0.5));
    assert_eq!(doc.get("cached_scenarios").and_then(json::Value::as_f64), Some(1.0));
    assert_eq!(doc.get("cache_size").and_then(json::Value::as_f64), Some(1.0));
    assert_eq!(doc.get("cache_max").and_then(json::Value::as_f64), Some(0.0));
    assert_eq!(doc.get("insertions").and_then(json::Value::as_f64), Some(1.0));
    assert_eq!(doc.get("evictions").and_then(json::Value::as_f64), Some(0.0));
    shutdown(&addr, handle);
}

/// Helper: a scenario request distinct from [`add_request`].
fn other_request(data_kb: u64) -> String {
    format!(r#"{{"schema": "{SCENARIO_SCHEMA_V1}", "workload": "Add", "data_kb": {data_kb}}}"#)
}

/// Helper: the metrics snapshot of a running server.
fn metrics_snapshot(addr: &str) -> json::Value {
    let doc = result_of(addr, r#"{"cmd": "metrics"}"#);
    assert_eq!(doc.get("reply").and_then(json::Value::as_str), Some("metrics"));
    assert_eq!(
        doc.get("schema").and_then(json::Value::as_str),
        Some(SERVICE_METRICS_SCHEMA_V1),
        "the metrics reply is schema-versioned"
    );
    doc.get("snapshot").expect("snapshot present").clone()
}

fn counter(snap: &json::Value, group: &str, key: &str) -> f64 {
    snap.get(group)
        .and_then(|g| g.get(key))
        .and_then(json::Value::as_f64)
        .unwrap_or_else(|| panic!("metric {group}.{key} missing"))
}

#[test]
fn evicted_scenario_recomputes_bit_identically() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind loopback").with_cache_max(1);
    let (addr, handle) = start_configured(server);
    let expected = direct_stats();

    let first = result_of(&addr, &add_request());
    assert_eq!(first.get("cached").and_then(json::Value::as_bool), Some(false));
    // A second, distinct scenario evicts the first (cache bound is 1).
    let other = result_of(&addr, &other_request(16));
    assert_eq!(other.get("cached").and_then(json::Value::as_bool), Some(false));

    let stats = result_of(&addr, r#"{"cmd": "stats"}"#);
    assert_eq!(stats.get("cache_size").and_then(json::Value::as_f64), Some(1.0));
    assert_eq!(stats.get("cache_max").and_then(json::Value::as_f64), Some(1.0));
    assert_eq!(stats.get("insertions").and_then(json::Value::as_f64), Some(2.0));
    assert_eq!(stats.get("evictions").and_then(json::Value::as_f64), Some(1.0));
    let snap = metrics_snapshot(&addr);
    assert_eq!(counter(&snap, "cache", "insertions"), 2.0);
    assert_eq!(counter(&snap, "cache", "evictions"), 1.0);
    assert_eq!(counter(&snap, "cache", "size"), 1.0);

    // Re-submitting the evicted scenario recomputes — a miss again —
    // and the recomputed stats are byte-identical to the original run.
    let again = result_of(&addr, &add_request());
    assert_eq!(
        again.get("cached").and_then(json::Value::as_bool),
        Some(false),
        "evicted scenario must recompute"
    );
    assert_eq!(again.get("stats").expect("stats present").to_json(), expected);
    assert_eq!(first.get("stats").expect("stats present").to_json(), expected);
    shutdown(&addr, handle);
}

#[test]
fn metrics_counters_are_exact_under_a_serialized_session() {
    let (addr, handle) = start_server(1);
    // Scripted single-client session: one miss, one hit, one schema
    // error — each request's telemetry commits before its terminal
    // reply, so the very next snapshot reflects it exactly.
    let _ = result_of(&addr, &add_request());
    let _ = result_of(&addr, &add_request());
    let err = result_of(&addr, r#"{"workload": "Add"}"#);
    assert_eq!(err.get("reply").and_then(json::Value::as_str), Some("error"));

    let snap = metrics_snapshot(&addr);
    // The metrics request itself is the 4th received request.
    assert_eq!(counter(&snap, "requests", "received"), 4.0);
    assert_eq!(counter(&snap, "requests", "accepted"), 1.0);
    assert_eq!(counter(&snap, "requests", "running"), 1.0);
    assert_eq!(counter(&snap, "requests", "result"), 2.0);
    assert_eq!(counter(&snap, "requests", "error"), 1.0);
    assert_eq!(counter(&snap, "cache", "hits"), 1.0);
    assert_eq!(counter(&snap, "cache", "misses"), 1.0);
    assert_eq!(counter(&snap, "cache", "insertions"), 1.0);
    assert_eq!(counter(&snap, "cache", "evictions"), 0.0);
    assert_eq!(counter(&snap, "cache", "size"), 1.0);
    assert_eq!(counter(&snap, "queue", "depth"), 0.0);
    assert_eq!(counter(&snap, "workers", "jobs"), 1.0);
    assert_eq!(counter(&snap, "workers", "busy"), 0.0);
    shutdown(&addr, handle);
}

#[test]
fn metrics_deterministic_groups_are_byte_identical_across_sessions() {
    // Two fresh servers replay the same serialized script; the
    // deterministic snapshot groups (requests / cache / queue) must
    // serialise to identical bytes. io/workers/timing are wall-clock
    // and only monotone, so they are excluded by construction.
    let session = || {
        let (addr, handle) = start_server(1);
        let _ = result_of(&addr, &add_request());
        let _ = result_of(&addr, &add_request());
        let _ = result_of(&addr, "{not json");
        let snap = metrics_snapshot(&addr);
        shutdown(&addr, handle);
        ["requests", "cache", "queue"]
            .map(|g| snap.get(g).unwrap_or_else(|| panic!("group {g} missing")).to_json())
    };
    let a = session();
    let b = session();
    assert_eq!(a, b, "deterministic metric groups must be byte-identical across sessions");
}

#[test]
fn metrics_stay_monotonic_under_concurrent_clients() {
    let (addr, handle) = start_server(4);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let addr = &addr;
            scope.spawn(move || {
                let replies = request(addr, &add_request()).expect("request round-trips");
                assert_eq!(reply_kind(replies.last().expect("reply")).as_deref(), Some("result"));
            });
        }
    });
    let first = metrics_snapshot(&addr);
    assert_eq!(counter(&first, "requests", "result"), 8.0);
    assert_eq!(
        counter(&first, "cache", "hits") + counter(&first, "cache", "misses"),
        8.0,
        "every request is attributed to a hit or a miss"
    );
    assert!(counter(&first, "cache", "misses") >= 1.0);
    assert_eq!(counter(&first, "queue", "depth"), 0.0, "queue drains");
    // A later snapshot never decreases any counter.
    let second = metrics_snapshot(&addr);
    for group in ["requests", "cache", "io", "workers"] {
        let json::Value::Obj(map) = first.get(group).expect("group present") else {
            panic!("group {group} is not an object");
        };
        for (key, value) in map {
            if matches!((group, key.as_str()), ("workers", "busy") | ("cache", "size")) {
                continue; // gauges may legitimately move down
            }
            let was = value.as_f64().expect("scalar metric");
            let now = counter(&second, group, key);
            assert!(now >= was, "{group}.{key} regressed: {was} -> {now}");
        }
    }
    shutdown(&addr, handle);
}

#[test]
fn telemetry_is_observe_only_and_spans_ride_the_result() {
    let with = start_server(1);
    let server = Server::bind("127.0.0.1:0", 1).expect("bind loopback").with_telemetry(false);
    let without = start_configured(server);

    let on = result_of(&with.0, &add_request());
    let off = result_of(&without.0, &add_request());
    // The observe-only contract: run results are byte-identical with
    // telemetry enabled vs disabled.
    assert_eq!(
        on.get("stats").expect("stats present").to_json(),
        off.get("stats").expect("stats present").to_json(),
        "telemetry must not change the served result"
    );
    // Spans ride the result reply only when telemetry is on, and cover
    // the full phase vocabulary.
    let span = on.get("span").expect("span rides the result reply with telemetry on");
    for phase in ["parse_us", "queue_us", "run_us", "serialize_us", "write_us"] {
        assert!(span.get(phase).and_then(json::Value::as_f64).is_some(), "{phase} present");
    }
    assert!(off.get("span").is_none(), "no span without telemetry");
    // Metrics surfaces answer a typed error when telemetry is off —
    // never a dropped connection.
    for cmd in [r#"{"cmd": "metrics"}"#, r#"{"cmd": "flightrec"}"#] {
        let doc = result_of(&without.0, cmd);
        assert_eq!(doc.get("reply").and_then(json::Value::as_str), Some("error"));
        assert_eq!(doc.get("kind").and_then(json::Value::as_str), Some("proto"));
    }
    // Stats still works without telemetry (it predates the plane).
    let stats = result_of(&without.0, r#"{"cmd": "stats"}"#);
    assert_eq!(stats.get("misses").and_then(json::Value::as_f64), Some(1.0));
    shutdown(&with.0, with.1);
    shutdown(&without.0, without.1);
}

#[test]
fn flight_recorder_holds_recent_requests_and_error_payloads() {
    let (addr, handle) = start_server(1);
    let _ = result_of(&addr, &add_request());
    let _ = result_of(&addr, &add_request());
    let _ = result_of(&addr, "{not json");

    let doc = result_of(&addr, r#"{"cmd": "flightrec"}"#);
    assert_eq!(doc.get("reply").and_then(json::Value::as_str), Some("flightrec"));
    assert_eq!(doc.get("schema").and_then(json::Value::as_str), Some(FLIGHTREC_SCHEMA_V1));
    let requests = doc.get("requests").and_then(json::Value::as_array).expect("request ring");
    assert_eq!(requests.len(), 3);
    let outcomes: Vec<&str> =
        requests.iter().filter_map(|r| r.get("outcome").and_then(json::Value::as_str)).collect();
    assert_eq!(outcomes, ["result-miss", "result-hit", "error:parse"]);
    // Both scenario requests carry the same canonical hash and a full
    // phase breakdown.
    let hashes: Vec<&str> = requests
        .iter()
        .filter_map(|r| r.get("scenario_hash").and_then(json::Value::as_str))
        .collect();
    assert_eq!(hashes.len(), 2);
    assert_eq!(hashes[0], hashes[1]);
    assert!(requests[0].get("phases").and_then(|p| p.get("run_us")).is_some());
    // The parse failure's payload landed in the error ring.
    let errors = doc.get("errors").and_then(json::Value::as_array).expect("error ring");
    assert_eq!(errors.len(), 1);
    assert!(errors[0].as_str().expect("payload is a string").contains("\"kind\":\"parse\""));
    shutdown(&addr, handle);
}
