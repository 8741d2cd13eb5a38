//! The `serve-mix` workload: an in-process `orderlight serve` daemon
//! driven by closed-loop clients on persistent connections.
//!
//! A run is a series of rounds. Each round binds a fresh server (empty
//! cache) and lets every client work through its seeded request
//! sequence: its share of the universe asked once (cold), then asked
//! again (cached), as when a sweep is submitted and then re-run. Every
//! reply's `stats` payload must byte-equal a direct, untimed in-process
//! run of the same scenario.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use orderlight_sim::service::{self, Server};
use orderlight_sim::{Pool, RunStats, ScenarioSpec};
use orderlight_trace::json::Value;
use orderlight_trace::SpanPhases;

use crate::check::{check_digest, classify, percentile, stats_json, Digest, Reply};
use crate::host::{self, HostStart};
use crate::layers::{layer_pass, sim_metrics};
use crate::points::{key, Request, ServePlan, Workload};
use crate::report::{Metrics, Outcome};
use crate::spans::Recorder;
use crate::sweep::timed_point;
use crate::{end_to_end_metrics, host_metrics, EndToEnd};

/// How long a client waits for a reply line before giving up on the
/// server, so a wedged daemon fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Rounds that only set a server up and shut it down again, before each
/// serving round: samples for the median `setup_s`.
const SETUP_ROUNDS: usize = 20;

/// The `stats` request: each client's readiness probe before the window,
/// and the source of the traced run's cache hit counts.
const STATS_REQUEST: &str = "{\"cmd\":\"stats\"}\n";

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// The reply's `"cached"` flag.
    cached: bool,
    /// Client-side latency: request write to terminal reply read.
    latency_s: f64,
    /// The server's phase span for the request.
    span: Option<SpanPhases>,
}

/// What the traced run learns about the service layer.
#[derive(Debug, Default)]
pub struct ServiceLayer {
    samples: Vec<Sample>,
    hits: f64,
    misses: f64,
    busy_us: f64,
    idle_us: f64,
}

/// A client on one persistent connection, reading every reply line.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Sends one request line and reads reply lines up to the terminal
    /// one, which it returns.
    fn ask(&mut self, request: &str) -> std::io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "server hung up"));
            }
            let kind = service::reply_kind(&self.line);
            if !matches!(kind.as_deref(), Some("accepted" | "running")) {
                return Ok(self.line.trim_end().to_string());
            }
        }
    }
}

/// The wire request for `spec`, tagged with `id`, newline-terminated.
fn request_line(spec: &ScenarioSpec, id: u64) -> String {
    let Value::Obj(mut map) = spec.to_value() else { unreachable!("a spec is an object") };
    #[allow(clippy::cast_precision_loss)]
    map.insert("id".to_string(), Value::Num(id as f64));
    let mut line = Value::Obj(map).to_json();
    line.push('\n');
    line
}

/// Checks a terminal reply against the direct run and the expected
/// cache behaviour.
fn check_reply(
    line: &str,
    req: &Request,
    reference: &HashMap<String, String>,
) -> Result<(bool, Option<SpanPhases>), String> {
    let key = key(&req.spec);
    match classify(line) {
        Reply::Result { cached, stats, span } => {
            if reference.get(&key) != Some(&stats) {
                return Err(format!("{key}: served stats differ from the direct run"));
            }
            if cached != req.hot {
                return Err(format!("{key}: expected cached={}, got cached={cached}", req.hot));
            }
            Ok((cached, span))
        }
        Reply::Error(kind) => Err(format!("{key}: typed `{kind}` error reply")),
        Reply::Other => Err(format!("{key}: unexpected reply {line}")),
    }
}

/// What one client did with its request list.
#[derive(Default)]
struct Driven {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    runqueue_wait_ns: u64,
}

/// Works through `requests` in a closed loop, one at a time.
fn drive(
    client: &mut Client,
    requests: &[Request],
    first_id: u64,
    reference: &HashMap<String, String>,
    rec: &Recorder,
    parent: u64,
) -> Driven {
    let wait_start = host::thread_runqueue_wait_ns();
    let mut d = Driven::default();
    for (i, req) in (first_id..).zip(requests) {
        let line = request_line(&req.spec, i);
        let start = Instant::now();
        let reply = client.ask(&line);
        let latency_s = start.elapsed().as_secs_f64();
        d.attempted += 1;
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                // The connection is gone: every request left fails.
                let left = (requests.len() as u64).saturating_sub(d.attempted);
                d.attempted += left;
                d.failed += 1 + left;
                d.failures.push(format!("{}: connection lost: {e}", key(&req.spec)));
                break;
            }
        };
        match check_reply(&reply, req, reference) {
            Ok((cached, span)) => {
                record_request_spans(rec, parent, start, latency_s, span);
                d.samples.push(Sample { cached, latency_s, span });
            }
            Err(msg) => {
                d.failed += 1;
                d.failures.push(msg);
            }
        }
    }
    d.runqueue_wait_ns = host::thread_runqueue_wait_ns().saturating_sub(wait_start);
    d
}

/// A request span with the server's phases laid end to end as children,
/// followed by `transport`: the client latency the phases do not cover.
fn record_request_spans(
    rec: &Recorder,
    parent: u64,
    start: Instant,
    latency_s: f64,
    span: Option<SpanPhases>,
) {
    let id = rec.id();
    rec.record(id, parent, "request", start, latency_s);
    let Some(span) = span else { return };
    let mut at = start;
    for (name, us) in span.durations() {
        if us > 0 {
            let dur = Duration::from_micros(us);
            rec.record(rec.id(), id, name, at, dur.as_secs_f64());
            at += dur;
        }
    }
    let covered = Duration::from_micros(span.total_us()).as_secs_f64();
    rec.record(rec.id(), id, "transport", at, (latency_s - covered).max(0.0));
}

/// Runs every client's list on its own thread and merges the results.
fn drive_all(
    clients: &mut [Client],
    lists: &[Vec<Request>],
    reference: &HashMap<String, String>,
    rec: &Recorder,
    parent: u64,
) -> Driven {
    let parts: Vec<Driven> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lists)
            .zip(0u64..)
            .map(|((client, list), c)| {
                scope.spawn(move || drive(client, list, c << 32, reference, rec, parent))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut all = Driven::default();
    for p in parts {
        all.samples.extend(p.samples);
        all.attempted += p.attempted;
        all.failed += p.failed;
        all.failures.extend(p.failures);
        all.runqueue_wait_ns += p.runqueue_wait_ns;
    }
    all
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    window_s: f64,
    window: Driven,
    layer: ServiceLayer,
}

/// Reads a number at `path` inside an admin reply.
fn admin_number(reply: &str, path: &[&str]) -> Option<f64> {
    let doc = orderlight_trace::json::parse(reply).ok()?;
    let mut v = &doc;
    for k in path {
        v = v.get(k)?;
    }
    v.as_f64()
}

/// Connects the clients to a fresh server, serves their lists, and (when
/// tracing) reads the server's own `stats` and `metrics` replies.
///
/// Set-up runs from bind until every client is connected and has the
/// daemon's answer to a readiness probe.
fn serve_round(
    lists: &[Vec<Request>],
    reference: &HashMap<String, String>,
    addr: SocketAddr,
    setup_start: Instant,
    rec: &Recorder,
    trace: bool,
) -> Result<Round, String> {
    let mut clients = (0..lists.len())
        .map(|_| Client::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    for client in &mut clients {
        let probe = client.ask(STATS_REQUEST).map_err(|e| format!("readiness probe: {e}"))?;
        if service::reply_kind(&probe).as_deref() != Some("stats") {
            return Err(format!("readiness probe: unexpected reply {probe}"));
        }
    }
    let setup_s = setup_start.elapsed().as_secs_f64();
    rec.record(rec.id(), 0, "setup: Server::bind + connect + probe", setup_start, setup_s);

    let window_id = rec.id();
    let (window, window_s) = rec.time_as(window_id, 0, "window", || {
        drive_all(&mut clients, lists, reference, rec, window_id)
    });

    let mut layer = ServiceLayer::default();
    if trace {
        let admin = clients[0]
            .ask(STATS_REQUEST)
            .and_then(|stats| Ok((stats, clients[0].ask("{\"cmd\":\"metrics\"}\n")?)))
            .map_err(|e| format!("admin request: {e}"))?;
        let (stats, metrics) = admin;
        layer.hits = admin_number(&stats, &["hits"]).unwrap_or(0.0);
        layer.misses = admin_number(&stats, &["misses"]).unwrap_or(0.0);
        layer.busy_us = admin_number(&metrics, &["snapshot", "workers", "busy_us"]).unwrap_or(0.0);
        layer.idle_us = admin_number(&metrics, &["snapshot", "workers", "idle_us"]).unwrap_or(0.0);
    }
    Ok(Round { setup_s, window_s, window, layer })
}

/// One round on a fresh server, which is shut down and joined whatever
/// happened.
fn round(
    lists: &[Vec<Request>],
    reference: &HashMap<String, String>,
    workers: usize,
    rec: &Recorder,
    trace: bool,
) -> Result<Round, String> {
    let setup_start = Instant::now();
    let server = Server::bind("127.0.0.1:0", workers).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    std::thread::scope(|scope| {
        let daemon = scope.spawn(move || server.run());
        let result = serve_round(lists, reference, addr, setup_start, rec, trace);
        let bye = service::request(&addr.to_string(), "{\"cmd\":\"shutdown\"}");
        let stopped = match daemon.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server stopped with an error: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        };
        let round = result?;
        bye.map_err(|e| format!("shutdown request: {e}"))?;
        stopped.map(|()| round)
    })
}

/// Runs `serve-mix` for at least `seconds`, in whole rounds.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    let host_start = HostStart::now();
    let plan = ServePlan::new(seed);
    let pool = Pool::with_available();
    let universe = Workload::ServeMix.scenarios();

    // The reference results. The traced run takes them from its
    // instrumented layer pass, which also yields the simulator's
    // per-layer numbers for the served scenarios.
    let layer = trace.then(|| layer_pass(&universe, &pool, rec));
    out.attempted += universe.len() as u64;
    let direct_runs: Vec<Option<RunStats>> = match &layer {
        Some(lp) => {
            for f in &lp.failures {
                out.fail(1, f.clone());
            }
            lp.runs.iter().map(|r| r.as_ref().map(|r| r.stats)).collect()
        }
        None => pool
            .run(universe.iter().map(|s| move || timed_point(s)).collect())
            .into_iter()
            .zip(&universe)
            .map(|(r, spec)| r.map_err(|e| out.fail(1, format!("{}: {e}", key(spec)))).ok())
            .map(|t| t.map(|t| t.stats))
            .collect(),
    };
    let mut reference = HashMap::new();
    let mut digest = Digest::default();
    let mut sim_cycles = 0;
    for (spec, stats) in universe.iter().zip(&direct_runs) {
        match stats {
            Some(stats) if stats.is_correct() => {
                let json = stats_json(stats);
                digest.add(spec, &json);
                reference.insert(key(spec), json);
                sim_cycles += stats.core_cycles;
            }
            Some(_) => out.fail(1, format!("{}: verification failed", key(spec))),
            None => {}
        }
    }
    if out.failed == 0 {
        if let Err(msg) = check_digest(Workload::ServeMix, digest) {
            out.fail(universe.len() as u64, msg);
        }
    }

    let mut e = EndToEnd { sim_cycles, ..EndToEnd::default() };
    let mut service = ServiceLayer::default();
    let mut runqueue_wait_ns = 0;
    let planned = plan.clients.iter().map(Vec::len).sum::<usize>() as u64;
    let idle = vec![Vec::new(); plan.clients.len()];
    let start = Instant::now();
    loop {
        // Set-up takes a fraction of a millisecond, so besides the
        // set-up of every serving round, sample it in rounds that serve
        // nothing, spread over the run.
        for _ in 0..SETUP_ROUNDS {
            out.attempted += 1;
            match round(&idle, &reference, pool.workers(), rec, false) {
                Ok(r) => e.setup_s.push(r.setup_s),
                Err(msg) => out.fail(1, msg),
            }
        }
        match round(&plan.clients, &reference, pool.workers(), rec, trace) {
            Ok(r) => {
                out.attempted += r.window.attempted;
                out.failed += r.window.failed;
                out.failures.extend(r.window.failures.iter().cloned());
                runqueue_wait_ns += r.window.runqueue_wait_ns;
                e.setup_s.push(r.setup_s);
                e.window_s += r.window_s;
                e.requests += r.window.samples.len() as u64;
                for s in &r.window.samples {
                    if s.cached {
                        e.hot_ms.push(s.latency_s * 1e3);
                    } else {
                        e.points += 1;
                        e.cold_ms.push(s.latency_s * 1e3);
                    }
                }
                service.samples.extend(&r.window.samples);
                service.hits += r.layer.hits;
                service.misses += r.layer.misses;
                service.busy_us += r.layer.busy_us;
                service.idle_us += r.layer.idle_us;
            }
            Err(msg) => {
                out.attempted += planned;
                out.fail(planned, msg);
                break;
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    if trace {
        let lp = layer.unwrap_or_default();
        runqueue_wait_ns += lp.times.runqueue_wait_ns;
        sim_metrics(&mut out.metrics, &[lp.times], &lp.counts);
        service_metrics(&mut out.metrics, Some(&service));
        host_metrics(&mut out.metrics, host_start, runqueue_wait_ns);
    } else {
        end_to_end_metrics(&mut out.metrics, &e);
    }
    out
}

/// The service layer's per-layer metrics; all zero for a workload that
/// does not exercise the service.
#[allow(clippy::cast_precision_loss)]
pub fn service_metrics(m: &mut Metrics, layer: Option<&ServiceLayer>) {
    let empty = ServiceLayer::default();
    let layer = layer.unwrap_or(&empty);
    for (class, cached) in [("cold", false), ("hot", true)] {
        let spans: Vec<(f64, SpanPhases)> = layer
            .samples
            .iter()
            .filter(|s| s.cached == cached)
            .filter_map(|s| s.span.map(|span| (s.latency_s, span)))
            .collect();
        let n = spans.len().max(1) as f64;
        let mean_ms = |f: &dyn Fn(&(f64, SpanPhases)) -> f64| spans.iter().map(f).sum::<f64>() / n;
        for (i, phase) in orderlight_trace::span::SPAN_PHASES.iter().enumerate() {
            let v = mean_ms(&|(_, s)| s.durations()[i].1 as f64 / 1e3);
            m.push(&format!("sim.service.{class}.{phase}_ms"), v, "ms");
        }
        let transport = mean_ms(&|(lat, s)| lat * 1e3 - s.total_us() as f64 / 1e3);
        m.push(&format!("sim.service.{class}.transport_ms"), transport, "ms");
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.push("sim.service.cache_hit_ratio", ratio(layer.hits, layer.hits + layer.misses), "ratio");
    m.push(
        "sim.service.worker_busy_ratio",
        ratio(layer.busy_us, layer.busy_us + layer.idle_us),
        "ratio",
    );
    for (class, cached) in [("cold", false), ("hot", true)] {
        let mut ms: Vec<f64> = layer
            .samples
            .iter()
            .filter(|s| s.cached == cached)
            .map(|s| s.latency_s * 1e3)
            .collect();
        ms.sort_by(f64::total_cmp);
        if cached {
            m.push("serve.hot_p50_ms", percentile(&ms, 0.5).unwrap_or(0.0), "ms");
        }
        m.push(&format!("serve.{class}_p90_ms"), percentile(&ms, 0.9).unwrap_or(0.0), "ms");
        m.push(&format!("serve.{class}_samples"), ms.len() as f64, "count");
    }
}
