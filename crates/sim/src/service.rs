//! Simulation-as-a-service: the `orderlight serve` daemon.
//!
//! A dependency-free, thread-per-connection TCP server over
//! [`std::net::TcpListener`] that accepts scenario requests on a
//! newline-delimited JSON protocol, queues independent runs for its own
//! persistent workers (a `Mutex<VecDeque>` job queue whose `Condvar`
//! wakes `--jobs` threads spawned once at start, not the batch-scoped
//! [`crate::pool`]), streams progress and final [`crate::RunStats`] back
//! to many concurrent clients, and memoizes completed runs in a bounded
//! LRU cache keyed by [`crate::Scenario::canonical_hash`].
//!
//! ## Wire protocol
//!
//! One JSON object per line, both directions. A request is either an
//! `orderlight/scenario/v1` document ([`crate::schema`]) with an
//! optional extra `"id"` field echoed back verbatim, or an admin
//! command:
//!
//! | request | terminal reply |
//! |---|---|
//! | scenario document | `{"reply":"result",...}` (below) |
//! | `{"cmd":"stats"}` | [`SERVICE_STATS_SCHEMA_V1`]: cache size / hits / misses / hit ratio / insertions / evictions / SLO |
//! | `{"cmd":"metrics"}` | [`SERVICE_METRICS_SCHEMA_V1`]: canonical-JSON registry snapshot (`"format":"text"` for exposition lines) |
//! | `{"cmd":"flightrec"}` | [`FLIGHTREC_SCHEMA_V1`]: recent request records + last error payloads |
//! | `{"cmd":"shutdown"}` | `{"reply":"bye"}` and the daemon exits |
//!
//! A scenario request answers with up to three lines:
//!
//! ```text
//! {"id":7,"reply":"accepted","scenario_hash":"0x..."}   (cache miss only)
//! {"id":7,"reply":"running"}                            (cache miss only)
//! {"id":7,"reply":"result","cached":false,"latency_us":...,"slo":{...},"span":{...},"stats":{...}}
//! ```
//!
//! Every failure is a typed single-line reply, never a dropped
//! connection: `{"reply":"error","kind":K,"message":...}` with `kind`
//! one of `parse` (not UTF-8, or malformed JSON), `schema` (versioning
//! / unknown field / bad value, see [`crate::schema::SchemaError`]),
//! `config` (fields valid but inconsistent), `sim` (the run itself
//! failed) or `proto` (bad admin command, or a line longer than
//! [`MAX_LINE_BYTES`] — the one error that also closes the
//! connection).
//!
//! ## The telemetry plane
//!
//! The daemon carries a live [`MetricsRegistry`]: per-state request
//! counters, cache hit/miss/insertion/eviction counters and a size
//! gauge, queue depth, per-worker busy/idle time, bytes in/out, and
//! latency histograms. The registry holds the only copy of each of
//! these facts: the `stats` reply, the per-result `slo` and the
//! `metrics` snapshot all read it. Every request is measured as a
//! [`SpanPhases`] (parse → queue-wait → run → serialize → write) that
//! rides the result reply under `"span"` and lands — with the scenario
//! hash and outcome — in a bounded flight recorder
//! ([`FLIGHT_RECORDER_REQUESTS`] recent requests,
//! [`FLIGHT_RECORDER_ERRORS`] recent error payloads).
//!
//! Telemetry is **observe-only**: no counter, span or flight record
//! feeds a result `stats` payload, which the serve smoke gate `cmp`s
//! against a direct run. Every one of them for a request commits
//! *before* its terminal reply bytes are written, so a client that has
//! read its reply always sees the request reflected in the very next
//! metrics snapshot. Snapshot semantics: metric groups `requests`,
//! `cache` and `queue` are exact and deterministic under a serialized
//! session; `io`, `workers` and `timing` are wall-clock and only
//! monotonicity is guaranteed. A cache hit or miss is counted once,
//! when the cache lookup decides it: a miss whose run then fails still
//! counts, so `cache.hits + cache.misses` counts lookups.
//!
//! ## Why the cache is exact
//!
//! [`crate::System::run`] is a pure function of its config — the
//! parallel-equivalence and core-equivalence suites prove bit-identical
//! results at any worker count and under either execution core. A
//! request's canonical hash therefore fully determines its reply bytes,
//! so a cached reply *is* the true reply, not an approximation; the
//! `ci.sh` smoke gate `cmp`s served replies against a direct in-process
//! run. Results enter the cache before the socket write, so a client
//! disconnecting mid-run never loses the work — and because the cache
//! is exact, LRU eviction ([`Server::with_cache_max`]) is purely a
//! memory/latency trade: an evicted scenario recomputes bit-identically.
//!
//! Every result reply carries the service SLO, the p50/p95/p99 of
//! `timing.latency_us` including that request, and `{"cmd":"stats"}`
//! exposes the hit/miss counters.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use orderlight_trace::json::{self, Value};
use orderlight_trace::{Counter, Gauge, Histogram, MetricsRegistry, SpanPhases};

use crate::schema::{stats_to_value, ScenarioSpec};

/// Schema tag of the `{"cmd":"stats"}` reply.
pub const SERVICE_STATS_SCHEMA_V1: &str = "orderlight/service-stats/v1";
/// Schema tag of the `{"cmd":"metrics"}` reply.
pub const SERVICE_METRICS_SCHEMA_V1: &str = "orderlight/service-metrics/v1";
/// Schema tag of the `{"cmd":"flightrec"}` reply.
pub const FLIGHTREC_SCHEMA_V1: &str = "orderlight/flightrec/v1";

/// How many recent request records the flight recorder retains.
pub const FLIGHT_RECORDER_REQUESTS: usize = 256;
/// How many recent error payloads the flight recorder retains.
pub const FLIGHT_RECORDER_ERRORS: usize = 32;

/// How often a blocked connection reader wakes up to check for
/// shutdown, so `run` can join handler threads even when a client
/// holds an idle connection open.
const READ_POLL: Duration = Duration::from_millis(100);

/// The longest request line the daemon accepts, newline excluded.
/// Lines are read through [`Read::take`], so a longer one is never held
/// whole: it is answered with a typed `proto` error and the connection
/// is closed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How much of an oversized line's remainder is read and discarded
/// before its connection closes, so the close does not reset the
/// connection under the client's unread `proto` reply.
const DRAIN_BYTES: u64 = 4 * MAX_LINE_BYTES as u64;

/// What a worker reports back to the connection handler that enqueued
/// the job.
enum JobEvent {
    /// The run left the queue and started executing.
    Started,
    /// The run finished: the canonical stats JSON, or a message.
    Finished(Result<String, String>),
}

/// One queued simulation.
struct Job {
    spec: ScenarioSpec,
    hash: u64,
    events: mpsc::Sender<JobEvent>,
}

/// The scenario cache: canonical hash → canonical stats JSON, bounded
/// by LRU eviction when `max > 0`. Recency is a logical tick stamped on
/// every hit and insert; eviction removes the smallest stamp. The map
/// stays small (eviction bounds it), so the O(len) stamp scan on insert
/// is cheaper than maintaining an intrusive list.
struct LruCache {
    map: HashMap<u64, (String, u64)>,
    tick: u64,
    max: usize,
}

impl LruCache {
    /// `max == 0` means unbounded.
    fn new(max: usize) -> Self {
        LruCache { map: HashMap::new(), tick: 0, max }
    }

    /// Looks up a result, refreshing its recency on a hit.
    fn get(&mut self, hash: u64) -> Option<String> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&hash).map(|(json, stamp)| {
            *stamp = tick;
            json.clone()
        })
    }

    /// Inserts a result, evicting least-recently-used entries while the
    /// bound is exceeded. Returns `(newly inserted, entries evicted)`.
    fn insert(&mut self, hash: u64, json: String) -> (bool, usize) {
        self.tick += 1;
        let fresh = self.map.insert(hash, (json, self.tick)).is_none();
        let mut evicted = 0;
        while self.max > 0 && self.map.len() > self.max {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&h, _)| h)
                .expect("non-empty cache");
            self.map.remove(&oldest);
            evicted += 1;
        }
        (fresh, evicted)
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// One flight-recorder entry: what happened to a recent request.
struct FlightRecord {
    seq: u64,
    hash: Option<u64>,
    outcome: String,
    span: SpanPhases,
    latency_us: u64,
}

/// Bounded ring of recent request records plus the last N error
/// payloads — the "what just happened" surface behind
/// `{"cmd":"flightrec"}`.
#[derive(Default)]
struct FlightRecorder {
    next_seq: u64,
    requests: VecDeque<FlightRecord>,
    errors: VecDeque<String>,
}

impl FlightRecorder {
    fn record(&mut self, hash: Option<u64>, outcome: String, span: SpanPhases, latency_us: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.requests.push_back(FlightRecord { seq, hash, outcome, span, latency_us });
        while self.requests.len() > FLIGHT_RECORDER_REQUESTS {
            self.requests.pop_front();
        }
    }

    fn record_error(&mut self, payload: String) {
        self.errors.push_back(payload);
        while self.errors.len() > FLIGHT_RECORDER_ERRORS {
            self.errors.pop_front();
        }
    }

    fn to_value(&self) -> (Value, Value) {
        let requests: Vec<Value> = self
            .requests
            .iter()
            .map(|r| {
                let hash = r.hash.map(|h| ("scenario_hash", hash_value(h)));
                Value::obj(
                    [
                        ("seq", r.seq.into()),
                        ("outcome", r.outcome.as_str().into()),
                        ("latency_us", r.latency_us.into()),
                        ("phases", r.span.to_value()),
                    ]
                    .into_iter()
                    .chain(hash),
                )
            })
            .collect();
        let errors: Vec<Value> = self.errors.iter().map(|e| e.as_str().into()).collect();
        (requests.into(), errors.into())
    }
}

/// State shared between the acceptor, connection handlers and workers:
/// the job queue, the scenario cache, and the registered metric handles
/// with the flight recorder. Handles are registered once at server
/// start; the hot path touches only relaxed atomics and the histogram
/// mutexes.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    cache: Mutex<LruCache>,
    slow_us: Option<u64>,
    shutdown: AtomicBool,
    registry: MetricsRegistry,
    requests_received: Arc<Counter>,
    requests_accepted: Arc<Counter>,
    requests_running: Arc<Counter>,
    requests_result: Arc<Counter>,
    requests_error: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_insertions: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_size: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    workers_busy: Arc<Gauge>,
    workers_jobs: Arc<Counter>,
    workers_busy_us: Arc<Counter>,
    workers_idle_us: Arc<Counter>,
    io_bytes_in: Arc<Counter>,
    io_bytes_out: Arc<Counter>,
    /// Request latency in µs (queue wait + run, or cache lookup) of
    /// every result; the source of the SLO percentiles.
    timing_latency_us: Arc<Mutex<Histogram>>,
    timing_queue_wait_us: Arc<Mutex<Histogram>>,
    timing_run_us: Arc<Mutex<Histogram>>,
    flightrec: Mutex<FlightRecorder>,
}

impl Shared {
    fn new(cache_max: usize, slow_ms: Option<u64>) -> Self {
        let registry = MetricsRegistry::new();
        let latency = latency_histogram();
        Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            cache: Mutex::new(LruCache::new(cache_max)),
            slow_us: slow_ms.map(|ms| ms.saturating_mul(1000)),
            shutdown: AtomicBool::new(false),
            requests_received: registry.counter("requests.received"),
            requests_accepted: registry.counter("requests.accepted"),
            requests_running: registry.counter("requests.running"),
            requests_result: registry.counter("requests.result"),
            requests_error: registry.counter("requests.error"),
            cache_hits: registry.counter("cache.hits"),
            cache_misses: registry.counter("cache.misses"),
            cache_insertions: registry.counter("cache.insertions"),
            cache_evictions: registry.counter("cache.evictions"),
            cache_size: registry.gauge("cache.size"),
            queue_depth: registry.gauge("queue.depth"),
            workers_busy: registry.gauge("workers.busy"),
            workers_jobs: registry.counter("workers.jobs"),
            workers_busy_us: registry.counter("workers.busy_us"),
            workers_idle_us: registry.counter("workers.idle_us"),
            io_bytes_in: registry.counter("io.bytes_in"),
            io_bytes_out: registry.counter("io.bytes_out"),
            timing_latency_us: registry.histogram("timing.latency_us", &latency),
            timing_queue_wait_us: registry.histogram("timing.queue_wait_us", &latency),
            timing_run_us: registry.histogram("timing.run_us", &latency),
            flightrec: Mutex::new(FlightRecorder::default()),
            registry,
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Records one result's latency and returns the SLO percentiles
    /// including it.
    fn record_latency(&self, us: u64) -> Value {
        let mut hist = self.timing_latency_us.lock().expect("latency lock");
        hist.record(us);
        slo_value(&hist)
    }

    /// Inserts a finished run into the cache, applying the LRU bound
    /// and counting insertions, evictions and the size under the cache
    /// lock (so gauge and map never disagree).
    fn cache_insert(&self, hash: u64, stats_json: String) {
        let mut cache = self.cache.lock().expect("cache lock");
        let (fresh, evicted) = cache.insert(hash, stats_json);
        self.cache_insertions.add(u64::from(fresh));
        self.cache_evictions.add(evicted as u64);
        self.cache_size.set(i64::try_from(cache.len()).unwrap_or(i64::MAX));
    }

    /// Commits a terminal `result` for a request: the result counter,
    /// the queue-wait and run histograms of a miss and the flight
    /// record — all *before* the reply bytes leave the socket.
    fn commit_result(&self, hash: u64, cached: bool, span: SpanPhases, latency_us: u64) {
        self.requests_result.inc();
        if !cached {
            self.timing_queue_wait_us.lock().expect("histogram lock").record(span.queue_us);
            self.timing_run_us.lock().expect("histogram lock").record(span.run_us);
        }
        let outcome = if cached { "result-hit" } else { "result-miss" };
        self.flightrec.lock().expect("flightrec lock").record(
            Some(hash),
            outcome.to_string(),
            span,
            latency_us,
        );
    }

    /// Commits a terminal `error` reply: the error counter, the flight
    /// record and the error-payload ring.
    fn commit_error(&self, hash: Option<u64>, span: SpanPhases, latency_us: u64, reply: &Value) {
        self.requests_error.inc();
        let kind = reply.get("kind").and_then(Value::as_str).unwrap_or("unknown");
        let mut rec = self.flightrec.lock().expect("flightrec lock");
        rec.record(hash, format!("error:{kind}"), span, latency_us);
        rec.record_error(reply.to_json());
    }
}

/// An empty histogram for latencies in µs: log-linear, 16 buckets per
/// octave up to 2^40 µs (~13 days), so a served percentile is within
/// 6.25% of the exact nearest-rank value.
fn latency_histogram() -> Histogram {
    Histogram::log_linear(16, 40)
}

/// `{"p50":..,"p95":..,"p99":..}` from a latency histogram.
fn slo_value(hist: &Histogram) -> Value {
    Value::obj(
        [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)]
            .map(|(name, p)| (name, hist.percentile(p).unwrap_or(0).into())),
    )
}

/// The `orderlight serve` daemon. [`Server::bind`] it, read
/// [`Server::local_addr`], then [`Server::run`] — which blocks until a
/// client sends `{"cmd": "shutdown"}`.
pub struct Server {
    listener: TcpListener,
    workers: usize,
    cache_max: usize,
    slow_ms: Option<u64>,
}

impl Server {
    /// Binds the listener. `workers` is clamped to at least 1. The
    /// cache defaults to unbounded, the slow log to off.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(addr: &str, workers: usize) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            workers: workers.max(1),
            cache_max: 0,
            slow_ms: None,
        })
    }

    /// Bounds the scenario cache to `max` entries with LRU eviction
    /// (`0` = unbounded, the default).
    #[must_use]
    pub fn with_cache_max(mut self, max: usize) -> Server {
        self.cache_max = max;
        self
    }

    /// Enables the slow-request log: a request whose run phase exceeds
    /// `ms` milliseconds emits one canonical-JSON line to stderr.
    #[must_use]
    pub fn with_slow_ms(mut self, ms: Option<u64>) -> Server {
        self.slow_ms = ms;
        self
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until shutdown: spawns the worker pool, then accepts
    /// connections and handles each on its own thread. Returns once
    /// every worker and handler has joined.
    ///
    /// # Errors
    /// Propagates accept failures other than shutdown.
    pub fn run(self) -> std::io::Result<()> {
        let shared = Shared::new(self.cache_max, self.slow_ms);
        let addr = self.local_addr()?;
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| worker_loop(&shared));
            }
            for stream in self.listener.incoming() {
                if shared.shutting_down() {
                    break;
                }
                let stream = stream?;
                let shared = &shared;
                scope.spawn(move || handle_connection(stream, shared, addr));
            }
            // Unblock the workers so the scope can join them.
            shared.available.notify_all();
            Ok(())
        })
    }
}

/// Pops jobs until shutdown. Runs each scenario with panics contained,
/// inserts the canonical result into the cache *before* reporting back
/// (a disconnected client must not lose the work), then wakes the
/// handler. Time blocked on the queue is idle, time in the run busy.
fn worker_loop(shared: &Shared) {
    loop {
        let idle_start = Instant::now();
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutting_down() {
                    return;
                }
                queue = shared.available.wait(queue).expect("queue lock");
            }
        };
        shared.workers_idle_us.add(elapsed_us(idle_start));
        shared.queue_depth.dec();
        shared.workers_busy.inc();
        let _ = job.events.send(JobEvent::Started);
        let busy_start = Instant::now();
        let outcome = run_job(&job.spec);
        if let Ok(stats_json) = &outcome {
            shared.cache_insert(job.hash, stats_json.clone());
        }
        shared.workers_busy_us.add(elapsed_us(busy_start));
        shared.workers_jobs.inc();
        shared.workers_busy.dec();
        let _ = job.events.send(JobEvent::Finished(outcome));
    }
}

/// Builds and runs one scenario, mapping panics and simulation errors
/// to messages. Returns the canonical stats JSON on success.
fn run_job(spec: &ScenarioSpec) -> Result<String, String> {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let scenario = spec.build().map_err(|e| e.to_string())?;
        let stats = scenario.run().map_err(|e| e.to_string())?;
        Ok(stats_to_value(&stats).to_json())
    }));
    run.unwrap_or_else(|_| Err("simulation panicked".to_string()))
}

fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Serves one client connection: a loop of request lines, each
/// answered with typed reply lines. Returns (dropping the connection)
/// on EOF, socket error, an oversized line or shutdown.
fn handle_connection(stream: TcpStream, shared: &Shared, self_addr: SocketAddr) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Raw bytes, not a `String`: a read poll can time out mid-line, even
    // mid-character, and the bytes read so far must stay for the next
    // read to complete.
    let mut line = Vec::new();
    loop {
        // One byte past the bound is enough to tell a line is too long.
        let budget = (MAX_LINE_BYTES + 1).saturating_sub(line.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', &mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if is_poll_timeout(&e) => {
                // `read_until` keeps what it consumed before the poll
                // expired in `line`; the next read appends the rest.
                if shared.shutting_down() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        shared.io_bytes_in.add(line.len() as u64);
        if line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n") {
            reject_oversized_line(&mut reader, &mut writer, shared);
            return;
        }
        let request = line.trim_ascii();
        if !request.is_empty() && !handle_request(request, &mut writer, shared, self_addr) {
            return;
        }
        line.clear();
    }
}

/// Answers a line longer than [`MAX_LINE_BYTES`] with a typed `proto`
/// error, then discards what the client still sends (up to
/// [`DRAIN_BYTES`]) before the caller closes the connection.
fn reject_oversized_line(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    shared: &Shared,
) {
    let start = Instant::now();
    shared.requests_received.inc();
    let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
    let reply = error_reply(None, "proto", &message);
    if !fail(writer, shared, start, SpanPhases::default(), &reply) {
        return;
    }
    let _ = writer.shutdown(Shutdown::Write);
    let mut rest = reader.take(DRAIN_BYTES);
    loop {
        match std::io::copy(&mut rest, &mut std::io::sink()) {
            Err(e) if is_poll_timeout(&e) && !shared.shutting_down() => {}
            _ => return,
        }
    }
}

/// Writes an error reply, committing its telemetry first.
fn fail(
    writer: &mut TcpStream,
    shared: &Shared,
    start: Instant,
    mut span: SpanPhases,
    reply: &Value,
) -> bool {
    span.parse_us = span.parse_us.max(elapsed_us(start));
    shared.commit_error(None, span, elapsed_us(start), reply);
    write_reply(writer, reply, shared)
}

/// Handles one request line. Returns `false` when the connection
/// should close (write failure or shutdown).
fn handle_request(line: &[u8], writer: &mut TcpStream, shared: &Shared, addr: SocketAddr) -> bool {
    let start = Instant::now();
    shared.requests_received.inc();
    let mut span = SpanPhases::default();
    let parsed = std::str::from_utf8(line)
        .map_err(|e| format!("request is not UTF-8: {e}"))
        .and_then(|text| json::parse(text).map_err(|e| e.to_string()));
    let doc = match parsed {
        Ok(doc) => doc,
        Err(message) => {
            let reply = error_reply(None, "parse", &message);
            return fail(writer, shared, start, span, &reply);
        }
    };
    // Envelope: an optional "id" echoed on every reply for this
    // request; "cmd" marks an admin request.
    let (doc, id) = split_id(doc);
    if let Value::Obj(map) = &doc {
        if let Some(cmd) = map.get("cmd") {
            return handle_admin(cmd, &doc, id.as_ref(), writer, shared, addr);
        }
    }
    let spec = match ScenarioSpec::from_value(&doc) {
        Ok(spec) => spec,
        Err(e) => {
            let reply = error_reply(id.as_ref(), "schema", &e.to_string());
            return fail(writer, shared, start, span, &reply);
        }
    };
    let scenario = match spec.build() {
        Ok(s) => s,
        Err(e) => {
            let reply = error_reply(id.as_ref(), "config", &e.to_string());
            return fail(writer, shared, start, span, &reply);
        }
    };
    let hash = scenario.canonical_hash();
    span.parse_us = elapsed_us(start);

    let cached = shared.cache.lock().expect("cache lock").get(hash);
    if let Some(stats_json) = cached {
        shared.cache_hits.inc();
        let us = elapsed_us(start);
        let slo = shared.record_latency(us);
        let serialize_start = Instant::now();
        let reply = result_reply(id.as_ref(), true, us, slo, &stats_json);
        span.serialize_us = elapsed_us(serialize_start);
        let reply = with_span(reply, &span);
        shared.commit_result(hash, true, span, us);
        return write_reply(writer, &reply, shared);
    }

    shared.cache_misses.inc();
    let accepted = reply(id.as_ref(), "accepted", [("scenario_hash", hash_value(hash))]);
    shared.requests_accepted.inc();
    let write_start = Instant::now();
    if !write_reply(writer, &accepted, shared) {
        return false;
    }
    span.write_us += elapsed_us(write_start);

    let (tx, rx) = mpsc::channel();
    let enqueued = Instant::now();
    shared.queue.lock().expect("queue lock").push_back(Job { spec, hash, events: tx });
    shared.queue_depth.inc();
    shared.available.notify_one();

    // The worker owns the run; this handler only relays events, so a
    // dead client can break the relay without wedging the worker.
    let mut client_alive = true;
    let mut run_started = enqueued;
    loop {
        match rx.recv() {
            Ok(JobEvent::Started) => {
                run_started = Instant::now();
                span.queue_us = elapsed_us(enqueued);
                shared.requests_running.inc();
                if client_alive {
                    let write_start = Instant::now();
                    client_alive = write_reply(writer, &reply(id.as_ref(), "running", []), shared);
                    span.write_us += elapsed_us(write_start);
                }
            }
            Ok(JobEvent::Finished(Ok(stats_json))) => {
                span.run_us = elapsed_us(run_started);
                let us = elapsed_us(start);
                let slo = shared.record_latency(us);
                let serialize_start = Instant::now();
                let reply = result_reply(id.as_ref(), false, us, slo, &stats_json);
                span.serialize_us = elapsed_us(serialize_start);
                let reply = with_span(reply, &span);
                shared.commit_result(hash, false, span, us);
                slow_log(shared, hash, &span);
                if client_alive {
                    client_alive = write_reply(writer, &reply, shared);
                }
                return client_alive;
            }
            Ok(JobEvent::Finished(Err(message))) => {
                span.run_us = elapsed_us(run_started);
                let reply = error_reply(id.as_ref(), "sim", &message);
                shared.commit_error(Some(hash), span, elapsed_us(start), &reply);
                if client_alive {
                    client_alive = write_reply(writer, &reply, shared);
                }
                return client_alive;
            }
            Err(_) => return false,
        }
    }
}

/// Emits the slow-request log line when the run phase exceeded the
/// configured threshold: one canonical-JSON record on stderr with the
/// scenario hash and the full phase breakdown.
fn slow_log(shared: &Shared, hash: u64, span: &SpanPhases) {
    let Some(threshold_us) = shared.slow_us else { return };
    if span.run_us <= threshold_us {
        return;
    }
    let record = Value::obj([
        ("event", "slow_request".into()),
        ("scenario_hash", hash_value(hash)),
        ("run_us", span.run_us.into()),
        ("threshold_us", threshold_us.into()),
        ("phases", span.to_value()),
    ]);
    eprintln!("{}", record.to_json());
}

/// Handles `{"cmd": ...}`. Returns `false` to close the connection.
fn handle_admin(
    cmd: &Value,
    doc: &Value,
    id: Option<&Value>,
    writer: &mut TcpStream,
    shared: &Shared,
    addr: SocketAddr,
) -> bool {
    match cmd.as_str() {
        Some("shutdown") => {
            shared.shutdown.store(true, Ordering::Relaxed);
            shared.available.notify_all();
            // Poke the acceptor loop so it observes the flag.
            let _ = TcpStream::connect(addr);
            write_reply(writer, &reply(id, "bye", []), shared);
            false
        }
        Some("stats") => {
            let (hits, misses) = (shared.cache_hits.get(), shared.cache_misses.get());
            let ratio = if hits + misses == 0 {
                0.0
            } else {
                #[allow(clippy::cast_precision_loss)]
                {
                    hits as f64 / (hits + misses) as f64
                }
            };
            let size = shared.cache_size.get();
            let max = shared.cache.lock().expect("cache lock").max;
            let slo = slo_value(&shared.timing_latency_us.lock().expect("latency lock"));
            let stats = reply(
                id,
                "stats",
                [
                    ("schema", SERVICE_STATS_SCHEMA_V1.into()),
                    ("hits", hits.into()),
                    ("misses", misses.into()),
                    ("hit_ratio", ratio.into()),
                    ("cached_scenarios", size.into()),
                    ("cache_size", size.into()),
                    ("cache_max", max.into()),
                    ("insertions", shared.cache_insertions.get().into()),
                    ("evictions", shared.cache_evictions.get().into()),
                    ("slo", slo),
                ],
            );
            write_reply(writer, &stats, shared)
        }
        Some("metrics") => {
            let body = if doc.get("format").and_then(Value::as_str) == Some("text") {
                ("text", shared.registry.to_text().into())
            } else {
                ("snapshot", shared.registry.snapshot_value())
            };
            let metrics =
                reply(id, "metrics", [("schema", SERVICE_METRICS_SCHEMA_V1.into()), body]);
            write_reply(writer, &metrics, shared)
        }
        Some("flightrec") => {
            let (requests, errors) = shared.flightrec.lock().expect("flightrec lock").to_value();
            let flightrec = reply(
                id,
                "flightrec",
                [
                    ("schema", FLIGHTREC_SCHEMA_V1.into()),
                    ("capacity", FLIGHT_RECORDER_REQUESTS.into()),
                    ("requests", requests),
                    ("errors", errors),
                ],
            );
            write_reply(writer, &flightrec, shared)
        }
        _ => {
            let reply = error_reply(id, "proto", &format!("unknown cmd {cmd:?}"));
            shared.commit_error(None, SpanPhases::default(), 0, &reply);
            write_reply(writer, &reply, shared)
        }
    }
}

/// Pulls the optional `"id"` envelope field out of a request object so
/// the remainder is a pure schema document.
fn split_id(doc: Value) -> (Value, Option<Value>) {
    match doc {
        Value::Obj(mut map) => {
            let id = map.remove("id");
            (Value::Obj(map), id)
        }
        other => (other, None),
    }
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The wire spelling of a scenario hash: `0x` and 16 hex digits.
fn hash_value(hash: u64) -> Value {
    format!("{hash:#018x}").into()
}

/// A reply object: the `reply` kind, the request's `id` envelope when
/// it carried one, and `fields`.
fn reply<'a>(
    id: Option<&Value>,
    kind: &str,
    fields: impl IntoIterator<Item = (&'a str, Value)>,
) -> Value {
    let id = id.map(|id| ("id", id.clone()));
    Value::obj(id.into_iter().chain([("reply", kind.into())]).chain(fields))
}

fn error_reply(id: Option<&Value>, kind: &str, message: &str) -> Value {
    reply(id, "error", [("kind", kind.into()), ("message", message.into())])
}

fn result_reply(
    id: Option<&Value>,
    cached: bool,
    latency_us: u64,
    slo: Value,
    stats_json: &str,
) -> Value {
    let stats = json::parse(stats_json).unwrap_or(Value::Null);
    reply(
        id,
        "result",
        [
            ("cached", cached.into()),
            ("latency_us", latency_us.into()),
            ("slo", slo),
            ("stats", stats),
        ],
    )
}

/// `reply` with the request's span attached.
fn with_span(mut reply: Value, span: &SpanPhases) -> Value {
    if let Value::Obj(map) = &mut reply {
        map.insert("span".to_string(), span.to_value());
    }
    reply
}

/// Serialises one reply and writes it as a line, counting the bytes
/// out. Returns `false` on a write failure (client gone).
fn write_reply(writer: &mut TcpStream, reply: &Value, shared: &Shared) -> bool {
    let mut line = reply.to_json();
    line.push('\n');
    shared.io_bytes_out.add(line.len() as u64);
    writer.write_all(line.as_bytes()).is_ok()
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// Sends one request line to a server and collects reply lines until
/// the terminal `result` / `error` / `stats` / `metrics` / `flightrec`
/// / `bye` reply (or EOF).
///
/// # Errors
/// Propagates connection and write failures.
pub fn request(addr: &str, line: &str) -> std::io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    let mut replies = Vec::new();
    for reply in BufReader::new(stream).lines() {
        let reply = reply?;
        let terminal = reply_kind(&reply).is_none_or(|k| {
            matches!(k.as_str(), "result" | "error" | "stats" | "metrics" | "flightrec" | "bye")
        });
        replies.push(reply);
        if terminal {
            break;
        }
    }
    Ok(replies)
}

/// The `"reply"` discriminator of a reply line, when it parses.
#[must_use]
pub fn reply_kind(line: &str) -> Option<String> {
    let doc = json::parse(line).ok()?;
    doc.get("reply")?.as_str().map(ToString::to_string)
}

/// Extracts the embedded `stats` object of a `result` reply and
/// re-serialises it canonically — byte-identical to what
/// [`stats_to_value`] produces for the same run, which is what lets
/// clients `cmp` a served reply against a local run.
#[must_use]
pub fn extract_stats(result_line: &str) -> Option<String> {
    let doc = json::parse(result_line).ok()?;
    if doc.get("reply")?.as_str()? != "result" {
        return None;
    }
    Some(doc.get("stats")?.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_builders_echo_the_id() {
        let id = Value::Num(7.0);
        let err = error_reply(Some(&id), "parse", "nope").to_json();
        assert_eq!(err, r#"{"id":7,"kind":"parse","message":"nope","reply":"error"}"#);
        let (doc, id) = split_id(json::parse(r#"{"id": 3, "cmd": "stats"}"#).unwrap());
        assert_eq!(id, Some(Value::Num(3.0)));
        assert!(doc.get("id").is_none());
        assert!(doc.get("cmd").is_some());
    }

    #[test]
    fn reply_kind_and_stats_extraction() {
        let slo = slo_value(&Histogram::exponential(1, 4));
        let line = result_reply(None, true, 12, slo, r#"{"b":2,"a":1}"#).to_json();
        assert_eq!(reply_kind(&line).as_deref(), Some("result"));
        // Canonical re-serialisation sorts the embedded keys.
        assert_eq!(extract_stats(&line).as_deref(), Some(r#"{"a":1,"b":2}"#));
        assert_eq!(extract_stats(r#"{"reply":"running"}"#), None);
    }

    #[test]
    fn lru_cache_evicts_the_least_recently_used_entry() {
        let mut cache = LruCache::new(2);
        assert_eq!(cache.insert(1, "a".into()), (true, 0));
        assert_eq!(cache.insert(2, "b".into()), (true, 0));
        // Touch 1 so 2 becomes the eviction victim.
        assert_eq!(cache.get(1).as_deref(), Some("a"));
        assert_eq!(cache.insert(3, "c".into()), (true, 1));
        assert_eq!(cache.get(2), None, "least-recently-used entry evicted");
        assert_eq!(cache.get(1).as_deref(), Some("a"));
        assert_eq!(cache.get(3).as_deref(), Some("c"));
        assert_eq!(cache.len(), 2);
        // Re-inserting an existing key is not a new insertion.
        assert_eq!(cache.insert(1, "a2".into()), (false, 0));
    }

    #[test]
    fn lru_cache_unbounded_never_evicts() {
        let mut cache = LruCache::new(0);
        for k in 0..100 {
            assert_eq!(cache.insert(k, format!("{k}")), (true, 0));
        }
        assert_eq!(cache.len(), 100);
    }

    #[test]
    fn flight_recorder_rings_are_bounded() {
        let mut fr = FlightRecorder::default();
        for i in 0..(FLIGHT_RECORDER_REQUESTS as u64 + 10) {
            fr.record(Some(i), "result-miss".to_string(), SpanPhases::default(), i);
        }
        for i in 0..(FLIGHT_RECORDER_ERRORS + 5) {
            fr.record_error(format!("e{i}"));
        }
        assert_eq!(fr.requests.len(), FLIGHT_RECORDER_REQUESTS);
        assert_eq!(fr.errors.len(), FLIGHT_RECORDER_ERRORS);
        // Oldest entries dropped: the first surviving seq is 10.
        assert_eq!(fr.requests.front().map(|r| r.seq), Some(10));
        let (requests, errors) = fr.to_value();
        assert_eq!(requests.as_array().unwrap().len(), FLIGHT_RECORDER_REQUESTS);
        assert_eq!(errors.as_array().unwrap().len(), FLIGHT_RECORDER_ERRORS);
        assert_eq!(errors.as_array().unwrap()[0].as_str(), Some("e5"));
    }
}
