//! The `scfi serve` HTTP job server: a hand-rolled HTTP/1.1 endpoint
//! over [`std::net::TcpListener`] (the workspace has zero external
//! dependencies — no async runtime, no HTTP library) in front of the
//! campaign and certification engines.
//!
//! # Protocol
//!
//! | Method & path            | Purpose                                  |
//! |--------------------------|------------------------------------------|
//! | `POST /v1/jobs`          | Submit a job (JSON [`JobSpec`] body)     |
//! | `GET /v1/jobs/{id}`      | Status: state, progress, cache hit       |
//! | `GET /v1/jobs/{id}/result` | Result document once finished          |
//! | `DELETE /v1/jobs/{id}`   | Cooperative cancellation                 |
//! | `GET /v1/healthz`        | Liveness, queue depth, cache counters    |
//!
//! Every connection handles one request (`Connection: close`).
//! Submissions land in a bounded sharded queue drained by a fixed worker
//! pool; a full queue answers `429` with `Retry-After` instead of
//! accepting unbounded work. Each job runs under its own [`RunControl`]
//! (deadline armed at run start, injection budget, cancel token) and is
//! wrapped in [`std::panic::catch_unwind`] — a poisoned job fails alone,
//! the server keeps serving.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scfi_faultsim::{panic_message, RunControl, StopReason};
use scfi_telemetry::Telemetry;

use crate::cache::CompileCache;
use crate::jobs::{ApiError, JobOutcome, JobSpec};
use crate::json::{obj, parse, Json};

/// Tuning knobs for a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before `429`.
    pub queue_capacity: usize,
    /// Maximum cached compiled models.
    pub cache_capacity: usize,
    /// How long a finished job (done, failed or cancelled) stays
    /// retrievable before the registry retires it. Expired jobs are swept
    /// on submission, so the registry stays bounded under sustained load
    /// instead of growing forever. A finished job is retired earlier
    /// once newer results hold more than 32 MiB between them (oldest
    /// first), so the memory finished jobs hold does not grow with the
    /// server's throughput.
    pub job_ttl: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 32,
            job_ttl: Duration::from_secs(900),
        }
    }
}

/// A job's lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

struct JobInner {
    state: JobState,
    /// Result document (success, or the marked partial of an
    /// interrupted run).
    result: Option<(String, &'static str)>,
    /// Failure / stop description.
    error: Option<String>,
    /// Live control handle once the job is running.
    control: Option<RunControl>,
    /// Set by `DELETE` — honored before start and at wave boundaries.
    cancel_requested: bool,
    /// Whether the compiled model came from the cache.
    cache_hit: Option<bool>,
    /// Canonical-DSL digest of the prepared model.
    digest: Option<u64>,
}

struct Job {
    id: u64,
    spec: JobSpec,
    /// Submission instant (feeds the queue-wait histogram).
    submitted_at: Instant,
    inner: Mutex<JobInner>,
}

impl Job {
    fn new(id: u64, spec: JobSpec) -> Job {
        Job {
            id,
            spec,
            submitted_at: Instant::now(),
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                result: None,
                error: None,
                control: None,
                cancel_requested: false,
                cache_hit: None,
                digest: None,
            }),
        }
    }
}

/// A bounded multi-shard FIFO: submissions round-robin across shards,
/// workers drain their own shard first and steal from the others, and a
/// shared length counter enforces the global bound (full ⇒ `429`).
///
/// Workers block on a condvar instead of polling: a push signals one
/// waiter, so an idle server burns no CPU and a submission starts running
/// with signal latency instead of a fixed poll interval.
struct ShardedQueue {
    shards: Vec<Mutex<std::collections::VecDeque<Arc<Job>>>>,
    len: AtomicUsize,
    capacity: usize,
    next: AtomicUsize,
    /// Guards nothing — pairs with `signal` for the work-arrival wait.
    signal_lock: Mutex<()>,
    signal: Condvar,
}

impl ShardedQueue {
    fn new(shards: usize, capacity: usize) -> ShardedQueue {
        ShardedQueue {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(std::collections::VecDeque::new()))
                .collect(),
            len: AtomicUsize::new(0),
            capacity: capacity.max(1),
            next: AtomicUsize::new(0),
            signal_lock: Mutex::new(()),
            signal: Condvar::new(),
        }
    }

    /// Enqueues the job, or hands it back when the queue is at capacity.
    fn push(&self, job: Arc<Job>) -> Result<(), Arc<Job>> {
        // Reserve a length slot first so concurrent submitters can never
        // jointly exceed the capacity.
        let mut len = self.len.load(Ordering::Relaxed);
        loop {
            if len >= self.capacity {
                return Err(job);
            }
            match self
                .len
                .compare_exchange_weak(len, len + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => len = actual,
            }
        }
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[shard]
            .lock()
            .expect("queue shard")
            .push_back(job);
        // Take the signal lock before notifying so a worker that found the
        // queue empty either sees the new depth in its locked re-check or
        // is already parked in `wait` and receives this notification —
        // the push can never fall into the gap between the two.
        let _guard = self.signal_lock.lock().expect("queue signal");
        self.signal.notify_one();
        Ok(())
    }

    /// Parks the calling worker until work may be available (or the wait
    /// times out as a liveness backstop). `should_stop` is re-checked
    /// under the signal lock so a shutdown broadcast is never missed.
    fn wait_for_work(&self, should_stop: impl Fn() -> bool) {
        let guard = self.signal_lock.lock().expect("queue signal");
        if should_stop() || self.depth() > 0 {
            return;
        }
        let _ = self
            .signal
            .wait_timeout(guard, Duration::from_millis(250))
            .expect("queue signal");
    }

    /// Wakes every parked worker (shutdown broadcast).
    fn wake_all(&self) {
        let _guard = self.signal_lock.lock().expect("queue signal");
        self.signal.notify_all();
    }

    /// Pops from `home` first, then steals round-robin from the rest.
    fn pop(&self, home: usize) -> Option<Arc<Job>> {
        let n = self.shards.len();
        for i in 0..n {
            let shard = (home + i) % n;
            let job = self.shards[shard].lock().expect("queue shard").pop_front();
            if let Some(job) = job {
                self.len.fetch_sub(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    fn depth(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

/// The most result bytes finished jobs keep between them. Under the TTL
/// alone the registry holds every result of the last 15 minutes, about
/// 20 KB per analyze job, so its memory grew with throughput; past this
/// bound the oldest finished jobs retire early. 32 MiB holds about 1 900
/// Table-1 analyze results.
const RETAINED_RESULT_BYTES: usize = 32 << 20;

/// Finished jobs in the order they finished, with their result sizes:
/// the retirement queue.
#[derive(Default)]
struct Retention {
    order: VecDeque<(Instant, u64, usize)>,
    bytes: usize,
}

impl Retention {
    fn push(&mut self, id: u64, bytes: usize) {
        self.order.push_back((Instant::now(), id, bytes));
        self.bytes += bytes;
    }

    /// Dequeues, oldest first, every job finished more than `ttl` ago and
    /// then as many more as it takes to hold at most `max_bytes`, and
    /// returns their ids.
    fn expire(&mut self, ttl: Duration, max_bytes: usize) -> Vec<u64> {
        let mut retired = Vec::new();
        while let Some(&(at, id, bytes)) = self.order.front() {
            if at.elapsed() <= ttl && self.bytes <= max_bytes {
                break;
            }
            self.order.pop_front();
            self.bytes -= bytes;
            retired.push(id);
        }
        retired
    }
}

struct Registry {
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    retention: Mutex<Retention>,
    next_id: AtomicU64,
    queue: ShardedQueue,
    cache: CompileCache,
    shutdown: AtomicBool,
    options: ServerOptions,
    /// The server's recording telemetry: request/queue/job latency
    /// histograms plus every campaign and certification series the
    /// engines emit while running jobs. Exported by `GET /v1/metrics`.
    telemetry: Telemetry,
}

impl Registry {
    fn counts(&self) -> [usize; 5] {
        let jobs = self.jobs.lock().expect("job registry");
        let mut counts = [0usize; 5];
        for job in jobs.values() {
            let idx = match job.inner.lock().expect("job").state {
                JobState::Queued => 0,
                JobState::Running => 1,
                JobState::Done => 2,
                JobState::Failed => 3,
                JobState::Cancelled => 4,
            };
            counts[idx] += 1;
        }
        counts
    }

    /// Marks `job` finished: trims its result and queues it for
    /// retirement. The job's lock is released first, so no thread ever
    /// holds a job lock and the retention lock at once.
    fn finish(&self, job: &Job, mut inner: MutexGuard<'_, JobInner>) {
        // A finished result stays in the registry until it retires:
        // keep its bytes, not the slack its rendering grew into.
        let bytes = match &mut inner.result {
            Some((body, _)) => {
                body.shrink_to_fit();
                body.len()
            }
            None => 0,
        };
        drop(inner);
        self.retention
            .lock()
            .expect("retention queue")
            .push(job.id, bytes);
    }

    /// Retires finished jobs older than the configured TTL, then the
    /// oldest past the [`RETAINED_RESULT_BYTES`] bound. Called on every
    /// submission, so the registry's size is bounded by the arrival rate
    /// times the TTL and its result bytes by a constant, rather than by
    /// the server's lifetime.
    fn sweep_expired(&self) {
        let retired = self
            .retention
            .lock()
            .expect("retention queue")
            .expire(self.options.job_ttl, RETAINED_RESULT_BYTES);
        {
            let mut jobs = self.jobs.lock().expect("job registry");
            for id in &retired {
                jobs.remove(id);
            }
            self.telemetry
                .gauge("scfi_serve_registry_jobs")
                .set(jobs.len() as u64);
        }
        if !retired.is_empty() {
            self.telemetry
                .counter("scfi_serve_jobs_evicted_total")
                .add(retired.len() as u64);
        }
    }
}

/// A running `scfi serve` instance. Binding spawns the accept loop and
/// the worker pool; [`Server::shutdown`] (or drop) stops both.
pub struct Server {
    registry: Arc<Registry>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// starts serving in background threads.
    pub fn bind(addr: &str, options: ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(Registry {
            jobs: Mutex::new(HashMap::new()),
            retention: Mutex::new(Retention::default()),
            next_id: AtomicU64::new(1),
            queue: ShardedQueue::new(options.workers, options.queue_capacity),
            cache: CompileCache::new(options.cache_capacity),
            shutdown: AtomicBool::new(false),
            options,
            telemetry: Telemetry::recording(),
        });

        let workers = (0..options.workers.max(1))
            .map(|home| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || worker_loop(&registry, home))
            })
            .collect();

        let accept_registry = Arc::clone(&registry);
        let accept = std::thread::spawn(move || accept_loop(listener, &accept_registry));

        Ok(Server {
            registry,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, cancels running jobs, and joins every thread.
    pub fn shutdown(&mut self) {
        self.registry.shutdown.store(true, Ordering::Relaxed);
        {
            let jobs = self.registry.jobs.lock().expect("job registry");
            for job in jobs.values() {
                let inner = job.inner.lock().expect("job");
                if let Some(control) = &inner.control {
                    control.cancel();
                }
            }
        }
        // Wake the parked workers and the blocking accept (a throwaway
        // local connection — the accept loop re-checks the flag per
        // connection, so one wake suffices).
        self.registry.queue.wake_all();
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Blocks until the server shuts down (used by the CLI, which serves
    /// until killed).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, registry: &Arc<Registry>) {
    // Blocking accept: no poll interval between a client's connect and
    // the dispatch of its connection. `Server::shutdown` unblocks the
    // loop with a throwaway local connection after setting the flag.
    while !registry.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if registry.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                let registry = Arc::clone(registry);
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &registry);
                });
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn worker_loop(registry: &Arc<Registry>, home: usize) {
    while !registry.shutdown.load(Ordering::Relaxed) {
        let Some(job) = registry.queue.pop(home) else {
            registry
                .queue
                .wait_for_work(|| registry.shutdown.load(Ordering::Relaxed));
            continue;
        };
        run_one(registry, &job);
    }
}

/// Executes one job end to end, with panic isolation: a panicking
/// prepare or campaign marks this job failed and the worker survives.
fn run_one(registry: &Registry, job: &Job) {
    registry
        .telemetry
        .histogram("scfi_serve_queue_wait_ns")
        .observe_duration(job.submitted_at.elapsed());
    // Claim the job, honoring a cancellation that arrived while queued.
    {
        let mut inner = job.inner.lock().expect("job");
        if inner.cancel_requested {
            inner.state = JobState::Cancelled;
            inner.error = Some("cancelled while queued".to_string());
            registry.finish(job, inner);
            return;
        }
        inner.state = JobState::Running;
    }
    let run_start = Instant::now();

    let spec = &job.spec;
    let prepared = catch_panic("model preparation", || {
        registry
            .cache
            .get_or_prepare(&spec.fsm, spec.config, spec.level)
    });
    let (prepared, cache_hit) = match prepared.and_then(|result| result) {
        Ok(pair) => pair,
        Err(message) => {
            let mut inner = job.inner.lock().expect("job");
            inner.state = JobState::Failed;
            inner.error = Some(message);
            registry.finish(job, inner);
            return;
        }
    };

    // Arm the control handle (deadline starts now, not at submission)
    // and expose it for DELETE; re-check cancellation under the same
    // lock so a cancel racing this window is never lost.
    let control = spec.run_control();
    {
        let mut inner = job.inner.lock().expect("job");
        inner.cache_hit = Some(cache_hit);
        inner.digest = Some(prepared.digest);
        inner.control = Some(control.clone());
        if inner.cancel_requested {
            control.cancel();
        }
    }

    let outcome = catch_panic("job", || {
        crate::jobs::run_job(spec, &prepared, &control, &registry.telemetry)
    });
    let run_elapsed = run_start.elapsed();
    registry
        .telemetry
        .histogram("scfi_serve_job_run_ns")
        .observe_duration(run_elapsed);
    registry
        .telemetry
        .counter("scfi_serve_worker_busy_ns_total")
        .add(run_elapsed.as_nanos() as u64);
    registry
        .telemetry
        .record_span("serve_job", run_start, run_elapsed);

    let mut inner = job.inner.lock().expect("job");
    match outcome {
        Ok(JobOutcome::Done { body, content_type }) => {
            inner.state = JobState::Done;
            inner.result = Some((body, content_type));
        }
        Ok(JobOutcome::Stopped { reason, body }) => {
            inner.state = match reason {
                StopReason::Cancelled => JobState::Cancelled,
                _ => JobState::Failed,
            };
            inner.error = Some(format!("stopped early: {reason}"));
            inner.result = Some((body, "application/json"));
        }
        Ok(JobOutcome::Failed { message }) | Err(message) => {
            inner.state = JobState::Failed;
            inner.error = Some(message);
        }
    }
    registry.finish(job, inner);
}

/// Runs one stage of a job with panic isolation: a panic becomes the
/// failure message `"{stage} panicked: {payload}"` and the worker
/// survives.
fn catch_panic<T>(stage: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|payload| format!("{stage} panicked: {}", panic_message(payload)))
}

// ---------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    body: String,
}

/// Largest accepted request body (a DSL FSM is a few KiB; this is far
/// above any legitimate request).
const MAX_BODY: usize = 1 << 20;

fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_BODY {
            return Err("headers too large".to_string());
        }
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-request".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| "non-UTF-8 headers")?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "bad Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err("body too large".to_string());
    }

    let body_start = header_end + 4;
    let mut body = buf[body_start.min(buf.len())..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| "non-UTF-8 body")?;
    Ok(Request { method, path, body })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
    retry_after: Option<u64>,
}

impl Response {
    fn json(status: u16, doc: Json) -> Response {
        let mut body = doc.encode();
        body.push('\n');
        Response {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    fn error(e: &ApiError) -> Response {
        Response {
            status: e.status,
            content_type: "application/json",
            body: e.body(),
            retry_after: None,
        }
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        reason_phrase(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

/// Stable per-endpoint label for the request-latency histograms (the
/// metric name embeds the endpoint class, keeping the exposition free of
/// label syntax the hand-rolled renderer would have to escape).
fn endpoint_class(method: &str, path: &str) -> &'static str {
    let path = path.trim_end_matches('/');
    match (method, path) {
        ("GET", "/v1/healthz") => "healthz",
        ("GET", "/v1/metrics") => "metrics",
        ("POST", "/v1/jobs") => "submit",
        (method, path) if path.starts_with("/v1/jobs/") => match method {
            "DELETE" => "cancel",
            "GET" if path.ends_with("/result") => "result",
            "GET" => "status",
            _ => "other",
        },
        _ => "other",
    }
}

fn handle_connection(mut stream: TcpStream, registry: &Arc<Registry>) -> std::io::Result<()> {
    let start = Instant::now();
    let (resp, endpoint) = match read_request(&mut stream) {
        Ok(req) => (
            route(&req, registry),
            endpoint_class(&req.method, &req.path),
        ),
        Err(message) => (
            Response::error(&ApiError::bad_request("bad_request", message)),
            "other",
        ),
    };
    let result = write_response(&mut stream, &resp);
    registry
        .telemetry
        .counter("scfi_serve_requests_total")
        .inc();
    registry
        .telemetry
        .histogram(&format!("scfi_serve_request_{endpoint}_ns"))
        .observe_duration(start.elapsed());
    result
}

fn route(req: &Request, registry: &Arc<Registry>) -> Response {
    let path = req.path.trim_end_matches('/');
    match (req.method.as_str(), path) {
        ("GET", "/v1/healthz") => health(registry),
        ("GET", "/v1/metrics") => metrics(registry),
        ("POST", "/v1/jobs") => submit(req, registry),
        (method, path) if path.starts_with("/v1/jobs/") => {
            let rest = &path["/v1/jobs/".len()..];
            let (id_text, want_result) = match rest.strip_suffix("/result") {
                Some(id) => (id, true),
                None => (rest, false),
            };
            let Ok(id) = id_text.parse::<u64>() else {
                return Response::error(&ApiError {
                    status: 404,
                    code: "unknown_job",
                    message: format!("no job `{id_text}`"),
                });
            };
            let job = registry
                .jobs
                .lock()
                .expect("job registry")
                .get(&id)
                .cloned();
            let Some(job) = job else {
                return Response::error(&ApiError {
                    status: 404,
                    code: "unknown_job",
                    message: format!("no job {id}"),
                });
            };
            match (method, want_result) {
                ("GET", false) => status(&job),
                ("GET", true) => result(&job),
                ("DELETE", false) => cancel(&job),
                _ => Response::error(&ApiError {
                    status: 405,
                    code: "bad_method",
                    message: format!("{} not allowed here", req.method),
                }),
            }
        }
        ("POST", _) | ("GET", _) | ("DELETE", _) => Response::error(&ApiError {
            status: 404,
            code: "unknown_path",
            message: format!("no route for {path}"),
        }),
        (method, _) => Response::error(&ApiError {
            status: 405,
            code: "bad_method",
            message: format!("method {method} not supported"),
        }),
    }
}

fn health(registry: &Registry) -> Response {
    let [queued, running, done, failed, cancelled] = registry.counts();
    Response::json(
        200,
        obj(vec![
            ("status", Json::Str("ok".into())),
            (
                "jobs",
                obj(vec![
                    ("queued", Json::Int(queued as i64)),
                    ("running", Json::Int(running as i64)),
                    ("done", Json::Int(done as i64)),
                    ("failed", Json::Int(failed as i64)),
                    ("cancelled", Json::Int(cancelled as i64)),
                ]),
            ),
            (
                "cache",
                obj(vec![
                    ("hits", Json::Int(registry.cache.hits() as i64)),
                    ("misses", Json::Int(registry.cache.misses() as i64)),
                    ("entries", Json::Int(registry.cache.len() as i64)),
                ]),
            ),
            (
                "queue",
                obj(vec![
                    ("depth", Json::Int(registry.queue.depth() as i64)),
                    (
                        "capacity",
                        Json::Int(registry.options.queue_capacity as i64),
                    ),
                ]),
            ),
        ]),
    )
}

/// `GET /v1/metrics`: the full telemetry registry in Prometheus text
/// exposition format. The point-in-time gauges (queue depth, cache
/// counters, registry size) are refreshed from the same live sources
/// `/v1/healthz` reads, so the two endpoints can never disagree.
fn metrics(registry: &Registry) -> Response {
    let t = &registry.telemetry;
    t.gauge("scfi_serve_queue_depth")
        .set(registry.queue.depth() as u64);
    t.gauge("scfi_serve_cache_hits").set(registry.cache.hits());
    t.gauge("scfi_serve_cache_misses")
        .set(registry.cache.misses());
    t.gauge("scfi_serve_cache_entries")
        .set(registry.cache.len() as u64);
    t.gauge("scfi_serve_registry_jobs")
        .set(registry.jobs.lock().expect("job registry").len() as u64);
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        body: t.render_prometheus(),
        retry_after: None,
    }
}

fn submit(req: &Request, registry: &Arc<Registry>) -> Response {
    registry.sweep_expired();
    registry
        .telemetry
        .counter("scfi_serve_jobs_submitted_total")
        .inc();
    let doc = match parse(&req.body) {
        Ok(doc) => doc,
        Err(e) => {
            return Response::error(&ApiError::bad_request("bad_json", e.to_string()));
        }
    };
    let spec = match JobSpec::from_json(&doc) {
        Ok(spec) => spec,
        Err(e) => return Response::error(&e),
    };
    let id = registry.next_id.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job::new(id, spec));
    registry
        .jobs
        .lock()
        .expect("job registry")
        .insert(id, Arc::clone(&job));
    if registry.queue.push(Arc::clone(&job)).is_err() {
        // Backpressure: drop the registration again — the job never
        // existed as far as clients are concerned.
        registry.jobs.lock().expect("job registry").remove(&id);
        let e = ApiError {
            status: 429,
            code: "queue_full",
            message: format!(
                "job queue is at capacity ({}); retry shortly",
                registry.options.queue_capacity
            ),
        };
        let mut resp = Response::error(&e);
        resp.retry_after = Some(1);
        return resp;
    }
    Response::json(
        202,
        obj(vec![
            ("id", Json::Int(id as i64)),
            ("status", Json::Str("queued".into())),
        ]),
    )
}

fn status(job: &Job) -> Response {
    let inner = job.inner.lock().expect("job");
    let mut fields = vec![
        ("id", Json::Int(job.id as i64)),
        ("kind", Json::Str(job.spec.kind.name().to_string())),
        ("status", Json::Str(inner.state.name().to_string())),
        (
            "progress",
            obj(vec![(
                "injections",
                Json::Int(
                    inner
                        .control
                        .as_ref()
                        .map(|c| c.admitted() as i64)
                        .unwrap_or(0),
                ),
            )]),
        ),
    ];
    if let Some(hit) = inner.cache_hit {
        fields.push(("cache_hit", Json::Bool(hit)));
    }
    if let Some(digest) = inner.digest {
        fields.push(("digest", Json::Str(format!("{digest:016x}"))));
    }
    if let Some(error) = &inner.error {
        fields.push(("error", Json::Str(error.clone())));
    }
    Response::json(200, obj(fields))
}

fn result(job: &Job) -> Response {
    let inner = job.inner.lock().expect("job");
    match (&inner.result, inner.state) {
        (Some((body, content_type)), _) => Response {
            status: 200,
            content_type,
            body: body.clone(),
            retry_after: None,
        },
        (None, JobState::Failed | JobState::Cancelled) => Response::error(&ApiError {
            status: 500,
            code: "job_failed",
            message: inner
                .error
                .clone()
                .unwrap_or_else(|| "job failed without a result".to_string()),
        }),
        (None, _) => Response::error(&ApiError {
            status: 409,
            code: "not_finished",
            message: format!("job {} is {}", job.id, inner.state.name()),
        }),
    }
}

fn cancel(job: &Job) -> Response {
    let mut inner = job.inner.lock().expect("job");
    inner.cancel_requested = true;
    if let Some(control) = &inner.control {
        control.cancel();
    }
    Response::json(
        202,
        obj(vec![
            ("id", Json::Int(job.id as i64)),
            ("status", Json::Str("cancel_requested".into())),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_retires_by_age_then_by_bytes_oldest_first() {
        let hour = Duration::from_secs(3600);
        let mut r = Retention::default();
        for id in 1..=4 {
            r.push(id, 10);
        }
        assert_eq!(r.expire(hour, 40), Vec::<u64>::new());
        assert_eq!(r.expire(hour, 25), [1, 2]);
        assert_eq!(r.bytes, 20);
        r.push(5, 0);
        std::thread::sleep(Duration::from_millis(200));
        r.push(6, 10);
        // Age first: everything finished before the pause has expired.
        assert_eq!(r.expire(Duration::from_millis(100), 30), [3, 4, 5]);
        assert_eq!((r.order.len(), r.bytes), (1, 10));
    }

    #[test]
    fn sharded_queue_bounds_and_steals() {
        let q = ShardedQueue::new(2, 3);
        let job = |id| {
            Arc::new(Job::new(
                id,
                JobSpec::from_json(
                    &parse(r#"{"kind": "certify", "suite": "aes_control"}"#).unwrap(),
                )
                .unwrap(),
            ))
        };
        assert!(q.push(job(1)).is_ok());
        assert!(q.push(job(2)).is_ok());
        assert!(q.push(job(3)).is_ok());
        assert!(q.push(job(4)).is_err(), "capacity 3 refuses the 4th");
        assert_eq!(q.depth(), 3);
        // Worker 1's home shard may be empty — stealing still drains all.
        let mut seen = vec![];
        while let Some(j) = q.pop(1) {
            seen.push(j.id);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn worker_panics_keep_their_message() {
        let literal = catch_panic("job", || -> () { panic!("boom") });
        let formatted = catch_panic("model preparation", || -> () { panic!("bad {}", 7) });
        assert_eq!(literal, Err("job panicked: boom".to_string()));
        assert_eq!(
            formatted,
            Err("model preparation panicked: bad 7".to_string())
        );
        assert_eq!(catch_panic("job", || 5), Ok(5));
    }

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n"), None);
    }
}
