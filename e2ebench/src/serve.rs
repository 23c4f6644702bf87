//! `serve`: `scfi serve` as a child, two closed-loop client connections.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use scfi_faultsim::{Backend, RunControl};
use scfi_serve::json::{obj, parse, Json};
use scfi_serve::{JobOutcome, JobSpec};
use scfi_telemetry::Telemetry;

use crate::inputs::{deep_fsm_dsl, table1, Rng};
use crate::layers::{self, CertifyJob};
use crate::measure::{median, vm_hwm_kib};
use crate::report::{count, metric, Outcome};
use crate::{trace, Ctx};

/// Client connections, one per core of the reference host.
const CLIENTS: usize = 2;
/// Pause before each status poll: the latency resolution of a job.
const POLL: Duration = Duration::from_millis(2);
/// Novel (cache-missing) jobs per round.
const NOVEL: usize = 10;

const CONFIGS: [&str; 3] = ["scfi", "redundancy", "unprotected"];

#[derive(Clone)]
struct Job {
    body: String,
    /// Model identity: the compile-cache key.
    model: String,
    hot: bool,
}

fn analyze_body(fsm: (&str, &str), config: &str, level: usize) -> String {
    obj(vec![
        ("kind", Json::Str("analyze".into())),
        (fsm.0, Json::Str(fsm.1.into())),
        ("config", Json::Str(config.into())),
        ("level", Json::Int(level as i64)),
    ])
    .encode()
}

fn certify_body(fsm: (&str, &str), config: &str, level: usize, joint: bool) -> String {
    let mut fields = vec![
        ("kind", Json::Str("certify".into())),
        (fsm.0, Json::Str(fsm.1.into())),
        ("config", Json::Str(config.into())),
        ("level", Json::Int(level as i64)),
    ];
    if joint {
        fields.push(("joint", Json::Bool(true)));
    }
    obj(fields).encode()
}

/// The hot set: 7 Table-1 FSMs x 3 configs at N=3 (21 models, within the
/// 32-entry compile cache). Hot jobs per round: an analyze job on every
/// hot model, a register-region certification on every Table-1 FSM (the
/// config cycling), and joint SCFI certifications of the two smallest.
fn hot_jobs() -> Vec<Job> {
    let names: Vec<String> = table1().into_iter().map(|(n, _)| n).collect();
    let mut jobs = Vec::new();
    for name in &names {
        for config in CONFIGS {
            jobs.push(Job {
                body: analyze_body(("suite", name), config, 3),
                model: format!("{name}/{config}/3"),
                hot: true,
            });
        }
    }
    for (i, name) in names.iter().enumerate() {
        let config = CONFIGS[i % 3];
        jobs.push(Job {
            body: certify_body(("suite", name), config, 3, false),
            model: format!("{name}/{config}/3"),
            hot: true,
        });
    }
    for name in ["aes_control", "otbn_controller"] {
        jobs.push(Job {
            body: certify_body(("suite", name), "scfi", 3, true),
            model: format!("{name}/scfi/3"),
            hot: true,
        });
    }
    jobs
}

/// The novel jobs of round `round`: fresh generated 30-state FSMs sent
/// as inline DSL (7 analyze at N=3, 3 register-region certify at N=2).
fn novel_jobs(seed: u64, round: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed).fork(31).fork(round as u64);
    (0..NOVEL)
        .map(|i| {
            let name = format!("novel_s{seed}_r{round}_{i}");
            let dsl = deep_fsm_dsl(&name, 30, &mut rng);
            let body = if i < 7 {
                analyze_body(("fsm", &dsl), "scfi", 3)
            } else {
                certify_body(("fsm", &dsl), "scfi", 2, false)
            };
            Job {
                body,
                model: name,
                hot: false,
            }
        })
        .collect()
}

/// A round: the hot jobs and this round's novel jobs, in a seeded order
/// that is the same every round.
fn round_jobs(seed: u64, round: usize) -> Vec<Job> {
    let mut jobs = hot_jobs();
    jobs.extend(novel_jobs(seed, round));
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    Rng::new(seed).fork(32).shuffle(&mut order);
    order.into_iter().map(|i| jobs[i].clone()).collect()
}

/// One HTTP/1.1 exchange on a fresh connection: `(status, body)`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let _g = trace::span("serve", http_span(method, path));
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = s.set_nodelay(true);
    s.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(buf).map_err(|_| "non-UTF-8 response".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed response".to_string())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "malformed status line".to_string())?;
    Ok((status, body.to_string()))
}

fn http_span(method: &str, path: &str) -> &'static str {
    match (method, path.ends_with("/result")) {
        ("POST", _) => "POST /v1/jobs",
        (_, true) => "GET /v1/jobs/{id}/result",
        _ if path.starts_with("/v1/jobs/") => "GET /v1/jobs/{id}",
        _ => "GET /v1/other",
    }
}

/// What the client saw of one job.
#[derive(Default)]
struct Seen {
    ok: bool,
    body: String,
    latency_ms: f64,
    cache_hit: Option<bool>,
    polls: u64,
    rejected: u64,
    /// Per-request round trips, ms: submit, status polls, result.
    submit_ms: f64,
    status_ms: Vec<f64>,
    result_ms: f64,
    error: String,
    injections: u64,
    sites: u64,
}

fn timed_http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (Result<(u16, String), String>, f64) {
    let t = Instant::now();
    let r = http(addr, method, path, body);
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Submit, poll until finished, fetch the result.
fn run_job(addr: SocketAddr, job: &Job) -> Seen {
    let mut seen = Seen::default();
    let start = Instant::now();
    let id = loop {
        let (r, ms) = timed_http(addr, "POST", "/v1/jobs", &job.body);
        seen.submit_ms += ms;
        match r {
            Ok((202, body)) => match parse(&body).ok().and_then(|d| d.get("id")?.as_u64()) {
                Some(id) => break id,
                None => {
                    seen.error = format!("submit: no id in {body}");
                    return seen;
                }
            },
            Ok((429, _)) => {
                seen.rejected += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok((status, body)) => {
                seen.error = format!("submit: {status} {body}");
                return seen;
            }
            Err(e) => {
                seen.error = format!("submit: {e}");
                return seen;
            }
        }
    };
    let status = loop {
        std::thread::sleep(POLL);
        let (r, ms) = timed_http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        seen.status_ms.push(ms);
        seen.polls += 1;
        let doc = match r {
            Ok((200, body)) => match parse(&body) {
                Ok(doc) => doc,
                Err(e) => {
                    seen.error = format!("status: {e}");
                    return seen;
                }
            },
            Ok((status, body)) => {
                seen.error = format!("status: {status} {body}");
                return seen;
            }
            Err(e) => {
                seen.error = format!("status: {e}");
                return seen;
            }
        };
        let state = doc
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        if !matches!(state.as_str(), "queued" | "running") {
            seen.cache_hit = doc.get("cache_hit").and_then(Json::as_bool);
            break state;
        }
    };
    let (r, ms) = timed_http(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
    seen.result_ms = ms;
    seen.latency_ms = start.elapsed().as_secs_f64() * 1e3;
    match r {
        Ok((200, body)) if status == "done" => {
            seen.ok = true;
            seen.body = body;
        }
        Ok((code, body)) => seen.error = format!("job {status}; result {code} {body}"),
        Err(e) => seen.error = format!("result: {e}"),
    }
    if seen.ok {
        (seen.injections, seen.sites) = work_units(&seen.body);
    }
    seen
}

/// Injections (analyze) or certified sites (certify) in a result body.
fn work_units(body: &str) -> (u64, u64) {
    if let Some(rest) = body.split("\"injections\": ").nth(1) {
        let inj = rest.split(',').next().and_then(|v| v.trim().parse().ok());
        return (inj.unwrap_or(0), 0);
    }
    let Ok(doc) = parse(body) else {
        return (0, 0);
    };
    if let Some(Json::Arr(sites)) = doc.get("sites") {
        return (0, sites.len() as u64);
    }
    (0, doc.get("sites").and_then(Json::as_u64).unwrap_or(0))
}

/// Runs `jobs` through `CLIENTS` closed-loop clients; results in job order.
fn drive(addr: SocketAddr, jobs: &[Job]) -> Vec<Seen> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Seen>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                trace::set_job(i as u64);
                let seen = run_job(addr, job);
                results.lock().expect("results")[i] = Some(seen);
            });
        }
    });
    results
        .into_inner()
        .expect("results")
        .into_iter()
        .map(|s| s.unwrap_or_default())
        .collect()
}

struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn start(ctx: &Ctx) -> Result<Server, String> {
        let mut child = Command::new(&ctx.scfi)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning scfi serve: {e}"))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.trim().rsplit(' ').next()?.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("scfi serve did not report its address: {line:?}"));
        };
        let server = Server { child, addr };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok((200, _)) = http(addr, "GET", "/v1/healthz", "") {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("scfi serve never became healthy".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Set-up: start the server, wait for `/v1/healthz`, and fill the compile
/// cache with one analyze job per hot model.
fn setup(ctx: &Ctx) -> Result<(Server, f64), String> {
    let start = Instant::now();
    let server = Server::start(ctx)?;
    let fill: Vec<Job> = hot_jobs().into_iter().take(21).collect();
    let seen = drive(server.addr, &fill);
    if let Some(bad) = seen.iter().find(|s| !s.ok) {
        return Err(format!("cache fill failed: {}", bad.error));
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

/// `name value` samples of a Prometheus exposition.
fn prom(addr: SocketAddr) -> Vec<(String, f64)> {
    let Ok((200, text)) = http(addr, "GET", "/v1/metrics", "") else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

fn prom_get(samples: &[(String, f64)], name: &str) -> f64 {
    samples
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v)
}

/// The job run directly through the library (`run_job` on a fresh
/// preparation), for the served ≡ direct check.
fn direct(job: &Job, backend: Option<Backend>) -> Result<(String, f64), String> {
    let mut spec =
        JobSpec::from_json(&parse(&job.body).map_err(|e| e.to_string())?).map_err(|e| e.message)?;
    if let Some(b) = backend {
        spec.backend = b;
    }
    let start = Instant::now();
    let prepared = layers::prepare(&spec.fsm, spec.config, spec.level)?;
    let outcome = scfi_serve::jobs::run_job(
        &spec,
        &prepared,
        &RunControl::unlimited(),
        &Telemetry::off(),
    );
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match outcome {
        JobOutcome::Done { body, .. } => Ok((body, ms)),
        JobOutcome::Stopped { reason, .. } => Err(format!("stopped: {reason}")),
        JobOutcome::Failed { message } => Err(message),
    }
}

/// The traced in-process replay of a job through the layer wrappers.
fn layered(job: &Job, telemetry: &Telemetry) -> Result<String, String> {
    let _g = trace::span("job", "serve");
    let doc = parse(&job.body).map_err(|e| e.to_string())?;
    let spec = trace::timed("serve", "JobSpec::from_json", || JobSpec::from_json(&doc))
        .map_err(|e| e.message)?;
    let dsl = spec.fsm.to_dsl();
    let fsm = layers::parse(&dsl)?;
    let prepared = layers::prepare(&fsm, spec.config, spec.level)?;
    match spec.kind {
        scfi_serve::JobKind::Analyze => layers::serve_analyze(&prepared, telemetry),
        scfi_serve::JobKind::Certify => {
            let kind = if spec.joint {
                CertifyJob::Joint
            } else {
                CertifyJob::Register
            };
            Ok(layers::certify(&prepared, kind, spec.level, telemetry)?.bytes)
        }
    }
}

pub fn run_workload(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::new();
    let mut server = None;
    for _ in 0..9 {
        let (s, secs) = setup(ctx)?;
        o.setup_s.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr;

    let before = prom(addr);
    let mut round0: Vec<Job> = Vec::new();
    let mut round0_seen: Vec<Seen> = Vec::new();
    let mut window: Vec<Seen> = Vec::new();
    let mut repeat_mismatch = 0usize;
    let mut models_seen: std::collections::HashSet<String> =
        hot_jobs().into_iter().take(21).map(|j| j.model).collect();
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < ctx.window_seconds() {
        let jobs = round_jobs(ctx.seed, round);
        let round_start = Instant::now();
        let seen = drive(addr, &jobs);
        o.round_rates
            .push(jobs.len() as f64 / round_start.elapsed().as_secs_f64());
        for (i, (job, s)) in jobs.iter().zip(&seen).enumerate() {
            o.attempted += 1;
            if !models_seen.insert(job.model.clone()) {
                o.repeats += 1;
            }
            if !s.ok {
                o.failed += 1;
                o.info
                    .push(format!("round {round} job {i} failed: {}", s.error));
            }
            if round > 0 && job.hot && s.ok && s.body != round0_seen[i].body {
                repeat_mismatch += 1;
            }
            o.injections += s.injections;
            o.sites += s.sites;
            o.latencies_ms
                .push(if s.ok { s.latency_ms } else { f64::INFINITY });
        }
        if round == 0 {
            for s in &seen {
                o.digest.add(s.body.as_bytes());
            }
            round0 = jobs;
            round0_seen = seen;
        } else {
            window.extend(seen);
        }
        round += 1;
    }
    o.window_s = start.elapsed().as_secs_f64();
    window.extend(round0_seen.iter().map(|s| Seen {
        ok: s.ok,
        latency_ms: s.latency_ms,
        cache_hit: s.cache_hit,
        polls: s.polls,
        rejected: s.rejected,
        submit_ms: s.submit_ms,
        status_ms: s.status_ms.clone(),
        result_ms: s.result_ms,
        ..Seen::default()
    }));
    let after = prom(addr);
    o.peak_rss_kib = vm_hwm_kib(&server.pid());
    o.digest_jobs = round0.len();
    o.check(
        "repeat_identical",
        repeat_mismatch == 0,
        format!("{repeat_mismatch} repeated hot jobs differ from their round-0 bytes"),
    );

    if ctx.trace {
        trace::enable(true);
        let t = Instant::now();
        let traced = drive(addr, &round0);
        let traced_s = t.elapsed().as_secs_f64();
        let telemetry = Telemetry::recording();
        let mut layered_bad = Vec::new();
        for (i, job) in round0.iter().enumerate() {
            trace::set_job(i as u64);
            if !matches!(layered(job, &telemetry), Ok(b) if b == round0_seen[i].body) {
                layered_bad.push(i);
            }
        }
        trace::enable(false);
        let traced_bad: Vec<usize> = (0..round0.len())
            .filter(|&i| traced[i].body != round0_seen[i].body)
            .collect();
        o.check(
            "traced_identical",
            traced_bad.is_empty() && layered_bad.is_empty(),
            format!(
                "traced served round differs on {traced_bad:?}; layered replay differs on {layered_bad:?}"
            ),
        );
        let spans = trace::take();
        o.overhead = Some((
            o.latencies_ms.len() as f64 / o.window_s,
            round0.len() as f64 / traced_s,
        ));
        o.layers = crate::report::library_layers(&spans, &telemetry, (0, 0));
        o.layers.push(gates_metric(&round0));
        o.spans = spans;
    }
    // Served bytes must equal direct `run_job` bytes for every round-0
    // job; two seeded analyze jobs also replay on the scalar backend.
    let mut direct_ms = 0.0;
    let mut differ = Vec::new();
    for (i, (job, s)) in round0.iter().zip(&round0_seen).enumerate() {
        match direct(job, None) {
            Ok((body, ms)) if body == s.body => direct_ms += ms,
            _ => differ.push(i),
        }
    }
    o.check(
        "served_equals_direct",
        differ.is_empty(),
        format!(
            "{} round-0 jobs run through `run_job` directly; differing: {differ:?}",
            round0.len()
        ),
    );
    let analyze: Vec<usize> = (0..round0.len())
        .filter(|&i| round0[i].hot && round0[i].body.contains("\"analyze\""))
        .collect();
    let mut rng = Rng::new(ctx.seed).fork(33);
    let mut scalar_bad = Vec::new();
    for _ in 0..2 {
        let i = analyze[rng.below(analyze.len())];
        if !matches!(direct(&round0[i], Some(Backend::Scalar)), Ok((b, _)) if b == round0_seen[i].body)
        {
            scalar_bad.push(i);
        }
    }
    o.check(
        "scalar_replay",
        scalar_bad.is_empty(),
        format!("2 seeded analyze jobs on the scalar backend; differing: {scalar_bad:?}"),
    );

    if ctx.trace {
        o.layers.extend(serve_layers(
            &window,
            &before,
            &after,
            o.window_s,
            direct_ms,
            &round0_seen,
        ));
    }
    o.info.push(format!(
        "mix: {} jobs per round ({} hot: analyze on 21 hot models, 7 register + 2 joint certify; {NOVEL} novel generated 30-state FSMs: 7 analyze, 3 certify); {} rounds",
        round0.len(),
        round0.len() - NOVEL,
        round
    ));
    o.info.push(format!(
        "client: {CLIENTS} closed-loop connections, poll interval {} ms, {:.2} polls per job",
        POLL.as_millis(),
        window.iter().map(|s| s.polls).sum::<u64>() as f64 / window.len() as f64
    ));
    o.info.push(format!(
        "working set: 21 hot models + {NOVEL} novel per round vs compile-cache capacity 32"
    ));
    Ok(o)
}

fn gates_metric(jobs: &[Job]) -> crate::report::Metric {
    let gates: Vec<usize> = jobs
        .iter()
        .filter_map(|j| {
            let spec = JobSpec::from_json(&parse(&j.body).ok()?).ok()?;
            let p = scfi_serve::cache::prepare(&spec.fsm, spec.config, spec.level).ok()?;
            Some(p.module().cells().len())
        })
        .collect();
    count(
        "netlist.gates",
        "gates",
        Some(gates.iter().sum::<usize>() as f64 / gates.len().max(1) as f64),
        format!(
            "mean cells per prepared model over n={} round-0 jobs",
            gates.len()
        ),
    )
}

fn serve_layers(
    window: &[Seen],
    before: &[(String, f64)],
    after: &[(String, f64)],
    window_s: f64,
    direct_ms: f64,
    round0: &[Seen],
) -> Vec<crate::report::Metric> {
    let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
    let submit: Vec<f64> = window.iter().map(|s| s.submit_ms).collect();
    let status: Vec<f64> = window.iter().flat_map(|s| s.status_ms.clone()).collect();
    let result: Vec<f64> = window.iter().map(|s| s.result_ms).collect();
    let hit: Vec<f64> = window
        .iter()
        .filter(|s| s.cache_hit == Some(true))
        .map(|s| s.latency_ms)
        .collect();
    let miss: Vec<f64> = window
        .iter()
        .filter(|s| s.cache_hit == Some(false))
        .map(|s| s.latency_ms)
        .collect();
    let delta = |name: &str| prom_get(after, name) - prom_get(before, name);
    let (qw_sum, qw_n) = (
        delta("scfi_serve_queue_wait_ns_sum"),
        delta("scfi_serve_queue_wait_ns_count"),
    );
    let (run_sum, run_n) = (
        delta("scfi_serve_job_run_ns_sum"),
        delta("scfi_serve_job_run_ns_count"),
    );
    let busy = delta("scfi_serve_worker_busy_ns_total");
    let polls: u64 = window.iter().map(|s| s.polls).sum();
    let served_ms: f64 = round0.iter().map(|s| s.latency_ms).sum();
    let hits = hit.len() as f64;
    let known = (hit.len() + miss.len()) as f64;
    vec![
        metric(
            "serve.submit_rtt_ms",
            "ms",
            mean(&submit),
            format!("mean of n={}", submit.len()),
        ),
        metric(
            "serve.status_rtt_ms",
            "ms",
            mean(&status),
            format!("mean of n={}", status.len()),
        ),
        metric(
            "serve.result_rtt_ms",
            "ms",
            mean(&result),
            format!("mean of n={}", result.len()),
        ),
        metric(
            "serve.polls_per_job",
            "polls",
            Some(polls as f64 / window.len() as f64),
            format!("{polls} polls / {} jobs at a {} ms interval", window.len(), POLL.as_millis()),
        ),
        metric(
            "serve.queue_wait_ms",
            "ms",
            (qw_n > 0.0).then(|| qw_sum / qw_n / 1e6),
            format!("scfi_serve_queue_wait_ns sum/count over n={qw_n} jobs"),
        ),
        metric(
            "serve.job_run_ms",
            "ms",
            (run_n > 0.0).then(|| run_sum / run_n / 1e6),
            format!("scfi_serve_job_run_ns sum/count over n={run_n} jobs"),
        ),
        metric(
            "serve.hit_job_ms",
            "ms",
            (!hit.is_empty()).then(|| median(&hit)),
            format!("median of n={} cache-hit jobs", hit.len()),
        ),
        metric(
            "serve.miss_job_ms",
            "ms",
            (!miss.is_empty()).then(|| median(&miss)),
            format!("median of n={} cache-miss jobs", miss.len()),
        ),
        metric(
            "serve.worker_busy_frac",
            "fraction",
            Some(busy / (2.0 * window_s * 1e9)),
            format!("{busy:.0} busy ns / (2 workers x {window_s:.3} s)"),
        ),
        metric(
            "serve.overhead_frac",
            "fraction",
            Some(1.0 - direct_ms / served_ms),
            format!(
                "1 - {direct_ms:.3} ms direct prepare+run_job / {served_ms:.3} ms served, n={} round-0 jobs",
                round0.len()
            ),
        ),
        metric(
            "serve.cache_hit_frac",
            "fraction",
            (known > 0.0).then(|| hits / known),
            format!("{hits} hits / {known} jobs reporting cache_hit"),
        ),
        metric(
            "serve.rejected",
            "count",
            Some(window.iter().map(|s| s.rejected).sum::<u64>() as f64),
            "429 responses in the window".to_string(),
        ),
    ]
}
