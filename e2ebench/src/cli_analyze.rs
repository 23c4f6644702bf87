//! `cli_analyze`: one `scfi analyze FILE --level N` child at a time.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use scfi_faultsim::Backend;
use scfi_telemetry::Telemetry;

use crate::inputs::{deep_fsm_dsl, table1, Rng};
use crate::layers::{cli_analyze, AnalyzeArgs};
use crate::measure::{median, run_child};
use crate::report::{metric, Outcome};
use crate::{trace, Ctx};

struct Job {
    model: usize,
    level: usize,
    json: bool,
    stuck_at: bool,
    pin_faults: bool,
    region: Option<&'static str>,
}

/// Generated models (states, levels analyzed per round). Four distinct
/// 100-state models at one level put the 90th percentile inside a plateau
/// of similar jobs instead of on a step between two job sizes.
const DEEP: [(usize, &[usize]); 6] = [
    (50, &[2, 3, 4]),
    (100, &[3]),
    (100, &[3]),
    (100, &[3]),
    (100, &[3]),
    (200, &[2]),
];

struct Inputs {
    /// `(name, DSL text, file)`.
    models: Vec<(String, String, PathBuf)>,
}

fn make_inputs(ctx: &Ctx) -> Result<Inputs, String> {
    let mut rng = Rng::new(ctx.seed).fork(1);
    let mut models: Vec<(String, String)> = table1();
    for (d, (states, _)) in DEEP.iter().enumerate() {
        let name = format!("deep{states}_{d}_s{}", ctx.seed);
        models.push((name.clone(), deep_fsm_dsl(&name, *states, &mut rng)));
    }
    let dir = ctx.out_dir.join("cli_inputs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for (name, dsl) in models {
        let path = dir.join(format!("{name}.dsl"));
        std::fs::write(&path, &dsl).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((name, dsl, path));
    }
    Ok(Inputs { models: out })
}

/// One round: every Table-1 FSM at N ∈ {2,3,4}, the generated FSMs at
/// the levels in [`DEEP`]; exactly half the jobs render JSON, and a fixed
/// number of Table-1 jobs carry `--stuck-at`, `--pin-faults` or
/// `--region`. The seed picks which jobs, and the order.
fn schedule(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed).fork(2);
    let mut jobs = Vec::new();
    for model in 0..7 {
        for level in 2..=4 {
            jobs.push(Job {
                model,
                level,
                json: false,
                stuck_at: false,
                pin_faults: false,
                region: None,
            });
        }
    }
    let mut table1_slots: Vec<usize> = (0..jobs.len()).collect();
    rng.shuffle(&mut table1_slots);
    for (i, &slot) in table1_slots.iter().take(7).enumerate() {
        let j = &mut jobs[slot];
        match i {
            0 | 1 => j.stuck_at = true,
            2 | 3 => j.pin_faults = true,
            4 | 5 => j.region = Some("diffusion"),
            _ => j.region = Some("selector"),
        }
    }
    for (d, (_, levels)) in DEEP.iter().enumerate() {
        for &level in *levels {
            jobs.push(Job {
                model: 7 + d,
                level,
                json: false,
                stuck_at: false,
                pin_faults: false,
                region: None,
            });
        }
    }
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    rng.shuffle(&mut order);
    for &i in order.iter().take(jobs.len() / 2) {
        jobs[i].json = true;
    }
    rng.shuffle(&mut jobs);
    jobs
}

fn args(inputs: &Inputs, job: &Job) -> Vec<String> {
    let mut a = vec![
        "analyze".to_string(),
        inputs.models[job.model].2.display().to_string(),
        "--level".to_string(),
        job.level.to_string(),
    ];
    if job.json {
        a.extend(["--format".to_string(), "json".to_string()]);
    }
    if job.stuck_at {
        a.push("--stuck-at".to_string());
    }
    if job.pin_faults {
        a.push("--pin-faults".to_string());
    }
    if let Some(r) = job.region {
        a.extend(["--region".to_string(), r.to_string()]);
    }
    a
}

/// Injections reported by an analyze output (text or JSON).
fn injections(stdout: &str) -> Option<u64> {
    if let Some(rest) = stdout.split("\"injections\": ").nth(1) {
        return rest.split(',').next()?.trim().parse().ok();
    }
    stdout
        .lines()
        .find(|l| l.contains(" injections: "))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

struct Ran {
    ok: bool,
    stdout: String,
    wall_ms: f64,
    rss_kib: u64,
    error: String,
}

fn run(ctx: &Ctx, args: &[String]) -> Ran {
    match run_child(Command::new(&ctx.scfi).args(args)) {
        Ok(c) => Ran {
            ok: c.status.success() && !c.stdout.is_empty(),
            stdout: String::from_utf8_lossy(&c.stdout).into_owned(),
            wall_ms: c.wall.as_secs_f64() * 1e3,
            rss_kib: c.maxrss_kib,
            error: format!(
                "{}: {}",
                c.status,
                String::from_utf8_lossy(&c.stderr).trim()
            ),
        },
        Err(e) => Ran {
            ok: false,
            stdout: String::new(),
            wall_ms: 0.0,
            rss_kib: 0,
            error: e.to_string(),
        },
    }
}

fn analyze_args(job: &Job) -> AnalyzeArgs {
    AnalyzeArgs {
        level: job.level,
        json: job.json,
        stuck_at: job.stuck_at,
        pin_faults: job.pin_faults,
        region: job.region,
    }
}

/// Set-up: write the seeded inputs, then one warm-up `scfi analyze` of
/// the smallest Table-1 model (the fixed per-process cost, once).
fn setup(ctx: &Ctx) -> Result<(Inputs, f64), String> {
    let start = Instant::now();
    let inputs = make_inputs(ctx)?;
    let smallest = inputs
        .models
        .iter()
        .position(|m| m.0 == "otbn_controller")
        .unwrap_or(0);
    let warm = run(
        ctx,
        &[
            "analyze".to_string(),
            inputs.models[smallest].2.display().to_string(),
            "--level".to_string(),
            "2".to_string(),
        ],
    );
    if !warm.ok {
        return Err(format!("warm-up analyze failed: {}", warm.error));
    }
    Ok((inputs, start.elapsed().as_secs_f64()))
}

pub fn run_workload(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::new();
    let mut inputs = None;
    for _ in 0..9 {
        let (i, s) = setup(ctx)?;
        o.setup_s.push(s);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    let jobs = schedule(ctx.seed);

    // Timed window: whole rounds of the schedule until the time is up.
    let mut round0: Vec<String> = Vec::new();
    let mut repeat_mismatch = 0usize;
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < ctx.window_seconds() {
        let round_start = Instant::now();
        for (i, job) in jobs.iter().enumerate() {
            let r = run(ctx, &args(&inputs, job));
            o.attempted += 1;
            o.latencies_ms
                .push(if r.ok { r.wall_ms } else { f64::INFINITY });
            o.peak_rss_kib = o.peak_rss_kib.max(r.rss_kib);
            if !r.ok {
                o.failed += 1;
                o.info.push(format!("job {i} failed: {}", r.error));
                continue;
            }
            o.injections += injections(&r.stdout).unwrap_or(0);
            if round == 0 {
                o.digest.add(r.stdout.as_bytes());
                round0.push(r.stdout);
            } else if round0.get(i) != Some(&r.stdout) {
                repeat_mismatch += 1;
            }
        }
        o.round_rates
            .push(jobs.len() as f64 / round_start.elapsed().as_secs_f64());
        round += 1;
    }
    o.window_s = start.elapsed().as_secs_f64();
    o.round_size = jobs.len();
    o.digest_jobs = round0.len();
    if round0.len() != jobs.len() {
        return Ok(o);
    }
    o.check(
        "repeat_identical",
        repeat_mismatch == 0,
        format!(
            "{repeat_mismatch} of {} repeated jobs differ from round 0",
            (round - 1) * jobs.len()
        ),
    );

    // Untimed checks. Scalar replay of two seeded Table-1 jobs.
    let mut rng = Rng::new(ctx.seed).fork(3);
    let table1_jobs: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].model < 7).collect();
    let mut scalar_bad = Vec::new();
    for _ in 0..2 {
        let i = table1_jobs[rng.below(table1_jobs.len())];
        let mut a = args(&inputs, &jobs[i]);
        a.extend(["--backend".to_string(), "scalar".to_string()]);
        let r = run(ctx, &a);
        if !r.ok || r.stdout != round0[i] {
            scalar_bad.push(i);
        }
    }
    o.check(
        "scalar_replay",
        scalar_bad.is_empty(),
        format!("2 seeded Table-1 jobs re-run with `--backend scalar`; differing: {scalar_bad:?}"),
    );

    // In-process replay: the same pipeline through the library must
    // print the same bytes. Untraced runs replay every job but the
    // largest generated model; the traced run replays all of them.
    let telemetry = if ctx.trace {
        Telemetry::recording()
    } else {
        Telemetry::off()
    };
    let mut process_ms = Vec::new();
    let mut traced_ms = 0.0;
    let mut residual_ms = Vec::new();
    let (mut replayed, mut replay_bad, mut stats_bad) = (0usize, Vec::new(), Vec::new());
    trace::enable(ctx.trace);
    for (i, job) in jobs.iter().enumerate() {
        if !ctx.trace && job.model >= 7 && DEEP[job.model - 7].0 == 200 {
            continue;
        }
        trace::set_job(i as u64);
        if ctx.trace {
            let mut a = args(&inputs, job);
            a.extend(["--stats".to_string(), "json".to_string()]);
            let r = run(ctx, &a);
            if !r.ok || !r.stdout.starts_with(&round0[i]) {
                stats_bad.push(i);
            }
            process_ms.push(r.wall_ms);
            traced_ms += r.wall_ms;
        }
        let replay_start = Instant::now();
        let replay = cli_analyze(
            &inputs.models[job.model].1,
            &analyze_args(job),
            Backend::default(),
            &telemetry,
        );
        let replay_ms = replay_start.elapsed().as_secs_f64() * 1e3;
        if let Some(p) = process_ms.last() {
            residual_ms.push(p - replay_ms);
        }
        replayed += 1;
        if !matches!(&replay, Ok(bytes) if *bytes == round0[i]) {
            replay_bad.push(i);
        }
    }
    trace::enable(false);
    o.check(
        "in_process_replay",
        replay_bad.is_empty(),
        format!(
            "{replayed} jobs replayed through the library (json and text); differing: {replay_bad:?}"
        ),
    );
    if ctx.trace {
        o.check(
            "stats_report_identical",
            stats_bad.is_empty(),
            format!("report bytes with --stats json differ on jobs {stats_bad:?}"),
        );
        let spans = trace::take();
        o.overhead = Some((o.busy_jobs_per_s(), jobs.len() as f64 / (traced_ms / 1e3)));
        o.layers = crate::report::library_layers(&spans, &telemetry, (0, 0));
        o.layers.push(gates_metric(&inputs, &jobs));
        o.layers.push(metric(
            "cli.process_ms",
            "ms",
            Some(median(&process_ms)),
            format!(
                "median of n={} traced `scfi analyze` processes",
                process_ms.len()
            ),
        ));
        o.layers.push(metric(
            "cli.residual_ms",
            "ms",
            Some(median(&residual_ms)),
            format!(
                "median over n={} jobs of process wall minus in-process replay",
                residual_ms.len()
            ),
        ));
        o.spans = spans;
    }
    o.info.push(format!(
        "mix: {} jobs per round (21 Table-1 x N in 2..4, generated (states, levels) {:?}), {} json; {} rounds",
        jobs.len(),
        DEEP,
        jobs.iter().filter(|j| j.json).count(),
        round
    ));
    o.info.push(format!(
        "working set: {} distinct models x up to 3 levels; no cache in the path",
        inputs.models.len()
    ));
    Ok(o)
}

fn gates_metric(inputs: &Inputs, jobs: &[Job]) -> crate::report::Metric {
    let mut gates = 0usize;
    for job in jobs {
        let fsm = scfi_fsm::parse_fsm(&inputs.models[job.model].1).expect("generated DSL parses");
        let h =
            scfi_core::harden(&fsm, &scfi_core::ScfiConfig::new(job.level)).expect("models harden");
        gates += h.module().cells().len();
    }
    crate::report::count(
        "netlist.gates",
        "gates",
        Some(gates as f64 / jobs.len() as f64),
        format!("mean cells per hardened model over n={} jobs", jobs.len()),
    )
}
