//! `temporal`: in-process multi-cycle campaigns over prepared models.

use std::time::Instant;

use scfi_faultsim::Backend;
use scfi_serve::{ConfigKind, Prepared};
use scfi_telemetry::Telemetry;

use crate::inputs::{deep_fsm_dsl, secure_boot, table1, Rng};
use crate::layers::{self, report_bytes, run_campaign, Campaign};
use crate::report::Outcome;
use crate::{trace, Ctx};

const CONFIGS: [ConfigKind; 3] = [
    ConfigKind::Scfi,
    ConfigKind::Redundancy,
    ConfigKind::Unprotected,
];

/// Protocol walk depth of every job.
const DEPTH: usize = 4;
/// Experiments per multi-fault job (M = 3 faults each).
const MULTI_RUNS: usize = 20_000;

/// The prepared model set: every FSM under every config at N ∈ {2, 3}.
pub struct Models {
    pub names: Vec<String>,
    /// Indexed `[fsm][config][level - 2]`.
    pub prepared: Vec<Vec<Vec<Prepared>>>,
}

pub fn model_sources(seed: u64) -> Vec<(String, String)> {
    let mut m = table1();
    m.push(secure_boot());
    let name = format!("deep50_s{seed}");
    let dsl = deep_fsm_dsl(&name, 50, &mut Rng::new(seed).fork(11));
    m.push((name, dsl));
    m
}

/// Set-up: the cold `MdsSpec::build`, then parse, harden/replicate/lower
/// and compile every model. Returns the models and the seconds taken.
pub fn setup(seed: u64) -> Result<(Models, f64), String> {
    let start = Instant::now();
    layers::mds_build();
    let mut names = Vec::new();
    let mut prepared = Vec::new();
    for (name, dsl) in model_sources(seed) {
        let fsm = layers::parse(&dsl)?;
        let mut per_config = Vec::new();
        for kind in CONFIGS {
            let mut per_level = Vec::new();
            for level in 2..=3 {
                per_level.push(layers::prepare(&fsm, kind, level)?);
            }
            per_config.push(per_level);
        }
        names.push(name);
        prepared.push(per_config);
    }
    Ok((Models { names, prepared }, start.elapsed().as_secs_f64()))
}

struct Job {
    fsm: usize,
    config: usize,
    level: usize,
    campaign: Campaign,
}

/// One round. For each of the 8 small FSMs and each config: a plain
/// depth-4 walk campaign at N=3 and a fuzzed one at N=2. The generated
/// 50-state FSM: one plain walk campaign per config at N=2. Then 18 M=3
/// multi-fault campaigns with per-fault windows (half over walks, half
/// over single transitions) on every FSM, the config cycling. The seed
/// picks the walk seeds and the generated FSM.
fn schedule(seed: u64, fsms: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed).fork(12);
    let plain = |walk_seed, fuzzed, multi| Campaign {
        walks: Some(DEPTH),
        fuzzed,
        multi_runs: multi,
        walk_seed,
        stuck_at: false,
        pin_faults: false,
    };
    let mut jobs = Vec::new();
    let deep = fsms - 1;
    for fsm in 0..fsms {
        for config in 0..3 {
            if fsm == deep {
                jobs.push(Job {
                    fsm,
                    config,
                    level: 2,
                    campaign: plain(rng.next(), false, None),
                });
                continue;
            }
            jobs.push(Job {
                fsm,
                config,
                level: 3,
                campaign: plain(rng.next(), false, None),
            });
            jobs.push(Job {
                fsm,
                config,
                level: 2,
                campaign: plain(rng.next(), true, None),
            });
        }
    }
    for fsm in 0..fsms {
        for walks in [true, false] {
            let mut c = plain(rng.next(), false, Some(MULTI_RUNS));
            if !walks {
                c.walks = None;
            }
            jobs.push(Job {
                fsm,
                config: (fsm + walks as usize) % 3,
                level: 3,
                campaign: c,
            });
        }
    }
    // A fixed interleaving, the same for every seed: the job order moves
    // the process's peak RSS by ~20 % through heap reuse.
    Rng::new(0).fork(12).shuffle(&mut jobs);
    jobs
}

fn run_job(
    models: &Models,
    job: &Job,
    backend: Backend,
    telemetry: &Telemetry,
) -> Result<(String, u64), String> {
    let _g = trace::span("job", "temporal");
    let p = &models.prepared[job.fsm][job.config][job.level - 2];
    let r = run_campaign(p, &job.campaign, backend, telemetry)?;
    Ok((report_bytes(&r), r.injections as u64))
}

pub fn run_workload(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::new();
    trace::enable(ctx.trace);
    let (models, own_setup) = setup(ctx.seed)?;
    trace::enable(false);
    o.setup_s = crate::setup_probes(ctx, "temporal", 8)?;
    o.setup_s.push(own_setup);
    let jobs = schedule(ctx.seed, models.names.len());
    let off = Telemetry::off();

    let mut round0: Vec<String> = Vec::new();
    let mut repeat_mismatch = 0usize;
    let mut seen = std::collections::HashSet::new();
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < ctx.window_seconds() {
        let round_start = Instant::now();
        for (i, job) in jobs.iter().enumerate() {
            let t = Instant::now();
            let r = run_job(&models, job, Backend::default(), &off);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            o.attempted += 1;
            if !seen.insert((job.fsm, job.config, job.level)) {
                o.repeats += 1;
            }
            match r {
                Ok((bytes, inj)) => {
                    o.latencies_ms.push(ms);
                    o.injections += inj;
                    if round == 0 {
                        o.digest.add(bytes.as_bytes());
                        round0.push(bytes);
                    } else if round0[i] != bytes {
                        repeat_mismatch += 1;
                    }
                }
                Err(e) => {
                    o.failed += 1;
                    o.latencies_ms.push(f64::INFINITY);
                    o.info.push(format!("job {i} failed: {e}"));
                    if round == 0 {
                        round0.push(String::new());
                    }
                }
            }
        }
        o.round_rates
            .push(jobs.len() as f64 / round_start.elapsed().as_secs_f64());
        round += 1;
    }
    o.window_s = start.elapsed().as_secs_f64();
    o.round_size = jobs.len();
    o.digest_jobs = round0.len();
    o.peak_rss_kib = crate::measure::vm_hwm_kib("self");
    o.check(
        "repeat_identical",
        repeat_mismatch == 0,
        format!(
            "{repeat_mismatch} of {} repeated jobs differ from round 0",
            (round - 1) * jobs.len()
        ),
    );

    // Scalar replay of the three seeded jobs with the fewest injections
    // among a seeded sample of small-FSM jobs.
    let mut rng = Rng::new(ctx.seed).fork(13);
    let deep = models.names.len() - 1;
    let mut sample: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].fsm != deep).collect();
    rng.shuffle(&mut sample);
    sample.truncate(12);
    // The report starts with its injection count: the scalar cost.
    sample.sort_by_key(|&i| {
        round0[i]
            .split(' ')
            .next()
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or(u64::MAX)
    });
    let mut scalar_bad = Vec::new();
    for &i in sample.iter().take(3) {
        match run_job(&models, &jobs[i], Backend::Scalar, &off) {
            Ok((bytes, _)) if bytes == round0[i] => {}
            _ => scalar_bad.push(i),
        }
    }
    o.check(
        "scalar_replay",
        scalar_bad.is_empty(),
        format!("3 seeded jobs replayed on the scalar backend; differing: {scalar_bad:?}"),
    );

    if ctx.trace {
        let telemetry = Telemetry::recording();
        trace::enable(true);
        let mut traced_ms = 0.0;
        let mut differ = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            trace::set_job(i as u64);
            let t = Instant::now();
            let r = run_job(&models, job, Backend::default(), &telemetry);
            traced_ms += t.elapsed().as_secs_f64() * 1e3;
            if !matches!(&r, Ok((bytes, _)) if *bytes == round0[i]) {
                differ.push(i);
            }
        }
        trace::enable(false);
        o.check(
            "traced_identical",
            differ.is_empty(),
            format!("traced round differs from round 0 on jobs {differ:?}"),
        );
        let spans = trace::take();
        o.overhead = Some((o.busy_jobs_per_s(), jobs.len() as f64 / (traced_ms / 1e3)));
        o.layers = crate::report::library_layers(&spans, &telemetry, (0, 0));
        o.layers.push(gates_metric(&models));
        o.spans = spans;
    }
    let small = models.names.len() - 1;
    o.info.push(format!(
        "mix: {} jobs per round: {} plain + {} fuzzed depth-{DEPTH} walk campaigns, {} generated-FSM walk campaigns, {} M=3 windowed multi-fault campaigns ({MULTI_RUNS} runs each); {} rounds",
        jobs.len(),
        small * 3,
        small * 3,
        3,
        models.names.len() * 2,
        round
    ));
    o.info.push(format!(
        "working set: {} prepared models ({} FSMs x 3 configs x N in 2..3), no cache in the path",
        models.names.len() * 6,
        models.names.len()
    ));
    Ok(o)
}

fn gates_metric(models: &Models) -> crate::report::Metric {
    let gates: Vec<usize> = models
        .prepared
        .iter()
        .flatten()
        .flatten()
        .map(|p| p.module().cells().len())
        .collect();
    crate::report::count(
        "netlist.gates",
        "gates",
        Some(gates.iter().sum::<usize>() as f64 / gates.len() as f64),
        format!("mean cells per prepared model over n={}", gates.len()),
    )
}
