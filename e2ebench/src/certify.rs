//! `certify`: in-process BDD certification over prepared models.

use std::collections::HashSet;
use std::time::Instant;

use scfi_serve::{ConfigKind, Prepared};
use scfi_telemetry::Telemetry;

use crate::inputs::{deep_fsm_dsl, table1, Rng};
use crate::layers::{self, CertifyJob, CertifyOutcome};
use crate::report::Outcome;
use crate::{trace, Ctx};

const CONFIGS: [ConfigKind; 3] = [
    ConfigKind::Scfi,
    ConfigKind::Redundancy,
    ConfigKind::Unprotected,
];

pub struct Models {
    pub names: Vec<String>,
    /// Indexed `[fsm][config][level - 2]`.
    pub prepared: Vec<Vec<Vec<Prepared>>>,
}

/// The seven Table-1 FSMs plus one generated 30-state FSM.
fn model_sources(seed: u64) -> Vec<(String, String)> {
    let mut m = table1();
    let name = format!("deep30_s{seed}");
    let dsl = deep_fsm_dsl(&name, 30, &mut Rng::new(seed).fork(21));
    m.push((name, dsl));
    m
}

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
    kind: CertifyJob,
}

/// One round on the 7 Table-1 FSMs: register-region `certify_all` for
/// every config at N ∈ {2,3}; all-gates `certify_all` for SCFI at N=2;
/// joint ≤N−1 for SCFI and unprotected at N ∈ {2,3}, except `i2c_fsm`
/// (SCFI at N=3 alone takes ~10 s; unprotected joint takes ~1.7 s).
/// Plus the generated FSM: register region for SCFI and unprotected at
/// N=2 (its BDD cost swings with the seeded wiring, so only these cheap
/// jobs, which keep the run-to-run spread small). Joint certification of the redundancy config is left out:
/// it does not finish within 20 s even on `aes_control` at N=2.
fn schedule(fsms: usize) -> Vec<Job> {
    // A fixed interleaving, the same for every seed.
    let mut rng = Rng::new(0).fork(22);
    let mut jobs = Vec::new();
    let i2c = 2;
    let deep = fsms - 1;
    for fsm in 0..deep {
        for config in 0..3 {
            for level in 2..=3 {
                jobs.push(Job {
                    fsm,
                    config,
                    level,
                    kind: CertifyJob::Register,
                });
                if config != 1 && (fsm != i2c || (config == 0 && level == 2)) {
                    jobs.push(Job {
                        fsm,
                        config,
                        level,
                        kind: CertifyJob::Joint,
                    });
                }
            }
        }
        jobs.push(Job {
            fsm,
            config: 0,
            level: 2,
            kind: CertifyJob::AllGates,
        });
    }
    for config in [0, 2] {
        jobs.push(Job {
            fsm: deep,
            config,
            level: 2,
            kind: CertifyJob::Register,
        });
    }
    rng.shuffle(&mut jobs);
    jobs
}

fn run_job(models: &Models, job: &Job, telemetry: &Telemetry) -> Result<CertifyOutcome, String> {
    let _g = trace::span("job", "certify");
    let p = &models.prepared[job.fsm][job.config][job.level - 2];
    layers::certify(p, job.kind, job.level, telemetry)
}

/// The proof claims every certification must support.
fn claim_holds(job: &Job, r: &CertifyOutcome) -> bool {
    match (job.config, job.kind) {
        (0, CertifyJob::Register | CertifyJob::Joint) => r.proved,
        (2, _) => r.refuted_confirmed,
        _ => true,
    }
}

pub fn run_workload(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::new();
    trace::enable(ctx.trace);
    let (models, own_setup) = setup(ctx.seed)?;
    trace::enable(false);
    o.setup_s = crate::setup_probes(ctx, "certify", 8)?;
    o.setup_s.push(own_setup);
    let jobs = schedule(models.names.len());
    let off = Telemetry::off();

    let mut round0: Vec<String> = Vec::new();
    let mut repeat_mismatch = 0usize;
    let mut claim_bad = Vec::new();
    let mut seen = HashSet::new();
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < ctx.window_seconds() {
        let round_start = Instant::now();
        for (i, job) in jobs.iter().enumerate() {
            let t = Instant::now();
            let r = run_job(&models, job, &off);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            o.attempted += 1;
            if !seen.insert((job.fsm, job.config, job.level)) {
                o.repeats += 1;
            }
            match r {
                Ok(r) => {
                    o.latencies_ms.push(ms);
                    o.sites += r.sites;
                    if round == 0 {
                        o.digest.add(r.bytes.as_bytes());
                        if !claim_holds(job, &r) {
                            claim_bad.push(i);
                        }
                        round0.push(r.bytes);
                    } else if round0[i] != r.bytes {
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
    o.check(
        "proof_claims",
        claim_bad.is_empty(),
        format!(
            "SCFI register and joint proofs PROVED, unprotected refuted with replay-confirmed witnesses; failing jobs: {claim_bad:?}"
        ),
    );

    if ctx.trace {
        let telemetry = Telemetry::recording();
        trace::enable(true);
        let mut traced_ms = 0.0;
        let mut differ = Vec::new();
        let mut reach = (0u64, 0u64);
        for (i, job) in jobs.iter().enumerate() {
            trace::set_job(i as u64);
            let t = Instant::now();
            let r = run_job(&models, job, &telemetry);
            traced_ms += t.elapsed().as_secs_f64() * 1e3;
            match r {
                Ok(r) if r.bytes == round0[i] => {
                    reach.0 += r.reachable_states;
                    reach.1 += 1;
                }
                _ => differ.push(i),
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
        o.layers = crate::report::library_layers(&spans, &telemetry, reach);
        let gates: Vec<usize> = models
            .prepared
            .iter()
            .flatten()
            .flatten()
            .map(|p| p.module().cells().len())
            .collect();
        o.layers.push(crate::report::count(
            "netlist.gates",
            "gates",
            Some(gates.iter().sum::<usize>() as f64 / gates.len() as f64),
            format!("mean cells per prepared model over n={}", gates.len()),
        ));
        o.spans = spans;
    }
    let count = |k: fn(&CertifyJob) -> bool| jobs.iter().filter(|j| k(&j.kind)).count();
    o.info.push(format!(
        "mix: {} jobs per round: {} register-region, {} all-gates, {} joint certifications; {} rounds",
        jobs.len(),
        count(|k| matches!(k, CertifyJob::Register)),
        count(|k| matches!(k, CertifyJob::AllGates)),
        count(|k| matches!(k, CertifyJob::Joint)),
        round
    ));
    o.info.push(format!(
        "working set: {} prepared models ({} FSMs x 3 configs x N in 2..3), no cache in the path",
        models.names.len() * 6,
        models.names.len()
    ));
    Ok(o)
}
