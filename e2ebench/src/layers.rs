//! The library calls every in-process job is made of, each wrapped in a
//! span named after the public function and tagged with its crate
//! (layer). With tracing off the wrappers cost one relaxed load each.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use scfi_core::{HardenedFsm, ScfiConfig};
use scfi_faultsim::{
    Backend, CampaignConfig, CampaignReport, FaultEffect, FaultTarget, RedundancyTarget,
    RunControl, ScfiTarget, UnprotectedTarget, VulnerabilityMap,
};
use scfi_fsm::Fsm;
use scfi_netlist::{Module, PackedNetlist};
use scfi_serve::cache::UnprotectedModel;
use scfi_serve::{ConfigKind, Prepared, PreparedModel};
use scfi_symbolic::{
    CertificationReport, Certifier, CertifyBudget, CertifyModel, JointReport, JointVerdict,
};
use scfi_telemetry::Telemetry;

use crate::trace::{span, timed};

pub fn parse(dsl: &str) -> Result<Fsm, String> {
    timed("fsm", "parse_fsm", || scfi_fsm::parse_fsm(dsl)).map_err(|e| format!("parse: {e}"))
}

/// `MdsSpec::build` for the default spec; the first call in a process
/// runs the search and verification, later calls clone the cached matrix.
pub fn mds_build() {
    static COLD_DONE: AtomicBool = AtomicBool::new(false);
    let name = if COLD_DONE.swap(true, Ordering::Relaxed) {
        "MdsSpec::build(warm)"
    } else {
        "MdsSpec::build(cold)"
    };
    let m = timed("mds", name, || scfi_mds::MdsSpec::ScfiLightweight.build());
    drop(m);
}

pub fn harden(fsm: &Fsm, level: usize) -> Result<HardenedFsm, String> {
    timed("core", "harden", || {
        let h = scfi_core::harden(fsm, &ScfiConfig::new(level)).map_err(|e| e.to_string())?;
        h.check_all_edges().map_err(|e| e.to_string())?;
        Ok(h)
    })
}

pub fn compile(module: &Module) -> Arc<PackedNetlist> {
    timed("netlist", "PackedNetlist::compile", || {
        Arc::new(PackedNetlist::compile(module))
    })
}

/// Hardens, replicates or lowers `fsm` and compiles the result: the same
/// model the job server's compile cache holds for `(fsm, kind, level)`.
pub fn prepare(fsm: &Fsm, kind: ConfigKind, level: usize) -> Result<Prepared, String> {
    mds_build();
    let model = match kind {
        ConfigKind::Scfi => PreparedModel::Scfi(Box::new(harden(fsm, level)?)),
        ConfigKind::Redundancy => PreparedModel::Redundancy(Box::new(
            timed("core", "redundancy", || scfi_core::redundancy(fsm, level))
                .map_err(|e| e.to_string())?,
        )),
        ConfigKind::Unprotected => PreparedModel::Unprotected(Box::new(UnprotectedModel {
            fsm: fsm.clone(),
            lowered: timed("fsm", "lower_unprotected", || {
                scfi_fsm::lower_unprotected(fsm)
            })
            .map_err(|e| e.to_string())?,
        })),
    };
    let module = match &model {
        PreparedModel::Scfi(h) => h.module(),
        PreparedModel::Redundancy(r) => r.module(),
        PreparedModel::Unprotected(u) => u.lowered.module(),
    };
    let packed = compile(module);
    Ok(Prepared {
        model,
        packed,
        digest: scfi_serve::cache::fnv1a(fsm.to_dsl().as_bytes()),
    })
}

/// A campaign over a prepared model.
#[derive(Clone, Copy, Debug)]
pub struct Campaign {
    /// Depth of the protocol walks (`None`: single-transition space).
    pub walks: Option<usize>,
    pub fuzzed: bool,
    /// `Some(runs)`: an M=3 multi-fault campaign with per-fault windows.
    pub multi_runs: Option<usize>,
    pub walk_seed: u64,
    pub stuck_at: bool,
    pub pin_faults: bool,
}

pub fn campaign_config(c: &Campaign, backend: Backend, telemetry: &Telemetry) -> CampaignConfig {
    let mut effects = vec![FaultEffect::Flip];
    if c.stuck_at {
        effects.push(FaultEffect::Stuck0);
        effects.push(FaultEffect::Stuck1);
    }
    let mut config = CampaignConfig::new()
        .effects(effects)
        .threads(2)
        .backend(backend)
        .telemetry(telemetry.clone());
    if c.pin_faults {
        config = config.with_pin_faults();
    }
    if c.multi_runs.is_some() {
        config = config.with_fault_windows();
    }
    config
}

/// Runs one campaign; returns the report.
pub fn run_campaign(
    prepared: &Prepared,
    c: &Campaign,
    backend: Backend,
    telemetry: &Telemetry,
) -> Result<CampaignReport, String> {
    let config = campaign_config(c, backend, telemetry).precompiled(Arc::clone(&prepared.packed));
    let (depth, seed, fuzzed) = (c.walks, c.walk_seed, c.fuzzed);
    match &prepared.model {
        PreparedModel::Scfi(h) => {
            let t = match depth {
                Some(d) if fuzzed => ScfiTarget::with_fuzzed_protocol(h, d, seed),
                Some(d) => ScfiTarget::with_protocol(h, d, seed),
                None => ScfiTarget::new(h),
            };
            campaign_on(&t, c, &config)
        }
        PreparedModel::Redundancy(r) => {
            let t = match depth {
                Some(d) if fuzzed => RedundancyTarget::with_fuzzed_protocol(r, d, seed),
                Some(d) => RedundancyTarget::with_protocol(r, d, seed),
                None => RedundancyTarget::new(r),
            };
            campaign_on(&t, c, &config)
        }
        PreparedModel::Unprotected(u) => {
            let t = match depth {
                Some(d) if fuzzed => {
                    UnprotectedTarget::with_fuzzed_protocol(&u.fsm, &u.lowered, d, seed)
                }
                Some(d) => UnprotectedTarget::with_protocol(&u.fsm, &u.lowered, d, seed),
                None => UnprotectedTarget::new(&u.fsm, &u.lowered),
            };
            campaign_on(&t, c, &config)
        }
    }
}

fn campaign_on<T: FaultTarget>(
    target: &T,
    c: &Campaign,
    config: &CampaignConfig,
) -> Result<CampaignReport, String> {
    enumerate(target.module(), config);
    let control = RunControl::unlimited();
    match c.multi_runs {
        Some(runs) => timed("faultsim", "try_run_multi_fault", || {
            scfi_faultsim::try_run_multi_fault(target, 3, runs, config, &control)
        }),
        None => timed("faultsim", "try_run_exhaustive", || {
            scfi_faultsim::try_run_exhaustive(target, config, &control)
        }),
    }
    .map_err(|e| e.to_string())
}

/// `enumerate_faults` under its own span (the campaigns enumerate again
/// internally; this call only times the work list's fault space).
pub fn enumerate(module: &Module, config: &CampaignConfig) -> usize {
    timed("faultsim", "enumerate_faults", || {
        scfi_faultsim::enumerate_faults(module, config).len()
    })
}

/// Canonical result bytes of a campaign report (counts plus the recorded
/// hijack examples).
pub fn report_bytes(r: &CampaignReport) -> String {
    format!("{r}\n{:?}\n", r.hijack_examples)
}

/// The `scfi analyze` pipeline for one hardened model, rendered exactly
/// as the CLI prints it (`text`) or as `--format json`.
pub struct AnalyzeArgs {
    pub level: usize,
    pub json: bool,
    pub stuck_at: bool,
    pub pin_faults: bool,
    /// `diffusion` or `selector` (`None`: the whole module).
    pub region: Option<&'static str>,
}

pub fn cli_analyze(
    dsl: &str,
    a: &AnalyzeArgs,
    backend: Backend,
    telemetry: &Telemetry,
) -> Result<String, String> {
    let _job = span("job", "cli_analyze");
    let fsm = parse(dsl)?;
    mds_build();
    let hardened = harden(&fsm, a.level)?;
    let packed = compile(hardened.module());
    let c = Campaign {
        walks: None,
        fuzzed: false,
        multi_runs: None,
        walk_seed: 0,
        stuck_at: a.stuck_at,
        pin_faults: a.pin_faults,
    };
    let mut config = campaign_config(&c, backend, telemetry).precompiled(packed);
    let regions = hardened.regions();
    config = match a.region {
        Some("diffusion") => config.region(regions.diffusion.clone()),
        Some(_) => config.region(regions.pattern_match.start..regions.modifier_select.end),
        None => config,
    };
    let target = ScfiTarget::new(&hardened);
    if a.json {
        return sites_json(&target, &config);
    }
    enumerate(hardened.module(), &config);
    let report = timed("faultsim", "try_run_exhaustive", || {
        scfi_faultsim::try_run_exhaustive(&target, &config, &RunControl::unlimited())
    })
    .map_err(|e| e.to_string())?;
    Ok(format!(
        "{report}\nanalytic success probability (paper formula): {:.3e}\n",
        scfi_faultsim::paper_success_probability(&hardened)
    ))
}

/// A certification job.
#[derive(Clone, Copy, Debug)]
pub enum CertifyJob {
    /// `certify_all` on the register region.
    Register,
    /// `certify_all` on every gate.
    AllGates,
    /// `certify_joint` with at most `N − 1` active faults.
    Joint,
}

/// What a certification job found, for the proof checks.
pub struct CertifyOutcome {
    pub bytes: String,
    pub sites: u64,
    pub reachable_states: u64,
    pub proved: bool,
    /// Refuted, and every witness was confirmed by scalar replay.
    pub refuted_confirmed: bool,
}

pub fn certify(
    prepared: &Prepared,
    job: CertifyJob,
    level: usize,
    telemetry: &Telemetry,
) -> Result<CertifyOutcome, String> {
    match &prepared.model {
        PreparedModel::Scfi(h) => certify_model(h.as_ref(), job, level, telemetry),
        PreparedModel::Redundancy(r) => certify_model(r.as_ref(), job, level, telemetry),
        PreparedModel::Unprotected(u) => certify_model(&u.lowered, job, level, telemetry),
    }
}

fn certify_model<M: CertifyModel>(
    model: &M,
    job: CertifyJob,
    level: usize,
    telemetry: &Telemetry,
) -> Result<CertifyOutcome, String> {
    let module = model.module();
    let all_gates = matches!(job, CertifyJob::AllGates);
    let faults = timed("faultsim", "enumerate_faults", || {
        scfi_serve::jobs::certify_fault_set(module, all_gates, false, false)
    });
    let mut certifier = timed("symbolic", "Certifier::with_instruments", || {
        Certifier::with_instruments(model, CertifyBudget::unlimited(), telemetry.clone(), None)
    })
    .map_err(|e| format!("certifier setup: {e}"))?;
    let mut bytes = String::new();
    match job {
        CertifyJob::Register | CertifyJob::AllGates => {
            let report: CertificationReport =
                timed("symbolic", "certify_all", || certifier.certify_all(&faults));
            timed("serve", "wire::write_certify_json", || {
                scfi_serve::wire::write_certify_json(&mut bytes, module, &report)
            });
            let refuted = report.counterexamples() > 0;
            Ok(CertifyOutcome {
                bytes,
                sites: report.sites.len() as u64,
                reachable_states: report.reachable_states,
                proved: report.all_proven(),
                refuted_confirmed: refuted
                    && report.counterexample_sites().all(|(_, w)| w.confirmed),
            })
        }
        CertifyJob::Joint => {
            let report: JointReport = timed("symbolic", "certify_joint", || {
                certifier.certify_joint(&faults, level.saturating_sub(1))
            });
            timed("serve", "wire::write_joint_json", || {
                scfi_serve::wire::write_joint_json(&mut bytes, &report)
            });
            Ok(CertifyOutcome {
                bytes,
                sites: report.sites as u64,
                reachable_states: report.reachable_states,
                proved: report.verdict.is_proven(),
                refuted_confirmed: matches!(&report.verdict, JointVerdict::Counterexample(w) if w.confirmed),
            })
        }
    }
}

/// A served analyze job with default knobs: the exhaustive per-site map
/// rendered by the `wire` JSON writer.
pub fn serve_analyze(prepared: &Prepared, telemetry: &Telemetry) -> Result<String, String> {
    let c = Campaign {
        walks: None,
        fuzzed: false,
        multi_runs: None,
        walk_seed: 0,
        stuck_at: false,
        pin_faults: false,
    };
    let config = campaign_config(&c, Backend::default(), telemetry)
        .precompiled(Arc::clone(&prepared.packed));
    match &prepared.model {
        PreparedModel::Scfi(h) => sites_json(&ScfiTarget::new(h), &config),
        PreparedModel::Redundancy(r) => sites_json(&RedundancyTarget::new(r), &config),
        PreparedModel::Unprotected(u) => {
            sites_json(&UnprotectedTarget::new(&u.fsm, &u.lowered), &config)
        }
    }
}

fn sites_json<T: FaultTarget>(target: &T, config: &CampaignConfig) -> Result<String, String> {
    enumerate(target.module(), config);
    let map = timed("faultsim", "VulnerabilityMap::try_analyze", || {
        VulnerabilityMap::try_analyze(target, config, &RunControl::unlimited())
    })
    .map_err(|e| e.to_string())?;
    let mut out = String::new();
    timed("serve", "wire::write_sites_json", || {
        scfi_serve::wire::write_sites_json(&mut out, target.module(), &map)
    });
    Ok(out)
}
