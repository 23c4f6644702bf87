//! The one job core behind `scfi analyze`, `scfi certify` and the
//! `scfi serve` HTTP API.
//!
//! A [`JobSpec`] names one experiment: its kind, FSM, configuration and
//! knobs. [`JobSpec::from_json`] validates a `POST /v1/jobs` body strictly
//! (unknown fields, contradictory knobs and malformed values are typed 4xx
//! [`ApiError`]s, never silent defaults); the CLI sets the same fields from
//! its flags, including the CLI-only knobs that `from_json` leaves at
//! their [`JobSpec::new`] defaults.
//!
//! A job runs in two steps. [`execute`] runs the spec against a
//! [`Prepared`] model under a [`RunControl`] and returns the typed
//! [`JobResult`]. Rendering follows: [`run_job`] renders the result with
//! the [`wire`] writers as the served document, while the CLI renders the
//! same result as text or with the same writers. Served and CLI results
//! are therefore byte-identical — the determinism conformance suite pins
//! that against independent direct library runs.

use std::fmt::Display;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use scfi_core::{PadPolicy, ScfiConfig};
use scfi_faultsim::{
    enumerate_faults, try_run_multi_fault, Backend, CampaignConfig, CampaignError, CampaignReport,
    CodedScheme, Fault, FaultEffect, FaultTarget, RunControl, SchemeTarget, StopReason,
    UnprotectedTarget, VulnerabilityMap,
};
use scfi_fsm::{parse_fsm, Fsm};
use scfi_netlist::Module;
use scfi_symbolic::{
    CertificationReport, Certifier, CertifyBudget, CertifyModel, JointReport, JointVerdict,
};
use scfi_telemetry::Telemetry;

use crate::cache::{ConfigKind, Prepared, PreparedModel};
use crate::json::{obj, Json};
use crate::wire;

/// The fixed protocol-walk seed, so every protocol campaign on the same
/// FSM and depth — CLI or served — analyzes the identical scenario set.
pub const WALK_SEED: u64 = 0x5CF1_3007;

/// Packed-engine wave widths in lanes, as accepted by `--lanes` and the
/// `"lanes"` field.
pub const LANES: [u64; 3] = [64, 128, 256];

/// The lane words (64-lane words per wave) of a wave width in [`LANES`].
pub fn lane_words(lanes: u64) -> Option<usize> {
    LANES.contains(&lanes).then_some((lanes / 64) as usize)
}

/// Renders accepted values as `"a, b or c"` for error messages.
pub fn one_of<T: Display>(choices: impl IntoIterator<Item = T>) -> String {
    let names: Vec<String> = choices.into_iter().map(|c| c.to_string()).collect();
    match names.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
        _ => names.concat(),
    }
}

/// A typed request failure: HTTP status plus a stable machine-readable
/// code and a human message, rendered as
/// `{"error": {"code": …, "message": …}}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to respond with.
    pub status: u16,
    /// Stable error code for clients to branch on.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl ApiError {
    /// A 400 with the given code.
    pub fn bad_request(code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            code,
            message: message.into(),
        }
    }

    /// The JSON error body.
    pub fn body(&self) -> String {
        let doc = obj(vec![(
            "error",
            obj(vec![
                ("code", Json::Str(self.code.to_string())),
                ("message", Json::Str(self.message.clone())),
            ]),
        )]);
        let mut s = doc.encode();
        s.push('\n');
        s
    }
}

/// Which experiment a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Fault campaign → per-site vulnerability map or campaign summary.
    Analyze,
    /// BDD certification → per-site or joint verdicts.
    Certify,
}

impl JobKind {
    /// The canonical name used in job status documents.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Analyze => "analyze",
            JobKind::Certify => "certify",
        }
    }
}

/// Output rendering for analyze results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// The pinned `scfi analyze --format json` layout.
    Json,
    /// The pinned `scfi analyze --format csv` layout.
    Csv,
}

impl Format {
    /// Streams a per-site map in this format, returning its content type.
    pub fn write_sites(
        self,
        out: &mut String,
        module: &Module,
        map: &VulnerabilityMap,
    ) -> &'static str {
        match self {
            Format::Json => {
                wire::write_sites_json(out, module, map);
                "application/json"
            }
            Format::Csv => {
                wire::write_sites_csv(out, module, map);
                "text/csv"
            }
        }
    }
}

/// A validated job request.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Experiment kind.
    pub kind: JobKind,
    /// The FSM to run against.
    pub fsm: Fsm,
    /// Protection configuration.
    pub config: ConfigKind,
    /// Protection level N.
    pub level: usize,
    /// Campaign backend (analyze).
    pub backend: Backend,
    /// Packed-engine lane words (analyze).
    pub lane_words: usize,
    /// Multi-cycle protocol walk depth (analyze).
    pub protocol: Option<usize>,
    /// Adversarial input fuzzing over protocol walks (analyze).
    pub fuzz_inputs: bool,
    /// Analyze result rendering.
    pub format: Format,
    /// Include stuck-at effects in the fault space.
    pub stuck_at: bool,
    /// Include per-pin faults in the fault space.
    pub pin_faults: bool,
    /// Joint multi-fault certification instead of per-site (certify).
    pub joint: bool,
    /// Cardinality bound for `joint` (default: N − 1).
    pub max_active: Option<usize>,
    /// Certify the whole gate space instead of the register region.
    pub all_gates: bool,
    /// Wall-clock deadline, armed when the job starts running.
    pub timeout_secs: Option<u64>,
    /// Injection budget (analyze).
    pub max_injections: Option<u64>,
    /// BDD node budget (certify).
    pub max_bdd_nodes: Option<usize>,
    /// Restricts campaign faults to this cell range (analyze; CLI
    /// `--region`).
    pub region: Option<Range<u32>>,
    /// A sampled campaign of `(faults per draw, draws)` instead of the
    /// exhaustive single-fault one (analyze; CLI `--multi M --runs K`).
    pub multi: Option<(usize, usize)>,
    /// Arm each drawn fault on its own sampled cycle (analyze with
    /// `multi`; CLI `--fault-windows`).
    pub fault_windows: bool,
    /// Adaptive MDS sizing (SCFI hardening; CLI `--adaptive`).
    pub adaptive: bool,
    /// Pattern-match selector rails, at least 1 (SCFI hardening; CLI
    /// `--rails`).
    pub rails: usize,
    /// Output-logic protection (SCFI hardening; CLI `--protect-outputs`).
    pub protect_outputs: bool,
    /// MDS input padding (SCFI hardening; CLI `--pad`).
    pub pad: PadPolicy,
}

fn field_str(doc: &Json, key: &str) -> Result<Option<String>, ApiError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| ApiError::bad_request("bad_field", format!("`{key}` must be a string"))),
    }
}

fn field_uint(doc: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ApiError::bad_request(
                "bad_field",
                format!("`{key}` must be a non-negative integer"),
            )
        }),
    }
}

fn field_bool(doc: &Json, key: &str) -> Result<bool, ApiError> {
    match doc.get(key) {
        None => Ok(false),
        Some(v) => v.as_bool().ok_or_else(|| {
            ApiError::bad_request("bad_field", format!("`{key}` must be a boolean"))
        }),
    }
}

/// Every field name `POST /v1/jobs` accepts.
const KNOWN_FIELDS: &[&str] = &[
    "kind",
    "fsm",
    "suite",
    "config",
    "level",
    "backend",
    "lanes",
    "protocol",
    "fuzz_inputs",
    "format",
    "stuck_at",
    "pin_faults",
    "joint",
    "max_active",
    "all_gates",
    "timeout_secs",
    "max_injections",
    "max_bdd_nodes",
];

impl JobSpec {
    /// A `kind` job on `fsm` with every knob at its default: what an
    /// omitted request field or CLI flag means.
    pub fn new(kind: JobKind, fsm: Fsm) -> JobSpec {
        JobSpec {
            kind,
            fsm,
            config: ConfigKind::Scfi,
            level: 3,
            backend: Backend::default(),
            lane_words: 4,
            protocol: None,
            fuzz_inputs: false,
            format: Format::Json,
            stuck_at: false,
            pin_faults: false,
            joint: false,
            max_active: None,
            all_gates: false,
            timeout_secs: None,
            max_injections: None,
            max_bdd_nodes: None,
            region: None,
            multi: None,
            fault_windows: false,
            adaptive: false,
            rails: 1,
            protect_outputs: false,
            pad: PadPolicy::Zero,
        }
    }

    /// Parses and validates a `POST /v1/jobs` body.
    pub fn from_json(doc: &Json) -> Result<JobSpec, ApiError> {
        let fields = doc.as_obj().ok_or_else(|| {
            ApiError::bad_request("bad_body", "request body must be a JSON object")
        })?;
        for (key, _) in fields {
            if !KNOWN_FIELDS.contains(&key.as_str()) {
                return Err(ApiError::bad_request(
                    "unknown_field",
                    format!("unknown field `{key}`"),
                ));
            }
        }

        let kind = match field_str(doc, "kind")?.as_deref() {
            Some("analyze") => JobKind::Analyze,
            Some("certify") => JobKind::Certify,
            Some(other) => {
                return Err(ApiError::bad_request(
                    "bad_kind",
                    format!("`kind` must be analyze or certify (got `{other}`)"),
                ))
            }
            None => return Err(ApiError::bad_request("bad_kind", "missing `kind`")),
        };

        let fsm = match (field_str(doc, "fsm")?, field_str(doc, "suite")?) {
            (Some(_), Some(_)) => {
                return Err(ApiError::bad_request(
                    "bad_fsm",
                    "`fsm` and `suite` are mutually exclusive",
                ))
            }
            (Some(dsl), None) => parse_fsm(&dsl)
                .map_err(|e| ApiError::bad_request("bad_dsl", format!("parsing `fsm`: {e}")))?,
            (None, Some(name)) => scfi_opentitan::bundled(&name).ok_or(ApiError {
                status: 404,
                code: "unknown_suite",
                message: format!("no bundled FSM named `{name}`"),
            })?,
            (None, None) => {
                return Err(ApiError::bad_request(
                    "bad_fsm",
                    "one of `fsm` (inline DSL) or `suite` (bundled name) is required",
                ))
            }
        };
        let mut spec = JobSpec::new(kind, fsm);

        if let Some(name) = field_str(doc, "config")? {
            spec.config = ConfigKind::parse(&name).ok_or_else(|| {
                ApiError::bad_request(
                    "bad_config",
                    format!("`config` must be scfi, redundancy or unprotected (got `{name}`)"),
                )
            })?;
        }
        spec.level = field_uint(doc, "level")?.map_or(spec.level, |l| l as usize);
        if let Some(name) = field_str(doc, "backend")? {
            spec.backend = Backend::parse(&name).ok_or_else(|| {
                ApiError::bad_request(
                    "bad_backend",
                    format!("`backend` must be {} (got `{name}`)", one_of(Backend::ALL)),
                )
            })?;
        }
        if let Some(lanes) = field_uint(doc, "lanes")? {
            spec.lane_words = lane_words(lanes).ok_or_else(|| {
                ApiError::bad_request(
                    "bad_lanes",
                    format!("`lanes` must be {} (got {lanes})", one_of(LANES)),
                )
            })?;
        }
        spec.protocol = match field_uint(doc, "protocol")? {
            None => None,
            Some(0) => {
                return Err(ApiError::bad_request(
                    "bad_protocol",
                    "`protocol` must be a positive walk depth",
                ))
            }
            Some(depth) => Some(depth as usize),
        };
        spec.fuzz_inputs = field_bool(doc, "fuzz_inputs")?;
        if spec.fuzz_inputs && spec.protocol.is_none() {
            return Err(ApiError::bad_request(
                "bad_knobs",
                "`fuzz_inputs` biases protocol walks; it requires `protocol`",
            ));
        }
        match field_str(doc, "format")?.as_deref() {
            None | Some("json") => {}
            Some("csv") => spec.format = Format::Csv,
            Some(other) => {
                return Err(ApiError::bad_request(
                    "bad_format",
                    format!("`format` must be json or csv (got `{other}`)"),
                ))
            }
        }
        spec.joint = field_bool(doc, "joint")?;
        spec.max_active = field_uint(doc, "max_active")?.map(|v| v as usize);

        // Per-kind knob validation: a knob that silently did nothing
        // would make the served experiment diverge from what the client
        // believes it requested.
        match kind {
            JobKind::Analyze => {
                if spec.joint || spec.max_active.is_some() || field_bool(doc, "all_gates")? {
                    return Err(ApiError::bad_request(
                        "bad_knobs",
                        "`joint`, `max_active` and `all_gates` are certify knobs",
                    ));
                }
                if doc.get("max_bdd_nodes").is_some() {
                    return Err(ApiError::bad_request(
                        "bad_knobs",
                        "`max_bdd_nodes` bounds certification, not campaigns",
                    ));
                }
            }
            JobKind::Certify => {
                if doc.get("backend").is_some()
                    || doc.get("lanes").is_some()
                    || spec.protocol.is_some()
                    || spec.fuzz_inputs
                    || doc.get("format").is_some()
                    || doc.get("max_injections").is_some()
                {
                    return Err(ApiError::bad_request(
                        "bad_knobs",
                        "`backend`, `lanes`, `protocol`, `fuzz_inputs`, `format` and \
                         `max_injections` are analyze knobs",
                    ));
                }
                if spec.max_active.is_some() && !spec.joint {
                    return Err(ApiError::bad_request(
                        "bad_knobs",
                        "`max_active` sets the `joint` fault bound",
                    ));
                }
            }
        }

        // An unprotected campaign enumerates every raw input valuation;
        // refuse an FSM too wide for that here rather than fail the job.
        // (Certification quantifies symbolically and has no such limit.)
        let signals = spec.fsm.signals().len();
        if kind == JobKind::Analyze
            && spec.config == ConfigKind::Unprotected
            && signals > UnprotectedTarget::MAX_SIGNALS
        {
            return Err(ApiError::bad_request(
                "too_many_signals",
                format!(
                    "an unprotected campaign enumerates 2^signals input words; \
                     `fsm` has {signals} signals (at most {})",
                    UnprotectedTarget::MAX_SIGNALS
                ),
            ));
        }

        spec.stuck_at = field_bool(doc, "stuck_at")?;
        spec.pin_faults = field_bool(doc, "pin_faults")?;
        spec.all_gates = field_bool(doc, "all_gates")?;
        spec.timeout_secs = field_uint(doc, "timeout_secs")?;
        spec.max_injections = field_uint(doc, "max_injections")?;
        spec.max_bdd_nodes = field_uint(doc, "max_bdd_nodes")?.map(|v| v as usize);
        Ok(spec)
    }

    /// Builds the run-control handle for this job, arming the deadline
    /// now (at run start, not at submission).
    pub fn run_control(&self) -> RunControl {
        let mut control = RunControl::unlimited();
        if let Some(secs) = self.timeout_secs {
            control = control.with_deadline(Duration::from_secs(secs));
        }
        if let Some(budget) = self.max_injections {
            control = control.with_injection_budget(budget);
        }
        control
    }

    /// The certification budget: `timeout_secs` (armed when the
    /// certifier is built) and `max_bdd_nodes`.
    pub fn certify_budget(&self) -> CertifyBudget {
        let mut budget = CertifyBudget::unlimited();
        if let Some(secs) = self.timeout_secs {
            budget = budget.timeout(Duration::from_secs(secs));
        }
        if let Some(nodes) = self.max_bdd_nodes {
            budget = budget.max_nodes(nodes);
        }
        budget
    }

    /// The SCFI hardening configuration: `level` plus the hardening
    /// options.
    ///
    /// # Panics
    ///
    /// Panics if `rails` is zero.
    pub fn scfi_config(&self) -> ScfiConfig {
        ScfiConfig::new(self.level)
            .adaptive_mds(self.adaptive)
            .selector_rails(self.rails)
            .protect_outputs(self.protect_outputs)
            .pad(self.pad)
    }
}

fn fault_effects(stuck_at: bool) -> Vec<FaultEffect> {
    if stuck_at {
        vec![FaultEffect::Flip, FaultEffect::Stuck0, FaultEffect::Stuck1]
    } else {
        vec![FaultEffect::Flip]
    }
}

/// Enumerates the certification fault space — the shared definition used
/// by the per-site and the joint engines.
pub fn certify_fault_set(
    module: &Module,
    all_gates: bool,
    stuck_at: bool,
    pin_faults: bool,
) -> Vec<Fault> {
    let mut fault_config = CampaignConfig::new()
        .effects(fault_effects(stuck_at))
        .with_register_flips();
    if !all_gates {
        // The paper's FT1 claim: the state registers (stored-bit flips
        // plus the register-region nets).
        fault_config = fault_config.register_region(module);
    }
    if pin_faults {
        fault_config = fault_config.with_pin_faults();
    }
    enumerate_faults(module, &fault_config)
}

/// A job's typed result, before rendering.
pub enum JobResult {
    /// An analyze campaign, or the interruption or failure that ended it.
    Campaign {
        /// Scenarios run (the walk count under `protocol`).
        scenarios: usize,
        /// The completed campaign.
        result: Result<Campaign, CampaignError>,
    },
    /// Per-site certification.
    Certification(CertificationReport),
    /// Joint multi-fault certification.
    Joint {
        /// The joint verdict.
        report: JointReport,
        /// The counterexample's active faults, described.
        active: Option<String>,
    },
}

/// A completed analyze campaign.
pub enum Campaign {
    /// The exhaustive single-fault campaign, attributed to fault sites.
    Sites(VulnerabilityMap),
    /// A sampled multi-fault campaign (`multi`).
    Summary(CampaignReport),
}

/// How a job run ended.
pub enum JobOutcome {
    /// Completed; `body` is the full result document.
    Done {
        /// Result bytes.
        body: String,
        /// `application/json` or `text/csv`.
        content_type: &'static str,
    },
    /// Interrupted at a wave boundary; `body` is the clearly marked
    /// partial-result document.
    Stopped {
        /// Which limit stopped the run.
        reason: StopReason,
        /// Partial-result bytes.
        body: String,
    },
    /// The run failed outright (no result document).
    Failed {
        /// What went wrong.
        message: String,
    },
}

/// Runs a validated spec against its prepared model under `control`,
/// emitting engine telemetry into `telemetry`.
///
/// Campaigns stop cooperatively at wave boundaries (cancellation,
/// deadline, injection budget → a [`CampaignError`] carrying the
/// completed prefix). Certification runs under
/// [`JobSpec::certify_budget`] and polls `control`'s cancel flag inside
/// the BDD step loop; an exhausted budget or a cancellation degrades
/// verdicts to `Unknown`, never to a proof.
pub fn execute(
    spec: &JobSpec,
    prepared: &Prepared,
    control: &RunControl,
    telemetry: &Telemetry,
) -> JobResult {
    match spec.kind {
        JobKind::Analyze => analyze(spec, prepared, control, telemetry),
        JobKind::Certify => match &prepared.model {
            PreparedModel::Scfi(h) => certify(h.as_ref(), spec, control, telemetry),
            PreparedModel::Redundancy(r) => certify(r.as_ref(), spec, control, telemetry),
            PreparedModel::Unprotected(u) => certify(&u.lowered, spec, control, telemetry),
        },
    }
}

/// Executes a spec and renders its result as the served document: the
/// per-site map in `spec.format`, the certification or joint JSON, or
/// the partial-result JSON of an interrupted campaign.
pub fn run_job(
    spec: &JobSpec,
    prepared: &Prepared,
    control: &RunControl,
    telemetry: &Telemetry,
) -> JobOutcome {
    let mut body = String::new();
    let content_type = match execute(spec, prepared, control, telemetry) {
        JobResult::Campaign { result, .. } => match result {
            Ok(Campaign::Sites(map)) => spec.format.write_sites(&mut body, prepared.module(), &map),
            Ok(Campaign::Summary(_)) => {
                return JobOutcome::Failed {
                    message: "a multi-fault campaign has no result document".to_string(),
                }
            }
            Err(CampaignError::Interrupted { reason, partial }) => {
                wire::write_partial_json(&mut body, reason, &partial);
                return JobOutcome::Stopped { reason, body };
            }
            Err(other) => {
                return JobOutcome::Failed {
                    message: format!("campaign failed: {other}"),
                }
            }
        },
        JobResult::Certification(report) => {
            wire::write_certify_json(&mut body, prepared.module(), &report);
            "application/json"
        }
        JobResult::Joint { report, .. } => {
            wire::write_joint_json(&mut body, &report);
            "application/json"
        }
    };
    // A cancelled certification aborts inside the BDD step loop and
    // surfaces as Unknown verdicts; report it as a stopped job (with the
    // clearly degraded document as the partial body), not a completion.
    if spec.kind == JobKind::Certify && control.is_cancelled() {
        return JobOutcome::Stopped {
            reason: StopReason::Cancelled,
            body,
        };
    }
    JobOutcome::Done { body, content_type }
}

fn analyze(
    spec: &JobSpec,
    prepared: &Prepared,
    control: &RunControl,
    telemetry: &Telemetry,
) -> JobResult {
    let mut config = CampaignConfig::new()
        .effects(fault_effects(spec.stuck_at))
        .threads(2)
        .lane_words(spec.lane_words)
        .backend(spec.backend)
        .telemetry(telemetry.clone())
        .precompiled(Arc::clone(&prepared.packed));
    if spec.pin_faults {
        config = config.with_pin_faults();
    }
    if spec.fault_windows {
        config = config.with_fault_windows();
    }
    if let Some(cells) = &spec.region {
        config = config.region(cells.clone());
    }
    let walk = (spec.protocol, spec.fuzz_inputs);
    match &prepared.model {
        PreparedModel::Scfi(h) => campaign(&coded_target(h.as_ref(), walk), spec, &config, control),
        PreparedModel::Redundancy(r) => {
            campaign(&coded_target(r.as_ref(), walk), spec, &config, control)
        }
        PreparedModel::Unprotected(u) => {
            let target = match walk {
                (Some(depth), true) => {
                    UnprotectedTarget::with_fuzzed_protocol(&u.fsm, &u.lowered, depth, WALK_SEED)
                }
                (Some(depth), false) => {
                    UnprotectedTarget::with_protocol(&u.fsm, &u.lowered, depth, WALK_SEED)
                }
                (None, _) => UnprotectedTarget::new(&u.fsm, &u.lowered),
            };
            campaign(&target, spec, &config, control)
        }
    }
}

/// A coded scheme's campaign target for the spec's `(protocol,
/// fuzz_inputs)` walk knobs.
fn coded_target<S: CodedScheme>(scheme: &S, walk: (Option<usize>, bool)) -> SchemeTarget<'_, S> {
    match walk {
        (Some(depth), true) => SchemeTarget::<S>::with_fuzzed_protocol(scheme, depth, WALK_SEED),
        (Some(depth), false) => SchemeTarget::<S>::with_protocol(scheme, depth, WALK_SEED),
        (None, _) => SchemeTarget::<S>::new(scheme),
    }
}

fn campaign<T: FaultTarget>(
    target: &T,
    spec: &JobSpec,
    config: &CampaignConfig,
    control: &RunControl,
) -> JobResult {
    let result = match spec.multi {
        Some((faults, runs)) => {
            try_run_multi_fault(target, faults, runs, config, control).map(Campaign::Summary)
        }
        None => VulnerabilityMap::try_analyze(target, config, control).map(Campaign::Sites),
    };
    JobResult::Campaign {
        scenarios: target.scenario_count(),
        result,
    }
}

fn certify<M: CertifyModel>(
    model: &M,
    spec: &JobSpec,
    control: &RunControl,
    telemetry: &Telemetry,
) -> JobResult {
    let module = model.module();
    let faults = certify_fault_set(module, spec.all_gates, spec.stuck_at, spec.pin_faults);
    // A budget overflow during setup means no certifier exists at all:
    // the claim degrades to Unknown rather than a fabricated proof.
    let certifier = Certifier::with_instruments(
        model,
        spec.certify_budget(),
        telemetry.clone(),
        Some(control.clone()),
    );
    if !spec.joint {
        return JobResult::Certification(match certifier {
            Ok(mut certifier) => certifier.certify_all(&faults),
            Err(overflow) => Certifier::degraded_report(model, &faults, overflow),
        });
    }
    // The paper's §3 bound: up to N − 1 simultaneous faults.
    let max_active = spec.max_active.unwrap_or(spec.level.saturating_sub(1));
    match certifier {
        Ok(mut certifier) => {
            let report = certifier.certify_joint(&faults, max_active);
            let active = match &report.verdict {
                JointVerdict::Counterexample(w) => Some(certifier.describe_active(w)),
                _ => None,
            };
            JobResult::Joint { report, active }
        }
        Err(overflow) => JobResult::Joint {
            report: JointReport {
                config: model.name(),
                module: module.name().to_string(),
                sites: faults.len(),
                max_active,
                reachable_states: 0,
                verdict: JointVerdict::Unknown {
                    reason: overflow.to_string(),
                },
            },
            active: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const DEMO: &str = "fsm demo { inputs go; state A { if go -> B; } state B { goto A; } }";

    fn spec(body: &str) -> Result<JobSpec, ApiError> {
        JobSpec::from_json(&parse(body).expect("test body parses"))
    }

    #[test]
    fn minimal_analyze_spec_gets_the_cli_defaults() {
        let s = spec(&format!(r#"{{"kind": "analyze", "fsm": {}}}"#, dsl_lit())).unwrap();
        assert_eq!(s.kind, JobKind::Analyze);
        assert_eq!(s.config, ConfigKind::Scfi);
        assert_eq!(s.level, 3);
        assert_eq!(s.backend, Backend::Packed);
        assert_eq!(s.lane_words, 4);
        assert_eq!(s.format, Format::Json);
        assert_eq!(s.fsm.name(), "demo");
        // The CLI-only knobs stay at their defaults.
        assert_eq!(s.region, None);
        assert_eq!(s.multi, None);
        assert!(!s.fault_windows);
        assert_eq!(s.rails, 1);
        let defaults = ScfiConfig::new(3);
        let config = s.scfi_config();
        assert_eq!(config.is_adaptive_mds(), defaults.is_adaptive_mds());
        assert_eq!(config.outputs_protected(), defaults.outputs_protected());
        assert_eq!(config.pad_policy(), defaults.pad_policy());
    }

    #[test]
    fn knob_choices_are_spelled_once() {
        assert_eq!(one_of(Backend::ALL), "scalar, packed or simd");
        assert_eq!(one_of(LANES), "64, 128 or 256");
        assert_eq!(LANES.map(lane_words), [Some(1), Some(2), Some(4)]);
        assert_eq!(lane_words(96), None);
        assert_eq!(lane_words(512), None);
    }

    fn dsl_lit() -> String {
        Json::Str(DEMO.to_string()).encode()
    }

    #[test]
    fn suite_names_resolve_and_unknown_is_404() {
        let s = spec(r#"{"kind": "certify", "suite": "aes_control"}"#).unwrap();
        assert_eq!(s.fsm.name(), "aes_control");
        let e = spec(r#"{"kind": "certify", "suite": "ghost"}"#).unwrap_err();
        assert_eq!(e.status, 404);
        assert_eq!(e.code, "unknown_suite");
    }

    #[test]
    fn unknown_fields_and_bad_values_are_typed_400s() {
        for (body, code) in [
            (
                r#"{"kind": "analyze", "suite": "aes_control", "turbo": true}"#,
                "unknown_field",
            ),
            (r#"{"suite": "aes_control"}"#, "bad_kind"),
            (
                r#"{"kind": "meditate", "suite": "aes_control"}"#,
                "bad_kind",
            ),
            (r#"{"kind": "analyze"}"#, "bad_fsm"),
            (
                r#"{"kind": "analyze", "fsm": "x", "suite": "aes_control"}"#,
                "bad_fsm",
            ),
            (r#"{"kind": "analyze", "fsm": "not a dsl"}"#, "bad_dsl"),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "config": "tmr"}"#,
                "bad_config",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "backend": "gpu"}"#,
                "bad_backend",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "lanes": 96}"#,
                "bad_lanes",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "protocol": 0}"#,
                "bad_protocol",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "fuzz_inputs": true}"#,
                "bad_knobs",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "format": "xml"}"#,
                "bad_format",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "joint": true}"#,
                "bad_knobs",
            ),
            (
                r#"{"kind": "analyze", "suite": "aes_control", "max_bdd_nodes": 8}"#,
                "bad_knobs",
            ),
            (
                r#"{"kind": "certify", "suite": "aes_control", "backend": "simd"}"#,
                "bad_knobs",
            ),
            (
                r#"{"kind": "certify", "suite": "aes_control", "max_active": 2}"#,
                "bad_knobs",
            ),
            (
                r#"{"kind": "certify", "suite": "aes_control", "level": "three"}"#,
                "bad_field",
            ),
            (
                r#"{"kind": "certify", "suite": "aes_control", "joint": "yes"}"#,
                "bad_field",
            ),
            (r#"[1, 2]"#, "bad_body"),
        ] {
            let e = spec(body).expect_err(body);
            assert_eq!(e.code, code, "body: {body} → {e:?}");
            assert!(e.status == 400, "body: {body} → {e:?}");
            // Error bodies are valid JSON with the documented shape.
            let doc = parse(&ApiError::bad_request(e.code, e.message.clone()).body()).unwrap();
            assert_eq!(
                doc.get("error").unwrap().get("code").unwrap().as_str(),
                Some(e.code)
            );
        }
    }

    #[test]
    fn wide_unprotected_campaigns_are_refused_at_submit() {
        let signals: Vec<String> = (0..=UnprotectedTarget::MAX_SIGNALS)
            .map(|i| format!("s{i}"))
            .collect();
        let dsl = format!(
            "fsm wide {{ inputs {}; state A {{ if s0 -> B; }} state B {{ goto A; }} }}",
            signals.join(", ")
        );
        let body = |kind: &str, config: &str| {
            let fsm = Json::Str(dsl.clone()).encode();
            format!(r#"{{"kind": "{kind}", "config": "{config}", "level": 2, "fsm": {fsm}}}"#)
        };
        let e = spec(&body("analyze", "unprotected")).unwrap_err();
        assert_eq!((e.status, e.code), (400, "too_many_signals"));
        assert!(e.message.contains("21 signals"), "{}", e.message);
        // Certification quantifies symbolically, and the coded schemes
        // drive condition codewords: neither enumerates input words.
        assert!(spec(&body("certify", "unprotected")).is_ok());
        assert!(spec(&body("analyze", "scfi")).is_ok());
        assert!(spec(&body("analyze", "redundancy")).is_ok());
    }

    #[test]
    fn run_control_maps_the_budget_knobs() {
        let s = spec(&format!(
            r#"{{"kind": "analyze", "fsm": {}, "max_injections": 5}}"#,
            dsl_lit()
        ))
        .unwrap();
        let control = s.run_control();
        assert!(control.admit(5).is_ok());
        assert!(control.admit(1).is_err());
    }
}
