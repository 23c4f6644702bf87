//! End-to-end benchmark of the SCFI pipeline: `scfi analyze` processes,
//! in-process temporal campaigns and certifications, and `scfi serve`.
//!
//! ```text
//! scfi-e2ebench --workload cli_analyze|temporal|certify|serve --seed N
//!               --seconds S --trace 0|1 --scfi PATH --root DIR --out-dir DIR
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end figures of the untimed-checked window; with
//! `--trace 1` they are the per-layer figures of the traced run. The exit
//! code is non-zero when any output check fails. See `README.md`.

mod certify;
mod cli_analyze;
mod inputs;
mod layers;
mod measure;
mod report;
mod serve;
mod temporal;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{print_metrics, Metric, Outcome};

/// Run parameters shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `scfi` binary under test.
    pub scfi: PathBuf,
    /// Scratch space for inputs and the trace file.
    pub out_dir: PathBuf,
    pub root: PathBuf,
}

impl Ctx {
    /// Length of the timed window: the traced run spends half its time on
    /// the untraced window and the rest on the traced round and checks.
    pub fn window_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

const WORKLOADS: [&str; 4] = ["cli_analyze", "temporal", "certify", "serve"];

/// End-to-end figures in the result object (`--trace 0`).
const END_TO_END: [&str; 5] = [
    "jobs_per_s",
    "job_p50_ms",
    "job_p90_ms",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer figures in the result object (`--trace 1`): those every
/// workload exercises. The full per-layer table is printed above it.
const PER_LAYER: [&str; 12] = [
    "fsm.parse_ms",
    "mds.build_cold_ms",
    "mds.build_warm_us",
    "core.harden_ms",
    "netlist.compile_ms",
    "netlist.gates",
    "faultsim.enumerate_ms",
    "self_ms.fsm",
    "self_ms.mds",
    "self_ms.core",
    "self_ms.netlist",
    "self_ms.faultsim",
];

/// Runs `count` child processes that each perform `workload`'s set-up
/// cold and report its duration in seconds.
pub fn setup_probes(ctx: &Ctx, workload: &str, count: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for _ in 0..count {
        let o = Command::new(&exe)
            .args(["--setup-probe", workload, "--seed", &ctx.seed.to_string()])
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&o.stdout);
        let secs = text
            .trim()
            .strip_prefix("setup_s ")
            .and_then(|v| v.parse().ok())
            .filter(|_| o.status.success())
            .ok_or_else(|| {
                format!(
                    "set-up probe failed: {text} {}",
                    String::from_utf8_lossy(&o.stderr)
                )
            })?;
        out.push(secs);
    }
    Ok(out)
}

struct Args {
    workload: String,
    ctx: Ctx,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut workload = None;
    let mut setup_probe = false;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let mut scfi = target.join("release").join("scfi");
    let mut out_dir = target.join("e2ebench");
    let mut root = PathBuf::from(".");
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--setup-probe" => {
                workload = Some(value()?);
                setup_probe = true;
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be a number")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds must be positive")?
            }
            "--trace" => trace = value()? == "1",
            "--scfi" => scfi = PathBuf::from(value()?),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--root" => root = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed,
            seconds,
            trace,
            scfi,
            out_dir,
            root,
        },
        setup_probe,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scfi-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    if args.setup_probe {
        let secs = match args.workload.as_str() {
            "temporal" => temporal::setup(ctx.seed).map(|r| r.1),
            "certify" => certify::setup(ctx.seed).map(|r| r.1),
            other => Err(format!("no set-up probe for `{other}`")),
        };
        return match secs {
            Ok(s) => {
                println!("setup_s {s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("scfi-e2ebench: {e}");
                ExitCode::from(2)
            }
        };
    }
    if !ctx.scfi.is_file() {
        eprintln!(
            "scfi-e2ebench: `{}` not found; build it first",
            ctx.scfi.display()
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("scfi-e2ebench: {}: {e}", ctx.out_dir.display());
        return ExitCode::from(2);
    }

    let outcome = match args.workload.as_str() {
        "cli_analyze" => cli_analyze::run_workload(ctx),
        "temporal" => temporal::run_workload(ctx),
        "certify" => certify::run_workload(ctx),
        _ => serve::run_workload(ctx),
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("scfi-e2ebench: {}: {e}", args.workload);
            return ExitCode::from(3);
        }
    };
    let (text, json) = render(&args.workload, ctx, &o);
    print!("{text}");
    println!("{json}");
    if o.all_passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn render(workload: &str, ctx: &Ctx, o: &Outcome) -> (String, String) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scfi-e2ebench workload={workload} seed={} seconds={} trace={}",
        ctx.seed, ctx.seconds, ctx.trace as u8
    );
    for line in measure::host_lines(&ctx.root) {
        let _ = writeln!(out, "{line}");
    }
    for line in &o.info {
        let _ = writeln!(out, "{line}");
    }
    let rates: Vec<String> = o.round_rates.iter().map(|r| format!("{r:.2}")).collect();
    let _ = writeln!(out, "round rates (jobs/s): {}", rates.join(" "));
    let _ = writeln!(
        out,
        "repeat share: {:.4} ({} of {} jobs reuse a model seen earlier in the same process or server)",
        o.repeats as f64 / o.attempted.max(1) as f64,
        o.repeats,
        o.attempted
    );
    let e2e = o.end_to_end();
    print_metrics(&mut out, "end-to-end (untraced window):", &e2e);
    let mut metrics: Vec<&Metric> = Vec::new();
    let self_times = report::self_times(&o.spans);
    if ctx.trace {
        print_metrics(&mut out, "per-layer (traced run):", &o.layers);
        print_metrics(&mut out, "self time per layer (traced run):", &self_times);
        if let Some((untraced, traced)) = o.overhead {
            let _ = writeln!(
                out,
                "tracing overhead: {untraced:.3} jobs/s untraced (window) vs {traced:.3} jobs/s \
                 traced (the {} round-0 jobs again) ({:+.1} %)",
                o.digest_jobs,
                100.0 * (traced / untraced - 1.0)
            );
        }
        let path = ctx
            .out_dir
            .join(format!("trace-{workload}-seed{}.json", ctx.seed));
        match std::fs::write(&path, trace::chrome_trace(&o.spans)) {
            Ok(()) => {
                let _ = writeln!(out, "trace: {} spans -> {}", o.spans.len(), path.display());
            }
            Err(e) => {
                let _ = writeln!(out, "trace: not written ({}: {e})", path.display());
            }
        }
        for name in PER_LAYER {
            if let Some(m) = o.layers.iter().chain(&self_times).find(|m| m.name == name) {
                metrics.push(m);
            }
        }
    } else {
        for name in END_TO_END {
            if let Some(m) = e2e.iter().find(|m| m.name == name) {
                metrics.push(m);
            }
        }
    }
    let _ = writeln!(out, "checks:");
    for (name, passed, detail) in &o.checks {
        let _ = writeln!(
            out,
            "  [{}] {name}: {detail}",
            if *passed { "ok" } else { "FAILED" }
        );
    }
    let _ = writeln!(
        out,
        "digest: {} over the n={} round-0 results",
        o.digest.hex(),
        o.digest_jobs
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value.unwrap_or(f64::NAN)),
                m.unit
            )
        })
        .collect();
    let json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.all_passed(),
        o.attempted,
        o.failed,
        fields.join(", ")
    );
    (out, json)
}
