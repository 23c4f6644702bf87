//! What a workload run produces and how it is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use scfi_telemetry::Telemetry;

use crate::measure::{median, quantile, ratio, Digest};
use crate::trace::{self, SpanRec};

/// One named figure. `value: None` prints as `n/a` (the layer did no
/// work on this workload).
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
    /// Sample count or the base counts of a ratio.
    pub base: String,
    /// A count that must repeat exactly at a fixed seed.
    pub deterministic: bool,
}

pub fn metric(name: &str, unit: &'static str, value: Option<f64>, base: String) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        base,
        deterministic: false,
    }
}

pub fn count(name: &str, unit: &'static str, value: Option<f64>, base: String) -> Metric {
    Metric {
        deterministic: true,
        ..metric(name, unit, value, base)
    }
}

/// Everything one workload run measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Latency of every job in the timed window, ms.
    pub latencies_ms: Vec<f64>,
    pub window_s: f64,
    /// Jobs per second of each round of the window.
    pub round_rates: Vec<f64>,
    /// Jobs per round when one caller runs them in order (so
    /// `latencies_ms[round * round_size + slot]`); 0 for concurrent callers.
    pub round_size: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Jobs whose model was already seen earlier in the same process or
    /// server.
    pub repeats: u64,
    pub injections: u64,
    pub sites: u64,
    pub peak_rss_kib: u64,
    /// Digest of the first round's result bytes, in schedule order.
    pub digest: Digest,
    pub digest_jobs: usize,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    pub info: Vec<String>,
    pub layers: Vec<Metric>,
    /// Jobs per second untraced (the window) and traced (round 0 again).
    pub overhead: Option<(f64, f64)>,
    pub spans: Vec<SpanRec>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            latencies_ms: Vec::new(),
            window_s: 0.0,
            round_rates: Vec::new(),
            round_size: 0,
            attempted: 0,
            failed: 0,
            repeats: 0,
            injections: 0,
            sites: 0,
            peak_rss_kib: 0,
            digest: Digest::new(),
            digest_jobs: 0,
            checks: Vec::new(),
            info: Vec::new(),
            layers: Vec::new(),
            overhead: None,
            spans: Vec::new(),
        }
    }

    /// Records a check; a failed check also counts as a failed job.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        if !passed {
            self.failed += 1;
            self.attempted += 1;
        }
        self.checks.push((name.to_string(), passed, detail));
    }

    /// Jobs per second. With one caller (`round_size > 0`) a round takes
    /// the sum of its job latencies, so the rate is the round size over
    /// the sum of each round slot's median latency across the rounds:
    /// a burst of load from other processes on the host slows a few
    /// samples of a slot, not its median. With concurrent callers
    /// (`serve`), the median of the per-round rates.
    fn jobs_per_s(&self, window: &str) -> Metric {
        let r = self.round_size;
        if r == 0 {
            return metric(
                "jobs_per_s",
                "jobs/s",
                (!self.round_rates.is_empty()).then(|| median(&self.round_rates)),
                format!("median over n={} rounds; {window}", self.round_rates.len()),
            );
        }
        let rounds = self.latencies_ms.len() / r;
        let busy_ms: f64 = (0..r)
            .map(|slot| {
                let samples: Vec<f64> = (0..rounds)
                    .map(|round| self.latencies_ms[round * r + slot])
                    .collect();
                median(&samples)
            })
            .sum();
        metric(
            "jobs_per_s",
            "jobs/s",
            (rounds > 0).then(|| r as f64 / (busy_ms / 1e3)),
            format!("{r} jobs per round over the sum of per-job medians across n={rounds} rounds; {window}"),
        )
    }

    /// Jobs per second of busy time (one over the mean job latency):
    /// the untraced side of the tracing-overhead comparison.
    pub fn busy_jobs_per_s(&self) -> f64 {
        let done: Vec<f64> = self
            .latencies_ms
            .iter()
            .copied()
            .filter(|l| l.is_finite())
            .collect();
        done.len() as f64 / (done.iter().sum::<f64>() / 1e3)
    }

    pub fn all_passed(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    /// The end-to-end figures of the untraced window; a work rate a
    /// workload does not have (`injections_per_s` on certify,
    /// `sites_per_s` on cli_analyze and temporal) is `n/a`.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let n = self.latencies_ms.len();
        let jobs = format!("n={n} jobs in {:.3} s", self.window_s);
        vec![
            self.jobs_per_s(&jobs),
            metric(
                "job_p50_ms",
                "ms",
                (n > 0).then(|| median(&self.latencies_ms)),
                format!("n={n}"),
            ),
            metric(
                "job_p90_ms",
                "ms",
                (n > 0).then(|| quantile(&self.latencies_ms, 0.9)),
                format!("n={n}"),
            ),
            metric(
                "injections_per_s",
                "inj/s",
                (self.injections > 0).then(|| self.injections as f64 / self.window_s),
                format!("{} injections in {:.3} s", self.injections, self.window_s),
            ),
            metric(
                "sites_per_s",
                "sites/s",
                (self.sites > 0).then(|| self.sites as f64 / self.window_s),
                format!("{} sites in {:.3} s", self.sites, self.window_s),
            ),
            metric(
                "setup_s",
                "s",
                (!self.setup_s.is_empty()).then(|| median(&self.setup_s)),
                format!("median of n={} set-ups", self.setup_s.len()),
            ),
            metric(
                "peak_rss_mb",
                "MiB",
                (self.peak_rss_kib > 0).then(|| self.peak_rss_kib as f64 / 1024.0),
                "VmHWM".to_string(),
            ),
            metric(
                "failed_frac",
                "fraction",
                ratio(self.failed as f64, self.attempted as f64),
                format!("{} failed of {} attempted", self.failed, self.attempted),
            ),
        ]
    }
}

pub fn print_metrics(out: &mut String, title: &str, metrics: &[Metric]) {
    let _ = writeln!(out, "{title}");
    for m in metrics {
        let value = match m.value {
            Some(v) => format!("{v:.6}"),
            None => "n/a".to_string(),
        };
        let flag = if m.deterministic {
            "  [count: exact at fixed seed]"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {:<36} {:>18} {:<9} ({}){flag}",
            m.name, value, m.unit, m.base
        );
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `metric`: the mean duration of the `layer` spans called `span`.
fn mean_ms(spans: &[SpanRec], metric_name: &str, layer: &str, span: &str) -> Metric {
    let (ns, n) = trace::total(spans, layer, span);
    metric(
        metric_name,
        "ms",
        (n > 0).then(|| ms(ns) / n as f64),
        format!("mean of n={n} `{span}` calls"),
    )
}

/// Telemetry series read back from the recording handle.
pub fn counter(t: &Telemetry, name: &str) -> u64 {
    t.counter(name).get()
}

/// Exact `(sum, count)` of a histogram.
pub fn hist(t: &Telemetry, name: &str) -> (u64, u64) {
    let s = t.histogram(name).snapshot();
    (s.sum, s.count)
}

/// The library-layer figures of a traced run: span timings, then the
/// engine counters of the recording `telemetry` handle.
pub fn library_layers(spans: &[SpanRec], t: &Telemetry, reachable: (u64, u64)) -> Vec<Metric> {
    let mut m = Vec::new();
    let (job_ns, jobs) = spans
        .iter()
        .filter(|s| s.layer == "job")
        .fold((0u64, 0u64), |(a, b), s| (a + s.dur_ns(), b + 1));
    let work_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(SpanRec::dur_ns)
        .sum();
    m.push(mean_ms(spans, "fsm.parse_ms", "fsm", "parse_fsm"));
    m.push(mean_ms(spans, "fsm.lower_ms", "fsm", "lower_unprotected"));
    m.push(mean_ms(
        spans,
        "mds.build_cold_ms",
        "mds",
        "MdsSpec::build(cold)",
    ));
    let (warm_ns, warm_n) = trace::total(spans, "mds", "MdsSpec::build(warm)");
    m.push(metric(
        "mds.build_warm_us",
        "us",
        (warm_n > 0).then(|| warm_ns as f64 / 1e3 / warm_n as f64),
        format!("mean of n={warm_n} cached `MdsSpec::build` calls"),
    ));
    m.push(mean_ms(spans, "core.harden_ms", "core", "harden"));
    m.push(mean_ms(spans, "core.redundancy_ms", "core", "redundancy"));
    let (harden_ns, _) = trace::total(spans, "core", "harden");
    m.push(metric(
        "core.harden_share",
        "fraction",
        (harden_ns > 0).then(|| harden_ns as f64 / work_ns as f64),
        format!(
            "{:.3} ms harden of {:.3} ms traced library work",
            ms(harden_ns),
            ms(work_ns)
        ),
    ));
    m.push(mean_ms(
        spans,
        "netlist.compile_ms",
        "netlist",
        "PackedNetlist::compile",
    ));
    // Gate counts are pushed by the workloads (they hold the models).
    m.push(mean_ms(
        spans,
        "faultsim.enumerate_ms",
        "faultsim",
        "enumerate_faults",
    ));
    let (campaign_ns, campaigns) = [
        "try_run_exhaustive",
        "try_run_multi_fault",
        "VulnerabilityMap::try_analyze",
    ]
    .iter()
    .map(|n| trace::total(spans, "faultsim", n))
    .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let some = |v: f64, ok: bool| ok.then_some(v);
    m.push(metric(
        "faultsim.campaign_ms",
        "ms",
        some(ms(campaign_ns) / campaigns as f64, campaigns > 0),
        format!("mean of n={campaigns} campaign calls"),
    ));
    m.push(metric(
        "faultsim.share_of_job",
        "fraction",
        some(
            campaign_ns as f64 / job_ns as f64,
            campaigns > 0 && job_ns > 0,
        ),
        format!(
            "{:.3} ms campaigns of {:.3} ms over n={jobs} jobs",
            ms(campaign_ns),
            ms(job_ns)
        ),
    ));
    let inj = counter(t, "scfi_campaign_injections_total");
    let waves = counter(t, "scfi_campaign_waves_total");
    let stepped = counter(t, "scfi_campaign_cycles_stepped_total");
    let skipped = counter(t, "scfi_campaign_cycles_skipped_total");
    let rebuilds = counter(t, "scfi_campaign_mask_rebuilds_total");
    let elided = counter(t, "scfi_campaign_mask_rebuild_elisions_total");
    let fast = counter(t, "scfi_campaign_oracle_fastpath_cycles_total");
    let fallback = counter(t, "scfi_campaign_oracle_fallback_cycles_total");
    let (cone_sum, cone_n) = hist(t, "scfi_campaign_resim_cone_gates");
    let ran = campaigns > 0;
    m.push(metric(
        "faultsim.ns_per_injection",
        "ns",
        some(campaign_ns as f64 / inj as f64, ran && inj > 0),
        format!("{campaign_ns} ns / {inj} injections"),
    ));
    m.push(metric(
        "faultsim.ns_per_cycle_stepped",
        "ns",
        some(campaign_ns as f64 / stepped as f64, ran && stepped > 0),
        format!("{campaign_ns} ns / {stepped} stepped cycles"),
    ));
    m.push(count(
        "faultsim.injections",
        "count",
        some(inj as f64, ran),
        "scfi_campaign_injections_total".into(),
    ));
    m.push(count(
        "faultsim.waves",
        "count",
        some(waves as f64, ran),
        "scfi_campaign_waves_total".into(),
    ));
    m.push(count(
        "faultsim.cycles_stepped",
        "count",
        some(stepped as f64, ran),
        "scfi_campaign_cycles_stepped_total".into(),
    ));
    m.push(count(
        "faultsim.cycle_skip_frac",
        "fraction",
        some(
            skipped as f64 / (stepped + skipped) as f64,
            ran && stepped + skipped > 0,
        ),
        format!("{skipped} skipped / {} cycles", stepped + skipped),
    ));
    m.push(count(
        "faultsim.mask_rebuild_elision_frac",
        "fraction",
        some(
            elided as f64 / (rebuilds + elided) as f64,
            ran && rebuilds + elided > 0,
        ),
        format!("{elided} elided / {} mask rebuilds due", rebuilds + elided),
    ));
    m.push(count(
        "faultsim.oracle_fastpath_frac",
        "fraction",
        some(
            fast as f64 / (fast + fallback) as f64,
            ran && fast + fallback > 0,
        ),
        format!("{fast} fast-path / {} classified cycles", fast + fallback),
    ));
    m.push(count(
        "faultsim.resim_cone_gates_mean",
        "gates",
        some(cone_sum as f64 / cone_n as f64, ran && cone_n > 0),
        format!("{cone_sum} gates / {cone_n} cone re-simulations"),
    ));

    let (setup_sum, setup_n) = hist(t, "scfi_certify_setup_ns");
    let (reach_sum, reach_n) = hist(t, "scfi_certify_reach_ns");
    let (site_sum, site_n) = hist(t, "scfi_certify_site_ns");
    let (steps_sum, steps_n) = hist(t, "scfi_certify_steps_per_site");
    let hits = counter(t, "scfi_bdd_ite_cache_hits_total");
    let misses = counter(t, "scfi_bdd_ite_cache_misses_total");
    let (joint_ns, joint_n) = trace::total(spans, "symbolic", "certify_joint");
    let certified = setup_n > 0;
    m.push(metric(
        "symbolic.setup_ms",
        "ms",
        some(ms(setup_sum) / setup_n as f64, certified),
        format!("mean of n={setup_n} (scfi_certify_setup_ns sum/count)"),
    ));
    m.push(metric(
        "symbolic.reach_ms",
        "ms",
        some(ms(reach_sum) / reach_n as f64, reach_n > 0),
        format!("mean of n={reach_n} (scfi_certify_reach_ns sum/count)"),
    ));
    m.push(metric(
        "symbolic.site_us",
        "us",
        some(site_sum as f64 / 1e3 / site_n as f64, site_n > 0),
        format!("mean of n={site_n} sites (scfi_certify_site_ns sum/count)"),
    ));
    m.push(metric(
        "symbolic.joint_ms",
        "ms",
        some(ms(joint_ns) / joint_n as f64, joint_n > 0),
        format!("mean of n={joint_n} `certify_joint` calls"),
    ));
    m.push(count(
        "symbolic.ite_calls",
        "count",
        some((hits + misses) as f64, certified),
        format!("{hits} cache hits + {misses} misses"),
    ));
    m.push(count(
        "symbolic.ite_hit_frac",
        "fraction",
        some(
            hits as f64 / (hits + misses) as f64,
            certified && hits + misses > 0,
        ),
        format!("{hits} hits / {} ite calls", hits + misses),
    ));
    m.push(count(
        "symbolic.steps_per_site_mean",
        "steps",
        some(steps_sum as f64 / steps_n as f64, steps_n > 0),
        format!("{steps_sum} steps / {steps_n} sites"),
    ));
    m.push(count(
        "symbolic.reachable_states",
        "states",
        some(
            reachable.0 as f64 / reachable.1 as f64,
            certified && reachable.1 > 0,
        ),
        format!("mean over n={} certifications", reachable.1),
    ));
    m.push(count(
        "symbolic.nodes_high_water",
        "nodes",
        some(t.gauge("scfi_bdd_nodes_high_water").get() as f64, certified),
        "scfi_bdd_nodes_high_water (max over the run)".into(),
    ));
    let (r_ns, r_n) = [
        "wire::write_sites_json",
        "wire::write_certify_json",
        "wire::write_joint_json",
    ]
    .iter()
    .map(|n| trace::total(spans, "serve", n))
    .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    m.push(metric(
        "serve.render_ms",
        "ms",
        some(ms(r_ns) / r_n as f64, r_n > 0),
        format!("mean of n={r_n} `wire` writer calls"),
    ));
    m
}

/// Self time per layer, as `self_ms.<layer>` figures.
pub fn self_times(spans: &[SpanRec]) -> Vec<Metric> {
    let by_layer: BTreeMap<&str, (u64, u64)> = trace::self_time_by_layer(spans);
    let total: u64 = by_layer.values().map(|v| v.0).sum();
    by_layer
        .iter()
        .map(|(layer, (ns, n))| {
            metric(
                &format!("self_ms.{layer}"),
                "ms",
                Some(ms(*ns)),
                format!(
                    "{n} spans, {:.1} % of {:.3} ms traced",
                    100.0 * *ns as f64 / total.max(1) as f64,
                    ms(total)
                ),
            )
        })
        .collect()
}
