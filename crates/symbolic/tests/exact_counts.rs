//! Exact-count golden test for certification.
//!
//! Every count the BDD engine exports is a deterministic function of the
//! operations the certifier issues: the unique table and the `ite` memo
//! are exact, so the node ids, the per-site step counts (the unit of the
//! step budget), the `ite` hit/miss split and the node high-water mark
//! repeat bit for bit from run to run. This test pins them, together
//! with a digest of the rendered reports, on two Table-1 FSMs under all
//! three §6.1 configurations. A change to the manager's tables that
//! keeps them exact (a different hasher, a different table layout) must
//! leave every row unchanged; a change that moves a count moves budget
//! trip points and must say so.

use scfi_core::{harden, redundancy, ScfiConfig};
use scfi_faultsim::{enumerate_faults, CampaignConfig};
use scfi_fsm::lower_unprotected;
use scfi_symbolic::{Certifier, CertifyBudget, CertifyModel, JointVerdict};
use scfi_telemetry::Telemetry;

/// What one run pins: report digest, summed per-site steps, `ite` memo
/// hits and misses, node high-water.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    digest: u64,
    steps: u64,
    hits: u64,
    misses: u64,
    high_water: u64,
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Register-region `certify_all`, then (when `joint`) the joint claim at
/// `max_active = n − 1` on the same certifier, under `budget`.
fn run<M: CertifyModel>(
    model: &M,
    n: usize,
    joint: bool,
    budget: CertifyBudget,
) -> (Counts, Option<JointVerdict>) {
    let recorder = Telemetry::recording();
    let mut certifier = Certifier::with_instruments(model, budget, recorder.clone(), None)
        .expect("setup fits the budget");
    let faults = enumerate_faults(
        model.module(),
        &CampaignConfig::new().register_region(model.module()),
    );
    let mut text = certifier.certify_all(&faults).to_string();
    let joint = joint.then(|| certifier.certify_joint(&faults, n - 1));
    if let Some(report) = &joint {
        text.push('\n');
        text.push_str(&report.to_string());
    }
    let counts = Counts {
        digest: fnv1a(text.as_bytes()),
        steps: recorder
            .histogram("scfi_certify_steps_per_site")
            .snapshot()
            .sum,
        hits: recorder.counter("scfi_bdd_ite_cache_hits_total").get(),
        misses: recorder.counter("scfi_bdd_ite_cache_misses_total").get(),
        high_water: recorder.gauge("scfi_bdd_nodes_high_water").get(),
    };
    (counts, joint.map(|report| report.verdict))
}

/// Shorthand for one golden row.
const fn counts(digest: u64, steps: u64, hits: u64, misses: u64, high_water: u64) -> Counts {
    Counts {
        digest,
        steps,
        hits,
        misses,
        high_water,
    }
}

/// `(fsm, config, N, counts(digest, steps, hits, misses, high_water))`.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, usize, Counts)] = &[
    ("aes_control", "scfi", 2, counts(0x54fec58846f72b75, 1810, 16076, 24906, 10925)),
    ("aes_control", "redundancy", 2, counts(0x31337769142ede62, 5729, 4473, 6789, 4244)),
    ("aes_control", "unprotected", 2, counts(0xd5a68e708240ae68, 278, 3737, 5329, 2441)),
    ("aes_control", "scfi", 3, counts(0x5a759f1d3d44fc76, 6772, 131641, 216121, 95103)),
    ("aes_control", "redundancy", 3, counts(0x2ff2f025de0deeab, 24486, 13554, 26640, 17199)),
    ("aes_control", "unprotected", 3, counts(0x415520bb26a0bfcb, 278, 3769, 5372, 2512)),
    ("pwrmgr_fsm", "scfi", 2, counts(0x1f1d5023170a34f0, 4195, 59854, 88145, 46692)),
    ("pwrmgr_fsm", "redundancy", 2, counts(0xc1a33dd192e7bc4b, 14540, 11035, 16756, 10172)),
    ("pwrmgr_fsm", "unprotected", 2, counts(0x136aa6405c7c7673, 690, 85993, 94105, 38508)),
    ("pwrmgr_fsm", "scfi", 3, counts(0x3a10c4ae65d33384, 12500, 433333, 679544, 366387)),
    ("pwrmgr_fsm", "redundancy", 3, counts(0x27f6c4c092dd69d0, 65670, 35097, 70074, 42786)),
    ("pwrmgr_fsm", "unprotected", 3, counts(0x6000d1375dc25df6, 690, 86126, 94267, 38570)),
];

#[test]
fn certification_counts_are_exact() {
    let mut actual = Vec::new();
    for name in ["aes_control", "pwrmgr_fsm"] {
        let fsm = scfi_opentitan::by_name(name).expect("Table-1 FSM").fsm;
        let unprotected = lower_unprotected(&fsm).expect("lowering");
        for n in [2, 3] {
            let budget = CertifyBudget::unlimited();
            let scfi = harden(&fsm, &ScfiConfig::new(n)).expect("harden");
            let red = redundancy(&fsm, n).expect("redundancy");
            actual.push((name, "scfi", n, run(&scfi, n, true, budget).0));
            actual.push((name, "redundancy", n, run(&red, n, false, budget).0));
            actual.push((name, "unprotected", n, run(&unprotected, n, true, budget).0));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, config, n, c)| {
            format!(
                "    ({name:?}, {config:?}, {n}, counts({:#018x}, {}, {}, {}, {})),\n",
                c.digest, c.steps, c.hits, c.misses, c.high_water
            )
        })
        .collect();
    assert_eq!(actual, GOLDEN, "measured table:\n{table}");
}

/// Joint certification of redundancy at N = 2 does not fit 200 000
/// nodes: it must stop `Unknown` exactly at the cap, after the same
/// number of memo probes every time.
#[test]
fn node_budget_trips_at_the_same_point() {
    let fsm = scfi_opentitan::by_name("aes_control")
        .expect("Table-1 FSM")
        .fsm;
    let red = redundancy(&fsm, 2).expect("redundancy");
    let (tripped, verdict) = run(&red, 2, true, CertifyBudget::unlimited().max_nodes(200_000));
    assert!(
        matches!(verdict, Some(JointVerdict::Unknown { .. })),
        "{verdict:?}"
    );
    assert_eq!(
        tripped,
        counts(0x9316b989ac426669, 5729, 199_331, 209_650, 200_000)
    );
}
