//! Differential tests for fault-major, cone-only execution of exhaustive
//! single-cycle grids: the wave backends run every
//! [`WorkList::grid`] of single-cycle scenarios fault-major, and their
//! outcomes must equal the scalar backend's slot for slot — with blocks
//! smaller than a wave (several faults per wave in disjoint lane groups)
//! and larger (several blocks, a ragged last one), on random netlists
//! with a target that has no [`WaveOracle`](scfi_faultsim::WaveOracle),
//! and on the three §6.1 schemes over the whole module and `--region`
//! subsets, with and without the word oracle. Telemetry pins that the
//! fault-major path actually ran: one cone observation per wave, and the
//! wave count of the fault-major plan.

use proptest::prelude::*;
use scfi_core::{harden, redundancy, ScfiConfig};
use scfi_faultsim::{
    run_exhaustive, run_exhaustive_scalar, Backend, CampaignBackend, CampaignConfig, Fault,
    FaultEffect, FaultSchedule, FaultSite, FaultTarget, FaultTiming, Outcome, PackedBackend,
    RedundancyTarget, ScalarBackend, Scenario, ScfiTarget, SimdBackend, UnprotectedTarget,
    VulnerabilityMap, WorkList,
};
use scfi_fsm::{lower_unprotected, parse_fsm};
use scfi_netlist::{CellId, Module, ModuleBuilder, NetId};
use scfi_telemetry::Telemetry;

const N_INPUTS: usize = 3;

/// A recipe for one gate: opcode and operand picks.
type GateSpec = (u8, usize, usize);

/// A recipe for one fault: site kind, cell pick, pin pick, effect pick.
type FaultSpec = (u8, usize, u8, u8);

/// A random sequential module whose last net and registers are outputs.
fn build(recipe: &[GateSpec], n_regs: usize, dff_srcs: &[usize]) -> Module {
    let mut b = ModuleBuilder::new("grid_diff");
    let inputs: Vec<NetId> = (0..N_INPUTS).map(|i| b.input(format!("i{i}"))).collect();
    let regs: Vec<NetId> = (0..n_regs).map(|i| b.dff_uninit(i % 2 == 0)).collect();
    let mut nets = inputs;
    nets.extend(&regs);
    for &(op, a, c) in recipe {
        let (na, nc) = (nets[a % nets.len()], nets[c % nets.len()]);
        let net = match op % 7 {
            0 => b.and2(na, nc),
            1 => b.or2(na, nc),
            2 => b.xor2(na, nc),
            3 => b.nand2(na, nc),
            4 => b.not(na),
            5 => b.xnor2(na, nc),
            _ => {
                let sel = nets[(a ^ c) % nets.len()];
                b.mux(sel, na, nc)
            }
        };
        nets.push(net);
    }
    for (i, &q) in regs.iter().enumerate() {
        b.set_dff_input(q, nets[dff_srcs[i] % nets.len()]);
    }
    b.output("y", *nets.last().expect("nonempty"));
    for (i, &q) in regs.iter().enumerate() {
        b.output(format!("q{i}"), q);
    }
    b.finish().expect("valid random module")
}

/// Single-cycle scenarios over a random module, classified by a
/// deterministic hash of the post-step registers and outputs (no word
/// oracle, so divergent lanes take the per-lane fallback).
struct SingleCycleTarget {
    module: Module,
    scenarios: Vec<Scenario>,
}

impl SingleCycleTarget {
    fn new(module: Module, count: usize, seed: u64) -> Self {
        let n_regs = module.registers().len();
        let scenarios = (0..count)
            .map(|s| {
                let bits = seed.rotate_left(s as u32 % 64) ^ (s as u64).wrapping_mul(0x9E37);
                Scenario {
                    regs: (0..n_regs).map(|i| (bits >> i) & 1 == 1).collect(),
                    inputs: vec![(0..N_INPUTS).map(|i| (bits >> (8 + i)) & 1 == 1).collect()],
                    // Both single-cycle windows arm at cycle 0.
                    schedule: FaultSchedule::Uniform(if s % 2 == 0 {
                        FaultTiming::Permanent
                    } else {
                        FaultTiming::Transient(0)
                    }),
                    landings: Vec::new(),
                }
            })
            .collect();
        SingleCycleTarget { module, scenarios }
    }
}

impl FaultTarget for SingleCycleTarget {
    fn module(&self) -> &Module {
        &self.module
    }

    fn scenario_count(&self) -> usize {
        self.scenarios.len()
    }

    fn scenario(&self, index: usize) -> Scenario {
        self.scenarios[index].clone()
    }

    fn classify(&self, index: usize, cycle: usize, regs: &[bool], outputs: &[bool]) -> Outcome {
        let mut acc = index.wrapping_mul(5).wrapping_add(cycle);
        for (i, &b) in regs.iter().chain(outputs).enumerate() {
            if b {
                acc = acc.wrapping_add(3 * i + 1);
            }
        }
        match acc % 3 {
            0 => Outcome::Masked,
            1 => Outcome::Detected,
            _ => Outcome::Hijack,
        }
    }
}

/// Hides a target's word oracle so the grid path classifies divergent
/// lanes one by one through `classify`.
struct NoOracle<'a, T: FaultTarget>(&'a T);

impl<T: FaultTarget> FaultTarget for NoOracle<'_, T> {
    fn module(&self) -> &Module {
        self.0.module()
    }

    fn scenario_count(&self) -> usize {
        self.0.scenario_count()
    }

    fn scenario(&self, index: usize) -> Scenario {
        self.0.scenario(index)
    }

    fn classify(&self, index: usize, cycle: usize, regs: &[bool], outputs: &[bool]) -> Outcome {
        self.0.classify(index, cycle, regs, outputs)
    }
}

/// Decodes a fault recipe: cell-output effects, pin faults on any cell
/// with pins (flip-flop data pins included) and register flips.
fn decode_fault(module: &Module, spec: FaultSpec) -> Option<Fault> {
    let (site, cell_pick, pin_pick, effect_pick) = spec;
    let effect =
        [FaultEffect::Flip, FaultEffect::Stuck0, FaultEffect::Stuck1][effect_pick as usize % 3];
    let cell = CellId((cell_pick % module.len()) as u32);
    match site % 3 {
        0 => Some(Fault {
            site: FaultSite::CellOutput(cell),
            effect,
        }),
        1 => {
            let arity = module.cell(cell).kind.arity();
            (arity > 0).then(|| Fault {
                site: FaultSite::Pin(cell, pin_pick % arity as u8),
                effect,
            })
        }
        _ => {
            let regs = module.registers();
            Some(Fault {
                site: FaultSite::Register(regs[cell_pick % regs.len()]),
                effect: FaultEffect::Flip,
            })
        }
    }
}

/// The fault-major plan's wave count: blocks of up to `lanes` scenarios,
/// each packing `⌊lanes / block⌋` faults per wave.
fn grid_waves(scenarios: usize, faults: usize, lanes: usize) -> u64 {
    (0..scenarios)
        .step_by(lanes)
        .map(|first| {
            let block = lanes.min(scenarios - first);
            faults.div_ceil(lanes / block) as u64
        })
        .sum()
}

/// Asserts the recorder saw the fault-major path: one cone observation
/// per wave, and exactly the plan's wave count.
fn assert_fault_major(telemetry: &Telemetry, expected_waves: u64, what: &str) {
    let waves = telemetry.counter("scfi_campaign_waves_total").get();
    let cones = telemetry
        .histogram("scfi_campaign_resim_cone_gates")
        .snapshot()
        .count;
    assert_eq!(waves, expected_waves, "{what}: not the fault-major plan");
    assert_eq!(cones, waves, "{what}: one cone per fault-major wave");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random netlists × random single-cycle scenario counts (below,
    /// across and above one wave) × random fault lists × random widths
    /// and thread counts: the fault-major outcomes equal the scalar
    /// backend's, slot for slot.
    #[test]
    fn grid_outcomes_match_scalar_slot_for_slot(
        recipe in proptest::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 3..30),
        n_regs in 1usize..5,
        dff_srcs in proptest::collection::vec(0usize..64, 4),
        scenarios in 1usize..700,
        seed in any::<u64>(),
        fault_specs in proptest::collection::vec((any::<u8>(), 0usize..512, any::<u8>(), any::<u8>()), 1..40),
        pick in 0usize..4,
        threads in 1usize..5,
    ) {
        let module = build(&recipe, n_regs, &dff_srcs);
        let faults: Vec<Fault> = fault_specs
            .iter()
            .filter_map(|&spec| decode_fault(&module, spec))
            .collect();
        let target = SingleCycleTarget::new(module, scenarios, seed);
        let work = WorkList::grid(scenarios, faults.clone()).expect("small grid");
        let reference = ScalarBackend.execute(&target, &work, &CampaignConfig::new().threads(1));

        let telemetry = Telemetry::recording();
        let config = CampaignConfig::new().threads(threads).telemetry(telemetry.clone());
        let (got, lanes) = match pick {
            3 => (SimdBackend.execute(&target, &work, &config), 512),
            w => {
                let words = 1 << w;
                (PackedBackend.execute(&target, &work, &config.lane_words(words)), 64 * words)
            }
        };
        prop_assert_eq!(&got, &reference, "pick {} threads {}", pick, threads);
        assert_fault_major(&telemetry, grid_waves(scenarios, faults.len(), lanes), "random");
    }
}

const DEMO: &str = "fsm m { inputs a, b;
    state S0 { if a -> S1; if b -> S2; }
    state S1 { if b -> S2; if a -> S0; }
    state S2 { goto S0; } }";

/// Every §6.1 scheme, the whole module and region subsets, every wave
/// width and both classification paths: `run_exhaustive` and the
/// per-cell map on the fault-major path equal the scalar reference.
/// The demo's few scenarios pack many faults into each wave.
#[test]
fn scheme_campaigns_match_scalar_on_the_fault_major_path() {
    let fsm = parse_fsm(DEMO).expect("demo parses");
    let scfi = harden(&fsm, &ScfiConfig::new(3)).expect("demo hardens");
    let red = redundancy(&fsm, 2).expect("redundancy builds");
    let lowered = lower_unprotected(&fsm).expect("demo lowers");
    let regions = scfi.regions();
    let full = CampaignConfig::new()
        .effects(vec![
            FaultEffect::Flip,
            FaultEffect::Stuck0,
            FaultEffect::Stuck1,
        ])
        .with_pin_faults()
        .with_register_flips();
    let configs = [
        ("flips", CampaignConfig::new()),
        ("full", full.clone()),
        ("diffusion", full.clone().region(regions.diffusion.clone())),
        (
            "selector",
            full.region(regions.pattern_match.start..regions.modifier_select.end),
        ),
    ];
    fn check<T: FaultTarget>(target: &T, config: &CampaignConfig, what: &str) {
        let scalar = run_exhaustive_scalar(target, &config.clone().threads(1));
        let scalar_map =
            VulnerabilityMap::analyze(target, &config.clone().backend(Backend::Scalar));
        for (backend, words) in [
            (Backend::Packed, 1),
            (Backend::Packed, 2),
            (Backend::Packed, 4),
            (Backend::Simd, 8),
        ] {
            let telemetry = Telemetry::recording();
            let cfg = config
                .clone()
                .backend(backend)
                .lane_words(words.min(4))
                .threads(2)
                .telemetry(telemetry.clone());
            let report = run_exhaustive(target, &cfg);
            assert_eq!(report, scalar, "{what}: {backend} W={words}");
            let plan = grid_waves(
                target.scenario_count(),
                report.injections / target.scenario_count(),
                64 * words,
            );
            assert_fault_major(&telemetry, plan, what);
            let map = VulnerabilityMap::analyze(target, &cfg.telemetry(Telemetry::off()));
            let cells = |m: &VulnerabilityMap| m.sites().collect::<Vec<_>>();
            assert_eq!(
                cells(&map),
                cells(&scalar_map),
                "{what}: {backend} W={words} map"
            );
        }
    }
    for (name, config) in &configs {
        let scfi_target = ScfiTarget::new(&scfi);
        check(&scfi_target, config, &format!("scfi {name}"));
        check(
            &NoOracle(&scfi_target),
            config,
            &format!("scfi {name} no oracle"),
        );
        check(
            &RedundancyTarget::new(&red),
            config,
            &format!("redundancy {name}"),
        );
        check(
            &UnprotectedTarget::new(&fsm, &lowered),
            config,
            &format!("unprotected {name}"),
        );
    }
}
