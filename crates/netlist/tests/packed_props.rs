//! Differential property tests: the multi-word [`PackedSimulator`]
//! against the scalar [`Simulator`], lane by lane, over randomized
//! sequential netlists, per-lane register preloads, per-lane input
//! streams and per-lane fault masks (net flips/stucks, pin flips/stucks,
//! register flips), at every supported wave width `W` ∈ {1, 2, 4}. The
//! scalar engine is the oracle; any divergence on any lane in any cycle
//! fails the case. A second family pins cone-only evaluation against a
//! captured baseline to a full packed step at every width, the 512-lane
//! SIMD wave included.

use proptest::prelude::*;
use scfi_netlist::{
    extract_lane, lane_mask, CellId, Module, ModuleBuilder, NetId, PackedNetlist, PackedSimulator,
    Simulator, LANES,
};

const N_INPUTS: usize = 4;
const CYCLES: usize = 3;

/// A recipe for one gate: opcode and operand picks (resolved modulo the
/// net pool, so any random tuple is valid).
type GateSpec = (u8, usize, usize);

/// A recipe for one fault: site kind, cell pick, pin pick, effect pick.
type FaultSpec = (u8, usize, u8, u8);

/// Builds a random sequential module: `n_regs` flip-flops (alternating
/// reset values), a random combinational DAG over inputs + register
/// outputs, and random register feedback. Outputs expose the last net and
/// every register so divergence is observable at the ports too.
fn build(recipe: &[GateSpec], n_regs: usize, dff_srcs: &[usize]) -> Module {
    let mut b = ModuleBuilder::new("packed_diff");
    let inputs: Vec<NetId> = (0..N_INPUTS).map(|i| b.input(format!("i{i}"))).collect();
    let regs: Vec<NetId> = (0..n_regs).map(|i| b.dff_uninit(i % 2 == 0)).collect();
    let mut nets = inputs;
    nets.extend(&regs);
    for &(op, a, c) in recipe {
        let (na, nc) = (nets[a % nets.len()], nets[c % nets.len()]);
        let net = match op % 9 {
            0 => b.and2(na, nc),
            1 => b.or2(na, nc),
            2 => b.xor2(na, nc),
            3 => b.nand2(na, nc),
            4 => b.nor2(na, nc),
            5 => b.xnor2(na, nc),
            6 => b.not(na),
            7 => b.buf(na),
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

/// One decoded fault recipe.
#[derive(Clone, Copy, Debug)]
enum Decoded {
    NetFlip(NetId),
    NetStuck(NetId, bool),
    PinFlip(CellId, usize),
    PinStuck(CellId, usize, bool),
    RegFlip(CellId),
}

/// Resolves a fault recipe against `module`; `None` for a pin fault on a
/// cell without pins or a register flip in a module without registers.
fn decode(module: &Module, spec: FaultSpec) -> Option<Decoded> {
    let (site, cell_pick, pin_pick, effect) = spec;
    let cell = CellId((cell_pick % module.len()) as u32);
    Some(match site % 3 {
        0 => match effect % 3 {
            0 => Decoded::NetFlip(cell.net()),
            e => Decoded::NetStuck(cell.net(), e == 2),
        },
        1 => {
            let arity = module.cell(cell).kind.arity();
            if arity == 0 {
                return None; // inputs/constants have no pins to fault
            }
            let pin = pin_pick as usize % arity;
            match effect % 3 {
                0 => Decoded::PinFlip(cell, pin),
                e => Decoded::PinStuck(cell, pin, e == 2),
            }
        }
        _ => {
            let regs = module.registers();
            if regs.is_empty() {
                return None;
            }
            Decoded::RegFlip(regs[cell_pick % regs.len()])
        }
    })
}

/// Arms one decoded fault on a packed simulator in the `mask` lanes.
fn arm_packed<const W: usize>(packed: &mut PackedSimulator<'_, W>, fault: Decoded, mask: [u64; W]) {
    match fault {
        Decoded::NetFlip(n) => packed.set_net_flip(n, mask),
        Decoded::NetStuck(n, v) => packed.set_net_stuck(n, v, mask),
        Decoded::PinFlip(c, p) => packed.set_pin_flip(c, p, mask),
        Decoded::PinStuck(c, p, v) => packed.set_pin_stuck(c, p, v, mask),
        Decoded::RegFlip(r) => packed.flip_register(r, mask),
    }
}

/// Arms one decoded fault on both engines (packed in `lane` only).
fn arm_both<const W: usize>(
    module: &Module,
    packed: &mut PackedSimulator<'_, W>,
    scalar: &mut Simulator<'_>,
    lane: usize,
    spec: FaultSpec,
) {
    let Some(fault) = decode(module, spec) else {
        return;
    };
    arm_packed(packed, fault, lane_mask::<W>(lane));
    match fault {
        Decoded::NetFlip(n) => scalar.set_net_flip(n),
        Decoded::NetStuck(n, v) => scalar.set_net_stuck(n, v),
        Decoded::PinFlip(c, p) => scalar.set_pin_flip(c, p),
        Decoded::PinStuck(c, p, v) => scalar.set_pin_stuck(c, p, v),
        Decoded::RegFlip(r) => scalar.flip_register(r),
    }
}

/// Steps the packed simulator once and every scalar lane once, asserting
/// output and register equality on every armed lane.
fn step_and_compare<const W: usize>(
    packed: &mut PackedSimulator<'_, W>,
    scalars: &mut [Simulator<'_>],
    input_words: &[[u64; W]],
    cycle: &str,
) -> Result<(), TestCaseError> {
    let mut out_words = Vec::new();
    packed.step_into(input_words, &mut out_words);
    let mut lane_bits = Vec::new();
    for (lane, scalar) in scalars.iter_mut().enumerate() {
        let inputs: Vec<bool> = input_words
            .iter()
            .map(|w| (w[lane / LANES] >> (lane % LANES)) & 1 == 1)
            .collect();
        let expect_out = scalar.step(&inputs);
        extract_lane(&out_words, lane, &mut lane_bits);
        prop_assert_eq!(
            &lane_bits,
            &expect_out,
            "{}: lane {} outputs diverged",
            cycle,
            lane
        );
        extract_lane(packed.register_words(), lane, &mut lane_bits);
        prop_assert_eq!(
            &lane_bits,
            &scalar.register_values().to_vec(),
            "{}: lane {} registers diverged",
            cycle,
            lane
        );
    }
    Ok(())
}

/// The differential case body, generic over the wave width: random
/// sequential netlists under per-lane fault sets — the packed engine
/// equals `lane_faults.len()` scalar simulations in lock-step, through
/// fault arming, [`CYCLES`] faulted cycles, a `clear_faults` on both
/// engines and one fault-free recovery cycle. Lane `l` of the wave maps
/// to scalar oracle `l`, so word boundaries are crossed whenever more
/// than 64 lanes are drawn.
fn run_case<const W: usize>(
    recipe: &[GateSpec],
    n_regs: usize,
    dff_srcs: &[usize],
    init_word: u64,
    input_streams: &[Vec<u64>],
    lane_faults: &[Vec<FaultSpec>],
) -> Result<(), TestCaseError> {
    let module = build(recipe, n_regs, dff_srcs);
    let compiled = PackedNetlist::compile(&module);
    let mut packed = PackedSimulator::<W>::new(&compiled);

    // Per-lane register preloads: lane l gets the bits of `init_word`
    // rotated by l, giving distinct but deterministic states per lane.
    let lanes = lane_faults.len();
    let n_regs = module.registers().len();
    let mut reg_words = vec![[0u64; W]; n_regs];
    for lane in 0..lanes {
        let rot = init_word.rotate_left((lane % 64) as u32);
        let mask = lane_mask::<W>(lane);
        for (i, w) in reg_words.iter_mut().enumerate() {
            if (rot >> (i % 64)) & 1 == 1 {
                for k in 0..W {
                    w[k] |= mask[k];
                }
            }
        }
    }
    packed.set_register_words(&reg_words);

    let mut scalars: Vec<Simulator<'_>> = (0..lanes)
        .map(|lane| {
            let mut s = Simulator::new(&module);
            let rot = init_word.rotate_left((lane % 64) as u32);
            let regs: Vec<bool> = (0..n_regs).map(|i| (rot >> (i % 64)) & 1 == 1).collect();
            s.set_register_values(&regs);
            s
        })
        .collect();

    // Arm the per-lane fault sets on both engines (after the preload, so
    // register flips mutate the loaded state on both sides).
    for (lane, faults) in lane_faults.iter().enumerate() {
        for &spec in faults {
            arm_both(&module, &mut packed, &mut scalars[lane], lane, spec);
        }
    }

    // Input waves: lane l's input stream is a lane-rotated view of the
    // drawn words, so lanes in different words see different vectors.
    let wave_inputs: Vec<Vec<[u64; W]>> = input_streams
        .iter()
        .map(|words| {
            let mut wave = vec![[0u64; W]; words.len()];
            for lane in 0..lanes {
                let mask = lane_mask::<W>(lane);
                for (j, &w) in words.iter().enumerate() {
                    if (w.rotate_left((lane % 64) as u32)) & 1 == 1 {
                        for k in 0..W {
                            wave[j][k] |= mask[k];
                        }
                    }
                }
            }
            wave
        })
        .collect();

    for (cycle, words) in wave_inputs.iter().enumerate() {
        step_and_compare(&mut packed, &mut scalars, words, &format!("cycle {cycle}"))?;
    }

    // Clearing faults must fully restore fault-free behavior (the packed
    // engine resets its dirty masks sparsely — a stale mask would show up
    // here).
    packed.clear_faults();
    for s in &mut scalars {
        s.clear_faults();
    }
    step_and_compare(
        &mut packed,
        &mut scalars,
        &wave_inputs[0],
        "post-clear cycle",
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Single-word waves (64 lanes): the historical differential check.
    #[test]
    fn packed_matches_scalar_lane_by_lane_w1(
        recipe in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..32),
        n_regs in 1usize..4,
        dff_srcs in proptest::collection::vec(any::<usize>(), 4),
        init_word in any::<u64>(),
        input_streams in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), N_INPUTS), CYCLES),
        lane_faults in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u8>(), any::<u8>()), 0..3),
            1..=LANES),
    ) {
        run_case::<1>(&recipe, n_regs, &dff_srcs, init_word, &input_streams, &lane_faults)?;
    }

    /// Two-word waves (128 lanes): lane counts drawn past the first word
    /// boundary so faults, preloads and inputs land in both words.
    #[test]
    fn packed_matches_scalar_lane_by_lane_w2(
        recipe in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..24),
        n_regs in 1usize..4,
        dff_srcs in proptest::collection::vec(any::<usize>(), 4),
        init_word in any::<u64>(),
        input_streams in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), N_INPUTS), CYCLES),
        lane_faults in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u8>(), any::<u8>()), 0..3),
            (LANES + 1)..=(2 * LANES)),
    ) {
        run_case::<2>(&recipe, n_regs, &dff_srcs, init_word, &input_streams, &lane_faults)?;
    }

    /// Four-word waves (256 lanes): lane counts spanning all four words.
    #[test]
    fn packed_matches_scalar_lane_by_lane_w4(
        recipe in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..16),
        n_regs in 1usize..4,
        dff_srcs in proptest::collection::vec(any::<usize>(), 4),
        init_word in any::<u64>(),
        input_streams in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), N_INPUTS), CYCLES),
        lane_faults in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u8>(), any::<u8>()), 0..3),
            (3 * LANES + 1)..=(4 * LANES)),
    ) {
        run_case::<4>(&recipe, n_regs, &dff_srcs, init_word, &input_streams, &lane_faults)?;
    }
}

/// A fault placed in one lane: `(lane pick, recipe)`.
type LaneFault = (usize, FaultSpec);

/// The cone-only differential case: against one captured baseline, each
/// round arms a random fault set (net flips and stuck-ats, combinational
/// and flip-flop pin faults, register flips, in random lanes of all
/// `64 · W`), and [`PackedSimulator::eval_cone`] must reproduce a full
/// `step_into` under the same faults — every output and committed
/// register word in every lane, and the divergence mask against the
/// fault-free step. Rounds share the capture, so `restore_baseline` must
/// leave it exactly as captured.
fn cone_case<const W: usize>(
    recipe: &[GateSpec],
    n_regs: usize,
    dff_srcs: &[usize],
    init_word: u64,
    input_words: &[u64],
    rounds: &[Vec<LaneFault>],
) -> Result<(), TestCaseError> {
    let module = build(recipe, n_regs, dff_srcs);
    let compiled = PackedNetlist::compile(&module);
    let lanes = LANES * W;
    let spread = |word: u64, bit: usize| {
        let mut w = [0u64; W];
        for lane in 0..lanes {
            if (word.rotate_left((lane % 61) as u32) >> (bit % 64)) & 1 == 1 {
                let mask = lane_mask::<W>(lane);
                for k in 0..W {
                    w[k] |= mask[k];
                }
            }
        }
        w
    };
    let regs: Vec<[u64; W]> = (0..module.registers().len())
        .map(|i| spread(init_word, i))
        .collect();
    let inputs: Vec<[u64; W]> = input_words
        .iter()
        .enumerate()
        .map(|(i, &w)| spread(w, i))
        .collect();

    let mut clean = PackedSimulator::<W>::new(&compiled);
    clean.set_register_words(&regs);
    let mut base_out = Vec::new();
    clean.step_into(&inputs, &mut base_out);
    let base_regs = clean.register_words().to_vec();

    let mut cone = PackedSimulator::<W>::new(&compiled);
    cone.set_register_words(&regs);
    cone.capture_baseline(&inputs);
    for (round, faults) in rounds.iter().enumerate() {
        let mut full = PackedSimulator::<W>::new(&compiled);
        full.set_register_words(&regs);
        for &(lane, spec) in faults {
            if let Some(fault) = decode(&module, spec) {
                let mask = lane_mask::<W>(lane % lanes);
                arm_packed(&mut full, fault, mask);
                arm_packed(&mut cone, fault, mask);
            }
        }
        let mut out = Vec::new();
        full.step_into(&inputs, &mut out);
        cone.eval_cone();
        prop_assert_eq!(cone.cone_outputs(), &out[..], "round {}: outputs", round);
        prop_assert_eq!(
            cone.cone_registers(),
            full.register_words(),
            "round {}: committed registers",
            round
        );
        let mut diff = [0u64; W];
        let pairs = out.iter().zip(&base_out);
        for (now, base) in pairs.chain(full.register_words().iter().zip(&base_regs)) {
            for k in 0..W {
                diff[k] |= now[k] ^ base[k];
            }
        }
        prop_assert_eq!(cone.cone_divergence(), diff, "round {}: divergence", round);
        cone.restore_baseline();
        cone.clear_faults();
    }
    // A restored baseline with nothing armed evaluates no op at all.
    prop_assert_eq!(cone.eval_cone(), 0);
    prop_assert_eq!(cone.cone_outputs(), &base_out[..]);
    prop_assert_eq!(cone.cone_registers(), &base_regs[..]);
    prop_assert_eq!(cone.cone_divergence(), [0u64; W]);
    Ok(())
}

/// Strategy for [`cone_case`]'s fault rounds.
fn cone_rounds() -> impl Strategy<Value = Vec<Vec<LaneFault>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                any::<usize>(),
                (any::<u8>(), any::<usize>(), any::<u8>(), any::<u8>()),
            ),
            0..6,
        ),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cone-only evaluation ≡ full `step_into`, 64-lane waves.
    #[test]
    fn cone_eval_matches_full_step_w1(
        recipe in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..40),
        n_regs in 1usize..5,
        dff_srcs in proptest::collection::vec(any::<usize>(), 5),
        init_word in any::<u64>(),
        input_words in proptest::collection::vec(any::<u64>(), N_INPUTS),
        rounds in cone_rounds(),
    ) {
        cone_case::<1>(&recipe, n_regs, &dff_srcs, init_word, &input_words, &rounds)?;
    }

    /// Cone-only evaluation ≡ full `step_into`, 128-lane waves.
    #[test]
    fn cone_eval_matches_full_step_w2(
        recipe in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..40),
        n_regs in 1usize..5,
        dff_srcs in proptest::collection::vec(any::<usize>(), 5),
        init_word in any::<u64>(),
        input_words in proptest::collection::vec(any::<u64>(), N_INPUTS),
        rounds in cone_rounds(),
    ) {
        cone_case::<2>(&recipe, n_regs, &dff_srcs, init_word, &input_words, &rounds)?;
    }

    /// Cone-only evaluation ≡ full `step_into`, 256-lane waves.
    #[test]
    fn cone_eval_matches_full_step_w4(
        recipe in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..40),
        n_regs in 1usize..5,
        dff_srcs in proptest::collection::vec(any::<usize>(), 5),
        init_word in any::<u64>(),
        input_words in proptest::collection::vec(any::<u64>(), N_INPUTS),
        rounds in cone_rounds(),
    ) {
        cone_case::<4>(&recipe, n_regs, &dff_srcs, init_word, &input_words, &rounds)?;
    }

    /// Cone-only evaluation ≡ full `step_into`, the 512-lane SIMD wave.
    #[test]
    fn cone_eval_matches_full_step_w8(
        recipe in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..40),
        n_regs in 1usize..5,
        dff_srcs in proptest::collection::vec(any::<usize>(), 5),
        init_word in any::<u64>(),
        input_words in proptest::collection::vec(any::<u64>(), N_INPUTS),
        rounds in cone_rounds(),
    ) {
        cone_case::<8>(&recipe, n_regs, &dff_srcs, init_word, &input_words, &rounds)?;
    }
}
