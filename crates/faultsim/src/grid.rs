//! Fault-major, cone-only execution of exhaustive single-cycle grids —
//! parallel-pattern single-fault propagation (PPSFP, Waicukauski et al.,
//! "Fault simulation for structured VLSI", 1985) on the packed engine.
//!
//! A §6.4 campaign is a [`WorkList::grid`](crate::WorkList::grid): every
//! single-cycle scenario × one fault list. Scenario-major waves (one
//! scenario × 64·W faults) must settle the whole netlist for every wave,
//! because each lane carries a different fault. Fault-major waves turn
//! that around:
//!
//! * scenarios are cut into *blocks* of up to 64·W; a block's fault-free
//!   cycle is settled **once** into a packed baseline
//!   ([`PackedSimulator::capture_baseline`]);
//! * each wave then arms **one fault in every lane** of the block — or,
//!   for a block of `B < 64·W` scenarios, `⌊64·W / B⌋` faults in disjoint
//!   lane groups — evaluates only that fault's fanout cone
//!   ([`PackedSimulator::eval_cone`]), classifies and restores the cone;
//! * a lane whose next-state registers and outputs equal the baseline's
//!   takes the baseline verdict; divergent lanes are classified through
//!   [`WaveOracle::classify_lanes`], whose codebook scan runs only for
//!   divergent, off-target, unalarmed lanes.
//!
//! Cones are discovered per wave from the netlist's CSR fanout table and
//! never cached per fault site. Outcomes still land in scenario-major
//! slots (`scenario · F + fault`), so aggregation, hijack examples and
//! per-cell attribution are unchanged.
//!
//! # Order, sharding and interruption
//!
//! The run's wave order is block by block, and within a block by fault.
//! Workers shard every block by fault range (aligned to the block's
//! waves), and each asks [`RunControl::admit_at`] with its wave's place
//! in that order, so an injection budget completes the same waves at every
//! thread count: all scenarios of the earlier blocks, and the first faults
//! of the block the budget ran out in — a fault prefix, not a slot prefix.
//! A panicking wave fails exactly its strided slots (each scenario of the
//! block × the wave's faults).

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use scfi_netlist::{extract_lane, PackedNetlist, PackedSimulator, LANES};
use scfi_telemetry::Histogram;

use crate::campaign::{Fault, Outcome};
use crate::control::{RunControl, StopReason};
use crate::oracle::WaveOracle;
use crate::target::{FaultTarget, Scenario};
use crate::wave::{arm_lanes, panic_message, WavePanic, WaveStats};

/// Materializes every scenario of an exhaustive grid if the fault-major
/// path applies: each is one cycle long, arms its fault (and flips its
/// register) at cycle 0, matches the module's register and input widths,
/// and carries its landing state when the target has an oracle. `None`
/// sends the run down the scenario-major path, which also reports any
/// scenario that panics here.
pub(crate) fn single_cycle_scenarios<T: FaultTarget>(
    target: &T,
    scenarios: usize,
    compiled: &PackedNetlist,
    oracle: bool,
) -> Option<Vec<Scenario>> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut all = Vec::with_capacity(scenarios);
        for s in 0..scenarios {
            let sc = target.scenario(s);
            let window = sc.schedule.window(0);
            let fits = sc.cycles() == 1
                && window.armed_at(0)
                && window.flip_cycle() == 0
                && sc.regs.len() == compiled.register_count()
                && sc.inputs[0].len() == compiled.input_count()
                && (!oracle || sc.landings.len() == 1);
            if !fits {
                return None;
            }
            all.push(sc);
        }
        Some(all)
    }))
    .ok()
    .flatten()
}

/// A block of consecutive scenarios sharing one baseline.
#[derive(Clone, Copy)]
struct Block {
    /// First scenario.
    first: usize,
    /// Scenarios (lanes per fault).
    len: usize,
    /// Faults per wave, each in its own group of `len` lanes.
    group: usize,
}

impl Block {
    fn waves(&self, faults: usize) -> usize {
        faults.div_ceil(self.group)
    }
}

/// What one grid worker produced: outcomes for its fault ranges (block
/// by block, each a `len × faults` row-major tile), counters, the first
/// refused admission and the slots of its caught wave panics.
struct GridWorker {
    tiles: Vec<Option<Outcome>>,
    stats: WaveStats,
    stopped: Option<StopReason>,
    panics: Vec<WavePanic>,
}

/// Runs an exhaustive grid of single-cycle `scenarios` × `faults`
/// fault-major on `threads` workers, writing scenario-major slots into
/// `outcomes`. Returns the merged counters, the first stop reason and
/// every caught wave panic with its slots.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_grid<T: FaultTarget, const W: usize>(
    target: &T,
    compiled: &PackedNetlist,
    scenarios: &[Scenario],
    faults: &[Fault],
    threads: usize,
    control: &RunControl,
    cone_sizes: &Histogram,
    outcomes: &mut [Option<Outcome>],
) -> (WaveStats, Option<StopReason>, Vec<WavePanic>) {
    let lanes = LANES * W;
    let f = faults.len();
    let blocks: Vec<Block> = (0..scenarios.len())
        .step_by(lanes)
        .map(|first| {
            let len = lanes.min(scenarios.len() - first);
            Block {
                first,
                len,
                group: lanes / len,
            }
        })
        .collect();
    let most_waves = blocks.iter().map(|b| b.waves(f)).max().unwrap_or(0);
    let threads = threads.max(1).min(most_waves.max(1));
    // Worker `t` runs waves `t·per..(t + 1)·per` of every block.
    let wave_range = |b: &Block, t: usize| {
        let per = b.waves(f).div_ceil(threads);
        (t * per).min(b.waves(f))..((t + 1) * per).min(b.waves(f))
    };
    let base = control.admitted();
    let worker = |t: usize| {
        let ranges: Vec<Range<usize>> = blocks.iter().map(|b| wave_range(b, t)).collect();
        run_grid_worker::<T, W>(
            target, compiled, scenarios, faults, &blocks, &ranges, base, control, cone_sizes,
        )
    };
    let workers: Vec<GridWorker> = if threads == 1 {
        vec![worker(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let worker = &worker;
                    scope.spawn(move || worker(t))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("grid workers catch their own panics"))
                .collect()
        })
    };
    let mut stats = WaveStats::default();
    let mut stopped = None;
    let mut panics = Vec::new();
    for (t, w) in workers.into_iter().enumerate() {
        // Scatter the worker's tiles into scenario-major slots.
        let mut at = 0;
        for b in &blocks {
            let waves = wave_range(b, t);
            let lo = (waves.start * b.group).min(f);
            let cols = (waves.end * b.group).min(f) - lo;
            for s in b.first..b.first + b.len {
                outcomes[s * f + lo..s * f + lo + cols].copy_from_slice(&w.tiles[at..at + cols]);
                at += cols;
            }
        }
        stats.merge(&w.stats);
        if stopped.is_none() {
            stopped = w.stopped;
        }
        panics.extend(w.panics);
    }
    (stats, stopped, panics)
}

/// One block's baseline, set up on the first admitted wave that needs it.
struct Tile<const W: usize> {
    /// Baseline verdict masks per lane word (detected, hijack).
    detected: [u64; W],
    hijack: [u64; W],
    /// Per-lane expected codewords for the word oracle.
    expected: Vec<[u64; W]>,
}

/// Runs waves `ranges[b]` of every block `b`, in order.
#[allow(clippy::too_many_arguments)]
fn run_grid_worker<T: FaultTarget, const W: usize>(
    target: &T,
    compiled: &PackedNetlist,
    scenarios: &[Scenario],
    faults: &[Fault],
    blocks: &[Block],
    ranges: &[Range<usize>],
    base: u64,
    control: &RunControl,
    cone_sizes: &Histogram,
) -> GridWorker {
    let f = faults.len();
    let oracle = target.wave_oracle();
    let mut sim = PackedSimulator::<W>::new(compiled);
    let mut reg_bits: Vec<bool> = Vec::with_capacity(compiled.register_count());
    let mut out_bits: Vec<bool> = Vec::with_capacity(compiled.output_count());
    let cols = |b: &Block, r: &Range<usize>| (r.end * b.group).min(f) - (r.start * b.group).min(f);
    let size = blocks
        .iter()
        .zip(ranges)
        .map(|(b, r)| b.len * cols(b, r))
        .sum();
    let mut tiles: Vec<Option<Outcome>> = vec![None; size];
    let mut stats = WaveStats::default();
    let mut stopped = None;
    let mut panics = Vec::new();
    let mut at = 0;
    'blocks: for (b, range) in blocks.iter().zip(ranges) {
        let width = cols(b, range);
        let lo = range.start * b.group;
        let mut tile: Option<Tile<W>> = None;
        for wave in range.clone() {
            let first_fault = wave * b.group;
            let count = b.group.min(f - first_fault);
            let injections = count * b.len;
            let offset = base + (b.first * f + first_fault * b.len) as u64;
            if let Err(reason) = control.admit_at(offset, injections) {
                stopped = Some(reason);
                break 'blocks;
            }
            stats.waves += 1;
            stats.injections += injections as u64;
            stats.stepped += 1;
            stats.rebuilds += 1;
            if oracle.is_some() {
                stats.oracle_fastpath_cycles += 1;
            } else {
                stats.oracle_fallback_cycles += 1;
            }
            let run = catch_unwind(AssertUnwindSafe(|| {
                let tile = match &mut tile {
                    Some(tile) => tile,
                    None => tile.insert(setup_tile(
                        target,
                        &mut sim,
                        &scenarios[b.first..b.first + b.len],
                        b,
                        oracle.as_ref(),
                        &mut reg_bits,
                        &mut out_bits,
                    )),
                };
                for k in 0..count {
                    arm_lanes(&mut sim, faults[first_fault + k], group_mask(b, k));
                }
                let evaluated = sim.eval_cone();
                if cone_sizes.enabled() {
                    cone_sizes.observe(evaluated as u64);
                }
                let used = lanes_below::<W>(injections);
                let diverged = sim.cone_divergence();
                let mut det = [0u64; W];
                let mut hij = [0u64; W];
                for w in 0..W {
                    let div = diverged[w] & used[w];
                    det[w] = tile.detected[w] & !div;
                    hij[w] = tile.hijack[w] & !div;
                    if div == 0 {
                        continue;
                    }
                    match &oracle {
                        Some(oracle) => {
                            let (d, h) = oracle.classify_lanes(
                                w,
                                div,
                                sim.cone_registers(),
                                sim.cone_outputs(),
                                &tile.expected,
                            );
                            det[w] |= d;
                            hij[w] |= h;
                        }
                        None => {
                            let mut bits = div;
                            while bits != 0 {
                                let lane = w * LANES + bits.trailing_zeros() as usize;
                                bits &= bits - 1;
                                extract_lane(sim.cone_registers(), lane, &mut reg_bits);
                                extract_lane(sim.cone_outputs(), lane, &mut out_bits);
                                let scenario = b.first + lane % b.len;
                                let bit = 1u64 << (lane % LANES);
                                match target.classify(scenario, 0, &reg_bits, &out_bits) {
                                    Outcome::Masked => {}
                                    Outcome::Detected => det[w] |= bit,
                                    Outcome::Hijack => hij[w] |= bit,
                                }
                            }
                        }
                    }
                }
                sim.restore_baseline();
                sim.clear_faults();
                (det, hij)
            }));
            match run {
                Ok((det, hij)) => {
                    for k in 0..count {
                        let column = at + first_fault + k - lo;
                        for i in 0..b.len {
                            let lane = k * b.len + i;
                            let (w, bit) = (lane / LANES, lane % LANES);
                            let verdict = ((det[w] >> bit) & 1) | ((hij[w] >> bit) & 1) << 1;
                            tiles[column + i * width] = Some(match verdict {
                                0 => Outcome::Masked,
                                2 => Outcome::Hijack,
                                _ => Outcome::Detected,
                            });
                        }
                    }
                }
                Err(payload) => {
                    // The wave's slots stay `None`; rebuild the baseline
                    // on the next wave, whatever state the panic left.
                    let slots = (b.first..b.first + b.len)
                        .map(|s| s * f + first_fault..s * f + first_fault + count)
                        .collect();
                    panics.push((slots, panic_message(payload)));
                    sim.clear_faults();
                    tile = None;
                }
            }
        }
        at += b.len * width;
    }
    GridWorker {
        tiles,
        stats,
        stopped,
        panics,
    }
}

/// The lanes of fault group `k` of a block: `k·len..(k + 1)·len`.
fn group_mask<const W: usize>(b: &Block, k: usize) -> [u64; W] {
    let all = lanes_below::<W>((k + 1) * b.len);
    let below = lanes_below::<W>(k * b.len);
    std::array::from_fn(|w| all[w] & !below[w])
}

/// The lane mask of lanes `0..n`.
fn lanes_below<const W: usize>(n: usize) -> [u64; W] {
    std::array::from_fn(|w| {
        let bits = n.saturating_sub(w * LANES).min(LANES);
        if bits == LANES {
            !0
        } else {
            (1u64 << bits) - 1
        }
    })
}

/// Loads a block's scenarios into every fault group of the wave, captures
/// the fault-free baseline and classifies it.
fn setup_tile<T: FaultTarget, const W: usize>(
    target: &T,
    sim: &mut PackedSimulator<'_, W>,
    scenarios: &[Scenario],
    b: &Block,
    oracle: Option<&WaveOracle>,
    reg_bits: &mut Vec<bool>,
    out_bits: &mut Vec<bool>,
) -> Tile<W> {
    let pack = |bit: &dyn Fn(&Scenario) -> bool| {
        let mut word = [0u64; W];
        for lane in 0..b.group * b.len {
            if bit(&scenarios[lane % b.len]) {
                word[lane / LANES] |= 1 << (lane % LANES);
            }
        }
        word
    };
    let regs: Vec<[u64; W]> = (0..sim.netlist().register_count())
        .map(|r| pack(&|sc| sc.regs[r]))
        .collect();
    let inputs: Vec<[u64; W]> = (0..sim.netlist().input_count())
        .map(|i| pack(&|sc| sc.inputs[0][i]))
        .collect();
    sim.clear_faults();
    sim.set_register_words(&regs);
    sim.capture_baseline(&inputs);
    let all = lanes_below::<W>(b.group * b.len);
    let mut tile = Tile {
        detected: [0; W],
        hijack: [0; W],
        expected: Vec::new(),
    };
    match oracle {
        Some(oracle) => {
            let states: Vec<usize> = (0..b.group * b.len)
                .map(|lane| scenarios[lane % b.len].landings[0])
                .collect();
            tile.expected = oracle.expected_words(&states);
            for (w, &live) in all.iter().enumerate() {
                let (d, h) = oracle.classify_lanes(
                    w,
                    live,
                    sim.cone_registers(),
                    sim.cone_outputs(),
                    &tile.expected,
                );
                tile.detected[w] = d;
                tile.hijack[w] = h;
            }
        }
        None => {
            for i in 0..b.len {
                extract_lane(sim.cone_registers(), i, reg_bits);
                extract_lane(sim.cone_outputs(), i, out_bits);
                let verdict = target.classify(b.first + i, 0, reg_bits, out_bits);
                for k in 0..b.group {
                    let lane = k * b.len + i;
                    let bit = 1u64 << (lane % LANES);
                    match verdict {
                        Outcome::Masked => {}
                        Outcome::Detected => tile.detected[lane / LANES] |= bit,
                        Outcome::Hijack => tile.hijack[lane / LANES] |= bit,
                    }
                }
            }
        }
    }
    tile
}
