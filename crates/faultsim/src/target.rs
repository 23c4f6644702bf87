//! Fault-campaign targets: the three §6.1 configurations behind one trait,
//! all built from their [`ProtectionScheme`] by one generic
//! [`SchemeTarget`].
//!
//! Since the multi-cycle generalization, a *scenario* is no longer one CFG
//! edge but an N-cycle [`Scenario`]: a register preload, a per-cycle input
//! schedule, and a [`FaultTiming`] window saying when during the schedule
//! the injected faults are armed. The paper's §6.4 single-transition
//! experiment is the trivial `N = 1` case ([`Scenario::single`]); protocol
//! campaigns attack [`ProtocolScenario`] walks — multi-step transition
//! sequences such as a secure-boot handshake — with a fault glitching one
//! step and the classification judging the *whole trajectory*.

use scfi_core::{HardenedFsm, RedundantFsm};
use scfi_fsm::{Cfg, Fsm, LoweredFsm};
use scfi_netlist::Module;

use crate::campaign::Outcome;
use crate::oracle::WaveOracle;
use crate::scheme::{CodedScheme, ProtectionScheme};

/// When during a scenario's cycle schedule the injected faults are armed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultTiming {
    /// Armed for the whole trajectory: stuck-ats model a permanently broken
    /// wire, flips a persistently glitched net. Register flips are applied
    /// once, before the first cycle (FT1).
    Permanent,
    /// Armed only during cycle `c` (0-based) and cleared afterwards — the
    /// paper's transient attacker glitching one step of a protocol.
    /// Register flips are applied just before cycle `c`.
    Transient(usize),
}

impl FaultTiming {
    /// Whether net/pin fault masks are active during `cycle`.
    pub fn armed_at(&self, cycle: usize) -> bool {
        match *self {
            FaultTiming::Permanent => true,
            FaultTiming::Transient(c) => cycle == c,
        }
    }

    /// The cycle just before which register-bit flips are applied (the
    /// start of the fault window).
    pub fn flip_cycle(&self) -> usize {
        match *self {
            FaultTiming::Permanent => 0,
            FaultTiming::Transient(c) => c,
        }
    }
}

/// Per-fault arming windows for a scenario's fault group — the §3 temporal
/// attacker, who may time each of their N−1 glitches independently.
///
/// The legacy one-window-per-scenario model lowers to
/// [`FaultSchedule::Uniform`] with unchanged semantics; a
/// [`FaultSchedule::PerFault`] schedule gives fault `j` of the injected
/// group its own [`FaultTiming`], so two glitches can strike different
/// steps of the same protocol walk. Work items can additionally override
/// windows per fault (see
/// [`WorkList::push_scheduled`](crate::WorkList::push_scheduled)), which
/// is how sampled multi-fault campaigns draw independent timings per run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultSchedule {
    /// Every fault in the group shares one window.
    Uniform(FaultTiming),
    /// Fault `j` of the group is armed during window `j`; groups larger
    /// than the schedule reuse its last window.
    PerFault(Vec<FaultTiming>),
}

impl FaultSchedule {
    /// The arming window of fault `j` of the injected group.
    ///
    /// # Panics
    ///
    /// Panics on an empty [`FaultSchedule::PerFault`] schedule.
    pub fn window(&self, fault: usize) -> FaultTiming {
        match self {
            FaultSchedule::Uniform(t) => *t,
            FaultSchedule::PerFault(ws) => {
                assert!(!ws.is_empty(), "per-fault schedule has no windows");
                ws[fault.min(ws.len() - 1)]
            }
        }
    }

    /// All distinct windows of the schedule (one entry for `Uniform`).
    pub fn windows(&self) -> &[FaultTiming] {
        match self {
            FaultSchedule::Uniform(t) => std::slice::from_ref(t),
            FaultSchedule::PerFault(ws) => ws,
        }
    }
}

impl From<FaultTiming> for FaultSchedule {
    fn from(t: FaultTiming) -> Self {
        FaultSchedule::Uniform(t)
    }
}

/// One N-cycle attack scenario: where the registers start, what drives the
/// inputs on every cycle, and when the faults under test are live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Register preload, in `Module::registers()` order.
    pub regs: Vec<bool>,
    /// Input-port vector per cycle; `inputs.len()` is the trajectory length
    /// N ≥ 1.
    pub inputs: Vec<Vec<bool>>,
    /// The per-fault arming windows within the schedule.
    pub schedule: FaultSchedule,
    /// The fault-free landing state (as a [`WaveOracle`] codebook index)
    /// after each cycle; empty for targets without a word oracle.
    pub landings: Vec<usize>,
}

impl Scenario {
    /// The single-transition scenario of the paper's §6.4 experiment: one
    /// cycle, faults armed throughout, no landing states recorded.
    pub fn single(regs: Vec<bool>, inputs: Vec<bool>) -> Self {
        Scenario {
            regs,
            inputs: vec![inputs],
            schedule: FaultSchedule::Uniform(FaultTiming::Permanent),
            landings: Vec::new(),
        }
    }

    /// Trajectory length in cycles.
    pub fn cycles(&self) -> usize {
        self.inputs.len()
    }

    /// The effective arming window of fault `j` of a work item: the item's
    /// per-fault override when present, the scenario schedule otherwise.
    pub fn fault_window(&self, overrides: &[Option<FaultTiming>], j: usize) -> FaultTiming {
        overrides
            .get(j)
            .copied()
            .flatten()
            .unwrap_or_else(|| self.schedule.window(j))
    }
}

/// A multi-cycle protocol scenario over a CFG: a connected walk of edge
/// indices (each edge's target is the next edge's source) plus the
/// per-fault arming schedule. [`protocol_scenarios`] generates the
/// standard campaign set; hand-written schedules can be passed to the
/// targets' `with_scenarios` constructors directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolScenario {
    /// Indices into [`Cfg::edges`], connected head to tail.
    pub edges: Vec<usize>,
    /// When during the walk each fault of the injected group is armed.
    pub schedule: FaultSchedule,
    /// Optional per-cycle raw-input override (adversarial input fuzzing):
    /// when present, cycle `c` drives `inputs[c]` instead of edge `c`'s
    /// representative input vector. The override must still drive the
    /// walk's edge sequence — a fuzzed schedule changes *which* admissible
    /// word drives each step, never the step itself.
    pub inputs: Option<Vec<Vec<bool>>>,
}

impl ProtocolScenario {
    /// A walk whose fault group follows `schedule`.
    pub fn new(edges: Vec<usize>, schedule: FaultSchedule) -> Self {
        ProtocolScenario {
            edges,
            schedule,
            inputs: None,
        }
    }

    /// A walk with one shared window for the whole fault group — the
    /// legacy one-`FaultTiming`-per-scenario form.
    pub fn uniform(edges: Vec<usize>, timing: FaultTiming) -> Self {
        Self::new(edges, FaultSchedule::Uniform(timing))
    }

    /// Overrides the per-cycle input vectors (adversarial input fuzzing);
    /// `inputs.len()` must equal the walk length.
    pub fn with_inputs(mut self, inputs: Vec<Vec<bool>>) -> Self {
        self.inputs = Some(inputs);
        self
    }
}

/// The standard multi-cycle campaign scenario set: seeded random CFG walks
/// of `depth` edges (one walk per starting edge, via
/// [`Cfg::random_walks`]), each expanded into `depth` scenarios — one per
/// injection cycle, with [`FaultTiming::Transient`] arming the faults
/// during exactly that step of the protocol.
///
/// # Panics
///
/// Panics if `depth` is zero.
pub fn protocol_scenarios(cfg: &Cfg, depth: usize, seed: u64) -> Vec<ProtocolScenario> {
    expand_walks(cfg.random_walks(depth, seed))
}

/// Expands walks into per-injection-cycle [`ProtocolScenario`]s.
fn expand_walks(walks: Vec<Vec<usize>>) -> Vec<ProtocolScenario> {
    let mut scenarios = Vec::new();
    for walk in walks {
        for cycle in 0..walk.len() {
            scenarios.push(ProtocolScenario::uniform(
                walk.clone(),
                FaultTiming::Transient(cycle),
            ));
        }
    }
    scenarios
}

/// The seeded xorshift64* stream shared by the scenario generators (the
/// same generator as [`Cfg::random_walks`] and the multi-fault draw).
fn xorshift64star(seed: u64) -> impl FnMut() -> u64 {
    let mut rng = seed.max(1);
    move || {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        rng.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// Adversarial protocol walks biased toward wrong-but-close codewords:
/// at each step, with probability 1/2 the successor is the outgoing edge
/// whose `word_of` codeword is Hamming-closest to the *previous* step's
/// codeword (ties broken by edge index), otherwise it is drawn uniformly
/// — so consecutive condition words tend to differ in as few bits as the
/// CFG allows, the schedules a glitch is most likely to confuse. One walk
/// per starting edge, deterministic in `seed`.
///
/// # Panics
///
/// Panics if `depth` is zero.
pub fn adversarial_walks(
    cfg: &Cfg,
    depth: usize,
    seed: u64,
    word_of: impl Fn(usize) -> Vec<bool>,
) -> Vec<Vec<usize>> {
    assert!(depth > 0, "protocol walks need at least one edge");
    let mut next = xorshift64star(seed);
    let hamming = |a: &[bool], b: &[bool]| a.iter().zip(b).filter(|(x, y)| x != y).count();
    let mut walks = Vec::with_capacity(cfg.edges().len());
    for start in 0..cfg.edges().len() {
        let mut walk = Vec::with_capacity(depth);
        walk.push(start);
        let mut at = cfg.edges()[start].to;
        while walk.len() < depth {
            let choices = cfg.out_edge_indices(at);
            let prev_word = word_of(*walk.last().expect("walk is nonempty"));
            let e = if next() & 1 == 0 {
                *choices
                    .iter()
                    .min_by_key(|&&e| (hamming(&word_of(e), &prev_word), e))
                    .expect("every state has an outgoing edge")
            } else {
                choices[(next() % choices.len() as u64) as usize]
            };
            walk.push(e);
            at = cfg.edges()[e].to;
        }
        walks.push(walk);
    }
    walks
}

/// The adversarially fuzzed campaign scenario set: [`adversarial_walks`]
/// expanded one scenario per injection cycle, exactly like
/// [`protocol_scenarios`] but with the walk shapes biased toward
/// close-codeword transitions.
///
/// # Panics
///
/// Panics if `depth` is zero.
pub fn fuzzed_protocol_scenarios(
    cfg: &Cfg,
    depth: usize,
    seed: u64,
    word_of: impl Fn(usize) -> Vec<bool>,
) -> Vec<ProtocolScenario> {
    expand_walks(adversarial_walks(cfg, depth, seed, word_of))
}

/// A circuit (plus its oracle) a fault campaign can attack.
///
/// A target defines the scenario space and classifies the simulated
/// trajectory cycle by cycle against the fault-free expectation. The
/// executors fold the per-cycle outcomes with [`Outcome::fold`], so a
/// hijacked state that collapses to ERROR later in the walk counts as
/// [`Outcome::Detected`] — the paper's "invalid state reaches ERROR on the
/// next edge" argument applied along the whole protocol.
pub trait FaultTarget: Sync {
    /// The netlist under attack.
    fn module(&self) -> &Module;

    /// Number of scenarios.
    fn scenario_count(&self) -> usize;

    /// The N-cycle scenario at `index`.
    fn scenario(&self, index: usize) -> Scenario;

    /// Classifies the post-step registers and outputs after cycle `cycle`
    /// of scenario `index` (0-based, one call per cycle of the
    /// trajectory).
    fn classify(&self, index: usize, cycle: usize, regs: &[bool], outputs: &[bool]) -> Outcome;

    /// A precompiled word-level classification oracle, if the target can
    /// express [`FaultTarget::classify`] as packed-word logic (see
    /// [`WaveOracle`]). The wave executor then decodes whole 64-lane
    /// words at a time instead of extracting each lane; `None` keeps the
    /// per-lane extraction + `classify` fallback, which is correct for
    /// every target, just slower.
    ///
    /// Contract: every scenario carries one [`Scenario::landings`] entry
    /// per cycle, and at every cycle the oracle's verdicts against that
    /// landing state equal `classify`'s on the same post-step registers
    /// and outputs. The differential suites pin this against the scalar
    /// engine on every Table-1 FSM.
    fn wave_oracle(&self) -> Option<WaveOracle> {
        None
    }
}

/// The campaign target of one [`ProtectionScheme`]: the scheme's module,
/// register preloads, detection oracle and scalar classification over a
/// scenario space of CFG edges.
///
/// The single-transition space has one scenario per *drivable* edge; a
/// protocol space holds validated multi-cycle walks. The coded schemes
/// ([`ScfiTarget`], [`RedundancyTarget`]) drive every edge with its
/// condition codeword; [`UnprotectedTarget`] enumerates raw input
/// valuations and keeps only the edges some valuation takes.
#[derive(Debug)]
pub struct SchemeTarget<'a, S> {
    scheme: &'a S,
    cfg: Cfg,
    /// The input word driving each CFG edge; `None` for edges no input
    /// valuation can drive.
    edge_inputs: Vec<Option<Vec<bool>>>,
    /// Drivable edges in ascending order — the single-transition scenario
    /// space.
    drivable: Vec<usize>,
    /// `None` = the single-transition §6.4 space.
    protocol: Option<Vec<ProtocolScenario>>,
}

/// Campaign target for an SCFI-hardened FSM.
///
/// Detection = terminal ERROR, an invalid (non-codeword) register state
/// (which collapses to ERROR on the next edge), or an asserted alert — at
/// *any* cycle of the trajectory.
pub type ScfiTarget<'a> = SchemeTarget<'a, HardenedFsm>;

/// Campaign target for the redundancy baseline.
///
/// Detection = the register-mismatch alert. An undetected landing in any
/// state other than the cycle's expected state — including out-of-range
/// binary codes — is a hijack.
pub type RedundancyTarget<'a> = SchemeTarget<'a, RedundantFsm>;

/// Campaign target for a plain unprotected FSM netlist: no detection
/// mechanism exists, so every wrong landing is a hijack.
pub type UnprotectedTarget<'a> = SchemeTarget<'a, LoweredFsm>;

impl<'a, S: CodedScheme> SchemeTarget<'a, S> {
    /// Wraps a coded scheme with the single-transition scenario space (one
    /// scenario per CFG edge, driven by its condition codeword).
    pub fn new(scheme: &'a S) -> Self {
        let words = scheme
            .condition_words()
            .expect("coded schemes drive condition codewords");
        let cfg = scheme.cfg().clone();
        let edge_inputs = cfg
            .edges()
            .iter()
            .map(|e| Some(words[e.local_index(scheme.fsm())].clone()))
            .collect();
        SchemeTarget {
            scheme,
            drivable: (0..cfg.edges().len()).collect(),
            cfg,
            edge_inputs,
            protocol: None,
        }
    }

    /// Multi-cycle protocol target: seeded random CFG walks of `depth`
    /// transitions, one transient injection scenario per walk step (see
    /// [`protocol_scenarios`]).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_protocol(scheme: &'a S, depth: usize, seed: u64) -> Self {
        let target = Self::new(scheme);
        let scenarios = protocol_scenarios(&target.cfg, depth, seed);
        target.with_protocol_space(scenarios)
    }

    /// Adversarially fuzzed multi-cycle target: walks biased toward
    /// wrong-but-close condition codewords (see [`adversarial_walks`]),
    /// so consecutive steps drive condition words a small glitch is most
    /// likely to confuse. Every driven word stays a valid codeword — the
    /// §5 interface assumption (and with it the certification
    /// cross-oracle) is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_fuzzed_protocol(scheme: &'a S, depth: usize, seed: u64) -> Self {
        let target = Self::new(scheme);
        let scenarios =
            fuzzed_protocol_scenarios(&target.cfg, depth, seed, |ei| target.edge_input(ei));
        target.with_protocol_space(scenarios)
    }

    /// Multi-cycle target over hand-picked protocol scenarios.
    ///
    /// # Panics
    ///
    /// Panics if a walk is empty, disconnected, or times its fault window
    /// past the walk's end.
    pub fn with_scenarios(scheme: &'a S, scenarios: Vec<ProtocolScenario>) -> Self {
        Self::new(scheme).with_protocol_space(scenarios)
    }
}

impl<'a> SchemeTarget<'a, LoweredFsm> {
    /// Most control signals whose valuations [`UnprotectedTarget::new`]
    /// enumerates (2^20 input words).
    pub const MAX_SIGNALS: usize = 20;

    /// Input valuations sampled per edge by
    /// [`with_fuzzed_protocol`](Self::with_fuzzed_protocol).
    pub const INPUT_VARIANTS: usize = 8;

    /// Builds the scenario list: one representative raw-input vector per
    /// reachable CFG edge (found by enumerating input valuations).
    ///
    /// # Panics
    ///
    /// Panics if the FSM has more than [`Self::MAX_SIGNALS`] control
    /// signals (enumeration guard).
    pub fn new(fsm: &Fsm, lowered: &'a LoweredFsm) -> Self {
        let cfg = fsm.cfg();
        let mut edge_inputs = vec![None; cfg.edges().len()];
        for_each_valuation(fsm, &cfg, |ei, inputs| {
            if edge_inputs[ei].is_none() {
                edge_inputs[ei] = Some(inputs.to_vec());
            }
        });
        let drivable = (0..cfg.edges().len())
            .filter(|&ei| edge_inputs[ei].is_some())
            .collect();
        SchemeTarget {
            scheme: lowered,
            cfg,
            edge_inputs,
            drivable,
            protocol: None,
        }
    }

    /// Multi-cycle protocol target: seeded random walks over the *drivable*
    /// edges only (an edge no input valuation can take cannot appear in a
    /// concrete input schedule).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero (and inherits [`UnprotectedTarget::new`]'s
    /// signal-count guard).
    pub fn with_protocol(fsm: &Fsm, lowered: &'a LoweredFsm, depth: usize, seed: u64) -> Self {
        let target = Self::new(fsm, lowered);
        let walks = target.drivable_walks(depth, seed);
        target.with_protocol_space(expand_walks(walks))
    }

    /// Adversarially fuzzed multi-cycle target: the same drivable random
    /// walks as [`with_protocol`](Self::with_protocol), but every cycle of
    /// every scenario samples its raw input word from *all* valuations
    /// driving that edge (up to [`Self::INPUT_VARIANTS`] per edge) instead
    /// of reusing the one on-walk representative — the attacker's free
    /// choice of inputs from §3, restricted to words that keep the walk on
    /// its edge sequence.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero (and inherits [`UnprotectedTarget::new`]'s
    /// signal-count guard).
    pub fn with_fuzzed_protocol(
        fsm: &Fsm,
        lowered: &'a LoweredFsm,
        depth: usize,
        seed: u64,
    ) -> Self {
        let target = Self::new(fsm, lowered);
        // Every admissible valuation per edge, capped per edge: the same
        // enumeration as `new`, kept instead of first-hit-only.
        let mut variants: Vec<Vec<Vec<bool>>> = vec![Vec::new(); target.cfg.edges().len()];
        for_each_valuation(fsm, &target.cfg, |ei, inputs| {
            if variants[ei].len() < Self::INPUT_VARIANTS {
                variants[ei].push(inputs.to_vec());
            }
        });
        let mut next = xorshift64star(seed ^ 0xF0_22_1E);
        let mut scenarios = expand_walks(target.drivable_walks(depth, seed));
        for s in &mut scenarios {
            let fuzzed = s.edges.iter().map(|&ei| {
                let pool = &variants[ei];
                pool[(next() % pool.len() as u64) as usize].clone()
            });
            s.inputs = Some(fuzzed.collect());
        }
        target.with_protocol_space(scenarios)
    }

    /// Multi-cycle target over hand-picked protocol scenarios. Every walk
    /// edge must be drivable (see
    /// [`SchemeTarget::scenario_edge_is_drivable`]) — an edge no input
    /// valuation can take has no concrete input vector to schedule.
    ///
    /// # Panics
    ///
    /// Panics if a walk is empty, disconnected, times its fault window past
    /// the walk's end, or uses an undrivable edge.
    pub fn with_scenarios(
        fsm: &Fsm,
        lowered: &'a LoweredFsm,
        scenarios: Vec<ProtocolScenario>,
    ) -> Self {
        Self::new(fsm, lowered).with_protocol_space(scenarios)
    }

    fn drivable_walks(&self, depth: usize, seed: u64) -> Vec<Vec<usize>> {
        self.cfg
            .random_walks_where(depth, seed, |ei| self.scenario_edge_is_drivable(ei))
    }
}

/// Calls `visit(edge, inputs)` for every raw input valuation of `fsm`
/// (in ascending binary order) and every state, with the CFG edge that
/// valuation takes from that state.
fn for_each_valuation(fsm: &Fsm, cfg: &Cfg, mut visit: impl FnMut(usize, &[bool])) {
    let n = fsm.signals().len();
    assert!(
        n <= UnprotectedTarget::MAX_SIGNALS,
        "too many signals to enumerate scenarios ({n} > {})",
        UnprotectedTarget::MAX_SIGNALS
    );
    for bits in 0..(1u64 << n) {
        let inputs: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
        for s in fsm.states() {
            visit(cfg.matched_edge(s, &inputs), &inputs);
        }
    }
}

impl<'a, S> SchemeTarget<'a, S> {
    /// The control-flow graph whose edges index the scenario space.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// Whether some input word takes CFG edge `ei` — i.e. whether the
    /// edge can appear in a concrete protocol schedule. Always true for
    /// the coded schemes.
    pub fn scenario_edge_is_drivable(&self, ei: usize) -> bool {
        self.edge_inputs[ei].is_some()
    }

    fn edge_input(&self, ei: usize) -> Vec<bool> {
        self.edge_inputs[ei]
            .clone()
            .expect("scenario edges are drivable by construction")
    }

    /// Switches to a protocol space; panics if a walk uses an undrivable
    /// edge, is empty or disconnected, times any fault window past the
    /// walk's end, or overrides its inputs with a schedule of the wrong
    /// length.
    fn with_protocol_space(mut self, scenarios: Vec<ProtocolScenario>) -> Self {
        for (i, s) in scenarios.iter().enumerate() {
            for &ei in &s.edges {
                assert!(
                    self.scenario_edge_is_drivable(ei),
                    "protocol scenario {i} uses edge {ei}, which no input valuation drives"
                );
            }
            assert!(!s.edges.is_empty(), "protocol scenario {i} has no edges");
            for pair in s.edges.windows(2) {
                assert_eq!(
                    self.cfg.edges()[pair[0]].to,
                    self.cfg.edges()[pair[1]].from,
                    "protocol scenario {i} is not a connected walk"
                );
            }
            assert!(
                !s.schedule.windows().is_empty(),
                "protocol scenario {i} has an empty per-fault schedule"
            );
            for w in s.schedule.windows() {
                if let FaultTiming::Transient(c) = *w {
                    assert!(
                        c < s.edges.len(),
                        "protocol scenario {i} arms its fault at cycle {c}, past the {}-cycle walk",
                        s.edges.len()
                    );
                }
            }
            if let Some(inputs) = &s.inputs {
                assert_eq!(
                    inputs.len(),
                    s.edges.len(),
                    "protocol scenario {i} overrides inputs for {} cycles of a {}-cycle walk",
                    inputs.len(),
                    s.edges.len()
                );
            }
        }
        self.protocol = Some(scenarios);
        self
    }

    /// The CFG edges scenario `index` walks (one per cycle).
    fn walk(&self, index: usize) -> &[usize] {
        match &self.protocol {
            Some(scenarios) => &scenarios[index].edges,
            None => std::slice::from_ref(&self.drivable[index]),
        }
    }
}

impl<S: ProtectionScheme> FaultTarget for SchemeTarget<'_, S> {
    fn module(&self) -> &Module {
        self.scheme.module()
    }

    fn scenario_count(&self) -> usize {
        self.protocol.as_ref().map_or(self.drivable.len(), Vec::len)
    }

    /// Registers preloaded with the first edge's source state, one input
    /// vector and one landing state per walk edge.
    fn scenario(&self, index: usize) -> Scenario {
        let walk = self.walk(index);
        let edges = self.cfg.edges();
        let (schedule, fuzzed) = match &self.protocol {
            Some(scenarios) => (scenarios[index].schedule.clone(), &scenarios[index].inputs),
            None => (FaultSchedule::Uniform(FaultTiming::Permanent), &None),
        };
        Scenario {
            regs: self.scheme.preload(edges[walk[0]].from),
            inputs: match fuzzed {
                Some(fuzzed) => fuzzed.clone(),
                None => walk.iter().map(|&ei| self.edge_input(ei)).collect(),
            },
            schedule,
            landings: walk.iter().map(|&ei| edges[ei].to.0).collect(),
        }
    }

    fn classify(&self, index: usize, cycle: usize, regs: &[bool], outputs: &[bool]) -> Outcome {
        let to = self.cfg.edges()[self.walk(index)[cycle]].to;
        self.scheme.classify_landing(regs, outputs, to)
    }

    fn wave_oracle(&self) -> Option<WaveOracle> {
        Some(self.scheme.detection())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfi_core::{harden, redundancy, ScfiConfig};
    use scfi_fsm::{lower_unprotected, parse_fsm};

    fn fsm() -> Fsm {
        parse_fsm(
            "fsm m { inputs a, b;
               state S0 { if a -> S1; if b -> S2; }
               state S1 { if b -> S2; }
               state S2 { goto S0; } }",
        )
        .unwrap()
    }

    #[test]
    fn scfi_scenarios_cover_all_edges() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::new(&h);
        assert_eq!(t.scenario_count(), h.cfg().edges().len());
        for i in 0..t.scenario_count() {
            let sc = t.scenario(i);
            assert_eq!(sc.cycles(), 1);
            assert_eq!(sc.schedule, FaultSchedule::Uniform(FaultTiming::Permanent));
            assert_eq!(sc.regs.len(), h.state_code().width());
            assert_eq!(sc.inputs[0].len(), h.cond_code().width());
        }
    }

    #[test]
    fn redundancy_scenarios_preload_all_banks() {
        let f = fsm();
        let r = redundancy(&f, 3).unwrap();
        let t = RedundancyTarget::new(&r);
        let sc = t.scenario(0);
        assert_eq!(sc.regs.len(), r.module().registers().len());
    }

    #[test]
    fn unprotected_scenarios_cover_reachable_edges() {
        let f = fsm();
        let lowered = lower_unprotected(&f).unwrap();
        let t = UnprotectedTarget::new(&f, &lowered);
        // All 6 edges (S0: a, b, stay; S1: b, stay; S2: goto) are drivable.
        assert_eq!(t.scenario_count(), f.cfg().edges().len());
    }

    /// Walks every scenario of `t` fault-free and checks each cycle
    /// classifies as Masked.
    fn assert_fault_free_masked(t: &impl FaultTarget, cycles: usize, what: &str) {
        assert!(t.scenario_count() > 0, "{what}");
        for i in 0..t.scenario_count() {
            let sc = t.scenario(i);
            assert_eq!(sc.cycles(), cycles, "{what}");
            assert_eq!(sc.landings.len(), cycles, "{what}");
            let mut sim = scfi_netlist::Simulator::new(t.module());
            sim.set_register_values(&sc.regs);
            for (c, inputs) in sc.inputs.iter().enumerate() {
                let out = sim.step(inputs);
                assert_eq!(
                    t.classify(i, c, sim.register_values(), &out),
                    Outcome::Masked,
                    "{what}: scenario {i} cycle {c}"
                );
            }
        }
    }

    /// Fault-free single-transition runs classify as Masked, for every
    /// scheme.
    #[test]
    fn fault_free_runs_classify_as_masked() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let r = redundancy(&f, 2).unwrap();
        let lowered = lower_unprotected(&f).unwrap();
        assert_fault_free_masked(&ScfiTarget::new(&h), 1, "scfi");
        assert_fault_free_masked(&RedundancyTarget::new(&r), 1, "redundancy");
        assert_fault_free_masked(&UnprotectedTarget::new(&f, &lowered), 1, "unprotected");
    }

    /// Walks every protocol scenario of every scheme fault-free and checks
    /// each cycle classifies as Masked — the N-cycle generalization of the
    /// fault-free sanity check.
    #[test]
    fn fault_free_protocol_walks_classify_as_masked_every_cycle() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let r = redundancy(&f, 2).unwrap();
        let lowered = lower_unprotected(&f).unwrap();
        assert_fault_free_masked(&ScfiTarget::with_protocol(&h, 4, 11), 4, "scfi walks");
        let walks = RedundancyTarget::with_protocol(&r, 4, 11);
        assert_fault_free_masked(&walks, 4, "redundancy walks");
        let walks = UnprotectedTarget::with_protocol(&f, &lowered, 4, 11);
        assert_fault_free_masked(&walks, 4, "unprotected walks");
    }

    #[test]
    fn protocol_scenarios_expand_one_injection_cycle_per_step() {
        let f = fsm();
        let cfg = f.cfg();
        let depth = 3;
        let scenarios = protocol_scenarios(&cfg, depth, 99);
        assert_eq!(scenarios.len(), cfg.edges().len() * depth);
        for s in &scenarios {
            assert_eq!(s.edges.len(), depth);
            match s.schedule.window(0) {
                FaultTiming::Transient(c) => assert!(c < depth),
                FaultTiming::Permanent => panic!("generator emits transient windows"),
            }
        }
    }

    #[test]
    fn unprotected_protocol_walks_stay_drivable() {
        let f = fsm();
        let lowered = lower_unprotected(&f).unwrap();
        let t = UnprotectedTarget::with_protocol(&f, &lowered, 3, 5);
        for i in 0..t.scenario_count() {
            let sc = t.scenario(i);
            // Replaying the schedule on the behavioral FSM must follow the
            // walk exactly (each representative input drives its edge).
            let mut state = t.cfg.edges()[t.protocol.as_ref().unwrap()[i].edges[0]].from;
            for (c, raw) in sc.inputs.iter().enumerate() {
                let ei = t.cfg.matched_edge(state, raw);
                assert_eq!(ei, t.protocol.as_ref().unwrap()[i].edges[c]);
                state = t.cfg.edges()[ei].to;
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a connected walk")]
    fn disconnected_walks_are_rejected() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let cfg = h.cfg();
        // Find two edges that do not chain.
        let e0 = 0;
        let e1 = (0..cfg.edges().len())
            .find(|&e| cfg.edges()[e0].to != cfg.edges()[e].from)
            .expect("some disconnected pair");
        let _ = ScfiTarget::with_scenarios(
            &h,
            vec![ProtocolScenario::uniform(
                vec![e0, e1],
                FaultTiming::Permanent,
            )],
        );
    }

    #[test]
    #[should_panic(expected = "past the")]
    fn late_fault_windows_are_rejected() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let _ = ScfiTarget::with_scenarios(
            &h,
            vec![ProtocolScenario::uniform(
                vec![0],
                FaultTiming::Transient(1),
            )],
        );
    }

    #[test]
    fn per_fault_schedules_window_each_fault_and_clamp() {
        let s = FaultSchedule::PerFault(vec![FaultTiming::Transient(0), FaultTiming::Transient(2)]);
        assert_eq!(s.window(0), FaultTiming::Transient(0));
        assert_eq!(s.window(1), FaultTiming::Transient(2));
        // Groups larger than the schedule reuse the last window.
        assert_eq!(s.window(5), FaultTiming::Transient(2));
        assert_eq!(s.windows().len(), 2);
        let u: FaultSchedule = FaultTiming::Permanent.into();
        assert_eq!(u.window(3), FaultTiming::Permanent);
        assert_eq!(u.windows(), &[FaultTiming::Permanent]);
    }

    #[test]
    fn work_item_overrides_beat_the_scenario_schedule() {
        let sc = Scenario::single(vec![], vec![]);
        assert_eq!(sc.fault_window(&[], 0), FaultTiming::Permanent);
        let ov = [None, Some(FaultTiming::Transient(0))];
        assert_eq!(sc.fault_window(&ov, 0), FaultTiming::Permanent);
        assert_eq!(sc.fault_window(&ov, 1), FaultTiming::Transient(0));
    }

    #[test]
    #[should_panic(expected = "empty per-fault schedule")]
    fn empty_per_fault_schedules_are_rejected() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let _ = ScfiTarget::with_scenarios(
            &h,
            vec![ProtocolScenario::new(
                vec![0],
                FaultSchedule::PerFault(Vec::new()),
            )],
        );
    }

    #[test]
    #[should_panic(expected = "past the")]
    fn late_per_fault_windows_are_rejected() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let _ = ScfiTarget::with_scenarios(
            &h,
            vec![ProtocolScenario::new(
                vec![0],
                FaultSchedule::PerFault(vec![FaultTiming::Transient(0), FaultTiming::Transient(1)]),
            )],
        );
    }

    #[test]
    fn fuzzed_unprotected_walks_stay_drivable_and_vary_words() {
        let f = fsm();
        let lowered = lower_unprotected(&f).unwrap();
        let t = UnprotectedTarget::with_fuzzed_protocol(&f, &lowered, 3, 5);
        let protocol = t.protocol.as_ref().unwrap();
        assert!(t.scenario_count() > 0);
        assert_eq!(protocol.len(), t.scenario_count());
        let mut varied = false;
        for (i, walk) in protocol.iter().enumerate() {
            let sc = t.scenario(i);
            let mut state = t.cfg.edges()[walk.edges[0]].from;
            for (c, raw) in sc.inputs.iter().enumerate() {
                let ei = t.cfg.matched_edge(state, raw);
                assert_eq!(ei, walk.edges[c], "scenario {i} cycle {c}");
                varied |= Some(raw) != t.edge_inputs[ei].as_ref();
                state = t.cfg.edges()[ei].to;
            }
        }
        assert!(varied, "fuzzing never left the representative words");
    }

    #[test]
    fn adversarial_walks_prefer_hamming_close_codewords() {
        let f = fsm();
        let h = harden(&f, &ScfiConfig::new(2)).unwrap();
        let t = ScfiTarget::with_fuzzed_protocol(&h, 4, 7);
        // Every fuzzed walk is still a connected drivable walk with one
        // transient scenario per injection cycle (validated on
        // construction); the set is deterministic in the seed.
        assert_eq!(t.scenario_count(), h.cfg().edges().len() * 4);
        let again = ScfiTarget::with_fuzzed_protocol(&h, 4, 7);
        for i in 0..t.scenario_count() {
            assert_eq!(t.scenario(i), again.scenario(i));
        }
    }

    #[test]
    fn fault_timing_windows() {
        assert!(FaultTiming::Permanent.armed_at(0));
        assert!(FaultTiming::Permanent.armed_at(7));
        assert_eq!(FaultTiming::Permanent.flip_cycle(), 0);
        let t = FaultTiming::Transient(2);
        assert!(!t.armed_at(1));
        assert!(t.armed_at(2));
        assert!(!t.armed_at(3));
        assert_eq!(t.flip_cycle(), 2);
    }
}
