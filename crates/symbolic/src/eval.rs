//! Symbolic netlist evaluation: one clock cycle of a [`Module`] with
//! fully symbolic inputs and register state.
//!
//! Where the scalar [`Simulator`](scfi_netlist::Simulator) propagates one
//! Boolean per net, the symbolic evaluator propagates one BDD per net over
//! a variable universe of the module's input ports and stored register
//! bits. One evaluation therefore covers *every* input assignment and
//! *every* register preload at once — the per-net functions are exactly
//! the `2^(inputs+registers)`-row truth tables of the settled circuit.
//!
//! Fault semantics mirror the scalar simulator bit for bit (the
//! differential suites pin them against each other): stuck-at masks apply
//! before flips, pin faults apply at a single cell's read, and register
//! flips negate the stored-bit variable the faulty run starts from.

use scfi_faultsim::{Fault, FaultEffect, FaultSite};
use scfi_netlist::{CellKind, Module, NetId};

use crate::bdd::{Bdd, BddOverflow, BddRef};
use crate::hash::FxHashMap;

/// Assignment of BDD variables to the module's symbolic sources, ordered
/// by the netlist's levelization.
///
/// Sources (input ports and register outputs) are ranked by the position
/// of their earliest consumer in the module's topological order, so
/// variables consumed early in the logic sit close to the BDD root —
/// the classical fanin-level ordering heuristic. Each register bit
/// additionally owns a *primed* next-state variable directly below its
/// current-state variable; the adjacency makes the image step's
/// primed→unprimed renaming order-preserving (see
/// [`Bdd::rename`]).
#[derive(Clone, Debug)]
pub struct VarMap {
    /// Current-state variable per register position
    /// (`Module::registers()` order).
    reg_current: Vec<u32>,
    /// Primed next-state variable per register position
    /// (`reg_current[i] + 1`).
    reg_next: Vec<u32>,
    /// Variable per input port (port order).
    inputs: Vec<u32>,
    /// Total variables allocated (current + primed + inputs).
    var_count: u32,
}

impl VarMap {
    /// Derives the variable order from `module`'s levelization.
    pub fn from_module(module: &Module) -> Self {
        // Earliest topological position at which each net is consumed.
        let mut first_use = vec![usize::MAX; module.len()];
        for (pos, &c) in module.topo_order().iter().enumerate() {
            for pin in &module.cell(c).pins {
                let slot = &mut first_use[pin.index()];
                *slot = (*slot).min(pos);
            }
        }
        // Register data inputs are consumed at commit time, after all
        // combinational logic.
        for &r in module.registers() {
            let pin = module.cell(r).pins[0];
            let slot = &mut first_use[pin.index()];
            *slot = (*slot).min(module.topo_order().len());
        }
        enum Source {
            Input(usize),
            Register(usize),
        }
        let mut sources: Vec<(usize, u32, Source)> = Vec::new();
        for (i, &net) in module.inputs().iter().enumerate() {
            sources.push((first_use[net.index()], net.0, Source::Input(i)));
        }
        for (i, &r) in module.registers().iter().enumerate() {
            sources.push((first_use[r.index()], r.0, Source::Register(i)));
        }
        sources.sort_by_key(|&(level, net, _)| (level, net));

        let mut reg_current = vec![0; module.registers().len()];
        let mut reg_next = vec![0; module.registers().len()];
        let mut inputs = vec![0; module.inputs().len()];
        let mut next_var = 0u32;
        for (_, _, source) in sources {
            match source {
                Source::Input(i) => {
                    inputs[i] = next_var;
                    next_var += 1;
                }
                Source::Register(i) => {
                    reg_current[i] = next_var;
                    reg_next[i] = next_var + 1;
                    next_var += 2;
                }
            }
        }
        VarMap {
            reg_current,
            reg_next,
            inputs,
            var_count: next_var,
        }
    }

    /// Current-state variable of register position `i`.
    pub fn reg_current(&self, i: usize) -> u32 {
        self.reg_current[i]
    }

    /// Primed next-state variable of register position `i`.
    pub fn reg_next(&self, i: usize) -> u32 {
        self.reg_next[i]
    }

    /// Variable of input port `i`.
    pub fn input(&self, i: usize) -> u32 {
        self.inputs[i]
    }

    /// All current-state variables, sorted ascending.
    pub fn current_vars(&self) -> Vec<u32> {
        let mut v = self.reg_current.clone();
        v.sort_unstable();
        v
    }

    /// All current-state and input variables, sorted ascending — the
    /// quantification set of the image step.
    pub fn unprimed_vars(&self) -> Vec<u32> {
        let mut v = self.reg_current.clone();
        v.extend_from_slice(&self.inputs);
        v.sort_unstable();
        v
    }

    /// Total variables allocated.
    pub fn var_count(&self) -> u32 {
        self.var_count
    }

    /// Decodes a (possibly partial) satisfying assignment into concrete
    /// register and input vectors; variables absent from the assignment
    /// default to `false` (they are don't-cares of the witness function).
    pub fn decode_assignment(&self, assignment: &[(u32, bool)]) -> (Vec<bool>, Vec<bool>) {
        let lookup: FxHashMap<u32, bool> = assignment.iter().copied().collect();
        let regs = self
            .reg_current
            .iter()
            .map(|v| lookup.get(v).copied().unwrap_or(false))
            .collect();
        let inputs = self
            .inputs
            .iter()
            .map(|v| lookup.get(v).copied().unwrap_or(false))
            .collect();
        (regs, inputs)
    }
}

/// The result of one symbolic cycle: per-net settled functions, the
/// next-state functions the flip-flops would commit, and the output-port
/// functions — all over the [`VarMap`]'s current-state and input
/// variables.
#[derive(Clone, Debug)]
pub struct SymStep {
    /// Settled function per net (indexed like `Module::cells()`).
    pub nets: Vec<BddRef>,
    /// Function committed into each register (`Module::registers()`
    /// order) — the symbolic transition functions `δ_i(state, inputs)`.
    pub next_regs: Vec<BddRef>,
    /// Function per output port (port order).
    pub outputs: Vec<BddRef>,
}

/// Per-net / per-pin fault transform: stuck value applied first, then an
/// optional flip — the scalar simulator's `apply_net_fault` order.
#[derive(Clone, Copy, Default)]
struct Transform {
    stuck: Option<bool>,
    flip: bool,
}

impl Transform {
    fn apply(self, b: &mut Bdd, raw: BddRef) -> Result<BddRef, BddOverflow> {
        let mut v = match self.stuck {
            Some(s) => b.constant(s),
            None => raw,
        };
        if self.flip {
            v = b.try_not(v)?;
        }
        Ok(v)
    }
}

/// Compiled fault set for one symbolic run.
#[derive(Default)]
struct FaultMasks {
    nets: FxHashMap<u32, Transform>,
    pins: FxHashMap<(u32, u8), Transform>,
    /// Register *positions* whose stored bit is flipped before the cycle.
    reg_flips: Vec<usize>,
}

impl FaultMasks {
    fn compile(module: &Module, faults: &[Fault]) -> Self {
        let mut masks = FaultMasks::default();
        let set = |t: &mut Transform, effect: FaultEffect| match effect {
            FaultEffect::Flip => t.flip = !t.flip,
            FaultEffect::Stuck0 => t.stuck = Some(false),
            FaultEffect::Stuck1 => t.stuck = Some(true),
        };
        for &fault in faults {
            match fault.site {
                FaultSite::CellOutput(c) => set(masks.nets.entry(c.0).or_default(), fault.effect),
                FaultSite::Pin(c, p) => set(masks.pins.entry((c.0, p)).or_default(), fault.effect),
                FaultSite::Register(c) => {
                    let pos = module
                        .register_position(c)
                        .unwrap_or_else(|| panic!("{c:?} is not a register"));
                    masks.reg_flips.push(pos);
                }
            }
        }
        masks
    }

    fn net(&self, net: u32) -> Transform {
        self.nets.get(&net).copied().unwrap_or_default()
    }

    fn pin(&self, cell: u32, pin: usize) -> Transform {
        self.pins
            .get(&(cell, pin as u8))
            .copied()
            .unwrap_or_default()
    }
}

/// Selector-guarded fault set: every transform is armed by a BDD guard,
/// so one evaluation covers *every subset* of the fault list at once
/// (each fault active exactly where its guard holds).
///
/// The concrete-selector semantics match the scalar simulator's
/// composition rules at every site: stuck transforms apply first in
/// fault order (the last active one wins, like repeated
/// `set_net_stuck` calls), flips toggle by the parity of the active
/// flip guards (like repeated `set_net_flip`), and register flips
/// negate the stored-bit source by the parity of their guards.
#[derive(Default)]
struct GuardedMasks {
    nets: FxHashMap<u32, Vec<(FaultEffect, BddRef)>>,
    pins: FxHashMap<(u32, u8), Vec<(FaultEffect, BddRef)>>,
    /// Flip-guard parity per register *position*.
    reg_flips: FxHashMap<usize, Vec<BddRef>>,
}

impl GuardedMasks {
    fn compile(module: &Module, faults: &[(Fault, BddRef)]) -> Self {
        let mut masks = GuardedMasks::default();
        for &(fault, guard) in faults {
            match fault.site {
                FaultSite::CellOutput(c) => masks
                    .nets
                    .entry(c.0)
                    .or_default()
                    .push((fault.effect, guard)),
                FaultSite::Pin(c, p) => masks
                    .pins
                    .entry((c.0, p))
                    .or_default()
                    .push((fault.effect, guard)),
                FaultSite::Register(c) => {
                    let pos = module
                        .register_position(c)
                        .unwrap_or_else(|| panic!("{c:?} is not a register"));
                    masks.reg_flips.entry(pos).or_default().push(guard);
                }
            }
        }
        masks
    }

    /// Applies one site's guarded transform list to a raw value.
    fn apply(
        b: &mut Bdd,
        raw: BddRef,
        transforms: &[(FaultEffect, BddRef)],
    ) -> Result<BddRef, BddOverflow> {
        let mut v = raw;
        for &(effect, guard) in transforms {
            match effect {
                FaultEffect::Stuck0 => {
                    let keep = b.try_not(guard)?;
                    v = b.try_and(v, keep)?;
                }
                FaultEffect::Stuck1 => v = b.try_or(v, guard)?,
                FaultEffect::Flip => {}
            }
        }
        let mut parity = BddRef::FALSE;
        for &(effect, guard) in transforms {
            if matches!(effect, FaultEffect::Flip) {
                parity = b.try_xor(parity, guard)?;
            }
        }
        b.try_xor(v, parity)
    }

    fn net(&self, b: &mut Bdd, net: u32, raw: BddRef) -> Result<BddRef, BddOverflow> {
        match self.nets.get(&net) {
            Some(t) => Self::apply(b, raw, t),
            None => Ok(raw),
        }
    }

    fn pin(&self, b: &mut Bdd, cell: u32, pin: usize, raw: BddRef) -> Result<BddRef, BddOverflow> {
        match self.pins.get(&(cell, pin as u8)) {
            Some(t) => Self::apply(b, raw, t),
            None => Ok(raw),
        }
    }

    fn reg_source(&self, b: &mut Bdd, pos: usize, raw: BddRef) -> Result<BddRef, BddOverflow> {
        let mut v = raw;
        if let Some(guards) = self.reg_flips.get(&pos) {
            for &g in guards {
                v = b.try_xor(v, g)?;
            }
        }
        Ok(v)
    }
}

/// Symbolic single-cycle evaluator for a [`Module`].
///
/// Construction precomputes the variable order and the fanout adjacency
/// used by the cone-incremental re-evaluation
/// ([`SymbolicEvaluator::eval_fault_from`]).
///
/// # Example
///
/// ```
/// use scfi_netlist::ModuleBuilder;
/// use scfi_symbolic::{Bdd, SymbolicEvaluator};
///
/// let mut mb = ModuleBuilder::new("toggle");
/// let q = mb.dff_uninit(false);
/// let nq = mb.not(q);
/// mb.set_dff_input(q, nq);
/// mb.output("q", q);
/// let m = mb.finish()?;
///
/// let ev = SymbolicEvaluator::new(&m);
/// let mut b = Bdd::new();
/// let step = ev.eval(&mut b, &[]);
/// // The toggle's transition function is the negated state variable.
/// let state = b.var(ev.varmap().reg_current(0));
/// assert_eq!(step.next_regs[0], b.not(state));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SymbolicEvaluator<'m> {
    module: &'m Module,
    varmap: VarMap,
}

impl<'m> SymbolicEvaluator<'m> {
    /// Prepares an evaluator for `module`.
    pub fn new(module: &'m Module) -> Self {
        SymbolicEvaluator {
            varmap: VarMap::from_module(module),
            module,
        }
    }

    /// The module under evaluation.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// The variable assignment.
    pub fn varmap(&self) -> &VarMap {
        &self.varmap
    }

    /// The reset values of every register (`Module::registers()` order).
    pub fn reset_state(&self) -> Vec<bool> {
        self.module
            .registers()
            .iter()
            .map(|&r| match self.module.cell(r).kind {
                CellKind::Dff { init } => init,
                _ => unreachable!("registers() yields only flip-flops"),
            })
            .collect()
    }

    /// The source value of a register's output net before net faults:
    /// its current-state variable, negated if the stored bit is flipped.
    fn reg_source(
        &self,
        b: &mut Bdd,
        pos: usize,
        masks: &FaultMasks,
    ) -> Result<BddRef, BddOverflow> {
        if masks.reg_flips.iter().filter(|&&p| p == pos).count() % 2 == 1 {
            b.try_nvar(self.varmap.reg_current[pos])
        } else {
            b.try_var(self.varmap.reg_current[pos])
        }
    }

    /// Evaluates one symbolic cycle under `faults` (empty for the
    /// fault-free base step).
    ///
    /// # Panics
    ///
    /// Panics with the [`BddOverflow`] description if `b`'s configured
    /// budget is exhausted; use [`try_eval`](Self::try_eval) under
    /// budgets.
    pub fn eval(&self, b: &mut Bdd, faults: &[Fault]) -> SymStep {
        self.try_eval(b, faults).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`eval`](Self::eval), surfacing budget exhaustion on `b` as
    /// [`BddOverflow`] instead of panicking. On an unbudgeted manager
    /// this never fails.
    pub fn try_eval(&self, b: &mut Bdd, faults: &[Fault]) -> Result<SymStep, BddOverflow> {
        let masks = FaultMasks::compile(self.module, faults);
        let m = self.module;
        let mut nets = vec![BddRef::FALSE; m.len()];

        // Phase 0: source nets (inputs, constants, register outputs).
        for (i, &net) in m.inputs().iter().enumerate() {
            let raw = b.try_var(self.varmap.inputs[i])?;
            nets[net.index()] = masks.net(net.0).apply(b, raw)?;
        }
        for (i, cell) in m.cells().iter().enumerate() {
            if let CellKind::Const(c) = cell.kind {
                let raw = b.constant(c);
                nets[i] = masks.net(i as u32).apply(b, raw)?;
            }
        }
        for (pos, &r) in m.registers().iter().enumerate() {
            let raw = self.reg_source(b, pos, &masks)?;
            nets[r.index()] = masks.net(r.0).apply(b, raw)?;
        }

        // Phase 1: combinational settle in topological order.
        for &c in m.topo_order() {
            let v = self.eval_cell(b, c.index(), &nets, &masks)?;
            nets[c.index()] = v;
        }

        self.finish_step(b, nets, &masks)
    }

    /// Evaluates one symbolic cycle from *explicit sources* under a
    /// *selector-guarded* fault set: register position `i` reads the
    /// function `regs[i]`, input port `i` reads `inputs[i]`, and each
    /// fault applies only where its guard BDD holds.
    ///
    /// This is the generalized step the temporal certifications are built
    /// from. The k-step unrolling feeds the previous step's `next_regs`
    /// back in as `regs` (with fresh input variables per cycle) instead of
    /// renaming; the joint multi-fault certification passes the whole
    /// fault list with one selector variable per site, so a single
    /// evaluation covers every fault subset at once. With the identity
    /// sources and constant-`TRUE` guards this computes exactly
    /// [`eval`](Self::eval)'s functions (asserted by the differential
    /// tests); with no faults it is the plain transition step from the
    /// given sources.
    ///
    /// # Panics
    ///
    /// Panics on a register- or input-count mismatch.
    pub fn try_eval_guarded(
        &self,
        b: &mut Bdd,
        regs: &[BddRef],
        inputs: &[BddRef],
        faults: &[(Fault, BddRef)],
    ) -> Result<SymStep, BddOverflow> {
        let m = self.module;
        assert_eq!(regs.len(), m.registers().len(), "register count mismatch");
        assert_eq!(inputs.len(), m.inputs().len(), "input count mismatch");
        let masks = GuardedMasks::compile(m, faults);
        let mut nets = vec![BddRef::FALSE; m.len()];

        // Phase 0: source nets (inputs, constants, register outputs).
        for (i, &net) in m.inputs().iter().enumerate() {
            nets[net.index()] = masks.net(b, net.0, inputs[i])?;
        }
        for (i, cell) in m.cells().iter().enumerate() {
            if let CellKind::Const(c) = cell.kind {
                let raw = b.constant(c);
                nets[i] = masks.net(b, i as u32, raw)?;
            }
        }
        for (pos, &r) in m.registers().iter().enumerate() {
            let raw = masks.reg_source(b, pos, regs[pos])?;
            nets[r.index()] = masks.net(b, r.0, raw)?;
        }

        // Phase 1: combinational settle in topological order.
        for &c in m.topo_order() {
            let v = self.eval_cell_guarded(b, c.index(), &nets, &masks)?;
            nets[c.index()] = v;
        }

        // Phase 2: sample outputs and the (guarded) register commit path.
        let next_regs = m
            .registers()
            .iter()
            .map(|&r| {
                let pin_net = m.cell(r).pins[0];
                let raw = nets[pin_net.index()];
                masks.pin(b, r.0, 0, raw)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let outputs = m
            .outputs()
            .iter()
            .map(|&(_, net): &(String, NetId)| nets[net.index()])
            .collect();
        Ok(SymStep {
            nets,
            next_regs,
            outputs,
        })
    }

    /// [`eval_cell`](Self::eval_cell) under guarded masks.
    fn eval_cell_guarded(
        &self,
        b: &mut Bdd,
        index: usize,
        nets: &[BddRef],
        masks: &GuardedMasks,
    ) -> Result<BddRef, BddOverflow> {
        let cell = &self.module.cells()[index];
        let read = |b: &mut Bdd, pin: usize| -> Result<BddRef, BddOverflow> {
            let raw = nets[cell.pins[pin].index()];
            masks.pin(b, index as u32, pin, raw)
        };
        let raw = match cell.kind {
            CellKind::Buf => read(b, 0)?,
            CellKind::Not => {
                let a = read(b, 0)?;
                b.try_not(a)?
            }
            CellKind::And => {
                let (x, y) = (read(b, 0)?, read(b, 1)?);
                b.try_and(x, y)?
            }
            CellKind::Or => {
                let (x, y) = (read(b, 0)?, read(b, 1)?);
                b.try_or(x, y)?
            }
            CellKind::Xor => {
                let (x, y) = (read(b, 0)?, read(b, 1)?);
                b.try_xor(x, y)?
            }
            CellKind::Nand => {
                let (x, y) = (read(b, 0)?, read(b, 1)?);
                b.try_nand(x, y)?
            }
            CellKind::Nor => {
                let (x, y) = (read(b, 0)?, read(b, 1)?);
                b.try_nor(x, y)?
            }
            CellKind::Xnor => {
                let (x, y) = (read(b, 0)?, read(b, 1)?);
                b.try_xnor(x, y)?
            }
            CellKind::Mux => {
                let (sel, x, y) = (read(b, 0)?, read(b, 1)?, read(b, 2)?);
                b.try_mux(sel, x, y)?
            }
            CellKind::Input | CellKind::Const(_) | CellKind::Dff { .. } => {
                unreachable!("topo order contains only combinational cells")
            }
        };
        masks.net(b, index as u32, raw)
    }

    /// Cone-incremental re-evaluation: recomputes only the transitive
    /// fanout of `fault`'s site, reusing `base` (the fault-free
    /// [`SymStep`] from [`SymbolicEvaluator::eval`]) everywhere else.
    /// Because BDD handles are canonical, a recomputed net whose function
    /// is unchanged stops the propagation — most certification sites
    /// touch a small fraction of the netlist.
    ///
    /// Produces handle-for-handle the same result as
    /// `eval(b, &[fault])` (asserted by the differential tests).
    ///
    /// # Panics
    ///
    /// Panics with the [`BddOverflow`] description if `b`'s configured
    /// budget is exhausted; use
    /// [`try_eval_fault_from`](Self::try_eval_fault_from) under budgets.
    pub fn eval_fault_from(&self, b: &mut Bdd, base: &SymStep, fault: Fault) -> SymStep {
        self.try_eval_fault_from(b, base, fault)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`eval_fault_from`](Self::eval_fault_from), surfacing budget
    /// exhaustion on `b` as [`BddOverflow`] instead of panicking.
    pub fn try_eval_fault_from(
        &self,
        b: &mut Bdd,
        base: &SymStep,
        fault: Fault,
    ) -> Result<SymStep, BddOverflow> {
        let masks = FaultMasks::compile(self.module, &[fault]);
        let m = self.module;
        let mut nets = base.nets.clone();
        let mut dirty = vec![false; m.len()];

        // Seed: recompute the faulted cell's output net. Pin faults and
        // register flips manifest on the owning cell too (a register flip
        // changes the stored value the output net reads).
        let seed_cell = match fault.site {
            FaultSite::CellOutput(c) | FaultSite::Pin(c, _) | FaultSite::Register(c) => c,
        };
        match m.cell(seed_cell).kind {
            CellKind::Input | CellKind::Const(_) => {
                // Unreachable through `enumerate_faults`, but keep the
                // semantics total: re-apply the transform to the source.
                let raw = nets[seed_cell.index()];
                let v = masks.net(seed_cell.0).apply(b, raw)?;
                if v != nets[seed_cell.index()] {
                    nets[seed_cell.index()] = v;
                    dirty[seed_cell.index()] = true;
                }
            }
            CellKind::Dff { .. } => {
                let pos = m
                    .register_position(seed_cell)
                    .expect("DFF cells are registers");
                let raw = self.reg_source(b, pos, &masks)?;
                let v = masks.net(seed_cell.0).apply(b, raw)?;
                if v != nets[seed_cell.index()] {
                    nets[seed_cell.index()] = v;
                    dirty[seed_cell.index()] = true;
                }
                // A pure pin fault on a DFF affects only the commit path,
                // handled in `finish_step`.
            }
            _ => dirty[seed_cell.index()] = true, // recomputed in the sweep
        }

        // Sweep the topological order, recomputing cells with a dirty pin
        // (or the seed itself); canonicity prunes unchanged cones.
        for &c in m.topo_order() {
            let needs = dirty[c.index()] || m.cell(c).pins.iter().any(|pin| dirty[pin.index()]);
            if !needs {
                continue;
            }
            let v = self.eval_cell(b, c.index(), &nets, &masks)?;
            dirty[c.index()] = v != nets[c.index()];
            nets[c.index()] = v;
        }

        self.finish_step(b, nets, &masks)
    }

    /// Evaluates one combinational cell from settled pin values.
    fn eval_cell(
        &self,
        b: &mut Bdd,
        index: usize,
        nets: &[BddRef],
        masks: &FaultMasks,
    ) -> Result<BddRef, BddOverflow> {
        let cell = &self.module.cells()[index];
        let read = |b: &mut Bdd, pin: usize| -> Result<BddRef, BddOverflow> {
            let raw = nets[cell.pins[pin].index()];
            masks.pin(index as u32, pin).apply(b, raw)
        };
        let raw = match cell.kind {
            CellKind::Buf => read(b, 0)?,
            CellKind::Not => {
                let a = read(b, 0)?;
                b.try_not(a)?
            }
            CellKind::And => {
                let (x, y) = (read(b, 0)?, read(b, 1)?);
                b.try_and(x, y)?
            }
            CellKind::Or => {
                let (x, y) = (read(b, 0)?, read(b, 1)?);
                b.try_or(x, y)?
            }
            CellKind::Xor => {
                let (x, y) = (read(b, 0)?, read(b, 1)?);
                b.try_xor(x, y)?
            }
            CellKind::Nand => {
                let (x, y) = (read(b, 0)?, read(b, 1)?);
                b.try_nand(x, y)?
            }
            CellKind::Nor => {
                let (x, y) = (read(b, 0)?, read(b, 1)?);
                b.try_nor(x, y)?
            }
            CellKind::Xnor => {
                let (x, y) = (read(b, 0)?, read(b, 1)?);
                b.try_xnor(x, y)?
            }
            CellKind::Mux => {
                let (sel, x, y) = (read(b, 0)?, read(b, 1)?, read(b, 2)?);
                b.try_mux(sel, x, y)?
            }
            CellKind::Input | CellKind::Const(_) | CellKind::Dff { .. } => {
                unreachable!("topo order contains only combinational cells")
            }
        };
        masks.net(index as u32).apply(b, raw)
    }

    /// Samples outputs and the register commit path from settled nets.
    fn finish_step(
        &self,
        b: &mut Bdd,
        nets: Vec<BddRef>,
        masks: &FaultMasks,
    ) -> Result<SymStep, BddOverflow> {
        let m = self.module;
        let next_regs = m
            .registers()
            .iter()
            .map(|&r| {
                let pin_net = m.cell(r).pins[0];
                let raw = nets[pin_net.index()];
                masks.pin(r.0, 0).apply(b, raw)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let outputs = m
            .outputs()
            .iter()
            .map(|&(_, net): &(String, NetId)| nets[net.index()])
            .collect();
        Ok(SymStep {
            nets,
            next_regs,
            outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfi_faultsim::FaultEffect;
    use scfi_netlist::{CellId, ModuleBuilder, Simulator};

    /// 2-bit counter with an enable input: q += en.
    fn counter() -> Module {
        let mut mb = ModuleBuilder::new("counter2");
        let en = mb.input("en");
        let q0 = mb.dff_uninit(false);
        let q1 = mb.dff_uninit(false);
        let n0 = mb.xor2(q0, en);
        let carry = mb.and2(q0, en);
        let n1 = mb.xor2(q1, carry);
        mb.set_dff_input(q0, n0);
        mb.set_dff_input(q1, n1);
        mb.output("q0", q0);
        mb.output("q1", q1);
        mb.finish().unwrap()
    }

    /// Enumerates every assignment of the module's (inputs, registers) and
    /// checks the symbolic step against a scalar simulation step.
    fn assert_matches_scalar(module: &Module, faults: &[Fault]) {
        let ev = SymbolicEvaluator::new(module);
        let mut b = Bdd::new();
        let step = ev.eval(&mut b, faults);
        let n_in = module.inputs().len();
        let n_reg = module.registers().len();
        let mut sim = Simulator::new(module);
        for bits in 0u64..1 << (n_in + n_reg) {
            let inputs: Vec<bool> = (0..n_in).map(|i| bits >> i & 1 == 1).collect();
            let regs: Vec<bool> = (0..n_reg).map(|i| bits >> (n_in + i) & 1 == 1).collect();
            sim.clear_faults();
            sim.reset_to(&regs);
            for &f in faults {
                match (f.site, f.effect) {
                    (FaultSite::CellOutput(c), FaultEffect::Flip) => sim.set_net_flip(c.net()),
                    (FaultSite::CellOutput(c), FaultEffect::Stuck0) => {
                        sim.set_net_stuck(c.net(), false)
                    }
                    (FaultSite::CellOutput(c), FaultEffect::Stuck1) => {
                        sim.set_net_stuck(c.net(), true)
                    }
                    (FaultSite::Pin(c, p), FaultEffect::Flip) => sim.set_pin_flip(c, p as usize),
                    (FaultSite::Pin(c, p), FaultEffect::Stuck0) => {
                        sim.set_pin_stuck(c, p as usize, false)
                    }
                    (FaultSite::Pin(c, p), FaultEffect::Stuck1) => {
                        sim.set_pin_stuck(c, p as usize, true)
                    }
                    (FaultSite::Register(c), _) => sim.flip_register(c),
                }
            }
            let out = sim.step(&inputs);
            // Assignment vector indexed by BDD variable.
            let mut assignment = vec![false; ev.varmap().var_count() as usize];
            for (i, &v) in inputs.iter().enumerate() {
                assignment[ev.varmap().input(i) as usize] = v;
            }
            for (i, &v) in regs.iter().enumerate() {
                assignment[ev.varmap().reg_current(i) as usize] = v;
            }
            for (p, &f) in step.outputs.iter().enumerate() {
                assert_eq!(
                    b.eval(f, &assignment),
                    out[p],
                    "output {p} diverged at bits {bits:b} under {faults:?}"
                );
            }
            for (r, &f) in step.next_regs.iter().enumerate() {
                assert_eq!(
                    b.eval(f, &assignment),
                    sim.register_values()[r],
                    "next state bit {r} diverged at bits {bits:b} under {faults:?}"
                );
            }
        }
    }

    #[test]
    fn fault_free_step_matches_scalar_exhaustively() {
        assert_matches_scalar(&counter(), &[]);
    }

    #[test]
    fn faulty_steps_match_scalar_exhaustively() {
        let m = counter();
        let mut faults: Vec<Fault> = Vec::new();
        for (i, cell) in m.cells().iter().enumerate() {
            if matches!(cell.kind, CellKind::Input | CellKind::Const(_)) {
                continue;
            }
            for effect in [FaultEffect::Flip, FaultEffect::Stuck0, FaultEffect::Stuck1] {
                faults.push(Fault {
                    site: FaultSite::CellOutput(CellId(i as u32)),
                    effect,
                });
            }
            for pin in 0..cell.pins.len() {
                faults.push(Fault {
                    site: FaultSite::Pin(CellId(i as u32), pin as u8),
                    effect: FaultEffect::Flip,
                });
            }
        }
        for &r in m.registers() {
            faults.push(Fault {
                site: FaultSite::Register(r),
                effect: FaultEffect::Flip,
            });
        }
        for &f in &faults {
            assert_matches_scalar(&m, &[f]);
        }
    }

    #[test]
    fn incremental_eval_equals_full_eval() {
        let m = counter();
        let ev = SymbolicEvaluator::new(&m);
        let mut b = Bdd::new();
        let base = ev.eval(&mut b, &[]);
        for (i, cell) in m.cells().iter().enumerate() {
            if matches!(cell.kind, CellKind::Input | CellKind::Const(_)) {
                continue;
            }
            let mut faults = vec![
                Fault {
                    site: FaultSite::CellOutput(CellId(i as u32)),
                    effect: FaultEffect::Flip,
                },
                Fault {
                    site: FaultSite::CellOutput(CellId(i as u32)),
                    effect: FaultEffect::Stuck1,
                },
            ];
            for pin in 0..cell.pins.len() {
                faults.push(Fault {
                    site: FaultSite::Pin(CellId(i as u32), pin as u8),
                    effect: FaultEffect::Stuck0,
                });
            }
            if cell.kind.is_sequential() {
                faults.push(Fault {
                    site: FaultSite::Register(CellId(i as u32)),
                    effect: FaultEffect::Flip,
                });
            }
            for fault in faults {
                let full = ev.eval(&mut b, &[fault]);
                let inc = ev.eval_fault_from(&mut b, &base, fault);
                assert_eq!(full.next_regs, inc.next_regs, "fault {fault:?}");
                assert_eq!(full.outputs, inc.outputs, "fault {fault:?}");
                assert_eq!(full.nets, inc.nets, "fault {fault:?}");
            }
        }
    }

    /// Identity sources: every register reads its own current-state
    /// variable and every input its input variable — the configuration
    /// under which guarded evaluation must reproduce [`eval`].
    fn identity_sources(ev: &SymbolicEvaluator<'_>, b: &mut Bdd) -> (Vec<BddRef>, Vec<BddRef>) {
        let regs = (0..ev.module().registers().len())
            .map(|i| b.var(ev.varmap().reg_current(i)))
            .collect();
        let inputs = (0..ev.module().inputs().len())
            .map(|i| b.var(ev.varmap().input(i)))
            .collect();
        (regs, inputs)
    }

    #[test]
    fn guarded_eval_with_true_guards_equals_plain_eval() {
        let m = counter();
        let ev = SymbolicEvaluator::new(&m);
        let mut b = Bdd::new();
        let mut faults: Vec<Fault> = vec![Fault {
            site: FaultSite::Register(m.registers()[0]),
            effect: FaultEffect::Flip,
        }];
        for (i, cell) in m.cells().iter().enumerate() {
            if matches!(cell.kind, CellKind::Input | CellKind::Const(_)) {
                continue;
            }
            for effect in [FaultEffect::Flip, FaultEffect::Stuck0, FaultEffect::Stuck1] {
                faults.push(Fault {
                    site: FaultSite::CellOutput(CellId(i as u32)),
                    effect,
                });
            }
            for pin in 0..cell.pins.len() {
                faults.push(Fault {
                    site: FaultSite::Pin(CellId(i as u32), pin as u8),
                    effect: FaultEffect::Flip,
                });
            }
        }
        for &fault in &faults {
            let plain = ev.eval(&mut b, &[fault]);
            let (regs, inputs) = identity_sources(&ev, &mut b);
            let guarded = ev
                .try_eval_guarded(&mut b, &regs, &inputs, &[(fault, BddRef::TRUE)])
                .expect("unbudgeted");
            // Canonicity: equal functions are handle-equal.
            assert_eq!(plain.next_regs, guarded.next_regs, "fault {fault:?}");
            assert_eq!(plain.outputs, guarded.outputs, "fault {fault:?}");
        }
        // FALSE guards make every fault vanish.
        let base = ev.eval(&mut b, &[]);
        let off: Vec<(Fault, BddRef)> = faults.iter().map(|&f| (f, BddRef::FALSE)).collect();
        let (regs, inputs) = identity_sources(&ev, &mut b);
        let guarded = ev
            .try_eval_guarded(&mut b, &regs, &inputs, &off)
            .expect("unbudgeted");
        assert_eq!(base.next_regs, guarded.next_regs);
        assert_eq!(base.outputs, guarded.outputs);
    }

    #[test]
    fn guarded_eval_selects_every_fault_subset_at_once() {
        // One evaluation with symbolic selectors, cofactored on each
        // concrete selector assignment, must match the unguarded
        // evaluation of exactly that fault subset.
        let m = counter();
        let ev = SymbolicEvaluator::new(&m);
        let mut b = Bdd::new();
        let faults = [
            Fault {
                site: FaultSite::Register(m.registers()[1]),
                effect: FaultEffect::Flip,
            },
            Fault {
                site: FaultSite::CellOutput(CellId(m.registers()[0].0)),
                effect: FaultEffect::Stuck1,
            },
            Fault {
                site: FaultSite::Pin(m.topo_order()[0], 0),
                effect: FaultEffect::Flip,
            },
        ];
        let sel_base = ev.varmap().var_count();
        let guarded_faults: Vec<(Fault, BddRef)> = faults
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, b.var(sel_base + i as u32)))
            .collect();
        let (regs, inputs) = identity_sources(&ev, &mut b);
        let joint = ev
            .try_eval_guarded(&mut b, &regs, &inputs, &guarded_faults)
            .expect("unbudgeted");
        let n_in = m.inputs().len();
        let n_reg = m.registers().len();
        for subset in 0u32..1 << faults.len() {
            let active: Vec<Fault> = faults
                .iter()
                .enumerate()
                .filter(|(i, _)| subset >> i & 1 == 1)
                .map(|(_, &f)| f)
                .collect();
            let expect = ev.eval(&mut b, &active);
            for bits in 0u64..1 << (n_in + n_reg) {
                let mut assignment = vec![false; (sel_base + faults.len() as u32) as usize];
                for i in 0..n_in {
                    assignment[ev.varmap().input(i) as usize] = bits >> i & 1 == 1;
                }
                for i in 0..n_reg {
                    assignment[ev.varmap().reg_current(i) as usize] = bits >> (n_in + i) & 1 == 1;
                }
                for i in 0..faults.len() {
                    assignment[(sel_base + i as u32) as usize] = subset >> i & 1 == 1;
                }
                for (r, (&j, &e)) in joint.next_regs.iter().zip(&expect.next_regs).enumerate() {
                    assert_eq!(
                        b.eval(j, &assignment),
                        b.eval(e, &assignment),
                        "next reg {r}, subset {subset:03b}, bits {bits:b}"
                    );
                }
                for (p, (&j, &e)) in joint.outputs.iter().zip(&expect.outputs).enumerate() {
                    assert_eq!(
                        b.eval(j, &assignment),
                        b.eval(e, &assignment),
                        "output {p}, subset {subset:03b}, bits {bits:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn guarded_eval_chains_steps_without_renaming() {
        // Feeding one step's next-state functions back as the next step's
        // register sources composes the transition function: two chained
        // steps of the counter add the two enable inputs.
        let m = counter();
        let ev = SymbolicEvaluator::new(&m);
        let mut b = Bdd::new();
        let (regs, inputs) = identity_sources(&ev, &mut b);
        let s1 = ev
            .try_eval_guarded(&mut b, &regs, &inputs, &[])
            .expect("unbudgeted");
        let en2 = vec![b.var(ev.varmap().var_count())]; // fresh second-cycle input
        let s2 = ev
            .try_eval_guarded(&mut b, &s1.next_regs, &en2, &[])
            .expect("unbudgeted");
        let mut sim = Simulator::new(&m);
        for bits in 0u64..1 << 4 {
            let (r0, r1, e1, e2) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4, bits & 8 == 8);
            sim.reset_to(&[r0, r1]);
            sim.step(&[e1]);
            sim.step(&[e2]);
            let mut assignment = vec![false; ev.varmap().var_count() as usize + 1];
            assignment[ev.varmap().input(0) as usize] = e1;
            assignment[ev.varmap().reg_current(0) as usize] = r0;
            assignment[ev.varmap().reg_current(1) as usize] = r1;
            assignment[ev.varmap().var_count() as usize] = e2;
            for (r, &f) in s2.next_regs.iter().enumerate() {
                assert_eq!(
                    b.eval(f, &assignment),
                    sim.register_values()[r],
                    "two-step state bit {r} at bits {bits:b}"
                );
            }
        }
    }

    #[test]
    fn varmap_orders_by_first_use_and_interleaves_primes() {
        let m = counter();
        let vm = VarMap::from_module(&m);
        // Every register's primed variable sits directly below its
        // current variable.
        for i in 0..m.registers().len() {
            assert_eq!(vm.reg_next(i), vm.reg_current(i) + 1);
        }
        // Variable indices are a permutation of 0..var_count.
        let mut all: Vec<u32> = (0..m.inputs().len()).map(|i| vm.input(i)).collect();
        for i in 0..m.registers().len() {
            all.push(vm.reg_current(i));
            all.push(vm.reg_next(i));
        }
        all.sort_unstable();
        assert_eq!(all, (0..vm.var_count()).collect::<Vec<_>>());
        // The quantification set is everything but the primes.
        assert_eq!(
            vm.unprimed_vars().len(),
            m.inputs().len() + m.registers().len()
        );
    }

    #[test]
    fn decode_assignment_defaults_dont_cares_to_false() {
        let m = counter();
        let vm = VarMap::from_module(&m);
        let (regs, inputs) = vm.decode_assignment(&[(vm.reg_current(1), true)]);
        assert_eq!(regs, vec![false, true]);
        assert_eq!(inputs, vec![false]);
    }

    #[test]
    fn reset_state_reads_dff_inits() {
        let mut mb = ModuleBuilder::new("inits");
        let a = mb.dff_uninit(true);
        let c = mb.dff_uninit(false);
        let na = mb.not(a);
        mb.set_dff_input(a, na);
        mb.set_dff_input(c, a);
        mb.output("a", a);
        let m = mb.finish().unwrap();
        let ev = SymbolicEvaluator::new(&m);
        assert_eq!(ev.reset_state(), vec![true, false]);
    }
}
