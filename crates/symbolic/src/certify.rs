//! Formal fault certification: per-site *proofs* of the detection
//! guarantee the simulation campaigns can only sample.
//!
//! For every fault site the engine builds the BDD of
//!
//! ```text
//! escape(s, x) = Reach(s) ∧ Assume(x) ∧ diverge(s, x) ∧ undetected(s, x) ∧ ¬alerted(s, x)
//! ```
//!
//! where `diverge` compares the faulty next-state functions against the
//! fault-free ones, `undetected` is the configuration's decode-level
//! escape condition (landing on a valid codeword for SCFI, agreeing
//! replica banks for redundancy, anything at all for the unprotected
//! lowering), `alerted` collects the configuration's detection output
//! ports, and `Assume` is the configuration's input-interface assumption
//! (its [`condition_words`](CertifyModel::condition_words) codebook). All
//! three are interpreted from the configuration's
//! [`ProtectionScheme`](scfi_faultsim::ProtectionScheme) descriptor. An
//! empty `escape` BDD is a
//! *proof*: over **all** reachable states and **all** admissible input
//! words, no single injection of that fault silently hijacks the next
//! transition — the paper's §3/§5 guarantee, closed over the whole input
//! space instead of the campaign's per-edge schedules. A non-empty BDD
//! yields a concrete witness assignment, which is replayed through the
//! scalar [`Simulator`] to confirm the hijack outside the symbolic
//! engine.
//!
//! The verdict vocabulary mirrors the campaign outcome classes
//! ([`Outcome`](scfi_faultsim::Outcome)): `ProvenMasked` (the fault is
//! never observable), `ProvenDetected` (observable somewhere, caught
//! everywhere), `Counterexample` (an escaping assignment exists) — plus
//! `Unknown`, the graceful-degradation verdict of a budgeted certifier
//! ([`CertifyBudget`]) whose BDD budget ran out mid-site. An `Unknown`
//! site carries the overflow reason and is *never* counted as proven;
//! callers fall back to exhaustive campaign sampling for those sites.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use scfi_netlist::{Module, Simulator};
use scfi_telemetry::Telemetry;

use scfi_faultsim::{Fault, FaultEffect, FaultSite, RunControl, WaveOracle};

use crate::bdd::{Bdd, BddOverflow, BddRef};
use crate::eval::{SymStep, SymbolicEvaluator};
use crate::reach::{try_reachable_states, Reachability};

/// A protected (or deliberately unprotected) netlist the certifier can
/// reason about — the campaign layer's
/// [`ProtectionScheme`](scfi_faultsim::ProtectionScheme): the
/// certifier builds its symbolic and concrete detection logic from the
/// scheme's [`detection`](scfi_faultsim::ProtectionScheme::detection) descriptor and its
/// input-space assumption from
/// [`condition_words`](scfi_faultsim::ProtectionScheme::condition_words).
pub use scfi_faultsim::ProtectionScheme as CertifyModel;

/// Builds the disjunction of exact-word matches `⋁_w (next == w)`.
fn word_match_any(
    b: &mut Bdd,
    next: &[BddRef],
    words: &[Vec<bool>],
) -> Result<BddRef, BddOverflow> {
    let mut any = BddRef::FALSE;
    for word in words {
        debug_assert_eq!(word.len(), next.len(), "codeword width mismatch");
        let mut cube = BddRef::TRUE;
        for (&bit, &value) in next.iter().zip(word) {
            let lit = if value { bit } else { b.try_not(bit)? };
            cube = b.try_and(cube, lit)?;
        }
        any = b.try_or(any, cube)?;
    }
    Ok(any)
}

/// A scheme's detection semantics, interpreted once per [`Certifier`]
/// from its descriptor: the decode-level "undetected" predicate in
/// symbolic and concrete form, the detection ports, and the input-space
/// assumption. The two forms agree by construction — both read the same
/// [`WaveOracle`] — and every symbolic counterexample is replayed
/// through the concrete side.
pub(crate) struct Detection {
    oracle: WaveOracle,
    /// The §5 condition codebook; `None` admits every input word.
    condition_words: Option<Vec<Vec<bool>>>,
    /// Output ports whose assertion during the faulty cycle counts as
    /// detection (SCFI: `alert` and `in_error`; redundancy: the mismatch
    /// `alert`; unprotected: none).
    pub(crate) ports: Vec<usize>,
}

impl Detection {
    fn new<M: CertifyModel>(model: &M) -> Self {
        let oracle = model.detection();
        let ports = oracle.alert_ports(model.module().outputs().len()).collect();
        // `undetected` excludes the zero ERROR word only through the
        // codeword match; a descriptor where that would not suffice
        // needs its own exclusion there.
        let zero_is_codeword = oracle
            .codewords()
            .iter()
            .any(|cw| cw.iter().all(|&bit| !bit));
        assert!(
            !oracle.zero_is_error() || oracle.invalid_is_detected() && !zero_is_codeword,
            "{}: a detected zero word must be a non-codeword",
            model.name()
        );
        Detection {
            oracle,
            condition_words: model.condition_words(),
            ports,
        }
    }

    /// Symbolic decode-level escape condition: the BDD of "the faulty
    /// next-state word `next` would *not* be flagged by decoding" —
    /// replica banks agreeing, and (per the descriptor) landing on a
    /// codeword. `TRUE` for a scheme without decode-level detection.
    pub(crate) fn undetected(&self, b: &mut Bdd, next: &[BddRef]) -> Result<BddRef, BddOverflow> {
        let o = &self.oracle;
        let mut undetected = BddRef::TRUE;
        if let Some(sb) = o.replica_bank_bits() {
            for bank in next.chunks(sb).skip(1) {
                for (&a, &c) in next[..sb].iter().zip(bank) {
                    let eq = b.try_xnor(a, c)?;
                    undetected = b.try_and(undetected, eq)?;
                }
            }
        }
        if o.invalid_is_detected() {
            // Escaping means landing on some codeword.
            // No `TRUE ∧ valid`: every operation counts against the
            // per-site step budget.
            let valid = word_match_any(b, &next[..o.decode_width()], o.codewords())?;
            undetected = if undetected == BddRef::TRUE {
                valid
            } else {
                b.try_and(undetected, valid)?
            };
        }
        Ok(undetected)
    }

    /// Concrete counterpart of [`undetected`](Self::undetected).
    pub(crate) fn undetected_concrete(&self, next: &[bool]) -> bool {
        self.oracle.undetected(next)
    }

    /// Whether any detection port is asserted in the sampled `outputs`.
    pub(crate) fn alerted(&self, outputs: &[bool]) -> bool {
        self.ports.iter().any(|&p| outputs[p])
    }

    /// The input-space assumption the certification quantifies under,
    /// over the module's input-port functions `inputs`.
    ///
    /// The paper's interface assumption (§5) is that the driving modules
    /// deliver the encoded control word with its full Hamming distance —
    /// a non-codeword `xe` is itself a fault event, not a legal input, so
    /// admitting it would certify a *two*-fault attacker against a
    /// single-fault claim. The protected configurations therefore
    /// restrict `xe` to valid condition codewords; the unprotected
    /// lowering takes raw control signals, where every word is legal.
    pub(crate) fn assumption(&self, b: &mut Bdd, inputs: &[BddRef]) -> Result<BddRef, BddOverflow> {
        match &self.condition_words {
            Some(words) => word_match_any(b, inputs, words),
            None => Ok(BddRef::TRUE),
        }
    }
}

/// A concrete escaping assignment extracted from a non-empty escape BDD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Register preload (fault-free; register flips are applied on top by
    /// the replay, exactly like the campaign executors).
    pub regs: Vec<bool>,
    /// Input-port assignment for the attacked cycle.
    pub inputs: Vec<bool>,
    /// `true` once the scalar-simulator replay confirmed the hijack.
    pub confirmed: bool,
}

/// The certified verdict for one fault site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Proof: on every reachable state and input assignment the fault
    /// changes neither the committed next state nor any detection line —
    /// it can never be observed, let alone exploited.
    ProvenMasked,
    /// Proof: the fault is observable somewhere, but every reachable
    /// assignment on which the faulty run diverges is caught (invalid /
    /// error landing or an asserted detection line). No silent hijack
    /// exists.
    ProvenDetected,
    /// Refutation: the witness assignment drives the faulty run into a
    /// valid-but-wrong next state with every detection line low.
    Counterexample(Witness),
    /// Degradation: the certifier's BDD budget ([`CertifyBudget`]) ran
    /// out before this site was decided. The site is *not* proven and
    /// *not* refuted — callers fall back to exhaustive campaign sampling
    /// for it. A budget overflow is never converted into a proof.
    Unknown {
        /// The [`BddOverflow`] description that stopped the site.
        reason: String,
    },
}

impl Verdict {
    /// `true` for either proof variant — and, deliberately, `false` for
    /// [`Verdict::Unknown`]: an undecided site never strengthens a
    /// guarantee claim.
    pub fn is_proven(&self) -> bool {
        matches!(self, Verdict::ProvenMasked | Verdict::ProvenDetected)
    }
}

/// One certified fault site.
#[derive(Clone, Debug)]
pub struct SiteReport {
    /// The certified fault.
    pub fault: Fault,
    /// Its verdict.
    pub verdict: Verdict,
}

/// The full certification result for one module and fault list.
#[derive(Clone, Debug)]
pub struct CertificationReport {
    /// Configuration tag of the certified model.
    pub config: &'static str,
    /// Module name.
    pub module: String,
    /// Per-site verdicts, in fault-list order.
    pub sites: Vec<SiteReport>,
    /// Exact number of reachable register states.
    pub reachable_states: u64,
    /// Register (state-vector) width.
    pub state_bits: usize,
    /// Input-port count — the proof quantifies over all `2^input_bits`
    /// words.
    pub input_bits: usize,
}

impl CertificationReport {
    /// Sites proven detected.
    pub fn proven_detected(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| matches!(s.verdict, Verdict::ProvenDetected))
            .count()
    }

    /// Sites proven masked (never observable).
    pub fn proven_masked(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| matches!(s.verdict, Verdict::ProvenMasked))
            .count()
    }

    /// Sites with a counterexample.
    pub fn counterexamples(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| matches!(s.verdict, Verdict::Counterexample(_)))
            .count()
    }

    /// Sites left undecided by a budget overflow
    /// ([`Verdict::Unknown`]).
    pub fn unknown(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| matches!(s.verdict, Verdict::Unknown { .. }))
            .count()
    }

    /// `true` when every site is proven (no counterexamples *and* no
    /// budget-degraded unknowns) — the paper's detection guarantee holds
    /// for the whole fault list.
    pub fn all_proven(&self) -> bool {
        self.sites.iter().all(|s| s.verdict.is_proven())
    }

    /// Iterates the counterexample sites.
    pub fn counterexample_sites(&self) -> impl Iterator<Item = (&Fault, &Witness)> {
        self.sites.iter().filter_map(|s| match &s.verdict {
            Verdict::Counterexample(w) => Some((&s.fault, w)),
            _ => None,
        })
    }

    /// Escaping sites grouped per cell: `(cell id, escapes, certified
    /// sites)` for every cell with at least one counterexample, ranked
    /// most escapes first (cell id breaks ties) — the same ordering
    /// convention as
    /// [`VulnerabilityMap::ranked_by_hijacks`](scfi_faultsim::VulnerabilityMap::ranked_by_hijacks),
    /// so the designer's hardening worklist reads the same whether it
    /// came from sampling or from proof.
    pub fn ranked_escaping_cells(&self) -> Vec<(u32, usize, usize)> {
        use std::cmp::Reverse;
        use std::collections::HashMap;
        let mut by_cell: HashMap<u32, (usize, usize)> = HashMap::new();
        for site in &self.sites {
            let cell = match site.fault.site {
                FaultSite::CellOutput(c) | FaultSite::Pin(c, _) | FaultSite::Register(c) => c.0,
            };
            let entry = by_cell.entry(cell).or_default();
            entry.1 += 1;
            if matches!(site.verdict, Verdict::Counterexample(_)) {
                entry.0 += 1;
            }
        }
        let mut ranked: Vec<(u32, usize, usize)> = by_cell
            .into_iter()
            .filter(|&(_, (escapes, _))| escapes > 0)
            .map(|(cell, (escapes, sites))| (cell, escapes, sites))
            .collect();
        ranked.sort_by_key(|&(cell, escapes, _)| (Reverse(escapes), cell));
        ranked
    }

    /// A [`Display`](fmt::Display) adapter rendering the escaping-site
    /// set as a ranked designer report (the `certify --all-gates` view):
    /// one row per escaping cell, worst first, 16-row excerpt with an
    /// explicit "… and K more" footer — the
    /// [`VulnerabilityMap`](scfi_faultsim::VulnerabilityMap) conventions.
    pub fn escape_ranking(&self) -> EscapeRanking<'_> {
        EscapeRanking(self)
    }
}

/// Ranked escaping-cell view of a [`CertificationReport`]; see
/// [`CertificationReport::escape_ranking`].
pub struct EscapeRanking<'r>(&'r CertificationReport);

impl fmt::Display for EscapeRanking<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ranked = self.0.ranked_escaping_cells();
        writeln!(
            f,
            "{} certified sites; {} escapes through {} cells",
            self.0.sites.len(),
            self.0.counterexamples(),
            ranked.len()
        )?;
        for &(cell, escapes, sites) in ranked.iter().take(16) {
            writeln!(f, "  c{cell:<6} {escapes:>4} escapes / {sites:>5} sites")?;
        }
        // The ranking is an excerpt; say so instead of silently dropping
        // the tail of the escaping-cell list.
        if ranked.len() > 16 {
            writeln!(f, "  … and {} more escaping cells", ranked.len() - 16)?;
        }
        Ok(())
    }
}

impl fmt::Display for CertificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "certified {} ({}): {} fault sites over {} reachable states x 2^{} input words",
            self.module,
            self.config,
            self.sites.len(),
            self.reachable_states,
            self.input_bits
        )?;
        write!(
            f,
            "  proven detected: {}, proven masked: {}, counterexamples: {}",
            self.proven_detected(),
            self.proven_masked(),
            self.counterexamples()
        )?;
        if self.unknown() > 0 {
            write!(f, ", unknown (budget exhausted): {}", self.unknown())?;
        }
        Ok(())
    }
}

/// Resource budget for a [`Certifier`]: caps on BDD nodes, per-site
/// operation steps, and wall-clock time. The default is unlimited —
/// identical to [`Certifier::new`]'s behavior.
///
/// The node budget is cumulative over the certifier's lifetime (BDD
/// nodes are hash-consed and never freed); the step limit is reset per
/// certified site, so it bounds the *hardest single site* rather than
/// the whole report; the timeout is an absolute deadline armed at
/// construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct CertifyBudget {
    max_nodes: Option<usize>,
    max_steps: Option<u64>,
    timeout: Option<Duration>,
}

impl CertifyBudget {
    /// No limits at all (the [`Default`]).
    pub fn unlimited() -> Self {
        CertifyBudget::default()
    }

    /// Caps the BDD manager at `n` nodes (cumulative).
    pub fn max_nodes(mut self, n: usize) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Caps each certified site at `n` BDD operation steps.
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// Arms a wall-clock deadline `d` from certifier construction.
    pub fn timeout(mut self, d: Duration) -> Self {
        self.timeout = Some(d);
        self
    }
}

/// The certification engine: owns the BDD manager, the symbolic
/// evaluator, the fault-free base step and the reachable-state set, and
/// certifies fault sites against them.
///
/// # Example
///
/// ```
/// use scfi_core::{harden, ScfiConfig};
/// use scfi_faultsim::{enumerate_faults, CampaignConfig};
/// use scfi_fsm::parse_fsm;
/// use scfi_symbolic::Certifier;
///
/// let fsm = parse_fsm("fsm m { inputs a; state P { if a -> Q; } state Q { goto P; } }")?;
/// let h = harden(&fsm, &ScfiConfig::new(3))?;
/// let faults = enumerate_faults(
///     h.module(),
///     &CampaignConfig::new().effects(vec![]).with_register_flips(),
/// );
/// let mut certifier = Certifier::new(&h);
/// let report = certifier.certify_all(&faults);
/// // The paper's guarantee, *proved*: no single register-bit flip can
/// // hijack control flow from any reachable state under any input word.
/// assert!(report.all_proven());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Certifier<'m, M: CertifyModel> {
    pub(crate) model: &'m M,
    pub(crate) evaluator: SymbolicEvaluator<'m>,
    pub(crate) bdd: Bdd,
    pub(crate) base: SymStep,
    pub(crate) reach: Reachability,
    /// The model's input-space assumption over the input variables.
    pub(crate) assumption: BddRef,
    pub(crate) detection: Detection,
    /// Observability handle ([`Telemetry::off`] unless installed via
    /// [`with_instruments`](Self::with_instruments)); recording never
    /// changes any verdict or report byte.
    telemetry: Telemetry,
    /// `(hits, misses)` already flushed to the telemetry counters, so the
    /// cumulative [`Bdd`] totals can be exported as monotone deltas.
    flushed_ite: (u64, u64),
}

impl<'m, M: CertifyModel> Certifier<'m, M> {
    /// Builds the fault-free symbolic step, the input-space assumption
    /// and the reachability fixpoint for `model`'s module, with no
    /// resource limits.
    pub fn new(model: &'m M) -> Self {
        Certifier::with_budget(model, CertifyBudget::unlimited())
            .expect("an unbudgeted certifier cannot overflow")
    }

    /// [`new`](Self::new) under a [`CertifyBudget`]. The setup work (the
    /// fault-free symbolic step and the reachability fixpoint) is itself
    /// budgeted: if it overflows, no certifier exists and the error is
    /// returned — use [`degraded_report`](Self::degraded_report) to
    /// produce the all-[`Unknown`](Verdict::Unknown) report for that
    /// case. Per-site overflows after a successful setup degrade to
    /// per-site `Unknown` verdicts instead (see [`certify`](Self::certify)).
    pub fn with_budget(model: &'m M, budget: CertifyBudget) -> Result<Self, BddOverflow> {
        Certifier::with_instruments(model, budget, Telemetry::off(), None)
    }

    /// [`with_budget`](Self::with_budget) plus the two cross-cutting
    /// instruments the observability layer threads through every engine:
    /// a [`Telemetry`] handle (per-phase durations, per-site step and
    /// latency histograms, `ite`-cache hit/miss counters and the
    /// node-table high-water gauge — all no-ops on [`Telemetry::off`])
    /// and an optional [`RunControl`] whose cancel flag is polled inside
    /// the BDD step loop, so cancelling a running certification aborts
    /// within a few thousand operation steps instead of running the
    /// current site to completion. A cancelled setup returns
    /// [`BddOverflow::Cancelled`]; a cancelled site degrades to
    /// [`Verdict::Unknown`], never a fabricated proof. Neither instrument
    /// changes any verdict.
    pub fn with_instruments(
        model: &'m M,
        budget: CertifyBudget,
        telemetry: Telemetry,
        cancel: Option<RunControl>,
    ) -> Result<Self, BddOverflow> {
        let evaluator = SymbolicEvaluator::new(model.module());
        let mut bdd = Bdd::new();
        if let Some(n) = budget.max_nodes {
            bdd.set_node_budget(n);
        }
        if let Some(t) = budget.timeout {
            if let Some(deadline) = Instant::now().checked_add(t) {
                bdd.set_deadline(deadline);
            }
        }
        if let Some(control) = cancel {
            bdd.set_cancel_probe(Arc::new(move || control.is_cancelled()));
        }
        let setup_start = telemetry.enabled().then(Instant::now);
        let base = evaluator.try_eval(&mut bdd, &[])?;
        let input_vars = (0..model.module().inputs().len())
            .map(|i| bdd.try_var(evaluator.varmap().input(i)))
            .collect::<Result<Vec<BddRef>, _>>()?;
        let detection = Detection::new(model);
        let assumption = detection.assumption(&mut bdd, &input_vars)?;
        let reach_start = telemetry.enabled().then(|| {
            let now = Instant::now();
            if let Some(start) = setup_start {
                let elapsed = now - start;
                telemetry
                    .histogram("scfi_certify_setup_ns")
                    .observe_duration(elapsed);
                telemetry.record_span("certify_setup", start, elapsed);
            }
            now
        });
        let reach = try_reachable_states(&mut bdd, &evaluator, &base, assumption)?;
        if let Some(start) = reach_start {
            let elapsed = start.elapsed();
            telemetry
                .histogram("scfi_certify_reach_ns")
                .observe_duration(elapsed);
            telemetry.record_span("certify_reach", start, elapsed);
        }
        // The step limit is a *per-site* allowance (reset before each
        // `certify` call), so it is armed only after the one-time setup:
        // setup is bounded by the node budget and the deadline instead.
        if let Some(s) = budget.max_steps {
            bdd.set_step_limit(s);
        }
        let mut certifier = Certifier {
            model,
            evaluator,
            bdd,
            base,
            reach,
            assumption,
            detection,
            telemetry,
            flushed_ite: (0, 0),
        };
        certifier.flush_bdd_stats();
        Ok(certifier)
    }

    /// Exports the BDD manager's cumulative cache statistics and node
    /// high-water mark as monotone telemetry series. No-op without a
    /// recording handle.
    pub(crate) fn flush_bdd_stats(&mut self) {
        if !self.telemetry.enabled() {
            return;
        }
        let (hits, misses) = (self.bdd.ite_cache_hits(), self.bdd.ite_cache_misses());
        self.telemetry
            .counter("scfi_bdd_ite_cache_hits_total")
            .add(hits - self.flushed_ite.0);
        self.telemetry
            .counter("scfi_bdd_ite_cache_misses_total")
            .add(misses - self.flushed_ite.1);
        self.flushed_ite = (hits, misses);
        self.telemetry
            .gauge("scfi_bdd_nodes_high_water")
            .record_max(self.bdd.node_count() as u64);
    }

    /// The all-[`Unknown`](Verdict::Unknown) report for a setup-phase
    /// budget overflow: every site undecided, with `overflow`'s
    /// description as the shared reason. Keeps the "over budget means
    /// Unknown, never a fabricated proof" contract even when the budget
    /// is too small to build the certifier at all.
    pub fn degraded_report(
        model: &M,
        faults: &[Fault],
        overflow: BddOverflow,
    ) -> CertificationReport {
        CertificationReport {
            config: model.name(),
            module: model.module().name().to_string(),
            sites: faults
                .iter()
                .map(|&fault| SiteReport {
                    fault,
                    verdict: Verdict::Unknown {
                        reason: overflow.to_string(),
                    },
                })
                .collect(),
            reachable_states: 0,
            state_bits: model.module().registers().len(),
            input_bits: model.module().inputs().len(),
        }
    }

    /// Exact count of reachable register states.
    pub fn reachable_state_count(&self) -> u64 {
        self.bdd
            .sat_count(self.reach.states, &self.evaluator.varmap().current_vars()) as u64
    }

    /// The reachability fixpoint (for diagnostics and tests).
    pub fn reachability(&self) -> Reachability {
        self.reach
    }

    /// Membership query: is the concrete register state `regs` in the
    /// reachable set?
    ///
    /// # Panics
    ///
    /// Panics on register-count mismatch.
    pub fn state_is_reachable(&self, regs: &[bool]) -> bool {
        let vm = self.evaluator.varmap();
        assert_eq!(
            regs.len(),
            self.model.module().registers().len(),
            "register count mismatch"
        );
        let mut assignment = vec![false; vm.var_count() as usize];
        for (i, &v) in regs.iter().enumerate() {
            assignment[vm.reg_current(i) as usize] = v;
        }
        self.bdd.eval(self.reach.states, &assignment)
    }

    /// The symbolic evaluator (for diagnostics and tests).
    pub fn evaluator(&self) -> &SymbolicEvaluator<'m> {
        &self.evaluator
    }

    /// Certifies one fault site.
    ///
    /// Under a [`CertifyBudget`], the per-site step counter is reset
    /// first, and a mid-site budget overflow degrades to
    /// [`Verdict::Unknown`] carrying the overflow reason — the site is
    /// reported undecided, never proven. Unbudgeted certifiers cannot
    /// overflow.
    pub fn certify(&mut self, fault: Fault) -> Verdict {
        self.bdd.reset_steps();
        let site_start = self.telemetry.enabled().then(Instant::now);
        let verdict = match self.certify_inner(fault) {
            Ok(verdict) => verdict,
            Err(overflow) => Verdict::Unknown {
                reason: overflow.to_string(),
            },
        };
        if let Some(start) = site_start {
            let elapsed = start.elapsed();
            self.telemetry
                .histogram("scfi_certify_site_ns")
                .observe_duration(elapsed);
            self.telemetry
                .histogram("scfi_certify_steps_per_site")
                .observe(self.bdd.steps());
            self.telemetry.record_span("certify_site", start, elapsed);
            self.flush_bdd_stats();
        }
        verdict
    }

    fn certify_inner(&mut self, fault: Fault) -> Result<Verdict, BddOverflow> {
        let faulty = self
            .evaluator
            .try_eval_fault_from(&mut self.bdd, &self.base, fault)?;
        // Disjunction of the detection lines in a step (BddRefs are Copy,
        // so collecting them first keeps the borrows disjoint).
        let or_ports =
            |b: &mut Bdd, step: &SymStep, ports: &[usize]| -> Result<BddRef, BddOverflow> {
                let mut any = BddRef::FALSE;
                for &p in ports {
                    any = b.try_or(any, step.outputs[p])?;
                }
                Ok(any)
            };
        let ports = &self.detection.ports;
        let b = &mut self.bdd;

        // diverge: the committed next state differs somewhere.
        let mut diverge = BddRef::FALSE;
        for (&free, &bad) in self.base.next_regs.iter().zip(&faulty.next_regs) {
            let d = b.try_xor(free, bad)?;
            diverge = b.try_or(diverge, d)?;
        }

        let undetected = self.detection.undetected(b, &faulty.next_regs)?;
        let alerted = or_ports(b, &faulty, ports)?;
        let quiet = b.try_not(alerted)?;
        let escape = {
            let e = b.try_and(diverge, undetected)?;
            let e = b.try_and(e, quiet)?;
            let e = b.try_and(e, self.assumption)?;
            b.try_and(e, self.reach.states)?
        };

        if escape != BddRef::FALSE {
            let assignment = b.sat_one(escape).expect("non-false BDD has a model");
            let (regs, inputs) = self.evaluator.varmap().decode_assignment(&assignment);
            let confirmed = self.replay(fault, &regs, &inputs);
            Ok(Verdict::Counterexample(Witness {
                regs,
                inputs,
                confirmed,
            }))
        } else {
            // No escape: distinguish "never observable" from "caught".
            // The observability test uses the campaign's observables —
            // the committed state and the detection lines, not the Moore
            // outputs (a Moore-only glitch is Masked in §6.4 terms too).
            let base_alert = or_ports(b, &self.base, ports)?;
            let faulty_alert = or_ports(b, &faulty, ports)?;
            let alert_diff = b.try_xor(base_alert, faulty_alert)?;
            let observable = b.try_or(diverge, alert_diff)?;
            let effect = b.try_and(observable, self.reach.states)?;
            let effect = b.try_and(effect, self.assumption)?;
            if effect == BddRef::FALSE {
                Ok(Verdict::ProvenMasked)
            } else {
                Ok(Verdict::ProvenDetected)
            }
        }
    }

    /// Certifies every fault in `faults` and assembles the report.
    pub fn certify_all(&mut self, faults: &[Fault]) -> CertificationReport {
        let sites = faults
            .iter()
            .map(|&fault| SiteReport {
                fault,
                verdict: self.certify(fault),
            })
            .collect();
        CertificationReport {
            config: self.model.name(),
            module: self.model.module().name().to_string(),
            sites,
            reachable_states: self.reachable_state_count(),
            state_bits: self.model.module().registers().len(),
            input_bits: self.model.module().inputs().len(),
        }
    }

    /// Replays a witness through the scalar simulator and checks the
    /// hijack concretely: the faulty run must land on an undetected word
    /// that differs from the fault-free run, with every detection line
    /// low.
    fn replay(&self, fault: Fault, regs: &[bool], inputs: &[bool]) -> bool {
        self.replay_group(&[fault], regs, inputs)
    }

    /// [`replay`](Self::replay) for a whole fault group injected at once —
    /// the joint certification's witness confirmation.
    pub(crate) fn replay_group(&self, faults: &[Fault], regs: &[bool], inputs: &[bool]) -> bool {
        let module = self.model.module();
        let mut sim = Simulator::new(module);

        sim.reset_to(regs);
        let free_out = sim.step(inputs);
        let free_next = sim.register_values().to_vec();
        debug_assert_eq!(free_out.len(), module.outputs().len());

        sim.clear_faults();
        sim.reset_to(regs);
        // Witness replay arms through the campaign layer's own `arm`, so
        // the two oracles can never drift on injection semantics.
        for &fault in faults {
            scfi_faultsim::arm(&mut sim, fault);
        }
        let bad_out = sim.step(inputs);
        let bad_next = sim.register_values().to_vec();

        let diverged = bad_next != free_next;
        diverged
            && self.detection.undetected_concrete(&bad_next)
            && !self.detection.alerted(&bad_out)
    }
}

/// One-line human description of a fault site (for per-site CLI output).
pub fn describe_fault(module: &Module, fault: Fault) -> String {
    let effect = match fault.effect {
        FaultEffect::Flip => "flip",
        FaultEffect::Stuck0 => "stuck-at-0",
        FaultEffect::Stuck1 => "stuck-at-1",
    };
    match fault.site {
        FaultSite::CellOutput(c) => {
            format!(
                "{effect} on output of c{} ({})",
                c.0,
                module.cell(c).kind.mnemonic()
            )
        }
        FaultSite::Pin(c, p) => format!(
            "{effect} on pin {p} of c{} ({})",
            c.0,
            module.cell(c).kind.mnemonic()
        ),
        FaultSite::Register(c) => {
            let pos = module.register_position(c).unwrap_or(usize::MAX);
            format!("stored-bit flip on register {pos} (c{})", c.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfi_core::{harden, redundancy, ScfiConfig};
    use scfi_faultsim::{enumerate_faults, AlertModel, CampaignConfig, Outcome, ProtectionScheme};
    use scfi_fsm::{lower_unprotected, parse_fsm, Fsm, StateId};

    fn fsm() -> Fsm {
        parse_fsm(
            "fsm m { inputs a, b;
               state S0 { if a -> S1; if b -> S2; }
               state S1 { if b -> S2; }
               state S2 { goto S0; } }",
        )
        .unwrap()
    }

    fn register_fault_config(module: &Module) -> CampaignConfig {
        CampaignConfig::new().register_region(module)
    }

    #[test]
    fn scfi_register_faults_are_proven_detected() {
        for n in [2, 3] {
            let h = harden(&fsm(), &ScfiConfig::new(n)).unwrap();
            let faults = enumerate_faults(h.module(), &register_fault_config(h.module()));
            assert!(!faults.is_empty());
            let mut certifier = Certifier::new(&h);
            let report = certifier.certify_all(&faults);
            assert!(report.all_proven(), "N={n}: {report}");
            assert_eq!(report.counterexamples(), 0);
            // A register fault is always observable somewhere reachable.
            assert_eq!(report.proven_detected(), faults.len(), "N={n}: {report}");
            // Reachable states: the three operational codewords + ERROR.
            assert_eq!(report.reachable_states, 4, "N={n}");
        }
    }

    #[test]
    fn redundancy_register_faults_are_proven_detected() {
        let r = redundancy(&fsm(), 2).unwrap();
        let faults = enumerate_faults(r.module(), &register_fault_config(r.module()));
        let mut certifier = Certifier::new(&r);
        let report = certifier.certify_all(&faults);
        assert!(report.all_proven(), "{report}");
    }

    #[test]
    fn unprotected_register_faults_yield_confirmed_counterexamples() {
        let f = fsm();
        let lowered = lower_unprotected(&f).unwrap();
        let faults = enumerate_faults(lowered.module(), &register_fault_config(lowered.module()));
        let mut certifier = Certifier::new(&lowered);
        let report = certifier.certify_all(&faults);
        assert!(
            report.counterexamples() > 0,
            "an unprotected FSM must be refutable: {report}"
        );
        for (fault, witness) in report.counterexample_sites() {
            assert!(
                witness.confirmed,
                "witness for {fault:?} did not replay to a concrete hijack"
            );
        }
    }

    #[test]
    fn scfi_reachable_set_is_codewords_plus_error() {
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let certifier = Certifier::new(&h);
        // Three operational codewords plus the all-zero ERROR word.
        assert_eq!(certifier.reachable_state_count(), 4);
        assert!(certifier.reachability().iterations >= 2);
        assert_eq!(certifier.evaluator().module().name(), h.module().name());
    }

    #[test]
    fn masked_verdicts_exist_for_redundant_logic() {
        // A fault on a net whose value never reaches registers or
        // detection ports must certify as ProvenMasked. Build a module
        // with a dangling-but-driven Moore-style output cone.
        use scfi_netlist::ModuleBuilder;
        let mut mb = ModuleBuilder::new("deadend");
        let a = mb.input("a");
        let q = mb.dff_uninit(false);
        let toggle = mb.xor2(q, a); // next state depends on the register
        mb.set_dff_input(q, toggle);
        let moore = mb.and2(q, a); // feeds only an output port
        mb.output("q", q);
        mb.output("moore", moore);
        let m = mb.finish().unwrap();
        // Certify under the unprotected semantics (no detection ports):
        // faults on the Moore cone never touch the committed state.
        struct Raw<'a>(&'a Module);
        impl ProtectionScheme for Raw<'_> {
            fn module(&self) -> &Module {
                self.0
            }
            fn name(&self) -> &'static str {
                "raw"
            }
            fn detection(&self) -> WaveOracle {
                WaveOracle::new(
                    vec![vec![false], vec![true]],
                    false,
                    false,
                    AlertModel::None,
                )
            }
            fn condition_words(&self) -> Option<Vec<Vec<bool>>> {
                None
            }
            fn preload(&self, state: StateId) -> Vec<bool> {
                vec![state.0 == 1]
            }
            fn classify_landing(&self, regs: &[bool], _: &[bool], expected: StateId) -> Outcome {
                if regs == self.preload(expected) {
                    Outcome::Masked
                } else {
                    Outcome::Hijack
                }
            }
        }
        let model = Raw(&m);
        let mut certifier = Certifier::new(&model);
        let moore_fault = Fault {
            site: FaultSite::CellOutput(moore.cell()),
            effect: FaultEffect::Flip,
        };
        assert_eq!(certifier.certify(moore_fault), Verdict::ProvenMasked);
        // Whereas a register-bit flip diverges (and, with no detection
        // mechanism, is a counterexample).
        let reg_fault = Fault {
            site: FaultSite::Register(q.cell()),
            effect: FaultEffect::Flip,
        };
        match certifier.certify(reg_fault) {
            Verdict::Counterexample(w) => assert!(w.confirmed),
            other => panic!("register flip must escape the raw model, got {other:?}"),
        }
    }

    /// Lanes of a scheme-consistency batch: register files sharing one
    /// output sample, classified against every expected state.
    fn check_batch<M: CertifyModel>(
        model: &M,
        detection: &Detection,
        regs_batch: &[Vec<bool>],
        outputs: &[bool],
        what: &str,
    ) {
        let oracle = model.detection();
        let words = |bits: &dyn Fn(usize, usize) -> bool, width: usize| -> Vec<[u64; 1]> {
            (0..width)
                .map(|i| {
                    let mut w = 0u64;
                    for lane in 0..regs_batch.len() {
                        w |= u64::from(bits(lane, i)) << lane;
                    }
                    [w]
                })
                .collect()
        };
        let reg_words = words(&|lane, i| regs_batch[lane][i], regs_batch[0].len());
        let out_words = words(&|_, i| outputs[i], outputs.len());
        let detected = oracle.detected_word(0, &reg_words, &out_words);
        let live = u64::MAX >> (64 - regs_batch.len());
        for (e, codeword) in oracle.codewords().iter().enumerate() {
            let (det, hij) = oracle.classify_word(detected, e, 0, live, &reg_words);
            for (lane, regs) in regs_batch.iter().enumerate() {
                let caught = !detection.undetected_concrete(regs) || detection.alerted(outputs);
                let verdict = if caught {
                    Outcome::Detected
                } else if regs[..codeword.len()] == codeword[..] {
                    Outcome::Masked
                } else {
                    Outcome::Hijack
                };
                let reference = model.classify_landing(regs, outputs, StateId(e));
                assert_eq!(
                    verdict, reference,
                    "{what}: descriptor vs classify_landing, expected state {e}, regs {regs:?}, outputs {outputs:?}"
                );
                let word = match (det >> lane & 1, hij >> lane & 1) {
                    (1, _) => Outcome::Detected,
                    (_, 1) => Outcome::Hijack,
                    _ => Outcome::Masked,
                };
                assert_eq!(
                    word, reference,
                    "{what}: word oracle, state {e}, lane {lane}"
                );
            }
        }
    }

    /// Checks one scheme's descriptor — read concretely, word-parallel and
    /// symbolically — against its hand-written `classify_landing`.
    fn check_scheme<M: CertifyModel>(model: &M, what: &str) {
        let detection = Detection::new(model);
        let module = model.module();
        let (n_regs, n_outputs) = (module.registers().len(), module.outputs().len());
        let mut rng = 0x5C4E_3E5Eu64;
        let mut random_bits = |n: usize| -> Vec<bool> {
            (0..n)
                .map(|_| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng & 1 == 1
                })
                .collect()
        };
        // Every state's register file, each single-bit flip of it, the
        // zero word and random words.
        let mut regs_set = vec![vec![false; n_regs]];
        for s in 0..model.detection().codewords().len() {
            let preload = model.preload(StateId(s));
            for i in 0..n_regs {
                let mut flipped = preload.clone();
                flipped[i] = !flipped[i];
                regs_set.push(flipped);
            }
            regs_set.push(preload);
        }
        for _ in 0..64 {
            regs_set.push(random_bits(n_regs));
        }
        let mut outputs_set = vec![vec![false; n_outputs], vec![true; n_outputs]];
        for port in 0..n_outputs {
            let mut one = vec![false; n_outputs];
            one[port] = true;
            outputs_set.push(one);
        }
        outputs_set.push(random_bits(n_outputs));

        // The symbolic predicate over plain register variables agrees
        // with the concrete one on every word.
        let mut b = Bdd::new();
        let vars: Vec<BddRef> = (0..n_regs).map(|i| b.var(i as u32)).collect();
        let undetected = detection.undetected(&mut b, &vars).expect("unbudgeted");
        for regs in &regs_set {
            assert_eq!(
                b.eval(undetected, regs),
                detection.undetected_concrete(regs),
                "{what}: symbolic vs concrete undetected on {regs:?}"
            );
        }
        for outputs in &outputs_set {
            for batch in regs_set.chunks(64) {
                check_batch(model, &detection, batch, outputs, what);
            }
        }
    }

    /// The scheme-consistency check: on every Table-1 FSM at N ∈ {2, 3},
    /// each scheme's detection descriptor — as the certifier's concrete
    /// and symbolic "undetected" plus its detection ports, and as the
    /// word-parallel oracle — classifies every codeword, single-bit
    /// near-miss, the zero word and random register/output words exactly
    /// like the scheme's hand-written `classify_landing`.
    #[test]
    fn scheme_descriptors_agree_with_hand_written_classification() {
        for bench in scfi_opentitan::all() {
            for n in [2, 3] {
                let h = harden(&bench.fsm, &ScfiConfig::new(n)).unwrap();
                check_scheme(&h, &format!("{} scfi N={n}", bench.name));
                let r = redundancy(&bench.fsm, n).unwrap();
                check_scheme(&r, &format!("{} redundancy N={n}", bench.name));
            }
            let lowered = lower_unprotected(&bench.fsm).unwrap();
            check_scheme(&lowered, &format!("{} unprotected", bench.name));
        }
    }

    #[test]
    fn report_display_and_counters() {
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let faults = enumerate_faults(h.module(), &register_fault_config(h.module()));
        let mut certifier = Certifier::new(&h);
        let report = certifier.certify_all(&faults);
        let text = report.to_string();
        assert!(text.contains("certified"), "{text}");
        assert!(text.contains("reachable states"), "{text}");
        assert!(text.contains("counterexamples: 0"), "{text}");
        assert_eq!(
            report.sites.len(),
            report.proven_detected() + report.proven_masked() + report.counterexamples()
        );
    }

    #[test]
    fn generous_budget_matches_the_unbudgeted_report() {
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let faults = enumerate_faults(h.module(), &register_fault_config(h.module()));
        let unbudgeted = Certifier::new(&h).certify_all(&faults);
        let budget = CertifyBudget::unlimited()
            .max_nodes(usize::MAX)
            .max_steps(u64::MAX)
            .timeout(std::time::Duration::from_secs(3600));
        let mut budgeted =
            Certifier::with_budget(&h, budget).expect("generous budget must suffice");
        let report = budgeted.certify_all(&faults);
        assert_eq!(report.unknown(), 0, "{report}");
        for (a, c) in unbudgeted.sites.iter().zip(&report.sites) {
            assert_eq!(a.verdict, c.verdict, "fault {:?}", a.fault);
        }
    }

    #[test]
    fn tiny_node_budget_degrades_to_unknown_not_a_proof() {
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let faults = enumerate_faults(h.module(), &register_fault_config(h.module()));
        // Far too small to even build the base step: setup overflows.
        let err = match Certifier::with_budget(&h, CertifyBudget::unlimited().max_nodes(8)) {
            Err(e) => e,
            Ok(_) => panic!("8 nodes cannot hold a hardened FSM's base step"),
        };
        assert_eq!(err, BddOverflow::Nodes { limit: 8 });
        let report = Certifier::degraded_report(&h, &faults, err);
        assert_eq!(report.unknown(), report.sites.len());
        assert_eq!(report.counterexamples(), 0);
        assert!(!report.all_proven(), "unknown sites are never proven");
        let text = report.to_string();
        assert!(text.contains("unknown (budget exhausted)"), "{text}");
        for site in &report.sites {
            match &site.verdict {
                Verdict::Unknown { reason } => {
                    assert!(reason.contains("node budget"), "{reason}");
                    assert!(!site.verdict.is_proven());
                }
                other => panic!("expected Unknown, got {other:?}"),
            }
        }
    }

    #[test]
    fn per_site_step_limit_yields_unknown_sites_after_good_setup() {
        let h = harden(&fsm(), &ScfiConfig::new(3)).unwrap();
        let faults = enumerate_faults(h.module(), &register_fault_config(h.module()));
        // Setup fits (no node cap), but each site gets a step allowance
        // too small for the escape-BDD construction.
        let mut certifier = Certifier::with_budget(&h, CertifyBudget::unlimited().max_steps(1))
            .expect("the step limit is reset per site, setup runs before it bites");
        let report = certifier.certify_all(&faults);
        assert_eq!(report.unknown(), report.sites.len(), "{report}");
        assert!(!report.all_proven());
    }

    #[test]
    fn describe_fault_names_sites() {
        let h = harden(&fsm(), &ScfiConfig::new(2)).unwrap();
        let m = h.module();
        let r = m.registers()[0];
        let text = describe_fault(
            m,
            Fault {
                site: FaultSite::Register(r),
                effect: FaultEffect::Flip,
            },
        );
        assert!(text.contains("register 0"), "{text}");
        let text = describe_fault(
            m,
            Fault {
                site: FaultSite::Pin(m.topo_order()[0], 1),
                effect: FaultEffect::Stuck1,
            },
        );
        assert!(text.contains("pin 1"), "{text}");
        assert!(text.contains("stuck-at-1"), "{text}");
    }
}
