//! Protection schemes: the one place each §6.1 configuration is described.
//!
//! A [`ProtectionScheme`] bundles everything that distinguishes SCFI, N-way
//! redundancy and the unprotected lowering: the netlist, how a state is
//! preloaded into its registers, what drives its inputs, and its detection
//! semantics. The campaign targets ([`SchemeTarget`](crate::SchemeTarget)),
//! the word-parallel oracle ([`WaveOracle`]) and the certifier
//! (`scfi_symbolic::Certifier`, which takes any `ProtectionScheme`) all
//! derive their behavior from it, so a new scheme is one impl.
//!
//! Detection is described twice on purpose. [`ProtectionScheme::detection`]
//! is the *descriptor* — codebook, zero/invalid flags and [`AlertModel`] —
//! from which the executor and the certifier build their word-level and
//! symbolic logic. [`ProtectionScheme::classify_landing`] is the
//! hand-written scalar reference over the model's own `decode_registers`,
//! kept independent so the descriptor can be tested against it.

use scfi_core::{HardenedFsm, RedundantFsm, StateDecode};
use scfi_fsm::{Cfg, Fsm, LoweredFsm, StateId};
use scfi_gf2::BitVec;
use scfi_netlist::Module;

use crate::campaign::Outcome;
use crate::oracle::{AlertModel, WaveOracle};

/// A protected (or deliberately unprotected) netlist and its detection
/// semantics.
pub trait ProtectionScheme: Sync {
    /// The netlist under attack or certification.
    fn module(&self) -> &Module;

    /// Configuration tag for reports (`"scfi"`, `"redundancy"`,
    /// `"unprotected"`).
    fn name(&self) -> &'static str;

    /// The detection descriptor: the state codebook over the decode
    /// window, whether the zero word and non-codewords are detected, and
    /// which output ports (and replica banks) alert.
    fn detection(&self) -> WaveOracle;

    /// The §5 input codebook (one word per local edge class), or `None`
    /// when the module takes raw control signals.
    fn condition_words(&self) -> Option<Vec<Vec<bool>>>;

    /// The register file holding `state`, in `Module::registers()` order.
    fn preload(&self, state: StateId) -> Vec<bool>;

    /// Classifies one post-step register file and output sample against
    /// the fault-free landing state `expected` — the scalar reference the
    /// descriptor must agree with.
    fn classify_landing(&self, regs: &[bool], outputs: &[bool], expected: StateId) -> Outcome;
}

/// A scheme driven through the §5 condition codebook of its own source
/// FSM (SCFI and redundancy): every CFG edge has a condition codeword, so
/// the campaign targets need no input enumeration.
pub trait CodedScheme: ProtectionScheme {
    /// The source FSM (its edge classes index the condition codebook).
    fn fsm(&self) -> &Fsm;

    /// The control-flow graph the scheme was built over.
    fn cfg(&self) -> &Cfg;
}

fn words(count: usize, word: impl Fn(usize) -> Vec<bool>) -> Vec<Vec<bool>> {
    (0..count).map(word).collect()
}

/// SCFI: a landing is detected on terminal ERROR (the zero word), an
/// invalid codeword (which collapses to ERROR on the next edge), or an
/// asserted `alert`/`in_error` line.
impl ProtectionScheme for HardenedFsm {
    fn module(&self) -> &Module {
        HardenedFsm::module(self)
    }

    fn name(&self) -> &'static str {
        "scfi"
    }

    fn detection(&self) -> WaveOracle {
        // decode_registers reads the whole register file as the state
        // codeword, so the decode window is every register.
        debug_assert_eq!(self.state_code().width(), self.module().registers().len());
        WaveOracle::new(
            words(self.fsm().state_count(), |s| {
                self.encode_state(StateId(s)).iter().collect()
            }),
            true,
            true,
            AlertModel::LastTwoOutputs,
        )
    }

    fn condition_words(&self) -> Option<Vec<Vec<bool>>> {
        let code = self.cond_code();
        Some(words(code.len(), |c| code.word(c).iter().collect()))
    }

    fn preload(&self, state: StateId) -> Vec<bool> {
        self.encode_state(state).iter().collect()
    }

    fn classify_landing(&self, regs: &[bool], outputs: &[bool], expected: StateId) -> Outcome {
        let (alert_line, in_error) = self.alert_lines(outputs);
        let alert = alert_line || in_error;
        match self.decode_registers(regs) {
            StateDecode::State(s) if s == expected && !alert => Outcome::Masked,
            StateDecode::State(s) if s == expected => Outcome::Detected,
            StateDecode::Error | StateDecode::Invalid => Outcome::Detected,
            StateDecode::State(_) if alert => Outcome::Detected,
            StateDecode::State(_) => Outcome::Hijack,
        }
    }
}

impl CodedScheme for HardenedFsm {
    fn fsm(&self) -> &Fsm {
        HardenedFsm::fsm(self)
    }

    fn cfg(&self) -> &Cfg {
        HardenedFsm::cfg(self)
    }
}

/// Redundancy: the registered mismatch `alert` or any replica bank
/// disagreeing with bank 0 detects; an undetected landing anywhere but
/// the expected state — out-of-range binary codes included — is a
/// hijack.
impl ProtectionScheme for RedundantFsm {
    fn module(&self) -> &Module {
        RedundantFsm::module(self)
    }

    fn name(&self) -> &'static str {
        "redundancy"
    }

    fn detection(&self) -> WaveOracle {
        // Bank 0 (the first state_bits registers) carries the natural
        // binary code.
        let sb = self.state_bits();
        WaveOracle::new(
            words(self.fsm().state_count(), |s| {
                BitVec::from_u64(s as u64, sb).iter().collect()
            }),
            false,
            false,
            AlertModel::BankMismatch { state_bits: sb },
        )
    }

    fn condition_words(&self) -> Option<Vec<Vec<bool>>> {
        // Same protected control interface as SCFI (§6.1).
        let code = self.cond_code();
        Some(words(code.len(), |c| code.word(c).iter().collect()))
    }

    fn preload(&self, state: StateId) -> Vec<bool> {
        let code = BitVec::from_u64(state.0 as u64, self.state_bits());
        let replicas = self.module().registers().len() / self.state_bits();
        (0..replicas).flat_map(|_| code.iter()).collect()
    }

    fn classify_landing(&self, regs: &[bool], outputs: &[bool], expected: StateId) -> Outcome {
        // The mismatch comparator is combinational on the register banks,
        // so a corruption committed on this edge raises the alert in the
        // *next* cycle — evaluate it on the post-step banks directly.
        let sb = self.state_bits();
        let mismatch = regs.chunks(sb).skip(1).any(|bank| bank != &regs[..sb]);
        let alert = outputs[outputs.len() - 1] || mismatch;
        match self.decode_registers(regs) {
            Some(s) if s == expected && !alert => Outcome::Masked,
            _ if alert => Outcome::Detected,
            _ => Outcome::Hijack,
        }
    }
}

impl CodedScheme for RedundantFsm {
    fn fsm(&self) -> &Fsm {
        RedundantFsm::fsm(self)
    }

    fn cfg(&self) -> &Cfg {
        RedundantFsm::cfg(self)
    }
}

/// The unprotected lowering: no detection mechanism exists, so every
/// wrong landing is a hijack.
impl ProtectionScheme for LoweredFsm {
    fn module(&self) -> &Module {
        LoweredFsm::module(self)
    }

    fn name(&self) -> &'static str {
        "unprotected"
    }

    fn detection(&self) -> WaveOracle {
        WaveOracle::new(
            self.encodings()
                .iter()
                .map(|e| e.iter().collect())
                .collect(),
            false,
            false,
            AlertModel::None,
        )
    }

    fn condition_words(&self) -> Option<Vec<Vec<bool>>> {
        None
    }

    fn preload(&self, state: StateId) -> Vec<bool> {
        self.encoding(state).iter().collect()
    }

    fn classify_landing(&self, regs: &[bool], _outputs: &[bool], expected: StateId) -> Outcome {
        match self.decode_registers(regs) {
            Some(s) if s == expected => Outcome::Masked,
            _ => Outcome::Hijack,
        }
    }
}
