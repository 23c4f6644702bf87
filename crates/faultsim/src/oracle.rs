//! Word-parallel trajectory classification.
//!
//! The wave executor's per-lane serial cost used to be extraction: every
//! live lane of every cycle pulled its registers and outputs out of the
//! packed `[u64; W]` net words into `Vec<bool>` scratch and ran the
//! target's scalar [`classify`](crate::FaultTarget::classify) — 64–512
//! codeword decodes per wave cycle, each allocating a `BitVec` and
//! scanning the codebook. A [`WaveOracle`] removes that hot path: targets
//! precompile their codebook and alert structure once, and the executor
//! classifies **whole 64-lane words at a time** with bitwise logic on the
//! packed register/output words, never extracting a lane.
//!
//! The oracle is also the one *description* of a scheme's detection
//! semantics: every [`ProtectionScheme`](crate::ProtectionScheme)
//! publishes one, the wave executor grades packed words with it, and the
//! certifier builds its symbolic and concrete "undetected" predicates
//! from the same codebook and alert structure. It must agree with the
//! scheme's hand-written scalar
//! [`classify_landing`](crate::ProtectionScheme::classify_landing); the
//! differential suites (packed vs. scalar, every width, every Table-1
//! FSM) and the scheme-consistency test pin this equivalence.

use std::ops::Range;

/// How a target's detection lines are read from the sampled output words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertModel {
    /// No detection mechanism: nothing ever alerts (unprotected baseline).
    None,
    /// The last two output ports are the `alert` and `in_error` lines
    /// (SCFI-hardened modules); either one asserting is an alert.
    LastTwoOutputs,
    /// The last output port is the registered alert, OR-ed with a
    /// combinational replica-bank comparison on the post-step registers:
    /// any bank `k ≥ 1` disagreeing with bank 0 over the first
    /// `state_bits` registers alerts (redundancy baseline).
    BankMismatch {
        /// Register bits per replica bank.
        state_bits: usize,
    },
}

/// A precompiled word-level classification oracle for one fault target.
///
/// Classification happens in two stages per packed word:
///
/// 1. [`WaveOracle::detected_word`] computes the *expected-state
///    independent* detection mask — alert lines, the all-zero ERROR
///    pattern, and (for targets that detect invalid codewords) the
///    complement of "matches some codeword". This is shared by every
///    scenario classified in the word.
/// 2. [`WaveOracle::classify_word`] intersects with one scenario group's
///    live-lane mask and its expected codeword, returning `(detected,
///    hijack)` lane masks; lanes in neither mask are `Masked`.
///
/// The semantics mirror the scalar targets exactly: a lane is *detected*
/// when an alert asserts or (where applicable) the register word is zero
/// or decodes to no codeword; *masked* when it holds exactly the expected
/// state's codeword and is not detected; *hijack* otherwise — a valid but
/// wrong landing with no alert.
#[derive(Clone, Debug)]
pub struct WaveOracle {
    /// `codewords[s]` is state `s`'s register codeword over the decode
    /// window (the first `codewords[s].len()` registers).
    codewords: Vec<Vec<bool>>,
    /// Zero register words decode to the terminal ERROR state (SCFI).
    zero_is_error: bool,
    /// Non-codeword register words are detected rather than hijacks
    /// (SCFI's invalid-state argument; baselines treat them as wrong
    /// landings and judge purely by the alert).
    invalid_is_detected: bool,
    alert: AlertModel,
    /// Bitset over every decode-window value (bit `i` of the window is
    /// bit `i` of the index) marking the codewords, when the window is at
    /// most [`WaveOracle::TABLE_BITS`] wide; empty otherwise.
    valid_table: Vec<u64>,
}

impl WaveOracle {
    /// Builds an oracle from a codebook (one codeword per state, indexed
    /// by state id) and the target's detection structure.
    ///
    /// # Panics
    ///
    /// Panics if `codewords` is empty or its entries disagree on width.
    pub fn new(
        codewords: Vec<Vec<bool>>,
        zero_is_error: bool,
        invalid_is_detected: bool,
        alert: AlertModel,
    ) -> Self {
        assert!(!codewords.is_empty(), "oracle needs at least one codeword");
        let width = codewords[0].len();
        assert!(
            codewords.iter().all(|w| w.len() == width),
            "codewords must share one width"
        );
        let mut valid_table = Vec::new();
        if width <= Self::TABLE_BITS {
            valid_table = vec![0u64; (1usize << width).div_ceil(64)];
            for cw in &codewords {
                let key = (0..width)
                    .filter(|&i| cw[i])
                    .fold(0usize, |k, i| k | 1 << i);
                valid_table[key / 64] |= 1 << (key % 64);
            }
        }
        WaveOracle {
            codewords,
            zero_is_error,
            invalid_is_detected,
            alert,
            valid_table,
        }
    }

    /// The widest decode window [`WaveOracle::classify_lanes`] looks up
    /// lane by lane in a table (8 KiB) instead of scanning the codebook.
    const TABLE_BITS: usize = 16;

    /// Registers participating in the decode (a prefix of the module's
    /// register order).
    pub fn decode_width(&self) -> usize {
        self.codewords[0].len()
    }

    /// The codebook: `codewords()[s]` is state `s`'s register codeword
    /// over the decode window.
    pub fn codewords(&self) -> &[Vec<bool>] {
        &self.codewords
    }

    /// Whether the all-zero decode window is the detected ERROR word.
    pub fn zero_is_error(&self) -> bool {
        self.zero_is_error
    }

    /// Whether a decode window matching no codeword is detected.
    pub fn invalid_is_detected(&self) -> bool {
        self.invalid_is_detected
    }

    /// Register bits per replica bank, when every bank must agree with
    /// bank 0 for the register file to pass undetected.
    pub fn replica_bank_bits(&self) -> Option<usize> {
        match self.alert {
            AlertModel::BankMismatch { state_bits } => Some(state_bits),
            _ => None,
        }
    }

    /// The output ports (of a module with `outputs` ports) whose
    /// assertion is an alert.
    pub fn alert_ports(&self, outputs: usize) -> Range<usize> {
        match self.alert {
            AlertModel::None => outputs..outputs,
            AlertModel::LastTwoOutputs => outputs - 2..outputs,
            AlertModel::BankMismatch { .. } => outputs - 1..outputs,
        }
    }

    /// The decode-level verdict on one concrete post-step register file:
    /// `true` when decoding would not flag it — replica banks agree, and
    /// (per the flags) the decode window is neither the zero word nor a
    /// non-codeword. Alert lines are not consulted.
    pub fn undetected(&self, regs: &[bool]) -> bool {
        if let Some(sb) = self.replica_bank_bits() {
            if regs.chunks(sb).skip(1).any(|bank| bank != &regs[..sb]) {
                return false;
            }
        }
        let window = &regs[..self.decode_width()];
        if self.zero_is_error && window.iter().all(|&bit| !bit) {
            return false;
        }
        !self.invalid_is_detected || self.codewords.iter().any(|cw| cw == window)
    }

    /// Lanes of `word` whose decode-window registers equal `pattern`.
    fn eq_word<const W: usize>(pattern: &[bool], word: usize, regs: &[[u64; W]]) -> u64 {
        let mut acc = !0u64;
        for (i, &bit) in pattern.iter().enumerate() {
            let r = regs[i][word];
            acc &= if bit { r } else { !r };
        }
        acc
    }

    /// The expected-state-independent detection mask of one packed word:
    /// alert lines, plus (per the oracle's flags) the all-zero ERROR
    /// pattern and non-codeword register words. `regs` and `outputs` are
    /// the post-step packed register and output-port words.
    pub fn detected_word<const W: usize>(
        &self,
        word: usize,
        regs: &[[u64; W]],
        outputs: &[[u64; W]],
    ) -> u64 {
        let mut detected = self.alarm_word(word, regs, outputs);
        if self.invalid_is_detected {
            detected |= !self.valid_word(word, regs);
        }
        detected
    }

    /// The cheap part of [`WaveOracle::detected_word`]: alert lines,
    /// replica-bank disagreement and (per the flags) the all-zero ERROR
    /// pattern — everything but the codebook scan.
    fn alarm_word<const W: usize>(
        &self,
        word: usize,
        regs: &[[u64; W]],
        outputs: &[[u64; W]],
    ) -> u64 {
        let mut detected = 0u64;
        for port in self.alert_ports(outputs.len()) {
            detected |= outputs[port][word];
        }
        if let Some(state_bits) = self.replica_bank_bits() {
            // A ragged register file (not a whole number of banks)
            // compares unequal in the scalar reference; keep that.
            if !regs.len().is_multiple_of(state_bits) {
                detected = !0;
            }
            for bank in 1..regs.len() / state_bits {
                for i in 0..state_bits {
                    detected |= regs[bank * state_bits + i][word] ^ regs[i][word];
                }
            }
        }
        if self.zero_is_error {
            let mut zero = !0u64;
            for reg in regs.iter().take(self.decode_width()) {
                zero &= !reg[word];
            }
            detected |= zero;
        }
        detected
    }

    /// The codebook scan: lanes of `word` whose decode window matches
    /// some codeword.
    fn valid_word<const W: usize>(&self, word: usize, regs: &[[u64; W]]) -> u64 {
        let mut valid = 0u64;
        for cw in &self.codewords {
            valid |= Self::eq_word(cw, word, regs);
        }
        valid
    }

    /// [`WaveOracle::valid_word`] restricted to `lanes`: a table lookup
    /// per lane when the window is narrow and the lanes are fewer than the
    /// codewords, the codebook scan otherwise.
    fn valid_lanes<const W: usize>(&self, word: usize, regs: &[[u64; W]], lanes: u64) -> u64 {
        if self.valid_table.is_empty() || lanes.count_ones() as usize >= self.codewords.len() {
            return self.valid_word(word, regs) & lanes;
        }
        let window = &regs[..self.decode_width()];
        let mut valid = 0u64;
        let mut bits = lanes;
        while bits != 0 {
            let lane = bits.trailing_zeros();
            bits &= bits - 1;
            let key = window.iter().enumerate().fold(0usize, |k, (i, r)| {
                k | (((r[word] >> lane) & 1) as usize) << i
            });
            valid |= ((self.valid_table[key / 64] >> (key % 64)) & 1) << lane;
        }
        valid
    }

    /// Packs per-lane expected states into the `expected` words of
    /// [`WaveOracle::classify_lanes`]: bit `l` of word `i` is bit `i` of
    /// lane `l`'s expected codeword, for lanes `0..states.len()`.
    pub fn expected_words<const W: usize>(&self, states: &[usize]) -> Vec<[u64; W]> {
        let mut words = vec![[0u64; W]; self.decode_width()];
        for (lane, &state) in states.iter().enumerate() {
            for (bits, &bit) in words.iter_mut().zip(&self.codewords[state]) {
                if bit {
                    bits[lane / 64] |= 1 << (lane % 64);
                }
            }
        }
        words
    }

    /// Classifies lanes `live` of one packed word whose expected states
    /// differ lane by lane (`expected` from
    /// [`WaveOracle::expected_words`]). Returns the same `(detected,
    /// hijack)` masks as [`WaveOracle::classify_word`] over
    /// [`WaveOracle::detected_word`], but runs the codebook scan only when
    /// some live lane is off target with no cheaper alarm — an on-target
    /// lane holds a codeword, and an alarmed lane is detected either way.
    pub fn classify_lanes<const W: usize>(
        &self,
        word: usize,
        live: u64,
        regs: &[[u64; W]],
        outputs: &[[u64; W]],
        expected: &[[u64; W]],
    ) -> (u64, u64) {
        let mut detected = self.alarm_word(word, regs, outputs);
        let mut on_target = !0u64;
        for (reg, exp) in regs.iter().zip(expected) {
            on_target &= !(reg[word] ^ exp[word]);
        }
        let unresolved = live & !detected & !on_target;
        if self.invalid_is_detected && unresolved != 0 {
            detected |= unresolved & !self.valid_lanes(word, regs, unresolved);
        }
        (live & detected, live & !detected & !on_target)
    }

    /// Classifies the live lanes of one scenario group within one packed
    /// word: `detected` is [`WaveOracle::detected_word`]'s mask for this
    /// word, `expected` the fault-free landing state's codebook index,
    /// `live` the group's lane mask. Returns `(detected, hijack)` lane
    /// masks restricted to `live`; live lanes in neither are `Masked`
    /// (they hold exactly the expected codeword with no alert).
    pub fn classify_word<const W: usize>(
        &self,
        detected: u64,
        expected: usize,
        word: usize,
        live: u64,
        regs: &[[u64; W]],
    ) -> (u64, u64) {
        let on_target = Self::eq_word(&self.codewords[expected], word, regs);
        (live & detected, live & !detected & !on_target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 3-bit codewords packed one lane at a time; lanes hold, in
    /// order: state 0, state 1, the zero word, an off-codebook word.
    fn reg_words() -> Vec<[u64; 1]> {
        let patterns: [[bool; 3]; 4] = [
            [true, false, true], // codeword 0
            [false, true, true], // codeword 1
            [false, false, false],
            [true, true, false], // invalid
        ];
        (0..3)
            .map(|bit| {
                let mut w = 0u64;
                for (lane, p) in patterns.iter().enumerate() {
                    if p[bit] {
                        w |= 1 << lane;
                    }
                }
                [w]
            })
            .collect()
    }

    fn oracle(zero_is_error: bool, invalid_is_detected: bool, alert: AlertModel) -> WaveOracle {
        WaveOracle::new(
            vec![vec![true, false, true], vec![false, true, true]],
            zero_is_error,
            invalid_is_detected,
            alert,
        )
    }

    #[test]
    fn scfi_style_decode_detects_zero_and_invalid() {
        let o = oracle(true, true, AlertModel::LastTwoOutputs);
        let regs = reg_words();
        let outs = vec![[0u64], [0u64]]; // both alert lines quiet
        let det = o.detected_word(0, &regs, &outs);
        // Lane 2 (zero) and lane 3 (invalid) are detected; lanes 0/1 not.
        assert_eq!(det & 0b1111, 0b1100);
        // Expecting state 0: lane 0 masked, lane 1 a valid-but-wrong hijack.
        let (d, h) = o.classify_word(det, 0, 0, 0b1111, &regs);
        assert_eq!(d, 0b1100);
        assert_eq!(h, 0b0010);
    }

    #[test]
    fn alert_lines_dominate_even_on_target() {
        let o = oracle(true, true, AlertModel::LastTwoOutputs);
        let regs = reg_words();
        // in_error asserted in lane 0 — the on-target lane is detected.
        let outs = vec![[0b0001u64], [0u64]];
        let det = o.detected_word(0, &regs, &outs);
        let (d, h) = o.classify_word(det, 0, 0, 0b1111, &regs);
        assert_eq!(d & 0b0001, 0b0001, "alerted on-target lane is detected");
        assert_eq!(h, 0b0010);
    }

    #[test]
    fn baseline_decode_treats_invalid_as_silent_hijack() {
        // Unprotected semantics: no alerts, no invalid detection.
        let o = oracle(false, false, AlertModel::None);
        let regs = reg_words();
        let det = o.detected_word(0, &regs, &Vec::<[u64; 1]>::new());
        assert_eq!(det, 0);
        let (d, h) = o.classify_word(det, 1, 0, 0b1111, &regs);
        assert_eq!(d, 0);
        // Everything but the expected-state lane is a hijack.
        assert_eq!(h, 0b1101);
    }

    #[test]
    fn bank_mismatch_alerts_on_replica_divergence() {
        // Two 2-bit banks: regs[0..2] bank 0, regs[2..4] bank 1.
        // Lane 0: banks agree (01|01). Lane 1: banks differ (01|11).
        let regs: Vec<[u64; 1]> = vec![[0b11], [0b00], [0b11], [0b10]];
        let o = WaveOracle::new(
            vec![vec![true, false], vec![false, true]],
            false,
            false,
            AlertModel::BankMismatch { state_bits: 2 },
        );
        let outs = vec![[0u64]]; // registered alert quiet
        let det = o.detected_word(0, &regs, &outs);
        assert_eq!(det & 0b11, 0b10);
        let (d, h) = o.classify_word(det, 0, 0, 0b11, &regs);
        assert_eq!(d, 0b10);
        assert_eq!(h, 0);
    }

    /// `classify_lanes` with a different expected state per lane equals
    /// `classify_word` over `detected_word` lane by lane, for every flag
    /// and alert model, whether it looks windows up in its table or scans
    /// the codebook.
    #[test]
    fn per_lane_expectations_match_per_group_classification() {
        let codewords = vec![
            vec![true, false, true],
            vec![false, true, true],
            vec![true, true, true],
        ];
        // 64 lanes: every 3-bit window, each paired with every expected
        // state, plus a lane-dependent alert on the last output.
        let lanes = 64;
        let state_of = |lane: usize| lane % 3;
        let window = |lane: usize| lane / 3 % 8;
        let regs: Vec<[u64; 1]> = (0..4)
            .map(|bit| {
                let mut w = 0u64;
                for lane in 0..lanes {
                    // Register 3 sits outside the decode window.
                    let on = if bit < 3 {
                        window(lane) >> bit & 1 == 1
                    } else {
                        lane % 5 == 0
                    };
                    w |= (on as u64) << lane;
                }
                [w]
            })
            .collect();
        let outs = vec![[0u64], [0u64], [0x0F0F_0000_0000_00F0u64]];
        let states: Vec<usize> = (0..lanes).map(state_of).collect();
        for (zero, invalid, alert) in [
            (true, true, AlertModel::LastTwoOutputs),
            (false, false, AlertModel::None),
            (false, true, AlertModel::BankMismatch { state_bits: 2 }),
        ] {
            let o = WaveOracle::new(codewords.clone(), zero, invalid, alert);
            let expected = o.expected_words::<1>(&states);
            let det = o.detected_word(0, &regs, &outs);
            for live in [!0u64, 0x5555_0000_FFFF_0001, 1 << 7] {
                let (d, h) = o.classify_lanes(0, live, &regs, &outs, &expected);
                for lane in 0..lanes {
                    let bit = 1u64 << lane;
                    let (gd, gh) = o.classify_word(det, state_of(lane), 0, live & bit, &regs);
                    assert_eq!(d & bit, gd, "lane {lane} detected");
                    assert_eq!(h & bit, gh, "lane {lane} hijack");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "share one width")]
    fn ragged_codebooks_are_rejected() {
        let _ = WaveOracle::new(
            vec![vec![true], vec![true, false]],
            false,
            false,
            AlertModel::None,
        );
    }
}
