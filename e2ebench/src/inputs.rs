//! Seeded inputs: the random stream, the deep-FSM generator and the
//! bundled models as DSL text. The program under test only ever sees the
//! DSL text these functions emit.

use std::fmt::Write as _;

/// SplitMix64: a small, well-mixed stream; the same seed gives the same
/// inputs on every host.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5CF1_BE4C_0000_0001)
    }

    /// A child stream for an independent purpose (`tag`), so adding draws
    /// to one part of a workload does not shift the others.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Input signals of every generated FSM.
const DEEP_SIGNALS: usize = 10;

/// A generated control FSM of `states` states, as DSL text.
///
/// Shape: a ring `S0 → S1 → … → S0` keeps every state reachable; even
/// states add one branch edge and odd states two, each to a seeded random
/// state under a seeded input. Every guard is a single distinct input
/// literal, so no transition is shadowed. Only the wiring depends on the
/// seed, not the edge count, which keeps the cost of one size nearly
/// constant across seeds.
pub fn deep_fsm_dsl(name: &str, states: usize, rng: &mut Rng) -> String {
    let mut s = String::new();
    let signals: Vec<String> = (0..DEEP_SIGNALS).map(|i| format!("in{i}")).collect();
    let _ = writeln!(s, "fsm {name} {{");
    let _ = writeln!(s, "  inputs {};", signals.join(", "));
    let _ = writeln!(s, "  outputs busy, done, alarm;");
    let _ = writeln!(s, "  reset S0;");
    for i in 0..states {
        let mut order: Vec<usize> = (0..DEEP_SIGNALS).collect();
        rng.shuffle(&mut order);
        let _ = write!(s, "  state S{i} {{");
        match i % 4 {
            0 => s.push_str(" out busy;"),
            1 => s.push_str(" out done;"),
            2 if i % 7 == 3 => s.push_str(" out alarm;"),
            _ => {}
        }
        let _ = write!(s, " if {} -> S{};", signals[order[0]], (i + 1) % states);
        for sig in &order[1..2 + i % 2] {
            let _ = write!(s, " if {} -> S{};", signals[*sig], rng.below(states));
        }
        s.push_str(" }\n");
    }
    s.push_str("}\n");
    s
}

/// The seven Table-1 FSMs as `(name, DSL text)`.
pub fn table1() -> Vec<(String, String)> {
    scfi_opentitan::all()
        .into_iter()
        .map(|b| (b.name.to_string(), b.fsm.to_dsl()))
        .collect()
}

/// The secure-boot protocol FSM as `(name, DSL text)`.
pub fn secure_boot() -> (String, String) {
    let fsm = scfi_opentitan::secure_boot_fsm();
    (fsm.name().to_string(), fsm.to_dsl())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_fsms_parse_and_are_seed_deterministic() {
        for states in [50, 100, 200] {
            let a = deep_fsm_dsl("g", states, &mut Rng::new(7));
            let b = deep_fsm_dsl("g", states, &mut Rng::new(7));
            assert_eq!(a, b);
            let fsm = scfi_fsm::parse_fsm(&a).expect("generated DSL parses");
            assert_eq!(fsm.state_count(), states);
            assert!(fsm.unreachable_states().is_empty());
            assert!(fsm.shadowed_transitions().is_empty());
        }
    }
}
