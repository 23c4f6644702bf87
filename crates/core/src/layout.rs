//! The mix layer of `φ_FH` (paper Fig. 5) and the per-edge modifier solver.
//!
//! The hardened next-state function distributes the input triple
//! `{S_Ce, X_e, Mod}` over `k` 32-bit MDS instances ("the encoded current
//! state, the encoded control signals, and the modifier are split into k
//! shares"). Each instance outputs its share of the encoded next state in
//! its low positions and `e` error-detection bits in its topmost positions
//! ("SCFI uses … the e topmost bits of each output vector as error
//! detection bits").
//!
//! Because the diffusion layer is linear over GF(2), the modifier for a CFG
//! edge is the solution of a linear system per instance:
//!
//! ```text
//! M[out_rows, mod_cols] · mod  =  target[out_rows] ⊕ M[out_rows, known_cols] · known
//! ```
//!
//! The layout chooses modifier input positions such that the square matrix
//! `A = M[out_rows, mod_cols]` is invertible (a deterministic seeded search;
//! MDS matrices make random choices succeed almost immediately), caches
//! `A⁻¹`, and then every edge's modifier is a single matrix–vector product.

use scfi_gf2::{BitMatrix, BitVec};
use scfi_mds::MdsMatrix;

use crate::{PadPolicy, ScfiError};

/// Input/output placement and solver for one 32-bit MDS instance.
#[derive(Clone, Debug)]
pub struct InstanceLayout {
    /// `(instance input position, global state bit)` pairs.
    pub state_in: Vec<(usize, usize)>,
    /// `(instance input position, global control bit)` pairs.
    pub control_in: Vec<(usize, usize)>,
    /// `(instance input position, global modifier bit)` pairs.
    pub mod_in: Vec<(usize, usize)>,
    /// `(instance output position, global state bit)` pairs — this
    /// instance's share of the encoded next state.
    pub state_out: Vec<(usize, usize)>,
    /// Instance output positions holding error-detection bits.
    pub error_out: Vec<usize>,
    /// Inverse of `M[out_rows, mod_cols]`, cached for modifier solving.
    solve_inv: BitMatrix,
}

impl InstanceLayout {
    /// The constrained output rows: state share then error bits.
    fn out_rows(&self) -> Vec<usize> {
        self.state_out
            .iter()
            .map(|&(pos, _)| pos)
            .chain(self.error_out.iter().copied())
            .collect()
    }
}

/// The complete mix-layer layout across all instances.
///
/// Build with [`MixLayout::build`]; solve per-edge modifiers with
/// [`MixLayout::solve_modifier`]; evaluate the (software) forward function
/// with [`MixLayout::apply`].
#[derive(Clone, Debug)]
pub struct MixLayout {
    instances: Vec<InstanceLayout>,
    state_width: usize,
    control_width: usize,
    mod_width: usize,
    error_bits: usize,
    width: usize,
}

impl MixLayout {
    /// Computes a layout for `state_width` encoded state bits and
    /// `control_width` encoded control bits with `error_bits` error bits
    /// per instance.
    ///
    /// The instance count is the smallest `k` such that every instance can
    /// host its state share twice (input + matching modifier capacity),
    /// its control share, and `error_bits` modifier slots:
    /// `k = ⌈(2·sw + xw) / (32 − e)⌉`, adjusted upward if rounding leaves
    /// any single instance oversubscribed.
    ///
    /// # Errors
    ///
    /// [`ScfiError::ErrorBitsTooLarge`] if `error_bits` leaves no room, or
    /// [`ScfiError::LayoutUnsolvable`] if no invertible modifier placement
    /// is found (not expected for MDS matrices).
    pub fn build(
        state_width: usize,
        control_width: usize,
        error_bits: usize,
        mds: &MdsMatrix,
        seed: u64,
        pad: PadPolicy,
    ) -> Result<MixLayout, ScfiError> {
        let width = mds.width();
        if error_bits == 0 || error_bits >= width / 2 {
            return Err(ScfiError::ErrorBitsTooLarge { error_bits });
        }
        let capacity = width - error_bits;
        let need = 2 * state_width + control_width;
        let mut k = need.div_ceil(capacity).max(1);
        // Bump k until the balanced per-instance shares fit.
        loop {
            let s_max = state_width.div_ceil(k);
            let x_max = control_width.div_ceil(k);
            if 2 * s_max + x_max + error_bits <= width {
                break;
            }
            k += 1;
        }

        let matrix = mds.matrix();
        let mut rng = seed.max(1);
        let mut next_rand = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545F4914F6CDD1D)
        };

        let mut instances = Vec::with_capacity(k);
        let mut mod_cursor = 0usize;
        for j in 0..k {
            // Balanced round-robin shares.
            let state_share: Vec<usize> = (0..state_width).filter(|g| g % k == j).collect();
            let control_share: Vec<usize> = (0..control_width).filter(|g| g % k == j).collect();
            let n_mod = state_share.len() + error_bits;

            // Output rows: state share low, error bits topmost.
            let state_out: Vec<(usize, usize)> = state_share
                .iter()
                .enumerate()
                .map(|(i, &g)| (i, g))
                .collect();
            let error_out: Vec<usize> = (width - error_bits..width).collect();
            let rows: Vec<usize> = state_out
                .iter()
                .map(|&(p, _)| p)
                .chain(error_out.iter().copied())
                .collect();

            // Modifier placement: the selected output rows of the full-rank
            // MDS matrix form a full-row-rank n_mod × 32 matrix, so its
            // pivot columns (over a seeded column permutation, for
            // placement diversity) give a guaranteed-invertible square
            // solver submatrix.
            let mut perm: Vec<usize> = (0..width).collect();
            for i in 0..width - 1 {
                let r = (next_rand() as usize) % (width - i);
                perm.swap(i, i + r);
            }
            let permuted = matrix.select(&rows, &perm);
            let pivots = permuted.pivot_columns();
            if pivots.len() != n_mod {
                return Err(ScfiError::LayoutUnsolvable {
                    instance: j,
                    tried: 1,
                });
            }
            let mut mod_positions: Vec<usize> = pivots.iter().map(|&i| perm[i]).collect();
            mod_positions.sort_unstable();
            let solve_inv = matrix.select(&rows, &mod_positions).inverse().ok_or(
                ScfiError::LayoutUnsolvable {
                    instance: j,
                    tried: 1,
                },
            )?;
            let mod_in: Vec<(usize, usize)> = mod_positions
                .iter()
                .map(|&p| {
                    let g = mod_cursor;
                    mod_cursor += 1;
                    (p, g)
                })
                .collect();

            // Knowns fill the remaining positions: state share first, then
            // the control share; leftovers are tied to constant zero.
            let free: Vec<usize> = (0..width).filter(|p| !mod_positions.contains(p)).collect();
            assert!(
                free.len() >= state_share.len() + control_share.len(),
                "k sizing guarantees capacity"
            );
            let mut state_in: Vec<(usize, usize)> = state_share
                .iter()
                .enumerate()
                .map(|(i, &g)| (free[i], g))
                .collect();
            let mut control_in: Vec<(usize, usize)> = control_share
                .iter()
                .enumerate()
                .map(|(i, &g)| (free[state_share.len() + i], g))
                .collect();
            // Padding: either leave the leftover positions to constant
            // zero (they fold away downstream) or absorb duplicates of the
            // full encoded state/control word so the complete 32-bit
            // matrix is exercised, as in the paper's implementation.
            if pad == PadPolicy::Replicate {
                let n_known = state_share.len() + control_share.len();
                for (idx, &p) in free[n_known..].iter().enumerate() {
                    let g = idx % (state_width + control_width);
                    if g < state_width {
                        state_in.push((p, g));
                    } else {
                        control_in.push((p, g - state_width));
                    }
                }
            }
            instances.push(InstanceLayout {
                state_in,
                control_in,
                mod_in,
                state_out,
                error_out,
                solve_inv,
            });
        }
        Ok(MixLayout {
            instances,
            state_width,
            control_width,
            mod_width: mod_cursor,
            error_bits,
            width,
        })
    }

    /// Number of MDS instances (`k` in Fig. 5).
    pub fn k(&self) -> usize {
        self.instances.len()
    }

    /// Per-instance layouts.
    pub fn instances(&self) -> &[InstanceLayout] {
        &self.instances
    }

    /// Encoded state width `|S_Ne|`.
    pub fn state_width(&self) -> usize {
        self.state_width
    }

    /// Encoded control width `|X_e|`.
    pub fn control_width(&self) -> usize {
        self.control_width
    }

    /// Total modifier width across instances.
    pub fn mod_width(&self) -> usize {
        self.mod_width
    }

    /// Error bits per instance.
    pub fn error_bits(&self) -> usize {
        self.error_bits
    }

    /// Total error bits (`k · e`, the `|E|` of the paper's success-probability
    /// formula).
    pub fn total_error_bits(&self) -> usize {
        self.error_bits * self.instances.len()
    }

    /// Assembles the 32-bit input vector of instance `j`.
    fn instance_input(
        &self,
        j: usize,
        state: &BitVec,
        control: &BitVec,
        modifier: &BitVec,
    ) -> BitVec {
        let inst = &self.instances[j];
        let mut v = BitVec::zeros(self.width);
        for &(pos, g) in &inst.state_in {
            if state.get(g) {
                v.set(pos, true);
            }
        }
        for &(pos, g) in &inst.control_in {
            if control.get(g) {
                v.set(pos, true);
            }
        }
        for &(pos, g) in &inst.mod_in {
            if modifier.get(g) {
                v.set(pos, true);
            }
        }
        v
    }

    /// Software forward evaluation of `φ_FH`: returns
    /// `(next_state, error_bits)` where `error_bits` concatenates every
    /// instance's error positions (all ones ⇔ fault-free valid edge).
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn apply(
        &self,
        mds: &MdsMatrix,
        state: &BitVec,
        control: &BitVec,
        modifier: &BitVec,
    ) -> (BitVec, BitVec) {
        assert_eq!(state.len(), self.state_width, "state width");
        assert_eq!(control.len(), self.control_width, "control width");
        assert_eq!(modifier.len(), self.mod_width, "modifier width");
        let mut next = BitVec::zeros(self.state_width);
        let mut errors = BitVec::zeros(self.total_error_bits());
        let mut err_cursor = 0usize;
        for (j, inst) in self.instances.iter().enumerate() {
            let out = mds.mul(&self.instance_input(j, state, control, modifier));
            for &(pos, g) in &inst.state_out {
                if out.get(pos) {
                    next.set(g, true);
                }
            }
            for &pos in &inst.error_out {
                if out.get(pos) {
                    errors.set(err_cursor, true);
                }
                err_cursor += 1;
            }
        }
        (next, errors)
    }

    /// Solves the modifier for one CFG edge:
    /// `MDS(S_Ce, X_e, Mod) = S_Ne` with all error bits forced to one
    /// (requirement R4 / the `MDS(S_Ce, X_e, Mod) = S_Ne` equation of
    /// §5.1).
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn solve_modifier(
        &self,
        mds: &MdsMatrix,
        from: &BitVec,
        control: &BitVec,
        target: &BitVec,
    ) -> BitVec {
        assert_eq!(from.len(), self.state_width, "state width");
        assert_eq!(control.len(), self.control_width, "control width");
        assert_eq!(target.len(), self.state_width, "target width");
        let matrix = mds.matrix();
        let zero_mod = BitVec::zeros(self.mod_width);
        let mut modifier = BitVec::zeros(self.mod_width);
        for (j, inst) in self.instances.iter().enumerate() {
            // Contribution of the known inputs with modifier zero.
            let known = matrix.mul_vec(&self.instance_input(j, from, control, &zero_mod));
            let rows = inst.out_rows();
            // Desired outputs: target state share, then all-ones errors.
            let mut residual = BitVec::zeros(rows.len());
            for (i, &(pos, g)) in inst.state_out.iter().enumerate() {
                let want = target.get(g);
                if want != known.get(pos) {
                    residual.set(i, true);
                }
            }
            for (i, &pos) in inst.error_out.iter().enumerate() {
                if !known.get(pos) {
                    residual.set(inst.state_out.len() + i, true);
                }
            }
            let solution = inst.solve_inv.mul_vec(&residual);
            for (i, &(_pos, g)) in inst.mod_in.iter().enumerate() {
                if solution.get(i) {
                    modifier.set(g, true);
                }
            }
        }
        modifier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfi_mds::MdsSpec;

    use crate::PadPolicy;

    fn mds() -> &'static MdsMatrix {
        MdsSpec::ScfiLightweight.build()
    }

    #[test]
    fn small_layout_fits_one_instance() {
        // sw=6, xw=5, e=2 → (12+5)/30 → k=1.
        let l = MixLayout::build(6, 5, 2, mds(), 1, PadPolicy::Zero).unwrap();
        assert_eq!(l.k(), 1);
        assert_eq!(l.mod_width(), 6 + 2);
        assert_eq!(l.total_error_bits(), 2);
    }

    #[test]
    fn larger_layout_spans_instances() {
        // sw=11, xw=10, e=4 → (22+10)/28 → k=2.
        let l = MixLayout::build(11, 10, 4, mds(), 1, PadPolicy::Zero).unwrap();
        assert_eq!(l.k(), 2);
        assert_eq!(l.mod_width(), 11 + 2 * 4);
        // Every global state/control/mod bit appears exactly once.
        let mut seen_state = [0; 11];
        let mut seen_ctrl = [0; 10];
        let mut seen_mod = vec![0; l.mod_width()];
        for inst in l.instances() {
            for &(_, g) in &inst.state_in {
                seen_state[g] += 1;
            }
            for &(_, g) in &inst.control_in {
                seen_ctrl[g] += 1;
            }
            for &(_, g) in &inst.mod_in {
                seen_mod[g] += 1;
            }
        }
        assert!(seen_state.iter().all(|&c| c == 1));
        assert!(seen_ctrl.iter().all(|&c| c == 1));
        assert!(seen_mod.iter().all(|&c| c == 1));
    }

    #[test]
    fn positions_are_disjoint_within_instances() {
        let l = MixLayout::build(9, 7, 3, mds(), 42, PadPolicy::Zero).unwrap();
        for inst in l.instances() {
            let mut used = std::collections::HashSet::new();
            for &(p, _) in inst
                .state_in
                .iter()
                .chain(&inst.control_in)
                .chain(&inst.mod_in)
            {
                assert!(used.insert(p), "position {p} reused");
                assert!(p < 32);
            }
        }
    }

    #[test]
    fn solve_then_apply_round_trips() {
        let mds = mds();
        let l = MixLayout::build(6, 5, 2, mds, 7, PadPolicy::Zero).unwrap();
        let from = BitVec::from_u64(0b101011, 6);
        let ctrl = BitVec::from_u64(0b11001, 5);
        let target = BitVec::from_u64(0b010111, 6);
        let m = l.solve_modifier(mds, &from, &ctrl, &target);
        let (next, errors) = l.apply(mds, &from, &ctrl, &m);
        assert_eq!(next, target);
        assert_eq!(errors.count_ones(), errors.len(), "all error bits one");
    }

    #[test]
    fn round_trip_across_many_edges_and_sizes() {
        let mds = mds();
        for (sw, xw, e) in [(5, 4, 2), (8, 8, 3), (11, 10, 4), (13, 6, 2)] {
            let l = MixLayout::build(sw, xw, e, mds, 3, PadPolicy::Zero).unwrap();
            let mut rng = 0x1234_5678u64;
            for _ in 0..25 {
                let mut draw = |w: usize| {
                    rng ^= rng >> 12;
                    rng ^= rng << 25;
                    rng ^= rng >> 27;
                    BitVec::from_u64(rng.wrapping_mul(0x2545F4914F6CDD1D) & ((1u64 << w) - 1), w)
                };
                let from = draw(sw);
                let ctrl = draw(xw);
                let target = draw(sw);
                let m = l.solve_modifier(mds, &from, &ctrl, &target);
                let (next, errors) = l.apply(mds, &from, &ctrl, &m);
                assert_eq!(next, target, "sw={sw} xw={xw} e={e}");
                assert_eq!(errors.count_ones(), errors.len());
            }
        }
    }

    #[test]
    fn wrong_modifier_breaks_errors_or_state() {
        // Using edge A's modifier with edge B's inputs must not produce a
        // clean (target, all-ones) result — this is the core of the
        // modifier-selection fault argument (§6.3 step 2).
        let mds = mds();
        let l = MixLayout::build(6, 5, 2, mds, 7, PadPolicy::Zero).unwrap();
        let from_a = BitVec::from_u64(0b101011, 6);
        let ctrl_a = BitVec::from_u64(0b11001, 5);
        let target_a = BitVec::from_u64(0b010111, 6);
        let m_a = l.solve_modifier(mds, &from_a, &ctrl_a, &target_a);
        let from_b = BitVec::from_u64(0b110101, 6);
        let (next, errors) = l.apply(mds, &from_b, &ctrl_a, &m_a);
        let clean = next == target_a && errors.count_ones() == errors.len();
        assert!(!clean, "cross-edge modifier reuse must corrupt the output");
    }

    #[test]
    fn error_bit_bounds_rejected() {
        let m = mds();
        assert!(matches!(
            MixLayout::build(6, 5, 0, m, 1, PadPolicy::Zero),
            Err(ScfiError::ErrorBitsTooLarge { .. })
        ));
        assert!(matches!(
            MixLayout::build(6, 5, 16, m, 1, PadPolicy::Zero),
            Err(ScfiError::ErrorBitsTooLarge { .. })
        ));
    }

    #[test]
    fn replicate_padding_fills_every_position() {
        let mds = mds();
        let l = MixLayout::build(6, 5, 2, mds, 7, PadPolicy::Replicate).unwrap();
        for inst in l.instances() {
            let occupied = inst.state_in.len() + inst.control_in.len() + inst.mod_in.len();
            assert_eq!(occupied, 32, "every MDS input position must be driven");
            let mut used = std::collections::HashSet::new();
            for &(p, _) in inst
                .state_in
                .iter()
                .chain(&inst.control_in)
                .chain(&inst.mod_in)
            {
                assert!(used.insert(p), "position {p} reused");
            }
        }
    }

    #[test]
    fn replicate_padding_round_trips() {
        let mds = mds();
        for (sw, xw, e) in [(6, 5, 2), (11, 10, 4)] {
            let l = MixLayout::build(sw, xw, e, mds, 3, PadPolicy::Replicate).unwrap();
            let mut rng = 0xABCDu64;
            for _ in 0..20 {
                let mut draw = |w: usize| {
                    rng ^= rng >> 12;
                    rng ^= rng << 25;
                    rng ^= rng >> 27;
                    BitVec::from_u64(rng.wrapping_mul(0x2545F4914F6CDD1D) & ((1u64 << w) - 1), w)
                };
                let from = draw(sw);
                let ctrl = draw(xw);
                let target = draw(sw);
                let m = l.solve_modifier(mds, &from, &ctrl, &target);
                let (next, errors) = l.apply(mds, &from, &ctrl, &m);
                assert_eq!(next, target, "sw={sw} xw={xw} e={e}");
                assert_eq!(errors.count_ones(), errors.len());
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m = mds();
        let a = MixLayout::build(9, 7, 3, m, 11, PadPolicy::Zero).unwrap();
        let b = MixLayout::build(9, 7, 3, m, 11, PadPolicy::Zero).unwrap();
        for (ia, ib) in a.instances().iter().zip(b.instances()) {
            assert_eq!(ia.mod_in, ib.mod_in);
        }
    }

    #[test]
    fn input_faults_avalanche_into_errors() {
        // Flipping any single *input* bit of a solved edge must corrupt the
        // output (state ≠ target or some error bit cleared) — FT1/FT2.
        let mds = mds();
        let l = MixLayout::build(6, 5, 2, mds, 7, PadPolicy::Zero).unwrap();
        let from = BitVec::from_u64(0b101011, 6);
        let ctrl = BitVec::from_u64(0b11001, 5);
        let target = BitVec::from_u64(0b010111, 6);
        let m = l.solve_modifier(mds, &from, &ctrl, &target);
        for bit in 0..6 {
            let mut f = from.clone();
            f.set(bit, !f.get(bit));
            let (next, errors) = l.apply(mds, &f, &ctrl, &m);
            assert!(
                next != target || errors.count_ones() != errors.len(),
                "state bit {bit} flip undetected"
            );
        }
        for bit in 0..5 {
            let mut c = ctrl.clone();
            c.set(bit, !c.get(bit));
            let (next, errors) = l.apply(mds, &from, &c, &m);
            assert!(
                next != target || errors.count_ones() != errors.len(),
                "control bit {bit} flip undetected"
            );
        }
    }
}
