//! BDD-based formal fault certification for SCFI netlists — the engine
//! that *proves* the detection guarantee the fault campaigns only sample.
//!
//! The SCFI paper's central claim (§3, §5) is universal: with protection
//! level N, any fault affecting fewer than N bits of the state vector is
//! always detected. Simulation campaigns (`scfi-faultsim`) check that
//! claim on concrete scenarios — one register preload and one input word
//! per injection — and can therefore only ever *sample* it. This crate
//! closes the gap with a symbolic engine:
//!
//! 1. [`Bdd`] — a small hash-consed ROBDD package (unique table,
//!    memoized `ite`, quantification, renaming, witness extraction).
//! 2. [`SymbolicEvaluator`] — runs a [`Module`](scfi_netlist::Module)
//!    for one clock cycle with fully symbolic inputs and register state;
//!    the 2-input `CellKind` set maps 1:1 onto BDD connectives, and the
//!    fault semantics mirror the scalar simulator's exactly.
//! 3. [`reachable_states`] — the least-fixpoint image computation over
//!    the DFF transition functions from the reset state.
//! 4. [`Certifier`] — for every fault site of the campaign fault model
//!    ([`Fault`](scfi_faultsim::Fault)), builds the BDD of "the faulty
//!    run diverges from the fault-free run AND escapes every detection
//!    mechanism", constrained to reachable states, and reports
//!    [`Verdict::ProvenDetected`] / [`Verdict::ProvenMasked`] proofs or
//!    a [`Verdict::Counterexample`] whose witness is replayed through
//!    the scalar simulator for confirmation.
//!
//! The engine is the repo's second, *independent* verdict oracle: the
//! workspace conformance suite cross-checks certification against
//! exhaustive campaign outcomes on every Table-1 FSM and all three §6.1
//! configurations.
//!
//! # Example
//!
//! ```
//! use scfi_core::{harden, ScfiConfig};
//! use scfi_faultsim::{enumerate_faults, CampaignConfig};
//! use scfi_fsm::parse_fsm;
//! use scfi_symbolic::Certifier;
//!
//! let fsm = parse_fsm(
//!     "fsm lock { inputs k; state L { if k -> O; } state O { goto L; } }",
//! )?;
//! let hardened = harden(&fsm, &ScfiConfig::new(3))?;
//!
//! // Certify every stored-bit flip — the paper's FT1 attacker.
//! let faults = enumerate_faults(
//!     hardened.module(),
//!     &CampaignConfig::new().effects(vec![]).with_register_flips(),
//! );
//! let report = Certifier::new(&hardened).certify_all(&faults);
//! assert!(report.all_proven()); // zero counterexamples: the claim is proved
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

mod bdd;
mod certify;
mod eval;
mod hash;
mod reach;
mod unroll;

pub use bdd::{Bdd, BddOverflow, BddRef};
pub use certify::{
    describe_fault, CertificationReport, Certifier, CertifyBudget, CertifyModel, EscapeRanking,
    SiteReport, Verdict, Witness,
};
pub use eval::{SymStep, SymbolicEvaluator, VarMap};
pub use reach::{reachable_states, state_cube, try_reachable_states, try_state_cube, Reachability};
pub use unroll::{JointReport, JointVerdict, JointWitness, KStepVerdict, KStepWitness};
