//! Golden-file tests for the human-readable `scfi analyze` and
//! `scfi certify` reports, and for the exit codes of their failure modes.
//!
//! None of these reports contains a timing or a path, and campaigns and
//! certification are deterministic, so each output is a stable artifact
//! pinned byte for byte. A failing run is pinned twice: its exit code and
//! the partial report it writes before exiting. Regenerate one golden
//! (from the repository root) with, e.g.:
//!
//! ```text
//! cargo run -q -p scfi-cli -- suite pwrmgr_fsm > pwrmgr_fsm.dsl
//! cargo run -q -p scfi-cli -- analyze pwrmgr_fsm.dsl --rank \
//!   > crates/cli/tests/golden/analyze_pwrmgr_rank.txt
//! ```
//!
//! where the `demo` input is
//! `fsm demo { inputs go; state A { if go -> B; } state B { goto A; } }`.

const DEMO: &str = "fsm demo { inputs go; state A { if go -> B; } state B { goto A; } }";

/// Runs `scfi <command> <input> <flags>` on the named input (`demo` or a
/// bundled suite FSM) and returns the written output plus the exit code.
fn run_on(input: &str, command: &str, flags: &[&str]) -> (String, i32) {
    let dsl = if input == "demo" {
        DEMO.to_string()
    } else {
        scfi_opentitan::by_name(input)
            .expect("bundled Table-1 FSM")
            .fsm
            .to_dsl()
    };
    let tag = flags.join("").replace('-', "");
    let path = std::env::temp_dir().join(format!(
        "scfi_golden_text_{}_{command}_{input}{tag}.dsl",
        std::process::id()
    ));
    std::fs::write(&path, dsl).expect("writable temp dir");
    let mut args = vec![
        command.to_string(),
        path.to_str().expect("utf8").to_string(),
    ];
    args.extend(flags.iter().map(|s| s.to_string()));
    let mut out = String::new();
    let code = match scfi_cli::run(&args, &mut out) {
        Ok(()) => 0,
        Err(e) => e.code,
    };
    let _ = std::fs::remove_file(&path);
    (out, code)
}

fn check(golden: &str, expected_code: i32, actual: (String, i32)) {
    let (out, code) = actual;
    assert_eq!(code, expected_code, "exit code drifted; output:\n{out}");
    assert_eq!(
        out, golden,
        "report drifted from the golden file; see the module docs for the \
         regeneration command"
    );
}

#[test]
fn analyze_default() {
    check(
        include_str!("golden/analyze_pwrmgr.txt"),
        0,
        run_on("pwrmgr_fsm", "analyze", &[]),
    );
}

#[test]
fn analyze_fuzzed_protocol() {
    check(
        include_str!("golden/analyze_pwrmgr_protocol_fuzz.txt"),
        0,
        run_on(
            "pwrmgr_fsm",
            "analyze",
            &["--protocol", "2", "--fuzz-inputs"],
        ),
    );
}

#[test]
fn analyze_multi_fault_windows() {
    check(
        include_str!("golden/analyze_pwrmgr_multi_windows.txt"),
        0,
        run_on(
            "pwrmgr_fsm",
            "analyze",
            &["--multi", "2", "--runs", "500", "--fault-windows"],
        ),
    );
}

#[test]
fn analyze_rank() {
    check(
        include_str!("golden/analyze_pwrmgr_rank.txt"),
        0,
        run_on("pwrmgr_fsm", "analyze", &["--rank"]),
    );
}

#[test]
fn analyze_diffusion_stuck_at() {
    check(
        include_str!("golden/analyze_pwrmgr_diffusion_stuck_at.txt"),
        0,
        run_on(
            "pwrmgr_fsm",
            "analyze",
            &["--region", "diffusion", "--stuck-at"],
        ),
    );
}

#[test]
fn certify_scfi() {
    check(
        include_str!("golden/certify_pwrmgr.txt"),
        0,
        run_on("pwrmgr_fsm", "certify", &[]),
    );
}

#[test]
fn certify_per_site() {
    check(
        include_str!("golden/certify_pwrmgr_per_site.txt"),
        0,
        run_on("pwrmgr_fsm", "certify", &["--per-site"]),
    );
}

#[test]
fn certify_unprotected_counterexamples() {
    check(
        include_str!("golden/certify_pwrmgr_unprotected.txt"),
        0,
        run_on("pwrmgr_fsm", "certify", &["--config", "unprotected"]),
    );
}

#[test]
fn certify_redundancy() {
    check(
        include_str!("golden/certify_pwrmgr_redundancy.txt"),
        0,
        run_on("pwrmgr_fsm", "certify", &["--config", "redundancy"]),
    );
}

#[test]
fn certify_joint_scfi() {
    check(
        include_str!("golden/certify_pwrmgr_joint.txt"),
        0,
        run_on("pwrmgr_fsm", "certify", &["--joint"]),
    );
}

#[test]
fn certify_joint_unprotected() {
    check(
        include_str!("golden/certify_pwrmgr_joint_unprotected.txt"),
        0,
        run_on(
            "pwrmgr_fsm",
            "certify",
            &["--joint", "--config", "unprotected"],
        ),
    );
}

/// A refuted `--expect-proof` exits 3 after writing the full report.
#[test]
fn certify_refuted_expect_proof_exits_3() {
    check(
        include_str!("golden/certify_demo_unprotected_expect_proof.txt"),
        3,
        run_on(
            "demo",
            "certify",
            &["--config", "unprotected", "--expect-proof"],
        ),
    );
}

/// A starved BDD node budget exits 5 with every site UNKNOWN.
#[test]
fn certify_node_budget_exits_5() {
    check(
        include_str!("golden/certify_pwrmgr_max_bdd_nodes_64.txt"),
        5,
        run_on("pwrmgr_fsm", "certify", &["--max-bdd-nodes", "64"]),
    );
}

/// An expired deadline exits 4 with the PARTIAL RESULT block.
#[test]
fn analyze_expired_deadline_exits_4() {
    check(
        include_str!("golden/analyze_demo_timeout_0.txt"),
        4,
        run_on("demo", "analyze", &["--timeout-secs", "0"]),
    );
}
