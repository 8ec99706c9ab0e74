//! `e2e_rubis --check`: all four workloads at tiny counts on a tiny data
//! set, both passes, every correctness check on (snapshot audit, degraded
//! ops, protocol errors, workload shape, WAL recovery, budget arithmetic,
//! node replay) and the exact counts compared between the passes.

use std::process::Command;

#[test]
fn check_mode_passes_every_correctness_check() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e_rubis"))
        .arg("--check")
        .output()
        .expect("run e2e_rubis --check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "--check failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    for workload in [
        "rubis_bidding",
        "rubis_browse_hot",
        "rubis_write_heavy",
        "rubis_nocache",
    ] {
        assert!(
            stdout.contains(&format!("{workload} check ok")),
            "no verdict for {workload}:\n{stdout}"
        );
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "rubis_bidding", "--trace", "2"][..],
        &["--compare", "only-one.json"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2e_rubis"))
            .args(args)
            .output()
            .expect("run e2e_rubis");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
