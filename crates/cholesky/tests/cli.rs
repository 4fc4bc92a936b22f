//! End-to-end checks of the `cholesky` command line.

use std::process::Command;

/// A traced run exports `repeats − 1` persistent reuses: every
/// factorization after the capturing one replays the template.
#[test]
fn persistent_trace_counts_reuses() {
    let path = std::env::temp_dir().join(format!("cholesky_cli_trace_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_cholesky"))
        .args(["--nt", "4", "--b", "8", "--repeats", "4", "--workers", "2"])
        .arg("--trace")
        .arg(&path)
        .output()
        .expect("run cholesky");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "cholesky failed: {stdout}");
    assert!(stdout.contains("max |L·Lᵀ − A|"), "{stdout}");
    let doc = std::fs::read_to_string(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    assert!(
        doc.contains("\"persistent_reuses\":3"),
        "trace counters must read 3 reuses after 4 persistent factorizations"
    );
}

/// Several ranks run optimization (p) as one rank does, and their trace
/// is written with rank 0's counters.
#[test]
fn multi_rank_trace_counts_reuses() {
    let path = std::env::temp_dir().join(format!("cholesky_cli_ranks_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_cholesky"))
        .args(["--nt", "4", "--b", "8", "--repeats", "4", "--workers", "1"])
        .args(["--ranks", "2", "--trace"])
        .arg(&path)
        .output()
        .expect("run cholesky");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "cholesky failed: {stdout}");
    assert!(stdout.contains("critical path"), "{stdout}");
    let doc = std::fs::read_to_string(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    assert!(
        doc.contains("\"persistent_reuses\":3"),
        "rank 0 must read 3 reuses after 4 persistent factorizations"
    );
}
