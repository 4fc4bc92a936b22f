//! End-to-end checks of the `lulesh` command line.

use std::process::Command;

/// A traced single-rank persistent run exports `iterations − 1` reuses:
/// every iteration after the capturing one replays the template.
#[test]
fn persistent_trace_counts_reuses() {
    let path = std::env::temp_dir().join(format!("lulesh_cli_trace_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_lulesh"))
        .args(["-s", "6", "-i", "4", "-tel", "8", "-t", "1", "--trace"])
        .arg(&path)
        .output()
        .expect("run lulesh");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "lulesh failed: {stdout}");
    assert!(stdout.contains("verified vs sequential"), "{stdout}");
    let doc = std::fs::read_to_string(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    assert!(
        doc.contains("\"persistent_reuses\":3"),
        "trace counters must read 3 reuses after 4 persistent iterations"
    );
}

/// Run `lulesh` with the whitespace-separated `args` plus `--trace <tmp>`;
/// return stdout and the trace document.
fn traced_run(name: &str, args: &str) -> (String, String) {
    let path = std::env::temp_dir().join(format!("lulesh_cli_{name}_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_lulesh"))
        .args(args.split_whitespace())
        .arg("--trace")
        .arg(&path)
        .output()
        .expect("run lulesh");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "lulesh failed: {stdout}");
    let doc = std::fs::read_to_string(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    (stdout, doc)
}

/// Streaming discovery stamps each span with the iteration that
/// submitted it, as the persistent replay does.
#[test]
fn streaming_trace_spans_carry_every_iteration() {
    let (stdout, doc) = traced_run("stream", "-s 6 -i 4 -tel 8 -t 1 --no-persistent");
    assert!(stdout.contains("verified vs sequential"), "{stdout}");
    for iter in 0..4 {
        assert!(
            doc.contains(&format!("\"args\":{{\"iter\":{iter}}}")),
            "no span of iteration {iter}"
        );
    }
}

/// A multi-rank trace shows rank 0's spans, so it must export rank 0's
/// counters, and it gets the same critical-path report as one rank.
#[test]
fn multi_rank_trace_exports_rank_zero() {
    let (stdout, doc) = traced_run("ranks", "-s 6 -i 2 -tel 8 -t 1 --ranks 8");
    assert!(stdout.contains("critical path"), "{stdout}");
    let rank0: u64 = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("rank 0: "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no rank 0 line in {stdout}"));
    assert!(
        doc.contains(&format!("\"tasks_created\":{rank0}")),
        "trace must export rank 0's {rank0} created tasks"
    );
}
