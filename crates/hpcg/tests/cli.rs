//! End-to-end checks of the `hpcg` command line.

use std::path::Path;
use std::process::Command;

/// Run `hpcg` with the whitespace-separated `args`, plus `--trace <path>`
/// if given; return its stdout.
fn hpcg(args: &str, trace: Option<&Path>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hpcg"));
    cmd.args(args.split_whitespace());
    if let Some(path) = trace {
        cmd.arg("--trace").arg(path);
    }
    let out = cmd.output().expect("run hpcg");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "hpcg failed: {stdout}");
    stdout
}

/// Run `hpcg` with `args` plus `--trace <tmp>`; return stdout and the
/// trace document.
fn traced_run(name: &str, args: &str) -> (String, String) {
    let path = std::env::temp_dir().join(format!("hpcg_cli_{name}_{}.json", std::process::id()));
    let stdout = hpcg(args, Some(&path));
    let doc = std::fs::read_to_string(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    (stdout, doc)
}

/// The residual trajectory is recorded by the reduction tasks and printed
/// every 5 iterations after the run; the final line carries the check of
/// the bookkeeping residual against the recomputed one.
#[test]
fn single_rank_prints_trajectory_and_check() {
    let stdout = hpcg("--nx 6 --iters 10 --tpl 4 --workers 1", None);
    let residual = |iter: u64| -> f64 {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("iter {iter:>4}: residual ")))
            .unwrap_or_else(|| panic!("no residual for iteration {iter} in {stdout}"))
            .parse()
            .expect("residual value")
    };
    let (r5, r10) = (residual(5), residual(10));
    assert!(r5 > 0.0 && r10 < r5, "CG must converge: {r5} -> {r10}");
    assert!(stdout.contains(", agrees)"), "{stdout}");
}

/// Streaming discovery stamps each span with its iteration.
#[test]
fn trace_spans_carry_every_iteration() {
    let (stdout, doc) = traced_run("iters", "--nx 4 --iters 6 --tpl 2 --workers 1");
    assert!(stdout.contains("critical path"), "{stdout}");
    for iter in 0..6 {
        assert!(
            doc.contains(&format!("\"args\":{{\"iter\":{iter}}}")),
            "no span of iteration {iter}"
        );
    }
}

/// `--trace` is honoured for every rank count.
#[test]
fn multi_rank_run_writes_the_trace() {
    let (stdout, doc) = traced_run("ranks", "--nx 4 --iters 2 --ranks 8 --workers 1");
    assert!(stdout.contains("critical path"), "{stdout}");
    assert!(doc.contains("\"traceEvents\""));
}
