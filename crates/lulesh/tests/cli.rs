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
