//! What a result line must carry about the host and build that made it.

use std::path::Path;

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, read from `.git` in the working directory;
/// `unknown` where the checkout is not a git repository.
pub fn commit() -> String {
    read_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into())
}

fn read_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// The compiler that built this benchmark.
pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// Restarts the peak resident set count (`VmHWM`) from the current
/// resident set, so the next [`peak_rss_mb`] covers only what follows.
/// Where the kernel offers no reset, the peak keeps counting from process
/// start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since start or the last
/// [`reset_peak_rss`], in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cumulative CPU time of the host as `(stolen, total)` ticks, from the
/// first line of `/proc/stat`. On a virtual machine, stolen time is when
/// the hypervisor ran something else on this machine's CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    Some((*fields.get(7)?, fields.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_follows_a_ref_or_reads_a_detached_head() {
        let dir = std::env::temp_dir().join(format!("perfbench-git-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        assert_eq!(read_commit(&dir), None);
        std::fs::write(dir.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(read_commit(&dir).as_deref(), Some("abc123"));
        std::fs::write(dir.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(read_commit(&dir).as_deref(), Some("def456"));
        std::fs::write(dir.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(read_commit(&dir).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peak_rss_restarts_from_the_current_resident_set() {
        // Other tests run alongside and hold a few MiB; 256 MiB stands
        // well clear of them.
        let big = vec![1u8; 256 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = peak_rss_mb().unwrap();
        reset_peak_rss();
        let after = peak_rss_mb().unwrap();
        assert!(after > 0.0 && after < before - 128.0, "{before} -> {after}");
    }

    #[test]
    fn stolen_ticks_are_part_of_the_total() {
        let (stolen, total) = cpu_ticks().unwrap();
        assert!(stolen <= total && total > 0);
    }
}
