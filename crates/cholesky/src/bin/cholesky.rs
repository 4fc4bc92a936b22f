//! Tile-Cholesky command line: factor a seeded SPD matrix with dependent
//! tasks and verify the factorization.
//!
//! ```sh
//! cargo run --release -p ptdg-cholesky --bin cholesky -- --nt 6 --b 16 --repeats 4
//! ```

use ptdg_cholesky::{CholeskyConfig, CholeskyTask};
use ptdg_core::exec::{run_program, ExecConfig, SchedPolicy, ThreadsConfig};
use ptdg_core::opts::OptConfig;
use ptdg_core::throttle::ThrottleConfig;
use std::path::PathBuf;

fn main() {
    let mut nt = 6usize;
    let mut b = 16usize;
    let mut repeats = 3u64;
    let mut seed = 42u64;
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut ranks = 1u32;
    let mut trace: Option<PathBuf> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 0;
    while k < argv.len() {
        let val = argv.get(k + 1).and_then(|v| v.parse::<u64>().ok());
        match (argv[k].as_str(), val) {
            ("--nt", Some(v)) => nt = v as usize,
            ("--b", Some(v)) => b = v as usize,
            ("--repeats", Some(v)) => repeats = v,
            ("--seed", Some(v)) => seed = v,
            ("--workers", Some(v)) => workers = v as usize,
            ("--ranks", Some(v)) => ranks = v as u32,
            ("--trace", _) => match argv.get(k + 1) {
                Some(p) => trace = Some(PathBuf::from(p)),
                None => {
                    eprintln!("missing path after --trace");
                    std::process::exit(2);
                }
            },
            ("-h", _) | ("--help", _) => {
                eprintln!(
                    "usage: cholesky [--nt T] [--b B] [--repeats R] [--seed S] [--workers W] \
                     [--ranks N] [--trace out.json]"
                );
                return;
            }
            (flag, _) => {
                eprintln!("bad flag/value: {flag} (try --help)");
                std::process::exit(2);
            }
        }
        k += 2;
    }

    if ranks == 0 {
        eprintln!("--ranks must be positive");
        std::process::exit(2);
    }
    // One rank factors a seeded SPD matrix and verifies it; several ranks
    // run the cost model of the 1-D cyclic panel distribution, with panel
    // broadcasts through the in-process network.
    let cfg = CholeskyConfig {
        n_ranks: ranks,
        ..CholeskyConfig::single(nt, b, repeats)
    };
    let prog = if ranks == 1 {
        CholeskyTask::with_matrix(cfg, seed)
    } else {
        CholeskyTask::new(cfg)
    };
    let report = run_program(
        &prog,
        &ThreadsConfig {
            exec: ExecConfig {
                n_workers: workers,
                policy: SchedPolicy::DepthFirst,
                throttle: ThrottleConfig::mpc_default(),
                profile: trace.is_some(),
                record_events: false,
            },
            opts: OptConfig::all(),
            persistent: true,
            capture_graph: true,
            ..Default::default()
        },
    );
    println!(
        "Cholesky {n}x{n} ({nt}x{nt} tiles of {b}x{b}), {repeats} repeats on {} ranks x \
         {workers} workers: {} tasks, {} comms posted / {} completed, {:.3}s",
        report.n_ranks,
        report.counters.tasks_completed,
        report.counters.comms_posted,
        report.counters.comms_completed,
        report.elapsed_ns as f64 * 1e-9,
        n = nt * b,
    );
    for (r, c) in report.per_rank_counters.iter().enumerate() {
        println!(
            "  rank {r}: {} tasks, {} posted / {} completed, {} unexpected",
            c.tasks_completed, c.comms_posted, c.comms_completed, c.unexpected_msgs
        );
    }
    let t = &report.graphs[0];
    println!(
        "persistent TDG of rank 0: {} tasks / {} edges per factorization",
        t.n_tasks(),
        t.n_edges()
    );
    if let Some(path) = &trace {
        match report.write_trace(path, workers) {
            Ok(cp) => println!(
                "chrome trace of rank 0 written to {} (load at https://ui.perfetto.dev)\n{}",
                path.display(),
                cp.render(5)
            ),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(err) = &report.comm_error {
        eprintln!("{err}");
        std::process::exit(1);
    }
    if let Some(matrix) = &prog.matrix {
        let err = matrix.factorization_error();
        println!("  max |L·Lᵀ − A| = {err:.3e}");
        assert!(err < 1e-8, "factorization failed verification");
    }
}
