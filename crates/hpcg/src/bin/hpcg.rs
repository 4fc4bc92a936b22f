//! HPCG-style command line: solve the 27-point-stencil system with
//! task-based CG and report the residual trajectory.
//!
//! ```sh
//! cargo run --release -p ptdg-hpcg --bin hpcg -- --nx 12 --iters 30 --tpl 16
//! ```

use ptdg_core::exec::{run_program, ExecConfig, SchedPolicy, ThreadsConfig};
use ptdg_core::opts::OptConfig;
use ptdg_core::throttle::ThrottleConfig;
use ptdg_hpcg::{HpcgConfig, HpcgTask};
use std::path::PathBuf;

fn main() {
    let mut nx = 10usize;
    let mut iters = 25u64;
    let mut tpl = 16usize;
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut ranks = 1usize;
    let mut trace: Option<PathBuf> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 0;
    while k < argv.len() {
        let val = argv.get(k + 1).and_then(|v| v.parse::<usize>().ok());
        match (argv[k].as_str(), val) {
            ("--nx", Some(v)) => nx = v,
            ("--iters", Some(v)) => iters = v as u64,
            ("--tpl", Some(v)) => tpl = v,
            ("--workers", Some(v)) => workers = v,
            ("--ranks", Some(v)) => ranks = v,
            ("--trace", _) => match argv.get(k + 1) {
                Some(p) => trace = Some(PathBuf::from(p)),
                None => {
                    eprintln!("missing path after --trace");
                    std::process::exit(2);
                }
            },
            ("-h", _) | ("--help", _) => {
                eprintln!(
                    "usage: hpcg [--nx N] [--iters I] [--tpl B] [--workers W] [--ranks P³] \
                     [--trace out.json]"
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

    let px = (ranks as f64).cbrt().round() as usize;
    if px == 0 || px * px * px != ranks {
        eprintln!("--ranks {ranks} is not a positive perfect cube");
        std::process::exit(2);
    }
    // One rank carries the vectors and is checked against the true
    // residual; several ranks run the cost model over the in-process
    // network (halo exchanges + dot-product all-reduces).
    let cfg = HpcgConfig {
        px,
        ..HpcgConfig::single(nx, iters, tpl)
    };
    let prog = if ranks == 1 {
        HpcgTask::with_state(cfg)
    } else {
        HpcgTask::new(cfg)
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
            capture_graph: trace.is_some(),
            ..Default::default()
        },
    );
    println!(
        "CG {nx}\u{b3}/rank, {iters} iterations, {} blocks on {} ranks x {workers} workers: \
         {} tasks, {} comms posted / {} completed, {:.3}s",
        prog.cfg.blocks(),
        report.n_ranks,
        report.counters.tasks_completed,
        report.counters.comms_posted,
        report.counters.comms_completed,
        report.elapsed_ns as f64 * 1e-9
    );
    for (r, c) in report.per_rank_counters.iter().enumerate() {
        println!(
            "  rank {r}: {} tasks, {} posted / {} completed, {} unexpected",
            c.tasks_completed, c.comms_posted, c.comms_completed, c.unexpected_msgs
        );
    }
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
    if let Some(st) = &prog.state {
        for (iter, r) in st.trajectory.snapshot().iter().enumerate() {
            if iter % 5 == 4 {
                println!("iter {:>4}: residual {r:.6e}", iter + 1);
            }
        }
        let agree = st.residuals_agree();
        println!(
            "residual {:.3e} (true {:.3e}, {})",
            st.residual(),
            st.true_residual(),
            if agree { "agrees" } else { "MISMATCH" }
        );
        if !agree {
            std::process::exit(1);
        }
    }
}
