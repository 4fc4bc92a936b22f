//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lulesh_stream --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Runs one workload for `--seconds`, verifies every solve, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`), ending with one JSON result line. See `README.md` in
//! this directory for what each workload and metric is for.

mod cholesky;
mod harness;
mod host;
mod lulesh;
mod metrics;
mod sim;
mod stats;

use harness::{end_to_end, measure, Mode, Phase, Workload};
use metrics::{Values, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Duration;

/// Solves discarded before timing; the first one is reported as
/// `exec.cold_solve_s`.
const WARMUPS: usize = 2;

/// Fewest solves each mode of a timed run makes, whatever its budget.
const MIN_SOLVES: usize = 3;

const WORKLOADS: [&str; 4] = [
    "lulesh_stream",
    "lulesh_persistent",
    "cholesky_tiles",
    "sim_lulesh_ranks",
];

const USAGE: &str = "usage: perfbench --workload <lulesh_stream|lulesh_persistent|\
cholesky_tiles|sim_lulesh_ranks> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value after {flag}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("bad value {value:?} after {flag}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|&&w| w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Builds `workload` at the benchmark's size, or at a seconds-long size
/// for tests when `full` is false.
fn build(workload: &str, full: bool, seed: u64, workers: usize) -> Box<dyn Workload> {
    let lulesh = if full {
        lulesh::Size::FULL
    } else {
        lulesh::Size::TINY
    };
    match workload {
        "lulesh_stream" => Box::new(lulesh::Lulesh::new(lulesh, false, workers)),
        "lulesh_persistent" => Box::new(lulesh::Lulesh::new(lulesh, true, workers)),
        "cholesky_tiles" => {
            let size = if full {
                cholesky::Size::FULL
            } else {
                cholesky::Size::TINY
            };
            Box::new(cholesky::Cholesky::new(size, seed, workers))
        }
        "sim_lulesh_ranks" => {
            let size = if full {
                sim::Size::FULL
            } else {
                sim::Size::TINY
            };
            Box::new(sim::SimLulesh::new(size, seed))
        }
        other => unreachable!("parse admits only known workloads, got {other}"),
    }
}

/// What one run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    values: Values,
}

fn run(w: &mut dyn Workload, seconds: f64, trace: bool) -> Outcome {
    let budget = Duration::from_secs_f64(seconds);
    let mut phases = measure(w, &[Mode::Plain], Duration::ZERO, WARMUPS);
    let cold_solve_s = phases[0].solves[0].solve_s;
    let mut values = if trace {
        let timed = measure(
            w,
            &[Mode::Plain, Mode::Traced, Mode::Profiled],
            budget,
            MIN_SOLVES,
        );
        let [plain, traced, profiled] = &timed[..] else {
            unreachable!("one phase per mode")
        };
        let median = |p: &Phase| stats::median(&p.solve_s()).unwrap_or(0.0);
        let mut v = end_to_end(w, traced);
        v.extend(traced.layer_medians());
        v.extend(w.extra_layers());
        v.set("exec.cold_solve_s", cold_solve_s);
        v.set("bench.trace_overhead", median(traced) / median(plain));
        v.set(
            "obs.profile_overhead",
            median(profiled) / median(plain) - 1.0,
        );
        phases.extend(timed);
        v
    } else {
        let timed = measure(w, &[Mode::Plain], budget, MIN_SOLVES);
        let v = end_to_end(w, &timed[0]);
        phases.extend(timed);
        v
    };
    let attempted = phases.iter().map(|p| p.solves.len() as u64).sum();
    let failed = phases.iter().map(Phase::failed).sum();
    values.set("failed_frac", stats::failed_frac(attempted, failed));
    Outcome {
        attempted,
        failed,
        values,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = host::nproc();
    // One rank: the producer plus nproc − 1 workers, never more threads
    // than the host has, so no number comes from an oversubscribed run.
    let workers = nproc.saturating_sub(1).max(1);
    let mut w = build(args.workload, true, args.seed, workers);
    println!(
        "host: nproc {nproc}, commit {}, {}, workload {}, seed {}, workers {}, threads {}",
        host::commit(),
        host::rustc(),
        args.workload,
        args.seed,
        w.workers(),
        w.threads()
    );
    if w.threads() > nproc {
        eprintln!(
            "{} needs {} threads but this host has {nproc}: refusing an oversubscribed run",
            args.workload,
            w.threads()
        );
        return ExitCode::from(2);
    }
    let ticks0 = host::cpu_ticks();
    let out = run(w.as_mut(), args.seconds, args.trace);
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, host::cpu_ticks()) {
        let stolen = stats::ratio((s1 - s0) as f64, (t1 - t0) as f64);
        println!(
            "host: {:.1}% of CPU time stolen during the run",
            stolen * 100.0
        );
    }
    let metrics = if args.trace { PER_LAYER } else { END_TO_END };
    metrics::print_table(metrics, &out.values);
    println!(
        "  {} of {} solves failed verification (failed_frac {})",
        out.failed,
        out.attempted,
        stats::failed_frac(out.attempted, out.failed)
    );
    if let (Some(n), Some((pct, tail))) = (
        out.values.get("bench.solves"),
        out.values
            .get("bench.tail_pct")
            .zip(out.values.get("bench.tail_solve_s")),
    ) {
        println!("  {n} timed solves; p{pct} solve_s {tail:.6} s");
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        metrics::result_line(correct, out.attempted, out.failed, metrics, &out.values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = args("--workload cholesky_tiles --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("cholesky_tiles", 7, 12.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload lulesh_stream --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload lulesh_stream --seed 1 --seconds 1").is_err());
        assert!(args("--workload lulesh_stream --seed").is_err());
    }

    /// Every workload at a tiny size verifies, and reports every metric
    /// except those in `not_applicable` (and the solve tail, which needs
    /// more solves than a smoke run makes).
    fn smoke(workload: &str, not_applicable: &[&str]) {
        for trace in [false, true] {
            let mut w = build(workload, false, 3, 1);
            let out = run(w.as_mut(), 0.0, trace);
            assert_eq!(out.failed, 0, "{workload}");
            assert!(out.attempted as usize >= WARMUPS + MIN_SOLVES);
            let metrics = if trace { PER_LAYER } else { END_TO_END };
            for m in metrics {
                let skip = m.name.starts_with("bench.tail")
                    || not_applicable.iter().any(|p| m.name.starts_with(p));
                let value = out.values.get(m.name);
                assert!(skip || value.is_some(), "{workload} lacks {}", m.name);
            }
            let line = metrics::result_line(true, out.attempted, 0, metrics, &out.values);
            for m in metrics {
                assert!(line.contains(&format!("\"{}\":{{\"value\":", m.name)));
            }
        }
    }

    const SIM_ONLY: [&str; 3] = ["simrt.", "simmpi.", "memsim."];

    #[test]
    fn smoke_lulesh_stream() {
        let na = ["kernel.gflops", "graph.capture_ms", "rt.rearm"];
        smoke("lulesh_stream", &[&na[..], &SIM_ONLY].concat());
    }

    #[test]
    fn smoke_lulesh_persistent() {
        let na = ["kernel.gflops", "exec.wait_all_s"];
        smoke("lulesh_persistent", &[&na[..], &SIM_ONLY].concat());
    }

    #[test]
    fn smoke_cholesky_tiles() {
        smoke(
            "cholesky_tiles",
            &[&["exec.wait_all_s"][..], &SIM_ONLY].concat(),
        );
    }

    #[test]
    fn smoke_sim_lulesh_ranks() {
        smoke(
            "sim_lulesh_ranks",
            &["kernel.", "graph.capture_ms", "exec.", "rt.rearm"],
        );
    }
}
