//! Tile Cholesky on one rank of the thread executor (`cholesky_tiles`):
//! real kernels, coarse tiles, the persistent graph replaying repeated
//! factorizations of one seeded SPD matrix.

use crate::harness::{
    exec_config, graph_layers, rearm_ns_per_task, rt_layers, secs, submit_layers, Mode, Solve,
    SubmitClock, Workload,
};
use crate::metrics::Values;
use crate::stats;
use ptdg_cholesky::{CholeskyConfig, CholeskyTask, TileMatrix};
use ptdg_core::exec::Executor;
use ptdg_core::opts::OptConfig;
use ptdg_simrt::RankProgram;
use std::time::Instant;

/// Times the matrix is built per process, for a median set-up time.
const SETUP_REPS: usize = 3;

/// Bound on `max |L·Lᵀ − A|` of the reference factorization.
const MAX_ERROR: f64 = 1e-8;

/// Problem size of the Cholesky workload.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Tiles per matrix edge.
    pub nt: usize,
    /// Tile edge.
    pub b: usize,
    /// Factorizations per solve: one capturing, the rest replayed.
    pub factorizations: u64,
}

impl Size {
    /// The benchmark size: ~440 coarse tasks per factorization.
    pub const FULL: Size = Size {
        nt: 12,
        b: 64,
        factorizations: 6,
    };
    /// A seconds-long smoke size for tests.
    pub const TINY: Size = Size {
        nt: 3,
        b: 8,
        factorizations: 3,
    };
}

pub struct Cholesky {
    size: Size,
    prog: CholeskyTask,
    workers: usize,
    setup_s: f64,
    /// Digest of the sequentially factored matrix.
    reference: u64,
    seq_s: f64,
}

impl Cholesky {
    /// Builds the seeded matrix [`SETUP_REPS`] times (timed) and factors
    /// a copy sequentially as the reference.
    pub fn new(size: Size, seed: u64, workers: usize) -> Cholesky {
        let cfg = CholeskyConfig::single(size.nt, size.b, size.factorizations);
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut prog = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            prog = Some(CholeskyTask::with_matrix(cfg.clone(), seed));
            setups.push(secs(t0));
        }
        let reference = TileMatrix::new_spd(size.nt, size.b, seed);
        let t0 = Instant::now();
        for _ in 0..size.factorizations {
            for idx in 0..reference.tiles.len() {
                reference.k_reset(idx);
            }
            reference.factor_sequential();
        }
        let seq_s = secs(t0);
        let error = reference.factorization_error();
        assert!(error < MAX_ERROR, "sequential reference error {error:e}");
        Cholesky {
            size,
            prog: prog.expect("SETUP_REPS > 0"),
            workers,
            setup_s: stats::median(&setups).unwrap_or(0.0),
            reference: reference.digest(),
            seq_s,
        }
    }
}

impl Workload for Cholesky {
    fn threads(&self) -> usize {
        self.workers + 1
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn shared_setup_s(&self) -> f64 {
        self.setup_s
    }

    /// A solve is one persistent region of `factorizations` runs; every
    /// run's factor is checked against the reference digest. Iteration
    /// latencies are the replayed runs.
    fn solve(&mut self, mode: Mode) -> Solve {
        let t0 = Instant::now();
        let exec = Executor::new(exec_config(self.workers, mode == Mode::Profiled));
        let setup_s = secs(t0);
        let traced = mode == Mode::Traced;
        let matrix = self
            .prog
            .matrix
            .as_ref()
            .expect("with_matrix attaches tiles");
        let mut clock = SubmitClock::default();
        let mut layers = Values::default();
        let mut region = exec.persistent_region(OptConfig::all());
        let mut lat = Vec::with_capacity(self.size.factorizations as usize);
        let mut ok = true;
        for iter in 0..self.size.factorizations {
            let t0 = Instant::now();
            region.run(iter, |sub| {
                if traced {
                    self.prog.build_iteration(0, iter, &mut clock.wrap(sub));
                } else {
                    self.prog.build_iteration(0, iter, sub);
                }
            });
            lat.push(secs(t0) * 1e3);
            ok &= matrix.digest() == self.reference;
        }
        let solve_s = lat.iter().sum::<f64>() * 1e-3;
        if traced {
            let counters = exec.take_obs().counters;
            layers.set("graph.capture_ms", lat[0]);
            graph_layers(&mut layers, &region.first_iteration_stats());
            submit_layers(&mut layers, &clock, &counters, solve_s);
            rt_layers(&mut layers, &counters);
            let template = region.template().expect("the first run captured");
            layers.set("rt.rearm_ns_per_task", rearm_ns_per_task(template));
        }
        lat.remove(0);
        Solve {
            setup_s,
            solve_s,
            iter_ms: lat,
            ok,
            layers,
        }
    }

    fn extra_layers(&mut self) -> Values {
        let mut v = Values::default();
        let n = (self.size.nt * self.size.b) as f64;
        let flops = self.size.factorizations as f64 * n * n * n / 3.0;
        v.set("kernel.seq_s", self.seq_s);
        v.set("kernel.gflops_computed", flops / self.seq_s * 1e-9);
        v
    }
}
