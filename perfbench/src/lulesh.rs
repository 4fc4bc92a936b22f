//! LULESH on one rank of the thread executor, with real arrays:
//! streaming discovery (`lulesh_stream`) or the persistent graph
//! (`lulesh_persistent`).

use crate::harness::{
    exec_config, graph_layers, rearm_ns_per_task, rt_layers, secs, submit_layers, Mode, Solve,
    SubmitClock, Workload,
};
use crate::metrics::Values;
use ptdg_core::exec::Executor;
use ptdg_core::opts::OptConfig;
use ptdg_lulesh::sequential::run_sequential;
use ptdg_lulesh::{LuleshConfig, LuleshTask};
use ptdg_simrt::RankProgram;
use std::time::Instant;

/// Problem size of the LULESH workloads.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Elements per mesh edge (`-s`).
    pub s: usize,
    /// Time steps per solve (`-i`).
    pub iters: u64,
    /// Tasks per loop (TPL).
    pub tpl: usize,
}

impl Size {
    /// The benchmark size: fine enough that discovery bounds streaming.
    pub const FULL: Size = Size {
        s: 40,
        iters: 20,
        tpl: 512,
    };
    /// A seconds-long smoke size for tests.
    pub const TINY: Size = Size {
        s: 5,
        iters: 3,
        tpl: 8,
    };
}

pub struct Lulesh {
    cfg: LuleshConfig,
    persistent: bool,
    workers: usize,
    /// Digest of the sequential reference at the same s/i/TPL.
    reference: u64,
    seq_s: f64,
}

impl Lulesh {
    pub fn new(size: Size, persistent: bool, workers: usize) -> Lulesh {
        let t0 = Instant::now();
        let reference = run_sequential(size.s, size.iters, size.tpl).digest();
        Lulesh {
            cfg: LuleshConfig::single(size.s, size.iters, size.tpl),
            persistent,
            workers,
            reference,
            seq_s: secs(t0),
        }
    }
}

impl Workload for Lulesh {
    fn threads(&self) -> usize {
        self.workers + 1
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn shared_setup_s(&self) -> f64 {
        0.0
    }

    /// A solve is one `-i` run from a fresh state. Iteration latencies are
    /// the replayed `PersistentRegion::run` calls. Streaming iterations
    /// overlap, so there an iteration's latency is the producer's interval
    /// between the ends of consecutive iterations' submission, the last one
    /// running to the end of the final wait.
    fn solve(&mut self, mode: Mode) -> Solve {
        let t0 = Instant::now();
        let prog = LuleshTask::with_state(self.cfg.clone());
        let exec = Executor::new(exec_config(self.workers, mode == Mode::Profiled));
        let setup_s = secs(t0);
        let traced = mode == Mode::Traced;
        let mut clock = SubmitClock::default();
        let mut layers = Values::default();
        let iters = self.cfg.iterations;

        let t0 = Instant::now();
        let (stats, iter_ms, solve_s) = if self.persistent {
            let mut region = exec.persistent_region(OptConfig::all());
            let mut lat = Vec::with_capacity(iters as usize);
            for iter in 0..iters {
                let ti = Instant::now();
                region.run(iter, |sub| {
                    if traced {
                        prog.build_iteration(0, iter, &mut clock.wrap(sub));
                    } else {
                        prog.build_iteration(0, iter, sub);
                    }
                });
                lat.push(secs(ti) * 1e3);
            }
            let solve_s = secs(t0);
            if traced {
                layers.set("graph.capture_ms", lat[0]);
                let template = region.template().expect("the first run captured");
                layers.set("rt.rearm_ns_per_task", rearm_ns_per_task(template));
            }
            lat.remove(0);
            (region.first_iteration_stats(), lat, solve_s)
        } else {
            let mut session = exec.session(OptConfig::all());
            let mut lat = Vec::with_capacity(iters as usize);
            let mut tick = t0;
            for iter in 0..iters {
                session.set_iter(iter);
                if traced {
                    prog.build_iteration(0, iter, &mut clock.wrap(&mut session));
                } else {
                    prog.build_iteration(0, iter, &mut session);
                }
                if iter + 1 < iters {
                    let now = Instant::now();
                    lat.push((now - tick).as_secs_f64() * 1e3);
                    tick = now;
                }
            }
            let tw = Instant::now();
            session.wait_all();
            lat.push(secs(tick) * 1e3);
            let solve_s = secs(t0);
            if traced {
                layers.set("exec.wait_all_s", secs(tw));
            }
            (session.stats(), lat, solve_s)
        };
        if traced {
            let counters = exec.take_obs().counters;
            graph_layers(&mut layers, &stats);
            submit_layers(&mut layers, &clock, &counters, solve_s);
            rt_layers(&mut layers, &counters);
        }
        drop(exec);
        let state = prog.state.as_ref().expect("with_state attaches arrays");
        Solve {
            setup_s,
            solve_s,
            iter_ms,
            ok: state.all_finite() && state.digest() == self.reference,
            layers,
        }
    }

    fn extra_layers(&mut self) -> Values {
        let mut v = Values::default();
        v.set("kernel.seq_s", self.seq_s);
        v
    }
}
