//! Distributed LULESH in the discrete-event simulator
//! (`sim_lulesh_ranks`): the only workload that drives `simrt`, `simmpi`
//! and `memsim` and the multi-rank communication path.

use crate::harness::{graph_layers, rt_layers, secs, Mode, Solve, Workload};
use crate::metrics::Values;
use crate::stats;
use ptdg_core::graph::DiscoveryStats;
use ptdg_core::obs::RtCounters;
use ptdg_lulesh::{LuleshConfig, LuleshTask, RankGrid};
use ptdg_simrt::{simulate_tasks, MachineConfig, SimConfig};
use std::time::Instant;

/// Relative per-task work jitter (system noise, as in Fig. 7).
const JITTER: f64 = 0.10;

/// Problem size of the simulated job.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Simulated ranks (a cube).
    pub ranks: u32,
    /// Elements per mesh edge per rank.
    pub s: usize,
    /// Time steps.
    pub iters: u64,
    /// Tasks per loop.
    pub tpl: usize,
}

impl Size {
    /// The benchmark size: the Fig. 7 shape on 8 ranks.
    pub const FULL: Size = Size {
        ranks: 8,
        s: 32,
        iters: 2,
        tpl: 96,
    };
    /// A seconds-long smoke size for tests.
    pub const TINY: Size = Size {
        ranks: 8,
        s: 4,
        iters: 1,
        tpl: 4,
    };
}

pub struct SimLulesh {
    size: Size,
    machine: MachineConfig,
    sim: SimConfig,
    /// Virtual makespan of the first solve; every later solve of the same
    /// seed must repeat it bit for bit.
    makespan_bits: Option<u64>,
}

impl SimLulesh {
    pub fn new(size: Size, seed: u64) -> SimLulesh {
        SimLulesh {
            size,
            machine: MachineConfig::epyc_16(),
            sim: SimConfig {
                n_ranks: size.ranks,
                work_jitter: JITTER,
                seed,
                ..SimConfig::default()
            },
            makespan_bits: None,
        }
    }
}

impl Workload for SimLulesh {
    fn threads(&self) -> usize {
        1
    }

    fn workers(&self) -> usize {
        0
    }

    fn shared_setup_s(&self) -> f64 {
        0.0
    }

    /// A solve is one `simulate_tasks` call. The simulator has no real
    /// iterations; each solve contributes its wall-clock per simulated
    /// time step.
    fn solve(&mut self, mode: Mode) -> Solve {
        let t0 = Instant::now();
        let prog = LuleshTask::new(LuleshConfig {
            grid: RankGrid::cube(self.size.ranks as usize),
            ..LuleshConfig::single(self.size.s, self.size.iters, self.size.tpl)
        });
        let sim = SimConfig {
            record_trace_rank: (mode == Mode::Profiled).then_some(0),
            ..self.sim.clone()
        };
        let setup_s = secs(t0);

        let t0 = Instant::now();
        let report = simulate_tasks(&self.machine, &sim, &prog.space, &prog);
        let solve_s = secs(t0);

        let mut disc = DiscoveryStats::default();
        let mut counters = RtCounters::default();
        let mut executed = 0;
        for rank in &report.ranks {
            disc.merge(&rank.disc);
            counters.merge(&rank.counters);
            executed += rank.tasks_executed;
        }
        let makespan = report.total_time_s();
        let first = *self.makespan_bits.get_or_insert(makespan.to_bits());
        // Every application task ran once, and every node (redirects too)
        // completed.
        let ok = report.comm_error.is_none()
            && executed == disc.tasks
            && counters.tasks_completed == counters.tasks_created
            && makespan.to_bits() == first;

        let mut layers = Values::default();
        if mode == Mode::Traced {
            graph_layers(&mut layers, &disc);
            rt_layers(&mut layers, &counters);
            layers.set(
                "simrt.ns_per_sim_task",
                stats::ratio(solve_s * 1e9, executed as f64),
            );
            layers.set("simrt.virtual_makespan_s", makespan);
            layers.set(
                "simrt.overlap_ratio",
                report.mean_over_ranks(|r| r.overlap_ratio()),
            );
            layers.set(
                "simmpi.comm_virtual_s",
                report.mean_over_ranks(|r| r.comm_s()),
            );
            layers.set(
                "memsim.l3_misses",
                report.ranks.iter().map(|r| r.cache.l3_misses).sum::<u64>() as f64,
            );
        }
        Solve {
            setup_s,
            solve_s,
            iter_ms: vec![solve_s * 1e3 / self.size.iters as f64],
            ok,
            layers,
        }
    }

    fn extra_layers(&mut self) -> Values {
        Values::default()
    }
}
