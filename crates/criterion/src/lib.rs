//! Vendored, dependency-free stand-in for the `criterion` crate.
//!
//! The build environment has no network access to crates.io, so this shim
//! implements the slice of the criterion API the workspace's `benches/`
//! use: `criterion_group!`/`criterion_main!`, benchmark groups with
//! `sample_size`/`throughput`, `bench_function`/`bench_with_input`, and
//! `Bencher::iter`/`Bencher::iter_custom`. Measurement is a straightforward
//! median-of-samples wall-clock loop — good enough for comparing orders
//! of magnitude and trends, with none of criterion's statistics.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation (printed alongside timings).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier, optionally parameterized.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    /// Just the parameter.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Runs closures and records their time.
pub struct Bencher {
    samples: u64,
    /// Median per-iteration time of the last `iter` call.
    pub last_ns: f64,
}

impl Bencher {
    /// Time `f`, storing the median per-iteration nanoseconds.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        self.iter_custom(|iters| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed()
        });
    }

    /// Time a routine that clocks itself: `routine(iters)` runs `iters`
    /// iterations and returns the time they took, so per-iteration setup
    /// can stay off the clock. Stores the median per-iteration
    /// nanoseconds.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        // Warm-up and per-sample iteration sizing: aim for ≥ ~1 ms per
        // sample so timer resolution does not dominate short routines.
        let once = routine(1).max(Duration::from_nanos(1));
        let per_sample =
            (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;
        let mut times: Vec<f64> = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            times.push(routine(per_sample).as_nanos() as f64 / per_sample as f64);
        }
        times.sort_by(|a, b| a.total_cmp(b));
        self.last_ns = times[times.len() / 2];
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: u64,
    throughput: Option<Throughput>,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2) as u64;
        self
    }

    /// Annotate the per-iteration throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    fn report(&self, id: &str, ns: f64) {
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) => {
                format!("  ({:.2} Melem/s)", n as f64 / ns * 1e3)
            }
            Some(Throughput::Bytes(n)) => {
                format!("  ({:.2} MiB/s)", n as f64 / ns * 1e9 / (1 << 20) as f64)
            }
            None => String::new(),
        };
        println!("{}/{id}: {:.1} ns/iter{rate}", self.name, ns);
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: self.sample_size,
            last_ns: 0.0,
        };
        f(&mut b);
        self.report(&id.id, b.last_ns);
        self
    }

    /// Run one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: self.sample_size,
            last_ns: 0.0,
        };
        f(&mut b, input);
        self.report(&id.id, b.last_ns);
        self
    }

    /// End the group (separator line).
    pub fn finish(&mut self) {
        println!();
    }
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("== {name} ==");
        BenchmarkGroup {
            name,
            sample_size: 10,
            throughput: None,
            _criterion: self,
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut g = BenchmarkGroup {
            name: "bench".to_string(),
            sample_size: 10,
            throughput: None,
            _criterion: self,
        };
        g.bench_function(id, f);
        self
    }
}

/// Declare a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
    (name = $group:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        $crate::criterion_group!($group, $($target),+);
    };
}

/// Declare `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim_smoke");
        group.sample_size(3);
        group.throughput(Throughput::Elements(100));
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::from_parameter(7), &7u64, |b, &n| {
            b.iter(|| n * 2)
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn harness_runs() {
        benches();
    }
}
