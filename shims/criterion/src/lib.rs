//! Offline shim for `criterion`: a tiny benchmark harness exposing the
//! surface this workspace's benches use. Each `bench_function` times
//! `sample_size` iterations after one warmup pass and prints mean wall time
//! per iteration (no statistical analysis, plots, or baselines).
//! See `shims/README.md`.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Declared per-iteration work, used to print throughput.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iterations process this many abstract elements.
    Elements(u64),
    /// Iterations process this many bytes.
    Bytes(u64),
}

/// How batched setup output is sized (ignored by the shim: every iteration
/// gets a fresh setup value).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Prevents the optimizer from discarding a value.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// The top-level harness handle passed to benchmark functions.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("group {name}");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: 10,
            throughput: None,
        }
    }
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed iterations each benchmark runs.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Accepted for API compatibility; the shim has no warmup window.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim times a fixed iteration
    /// count instead of a wall-clock window.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Declares per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            iterations: self.sample_size,
            elapsed: Duration::ZERO,
            iters_run: 0,
        };
        f(&mut b);
        let per_iter = if b.iters_run == 0 {
            Duration::ZERO
        } else {
            b.elapsed / u32::try_from(b.iters_run).unwrap_or(u32::MAX)
        };
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if per_iter > Duration::ZERO => {
                format!(" ({:.0} elem/s)", n as f64 / per_iter.as_secs_f64())
            }
            Some(Throughput::Bytes(n)) if per_iter > Duration::ZERO => {
                format!(" ({:.0} B/s)", n as f64 / per_iter.as_secs_f64())
            }
            _ => String::new(),
        };
        eprintln!("  {}/{id}: {per_iter:?}/iter{rate}", self.name);
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

/// Times closures for one benchmark.
pub struct Bencher {
    iterations: usize,
    elapsed: Duration,
    iters_run: usize,
}

impl Bencher {
    /// Times `routine` directly.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        black_box(routine()); // warmup, untimed
        let start = Instant::now();
        for _ in 0..self.iterations {
            black_box(routine());
        }
        self.elapsed += start.elapsed();
        self.iters_run += self.iterations;
    }

    /// Times `routine` on fresh `setup` output each iteration; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        black_box(routine(setup())); // warmup, untimed
        for _ in 0..self.iterations {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.elapsed += start.elapsed();
        }
        self.iters_run += self.iterations;
    }
}

/// Bundles benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given groups.
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

    #[test]
    fn bencher_counts_iterations() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3).throughput(Throughput::Elements(10));
        let mut runs = 0usize;
        g.bench_function("count", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 4); // 1 warmup + 3 timed
        let mut batched = 0usize;
        g.bench_function("batched", |b| {
            b.iter_batched(|| 2usize, |x| batched += x, BatchSize::SmallInput);
        });
        g.finish();
        assert_eq!(batched, 8);
    }
}
