//! Offline stand-in for [criterion](https://crates.io/crates/criterion).
//!
//! The build environment has no crates.io access, so this workspace ships
//! a minimal wall-clock timing harness exposing the subset of criterion's
//! API the `crates/bench/benches/*` files use: `Criterion`,
//! `benchmark_group` / `sample_size` / `bench_function` /
//! `bench_with_input` / `finish`, `BenchmarkId`, `black_box`, and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Statistics are deliberately simple (mean and min over `sample_size`
//! timed iterations after one warmup); the regression-tracking role
//! criterion plays upstream is covered by the `benchmarks/` package (host
//! time) and `tests/suite_golden.rs` (the fingerprints in the committed
//! `BENCH_archgraph.json` baseline) instead.

use std::time::Instant;

/// Opaque-to-the-optimizer identity, like `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Label for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{function}/{parameter}"),
        }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// Times closures passed to [`Bencher::iter`].
pub struct Bencher {
    samples: usize,
    /// Collected per-iteration seconds, drained by the caller.
    last: Vec<f64>,
}

impl Bencher {
    /// Run `f` once as warmup, then `samples` timed times.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f());
        self.last.clear();
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            self.last.push(t0.elapsed().as_secs_f64());
        }
    }
}

fn report(label: &str, samples: &[f64]) {
    if samples.is_empty() {
        println!("{label:<50} (no samples)");
        return;
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "{label:<50} mean {:>12} min {:>12} ({} samples)",
        fmt_time(mean),
        fmt_time(min),
        samples.len()
    );
}

fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} µs", s * 1e6)
    }
}

/// A named group of benchmarks sharing a sample-size setting.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmark a closure under `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl std::fmt::Display,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            samples: self.sample_size,
            last: Vec::new(),
        };
        f(&mut b);
        report(&format!("{}/{}", self.name, id), &b.last);
        self
    }

    /// Benchmark a closure that receives `input` under `id`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            samples: self.sample_size,
            last: Vec::new(),
        };
        f(&mut b, input);
        report(&format!("{}/{}", self.name, id), &b.last);
        self
    }

    /// End the group (printing happens eagerly; this is a no-op).
    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            _parent: self,
        }
    }

    /// Benchmark a standalone closure.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            samples: 10,
            last: Vec::new(),
        };
        f(&mut b);
        report(name, &b.last);
        self
    }
}

/// Bundle benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Produce `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
