//! Offline shim for the subset of the `criterion` API this workspace uses.
//!
//! The build environment has no network access, so the `[[bench]]`
//! targets (declared with `harness = false`) run against this vendored
//! stand-in instead of the real `criterion` crate. It performs a real
//! measurement — warmup followed by `sample_size` timed samples per
//! benchmark — and prints the median, min and max per-iteration time in
//! a `group/id  time: […]` format loosely matching criterion's output.
//!
//! Honour `SPARSETIR_SMOKE=1` to run each benchmark exactly once
//! (used by CI to keep bench compilation honest without paying for
//! statistics).

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box`, criterion-style.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Benchmark identifier combining a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter` identifier.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId { label: format!("{name}/{parameter}") }
    }
}

/// Anything accepted as a benchmark identifier.
pub trait IntoBenchmarkId {
    /// The printable label.
    fn into_label(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_label(self) -> String {
        self.label
    }
}

impl IntoBenchmarkId for &str {
    fn into_label(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_label(self) -> String {
        self
    }
}

/// Measurement driver handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    smoke: bool,
    last: Vec<Duration>,
}

impl Bencher {
    /// Time the closure: a short warmup, then one timed run per sample.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        self.last.clear();
        if self.smoke {
            std_black_box(f());
            self.last.push(Duration::ZERO);
            return;
        }
        // Warmup + calibration: find an iteration count that lasts long
        // enough for the clock to resolve.
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                std_black_box(f());
            }
            let dt = t0.elapsed();
            if dt >= Duration::from_micros(200) || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                std_black_box(f());
            }
            self.last.push(t0.elapsed() / u32::try_from(iters).unwrap_or(u32::MAX));
        }
    }
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    smoke: bool,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    fn run(&mut self, label: String, f: impl FnOnce(&mut Bencher)) {
        let mut b = Bencher { samples: self.samples, smoke: self.smoke, last: Vec::new() };
        f(&mut b);
        if self.smoke {
            println!("{}/{label}  time: [smoke]", self.name);
            return;
        }
        b.last.sort_unstable();
        let (min, max) = (b.last.first(), b.last.last());
        let median = b.last.get(b.last.len() / 2);
        match (min, median, max) {
            (Some(lo), Some(med), Some(hi)) => println!(
                "{}/{label}  time: [{} {} {}]",
                self.name,
                fmt_duration(*lo),
                fmt_duration(*med),
                fmt_duration(*hi)
            ),
            _ => println!("{}/{label}  time: [no samples]", self.name),
        }
    }

    /// Benchmark a closure.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let label = id.into_label();
        self.run(label, f);
        self
    }

    /// Benchmark a closure parameterized by an input.
    pub fn bench_with_input<I, F>(&mut self, id: impl IntoBenchmarkId, input: &I, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &I),
    {
        let label = id.into_label();
        self.run(label, |b| f(b, input));
        self
    }

    /// End the group (printing already happened per-benchmark).
    pub fn finish(&mut self) {}
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Top-level benchmark context (shim of `criterion::Criterion`).
pub struct Criterion {
    smoke: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { smoke: std::env::var_os("SPARSETIR_SMOKE").is_some() }
    }
}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Display) -> BenchmarkGroup<'_> {
        let smoke = self.smoke;
        BenchmarkGroup { name: name.to_string(), samples: 10, smoke, _criterion: self }
    }
}

/// Shim of `criterion_group!`: bundle benchmark functions under one name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Shim of `criterion_main!`: produce `main` running the given groups.
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
    fn bencher_measures_and_reports() {
        let mut c = Criterion { smoke: false };
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut ran = 0u64;
        group.bench_function("counts", |b| b.iter(|| ran = ran.wrapping_add(1)));
        group.finish();
        assert!(ran > 0);
    }

    #[test]
    fn smoke_mode_runs_once() {
        let mut c = Criterion { smoke: true };
        let mut group = c.benchmark_group("shim");
        let mut ran = 0u64;
        group.bench_function(BenchmarkId::new("smoke", 1), |b| b.iter(|| ran += 1));
        assert_eq!(ran, 1);
    }
}
