//! Minimal offline shim for the subset of `criterion` this workspace
//! uses: `Criterion::bench_function`, `Bencher::iter`, `criterion_group!`
//! and `criterion_main!`.
//!
//! Each benchmark is warmed up briefly, then timed for a fixed budget; the
//! mean ns/iter is printed as a TSV row. There is no statistical analysis
//! or report output.

use std::time::{Duration, Instant};

/// Opaque value sink preventing the optimizer from deleting benchmarked
/// work, as in `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Timing driver handed to each benchmark closure.
pub struct Bencher {
    warmup: Duration,
    budget: Duration,
    /// Filled in by `iter`.
    result_ns: Option<f64>,
}

impl Bencher {
    /// Times `routine` repeatedly and records mean ns/iter.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up.
        let start = Instant::now();
        while start.elapsed() < self.warmup {
            black_box(routine());
        }
        // Timed loop.
        let mut iters: u64 = 0;
        let start = Instant::now();
        while start.elapsed() < self.budget {
            black_box(routine());
            iters += 1;
        }
        let total = start.elapsed();
        self.result_ns = Some(total.as_nanos() as f64 / iters.max(1) as f64);
    }
}

/// Benchmark registry / driver, as in `criterion::Criterion`.
pub struct Criterion {
    warmup: Duration,
    budget: Duration,
    /// Substring filters from the command line (as in real criterion:
    /// `cargo bench --bench micro -- lp_minmax dispatch_waterfill` runs
    /// only benchmarks whose id contains one of the arguments). Empty =
    /// run everything.
    filters: Vec<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // HETIS_BENCH_SCALE=full lengthens the measurement window.
        let full = std::env::var("HETIS_BENCH_SCALE").as_deref() == Ok("full");
        Criterion {
            warmup: Duration::from_millis(if full { 300 } else { 50 }),
            budget: Duration::from_millis(if full { 2000 } else { 300 }),
            filters: std::env::args()
                .skip(1)
                .filter(|a| !a.starts_with('-'))
                .collect(),
        }
    }
}

impl Criterion {
    /// Runs one named benchmark and prints `id<TAB>ns/iter`; skipped
    /// silently when CLI filters are present and none matches `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        if !self.filters.is_empty() && !self.filters.iter().any(|s| id.contains(s.as_str())) {
            return self;
        }
        let mut b = Bencher {
            warmup: self.warmup,
            budget: self.budget,
            result_ns: None,
        };
        f(&mut b);
        match b.result_ns {
            Some(ns) => println!("{id}\t{ns:.1}\tns/iter"),
            None => println!("{id}\tno-measurement"),
        }
        self
    }
}

/// Declares a group runner function invoking each benchmark fn in order.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
    (name = $group:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $cfg;
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(c: &mut Criterion) {
        c.bench_function("tiny_add", |b| b.iter(|| black_box(2u64) + 2));
    }

    #[test]
    fn shim_times_something() {
        let mut c = Criterion {
            warmup: Duration::from_millis(1),
            budget: Duration::from_millis(5),
            filters: Vec::new(),
        };
        tiny(&mut c);
    }

    criterion_group!(benches, tiny);

    #[test]
    fn group_macro_generates_runner() {
        let _: fn() = benches;
    }
}
