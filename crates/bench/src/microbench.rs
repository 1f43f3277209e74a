//! Minimal micro-benchmark harness — the offline stand-in for Criterion.
//!
//! The workspace builds with no external crates, so the `[[bench]]`
//! targets (`harness = false`) drive this module instead: warmup, a
//! calibrated iteration count per sample, and median-of-samples
//! reporting in ns/op with optional bytes/s throughput. It is
//! deliberately small — no outlier rejection, no statistics beyond
//! median/min/mean — because the figures we care about (relative
//! executor throughput, task-body costs) move by integer factors, not
//! percent.
//!
//! ```no_run
//! use tvs_bench::microbench::{bench, black_box};
//! let m = bench("sum_1k", || black_box((0..1024u64).sum::<u64>()));
//! println!("{}", m.report());
//! ```

pub use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Tuning knobs for one measurement.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Number of timed samples (each of a calibrated iteration count).
    pub samples: usize,
    /// Target wall time per sample in milliseconds; iterations per
    /// sample are calibrated during warmup to roughly hit this.
    pub sample_ms: u64,
    /// Bytes processed per iteration, if throughput should be reported.
    pub bytes: Option<u64>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            samples: 15,
            sample_ms: 10,
            bytes: None,
        }
    }
}

impl Opts {
    /// Default options with a per-iteration byte count for throughput.
    pub fn throughput(bytes: u64) -> Self {
        Opts {
            bytes: Some(bytes),
            ..Default::default()
        }
    }

    /// Fewer, longer samples for heavyweight bodies (whole-pipeline runs).
    pub fn heavy() -> Self {
        Opts {
            samples: 8,
            sample_ms: 40,
            bytes: None,
        }
    }
}

/// The result of timing one closure: sorted per-iteration times across
/// all samples, plus enough context to re-derive throughput.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark id, e.g. `"count/text"`.
    pub name: String,
    /// Iterations per sample chosen by calibration.
    pub iters: u64,
    /// ns/iteration for each sample, ascending.
    pub ns: Vec<f64>,
    /// Bytes per iteration when throughput was requested.
    pub bytes: Option<u64>,
}

impl Measurement {
    /// Median ns per iteration.
    pub fn median_ns(&self) -> f64 {
        let n = self.ns.len();
        if n == 0 {
            return f64::NAN;
        }
        if n % 2 == 1 {
            self.ns[n / 2]
        } else {
            (self.ns[n / 2 - 1] + self.ns[n / 2]) / 2.0
        }
    }

    /// Fastest sample's ns per iteration.
    pub fn min_ns(&self) -> f64 {
        self.ns.first().copied().unwrap_or(f64::NAN)
    }

    /// Arithmetic mean ns per iteration.
    pub fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            return f64::NAN;
        }
        self.ns.iter().sum::<f64>() / self.ns.len() as f64
    }

    /// Throughput in MiB/s derived from the median, if bytes were given.
    pub fn mib_per_s(&self) -> Option<f64> {
        self.bytes
            .map(|b| b as f64 / (1 << 20) as f64 / (self.median_ns() * 1e-9))
    }

    /// One human-readable line: `name  median  [min .. mean]  [MiB/s]`.
    pub fn report(&self) -> String {
        let mut s = format!(
            "{:<36} {:>12}  [min {:>10}, mean {:>10}]",
            self.name,
            fmt_ns(self.median_ns()),
            fmt_ns(self.min_ns()),
            fmt_ns(self.mean_ns()),
        );
        if let Some(t) = self.mib_per_s() {
            s.push_str(&format!("  {t:>9.1} MiB/s"));
        }
        s
    }
}

/// An input of `n` blocks of `bytes` zero bytes and its blocks, all due at
/// once: the input of the short-task executor cells, which the feeder
/// hands over in one batch.
pub fn blocks_at_once(n: usize, bytes: usize) -> (Vec<u8>, Vec<tvs_sre::InputBlock>) {
    let blocks = (0..n)
        .map(|index| tvs_sre::InputBlock {
            index,
            arrival: 0,
            bytes: index * bytes..(index + 1) * bytes,
        })
        .collect();
    (vec![0; n * bytes], blocks)
}

/// Render a nanosecond quantity with an auto-scaled unit.
pub fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "n/a".into()
    } else if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Time `f` with default [`Opts`], print its report line, return the data.
pub fn bench<R>(name: &str, f: impl FnMut() -> R) -> Measurement {
    bench_with(name, Opts::default(), f)
}

/// Time `f` with explicit [`Opts`], print its report line, return the data.
pub fn bench_with<R>(name: &str, opts: Opts, mut f: impl FnMut() -> R) -> Measurement {
    // Warmup doubles as calibration: run batches, doubling until one
    // batch takes long enough to extrapolate a stable per-iter cost.
    let mut batch = 1u64;
    let per_iter_ns = loop {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let el = t.elapsed();
        if el >= Duration::from_millis(2) || batch >= 1 << 24 {
            break (el.as_nanos() as f64 / batch as f64).max(0.5);
        }
        batch *= 2;
    };
    let iters = ((opts.sample_ms as f64 * 1e6 / per_iter_ns) as u64).max(1);

    let mut ns = Vec::with_capacity(opts.samples);
    for _ in 0..opts.samples {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    ns.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let m = Measurement {
        name: name.to_string(),
        iters,
        ns,
        bytes: opts.bytes,
    };
    println!("{}", m.report());
    m
}

/// Write measurements as CSV (`name,iters,median_ns,min_ns,mean_ns,
/// bytes_per_iter,mib_per_s`), creating parent directories as needed.
pub fn write_csv(path: &Path, rows: &[Measurement]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from("name,iters,median_ns,min_ns,mean_ns,bytes_per_iter,mib_per_s\n");
    for m in rows {
        let bytes = m.bytes.map(|b| b.to_string()).unwrap_or_default();
        let thrpt = m.mib_per_s().map(|t| format!("{t:.2}")).unwrap_or_default();
        out.push_str(&format!(
            "{},{},{:.1},{:.1},{:.1},{},{}\n",
            m.name,
            m.iters,
            m.median_ns(),
            m.min_ns(),
            m.mean_ns(),
            bytes,
            thrpt,
        ));
    }
    std::fs::write(path, out)?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "  -> {}", path.display())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        let mut m = Measurement {
            name: "t".into(),
            iters: 1,
            ns: vec![1.0, 3.0, 5.0],
            bytes: None,
        };
        assert_eq!(m.median_ns(), 3.0);
        m.ns = vec![1.0, 3.0];
        assert_eq!(m.median_ns(), 2.0);
    }

    #[test]
    fn bench_measures_something() {
        let m = bench_with(
            "noop",
            Opts {
                samples: 3,
                sample_ms: 1,
                bytes: Some(64),
            },
            || black_box(7u64).wrapping_mul(3),
        );
        assert_eq!(m.ns.len(), 3);
        assert!(m.iters >= 1);
        assert!(m.median_ns() > 0.0);
        assert!(m.mib_per_s().unwrap() > 0.0);
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join(format!("tvs-microbench-{}", std::process::id()));
        let path = dir.join("out.csv");
        let m = Measurement {
            name: "a".into(),
            iters: 10,
            ns: vec![1.0, 2.0, 3.0],
            bytes: Some(8),
        };
        write_csv(&path, &[m]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("name,iters"));
        assert!(text.contains("a,10,2.0,1.0,2.0,8,"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }
}
