//! Slicing a closed-loop run into equal windows and reducing them to
//! the end-to-end metrics.
//!
//! A run is `slices + 1` consecutive windows of `seconds / slices`
//! each; the first is warm-up and discarded. Every end-to-end quantity
//! is reduced over the remaining slices to its median and quartiles; the
//! value reported is the better quartile (see [`Metric::value`]).

use std::time::{Duration, Instant};

use crate::host::{cpu_ns, peak_rss_mib, self_cpu_ns, CpuOf};
use crate::stats::{quantile_ns, quartiles};

/// One measured window.
#[derive(Clone, Debug)]
pub struct Slice {
    pub ops: u64,
    pub wall_ns: u64,
    /// CPU the serving process used inside the window.
    pub cpu_ns: u64,
    /// CPU the driver itself used (equals `cpu_ns` for in-process runs).
    pub client_cpu_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
    pub samples: usize,
}

/// How long and how finely to measure.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub seconds: f64,
    pub slices: usize,
}

impl Window {
    fn slice_len(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / self.slices as f64)
    }
}

/// Accumulates completed operations and cuts them into slices.
pub struct Recorder {
    serving: CpuOf,
    slice_len: Duration,
    /// Slices still to close, warm-up included.
    remaining: usize,
    start: Instant,
    cpu0: u64,
    client_cpu0: u64,
    ops: u64,
    lats: Vec<u64>,
    warm: bool,
    pub slices: Vec<Slice>,
}

impl Recorder {
    pub fn start(serving: CpuOf, window: Window) -> Recorder {
        Recorder {
            serving,
            slice_len: window.slice_len(),
            remaining: window.slices + 1,
            start: Instant::now(),
            cpu0: cpu_ns(serving),
            client_cpu0: self_cpu_ns(),
            ops: 0,
            lats: Vec::new(),
            warm: false,
            slices: Vec::new(),
        }
    }

    /// One latency sample covering `ops` completed operations.
    pub fn record(&mut self, lat_ns: u64, ops: u64) {
        self.ops += ops;
        self.lats.push(lat_ns);
    }

    /// Closes the current slice if `now` is past its end. Returns `true`
    /// once every slice has been closed.
    pub fn roll(&mut self, now: Instant) -> bool {
        if self.remaining > 0 && now.duration_since(self.start) >= self.slice_len {
            let cpu1 = cpu_ns(self.serving);
            let client_cpu1 = self_cpu_ns();
            if self.warm {
                self.slices.push(Slice {
                    ops: self.ops,
                    wall_ns: now.duration_since(self.start).as_nanos() as u64,
                    cpu_ns: cpu1.saturating_sub(self.cpu0),
                    client_cpu_ns: client_cpu1.saturating_sub(self.client_cpu0),
                    p50_ns: quantile_ns(&mut self.lats, 0.5),
                    p99_ns: quantile_ns(&mut self.lats, 0.99),
                    // `quantile_ns` left the samples sorted.
                    max_ns: self.lats.last().copied().unwrap_or(0),
                    samples: self.lats.len(),
                });
            }
            self.warm = true;
            self.remaining -= 1;
            self.start = now;
            self.cpu0 = cpu1;
            self.client_cpu0 = client_cpu1;
            self.ops = 0;
            self.lats.clear();
        }
        self.remaining == 0
    }
}

/// Median and quartiles of one per-slice quantity.
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Stat {
    pub fn of(values: &[f64]) -> Stat {
        let (q1, median, q3) = quartiles(values);
        Stat {
            q1,
            median,
            q3,
            n: values.len(),
        }
    }

    pub fn single(v: f64) -> Stat {
        Stat::of(&[v])
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy)]
pub enum Better {
    Higher,
    Lower,
}

/// One named, measured quantity.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub stat: Stat,
}

impl Metric {
    /// The reported value: the quartile on the metric's **better** side.
    /// On a shared host interference is one-sided — another tenant can
    /// slow a slice down, never speed it up — and comes in phases that
    /// can cover most of a run, so the median moves with the host's
    /// weather while the better quartile stays with the program as long
    /// as a quarter of the slices ran undisturbed. Measured on a noisy
    /// hour, ten runs of `net_wal`: spread of the medians 29–35 %, of the
    /// better quartiles 15–19 %.
    pub fn value(&self) -> f64 {
        match self.better {
            Better::Higher => self.stat.q3,
            Better::Lower => self.stat.q1,
        }
    }
}

/// What one closed-loop run produced, before naming.
pub struct Outcome {
    pub slices: Vec<Slice>,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mib: f64,
    pub setup_s: Vec<f64>,
}

impl Outcome {
    pub fn new(rec: Recorder, serving: CpuOf, attempted: u64, failed: u64) -> Outcome {
        Outcome {
            slices: rec.slices,
            attempted,
            failed,
            peak_rss_mib: peak_rss_mib(serving),
            setup_s: Vec::new(),
        }
    }

    fn per_slice(&self, f: impl Fn(&Slice) -> f64) -> Stat {
        Stat::of(&self.slices.iter().map(f).collect::<Vec<_>>())
    }

    pub fn ops_per_s(&self) -> Stat {
        self.per_slice(|s| s.ops as f64 / (s.wall_ns as f64 / 1e9))
    }

    pub fn op_p50_us(&self) -> Stat {
        self.per_slice(|s| s.p50_ns as f64 / 1e3)
    }

    pub fn op_p99_us(&self) -> Stat {
        self.per_slice(|s| s.p99_ns as f64 / 1e3)
    }

    pub fn op_max_us(&self) -> f64 {
        self.slices.iter().map(|s| s.max_ns).max().unwrap_or(0) as f64 / 1e3
    }

    pub fn cpu_us_per_op(&self) -> Stat {
        self.per_slice(|s| s.cpu_ns as f64 / 1e3 / s.ops.max(1) as f64)
    }

    pub fn client_cpu_us_per_op(&self) -> Stat {
        self.per_slice(|s| s.client_cpu_ns as f64 / 1e3 / s.ops.max(1) as f64)
    }

    /// Latency samples per slice: what the percentiles rest on.
    pub fn samples_per_slice(&self) -> Stat {
        self.per_slice(|s| s.samples as f64)
    }

    /// The five gated metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let metric = |name, unit, better, stat| Metric {
            name,
            unit,
            better,
            stat,
        };
        vec![
            metric("setup_s", "s", Better::Lower, Stat::of(&self.setup_s)),
            metric("ops_per_s", "1/s", Better::Higher, self.ops_per_s()),
            metric("op_p50_us", "us", Better::Lower, self.op_p50_us()),
            metric("cpu_us_per_op", "us", Better::Lower, self.cpu_us_per_op()),
            metric(
                "peak_rss_mb",
                "MiB",
                Better::Lower,
                Stat::single(self.peak_rss_mib),
            ),
        ]
    }
}
