//! The two in-process workloads: a society is built, run to its
//! fixpoint and checked, over and over, with no wire anywhere.

use std::time::Instant;

use sdl::core::parallel::ParallelRuntime;
use sdl::core::{CompiledProgram, Outcome as RunOutcome, Runtime, RuntimeBuilder};
use sdl::metrics::Metrics;
use sdl::tuple::{Tuple, Value};
use sdl::workloads::{image_builtins, read_labels, Image, COMMUNITY_LABELING_SRC};

use crate::host::CpuOf;
use crate::measure::{Outcome, Recorder, Window};
use crate::net::mix;

/// E5's producer/consumer society: every `Consumer(k)` parks on
/// `<item, k>` until `Producer(k)` asserts it.
pub const PAIR_SRC: &str = "
    process Producer(k) { -> <item, k>; }
    process Consumer(k) { exists v : <item, k>! => ; }
";

pub const PAIRS: u64 = 10_000;
pub const PAIR_THREADS: usize = 2;
pub const PAIR_SHARDS: usize = 8;

/// The labeling image's geometry: `#` is a bright pixel. Frozen so that
/// one run takes 0.1–0.5 s on the reference host (README.md); changing
/// it changes the workload. The seed draws the grey levels and the
/// schedule, never the shape: how long labeling takes depends on the
/// regions' shapes, and runs on different seeds must cost the same.
pub const IMAGE_MASK: [&str; 6] = [
    "##....", //
    "##..#.", //
    "....#.", //
    ".##.#.", //
    ".##...", //
    "......", //
];
const CUTOFF: i64 = 128;

fn seeded_image(seed: u64) -> Image {
    let pixels = IMAGE_MASK
        .iter()
        .flat_map(|row| row.bytes())
        .enumerate()
        .map(|(p, c)| {
            let grey = (mix(seed ^ 0x1a6e, p as u64) % 127) as i64;
            if c == b'#' {
                CUTOFF + 1 + grey
            } else {
                grey
            }
        })
        .collect();
    Image {
        width: IMAGE_MASK[0].len() as i64,
        height: IMAGE_MASK.len() as i64,
        pixels,
    }
}

/// What one build-and-run of a society did.
pub struct Run {
    /// Committed transactions.
    pub commits: u64,
    /// The run's result matches its oracle.
    pub ok: bool,
    pub attempts: u64,
    pub conflicts: u64,
    pub consensus_rounds: u64,
}

/// A society that can be rebuilt and run any number of times.
pub trait Society {
    /// Everything that happens once per process: parse and compile.
    fn prepare(seed: u64) -> Self;
    /// Builds the society and runs it to its fixpoint.
    fn run(&self, metrics: Metrics) -> Run;
}

pub struct Pairs {
    program: CompiledProgram,
    keys: Vec<i64>,
    seed: u64,
}

impl Pairs {
    /// The `<item, k>` tuples the producers assert.
    pub fn items(&self) -> Vec<Tuple> {
        let item = Value::atom("item");
        self.keys
            .iter()
            .map(|&k| Tuple::new(vec![item.clone(), Value::Int(k)]))
            .collect()
    }
}

impl Society for Pairs {
    fn prepare(seed: u64) -> Pairs {
        Pairs {
            program: CompiledProgram::from_source(PAIR_SRC).expect("pair society compiles"),
            // Distinct seeded keys: the multiplier is odd, so the map is
            // a bijection on 0..PAIRS modulo 2^k.
            keys: (0..PAIRS)
                .map(|k| ((mix(seed, 0) | 1).wrapping_mul(k) % (1 << 40)) as i64)
                .collect(),
            seed,
        }
    }

    fn run(&self, metrics: Metrics) -> Run {
        let mut b = ParallelRuntime::builder(self.program.clone())
            .threads(PAIR_THREADS)
            .shards(PAIR_SHARDS)
            .seed(self.seed)
            .metrics(metrics);
        for &k in &self.keys {
            b = b.spawn("Consumer", vec![Value::Int(k)]);
        }
        for &k in &self.keys {
            b = b.spawn("Producer", vec![Value::Int(k)]);
        }
        let (report, ds) = b
            .build()
            .expect("pair society builds")
            .run()
            .expect("pair society runs");
        Run {
            commits: report.commits,
            ok: report.outcome == RunOutcome::Completed
                && report.commits == 2 * PAIRS
                && ds.is_empty(),
            attempts: report.attempts,
            conflicts: report.conflicts,
            consensus_rounds: 0,
        }
    }
}

pub struct Labeling {
    program: CompiledProgram,
    pub image: Image,
    oracle: Vec<i64>,
    regions: u64,
    seed: u64,
}

impl Labeling {
    /// The society of one run, configured but not built.
    pub fn builder(&self, metrics: Metrics) -> RuntimeBuilder {
        Runtime::builder(self.program.clone())
            .seed(self.seed)
            .metrics(metrics)
            .builtins(image_builtins(&self.image, CUTOFF))
            .tuples(self.image_tuples())
            .spawn("Threshold", vec![])
    }

    /// The `<image, p, v>` tuples the run starts from.
    pub fn image_tuples(&self) -> Vec<Tuple> {
        let image = Value::atom("image");
        (0i64..)
            .zip(&self.image.pixels)
            .map(|(p, v)| Tuple::new(vec![image.clone(), Value::Int(p), Value::Int(*v)]))
            .collect()
    }

    /// The `<label, p, l>` tuples the run ends with.
    pub fn label_tuples(&self) -> Vec<Tuple> {
        let label = Value::atom("label");
        (0i64..)
            .zip(&self.oracle)
            .map(|(p, l)| Tuple::new(vec![label.clone(), Value::Int(p), Value::Int(*l)]))
            .collect()
    }
}

impl Society for Labeling {
    fn prepare(seed: u64) -> Labeling {
        let image = seeded_image(seed);
        let oracle = image.flood_fill_labels(CUTOFF);
        let mut distinct = oracle.clone();
        distinct.sort_unstable();
        distinct.dedup();
        Labeling {
            program: CompiledProgram::from_source(COMMUNITY_LABELING_SRC)
                .expect("community labeling compiles"),
            image,
            oracle,
            regions: distinct.len() as u64,
            seed,
        }
    }

    fn run(&self, metrics: Metrics) -> Run {
        let mut rt = self.builder(metrics).build().expect("labeling builds");
        let report = rt.run().expect("labeling runs");
        Run {
            commits: report.commits,
            ok: report.outcome == RunOutcome::Completed
                && read_labels(&rt, self.image.len()) == self.oracle
                && report.consensus_rounds == self.regions,
            attempts: report.attempts,
            conflicts: 0,
            consensus_rounds: report.consensus_rounds,
        }
    }
}

/// Runs `society` back to back until the window closes. One operation is
/// one committed transaction; one latency sample is one whole
/// build-and-run, the delay an SDL author waits for.
pub fn society_loop<S: Society>(
    society: &S,
    window: Window,
    metrics: &Metrics,
    mut each_run: impl FnMut(&Run),
) -> Outcome {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rec = Recorder::start(CpuOf::Me, window);
    loop {
        let t0 = Instant::now();
        let run = society.run(metrics.clone());
        let now = Instant::now();
        attempted += run.commits.max(1);
        if !run.ok {
            // A wrong fixpoint voids every transaction of the run.
            failed += run.commits.max(1);
        }
        rec.record(now.duration_since(t0).as_nanos() as u64, run.commits);
        each_run(&run);
        if rec.roll(now) {
            break;
        }
    }
    Outcome::new(rec, CpuOf::Me, attempted, failed)
}
