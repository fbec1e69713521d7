//! `sdl-benchmark` — the repo's benchmark driver. `run.sh` builds the
//! release binaries and calls this; see README.md for the design.
//!
//! ```text
//! sdl-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON line
//! sdl-benchmark suite [--seed N] [--traced] [--quick]              every workload, fresh processes
//! sdl-benchmark compare A.json B.json                              verdict per (workload, metric)
//! ```

mod host;
mod ladder;
mod measure;
mod net;
mod report;
mod society;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::Window;
use workloads::Config;

/// Default seed; `8809` is held out for later claims (README.md).
const DEFAULT_SEED: u64 = 1988;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    rest: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sdl-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20      sdl-benchmark suite [--seed N] [--traced] [--quick]\n\
         \x20      sdl-benchmark compare A.json B.json"
    );
    ExitCode::from(2)
}

fn parse(mut it: impl Iterator<Item = String>) -> Option<Args> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        quick: false,
        rest: Vec::new(),
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a.workload = Some(it.next()?),
            "--seed" => a.seed = it.next()?.parse().ok()?,
            "--seconds" => a.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => a.trace = it.next()?.parse::<u8>().ok()? != 0,
            "--traced" => a.trace = true,
            "--quick" => a.quick = true,
            _ => a.rest.push(arg),
        }
    }
    Some(a)
}

/// The benchmark runs from the repository root (`run.sh` goes there):
/// `BENCHMARK.json` and `benchmark/out` are relative to it.
fn config(args: &Args) -> Config {
    let server_bin = std::env::var_os("SDL_SERVER_BIN")
        .map_or_else(|| PathBuf::from("target/release/sdl-server"), PathBuf::from);
    let out_dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&out_dir).expect("benchmark/out is creatable");
    let window = if args.quick {
        Window {
            seconds: 0.3,
            slices: 1,
        }
    } else {
        Window {
            seconds: args.seconds,
            slices: 10,
        }
    };
    Config {
        seed: args.seed,
        window,
        quick: args.quick,
        server_bin,
        out_dir,
    }
}

fn main() -> ExitCode {
    let Some(args) = parse(std::env::args().skip(1)) else {
        return usage();
    };
    let cfg = config(&args);
    let rest: Vec<&str> = args.rest.iter().map(String::as_str).collect();
    match (&args.workload, rest.as_slice()) {
        (Some(name), []) => report::run_one(name, &cfg, args.trace),
        (None, ["suite"]) => report::suite(&args, &cfg),
        (None, ["compare", a, b]) => report::compare(a, b),
        _ => usage(),
    }
}
