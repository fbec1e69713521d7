//! Output: the one-line result the driver reads, the suite's results
//! file with provenance, and `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::process::{Command, ExitCode};

use sdl::trace::json::{self, Json};

use crate::host::{pin_to_core0, Provenance, SERVER_FLAGS, WAL_FSYNC};
use crate::measure::Metric;
use crate::workloads::{run_end_to_end, Config, WORKLOADS};
use crate::{ladder, Args};

/// A finite number in JSON; the harness never reports NaN or infinity.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
fn result_line(metrics: &[Metric], attempted: u64, failed: u64) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        attempted.max(1),
        failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value()),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The detail file a suite collects: quartiles and sample counts too.
fn detail_json(metrics: &[Metric], attempted: u64, failed: u64) -> String {
    let mut s = format!("{{\"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value()),
            num(m.stat.median),
            num(m.stat.q1),
            num(m.stat.q3),
            m.stat.n,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn detail_path(cfg: &Config, name: &str, trace: bool) -> std::path::PathBuf {
    let kind = if trace { "layers" } else { "run" };
    cfg.out_dir.join(format!("{kind}-{name}.json"))
}

/// Runs one workload and prints its result as the last line of stdout.
/// Exits non-zero when an operation failed or the run could not finish.
pub fn run_one(name: &str, cfg: &Config, trace: bool) -> ExitCode {
    if !WORKLOADS.contains(&name) {
        eprintln!("sdl-benchmark: unknown workload {name}; known: {WORKLOADS:?}");
        return ExitCode::from(2);
    }
    pin_to_core0();
    let measured = if trace {
        ladder::run_traced(name, cfg)
    } else {
        run_end_to_end(name, cfg).map(|out| {
            eprintln!(
                "{name:<17} {} slices, {} latency samples per slice (median)",
                out.slices.len(),
                out.samples_per_slice().median
            );
            (out.end_to_end(), out.attempted, out.failed)
        })
    };
    let (metrics, attempted, failed) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("sdl-benchmark: {name} did not finish: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &metrics {
        eprintln!(
            "{name:<17} {:<34} {:>14.4} {:<6} (q1 {:.4}, median {:.4}, q3 {:.4}, n {})",
            m.name,
            m.value(),
            m.unit,
            m.stat.q1,
            m.stat.median,
            m.stat.q3,
            m.stat.n
        );
    }
    eprintln!(
        "{name:<17} failed_frac {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    if let Err(e) = fs::write(
        detail_path(cfg, name, trace),
        detail_json(&metrics, attempted, failed),
    ) {
        eprintln!("sdl-benchmark: cannot write the detail file: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&metrics, attempted, failed));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("sdl-benchmark: {name}: {failed} of {attempted} operations failed");
        ExitCode::FAILURE
    }
}

fn provenance_json(p: &Provenance, args: &Args, cfg: &Config) -> String {
    format!(
        "{{\"commit\": \"{}\", \"rustc\": \"{}\", \"kernel\": \"{}\", \"nproc\": {}, \
         \"wal_fs\": \"{}\", \"foreign_server\": {}, \"seed\": {}, \"server_flags\": \"{}\", \
         \"wal_flags\": \"--wal-dir benchmark/out/wal-{} --fsync {}\", \"slices\": {}, \
         \"slice_seconds\": {}}}",
        json::escape(&p.commit),
        json::escape(&p.rustc),
        json::escape(&p.kernel),
        p.nproc,
        json::escape(&p.wal_fs),
        p.foreign_server,
        args.seed,
        SERVER_FLAGS.join(" "),
        args.seed,
        WAL_FSYNC,
        cfg.window.slices,
        cfg.window.seconds / cfg.window.slices as f64
    )
}

/// Runs every workload in a fresh process each, prints every metric by
/// name and writes `benchmark/out/results-<seed>.json`.
pub fn suite(args: &Args, cfg: &Config) -> ExitCode {
    let prov = Provenance::collect(&cfg.out_dir);
    let gated = prov.gated();
    if !gated {
        eprintln!(
            "sdl-benchmark: NOT GATED — nproc = {}, another sdl-server running: {}. \
             Numbers follow but must not be used to accept or reject a change.",
            prov.nproc, prov.foreign_server
        );
    }
    let exe = std::env::current_exe().expect("own path");
    let mut workloads = String::new();
    let mut all_ok = true;
    for name in WORKLOADS {
        let mut sections = Vec::new();
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status().expect("child benchmark process starts");
            all_ok &= status.success();
            let section = fs::read_to_string(detail_path(cfg, name, trace))
                .ok()
                .filter(|_| status.success())
                .unwrap_or_else(|| "null".to_owned());
            sections.push(format!(
                "\"{}\": {section}",
                if trace { "per_layer" } else { "end_to_end" }
            ));
        }
        let sep = if workloads.is_empty() { "" } else { ",\n  " };
        let _ = write!(workloads, "{sep}\"{name}\": {{{}}}", sections.join(", "));
    }
    let results = format!(
        "{{\"gated\": {gated},\n \"provenance\": {},\n \"workloads\": {{\n  {workloads}\n }}}}\n",
        provenance_json(&prov, args, cfg)
    );
    let path = cfg.out_dir.join(format!("results-{}.json", args.seed));
    fs::write(&path, results).expect("results file is writable");
    eprintln!(
        "sdl-benchmark: results{} in {}",
        if gated { "" } else { " (NOT GATED)" },
        path.display()
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Gate {
    better_lower: bool,
    bound: f64,
}

fn gates() -> Result<BTreeMap<String, Gate>, String> {
    let text = fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for m in spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
        out.insert(
            field("name").to_owned(),
            Gate {
                better_lower: field("better") == "lower",
                bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
            },
        );
    }
    Ok(out)
}

fn load_results(path: &str) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One row per (workload, end-to-end metric): both values with the
/// quartiles of their slices, the bound, and a verdict. `unresolved`
/// means a side's own quartile spread is wider than the bound, so the
/// runs cannot tell.
pub fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let loaded = gates().and_then(|g| Ok((g, load_results(a_path)?, load_results(b_path)?)));
    let (gates, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("sdl-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    for (side, r) in [("A", &a), ("B", &b)] {
        if r.get("gated") != Some(&Json::Bool(true)) {
            println!("note: {side} was measured on a host that fails the guard (not gated)");
        }
    }
    println!(
        "{:<17} {:<14} {:>13} {:>22} {:>13} {:>22} {:>6} {:>8}  verdict",
        "workload", "metric", "A value", "A [q1, q3]", "B value", "B [q1, q3]", "bound", "B vs A"
    );
    let mut regressed = false;
    for name in WORKLOADS {
        for (metric, gate) in &gates {
            let stat = |r: &Json| {
                let m = r
                    .get("workloads")?
                    .get(name)?
                    .get("end_to_end")?
                    .get("metrics")?
                    .get(metric)?;
                let f = |k: &str| m.get(k).and_then(Json::as_f64);
                Some((f("value")?, f("median")?, f("q1")?, f("q3")?))
            };
            let (Some((av, am, aq1, aq3)), Some((bv, bm, bq1, bq3))) = (stat(&a), stat(&b)) else {
                println!("{name:<17} {metric:<14} missing on one side");
                continue;
            };
            // Positive = B is worse, as a share of A's value.
            let worse = if gate.better_lower {
                (bv - av) / av
            } else {
                (av - bv) / av
            };
            let spread = ((aq3 - aq1) / am).max((bq3 - bq1) / bm);
            let verdict = if spread > gate.bound {
                "unresolved"
            } else if worse > gate.bound {
                regressed = true;
                "regressed"
            } else if worse < -gate.bound {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{name:<17} {metric:<14} {av:>13.4} {:>22} {bv:>13.4} {:>22} {:>5.1}% {:>+7.1}%  {verdict}",
                format!("[{aq1:.4}, {aq3:.4}]"),
                format!("[{bq1:.4}, {bq3:.4}]"),
                gate.bound * 100.0,
                (bv - av) / av * 100.0,
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
