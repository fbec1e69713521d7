//! End-to-end tests of the `sdl-run` CLI on the shipped `.sdl` programs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_sdl-run"))
        .args(args)
        .output()
        .expect("sdl-run spawns");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn runs_hello_program() {
    let (stdout, _, ok) = run(&["examples/programs/hello.sdl"]);
    assert!(ok);
    assert!(stdout.contains("completed"), "{stdout}");
    assert!(
        stdout.contains("<watched, 90>") || stdout.contains("watched"),
        "{stdout}"
    );
}

#[test]
fn runs_sort_with_stats() {
    let (stdout, _, ok) = run(&["examples/programs/sort.sdl", "--stats"]);
    assert!(ok);
    assert!(stdout.contains("1 consensus round"), "{stdout}");
    assert!(stdout.contains("<1, 1>"), "{stdout}");
    assert!(stdout.contains("<5, 99>"), "{stdout}");
    assert!(stdout.contains("Sort"), "stats table present: {stdout}");
}

#[test]
fn runs_sum3_in_rounds_mode_with_trace() {
    let (stdout, _, ok) = run(&["examples/programs/sum3.sdl", "--rounds", "--trace"]);
    assert!(ok);
    assert!(stdout.contains("parallel round"), "{stdout}");
    assert!(stdout.contains("360"), "total of 10..=80: {stdout}");
    assert!(stdout.contains("timeline:"), "{stdout}");
}

#[test]
fn reports_parse_errors_with_position() {
    let dir = std::env::temp_dir().join("sdl_cli_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let bad = dir.join("bad.sdl");
    std::fs::write(&bad, "process P( {").expect("write");
    let (_, stderr, ok) = run(&[bad.to_str().expect("utf8 path")]);
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn missing_file_fails_gracefully() {
    let (_, stderr, ok) = run(&["no_such_file.sdl"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn seed_changes_are_accepted() {
    for seed in ["0", "7"] {
        let (stdout, _, ok) = run(&["examples/programs/sum3.sdl", "--seed", seed]);
        assert!(ok);
        assert!(stdout.contains("360"), "seed {seed}: {stdout}");
    }
}

#[test]
fn runs_labeling_with_grid_builtin() {
    let (stdout, _, ok) = run(&["examples/programs/labeling.sdl", "--grid", "4x4"]);
    assert!(ok);
    assert!(stdout.contains("3 consensus round"), "{stdout}");
    assert!(stdout.contains("label/3 (16)"), "{stdout}");
}

#[test]
fn runs_dining_program() {
    let (stdout, _, ok) = run(&["examples/programs/dining.sdl"]);
    assert!(ok);
    assert!(stdout.contains("completed"), "{stdout}");
    assert!(stdout.contains("sated/2 (3)"), "{stdout}");
}

#[test]
fn runs_readers_writers() {
    let (stdout, _, ok) = run(&["examples/programs/readers_writers.sdl"]);
    assert!(ok);
    assert!(stdout.contains("completed"), "{stdout}");
    assert!(
        stdout.contains("token/2 (3)"),
        "all tokens returned: {stdout}"
    );
    assert!(stdout.contains("read_by/3 (3)"), "three reads: {stdout}");
    assert!(stdout.contains("<record, 99>"), "write applied: {stdout}");
}

#[test]
fn runs_barrier_program() {
    let (stdout, _, ok) = run(&["examples/programs/barrier.sdl", "--stats"]);
    assert!(ok);
    assert!(stdout.contains("2 consensus round"), "{stdout}");
    assert!(stdout.contains("done/2 (3)"), "{stdout}");
}

/// The event views `sdl-run` prints are pinned byte for byte: the stats
/// table and the timeline.
#[test]
fn event_views_match_the_goldens() {
    for (args, golden) in [
        (
            &["examples/programs/sort.sdl", "--stats"][..],
            include_str!("goldens/sort_stats.txt"),
        ),
        (
            &["examples/programs/barrier.sdl", "--stats"][..],
            include_str!("goldens/barrier_stats.txt"),
        ),
        (
            &["examples/programs/sum3.sdl", "--rounds", "--trace"][..],
            include_str!("goldens/sum3_rounds_trace.txt"),
        ),
    ] {
        let (stdout, stderr, ok) = run(args);
        assert!(ok, "{args:?}: {stderr}");
        assert_eq!(stdout, golden, "{args:?}");
    }
}

/// The number after `prefix` in `text`, e.g. `10` in "completed: 10 commits".
fn count_after(text: &str, prefix: &str) -> u64 {
    let rest = &text[text
        .find(prefix)
        .unwrap_or_else(|| panic!("no {prefix:?} in {text}"))
        + prefix.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no count after {prefix:?}"))
}

#[test]
fn events_out_writes_one_json_object_per_event() {
    let dir = std::env::temp_dir().join(format!("sdl_events_out_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("sort.events");
    let path = path.to_str().expect("utf8 path");
    let (stdout, stderr, ok) = run(&[
        "examples/programs/sort.sdl",
        "--events-out",
        path,
        "--stats",
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(path).expect("events file");
    let mut committed = 0;
    for line in text.lines() {
        let obj = sdl::trace::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        if obj.get("type").and_then(sdl::trace::json::Json::as_str) == Some("txn_committed") {
            committed += 1;
        }
    }
    assert_eq!(
        text.lines().count() as u64,
        count_after(&stderr, &format!("{path}: ")),
        "{stderr}"
    );
    let commits = count_after(&stdout, "completed: ");
    assert_eq!(committed, commits);
    assert_eq!(count_after(&stdout, "total: "), commits);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_replay_reproduces_the_run_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("sdl_cli_wal_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let wal = dir.join("wal");
    let wal = wal.to_str().expect("utf8 path");

    let (stdout, stderr, ok) = run(&[
        "examples/programs/hello.sdl",
        "--wal",
        wal,
        "--fsync",
        "always",
    ]);
    assert!(ok, "{stdout}{stderr}");

    // Replay alone reconstructs the final store from the log.
    let (stdout, _, ok) = run(&["--replay", wal]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("watched"), "replayed store: {stdout}");

    // Replay against a live run of the same program diffs clean.
    let (stdout, stderr, ok) = run(&["--replay", wal, "examples/programs/hello.sdl"]);
    assert!(ok, "{stdout}{stderr}");
    assert!(
        stdout.contains("matches the log bit-for-bit"),
        "{stdout}{stderr}"
    );

    // Reusing a dir with history is refused without --recover...
    let (_, stderr, ok) = run(&["examples/programs/hello.sdl", "--wal", wal]);
    assert!(!ok);
    assert!(stderr.contains("--recover"), "{stderr}");

    // ...and accepted with it.
    let (stdout, stderr, ok) = run(&["examples/programs/hello.sdl", "--wal", wal, "--recover"]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stderr.contains("recovered"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// One HTTP GET against `addr`, returning the raw response.
fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(2)))?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n")?;
    let mut buf = String::new();
    s.read_to_string(&mut buf)?;
    Ok(buf)
}

#[test]
fn metrics_addr_serves_prometheus_over_http() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sdl-run"))
        .args([
            "examples/programs/dining.sdl",
            "--metrics-addr",
            "127.0.0.1:0",
            "--serve-for-ms",
            "20000",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sdl-run spawns");

    // The bound address is announced on stderr before the run starts.
    let mut stderr = BufReader::new(child.stderr.take().expect("piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).expect("stderr readable") > 0,
            "sdl-run exited without announcing the metrics address"
        );
        if let Some(rest) = line
            .trim()
            .strip_prefix("sdl-run: serving metrics on http://")
        {
            break rest.trim_end_matches("/metrics").to_owned();
        }
    };

    // Scrape until the whole run's counters have landed: dining commits
    // 15 transactions, and a scrape can arrive mid-run.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = String::new();
    loop {
        if let Ok(resp) = http_get(&addr, "/metrics") {
            last = resp;
            let total: u64 = last
                .lines()
                .filter(|l| l.starts_with("sdl_txn_committed_total{"))
                .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
                .sum();
            if total >= 15 {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "fewer than 15 commits scraped:\n{last}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        last.contains("HTTP/1.1 200 OK") && last.contains("text/plain; version=0.0.4"),
        "{last}"
    );

    let resp = http_get(&addr, "/nope").expect("scrape");
    assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");

    child.kill().ok();
    child.wait().ok();
}

/// Runs `sdl-run` with `--trace-out`, then `sdl-trace` on the result —
/// the same pairing the CI trace-smoke job uses.
fn trace_roundtrip(extra: &[&str], name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("sdl_trace_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{name}.json"));
    let path = path.to_str().expect("utf8 path");

    let mut args = vec!["examples/programs/dining.sdl", "--trace-out", path];
    args.extend_from_slice(extra);
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "{stdout}{stderr}");
    assert!(stderr.contains("trace record(s)"), "{stderr}");
    assert!(stdout.contains("phase breakdown:"), "{stdout}");

    let out = Command::new(env!("CARGO_BIN_EXE_sdl-trace"))
        .arg(path)
        .output()
        .expect("sdl-trace spawns");
    let trace_stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "sdl-trace rejected {name}: {trace_stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace_stdout.starts_with("ok:"), "{trace_stdout}");
    std::fs::remove_file(path).ok();
    trace_stdout
}

#[test]
fn trace_out_emits_valid_chrome_json_serial() {
    let report = trace_roundtrip(&[], "serial");
    assert!(report.contains("wake flows"), "{report}");
    assert!(report.contains("15 commits"), "{report}");
}

#[test]
fn trace_out_emits_valid_chrome_json_threaded() {
    let report = trace_roundtrip(
        &[
            "--threaded",
            "--threads",
            "2",
            "--shards",
            "4",
            "--stall-ms",
            "2000",
        ],
        "threaded",
    );
    assert!(report.contains("15 commits"), "{report}");
}

#[test]
fn trace_cap_bounds_the_threaded_export_and_reports_drops() {
    let dir = std::env::temp_dir().join(format!("sdl_trace_cap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("capped.json");
    let path = path.to_str().expect("utf8 path");
    let (stdout, stderr, ok) = run(&[
        "examples/programs/dining.sdl",
        "--threaded",
        "--threads",
        "2",
        "--trace-cap",
        "8",
        "--trace-out",
        path,
    ]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stderr.contains("wrote 8 trace record(s)"), "{stderr}");
    assert!(count_after(&stderr, "trace buffer full; ") > 0, "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sdl_trace_rejects_malformed_files() {
    let dir = std::env::temp_dir().join(format!("sdl_trace_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("bad.json");
    // A flow start with no finish and no anchoring slice.
    std::fs::write(
        &path,
        r#"{"traceEvents":[{"ph":"s","id":1,"name":"wake","cat":"wake","pid":1,"tid":0,"ts":5}]}"#,
    )
    .expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_sdl-trace"))
        .arg(path.to_str().expect("utf8 path"))
        .output()
        .expect("sdl-trace spawns");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("validation error"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn wal_flag_validation() {
    let (_, stderr, ok) = run(&["examples/programs/hello.sdl", "--recover"]);
    assert!(!ok);
    assert!(stderr.contains("--recover needs --wal"), "{stderr}");

    let (_, stderr, ok) = run(&[
        "examples/programs/hello.sdl",
        "--wal",
        "/tmp/x",
        "--fsync",
        "sometimes",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown fsync policy"), "{stderr}");
}

/// Runs `bin` with `args` and returns its exit code and stderr.
fn exit_code(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("binary spawns");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn threads_and_shards_need_threaded() {
    for flag in ["--threads", "--shards"] {
        let (code, stderr) = exit_code(
            env!("CARGO_BIN_EXE_sdl-run"),
            &["examples/programs/hello.sdl", flag, "4"],
        );
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains("need --threaded"), "{flag}: {stderr}");
    }
}

#[test]
fn server_reports_a_bad_fsync_policy() {
    let (code, stderr) = exit_code(env!("CARGO_BIN_EXE_sdl-server"), &["--fsync", "bogus"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown fsync policy"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}
