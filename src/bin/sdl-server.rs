//! `sdl-server` — serve a shared dataspace over TCP (`SDLNET01`).
//!
//! ```text
//! sdl-server [--addr HOST:PORT] [--metrics-addr HOST:PORT]
//!            [--loops N] [--shards N] [--max-parked N]
//!            [--max-frame BYTES] [--write-buf BYTES]
//!            [--wal-dir DIR] [--fsync always|interval[:MS]|never]
//!            [--snapshot-every N] [--wal-retain N]
//!            [--repl-addr HOST:PORT] [--advertise HOST:PORT]
//!            [--follow HOST:PORT]
//! ```
//!
//! * `--addr A`            bind address for the dataspace protocol
//!   (default `127.0.0.1:7401`; port `0` picks an ephemeral port,
//!   printed to stderr)
//! * `--metrics-addr A`    also serve Prometheus metrics over HTTP at
//!   `A` — the same `/metrics` endpoint `sdl-run` uses
//! * `--loops N`           event-loop worker threads over the shared
//!   sharded store (default 1; clamped to 64)
//! * `--shards N`          store shards (default 8)
//! * `--max-parked N`      parked-request limit across all loops; a
//!   request that would park beyond it is answered with an error
//!   (default 100000)
//! * `--max-frame BYTES`   per-frame payload cap (default 1 MiB)
//! * `--write-buf BYTES`   per-connection reply-buffer cap before that
//!   connection's reads pause (default 4 MiB)
//! * `--wal-dir DIR`       log every commit to a write-ahead log in
//!   `DIR` (created if missing); existing history is recovered and the
//!   store seeded from it. Without this flag, state is in-memory
//! * `--fsync P`           WAL fsync policy: `always`, `interval[:MS]`
//!   (default, 100 ms), or `never`
//! * `--snapshot-every N`  snapshot (and prune the log) every N commits
//! * `--wal-retain N`      keep at least the newest N commits through
//!   pruning, so a briefly-detached follower resumes from the log
//! * `--repl-addr A`       leader: also serve the `SDLREPL1`
//!   replication protocol at `A`, shipping the WAL to followers
//!   (requires `--wal-dir`; port `0` picks an ephemeral port)
//! * `--advertise A`       client address handed to followers for
//!   `NotLeader` redirects (default: the bound `--addr`)
//! * `--follow A`          follower: bootstrap from — and stay attached
//!   to — the leader's replication listener at `A`, serving reads only;
//!   writes are answered with a `NotLeader` redirect to the leader
//!
//! The process runs until SIGINT/SIGTERM kills it.

use std::process::ExitCode;
use std::time::Duration;

use sdl::metrics::Metrics;
use sdl::server::{serve, ServerConfig};

struct Args {
    cfg: ServerConfig,
    metrics_addr: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sdl-server [--addr HOST:PORT] [--metrics-addr HOST:PORT] \
         [--loops N] [--shards N] [--max-parked N] \
         [--max-frame BYTES] [--write-buf BYTES] \
         [--wal-dir DIR] [--fsync always|interval[:MS]|never] \
         [--snapshot-every N] [--wal-retain N] \
         [--repl-addr HOST:PORT] [--advertise HOST:PORT] [--follow HOST:PORT]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        cfg: ServerConfig {
            addr: "127.0.0.1:7401".to_owned(),
            ..ServerConfig::default()
        },
        metrics_addr: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.cfg.addr = it.next().unwrap_or_else(|| usage()),
            "--metrics-addr" => args.metrics_addr = Some(it.next().unwrap_or_else(|| usage())),
            "--loops" => {
                args.cfg.loops = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--shards" => {
                args.cfg.shards = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--max-parked" => {
                args.cfg.max_parked = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--max-frame" => {
                args.cfg.max_frame = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--write-buf" => {
                args.cfg.write_buf_limit = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--wal-dir" => args.cfg.wal_dir = Some(it.next().unwrap_or_else(|| usage()).into()),
            "--fsync" => {
                let spec = it.next().unwrap_or_else(|| usage());
                args.cfg.fsync = spec.parse().unwrap_or_else(|e| {
                    eprintln!("sdl-server: {e}");
                    usage()
                })
            }
            "--snapshot-every" => {
                args.cfg.snapshot_every = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--wal-retain" => {
                args.cfg.wal_retain = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--repl-addr" => args.cfg.repl_addr = Some(it.next().unwrap_or_else(|| usage())),
            "--advertise" => args.cfg.advertise = Some(it.next().unwrap_or_else(|| usage())),
            "--follow" => args.cfg.follow = Some(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();

    // Without an endpoint nobody can read a registry, so the server
    // runs uninstrumented (every metrics site is then one branch).
    let (metrics, metrics_server) = match &args.metrics_addr {
        Some(addr) => {
            let (metrics, registry) = Metrics::registry();
            match sdl::metrics_http::serve(addr, registry) {
                Ok(s) => {
                    eprintln!("sdl-server: metrics at http://{}/metrics", s.addr());
                    (metrics, Some(s))
                }
                Err(e) => {
                    eprintln!("sdl-server: cannot serve metrics on {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => (Metrics::disabled(), None),
    };

    let server = match serve(args.cfg, metrics) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sdl-server: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("sdl-server: listening on {}", server.addr());
    if let Some(repl) = server.repl_addr() {
        eprintln!("sdl-server: shipping replication on {repl}");
    }

    // Serve until killed. The event loop owns all state; this thread
    // just keeps the process (and the metrics endpoint) alive.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
        let _ = &metrics_server;
    }
}
