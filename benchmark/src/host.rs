//! The host side of the harness: the child `sdl-server`, CPU time and
//! memory read from `/proc`, and the provenance recorded with results.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Instant;

/// Flags every benchmark server runs with (`nproc = 2`: one loop for
/// the server, pinned to core 0; the driver pins itself to the last
/// core, see [`pin_to_last_core`]).
pub const SERVER_FLAGS: &[&str] = &["--addr", "127.0.0.1:0", "--loops", "1", "--shards", "8"];

/// WAL flags of `net_wal`: the fsync policy a user gets by default.
pub const WAL_FSYNC: &str = "interval:100";

/// A running `sdl-server` child. Dropping it kills the process and
/// waits for it, so no exit path of the harness leaves a server behind.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stderr: BufReader<ChildStderr>,
    pub addr: String,
    pub metrics_addr: Option<String>,
    /// Spawn → "listening" line seen.
    pub spawned_at: Instant,
}

impl Server {
    /// Spawns `bin` with [`SERVER_FLAGS`] plus `extra` and waits until it
    /// announces its listener.
    pub fn spawn(bin: &Path, extra: &[String]) -> io::Result<Server> {
        let spawned_at = Instant::now();
        let mut child = Command::new(bin)
            .args(SERVER_FLAGS)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut metrics_addr = None;
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("sdl-server exited before listening"));
            }
            if let Some(rest) = line.trim().strip_prefix("sdl-server: metrics at http://") {
                metrics_addr = Some(rest.trim_end_matches("/metrics").to_owned());
            }
            if let Some(rest) = line.trim().strip_prefix("sdl-server: listening on ") {
                break rest.to_owned();
            }
        };
        Ok(Server {
            child,
            _stderr: stderr,
            addr,
            metrics_addr,
            spawned_at,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    /// Kills the server (it has no graceful stop) and reaps it.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Where CPU time of the serving process is read from.
#[derive(Clone, Copy)]
pub enum CpuOf {
    /// This process (in-process societies).
    Me,
    /// A child server.
    Pid(u32),
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread — and every thread and child process it
/// starts afterwards — to core 0.
pub fn pin_to_core0() {
    // cpu_set_t is 1024 bits.
    let mut mask = [0u64; 16];
    mask[0] = 1;
    // SAFETY: `mask` is a live, initialised 128-byte buffer and its
    // exact size is passed; pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) this process has used, threads that have
/// exited included.
pub fn self_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux target this benchmark runs on) for the
    // duration of the call, and the clock id is a constant the kernel
    // defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of process `pid`: the scheduler's nanosecond run time summed
/// over its threads where `/proc/<pid>/task/*/sched` exists, otherwise
/// the 10 ms ticks of `/proc/<pid>/stat`.
pub fn pid_cpu_ns(pid: u32) -> u64 {
    sched_runtime_ns(pid).unwrap_or_else(|| stat_ticks_ns(pid))
}

fn sched_runtime_ns(pid: u32) -> Option<u64> {
    let mut total = 0.0f64;
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let text = fs::read_to_string(task.ok()?.path().join("sched")).ok()?;
        let line = text
            .lines()
            .find(|l| l.starts_with("se.sum_exec_runtime"))?;
        let ms: f64 = line.rsplit(':').next()?.trim().parse().ok()?;
        total += ms * 1e6;
    }
    Some(total as u64)
}

fn stat_ticks_ns(pid: u32) -> u64 {
    let Ok(text) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0;
    };
    // Fields after the parenthesised command: state is field 3, utime
    // and stime are fields 14 and 15.
    let after = text.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) * 10_000_000
}

pub fn cpu_ns(of: CpuOf) -> u64 {
    match of {
        CpuOf::Me => self_cpu_ns(),
        CpuOf::Pid(pid) => pid_cpu_ns(pid),
    }
}

fn status_kib(of: CpuOf, key: &str) -> f64 {
    let path = match of {
        CpuOf::Me => "/proc/self/status".to_owned(),
        CpuOf::Pid(pid) => format!("/proc/{pid}/status"),
    };
    fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with(key))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib(of: CpuOf) -> f64 {
    status_kib(of, "VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`) in bytes.
pub fn rss_bytes(of: CpuOf) -> f64 {
    status_kib(of, "VmRSS:") * 1024.0
}

/// Whether some `sdl-server` is already running on this host: it would
/// share the cores and make the numbers meaningless.
pub fn foreign_server_running() -> bool {
    let Ok(dir) = fs::read_dir("/proc") else {
        return false;
    };
    dir.flatten().any(|e| {
        let name = e.file_name();
        name.to_str().is_some_and(|s| s.parse::<u32>().is_ok())
            && fs::read_to_string(e.path().join("comm")).is_ok_and(|c| c.trim() == "sdl-server")
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type holding `dir`, from the longest matching mount point.
fn fs_type(dir: &Path) -> String {
    let dir = fs::canonicalize(dir).unwrap_or_else(|_| PathBuf::from(dir));
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_, mount, ty) = (it.next()?, it.next()?, it.next()?);
            dir.starts_with(mount).then(|| (mount.len(), ty.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, ty)| ty)
}

/// Everything needed to reproduce or distrust a set of numbers.
pub struct Provenance {
    pub commit: String,
    pub rustc: String,
    pub kernel: String,
    pub nproc: usize,
    pub wal_fs: String,
    pub foreign_server: bool,
}

impl Provenance {
    pub fn collect(out_dir: &Path) -> Provenance {
        Provenance {
            commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["--version"]),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
            nproc: nproc(),
            wal_fs: fs_type(out_dir),
            foreign_server: foreign_server_running(),
        }
    }

    /// Numbers gate a change only from a host with the two cores the
    /// load model assumes and no other server competing for them.
    pub fn gated(&self) -> bool {
        self.nproc >= 2 && !self.foreign_server
    }
}
