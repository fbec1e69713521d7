//! Load generator: many simulated clients multiplexed over a bounded
//! connection pool, with client-side pipelining.
//!
//! Each simulated client alternates `out <R, c, seq>` with
//! `inp <R, c, seq>` — the producer/consumer shape the Buravlev
//! tuple-space survey benchmarks across Linda implementations. A worker
//! thread owns one connection and a slice of the simulated clients,
//! keeping up to `pipeline` requests in flight; `pipeline = 1` is the
//! one-op-per-syscall ablation baseline.
//!
//! The relation `R` defaults to the single shared functor `mbox`;
//! [`LoadConfig::relations`] > 1 switches to the *disjoint-relation
//! profile* where client `c` works relation `r{c % K}`, each connection
//! sticks to one relation, and — because the sharded store routes by
//! functor — connections land on disjoint shard footprints. That is the
//! multi-loop scaling shape: connections spread evenly over the loops,
//! each loop's connections work their own relations, and loops commit
//! without contending.
//!
//! State is sized for millions of simulated clients: one `u32` op
//! counter per client (sequence number and out/inp phase are both
//! derived from it), so 1M clients cost 4 MB across all workers, and
//! latencies go into a log-bucketed histogram (~3% resolution) with a
//! fixed 16 KiB footprint per worker, not a sample vector.

use std::io;
use std::time::{Duration, Instant};

use sdl_tuple::{pattern, tuple, Pattern, Tuple, Value};

use crate::client::Client;
use crate::wire::{Request, Response};

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address.
    pub addr: String,
    /// Simulated clients (distinct mailbox ids).
    pub sim_clients: usize,
    /// TCP connections to multiplex them over.
    pub connections: usize,
    /// In-flight requests per connection (1 = unpipelined ablation).
    pub pipeline: usize,
    /// Operations per simulated client (alternating out/inp).
    pub ops_per_client: usize,
    /// Distinct relations (functors). `1` keeps every client on the
    /// shared `mbox` functor; `K > 1` divides clients into `K`
    /// contiguous blocks, block `k` working functor `r{k}`. Blocks
    /// align with the contiguous client slices connections own, so
    /// (for `K >=` connections) each connection's traffic stays on
    /// disjoint relations — and therefore disjoint shards.
    pub relations: usize,
    /// Route the read half of the workload to this address (a read-only
    /// replica): writes stay on [`LoadConfig::addr`], and each client's
    /// `inp` becomes a non-destructive `rdp` against the replica. A
    /// `rdp` miss then means the replica hadn't applied that client's
    /// `out` yet — the replication-lag signal — so misses are expected
    /// under load rather than a bug in this shape.
    pub read_from: Option<String>,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: "127.0.0.1:7401".to_owned(),
            sim_clients: 1000,
            connections: 16,
            pipeline: 64,
            ops_per_client: 4,
            relations: 1,
            read_from: None,
        }
    }
}

/// Aggregated results of a load run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Operations completed (each received a final response).
    pub ops: u64,
    /// `inp` requests that found no tuple (should be 0 in this shape).
    pub misses: u64,
    /// Wall-clock time of the slowest worker.
    pub elapsed: Duration,
    /// Completed operations per second.
    pub ops_per_sec: f64,
    /// Median op latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile op latency, nanoseconds.
    pub p99_ns: u64,
    /// Maximum op latency, nanoseconds.
    pub max_ns: u64,
}

/// Log-bucketed latency histogram: 5 mantissa bits ≈ 3% value
/// resolution, fixed footprint, O(1) record.
#[derive(Clone)]
pub(crate) struct LatHist {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

const SUB_BITS: usize = 5;
const SUB: usize = 1 << SUB_BITS;

fn bucket_of(ns: u64) -> usize {
    if ns < (2 * SUB) as u64 {
        return ns as usize; // exact for small values
    }
    let log = 63 - ns.leading_zeros() as usize;
    let shift = log - SUB_BITS;
    let mantissa = ((ns >> shift) as usize) & (SUB - 1);
    (shift + 1) * SUB + mantissa
}

fn value_of(bucket: usize) -> u64 {
    if bucket < 2 * SUB {
        return bucket as u64;
    }
    let shift = bucket / SUB - 1;
    let mantissa = (bucket % SUB) as u64;
    (SUB as u64 + mantissa) << shift
}

impl Default for LatHist {
    fn default() -> LatHist {
        LatHist::new()
    }
}

impl LatHist {
    /// Creates an empty histogram.
    pub(crate) fn new() -> LatHist {
        LatHist {
            buckets: vec![0; (64 - SUB_BITS + 1) * SUB],
            count: 0,
            max: 0,
        }
    }

    /// Records one latency observation.
    pub(crate) fn record(&mut self, ns: u64) {
        let b = bucket_of(ns).min(self.buckets.len() - 1);
        self.buckets[b] += 1;
        self.count += 1;
        self.max = self.max.max(ns);
    }

    /// Observations recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value.
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Merges another histogram into this one.
    pub(crate) fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q` in `[0, 1]` (bucket lower bound; 0 when
    /// empty).
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return value_of(i).min(self.max);
            }
        }
        self.max
    }
}

struct WorkerOut {
    hist: LatHist,
    misses: u64,
    elapsed: Duration,
}

/// The functor block client `cid` belongs to under `relations`
/// contiguous blocks over `sim_clients` ids.
fn relation_of(cid: usize, sim_clients: usize, relations: usize) -> usize {
    (cid * relations) / sim_clients.max(1)
}

fn worker(cfg: &LoadConfig, first_sim: usize, n_sim: usize) -> io::Result<WorkerOut> {
    let mut client = Client::connect(&cfg.addr)?;
    client.set_timeout(Some(Duration::from_secs(30)))?;
    // Read-routing: a second connection to the replica carries every
    // read; the write connection never sees them.
    let mut reader = match &cfg.read_from {
        Some(addr) => {
            let mut c = Client::connect(addr)?;
            c.set_timeout(Some(Duration::from_secs(30)))?;
            Some(c)
        }
        None => None,
    };
    let mut hist = LatHist::new();
    let mut misses = 0u64;

    let relations = cfg.relations.max(1);
    // Interned once per worker, cloned per op.
    let functors: Vec<Value> = if relations == 1 {
        vec![Value::atom("mbox")]
    } else {
        (0..relations)
            .map(|k| Value::atom(&format!("r{k}")))
            .collect()
    };

    let total = (n_sim * cfg.ops_per_client) as u64;
    // Per-sim-client state is one op counter; the sequence number and
    // the out/inp phase both derive from it. Keeps a million simulated
    // clients at 4 MB total instead of a per-client struct.
    let mut ops_done = vec![0u32; n_sim];
    let mut issued = 0u64;
    let mut done = 0u64;
    let mut sim_cursor = 0usize;
    // req_id → send time; req ids are assigned consecutively by the
    // client, so a Vec-backed ring would also work, but the map keeps
    // the code obvious and is far from the bottleneck. The replica
    // connection mints its own ids, so its in-flight set is separate.
    let mut pending: std::collections::HashMap<u64, (Instant, bool)> =
        std::collections::HashMap::new();
    let mut pending_r: std::collections::HashMap<u64, (Instant, bool)> =
        std::collections::HashMap::new();

    let t0 = Instant::now();
    while done < total {
        while issued < total && pending.len() + pending_r.len() < cfg.pipeline {
            let sim = sim_cursor;
            sim_cursor = (sim_cursor + 1) % n_sim;
            if u64::from(ops_done[sim]) >= cfg.ops_per_client as u64 {
                continue;
            }
            let cid = first_sim + sim;
            let functor =
                functors[relation_of(cid, cfg.sim_clients, relations) % functors.len()].clone();
            let seq = i64::from(ops_done[sim] / 2);
            let is_out = ops_done[sim].is_multiple_of(2);
            ops_done[sim] += 1;
            if is_out {
                let id = client.send(&Request::Out(mailbox_tuple(functor, cid as i64, seq)))?;
                pending.insert(id, (Instant::now(), false));
            } else {
                let p = mailbox_pattern(functor, cid as i64, seq);
                match reader.as_mut() {
                    Some(r) => {
                        let id = r.send(&Request::Rdp(p))?;
                        pending_r.insert(id, (Instant::now(), true));
                    }
                    None => {
                        let id = client.send(&Request::Inp(p))?;
                        pending.insert(id, (Instant::now(), true));
                    }
                }
            }
            issued += 1;
        }
        if !pending.is_empty() {
            let (id, resp) = client.recv()?;
            settle(&mut pending, id, resp, &mut hist, &mut misses, &mut done)?;
        }
        if let Some(r) = reader.as_mut() {
            if !pending_r.is_empty() {
                let (id, resp) = r.recv()?;
                settle(&mut pending_r, id, resp, &mut hist, &mut misses, &mut done)?;
            }
        }
    }
    Ok(WorkerOut {
        hist,
        misses,
        elapsed: t0.elapsed(),
    })
}

/// Accounts one reply against its lane's in-flight map. A `Failed` on a
/// read is a miss (on a replica lane, that means the read raced ahead
/// of replication); a `NotLeader` means the lanes are aimed wrong.
fn settle(
    pending: &mut std::collections::HashMap<u64, (Instant, bool)>,
    id: u64,
    resp: Response,
    hist: &mut LatHist,
    misses: &mut u64,
    done: &mut u64,
) -> io::Result<()> {
    if let Some((sent_at, is_read)) = pending.remove(&id) {
        hist.record(sent_at.elapsed().as_nanos() as u64);
        *done += 1;
        match resp {
            Response::Failed if is_read => *misses += 1,
            Response::NotLeader(leader) => {
                return Err(io::Error::other(format!(
                    "server is a read-only follower; writes go to {leader}"
                )));
            }
            Response::Error(msg) => return Err(io::Error::other(msg)),
            _ => {}
        }
    }
    Ok(())
}

fn mailbox_tuple(functor: Value, cid: i64, seq: i64) -> Tuple {
    tuple![functor, cid, seq]
}

fn mailbox_pattern(functor: Value, cid: i64, seq: i64) -> Pattern {
    pattern![functor, cid, seq]
}

/// Runs the configured load and aggregates worker results.
///
/// # Errors
///
/// Connection failure or any worker's I/O error.
pub fn run_load(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let conns = cfg.connections.clamp(1, cfg.sim_clients.max(1));
    let base = cfg.sim_clients / conns;
    let extra = cfg.sim_clients % conns;

    let mut handles = Vec::with_capacity(conns);
    let mut first = 0usize;
    for w in 0..conns {
        let n_sim = base + usize::from(w < extra);
        if n_sim == 0 {
            continue;
        }
        let cfg = cfg.clone();
        let first_sim = first;
        first += n_sim;
        handles.push(std::thread::spawn(move || worker(&cfg, first_sim, n_sim)));
    }

    let mut hist = LatHist::new();
    let mut misses = 0u64;
    let mut elapsed = Duration::ZERO;
    for h in handles {
        let out = h
            .join()
            .map_err(|_| io::Error::other("load worker panicked"))??;
        hist.merge(&out.hist);
        misses += out.misses;
        elapsed = elapsed.max(out.elapsed);
    }
    let ops = hist.count();
    let secs = elapsed.as_secs_f64().max(1e-9);
    Ok(LoadReport {
        ops,
        misses,
        elapsed,
        ops_per_sec: ops as f64 / secs,
        p50_ns: hist.quantile(0.5),
        p99_ns: hist.quantile(0.99),
        max_ns: hist.max(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantiles_are_sane() {
        let mut h = LatHist::new();
        for ns in 1..=1000u64 {
            h.record(ns * 1000); // 1µs .. 1ms
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        // ~3% bucket resolution around the true median of 500µs.
        assert!((400_000..=600_000).contains(&p50), "{p50}");
        let p99 = h.quantile(0.99);
        assert!((900_000..=1_000_000).contains(&p99), "{p99}");
        assert_eq!(h.max(), 1_000_000);
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn hist_merge_adds_counts() {
        let mut a = LatHist::new();
        let mut b = LatHist::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn bucket_value_roundtrip_within_resolution() {
        for exp in 0..60u32 {
            let v = 1u64 << exp;
            for off in [0u64, 1, 37] {
                let ns = v.saturating_add(off);
                let back = value_of(bucket_of(ns));
                assert!(back <= ns && ns - back <= ns / 16, "ns={ns} back={back}");
            }
        }
    }
}
