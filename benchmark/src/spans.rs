//! In-memory spans around calls into each layer, and the Prometheus
//! text the program already exposes, read as counters.
//!
//! Spans are recorded from outside the program: the benchmark calls a
//! layer's public function and notes when the call started and ended.
//! They stay in memory until [`Spans::write_json`] at the end of a run.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

struct Span {
    name: u16,
    parent: u32,
    /// Index of the operation in the workload's generated stream.
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    names: Vec<&'static str>,
    spans: Vec<Span>,
    origin: Instant,
    /// What reading the clock twice costs: every span is that much
    /// longer than the call it wraps, so means are reported net of it.
    pub clock_ns: f64,
}

impl Spans {
    pub fn new() -> Spans {
        let origin = Instant::now();
        let mut total = 0u128;
        const PROBES: u32 = 20_000;
        for _ in 0..PROBES {
            let a = Instant::now();
            let b = Instant::now();
            total += b.duration_since(a).as_nanos();
        }
        Spans {
            names: Vec::new(),
            spans: Vec::new(),
            origin,
            clock_ns: total as f64 / f64::from(PROBES),
        }
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Runs `f` inside a span; returns the span's index (a parent for
    /// nested spans) and `f`'s result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let name = self.name_id(name);
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.spans.push(Span {
            name,
            parent,
            op: op as u32,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
        ((self.spans.len() - 1) as u32, out)
    }

    /// Opens a span that encloses others; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, op: usize) -> u32 {
        self.time(name, parent, op, || ()).0
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// `(count, total ns net of the clock)` of the spans called `name`.
    fn tally(&self, name: &str) -> (usize, f64) {
        let Some(id) = self.names.iter().position(|n| *n == name) else {
            return (0, 0.0);
        };
        self.spans
            .iter()
            .filter(|s| usize::from(s.name) == id)
            .fold((0, 0.0), |(n, total), s| {
                let net = ((s.end_ns - s.start_ns) as f64 - self.clock_ns).max(0.0);
                (n + 1, total + net)
            })
    }

    /// Total nanoseconds inside spans called `name`, net of the clock.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.tally(name).1
    }

    pub fn count(&self, name: &str) -> usize {
        self.tally(name).0
    }

    /// Mean nanoseconds of one span called `name` (0 if there are none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.tally(name) {
            (0, _) => 0.0,
            (n, total) => total / n as f64,
        }
    }

    /// Writes `{"names": [...], "clock_ns": c, "spans": [[name, start_ns,
    /// end_ns, parent, op], ...]}`; `parent` is a span index or -1.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let names: Vec<String> = self.names.iter().map(|n| format!("\"{n}\"")).collect();
        write!(
            out,
            "{{\"names\": [{}], \"clock_ns\": {}, \"columns\": \
             [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\"], \"spans\": [",
            names.join(", "),
            self.clock_ns
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                out,
                "{sep}\n[{},{},{},{parent},{}]",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// One reading of a Prometheus text exposition.
#[derive(Default)]
pub struct Scrape {
    series: BTreeMap<String, f64>,
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    series.insert(key.to_owned(), v);
                }
            }
        }
        Scrape { series }
    }

    /// `GET /metrics` from a server's `--metrics-addr` endpoint.
    pub fn http(addr: &str) -> io::Result<Scrape> {
        let mut stream = TcpStream::connect(addr)?;
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: benchmark\r\nConnection: close\r\n\r\n")?;
        let mut text = String::new();
        stream.read_to_string(&mut text)?;
        let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
        Ok(Scrape::parse(body))
    }

    /// Sum of every series of `family` whose label set contains `label`
    /// (`""` for all, the bare un-labelled series included).
    pub fn sum(&self, family: &str, label: &str) -> f64 {
        self.series
            .iter()
            .filter(|(k, _)| {
                let name = k.split('{').next().unwrap_or(k);
                name == family && k.contains(label)
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// `self - earlier`, series by series.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape {
            series: self
                .series
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.series.get(k).copied().unwrap_or(0.0)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_sums_families_and_labels() {
        let s = Scrape::parse(
            "# HELP x y\nsdl_wakes_total{result=\"progress\"} 3\n\
             sdl_wakes_total{result=\"spurious\"} 1\nsdl_wal_bytes_total 40\n",
        );
        assert_eq!(s.sum("sdl_wakes_total", ""), 4.0);
        assert_eq!(s.sum("sdl_wakes_total", "spurious"), 1.0);
        assert_eq!(s.sum("sdl_wal_bytes_total", ""), 40.0);
        assert_eq!(s.sum("sdl_wal_bytes", ""), 0.0);
        let later = Scrape::parse("sdl_wal_bytes_total 100\n");
        assert_eq!(later.since(&s).sum("sdl_wal_bytes_total", ""), 60.0);
    }

    #[test]
    fn spans_nest_and_average() {
        let mut spans = Spans::new();
        let batch = spans.open("batch", ROOT, 0);
        spans.time("leaf", batch, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.time("leaf", batch, 1, || ());
        spans.close(batch);
        assert_eq!(spans.count("leaf"), 2);
        assert!(spans.mean_ns("leaf") > 0.9e6);
        assert!(spans.total_ns("batch") >= spans.total_ns("leaf"));
        assert_eq!(spans.mean_ns("absent"), 0.0);
    }
}
