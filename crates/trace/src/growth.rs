//! Dataspace growth over logical time.

use sdl_core::TraceRecord;

/// One sample of dataspace size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrowthPoint {
    /// Logical time (transaction attempts so far).
    pub(crate) step: u64,
    /// Dataspace size after the event.
    pub(crate) size: i64,
}

/// Reconstructs the dataspace-size curve from a record stream, starting
/// at `initial` (tuples present before execution): one point per
/// retraction and assertion.
///
/// # Examples
///
/// ```
/// use sdl_core::{CompiledProgram, Runtime, Tracer};
///
/// let program = CompiledProgram::from_source(
///     "process P() { -> <a>; exists v : <a>! -> ; } init { spawn P(); }",
/// ).unwrap();
/// let tracer = Tracer::new();
/// let mut rt = Runtime::builder(program).tracer(tracer.clone()).build().unwrap();
/// rt.run().unwrap();
/// let curve = sdl_trace::growth(&tracer.take(), 0);
/// assert_eq!(curve.len(), 3); // start, assert, retract
/// assert!(sdl_trace::render_growth(&curve, 8).ends_with("(peak 1)"));
/// ```
pub fn growth(records: &[TraceRecord], initial: usize) -> Vec<GrowthPoint> {
    let mut size = initial as i64;
    let mut out = vec![GrowthPoint { step: 0, size }];
    for r in records {
        if let TraceRecord::Commit {
            step,
            retracted,
            asserted,
            ..
        } = r
        {
            let deltas = retracted.iter().map(|_| -1);
            for delta in deltas.chain(asserted.iter().filter(|a| a.1.is_some()).map(|_| 1)) {
                size += delta;
                out.push(GrowthPoint { step: *step, size });
            }
        }
    }
    out
}

/// Renders a growth curve as a small ASCII sparkline-style chart.
pub fn render_growth(curve: &[GrowthPoint], width: usize) -> String {
    if curve.is_empty() {
        return String::from("(empty)");
    }
    let max = curve.iter().map(|p| p.size).max().unwrap_or(0).max(1);
    let step = (curve.len().max(width) / width.max(1)).max(1);
    let levels: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut s = String::new();
    for chunk in curve.chunks(step).take(width) {
        let v = chunk.iter().map(|p| p.size).max().unwrap_or(0);
        let idx = ((v * (levels.len() as i64 - 1)) / max).clamp(0, levels.len() as i64 - 1);
        s.push(levels[idx as usize]);
    }
    format!("{s}  (peak {max})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_core::{CompiledProgram, Runtime, Tracer};

    #[test]
    fn curve_tracks_asserts_and_retracts() {
        let program = CompiledProgram::from_source(
            "process P() { -> <a>, <b>; exists v : <a>! -> ; }
             init { <seed>; spawn P(); }",
        )
        .unwrap();
        let tracer = Tracer::new();
        let mut rt = Runtime::builder(program)
            .tracer(tracer.clone())
            .build()
            .unwrap();
        rt.run().unwrap();
        let curve = growth(&tracer.take(), 1);
        assert_eq!(curve.first().unwrap().size, 1);
        assert_eq!(curve.last().unwrap().size, 2, "seed + b");
        let peak = curve.iter().map(|p| p.size).max().unwrap();
        assert_eq!(peak, 3, "seed + a + b before retract");
    }

    #[test]
    fn render_is_nonempty_and_bounded() {
        let curve: Vec<GrowthPoint> = (0..100)
            .map(|i| GrowthPoint {
                step: i,
                size: (i as i64) % 10,
            })
            .collect();
        let s = render_growth(&curve, 20);
        assert!(s.contains("peak 9"));
        assert!(render_growth(&[], 20).contains("empty"));
    }
}
