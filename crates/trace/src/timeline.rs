//! ASCII event timelines.

use sdl_core::TraceRecord;

use crate::events::lines;

/// Renders the event view of `records` as one line per event, with its
/// logical time and a compact description — the textual ancestor of the
/// paper's envisioned program visualization.
///
/// # Examples
///
/// ```
/// use sdl_core::{CompiledProgram, Runtime, Tracer};
///
/// let program = CompiledProgram::from_source(
///     "process P() { -> <a>; } init { spawn P(); }",
/// ).unwrap();
/// let tracer = Tracer::new();
/// let mut rt = Runtime::builder(program).tracer(tracer.clone()).build().unwrap();
/// rt.run().unwrap();
/// let text = sdl_trace::timeline::render(&tracer.take());
/// assert!(text.contains("+ <a>"));
/// ```
pub fn render(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    lines(records, false, |step, text| {
        out.push_str(&format!("{step:>6}  {text}\n"));
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_core::{CompiledProgram, Runtime, Tracer};

    #[test]
    fn renders_all_event_kinds() {
        let program = CompiledProgram::from_source(
            "process P() {
                export { <ok, *>; }
                -> <ok, 1>, <dropped>;
                <nothing> -> <bad>;
             }
             process W(me) { <go> @> skip; }
             init { <go>; spawn P(); spawn W(1); spawn W(2); }",
        )
        .unwrap();
        let tracer = Tracer::new();
        let mut rt = Runtime::builder(program)
            .tracer(tracer.clone())
            .build()
            .unwrap();
        rt.run().unwrap();
        let text = render(&tracer.take());
        assert!(text.contains("+ <ok, 1>"));
        assert!(text.contains("(export)"));
        assert!(text.contains("fail ->"));
        assert!(text.contains("consensus ["));
        assert!(text.contains("spawn"));
        assert!(text.contains("terminated"));
    }
}
