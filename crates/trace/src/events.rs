//! The event view: one line per thing that happened to the society or
//! the store — as JSON Lines here (`sdl-run --events-out`; the schema is
//! in `docs/OBSERVABILITY.md`), or as an ASCII [`timeline`](crate::timeline).

use std::io;

use sdl_core::TraceRecord;
use sdl_lang::ast::TxnKind;
use sdl_tuple::{Tuple, Value};

use crate::json::escape;

/// Calls `line(step, text)` for every event in `records`, in order: the
/// body of a JSON object when `json`, timeline text otherwise. A commit
/// is its `consensus_reached` when it fires a consensus, its
/// retractions, then per contribution its assertions and export drops
/// and its `txn_committed`.
pub(crate) fn lines(records: &[TraceRecord], json: bool, mut line: impl FnMut(u64, String)) {
    for r in records {
        match r {
            TraceRecord::Commit {
                step,
                parts,
                retracted,
                asserted,
                ..
            } => {
                if parts[0].1 == TxnKind::Consensus {
                    let ps = parts.iter().map(|(p, _)| match json {
                        true => p.0.to_string(),
                        false => p.to_string(),
                    });
                    let ps: Vec<String> = ps.collect();
                    line(
                        *step,
                        match json {
                            true => format!(
                                "\"type\":\"consensus_reached\",\"participants\":[{}]",
                                ps.join(",")
                            ),
                            false => format!("**  consensus [{}]", ps.join(", ")),
                        },
                    );
                }
                for (by, id, t) in retracted {
                    line(
                        *step,
                        match json {
                            true => format!(
                            "\"type\":\"tuple_retracted\",\"by\":{},\"id\":\"{id}\",\"tuple\":{}",
                            by.0,
                            json_tuple(t)
                        ),
                            false => format!("{by}  - {t}"),
                        },
                    );
                }
                for &(pid, kind) in parts {
                    for (by, id, t) in asserted.iter().filter(|a| a.0 == pid) {
                        line(*step, match (json, id) {
                            (true, Some(id)) => format!(
                                "\"type\":\"tuple_asserted\",\"by\":{},\"id\":\"{id}\",\"tuple\":{}",
                                by.0,
                                json_tuple(t)
                            ),
                            (true, None) => format!(
                                "\"type\":\"export_dropped\",\"by\":{},\"tuple\":{}",
                                by.0,
                                json_tuple(t)
                            ),
                            (false, Some(_)) => format!("{by}  + {t}"),
                            (false, None) => format!("{by}  x {t} (export)"),
                        });
                    }
                    line(
                        *step,
                        match json {
                            true => format!(
                                "\"type\":\"txn_committed\",\"by\":{},\"mode\":\"{}\"",
                                pid.0,
                                mode_str(kind)
                            ),
                            false => format!("{pid}  commit {kind}"),
                        },
                    );
                }
            }
            TraceRecord::Failed { step, pid, .. } => line(
                *step,
                match json {
                    true => format!("\"type\":\"txn_failed\",\"by\":{}", pid.0),
                    false => format!("{pid}  fail ->"),
                },
            ),
            TraceRecord::Park {
                step,
                pid,
                consensus,
                ..
            } => line(
                *step,
                match (json, consensus) {
                    (true, _) => format!(
                        "\"type\":\"process_blocked\",\"id\":{},\"consensus\":{consensus}",
                        pid.0
                    ),
                    (false, true) => format!("{pid}  blocked (consensus)"),
                    (false, false) => format!("{pid}  blocked"),
                },
            ),
            TraceRecord::Spawn {
                step,
                pid,
                name,
                args,
                by,
                ..
            } => line(
                *step,
                match json {
                    true => {
                        let args: Vec<String> = args.iter().map(json_value).collect();
                        format!(
                        "\"type\":\"process_created\",\"id\":{},\"name\":\"{}\",\"args\":[{}],\"by\":{}",
                        pid.0,
                        escape(name),
                        args.join(","),
                        by.0
                    )
                    }
                    false => {
                        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
                        format!("{by}  spawn {pid} = {name}({})", args.join(", "))
                    }
                },
            ),
            TraceRecord::Exit {
                step, pid, aborted, ..
            } => line(
                *step,
                match (json, aborted) {
                    (true, _) => format!(
                        "\"type\":\"process_terminated\",\"id\":{},\"aborted\":{aborted}",
                        pid.0
                    ),
                    (false, true) => format!("{pid}  aborted"),
                    (false, false) => format!("{pid}  terminated"),
                },
            ),
            _ => {}
        }
    }
}

/// Writes the event view of `records` as JSON Lines, one object per
/// event with the `step` it happened at; returns the lines written.
///
/// # Errors
///
/// The first write error.
pub fn write_jsonl<W: io::Write>(records: &[TraceRecord], out: &mut W) -> io::Result<u64> {
    let (mut written, mut result) = (0, Ok(()));
    lines(records, true, |step, body| {
        if result.is_ok() {
            result = writeln!(out, "{{\"step\":{step},{body}}}");
            written += 1;
        }
    });
    result.map(|()| written)
}

/// The `mode` label of a transaction kind.
pub(crate) fn mode_str(kind: TxnKind) -> &'static str {
    match kind {
        TxnKind::Immediate => "immediate",
        TxnKind::Delayed => "delayed",
        TxnKind::Consensus => "consensus",
    }
}

fn json_tuple(t: &Tuple) -> String {
    let fields: Vec<String> = t.iter().map(json_value).collect();
    format!("[{}]", fields.join(","))
}

fn json_value(v: &Value) -> String {
    match v {
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) if f.is_finite() => f.to_string(),
        // JSON has no NaN/Infinity literals; encode as strings.
        Value::Float(f) => format!("\"{f}\""),
        Value::Atom(a) => format!("\"{}\"", escape(a.as_str())),
        Value::Str(s) => format!("\"{}\"", escape(s)),
        Value::Pid(p) => format!("{{\"pid\":{}}}", p.0),
        Value::Tid(t) => format!("{{\"tid\":\"{t}\"}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_core::{CompiledProgram, Runtime, Tracer};
    use sdl_tuple::ProcId;

    /// The JSON Lines of one serial run of `src`, checked to count
    /// its own lines.
    fn jsonl(src: &str) -> String {
        let program = CompiledProgram::from_source(src).unwrap();
        let tracer = Tracer::new();
        let mut rt = Runtime::builder(program)
            .tracer(tracer.clone())
            .build()
            .unwrap();
        rt.run().unwrap();
        let mut out = Vec::new();
        let written = write_jsonl(&tracer.take(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(written as usize, text.lines().count());
        text
    }

    #[test]
    fn event_json_covers_every_variant() {
        let text = jsonl(
            "process P(x) {
                export { <out, *, *, *>; }
                -> <out, \"a\\\"b\", x, 1.5>, <secret>;
                <nope> -> skip;
                exists v, w, f : <out, v, w, f>! -> ;
             }
             process A() { -> abort; }
             process C(me) { <go> @> skip; }
             init { <go>; spawn P(\"q\"); spawn A(); spawn C(1); spawn C(2); }",
        );
        let mut kinds = std::collections::BTreeSet::new();
        for line in text.lines() {
            let obj = crate::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert!(line.starts_with("{\"step\":"), "{line}");
            kinds.insert(obj.get("type").and_then(|t| t.as_str()).unwrap().to_owned());
        }
        for kind in [
            "tuple_asserted",
            "tuple_retracted",
            "export_dropped",
            "txn_committed",
            "txn_failed",
            "process_blocked",
            "process_created",
            "process_terminated",
            "consensus_reached",
        ] {
            assert!(kinds.contains(kind), "missing {kind}: {kinds:?}");
        }
        assert!(
            text.contains("\"tuple\":[\"out\",\"a\\\"b\",\"q\",1.5]"),
            "{text}"
        );
        assert!(text.contains("\"mode\":\"consensus\""), "{text}");
        assert_eq!(json_value(&Value::Float(f64::NAN)), "\"NaN\"");
        assert_eq!(json_value(&Value::Pid(ProcId(3))), "{\"pid\":3}");
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let text = jsonl("process P() { -> <a>; } init { spawn P(); }");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "spawn, assert, commit, exit: {text}");
        assert!(lines[0].starts_with("{\"step\":0,\"type\":\"process_created\""));
    }

    #[test]
    fn log_records_in_order() {
        let text = jsonl(
            "process W() { loop { exists a, b : <v, a>!, <v, b>! -> <v, a + b> } }
             init { <v, 1>; <v, 2>; <v, 3>; spawn W(); spawn W(); }",
        );
        let steps: Vec<u64> = text
            .lines()
            .map(|l| {
                crate::json::parse(l)
                    .unwrap()
                    .get("step")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert!(steps.len() > 8, "{text}");
        assert!(steps.windows(2).all(|w| w[0] <= w[1]), "{steps:?}");
    }
}
