//! Chrome/Perfetto trace-event export of the observation stream.
//!
//! [`write_chrome_trace`] turns the [`TraceRecord`] stream a
//! [`Tracer`](sdl_core::Tracer) collected into the JSON trace-event
//! format both `chrome://tracing` and <https://ui.perfetto.dev> open
//! directly:
//!
//! * **pid 1 "execution"** — one thread track per scheduler thread
//!   (`main`, `worker-N`) carrying the span chain (`eval`, `plan`,
//!   `lock_wait_*`, `effects`), `commit` slices, and the `spawn`, `exit`
//!   and `txn_failed` instants (category `event`);
//! * **pid 2 "shards"** — one track per dataspace shard, with a commit's
//!   slice replicated onto every shard its write footprint locked;
//! * **pid 3 "parked"** — one track per process that ever parked: a
//!   `park` instant where it blocked, a `parked` slice from there to its
//!   unpark, `wake` points, and `stall` annotations;
//! * **flow arrows** — a `wake` arrow from each commit slice to the park
//!   interval it ended, and a `conflict` arrow from the invalidating
//!   commit to the aborted attempt.
//!
//! The export is lossless: [`from_chrome`] gives back the record stream
//! it was written from (tuple values travel as tagged strings), and
//! [`check_chrome`] validates structure (well-formed events,
//! non-negative spans, flow arrows with exactly two endpoints in the
//! right order, endpoints anchored on real slices).

use std::collections::{HashMap, HashSet};
use std::io::{self, Write};

use sdl_core::{ParkOutcome, SpanPhase, TraceRecord, Track};
use sdl_lang::ast::TxnKind;
use sdl_tuple::{ProcId, Tuple, TupleId, Value};

use crate::events::mode_str;
use crate::json::{escape, Json};

/// pid of the scheduler-thread tracks.
const PID_EXEC: u64 = 1;
/// pid of the per-shard tracks.
const PID_SHARDS: u64 = 2;
/// pid of the per-parked-process tracks.
const PID_PARKED: u64 = 3;

fn track_tid(track: Track) -> u64 {
    match track {
        Track::Main => 0,
        Track::Worker(w) => w as u64 + 1,
    }
}

fn tid_track(tid: u64) -> Track {
    match tid {
        0 => Track::Main,
        w => Track::Worker(w as usize - 1),
    }
}

fn str_list<S: AsRef<str>>(items: &[S]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|k| format!("\"{}\"", escape(k.as_ref())))
        .collect();
    format!("[{}]", quoted.join(","))
}

/// A value as a tagged string that parses back to exactly that value:
/// `i`nt, `f`loat, `b`ool, `a`tom, `s`tring, `p`id or `t`uple id.
fn tag(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("i{i}"),
        Value::Float(x) => format!("f{x:?}"),
        Value::Bool(b) => format!("b{b}"),
        Value::Atom(a) => format!("a{}", a.as_str()),
        Value::Str(s) => format!("s{s}"),
        Value::Pid(p) => format!("p{}", p.0),
        Value::Tid(t) => format!("t{t}"),
    }
}

fn untag(s: &str) -> Option<Value> {
    let rest = s.get(1..)?;
    Some(match s.get(..1)? {
        "i" => Value::Int(rest.parse().ok()?),
        "f" => Value::Float(rest.parse().ok()?),
        "b" => Value::Bool(rest.parse().ok()?),
        "a" => Value::atom(rest),
        "s" => Value::str(rest),
        "p" => Value::Pid(ProcId(rest.parse().ok()?)),
        "t" => Value::Tid(parse_tid(rest)?),
        _ => return None,
    })
}

/// Inverts `TupleId`'s `t{seq}@p{owner}` display.
fn parse_tid(s: &str) -> Option<TupleId> {
    let (seq, owner) = s.strip_prefix('t')?.split_once("@p")?;
    Some(TupleId {
        owner: ProcId(owner.parse().ok()?),
        seq: seq.parse().ok()?,
    })
}

/// `[by, "id" or null, [tagged values]]`: one tuple a commit moved.
fn change_json(by: ProcId, id: Option<TupleId>, t: &Tuple) -> String {
    let id = id.map_or("null".to_owned(), |id| format!("\"{id}\""));
    let tags: Vec<String> = t.iter().map(tag).collect();
    format!("[{},{id},{}]", by.0, str_list(&tags))
}

/// A trace event on track `(pid, tid)`: a slice when `dur` is given,
/// else an instant. `args` is the body of its args object.
pub(crate) fn event(
    (pid, tid): (u64, u64),
    name: &str,
    cat: &str,
    ts: u64,
    dur: Option<u64>,
    args: &str,
) -> String {
    let shape = match dur {
        Some(dur) => format!("\"ph\":\"X\",\"name\":\"{name}\",\"cat\":\"{cat}\",\"dur\":{dur}"),
        None => format!("\"ph\":\"i\",\"s\":\"t\",\"name\":\"{name}\",\"cat\":\"{cat}\""),
    };
    format!("{{{shape},\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"args\":{{{args}}}}}")
}

/// A metadata event naming a process (`what` = `process_name`) or a
/// thread (`thread_name`).
pub(crate) fn meta(pid: u64, tid: u64, what: &str, name: &str) -> String {
    let name = escape(name);
    format!("{{\"ph\":\"M\",\"name\":\"{what}\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}")
}

/// Writes a trace-event document holding `events` in order.
pub(crate) fn write_document<W: Write>(
    w: &mut W,
    events: impl IntoIterator<Item = String>,
) -> io::Result<()> {
    let mut out = io::BufWriter::new(w);
    write!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    for (i, e) in events.into_iter().enumerate() {
        write!(out, "{}\n{e}", if i == 0 { "" } else { "," })?;
    }
    write!(out, "\n]}}")?;
    out.flush()
}

/// The trace events one record becomes, each with its `(pid, tid)`
/// track. `commit_at` maps a commit id to its track and start; `open`
/// holds each process's park not yet closed; `flows` counts arrows.
fn chrome_events(
    r: &TraceRecord,
    commit_at: &HashMap<u64, (u64, u64)>,
    open: &mut HashMap<ProcId, (u64, Vec<String>)>,
    flows: &mut u64,
) -> Vec<((u64, u64), String)> {
    let exec = |track: &Track| (PID_EXEC, track_tid(*track));
    let main = exec(&Track::Main);
    // The record's own event: track, name, category, start, a slice's
    // duration, args.
    let (at, name, cat, ts, dur, args) = match r {
        TraceRecord::Span {
            trace,
            pid,
            track,
            phase,
            t_us,
            dur_us,
        } => {
            let args = format!("\"trace\":{trace},\"pid\":{}", pid.0);
            (
                exec(track),
                phase.name(),
                "span",
                *t_us,
                Some(*dur_us),
                args,
            )
        }
        TraceRecord::Commit {
            step,
            trace,
            parts,
            track,
            commit,
            t_us,
            dur_us,
            keys,
            shards,
            retracted,
            asserted,
        } => {
            let list = |items: Vec<String>| format!("[{}]", items.join(","));
            let parts_json = parts
                .iter()
                .map(|(p, kind)| format!("[{},\"{}\"]", p.0, mode_str(*kind)))
                .collect();
            let retracted_json = retracted
                .iter()
                .map(|(by, id, t)| change_json(*by, Some(*id), t))
                .collect();
            let asserted_json = asserted
                .iter()
                .map(|(by, id, t)| change_json(*by, *id, t))
                .collect();
            let args = format!(
                "\"trace\":{trace},\"pid\":{},\"commit\":{commit},\"keys\":{},\"shards\":{},\
                 \"step\":{step},\"parts\":{},\"retracted\":{},\"asserted\":{}",
                parts.first().map_or(0, |p| p.0 .0),
                str_list(keys),
                list(shards.iter().map(ToString::to_string).collect()),
                list(parts_json),
                list(retracted_json),
                list(asserted_json)
            );
            (exec(track), "commit", "commit", *t_us, Some(*dur_us), args)
        }
        TraceRecord::Conflict {
            trace,
            pid,
            track,
            against,
            t_us,
        } => {
            let args = format!("\"trace\":{trace},\"pid\":{},\"against\":{against}", pid.0);
            (exec(track), "conflict", "conflict", *t_us, None, args)
        }
        TraceRecord::Park {
            step,
            pid,
            t_us,
            consensus,
            keys,
        } => {
            open.insert(*pid, (*t_us, keys.clone()));
            let keys = str_list(keys);
            let args = format!(
                "\"pid\":{},\"step\":{step},\"consensus\":{consensus},\"keys\":{keys}",
                pid.0
            );
            ((PID_PARKED, pid.0), "park", "park", *t_us, None, args)
        }
        TraceRecord::Unpark { pid, t_us, outcome } => {
            let (start, keys) = open.remove(pid).unwrap_or((*t_us, Vec::new()));
            let outcome = match outcome {
                ParkOutcome::Woken => "woken",
                ParkOutcome::Drained => "drained",
            };
            let keys = str_list(&keys);
            let args = format!(
                "\"pid\":{},\"keys\":{keys},\"outcome\":\"{outcome}\"",
                pid.0
            );
            let dur = Some(t_us.saturating_sub(start));
            ((PID_PARKED, pid.0), "parked", "park", start, dur, args)
        }
        TraceRecord::Wake {
            pid,
            commit,
            key,
            t_us,
        } => {
            let key = escape(key);
            let args = format!("\"pid\":{},\"commit\":{commit},\"key\":\"{key}\"", pid.0);
            ((PID_PARKED, pid.0), "wake", "wake", *t_us, None, args)
        }
        TraceRecord::Stall {
            pid,
            t_us,
            waited_us,
            keys,
            near_misses,
        } => {
            let (keys, misses) = (str_list(keys), str_list(near_misses));
            let args = format!(
                "\"pid\":{},\"waited_us\":{waited_us},\"keys\":{keys},\"near_misses\":{misses}",
                pid.0
            );
            ((PID_PARKED, pid.0), "stall", "stall", *t_us, None, args)
        }
        TraceRecord::Spawn {
            step,
            t_us,
            pid,
            name,
            args,
            by,
        } => {
            let tags: Vec<String> = args.iter().map(tag).collect();
            let (name, args) = (escape(name), str_list(&tags));
            let args = format!(
                "\"step\":{step},\"pid\":{},\"name\":\"{name}\",\"args\":{args},\"by\":{}",
                pid.0, by.0
            );
            (main, "spawn", "event", *t_us, None, args)
        }
        TraceRecord::Exit {
            step,
            t_us,
            pid,
            aborted,
        } => {
            let args = format!("\"step\":{step},\"pid\":{},\"aborted\":{aborted}", pid.0);
            (main, "exit", "event", *t_us, None, args)
        }
        TraceRecord::Failed { step, t_us, pid } => {
            let args = format!("\"step\":{step},\"pid\":{}", pid.0);
            (main, "txn_failed", "event", *t_us, None, args)
        }
    };
    let mut out = vec![(at, event(at, name, cat, ts, dur, &args))];
    // Derived events: a commit's shard replicas, and the flow arrow from
    // the start of the commit a conflict or wake points at.
    let arrow_from = match r {
        TraceRecord::Commit { commit, shards, .. } => {
            let (name, args) = (format!("commit {commit}"), format!("\"commit\":{commit}"));
            for &s in shards {
                let at = (PID_SHARDS, s as u64);
                out.push((at, event(at, &name, "shard", ts, dur, &args)));
            }
            None
        }
        TraceRecord::Conflict { against, .. } => commit_at.get(against),
        TraceRecord::Wake { commit, .. } => commit_at.get(commit),
        _ => None,
    };
    if let Some(&(tid, start)) = arrow_from {
        *flows += 1;
        let id = *flows;
        for (ph, (pid, tid), ts) in [("s", (PID_EXEC, tid), start), ("f", at, ts)] {
            let bp = if ph == "f" { "\"bp\":\"e\"," } else { "" };
            let e = format!(
                "{{\"ph\":\"{ph}\",{bp}\"id\":{id},\"name\":\"{cat}\",\"cat\":\"{cat}\",\
                 \"pid\":{pid},\"tid\":{tid},\"ts\":{ts}}}"
            );
            out.push(((pid, tid), e));
        }
    }
    out
}

/// Writes `records` as a Chrome trace-event JSON document.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace<W: Write>(records: &[TraceRecord], w: &mut W) -> io::Result<()> {
    // Commit id → (tid, start) for flow-arrow anchoring.
    let commit_at: HashMap<u64, (u64, u64)> = records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Commit {
                track,
                commit,
                t_us,
                ..
            } => Some((*commit, (track_tid(*track), *t_us))),
            _ => None,
        })
        .collect();
    let (mut open, mut flows, mut named) = (HashMap::new(), 0, HashSet::new());
    let processes = [
        (PID_EXEC, "execution"),
        (PID_SHARDS, "shards"),
        (PID_PARKED, "parked"),
    ];
    let events = records
        .iter()
        .flat_map(|r| chrome_events(r, &commit_at, &mut open, &mut flows))
        .flat_map(|((pid, tid), e)| {
            // Name each track where it first appears.
            let name = named.insert((pid, tid)).then(|| match (pid, tid) {
                (PID_EXEC, 0) => "main".to_owned(),
                (PID_EXEC, w) => format!("worker-{}", w - 1),
                (PID_SHARDS, s) => format!("shard-{s}"),
                (_, p) => ProcId(p).to_string(),
            });
            name.map(|n| meta(pid, tid, "thread_name", &n))
                .into_iter()
                .chain([e])
        });
    let names = processes.map(|(pid, name)| meta(pid, 0, "process_name", name));
    write_document(w, names.into_iter().chain(events))
}

/// One trace event back as its record: `Some(None)` for derived events
/// (metadata, shard replicas, flow endpoints), `None` when malformed.
fn decode(ev: &Json) -> Option<Option<TraceRecord>> {
    let (ph, name) = (ev.get("ph")?.as_str()?, ev.get("name")?.as_str()?);
    let cat = ev.get("cat").and_then(Json::as_str).unwrap_or_default();
    if matches!((ph, cat), ("M", _) | ("X", "shard") | ("s", _) | ("f", _)) {
        return Some(None);
    }
    let arg = |key: &str| ev.get("args")?.get(key);
    let num = |key: &str| arg(key)?.as_u64();
    let flag = |key: &str| match arg(key)? {
        Json::Bool(b) => Some(*b),
        _ => None,
    };
    let strs = |key: &str| -> Option<Vec<String>> {
        arg(key)?
            .as_arr()?
            .iter()
            .map(|s| Some(s.as_str()?.to_owned()))
            .collect()
    };
    let rows = |key: &str| arg(key)?.as_arr();
    let change = |row: &Json| -> Option<(ProcId, Option<TupleId>, Tuple)> {
        let [by, id, values] = row.as_arr()? else {
            return None;
        };
        let values = values
            .as_arr()?
            .iter()
            .map(|v| untag(v.as_str()?))
            .collect::<Option<Vec<Value>>>()?;
        let id = match id {
            Json::Null => None,
            id => Some(parse_tid(id.as_str()?)?),
        };
        Some((ProcId(by.as_u64()?), id, Tuple::new(values)))
    };
    let part = |row: &Json| -> Option<(ProcId, TxnKind)> {
        let [p, mode] = row.as_arr()? else {
            return None;
        };
        let kinds = [TxnKind::Immediate, TxnKind::Delayed, TxnKind::Consensus];
        let kind = kinds
            .into_iter()
            .find(|k| Some(mode_str(*k)) == mode.as_str())?;
        Some((ProcId(p.as_u64()?), kind))
    };
    let (pid, step) = (num("pid").map(ProcId), num("step"));
    let t_us = ev.get("ts")?.as_u64()?;
    let dur = || ev.get("dur")?.as_u64();
    let track = || Some(tid_track(ev.get("tid")?.as_u64()?));
    Some(Some(match (ph, cat, name) {
        ("X", "span", _) => TraceRecord::Span {
            trace: num("trace")?,
            pid: pid?,
            track: track()?,
            phase: [
                SpanPhase::Eval,
                SpanPhase::Plan,
                SpanPhase::LockWaitRead,
                SpanPhase::LockWaitWrite,
                SpanPhase::Effects,
            ]
            .into_iter()
            .find(|p| p.name() == name)?,
            t_us,
            dur_us: dur()?,
        },
        ("X", "commit", _) => TraceRecord::Commit {
            step: step?,
            trace: num("trace")?,
            parts: rows("parts")?
                .iter()
                .map(part)
                .collect::<Option<Vec<_>>>()
                .filter(|parts| !parts.is_empty())?,
            track: track()?,
            commit: num("commit")?,
            t_us,
            dur_us: dur()?,
            keys: strs("keys")?,
            shards: rows("shards")?
                .iter()
                .map(|s| Some(s.as_u64()? as usize))
                .collect::<Option<_>>()?,
            retracted: rows("retracted")?
                .iter()
                .map(|row| change(row).and_then(|(by, id, t)| Some((by, id?, t))))
                .collect::<Option<_>>()?,
            asserted: rows("asserted")?
                .iter()
                .map(change)
                .collect::<Option<_>>()?,
        },
        ("i", "conflict", _) => TraceRecord::Conflict {
            trace: num("trace")?,
            pid: pid?,
            track: track()?,
            against: num("against")?,
            t_us,
        },
        ("i", "park", _) => TraceRecord::Park {
            step: step?,
            pid: pid?,
            t_us,
            consensus: flag("consensus")?,
            keys: strs("keys")?,
        },
        ("X", "park", _) => TraceRecord::Unpark {
            pid: pid?,
            t_us: t_us.checked_add(dur()?)?,
            outcome: match arg("outcome")?.as_str()? {
                "woken" => ParkOutcome::Woken,
                "drained" => ParkOutcome::Drained,
                _ => return None,
            },
        },
        ("i", "wake", _) => TraceRecord::Wake {
            pid: pid?,
            commit: num("commit")?,
            key: arg("key")?.as_str()?.to_owned(),
            t_us,
        },
        ("i", "stall", _) => TraceRecord::Stall {
            pid: pid?,
            t_us,
            waited_us: num("waited_us")?,
            keys: strs("keys")?,
            near_misses: strs("near_misses")?,
        },
        ("i", "event", "spawn") => TraceRecord::Spawn {
            step: step?,
            t_us,
            pid: pid?,
            name: arg("name")?.as_str()?.to_owned(),
            args: strs("args")?
                .iter()
                .map(|s| untag(s))
                .collect::<Option<_>>()?,
            by: ProcId(num("by")?),
        },
        ("i", "event", "exit") => TraceRecord::Exit {
            step: step?,
            t_us,
            pid: pid?,
            aborted: flag("aborted")?,
        },
        ("i", "event", "txn_failed") => TraceRecord::Failed {
            step: step?,
            t_us,
            pid: pid?,
        },
        _ => return None,
    }))
}

/// Reconstructs the record stream from a parsed Chrome trace document,
/// inverting [`write_chrome_trace`]. Shard-track replicas and flow
/// arrows are derived data and are skipped.
///
/// # Errors
///
/// Names the first malformed or unknown event.
pub fn from_chrome(doc: &Json) -> Result<Vec<TraceRecord>, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("document has no traceEvents array")?;
    let mut records = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        match decode(ev) {
            Some(record) => records.extend(record),
            None => return Err(format!("event {i}: malformed or unknown: {ev:?}")),
        }
    }
    Ok(records)
}

/// Structural summary returned by [`check_chrome`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Total events in the file.
    pub events: usize,
    /// Complete (`ph:"X"`) slices.
    pub slices: usize,
    /// `wake` flow arrows.
    pub wake_flows: usize,
    /// `conflict` flow arrows.
    pub conflict_flows: usize,
    /// Stall annotations.
    pub stalls: usize,
}

/// A flow arrow's endpoint: `(ph, pid, tid, ts, category)`.
type FlowEnd<'a> = (&'a str, u64, u64, u64, &'a str);

/// Validates a parsed Chrome trace document: every event well-formed,
/// every slice with a non-negative extent, every flow arrow with exactly
/// one start and one finish (finish not before start), and every flow
/// start anchored inside a real slice on its track.
///
/// # Errors
///
/// Returns every violation found (the file may exhibit several).
pub fn check_chrome(doc: &Json) -> Result<CheckReport, Vec<String>> {
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        return Err(vec!["document has no traceEvents array".to_owned()]);
    };
    let mut report = CheckReport {
        events: events.len(),
        ..CheckReport::default()
    };
    let mut errs = Vec::new();
    // (pid, tid) → slice extents, for anchoring flow starts.
    let mut slices: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
    // flow id → its endpoints.
    let mut flows: HashMap<u64, Vec<FlowEnd>> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let num = |key: &str| ev.get(key).and_then(Json::as_u64);
        let text = |key: &str| ev.get(key).and_then(Json::as_str);
        let (Some(ph), Some(_)) = (text("ph"), text("name")) else {
            errs.push(format!("event {i}: missing ph or name"));
            continue;
        };
        match (ph, num("pid"), num("tid"), num("ts"), num("dur"), num("id")) {
            ("M", ..) => {}
            ("X", Some(pid), Some(tid), Some(ts), Some(dur), _) => {
                report.slices += 1;
                let end = ts.saturating_add(dur);
                slices.entry((pid, tid)).or_default().push((ts, end));
            }
            ("i", _, _, Some(_), ..) => report.stalls += usize::from(text("cat") == Some("stall")),
            ("s" | "f", Some(pid), Some(tid), Some(ts), _, Some(id)) => {
                let end = (ph, pid, tid, ts, text("cat").unwrap_or_default());
                flows.entry(id).or_default().push(end);
            }
            _ => errs.push(format!("event {i}: malformed or unknown '{ph}' event")),
        }
    }
    for (id, ends) in &flows {
        let (starts, finishes): (Vec<_>, Vec<_>) = ends.iter().partition(|e| e.0 == "s");
        let ([&(_, pid, tid, ts, cat)], [&(.., finish, _)]) = (&starts[..], &finishes[..]) else {
            errs.push(format!(
                "flow {id}: {} start(s), {} finish(es); want exactly one of each",
                starts.len(),
                finishes.len()
            ));
            continue;
        };
        if finish < ts {
            errs.push(format!("flow {id}: finishes at {finish} before start {ts}"));
        }
        let anchored = slices
            .get(&(pid, tid))
            .is_some_and(|v| v.iter().any(|&(a, b)| a <= ts && ts <= b));
        if !anchored {
            errs.push(format!(
                "flow {id}: start not anchored in any slice on pid {pid} tid {tid}"
            ));
        }
        match cat {
            "wake" => report.wake_flows += 1,
            "conflict" => report.conflict_flows += 1,
            other => errs.push(format!("flow {id}: unknown category '{other}'")),
        }
    }
    if errs.is_empty() {
        Ok(report)
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use sdl_core::parallel::ParallelRuntime;
    use sdl_core::{CompiledProgram, Runtime, Tracer};
    use std::time::Duration;

    /// Renders `records` as a Chrome trace-event JSON string.
    fn chrome_trace_to_string(records: &[TraceRecord]) -> String {
        let mut buf = Vec::new();
        write_chrome_trace(records, &mut buf).expect("in-memory write cannot fail");
        String::from_utf8(buf).expect("exporter writes UTF-8")
    }

    /// Records of every variant: a serial run with the stall watchdog at
    /// zero, a rounds run whose two `T`s conflict, a threaded handoff over
    /// four shards, and a spawn carrying every kind of value.
    fn sample_records() -> Vec<TraceRecord> {
        let src = "process P(x) {
                export { <out, *, *, *, *>; }
                -> <out, x, 1.5, \"a \\\"q\\\"\", true>, <secret>;
                <nope> -> skip;
                exists a, b, c, d : <out, a, b, c, d>! -> ;
            }
            process A() { -> abort; }
            process C(me) { import { <go>; } <go> @> skip; }
            process W() { import { <tok, *>; } exists v : <tok, v>! => <got, v>; }
            process T() { exists v : <job, v>! -> <took, v>; }
            init { <go>; <job, 1>; spawn W(); spawn P(-7); spawn A(); spawn C(1); spawn C(2);
                   spawn T(); spawn T(); }";
        let tracer = Tracer::new();
        let serial = || {
            let program = CompiledProgram::from_source(src).unwrap();
            Runtime::builder(program).tracer(tracer.clone())
        };
        let stalls = serial().stall_threshold(Duration::ZERO);
        stalls.build().unwrap().run().unwrap();
        serial().build().unwrap().run_rounds().unwrap();
        let handoff = CompiledProgram::from_source(
            "process W() { exists v : <tok, v>! => <got, v>; }
             process P() { -> <tok, 1>; }
             init { spawn W(); spawn P(); }",
        );
        let threaded = ParallelRuntime::builder(handoff.unwrap())
            .threads(2)
            .shards(4);
        threaded
            .tracer(tracer.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        let id = TupleId {
            owner: ProcId(7),
            seq: 9,
        };
        let mut records = tracer.take();
        records.push(TraceRecord::Spawn {
            step: 1,
            t_us: 2,
            pid: ProcId(8),
            name: "W\"x".to_owned(),
            args: vec![
                Value::Int(i64::MIN),
                Value::Float(0.1),
                Value::Float(f64::NAN),
                Value::Float(f64::NEG_INFINITY),
                Value::Bool(false),
                Value::atom("job"),
                Value::str("a \"quoted\"\nline"),
                Value::Pid(ProcId(3)),
                Value::Tid(id),
            ],
            by: ProcId::ENV,
        });
        records
    }

    #[test]
    fn export_parses_and_checks_clean() {
        let records = sample_records();
        let kinds: HashSet<_> = records.iter().map(std::mem::discriminant).collect();
        assert_eq!(kinds.len(), 10, "every variant: {records:#?}");
        let doc = json::parse(&chrome_trace_to_string(&records)).unwrap();
        let report = check_chrome(&doc).unwrap();
        assert!(report.wake_flows >= 1, "{report:?}");
        assert!(report.conflict_flows >= 1, "{report:?}");
        assert!(report.stalls >= 1, "{report:?}");
    }

    #[test]
    fn from_chrome_inverts_the_export() {
        let records = sample_records();
        let doc = json::parse(&chrome_trace_to_string(&records)).unwrap();
        assert_eq!(from_chrome(&doc).unwrap(), records);
    }

    #[test]
    fn parks_pair_into_parked_slices_on_the_process_track() {
        let pid = ProcId(9);
        let keys = vec!["job/2".to_owned()];
        let records = [
            TraceRecord::Park {
                step: 0,
                pid,
                t_us: 2,
                consensus: false,
                keys,
            },
            TraceRecord::Unpark {
                pid,
                t_us: 21,
                outcome: ParkOutcome::Woken,
            },
            TraceRecord::Unpark {
                pid,
                t_us: 31,
                outcome: ParkOutcome::Drained,
            },
        ];
        let doc = json::parse(&chrome_trace_to_string(&records)).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let parked: Vec<(u64, u64, u64, u64)> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("parked"))
            .map(|e| {
                let n = |k| e.get(k).and_then(Json::as_u64).unwrap();
                (n("pid"), n("tid"), n("ts"), n("dur"))
            })
            .collect();
        // Woken at 21 after parking at 2; the second unpark has no open
        // park, so it is an empty slice at its own time.
        assert_eq!(parked, [(PID_PARKED, 9, 2, 19), (PID_PARKED, 9, 31, 0)]);
    }

    #[test]
    fn checker_flags_unbalanced_flows() {
        let text = r#"{"traceEvents":[
            {"ph":"X","name":"commit","pid":1,"tid":0,"ts":5,"dur":5},
            {"ph":"s","id":1,"name":"wake","cat":"wake","pid":1,"tid":0,"ts":6}
        ]}"#;
        let doc = json::parse(text).unwrap();
        let errs = check_chrome(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("flow 1")), "{errs:?}");
    }

    #[test]
    fn checker_flags_unanchored_flow_starts() {
        let text = r#"{"traceEvents":[
            {"ph":"X","name":"commit","pid":1,"tid":0,"ts":5,"dur":5},
            {"ph":"s","id":1,"name":"wake","cat":"wake","pid":1,"tid":0,"ts":50},
            {"ph":"f","bp":"e","id":1,"name":"wake","cat":"wake","pid":3,"tid":9,"ts":60}
        ]}"#;
        let doc = json::parse(text).unwrap();
        let errs = check_chrome(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not anchored")), "{errs:?}");
    }
}
