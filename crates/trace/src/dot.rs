//! DOT (Graphviz) export of process structure.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use sdl_core::TraceRecord;
use sdl_tuple::{ProcId, TupleId};

/// Renders the *interaction graph* from a record stream: a directed edge
/// `p -> q` whenever `q` retracted a tuple `p` asserted — the dataflow
/// the paper's decoupled processes actually exhibit.
pub fn interactions(records: &[TraceRecord]) -> String {
    let mut owner: BTreeMap<TupleId, ProcId> = BTreeMap::new();
    let mut edges: BTreeSet<(ProcId, ProcId)> = BTreeSet::new();
    for r in records {
        if let TraceRecord::Commit {
            retracted,
            asserted,
            ..
        } = r
        {
            for (by, id, _) in retracted {
                if let Some(from) = owner.get(id).filter(|from| *from != by) {
                    edges.insert((*from, *by));
                }
            }
            for (by, id, _) in asserted {
                if let Some(id) = id {
                    owner.insert(*id, *by);
                }
            }
        }
    }
    let mut out = String::from("digraph interactions {\n");
    for (from, to) in edges {
        let _ = writeln!(out, "  \"{from}\" -> \"{to}\";");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_core::{CompiledProgram, Runtime, Tracer};

    fn dot(src: &str) -> String {
        let program = CompiledProgram::from_source(src).unwrap();
        let tracer = Tracer::new();
        let mut rt = Runtime::builder(program)
            .tracer(tracer.clone())
            .build()
            .unwrap();
        rt.run().unwrap();
        interactions(&tracer.take())
    }

    #[test]
    fn interactions_show_producer_consumer_edge() {
        let dot = dot("process Producer() { -> <item, 1>; }
             process Consumer() { exists v : <item, v>! => ; }
             init { spawn Producer(); spawn Consumer(); }");
        assert!(dot.contains("->"), "edge expected:\n{dot}");
    }

    #[test]
    fn self_retraction_is_not_an_edge() {
        let dot = dot("process P() { -> <t>; exists v : <t>! -> ; }
             init { spawn P(); }");
        assert!(!dot.contains("->"));
    }
}
