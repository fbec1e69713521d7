//! Process instances and their control state.

use std::collections::HashMap;
use std::sync::Arc;

use sdl_tuple::{ProcId, Value};

use crate::error::RuntimeError;
use crate::program::{CompiledBranch, CompiledProcess, CompiledProgram, CompiledStmt};

/// One frame of a process's control stack.
#[derive(Clone, Debug)]
pub(crate) enum Frame {
    /// Executing a statement sequence.
    Seq {
        /// The statements.
        stmts: Arc<[CompiledStmt]>,
        /// Next statement index.
        idx: usize,
    },
    /// Inside a repetition: re-enter the selection after each branch.
    Loop {
        /// The guarded sequences.
        branches: Arc<[CompiledBranch]>,
    },
    /// Inside a replication: arm guards, spawn body helpers, terminate
    /// when no guard can fire and all helpers finished.
    Repl {
        /// The guarded sequences.
        branches: Arc<[CompiledBranch]>,
        /// Outstanding body-helper processes.
        active: usize,
    },
}

/// A live process: compiled definition + environment + control stack.
#[derive(Clone, Debug)]
pub struct ProcessInstance {
    /// Society-unique id.
    pub id: ProcId,
    /// The shared compiled definition.
    pub def: Arc<CompiledProcess>,
    /// Process constants: parameters and `let` bindings.
    pub env: HashMap<String, Value>,
    /// Control stack (private to the runtime).
    pub(crate) frames: Vec<Frame>,
    /// For replication body helpers: the process whose `Repl` frame is
    /// waiting on this helper.
    pub(crate) parent: Option<ProcId>,
    /// Set when a wakeup moved this process from blocked to ready, and
    /// cleared when `interp::settle_wake` classifies the wake.
    pub(crate) woken: bool,
}

impl ProcessInstance {
    /// Instantiates `def` with `args` bound to its parameters.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != def.params.len()` — arities are checked
    /// at compile time and at spawn.
    pub fn new(id: ProcId, def: Arc<CompiledProcess>, args: Vec<Value>) -> ProcessInstance {
        assert_eq!(
            args.len(),
            def.params.len(),
            "arity checked before instantiation"
        );
        let env = def
            .params
            .iter()
            .cloned()
            .zip(args)
            .collect::<HashMap<_, _>>();
        let body = def.body.clone();
        ProcessInstance {
            id,
            def,
            env,
            frames: vec![Frame::Seq {
                stmts: body,
                idx: 0,
            }],
            parent: None,
            woken: false,
        }
    }

    /// Instantiates the definition `program` calls `name`, checking that
    /// it exists and takes `args.len()` arguments.
    pub(crate) fn spawn(
        program: &CompiledProgram,
        id: ProcId,
        name: &str,
        args: Vec<Value>,
    ) -> Result<ProcessInstance, RuntimeError> {
        let def = program
            .def(name)
            .ok_or_else(|| RuntimeError::UnknownProcess(name.to_owned()))?;
        if def.params.len() != args.len() {
            return Err(RuntimeError::SpawnArity {
                process: name.to_owned(),
                expected: def.params.len(),
                found: args.len(),
            });
        }
        Ok(ProcessInstance::new(id, def.clone(), args))
    }

    /// A replication body helper: runs `body` with `env`, sharing the
    /// parent's view, and notifies `parent` when done.
    pub(crate) fn body_helper(
        id: ProcId,
        parent: &ProcessInstance,
        body: Arc<[CompiledStmt]>,
        env: HashMap<String, Value>,
    ) -> ProcessInstance {
        ProcessInstance {
            id,
            def: parent.def.clone(),
            env,
            frames: vec![Frame::Seq {
                stmts: body,
                idx: 0,
            }],
            parent: Some(parent.id),
            woken: false,
        }
    }

    /// Applies the `exit` action: unwinds to (and including) the nearest
    /// repetition/replication frame. Returns the frames that were
    /// popped **below** an exited `Repl` frame's helpers bookkeeping —
    /// specifically, `Some(active)` if a `Repl` frame was exited with
    /// helpers still outstanding, so the runtime can cancel them.
    /// Returns `None` if no loop frame was found (the whole behaviour
    /// terminates).
    pub(crate) fn unwind_exit(&mut self) -> Option<usize> {
        while let Some(frame) = self.frames.pop() {
            match frame {
                Frame::Loop { .. } => return Some(0),
                Frame::Repl { active, .. } => return Some(active),
                Frame::Seq { .. } => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::CompiledProgram;

    fn proc_def(src: &str, name: &str) -> Arc<CompiledProcess> {
        let prog = sdl_lang::parse_program(src).unwrap();
        let c = CompiledProgram::compile(&prog).unwrap();
        c.def(name).unwrap().clone()
    }

    #[test]
    fn instantiation_binds_params() {
        let def = proc_def("process P(k, j) { -> skip; }", "P");
        let p = ProcessInstance::new(ProcId(1), def, vec![Value::Int(4), Value::Int(1)]);
        assert_eq!(p.env["k"], Value::Int(4));
        assert_eq!(p.env["j"], Value::Int(1));
        assert!(!p.frames.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let def = proc_def("process P(k) { -> skip; }", "P");
        let _ = ProcessInstance::new(ProcId(1), def, vec![]);
    }

    #[test]
    fn exit_unwinds_to_loop() {
        let def = proc_def("process P() { loop { -> exit } -> skip; }", "P");
        let mut p = ProcessInstance::new(ProcId(1), def.clone(), vec![]);
        // Simulate: inside the loop with a body sequence on top.
        p.frames.push(Frame::Loop {
            branches: match &def.body[0] {
                CompiledStmt::Repeat(b) => b.clone(),
                other => panic!("expected repeat, got {other:?}"),
            },
        });
        p.frames.push(Frame::Seq {
            stmts: Arc::from(Vec::new()),
            idx: 0,
        });
        assert_eq!(p.unwind_exit(), Some(0));
        assert_eq!(p.frames.len(), 1, "outer Seq remains");
    }

    #[test]
    fn exit_without_loop_terminates() {
        let def = proc_def("process P() { -> skip; }", "P");
        let mut p = ProcessInstance::new(ProcId(1), def, vec![]);
        assert_eq!(p.unwind_exit(), None);
        assert!(p.frames.is_empty(), "terminated");
    }

    #[test]
    fn body_helper_shares_view_and_notifies_parent() {
        let def = proc_def("process P(k) { par { -> skip } }", "P");
        let parent = ProcessInstance::new(ProcId(1), def, vec![Value::Int(5)]);
        let helper = ProcessInstance::body_helper(
            ProcId(2),
            &parent,
            Arc::from(Vec::new()),
            parent.env.clone(),
        );
        assert_eq!(helper.parent, Some(ProcId(1)));
        assert_eq!(helper.env["k"], Value::Int(5));
        assert_eq!(helper.def.name, "P");
    }
}
