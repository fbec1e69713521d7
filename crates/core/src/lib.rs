//! # sdl-core — the SDL runtime
//!
//! The executable semantics of the Shared Dataspace Language (Roman,
//! Cunningham & Ehlers, ICDCS 1988): process society, views and windows,
//! atomic transactions in all three operational modes (immediate `->`,
//! delayed `=>`, consensus `@>`), the selection/repetition/replication
//! control constructs, and consensus-set detection over import overlap.
//!
//! Executors sharing one compiled program and one process interpreter:
//!
//! * [`Runtime::run`] — the serial reference scheduler (seeded,
//!   deterministic, trivially serialisable);
//! * [`Runtime::run_rounds`] — the maximal-parallel-rounds scheduler,
//!   which measures *logical parallel time* (snapshot evaluation,
//!   validated commits, end-of-round consensus barriers);
//! * [`parallel::ParallelRuntime`] — a multithreaded optimistic executor
//!   for wall-clock scaling on real cores (consensus/replication-free
//!   fragment).
//!
//! ## Quick start
//!
//! ```
//! use sdl_core::{CompiledProgram, Runtime};
//!
//! // The paper's §3.1 Sum3: one replication sums the whole array.
//! let program = CompiledProgram::from_source(r#"
//!     process Sum3() {
//!         par {
//!             exists n, a, m, b : <n, a>!, <m, b>! : n != m -> <m, a + b>
//!         }
//!     }
//!     init { <1, 10>; <2, 20>; <3, 12>; spawn Sum3(); }
//! "#).unwrap();
//! let mut rt = Runtime::builder(program).seed(42).build().unwrap();
//! rt.run().unwrap();
//! // One tuple remains, carrying the total 42.
//! assert_eq!(rt.dataspace().len(), 1);
//! let (_, t) = rt.dataspace().iter().next().unwrap();
//! assert_eq!(t[1], sdl_tuple::Value::Int(42));
//! ```

#![warn(missing_docs)]

mod builder;
mod builtins;
pub mod commit;
pub mod consensus;
mod error;
mod interp;
mod outcome;
pub mod parallel;
mod process;
pub mod program;
mod rounds;
mod sched;
mod trace;
pub mod txn;
mod view;

pub use builder::RuntimeBuilder;
pub use builtins::Builtins;
use outcome::RunReport;
pub use outcome::{Outcome, RunLimits};
pub use process::ProcessInstance;
pub use program::CompiledProgram;
pub use sched::Runtime;
pub use trace::{ParkOutcome, SpanPhase, TraceRecord, Tracer, Track};

#[cfg(test)]
mod tests;
#[cfg(test)]
mod view_proptests;
