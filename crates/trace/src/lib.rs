//! # sdl-trace — visualization and analysis of SDL executions
//!
//! The paper's motivation includes program *visualization*: "there is no
//! other way for humans to assimilate voluminous information about the
//! continuously changing program state", and the shared dataspace is
//! "the only paradigm … which elegantly accommodates programmer-defined
//! visualization". This crate is that substrate: every view is a function
//! over the one [`TraceRecord`](sdl_core::TraceRecord) stream a
//! [`Tracer`](sdl_core::Tracer) collects:
//!
//! * the event view: JSON Lines ([`events`]) and an ASCII [`timeline`],
//! * per-process statistics ([`Stats`]),
//! * dataspace growth curves ([`growth`]),
//! * the process-interaction graph in DOT ([`dot::interactions`]),
//! * causal transaction traces: Chrome/Perfetto export ([`perfetto`])
//!   and per-phase latency / critical-path analysis ([`analysis`]).
//!
//! Besides, [`render_dataspace`] renders a grouped dataspace snapshot.
//!
//! ```
//! use sdl_core::{CompiledProgram, Runtime, Tracer};
//!
//! let program = CompiledProgram::from_source(
//!     "process P() { exists v : <x, v>! -> <y, v>; } init { <x, 1>; spawn P(); }",
//! ).unwrap();
//! let tracer = Tracer::new();
//! let mut rt = Runtime::builder(program).tracer(tracer.clone()).build().unwrap();
//! rt.run().unwrap();
//! let stats = sdl_trace::Stats::from_records(&tracer.take());
//! assert!(stats.to_string().contains("total: 1 commits"));
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod dot;
pub mod events;
mod growth;
pub mod json;
pub mod perfetto;
mod render;
pub mod schedule;
mod stats;
pub mod timeline;

pub use growth::{growth, render_growth};
pub use render::render_dataspace;
pub use stats::Stats;
