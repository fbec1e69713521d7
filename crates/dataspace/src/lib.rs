//! # sdl-dataspace — the content-addressable tuple store
//!
//! This crate implements the *dataspace* of SDL (Roman, Cunningham &
//! Ehlers, ICDCS 1988): "a finite but large multiset of tuples", examined
//! and modified by atomic transactions. It provides:
//!
//! * [`Dataspace`] — the multiset store with tuple-instance identity,
//!   ownership and a two-posting index (head, slot 1);
//! * [`solve`] — the conjunctive query solver used by
//!   transactions: existential/universal quantification, per-atom
//!   retraction tags, negation, and an arbitrary test predicate over
//!   bindings;
//! * `plan` — selectivity-driven query planning: join ordering from
//!   index-cardinality estimates, early negation scheduling, and drift
//!   detection for plan caching;
//! * [`WatchKey`] — conservative change-notification keys used to wake
//!   blocked *delayed* and *consensus* transactions;
//! * [`ShardedDataspace`] — the store partitioned by `(functor, arity)`
//!   into independently locked shards, so the threaded executor commits
//!   disjoint-relation transactions concurrently.
//!
//! ## Example
//!
//! ```
//! use sdl_dataspace::{Dataspace, TupleSource};
//! use sdl_tuple::{pattern, tuple, ProcId, Value};
//!
//! let mut d = Dataspace::new();
//! d.assert_tuple(ProcId::ENV, tuple![Value::atom("year"), 87]);
//! d.assert_tuple(ProcId::ENV, tuple![Value::atom("year"), 90]);
//! assert_eq!(d.len(), 2);
//! assert!(d.contains_match(&pattern![Value::atom("year"), any]));
//! ```

#![warn(missing_docs)]

mod index;
mod plan;
mod shard;
pub mod solve;
mod store;
mod watch;

pub use plan::{estimate_positives, estimates_drifted, plan_query, QueryPlan};
pub use shard::{
    shard_of_pattern, shard_of_tuple, shard_of_watch_key, shards_of_watch_key, ShardSet,
    ShardWriteView, ShardedDataspace, MAX_SHARDS,
};
pub use solve::{AtomMode, ForallEvidence, QueryAtom, Solution, SolveLimits, Solver};
pub use store::{first_match, Action, BatchOutcome, Dataspace, TupleSource};
pub use watch::{WatchKey, WatchSet};

#[cfg(test)]
mod proptests;
