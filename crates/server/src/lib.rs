//! `sdl-server`: a networked front-end for the shared dataspace.
//!
//! The paper's dataspace is a coordination substrate for large-scale
//! concurrency; this crate puts it on a wire. [`serve`] runs N
//! event-loop worker threads (`ServerConfig::loops`), each owning a
//! share of the connections via non-blocking sockets (epoll on Linux,
//! `poll(2)` elsewhere — see `poll`), decoding the length-prefixed
//! `SDLNET01` protocol ([`wire`]), and mapping client operations onto
//! one shared sharded store through the batching, park/wake
//! [`engine`]. An acceptor thread places each connection on the
//! least-loaded loop, which runs its handshake; cross-loop wakes travel
//! through per-loop mailboxes and eventfd kicks ([`shared`], `wakefd`):
//!
//! | wire op | dataspace semantics                                   |
//! |---------|-------------------------------------------------------|
//! | `out`   | assert (batched into one `apply_batch` per pass)      |
//! | `in`    | blocking take (parks on value-level watch keys)       |
//! | `rd`    | blocking read                                         |
//! | `inp`   | non-blocking take                                     |
//! | `rdp`   | non-blocking read                                     |
//! | `txn`   | full SDL transaction (immediate `->` or delayed `=>`) |
//!
//! [`Client`] is the matching blocking/pipelined client, and
//! [`run_load`] is the load generator behind `sdl-bench-load`.

mod client;
mod conn;
pub mod engine;
mod load;
mod poll;
mod server;
pub mod shared;
mod wakefd;
pub mod wire;

pub use client::Client;
#[doc(hidden)]
pub use conn::WriteBuf;
pub use engine::Engine;
pub use load::{run_load, LoadConfig};
pub use server::{serve, Server, ServerConfig};
pub use shared::NetShared;
pub use wire::{Request, Response};
