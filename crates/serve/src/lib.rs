//! Simulation-as-a-service for the phased-logic flow: the `pld`
//! daemon (ROADMAP item 1).
//!
//! Every `plc` invocation compiles its design from scratch; a
//! long-lived server should compile once and answer many sessions from
//! the warm artifact. This crate is that server, as a library:
//!
//! * [`wire`] — hand-rolled length-prefixed framing over TCP, in the
//!   style of `pl_sim::checkpoint::wire`: magic, kind byte, bounded
//!   length, payload CRC32. Every malformed-frame class is rejected
//!   typed — never a panic, never a hang (per-connection read
//!   timeouts), never an attacker-sized allocation.
//! * [`proto`] — the request/response model. Requests carry the same
//!   options as the `plc` command line ([`RequestOptions`] expands to
//!   `FlowOptions` with identical wiring, then goes through
//!   `FlowOptions::validate` server-side); responses carry the
//!   deterministic digest lines.
//! * [`cache`] — an LRU of warm [`pl_flow::EcoSession`]s keyed by
//!   source digest × compile key (the five options a compile reads),
//!   shared across sessions behind `Arc`s.
//! * [`server`] — thread-per-connection [`PldServer`]; a request with
//!   the entry's own options is answered from the entry, any other hit
//!   runs a **per-session sweep** under its own options over the shared
//!   compiled artifact; ECO requests clone the warm session, re-target
//!   it to their options and apply edits as incremental recompiles
//!   (edits hit warm compile state, never a from-scratch rebuild).
//! * [`client`] — the blocking client used by `plc client`.
//! * [`digest`] — the digest-line formatting shared with `plc`, so
//!   "server response ≡ in-process run" is checkable with `diff`.
//!
//! # Determinism contract
//!
//! A response is a pure function of (design, options, edits): it must
//! be bit-identical to an in-process run with the same options — under
//! concurrent sessions, cache eviction and churn, and re-compiles
//! after eviction. `tests/serve_equivalence.rs` pins all of this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod digest;
mod error;
pub mod proto;
pub mod server;
pub mod wire;

pub use client::Client;
pub use digest::{outputs_digest, render_digest_block};
pub use error::ServeError;
pub use proto::{
    DesignSpec, DigestTriple, EcoEditResult, Request, RequestOptions, Response, ServerStats,
};
pub use server::{PldServer, ServerConfig};
