//! Network front-end for `dln-serve`: thousands of mostly-idle
//! navigation sessions on one reactor thread.
//!
//! The paper's organizations are built to be navigated *interactively* —
//! a human sits at the other end of every step, so a real deployment is
//! dominated by connections that are idle between operations. A
//! thread-per-connection front-end would burn a stack per idle user;
//! this crate instead multiplexes every connection over one OS readiness
//! queue:
//!
//! * [`poller`] — epoll (Linux) / kqueue (BSD) via direct FFI, std-only,
//!   same vendoring posture as `dln-rand`/`dln-rayon`; level-triggered,
//!   with a self-pipe [`Waker`](poller::Waker) for cross-thread wakeups.
//! * [`wire`] — the length-prefixed binary protocol: versioned magic,
//!   u32 length cap, FNV-1a frame checksum, and a bit-exact payload
//!   codec for the typed [`ApiRequest`](dln_serve::ApiRequest) /
//!   [`ApiResponse`](dln_serve::ApiResponse) enums (floats travel as
//!   IEEE-754 bits, so remote responses are `to_bits`-identical to local
//!   ones).
//! * [`conn`] — the per-connection state machine (idle → writing →
//!   idle), with buffer caps so a hostile peer can cost at most one frame
//!   of memory.
//! * [`server`] — [`NetServer`]: one reactor thread that runs
//!   [`NavService::dispatch`](dln_serve::NavService::dispatch) inline,
//!   accept-time shedding that composes with the admission gate, an
//!   idle-TTL sweep on the injected clock, a per-session exactly-once
//!   response cache, and graceful shutdown that finalizes sessions into
//!   the navigation log.
//! * [`client`] — the blocking [`Client`] mirror of the service surface,
//!   with reconnect-and-resend recovery and
//!   [`RetryPolicy`](dln_serve::RetryPolicy) compatibility.
//!
//! Chaos coverage lives behind four failpoints — `net.accept_fail`,
//! `net.read_torn`, `net.write_partial`, `net.conn_drop` — exercised by
//! the `net_chaos` test binary and the CI matrix.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod conn;
pub mod poller;
pub mod server;
pub mod wire;

pub use client::Client;
pub use server::{NetConfig, NetServer, NetStats};
