//! Concurrent, fault-tolerant serving of navigation organizations.
//!
//! The paper builds organizations offline; this crate is what stands
//! between that artifact and many simultaneous navigating users. Its
//! design center is *robustness under the three things that go wrong in
//! production*:
//!
//! 1. **The organization changes under you.** Re-optimization publishes a
//!    new organization while sessions are mid-walk. [`SnapshotStore`]
//!    hot-swaps whole immutable [`OrgSnapshot`]s under an epoch counter;
//!    sessions either pin their epoch, migrate by path replay
//!    ([`replay_path`], tag-set identity), or get a typed
//!    [`ServeError::Stale`] — never a torn read.
//! 2. **Load exceeds capacity.** The [`AdmissionGate`] bounds concurrency
//!    and queue depth, shedding excess with typed
//!    [`ServeError::Overloaded`] + retry-after; [`RetryPolicy`] is the
//!    client half. Requests that *are* admitted but blow their deadline
//!    degrade gracefully ([`StepResponse::degraded`]) instead of erroring.
//! 3. **State gets lost.** The bounded [`SessionRegistry`] TTL-evicts idle
//!    sessions deterministically (injected [`Clock`]); `dln-fault` failpoints
//!    (`serve.slow`, `serve.drop_session`, `serve.swap_race`) inject the
//!    failures the chaos suite asserts recovery from.
//!
//! Entry point: [`NavService`].

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod api;
pub mod clock;
pub mod error;
pub mod gate;
pub mod registry;
pub mod retry;
pub mod service;
pub mod snapshot;

pub use api::{ApiRequest, ApiResponse, WireError};
pub use clock::{Clock, ManualClock, WallClock};
pub use error::{ServeError, ServeResult};
pub use gate::{AdmissionGate, Permit};
pub use registry::{Session, SessionId, SessionRegistry};
pub use retry::RetryPolicy;
pub use service::{
    tables_at, ChildView, MaintReport, NavService, ServeConfig, ServeStats, StepAction,
    StepRequest, StepResponse, SwapOutcome, SwapPolicy,
};
pub use snapshot::{replay_path, OrgSnapshot, PublishScope, SnapshotStore};
