//! The transport-independent request/response surface of [`NavService`].
//!
//! The service's native API is a set of typed methods (`open_session`,
//! `step`, `close_session`, …) returning typed errors. A network front-end
//! needs the same surface as *data*: one request enum, one response enum,
//! and a single [`NavService::dispatch`] entry point that maps between
//! them. Keeping the enums here (not in the wire crate) means any
//! transport — the epoll front-end in `dln-net`, a future shared-memory
//! ring, a test harness — serializes exactly the same types the library
//! serves, which is what makes "wire sessions are bit-identical to
//! library sessions" a checkable property instead of a hope.
//!
//! [`WireError`] flattens [`ServeError`] into an owned, comparable,
//! transport-friendly form (the native error holds a non-`Clone`
//! [`std::io::Error`] inside its `Nav` variant). The mapping is lossless
//! for every field a client acts on — retry hints, epochs, session ids,
//! the injected-fault marker — and keeps the navigation error's message.

use dln_org::StateId;

use crate::error::ServeError;
use crate::registry::SessionId;
use crate::service::{NavService, StepRequest, StepResponse};

/// One request against a [`NavService`], as data. What the network
/// front-end deserializes a frame into.
#[derive(Debug, Clone)]
pub enum ApiRequest {
    /// Liveness probe; answered with [`ApiResponse::Pong`] without
    /// touching the gate or the registry.
    Ping,
    /// Open a session with the given deterministic fault key (see
    /// [`NavService::open_session_keyed`]).
    Open {
        /// Caller-supplied key for per-session failpoint draws.
        fault_key: u64,
    },
    /// One navigation step on an open session.
    Step {
        /// The session to step.
        session: SessionId,
        /// The navigation request.
        req: StepRequest,
    },
    /// The session's current root-anchored path.
    Path {
        /// The session to inspect.
        session: SessionId,
    },
    /// Close a session.
    Close {
        /// The session to close.
        session: SessionId,
    },
}

/// The response to one [`ApiRequest`]. Every refusal is a typed
/// [`WireError`]; transport-level failures never appear here.
#[derive(Debug, Clone)]
pub enum ApiResponse {
    /// Answer to [`ApiRequest::Ping`].
    Pong,
    /// The session opened by [`ApiRequest::Open`].
    Opened {
        /// The fresh session's handle.
        session: SessionId,
    },
    /// The view after a successful [`ApiRequest::Step`].
    Step(StepResponse),
    /// Answer to [`ApiRequest::Path`].
    Path {
        /// The inspected session.
        session: SessionId,
        /// Its root-anchored path.
        path: Vec<StateId>,
    },
    /// Acknowledges [`ApiRequest::Close`].
    Closed {
        /// The closed session.
        session: SessionId,
    },
    /// A typed refusal (see [`WireError`]).
    Error(WireError),
}

/// [`ServeError`] flattened into an owned, `Clone + PartialEq`,
/// transport-friendly form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Admission control shed the request; retry after the hint.
    Overloaded {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The session registry is at capacity.
    SessionLimit {
        /// The registry's configured capacity.
        capacity: u64,
    },
    /// No session with this id exists.
    SessionNotFound {
        /// The offending id.
        session: SessionId,
    },
    /// The session existed but is gone (TTL or injected fault).
    SessionExpired {
        /// The offending id.
        session: SessionId,
        /// True when a failpoint dropped the session.
        injected: bool,
    },
    /// The session's epoch is behind the published one under
    /// [`SwapPolicy::Reject`](crate::service::SwapPolicy::Reject).
    Stale {
        /// Epoch the session was navigating.
        session_epoch: u64,
        /// Epoch currently published.
        current_epoch: u64,
    },
    /// A navigation-level failure, carried as its display message.
    Nav {
        /// The underlying error's message.
        message: String,
    },
}

impl From<&ServeError> for WireError {
    fn from(e: &ServeError) -> WireError {
        match e {
            ServeError::Overloaded { retry_after_ms } => WireError::Overloaded {
                retry_after_ms: *retry_after_ms,
            },
            ServeError::SessionLimit { capacity } => WireError::SessionLimit {
                capacity: *capacity as u64,
            },
            ServeError::SessionNotFound { session } => {
                WireError::SessionNotFound { session: *session }
            }
            ServeError::SessionExpired { session, injected } => WireError::SessionExpired {
                session: *session,
                injected: *injected,
            },
            ServeError::Stale {
                session_epoch,
                current_epoch,
            } => WireError::Stale {
                session_epoch: *session_epoch,
                current_epoch: *current_epoch,
            },
            ServeError::Nav(inner) => WireError::Nav {
                message: inner.to_string(),
            },
        }
    }
}

impl From<WireError> for ServeError {
    /// Rehydrate the client-side [`ServeError`] a caller (and
    /// [`RetryPolicy`](crate::retry::RetryPolicy)) can act on. The `Nav`
    /// variant comes back as an invalid-navigation error carrying the
    /// original message.
    fn from(e: WireError) -> ServeError {
        match e {
            WireError::Overloaded { retry_after_ms } => ServeError::Overloaded { retry_after_ms },
            WireError::SessionLimit { capacity } => ServeError::SessionLimit {
                capacity: capacity as usize,
            },
            WireError::SessionNotFound { session } => ServeError::SessionNotFound { session },
            WireError::SessionExpired { session, injected } => {
                ServeError::SessionExpired { session, injected }
            }
            WireError::Stale {
                session_epoch,
                current_epoch,
            } => ServeError::Stale {
                session_epoch,
                current_epoch,
            },
            WireError::Nav { message } => {
                // The wire message came from the native error's Display,
                // which prefixes "invalid navigation: " — strip it before
                // re-wrapping so repeated wire↔native hops are idempotent.
                let inner = message
                    .strip_prefix("invalid navigation: ")
                    .map(str::to_string)
                    .unwrap_or(message);
                ServeError::Nav(dln_fault::DlnError::invalid_navigation(inner))
            }
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Render through the native error so clients see one vocabulary.
        write!(f, "{}", ServeError::from(self.clone()))
    }
}

impl NavService {
    /// Serve one [`ApiRequest`]. This is the *only* entry point a
    /// transport needs: every typed method outcome, success or refusal,
    /// comes back as an [`ApiResponse`] — so a remote walk through a
    /// serializer and this method is step-for-step identical to a local
    /// walk through the typed methods themselves.
    pub fn dispatch(&self, req: &ApiRequest) -> ApiResponse {
        match req {
            ApiRequest::Ping => ApiResponse::Pong,
            ApiRequest::Open { fault_key } => match self.open_session_keyed(*fault_key) {
                Ok(session) => ApiResponse::Opened { session },
                Err(e) => ApiResponse::Error(WireError::from(&e)),
            },
            ApiRequest::Step { session, req } => match self.step(*session, req) {
                Ok(resp) => ApiResponse::Step(resp),
                Err(e) => ApiResponse::Error(WireError::from(&e)),
            },
            ApiRequest::Path { session } => match self.session_path(*session) {
                Ok(path) => ApiResponse::Path {
                    session: *session,
                    path,
                },
                Err(e) => ApiResponse::Error(WireError::from(&e)),
            },
            ApiRequest::Close { session } => match self.close_session(*session) {
                Ok(()) => ApiResponse::Closed { session: *session },
                Err(e) => ApiResponse::Error(WireError::from(&e)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServeConfig, StepAction};
    use dln_org::eval::NavConfig;
    use dln_org::{clustering_org, OrgContext};
    use dln_synth::TagCloudConfig;

    fn service() -> NavService {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        NavService::new(ctx, org, NavConfig::default(), ServeConfig::default())
    }

    #[test]
    fn dispatch_round_trip_matches_typed_methods() {
        let svc = service();
        assert!(matches!(svc.dispatch(&ApiRequest::Ping), ApiResponse::Pong));
        let ApiResponse::Opened { session } = svc.dispatch(&ApiRequest::Open { fault_key: 7 })
        else {
            panic!("open refused on a fresh service");
        };
        let ApiResponse::Step(view) = svc.dispatch(&ApiRequest::Step {
            session,
            req: StepRequest::action(StepAction::Stay),
        }) else {
            panic!("step refused");
        };
        assert_eq!(view.session, session);
        assert_eq!(view.depth, 0);
        let ApiResponse::Path { path, .. } = svc.dispatch(&ApiRequest::Path { session }) else {
            panic!("path refused");
        };
        assert_eq!(path.len(), 1);
        assert!(matches!(
            svc.dispatch(&ApiRequest::Close { session }),
            ApiResponse::Closed { .. }
        ));
        // A closed session refuses with the same typed error the method
        // returns.
        match svc.dispatch(&ApiRequest::Path { session }) {
            ApiResponse::Error(WireError::SessionNotFound { session: s }) => {
                assert_eq!(s, session)
            }
            other => panic!("expected SessionNotFound, got {other:?}"),
        }
    }

    #[test]
    fn wire_error_round_trips_every_variant() {
        let sid = SessionId(9);
        let natives = [
            ServeError::Overloaded { retry_after_ms: 40 },
            ServeError::SessionLimit { capacity: 8 },
            ServeError::SessionNotFound { session: sid },
            ServeError::SessionExpired {
                session: sid,
                injected: true,
            },
            ServeError::Stale {
                session_epoch: 1,
                current_epoch: 2,
            },
            ServeError::Nav(dln_fault::DlnError::invalid_navigation("nope")),
        ];
        for native in natives {
            let wire = WireError::from(&native);
            let back = ServeError::from(wire.clone());
            // The round trip preserves the display message (the `Nav`
            // variant keeps the inner message inside a fresh wrapper).
            match (&native, &back) {
                (ServeError::Nav(_), ServeError::Nav(inner)) => {
                    assert!(inner.to_string().contains("nope"))
                }
                _ => assert_eq!(native.to_string(), back.to_string()),
            }
            assert_eq!(wire, WireError::from(&back));
        }
    }
}
