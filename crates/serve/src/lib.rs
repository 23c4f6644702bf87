//! `scfi-serve` — campaign-as-a-service over HTTP.
//!
//! Layer 6 of the workspace: a std-only HTTP/1.1 job server (no async
//! runtime, no HTTP crate — the workspace is dependency-free) exposing
//! the fault-campaign and certification engines as a JSON API:
//!
//! ```text
//! POST   /v1/jobs             submit analyze/certify (FSM DSL + knobs)
//! GET    /v1/jobs/{id}        status + live progress
//! GET    /v1/jobs/{id}/result result document once finished
//! DELETE /v1/jobs/{id}        cooperative cancellation
//! GET    /v1/healthz          liveness, queue depth, cache counters
//! ```
//!
//! The crate is also the one job core for the CLI: [`jobs`] runs every
//! analyze and certify job, served or not. A [`JobSpec`] is prepared
//! into a [`Prepared`] model ([`Prepared::new`] is the only preparation
//! path), [`jobs::execute`] returns the typed [`jobs::JobResult`], and a
//! rendering step turns it into bytes — [`jobs::run_job`] with the
//! [`wire`] writers for the server, text or the same writers for
//! `scfi analyze`/`scfi certify`. The serving layer therefore adds *no*
//! semantics of its own: a served result is byte-identical to the CLI
//! output for the same experiment, and the compiled-model cache in
//! [`cache`] is a pure memoization of deterministic preparation — the
//! determinism conformance suite pins both properties, cache-hit path
//! included.
//!
//! ```no_run
//! use scfi_serve::{Server, ServerOptions};
//!
//! let server = Server::bind("127.0.0.1:8080", ServerOptions::default())?;
//! println!("listening on {}", server.local_addr());
//! server.join();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod jobs;
pub mod json;
pub mod server;
pub mod wire;

pub use cache::{CompileCache, ConfigKind, Prepared, PreparedModel};
pub use jobs::{ApiError, JobKind, JobOutcome, JobSpec, WALK_SEED};
pub use server::{Server, ServerOptions};
