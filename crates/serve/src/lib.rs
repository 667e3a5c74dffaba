//! Concurrent query service: a shared-executor front door over the
//! vectorized cascade executor, with plan caching and cross-query batch
//! coalescing.
//!
//! The paper's system is presented as a *database service*: many analysts
//! issue content-based queries against one corpus, and the optimizer's
//! savings (cascades, physical-representation sharing, §IV's cost model)
//! accrue per query. Everything below the service layer in this repo was
//! single-query: one `VectorizedExecutor` run at a time against `&mut`
//! backends. This crate is the multi-tenant front door:
//!
//! * [`service::QueryService`] owns one shared corpus, one shared
//!   [`tahoma_imagery::RepresentationStore`], and one trained model zoo
//!   per served predicate, and executes SQL queries with `&self` — any
//!   number of threads serve queries concurrently against the same
//!   immutable plans and weights, with per-query mutable state checked out
//!   of a scratch pool ([`tahoma_core::exec::NnSessionScratch`]).
//! * [`plan_cache::PlanCache`] memoizes the planning prefix — per-kind
//!   cascade selection over the Pareto frontier plus the cross-predicate
//!   execution order — keyed on (predicate set, accuracy target). A repeat
//!   query skips straight to execution.
//! * [`broker::Broker`] implements cross-query batch coalescing: survivor
//!   packs from concurrent queries that target the same model are merged
//!   into a single batched GEMM inference call. This is §IV's batch
//!   pricing argument applied *across* queries: the cost model already
//!   prices inference per batch (fixed per-call overhead amortized over
//!   `batch_size` items), so two half-full packs cost nearly as much as
//!   one merged pack — merging them buys the second query's inference at
//!   marginal cost. Coalescing never changes results: `tahoma_nn`'s `Dense`
//!   runs the batched GEMM at every batch size, whose per-row reduction
//!   order is independent of how many rows ride in the call, so a row's
//!   score is bitwise identical however packs are merged.
//! * [`server`] exposes the service over TCP with a line protocol
//!   ([`protocol`]), a fixed worker pool, and admission control: a bounded
//!   accept queue that sheds load with `BUSY` instead of queueing without
//!   bound.
//! * [`stream::StreamRegistry`] hosts *standing* continuous queries over
//!   live video streams (`REGISTER`/`TICK`/`DELTAS` on the same wire):
//!   each tick ingests the stream's next frames through the store's
//!   lattice-planned transcode path and slides a RANGE/STEP count window
//!   incrementally ([`tahoma_core::continuous`]), scoring only the
//!   entrants through the same per-kind backends — so standing-query
//!   packs coalesce with ad-hoc traffic in the broker.
//!
//! [`fixture`] builds ready-to-serve services (surrogate-backed and
//! real-NN-backed) shared by the concurrency and work-budget tests, the
//! `tahoma-serve` binary, the judge (`benchmark/`), and the CI smoke jobs.
//!
//! Concurrency invariants in this crate are machine-checked: every
//! `Mutex` field carries a `// LOCK-ORDER: n` rank audited by
//! `tahoma-audit` (lint A6, policy in `SAFETY.md`), and the broker's
//! decision edges carry the seeded schedule points
//! ([`tahoma_faults::perturb`]) its interleaving tests drive.
//!
//! The failure story — per-query deadlines, transient-error retry, the
//! degradation ladder, bounded protocol input, and the seeded
//! fault-injection chaos campaign that proves them — is documented in
//! `RELIABILITY.md`. Every hook (fault site or schedule point) is compiled
//! into every build, armed only by tests, and audited by lint A7.
//!
//! No panics on the serving path: clippy denies `unwrap`, `expect` and the
//! `panic!` family here outside tests (policy in `SAFETY.md`); the one
//! exception form is `#[expect(lint, reason = "…")]` at the site.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod broker;
pub mod fixture;
pub mod plan_cache;
pub mod protocol;
pub mod server;
pub mod service;
pub mod stream;

pub use broker::Broker;
pub use plan_cache::{CachedPlan, PlanCache};
pub use server::{serve, ServerConfig, ServerHandle};
pub use service::{Deadline, ExecPolicy, QueryService, ServeError, ServeOutcome, ServiceStats};
pub use stream::{RegisterReport, StreamRegistry, StreamStatus, TickReport};
