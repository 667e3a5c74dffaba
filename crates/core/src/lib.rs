//! TAHOMA core: physical-representation-based predicate optimization.
//!
//! This crate implements the paper's contribution end to end:
//!
//! 1. **Decision thresholds** ([`thresholds`], §V-C): per model, a grid
//!    search on the config split finds `(p_low, p_high)` meeting a target
//!    precision while maximizing recall. Thresholds are calibrated
//!    *independently of any cascade* — the design choice that makes
//!    million-cascade evaluation tractable (§V-D).
//! 2. **Cascade construction** ([`builder`]): one- and two-level cascades
//!    over the model pool plus ResNet50-terminated variants — ~1.3 M
//!    cascades per predicate at paper scale — and deeper sweeps for the
//!    depth study (§VII-F).
//! 3. **Cascade evaluation** ([`evaluator`], §V-D/E): every model's
//!    precomputed eval-split outputs are reduced to per-(model, setting)
//!    decision tables; simulating a cascade is then a table walk. Accuracy
//!    and stop-level histograms are *scenario-independent*; deployment
//!    scenarios re-price the same outcomes cheaply.
//! 4. **Pareto frontiers and ALC** ([`pareto`], [`mod@alc`], §V-E, §VII-A):
//!    Kung-Luccio-Preparata maxima in O(n log n), step-function
//!    area-to-left-of-curve for frontier-vs-frontier speedups.
//! 5. **Cascade selection** ([`selector`]): the user's accuracy/throughput
//!    constraints (`U_acc`, `U_thru`), ResNet-matching selection, and the
//!    scenario-oblivious-vs-aware comparison behind Table III.
//! 6. **Query vocabulary** ([`query`], §IV): the corpus, a SQL-subset
//!    parser that decomposes queries into metadata predicates plus binary
//!    `contains_object` predicates, the binary-predicate relation types,
//!    and [`query::walk_cascade_item`], the item-at-a-time cascade walk
//!    the executor is tested against.
//! 7. **Execution** ([`exec`]): one query executor — the conjunction walk
//!    ([`exec::run_conjunction`] — metadata filter, then each predicate's
//!    cascade over the shrinking survivor pack, in query order for
//!    [`VectorizedExecutor::execute`]) that every query path calls, the
//!    level-major cascade driver with survivor compaction under it, and the
//!    fallible batch scoring backends (hoisted surrogate streams; real CNN
//!    inference over the representation store) — plus
//!    [`VectorizedExecutor::run_cascade_reference`], the item-at-a-time
//!    oracle over [`query::walk_cascade_item`].
//! 8. **Continuous queries** ([`continuous`]): standing queries over live
//!    streams — sliding count windows (RANGE/STEP), tick-driven; the
//!    window decides which items enter and expire, the conjunction walk
//!    scores only the entrants, and per-tick result deltas are exactly
//!    equal to from-scratch window re-evaluation because cascade
//!    decisions are deterministic per (model, item).
//!
//! [`pipeline::TahomaSystem`] ties the stages together behind the
//! architecture in the paper's Fig. 2.

pub mod alc;
pub mod builder;
pub mod cascade;
pub mod continuous;
pub mod error;
pub mod evaluator;
pub mod exec;
pub mod order;
pub mod pareto;
pub mod pipeline;
pub mod planner;
pub mod query;
pub mod selector;
pub mod thresholds;

pub use alc::{alc, average_throughput, shared_accuracy_range, speedup};
pub use builder::{build_cascades, BuilderConfig};
pub use cascade::{Cascade, MAX_LEVELS};
pub use continuous::{ContinuousExecutor, TickDeltas, WindowSpec};
pub use error::CoreError;
pub use evaluator::{simulate_all, CascadeOutcomes, CostContext};
pub use exec::{
    run_conjunction, BatchScorer, Conjunction, InferDispatch, InputRows, NnSessionScratch,
    SharedModelZoo, SharedNnScorer, SurrogateBatchScorer, VectorizedExecutor,
};
pub use order::{nan_last, nan_lowest};
pub use pareto::{pareto_frontier, ParetoPoint};
pub use pipeline::{Frontier, TahomaSystem};
pub use selector::{
    select_fastest, select_matching_accuracy, select_with_constraints, Constraints,
};
pub use thresholds::{
    calibrate, calibrate_all, DecisionThresholds, ThresholdTable, PAPER_PRECISION_SETTINGS,
};
