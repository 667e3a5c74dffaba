//! Cross-query batch coalescing: merge survivor packs from concurrent
//! queries into single batched inference calls.
//!
//! The §IV cost model prices inference per *call*: a batched GEMM pass has
//! a fixed setup cost (packing, kernel dispatch, cache warm-up) amortized
//! over its rows, which is why the executor scores whole survivor packs at
//! once instead of items one by one. The same argument holds one level up:
//! when two concurrent queries each bring a half-full pack for the *same
//! model*, running them as one merged call pays the fixed cost once. (What
//! happens *inside* a call is `tahoma_nn`'s business: a call that can
//! give each of two lanes 16 rows runs as morsels of at most
//! [`tahoma_nn::MORSEL_ROWS`] rows spread over the worker pool — on two
//! lanes, a 64-row pack as eight morsels of 8. A smaller call runs as one
//! pass: waking a lane costs a fixed slice of CPU that a few rows do not
//! repay. That adds no calls — `calls` counts zoo calls, `morsel_calls`
//! how many of them fanned out.) The broker implements this with a
//! leader/follower protocol per model:
//!
//! 1. A query submitting rows for model `m` joins the open batch for `m`
//!    (or opens one, becoming its **leader**).
//! 2. The leader waits a short coalescing window for followers to join —
//!    skipped entirely when the service has at most one query in flight,
//!    so an idle server adds zero latency — then seals the batch, runs one
//!    [`SharedModelZoo::infer`] call over the participants' rows, and
//!    publishes the scores.
//! 3. Followers block until the batch completes and slice out their rows'
//!    scores. A batch that reaches [`Broker`]'s row cap seals immediately.
//!
//! Rows arrive as a source that fetches, decodes and standardizes each
//! one on demand ([`InputRows`]). On the idle fast path the broker hands
//! that source straight to the zoo, so the call's lanes produce their own
//! rows and no pixel pack exists. A merged batch needs every
//! participant's rows at once: each participant fills its own slot, once,
//! on its own thread, before it joins (a participant whose rows cannot be
//! produced returns that error and never joins), and the leader scores
//! the slots where they lie. Zoo calls run on the submitting query's own
//! inference scratch — the leader's, for a merged batch.
//!
//! Coalescing is invisible in the results: the shared inference path runs
//! `Dense` as the batched GEMM at every batch size, whose per-row
//! reduction order does not depend on how many rows ride in the call, so
//! every row's score is bitwise identical whether it was scored alone or
//! merged with strangers (asserted by `tests/concurrency.rs`).
//!
//! That same batch-shape invariance powers the broker's failure story:
//! when a leader's merged zoo call dies (a panic inside inference — or an
//! injected leader death, `tahoma_faults::site::BROKER_LEAD`), every
//! participant of the failed batch *re-executes its own rows solo* and
//! gets scores bitwise identical to the merged call it lost
//! (RELIABILITY.md's failover rung). Deterministic panics — an
//! unregistered model — re-raise on the solo retry, so real
//! configuration errors still propagate to every participant.

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};
use tahoma_core::exec::{InferDispatch, InputRows, SharedModelZoo};
use tahoma_core::CoreError;
// Poison-tolerant: broker bookkeeping stays usable after a leader's
// inference panicked (critical sections do not call user code).
use tahoma_mathx::{rank, Ranked};
use tahoma_nn::{InferScratch, RowSource};
use tahoma_zoo::ModelId;

struct BatchState {
    /// Each participant's rows, in join order, filled before it joined.
    slots: Vec<Vec<f32>>,
    sizes: Vec<usize>,
    sealed: bool,
    done: bool,
    failed: bool,
    scores: Vec<f32>,
}

struct Batch {
    // Taken after the broker's open map (the seal and join paths nest
    // map -> state), never before it.
    state: Ranked<BatchState, { rank::BATCH_STATE }>,
    cv: Condvar,
}

impl Batch {
    fn new() -> Batch {
        Batch {
            state: Ranked::new(BatchState {
                slots: Vec::new(),
                sizes: Vec::new(),
                sealed: false,
                done: false,
                failed: false,
                scores: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }
}

/// Participants' slots read as one row source, slot after slot: a merged
/// batch scored where its rows lie.
struct Slots<'a> {
    slots: &'a [Vec<f32>],
    rows: usize,
    row_len: usize,
}

impl RowSource for Slots<'_> {
    type Error = std::convert::Infallible;

    fn rows(&self) -> usize {
        self.rows
    }

    fn row_len(&self) -> usize {
        self.row_len
    }

    fn visit_rows(
        &self,
        range: Range<usize>,
        _buf: &mut [f32],
        visit: &mut dyn FnMut(&[f32]),
    ) -> Result<(), Self::Error> {
        let rows = self.slots.iter().flat_map(|s| s.chunks_exact(self.row_len));
        rows.skip(range.start).take(range.len()).for_each(visit);
        Ok(())
    }
}

/// Counters a [`Broker`] accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// `infer` submissions received.
    pub submits: u64,
    /// Zoo inference calls actually issued.
    pub calls: u64,
    /// Inference calls that merged rows from more than one submission.
    pub merged_calls: u64,
    /// Total rows scored through the broker.
    pub rows: u64,
    /// Failed merged calls whose participants re-executed solo (one count
    /// per recovering participant, not per failed batch).
    pub failovers: u64,
    /// Zoo calls that ran as morsels across the worker pool.
    pub morsel_calls: u64,
}

/// Per-model-zoo coalescing broker. One instance serves one
/// [`SharedModelZoo`] (model ids are zoo-scoped); the service keeps one
/// broker per served predicate.
pub struct Broker {
    zoo: Arc<SharedModelZoo>,
    // The outer lock of the join/seal protocol; batch state is taken
    // while this is held, nothing else is.
    open: Ranked<HashMap<u32, Arc<Batch>>, { rank::BROKER_OPEN }>,
    window: Duration,
    /// Queries in flight that still owe this broker's predicate a cascade
    /// execution (maintained by the service). Leaders skip the coalescing
    /// window when there is nobody to coalesce with and seal early once
    /// every interested query has a pack aboard.
    active: Arc<AtomicUsize>,
    submits: AtomicU64,
    calls: AtomicU64,
    merged_calls: AtomicU64,
    rows: AtomicU64,
    failovers: AtomicU64,
    morsel_calls: AtomicU64,
}

impl Broker {
    /// Default coalescing window. This is a latency *bound*, not a fixed
    /// wait: leaders seal as soon as every interested query has a pack
    /// aboard, so the deadline only fires when a co-interested query is
    /// slow to bring its pack. Sized to the time a burst of queries needs
    /// to materialize their packs back-to-back on a loaded host, and on
    /// the order of one merged inference call.
    pub const DEFAULT_WINDOW: Duration = Duration::from_millis(2);

    /// Cap on merged rows per inference call.
    pub const MAX_ROWS: usize = 1024;

    /// Create a broker over `zoo`. `active` counts the in-flight queries
    /// interested in this broker's predicate.
    pub fn new(zoo: Arc<SharedModelZoo>, active: Arc<AtomicUsize>) -> Broker {
        Broker {
            zoo,
            open: Ranked::new(HashMap::new()),
            window: Broker::DEFAULT_WINDOW,
            active,
            submits: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            merged_calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            morsel_calls: AtomicU64::new(0),
        }
    }

    /// Override the coalescing window (0 disables waiting; packs still
    /// merge when they arrive while a leader holds the batch open).
    pub fn with_window(mut self, window: Duration) -> Broker {
        self.window = window;
        self
    }

    /// Lifetime counters.
    pub fn stats(&self) -> BrokerStats {
        BrokerStats {
            submits: self.submits.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            merged_calls: self.merged_calls.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            morsel_calls: self.morsel_calls.load(Ordering::Relaxed),
        }
    }

    /// One guarded zoo call on `scratch`. `inject` is true on first
    /// executions and false on failover re-executions: an injected death
    /// is transient by definition, so the recovery path must not re-draw
    /// it (a *real* zoo death is deterministic and reproduces on the retry
    /// regardless).
    fn run_zoo<S: RowSource + ?Sized>(
        &self,
        model: ModelId,
        rows: &S,
        scratch: &mut InferScratch,
        inject: bool,
    ) -> std::thread::Result<Result<Vec<f32>, S::Error>> {
        let morsels_before = scratch.morsel_calls();
        let result = catch_unwind(AssertUnwindSafe(|| {
            #[expect(
                clippy::disallowed_methods,
                reason = "FAULT: the inference call dies, a panic inside the guarded call indistinguishable from a real zoo death; callers recover through the solo-failover rung"
            )]
            let dies = inject && tahoma_faults::fire(tahoma_faults::site::BROKER_LEAD);
            if dies {
                #[expect(
                    clippy::panic,
                    reason = "the BROKER_LEAD fault site models a zoo call dying: a deliberate \
                              panic inside this catch_unwind, reached only when a test armed a \
                              fault plan, and recovered by the solo-failover rung"
                )]
                {
                    panic!("injected fault: broker inference death (site BROKER_LEAD)");
                }
            }
            self.zoo.infer(model, rows, &mut *scratch)
        }));
        self.morsel_calls
            .fetch_add(scratch.morsel_calls() - morsels_before, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// The failover rung: one injection-free solo re-execution of a call
    /// that died; a death that reproduces (a real one) re-raises here.
    fn rerun_solo<S: RowSource + ?Sized>(
        &self,
        model: ModelId,
        rows: &S,
        scratch: &mut InferScratch,
    ) -> Result<Vec<f32>, S::Error> {
        self.failovers.fetch_add(1, Ordering::Relaxed);
        match self.run_zoo(model, rows, scratch, false) {
            Ok(scores) => scores,
            Err(p) => resume_unwind(p),
        }
    }

    /// Leader path: give followers `window` to join, then seal the batch
    /// (taking it off the open map so later submissions start fresh), run
    /// one zoo call over the participants' slots on the leader's
    /// `scratch`, and publish the scores.
    fn lead(&self, model: ModelId, row_len: usize, batch: &Arc<Batch>, scratch: &mut InferScratch) {
        if self.window > Duration::ZERO && self.active.load(Ordering::Relaxed) > 1 {
            // Poll in short slices: besides sealing and the deadline, stop
            // waiting as soon as every in-flight query has a pack in this
            // batch (nobody is left to join — each query submits at most
            // once per cascade level, then blocks on the result) or the
            // service goes (nearly) idle. Both conditions read the live
            // `active` counter, so a dying burst never strands the leader
            // in a dead window.
            const POLL: Duration = Duration::from_micros(50);
            let deadline = Instant::now() + self.window;
            let mut st = batch.state.lock();
            while !st.sealed {
                let active = self.active.load(Ordering::Relaxed);
                if active <= 1 || st.sizes.len() >= active {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                st = st.wait_timeout(&batch.cv, (deadline - now).min(POLL)).0;
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "FAULT: schedule point: leader preempted between the window and the seal"
        )]
        tahoma_faults::perturb(tahoma_faults::site::SEAL);
        // Seal under the open-map lock (map -> batch lock order, same as
        // the join path) unless a row-cap join already did.
        {
            let mut open = self.open.lock();
            let mut st = batch.state.lock();
            if !st.sealed {
                st.sealed = true;
                if open.get(&model.0).is_some_and(|b| Arc::ptr_eq(b, batch)) {
                    open.remove(&model.0);
                }
            }
        }
        let (slots, n) = {
            let mut st = batch.state.lock();
            (std::mem::take(&mut st.slots), st.sizes.iter().sum())
        };
        let rows = Slots {
            slots: &slots,
            rows: n,
            row_len,
        };
        self.rows.fetch_add(n as u64, Ordering::Relaxed);
        if slots.len() > 1 {
            self.merged_calls.fetch_add(1, Ordering::Relaxed);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "FAULT: schedule point: leader preempted before the merged zoo call"
        )]
        tahoma_faults::perturb(tahoma_faults::site::RUN);
        let result = self.run_zoo(model, &rows, scratch, true);
        let mut st = batch.state.lock();
        // Back in place for the failover rung: a participant re-runs its
        // own slot.
        st.slots = slots;
        match result {
            Ok(scores) => st.scores = scores.unwrap_or_else(|never| match never {}),
            // Publish the failure instead of unwinding: every participant
            // (the leader included) sees `failed` in the common wait path
            // and re-executes its own rows solo — the failover rung. The
            // panic payload is intentionally dropped here; a deterministic
            // panic reproduces on the solo retry and re-raises there.
            Err(_) => st.failed = true,
        }
        st.done = true;
        batch.cv.notify_all();
        drop(st);
        #[expect(
            clippy::disallowed_methods,
            reason = "FAULT: schedule point: leader preempted after publishing, before it returns"
        )]
        tahoma_faults::perturb(tahoma_faults::site::PUBLISH);
    }
}

impl InferDispatch for Broker {
    fn infer(
        &self,
        model: ModelId,
        rows: &InputRows<'_>,
        scratch: &mut InferScratch,
    ) -> Result<Vec<f32>, CoreError> {
        self.submits.fetch_add(1, Ordering::Relaxed);
        #[expect(
            clippy::disallowed_methods,
            reason = "FAULT: schedule point: submitter preempted before the idle fast-path check"
        )]
        tahoma_faults::perturb(tahoma_faults::site::SUBMIT);
        let n = rows.rows();
        // Idle fast path: nobody to coalesce with — score directly, the
        // call's lanes producing their own rows; no batch machinery, no
        // window.
        if self.active.load(Ordering::Relaxed) <= 1 {
            self.rows.fetch_add(n as u64, Ordering::Relaxed);
            return match self.run_zoo(model, rows, scratch, true) {
                Ok(scores) => scores,
                // Same failover rung as a dead merged call.
                Err(_) => self.rerun_solo(model, rows, scratch),
            };
        }
        // Fill this participant's slot, once, before joining: a pack that
        // cannot be produced fails here and never holds up a batch.
        let row_len = rows.row_len();
        let mut slot = Vec::with_capacity(n * row_len);
        let mut buf = vec![0.0f32; row_len];
        rows.visit_rows(0..n, &mut buf, &mut |row| slot.extend_from_slice(row))?;
        // Join (or open) the model's batch.
        #[expect(
            clippy::disallowed_methods,
            reason = "FAULT: schedule point: submitter preempted before it joins or opens a batch"
        )]
        tahoma_faults::perturb(tahoma_faults::site::JOIN);
        let (batch, my_index, leader) = {
            let mut open = self.open.lock();
            match open.get(&model.0) {
                Some(b) => {
                    let b = Arc::clone(b);
                    let mut st = b.state.lock();
                    debug_assert!(!st.sealed, "sealed batches leave the open map");
                    st.slots.push(slot);
                    st.sizes.push(n);
                    let idx = st.sizes.len() - 1;
                    if st.sizes.iter().sum::<usize>() >= Broker::MAX_ROWS {
                        st.sealed = true;
                        open.remove(&model.0);
                    }
                    // Wake the leader either way: it may now be able to
                    // seal early (all active queries joined).
                    b.cv.notify_all();
                    drop(st);
                    (b, idx, false)
                }
                None => {
                    let b = Arc::new(Batch::new());
                    {
                        let mut st = b.state.lock();
                        st.slots.push(slot);
                        st.sizes.push(n);
                    }
                    open.insert(model.0, Arc::clone(&b));
                    (b, 0, true)
                }
            }
        };
        if leader {
            self.lead(model, row_len, &batch, scratch);
        } else {
            #[expect(
                clippy::disallowed_methods,
                reason = "FAULT: schedule point: follower preempted after appending, before it waits"
            )]
            tahoma_faults::perturb(tahoma_faults::site::APPEND);
        }
        // Wait for completion (leaders are already done) and slice out our
        // scores.
        #[expect(
            clippy::disallowed_methods,
            reason = "FAULT: schedule point: participant preempted before blocking on completion"
        )]
        tahoma_faults::perturb(tahoma_faults::site::WAIT);
        let mut st = batch.state.lock();
        while !st.done {
            st = st.wait(&batch.cv);
        }
        if st.failed {
            // Failover: the merged call died; score our own slot solo.
            // Batch-shape invariance makes the recovered scores bitwise
            // identical to the merged call that failed, so the failover is
            // invisible in results. A panic that reproduces solo (e.g. an
            // unregistered model) re-raises here, reaching every
            // participant of the failed batch.
            let slot = [std::mem::take(&mut st.slots[my_index])];
            drop(st);
            self.rows.fetch_add(n as u64, Ordering::Relaxed);
            let rows = Slots {
                slots: &slot,
                rows: n,
                row_len,
            };
            let solo = self.rerun_solo(model, &rows, scratch);
            return Ok(solo.unwrap_or_else(|never| match never {}));
        }
        let off: usize = st.sizes[..my_index].iter().sum();
        Ok(st.scores[off..off + n].to_vec())
    }
}
