//! Seeded schedule-perturbation harness for the coalescing broker
//! (`tahoma_serve::sched`).
//!
//! Interleaving bugs in the leader/follower protocol hide behind "it
//! passed this run": the OS happens to schedule submitters so that joins
//! land before seals and nobody observes the racy window. This harness
//! drives the broker's injected yield points
//! ([`tahoma_serve::sched::point`]) from a per-thread seeded RNG, so each
//! of 1000 seeds explores a different deterministic pattern of yields and
//! spins at the protocol's decision sites (submit, join, append, seal,
//! run, publish, wait). The invariant under test is the broker's whole
//! contract: under every perturbed schedule, every submitter gets scores
//! bitwise identical to a serial [`SharedModelZoo::infer`] call on its
//! own pack.
//!
//! A second test covers the failure path the same way: a leader whose
//! zoo call panics must propagate the panic to every follower of that
//! batch — never wedge them on the condvar — and leave the broker
//! reusable. A third makes one morsel of a fanned-out call die
//! transiently: the broker must recover it through solo failover with
//! unchanged scores.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tahoma_core::exec::{InferDispatch, SharedModelZoo};
use tahoma_core::CoreError;
use tahoma_imagery::{ColorMode, Representation};
use tahoma_nn::{InferScratch, Layer, RowSource, Shape, SliceRows, MORSEL_ROWS};
use tahoma_serve::{sched, Broker};
use tahoma_zoo::{ArchSpec, ModelId};

const THREADS: usize = 3;
const SEEDS: u64 = 1000;
const ROW_LEN: usize = 12 * 12; // 12x12 gray input

/// A materialized pack, offered to the broker the way a query's rows
/// arrive: as a row source (whose rows here never fail).
struct Pack<'a>(SliceRows<'a>);

impl RowSource for Pack<'_> {
    type Error = CoreError;

    fn rows(&self) -> usize {
        self.0.rows()
    }

    fn row_len(&self) -> usize {
        self.0.row_len()
    }

    fn visit_rows(
        &self,
        range: Range<usize>,
        buf: &mut [f32],
        visit: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CoreError> {
        self.0
            .visit_rows(range, buf, visit)
            .map_err(|never| match never {})
    }
}

/// `n` rows of `rows` through the broker, on a fresh query scratch.
fn brokered(broker: &Broker, model: ModelId, rows: &[f32], n: usize) -> Vec<f32> {
    let pack = Pack(SliceRows::new(rows, n, ROW_LEN));
    let mut scratch = InferScratch::default();
    broker
        .infer(model, &pack, &mut scratch)
        .expect("a materialized pack never fails")
}

/// `n` rows of `rows` straight through the zoo.
fn serial(
    zoo: &SharedModelZoo,
    model: ModelId,
    rows: &[f32],
    n: usize,
    scratch: &mut InferScratch,
) -> Vec<f32> {
    zoo.infer(model, &SliceRows::new(rows, n, ROW_LEN), scratch)
        .unwrap_or_else(|never| match never {})
}

fn tiny_zoo() -> SharedModelZoo {
    let rep = Representation::new(12, ColorMode::Gray);
    let arch = ArchSpec {
        conv_layers: 1,
        conv_nodes: 4,
        dense_nodes: 8,
    };
    let mut zoo = SharedModelZoo::new();
    zoo.register(
        ModelId(0),
        rep,
        arch.cnn_spec(rep).build(41).expect("net 0"),
    );
    zoo.register(
        ModelId(1),
        rep,
        arch.cnn_spec(rep).build(42).expect("net 1"),
    );
    zoo
}

/// Thread `t`'s fixed input pack: `t + 1` rows of deterministic noise.
fn pack_for(t: usize) -> (Vec<f32>, usize) {
    let n = t + 1;
    let mut rng = tahoma_mathx::DetRng::new(0xC0FFEE ^ t as u64);
    let rows = (0..n * ROW_LEN)
        .map(|_| rng.normal(0.0, 1.0) as f32)
        .collect();
    (rows, n)
}

/// The model thread `t` targets in a round: even seeds converge all
/// threads on one model (maximum merge pressure), odd seeds split them
/// across both models (concurrent independent batches).
fn model_for(seed: u64, t: usize) -> ModelId {
    if seed.is_multiple_of(2) {
        ModelId(0)
    } else {
        ModelId((t % 2) as u32)
    }
}

#[test]
fn thousand_seeds_bitwise_identical_to_serial() {
    let zoo = Arc::new(tiny_zoo());
    let packs: Vec<(Vec<f32>, usize)> = (0..THREADS).map(pack_for).collect();
    // Serial reference, one pack at a time — what every perturbed
    // concurrent round must reproduce exactly.
    let mut scratch = InferScratch::default();
    let expected: Vec<[Vec<f32>; 2]> = packs
        .iter()
        .map(|(rows, n)| {
            [
                serial(&zoo, ModelId(0), rows, *n, &mut scratch),
                serial(&zoo, ModelId(1), rows, *n, &mut scratch),
            ]
        })
        .collect();

    let active = Arc::new(AtomicUsize::new(THREADS));
    let broker =
        Broker::new(Arc::clone(&zoo), Arc::clone(&active)).with_window(Duration::from_micros(200));

    for seed in 0..SEEDS {
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let broker = &broker;
                let packs = &packs;
                let expected = &expected;
                s.spawn(move || {
                    let _perturb = sched::install(seed.wrapping_mul(31) ^ t as u64);
                    let (rows, n) = &packs[t];
                    let model = model_for(seed, t);
                    let scores = brokered(broker, model, rows, *n);
                    assert_eq!(
                        scores.len(),
                        *n,
                        "seed {seed} thread {t}: wrong score count"
                    );
                    let want = &expected[t][model.0 as usize];
                    for (i, (got, want)) in scores.iter().zip(want).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "seed {seed} thread {t} row {i}: {got} != serial {want}"
                        );
                    }
                });
            }
        });
    }

    let stats = broker.stats();
    assert_eq!(stats.submits, SEEDS * THREADS as u64);
    // Across 1000 perturbed rounds with all threads converging on one
    // model every other round, real cross-submission merges must occur —
    // otherwise the harness only ever exercised the solo path.
    assert!(
        stats.merged_calls > 0,
        "no merged batches across {SEEDS} seeds: {stats:?}"
    );
}

/// Identity layer whose first inference call after arming panics (and
/// disarms): a transient death of whichever morsel runs first.
struct Tripwire {
    shape: Shape,
    armed: Arc<AtomicBool>,
}

impl Layer for Tripwire {
    fn name(&self) -> &'static str {
        "tripwire"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn output_shape(&self) -> Shape {
        self.shape
    }
    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        grad_out.to_vec()
    }
    fn forward_batch(&mut self, input: &[f32], _batch: usize, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(input);
    }
    fn backward_batch(&mut self, grad_out: &[f32], _batch: usize, grad_in: &mut Vec<f32>) {
        grad_in.clear();
        grad_in.extend_from_slice(grad_out);
    }
    fn infer_shared(&self, input: &[f32], _batch: usize, out: &mut Vec<f32>, _: &mut InferScratch) {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected morsel death");
        }
        out.clear();
        out.extend_from_slice(input);
    }
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}
    fn zero_grads(&mut self) {}
    fn param_count(&self) -> usize {
        0
    }
    fn flops(&self) -> u64 {
        0
    }
}

/// A morsel that panics mid-call is re-raised on the call's owner by the
/// pool scope, caught by the broker, and the participants re-run their
/// rows solo — fanning out again — with scores bitwise equal to a clean
/// network's, on the idle fast path and on a merged batch alike.
#[test]
fn panicking_morsel_fails_over_solo_bitwise() {
    let rep = Representation::new(12, ColorMode::Gray);
    let spec = ArchSpec {
        conv_layers: 1,
        conv_nodes: 4,
        dense_nodes: 8,
    }
    .cnn_spec(rep);
    let armed = Arc::new(AtomicBool::new(false));
    let mut flaky = spec.build(41).expect("net");
    flaky.push(Box::new(Tripwire {
        shape: flaky.output_shape(),
        armed: Arc::clone(&armed),
    }));
    let mut zoo = SharedModelZoo::new();
    zoo.register(ModelId(0), rep, flaky);
    let clean = spec.build(41).expect("net");
    let active = Arc::new(AtomicUsize::new(1));
    let broker =
        Broker::new(Arc::new(zoo), Arc::clone(&active)).with_window(Duration::from_millis(50));
    let pack = |t: u64, n: usize| {
        let mut rng = tahoma_mathx::DetRng::new(0xD1E ^ t);
        let rows: Vec<f32> = (0..n * ROW_LEN)
            .map(|_| rng.normal(0.0, 1.0) as f32)
            .collect();
        let want = clean.predict_proba_shared(&rows, n, &mut InferScratch::default());
        (rows, n, want)
    };

    // Idle fast path: one submitter, a pack of several morsels.
    let (rows, n, want) = pack(0, 5 * MORSEL_ROWS + 3);
    armed.store(true, Ordering::SeqCst);
    assert_eq!(brokered(&broker, ModelId(0), &rows, n), want);
    assert!(!armed.load(Ordering::SeqCst), "no morsel ran armed");
    let stats = broker.stats();
    assert_eq!((stats.calls, stats.failovers), (2, 1), "{stats:?}");
    assert!(
        stats.morsel_calls >= 1,
        "the solo retry fanned out: {stats:?}"
    );

    // Merged batch: both participants' rows die together, both recover.
    active.store(2, Ordering::SeqCst);
    let packs: Vec<_> = (1..3).map(|t| pack(t, 2 * MORSEL_ROWS)).collect();
    armed.store(true, Ordering::SeqCst);
    std::thread::scope(|s| {
        for (rows, n, want) in &packs {
            let broker = &broker;
            s.spawn(move || assert_eq!(brokered(broker, ModelId(0), rows, *n), *want));
        }
    });
    let stats = broker.stats();
    assert!(!armed.load(Ordering::SeqCst), "no morsel ran armed");
    // Two participants recover if the window merged them, else only the
    // submitter whose own call died.
    assert_eq!(stats.failovers, 2 + stats.merged_calls, "{stats:?}");
}

/// A panicking zoo call (here: an unregistered model) must re-raise on the
/// leader, panic — not wedge — every follower of the batch, and leave the
/// broker usable for the next query.
#[test]
fn leader_panic_reaches_followers_and_broker_survives() {
    let zoo = Arc::new(tiny_zoo());
    let packs: Vec<(Vec<f32>, usize)> = (0..2).map(pack_for).collect();
    let active = Arc::new(AtomicUsize::new(2));
    // A long window so both submitters reliably land in the same batch
    // (the leader seals early once both are aboard).
    let broker =
        Broker::new(Arc::clone(&zoo), Arc::clone(&active)).with_window(Duration::from_millis(50));

    for seed in 0..16u64 {
        let outcomes: Vec<std::thread::Result<Vec<f32>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let broker = &broker;
                    let packs = &packs;
                    s.spawn(move || {
                        let _perturb = sched::install(seed ^ (t as u64) << 8);
                        let (rows, n) = &packs[t];
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            brokered(broker, ModelId(99), rows, *n)
                        }))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("harness thread must not die"))
                .collect()
        });
        for (t, out) in outcomes.iter().enumerate() {
            assert!(
                out.is_err(),
                "seed {seed} thread {t}: inference on an unregistered model \
                 must panic, not return"
            );
        }
    }

    // The broker's bookkeeping survived 16 panicked batches: a healthy
    // query scores correctly and the open map holds no leftover batch.
    active.store(1, Ordering::SeqCst);
    let (rows, n) = &packs[1];
    let scores = brokered(&broker, ModelId(1), rows, *n);
    let mut scratch = InferScratch::default();
    assert_eq!(scores, serial(&zoo, ModelId(1), rows, *n, &mut scratch));
}
