//! Concurrency invariants of the query service.
//!
//! The contract under test: a [`QueryService`] shared by any number of
//! threads returns, for every query, results bitwise identical to a serial
//! run with every optimization disabled — plan caching and broker
//! coalescing change cost, never answers.

use std::sync::{Arc, OnceLock};
use tahoma_core::query::Corpus;
use tahoma_imagery::ObjectKind;
use tahoma_nn::MORSEL_ROWS;
use tahoma_serve::fixture::{nn_service, surrogate_service, NnFixtureConfig};
use tahoma_serve::{serve, ExecPolicy, QueryService, ServerConfig, StreamRegistry};

const QUERIES: &[&str] = &[
    "SELECT * FROM frames WHERE contains_object(fence)",
    "SELECT * FROM frames WHERE contains_object(wallet)",
    "SELECT * FROM frames WHERE contains_object(fence) AND contains_object(wallet)",
    "SELECT * FROM frames WHERE contains_object(fence) AND location = 'Detroit'",
    "SELECT * FROM frames WHERE contains_object(wallet) AND camera < 4",
    "SELECT * FROM frames WHERE location = 'Flint'",
];

/// `QUERYU`'s policy: no plan cache, no broker.
const BASELINE: ExecPolicy = ExecPolicy {
    baseline: true,
    deadline: None,
};

fn nn_fixture() -> Arc<QueryService> {
    static SERVICE: OnceLock<Arc<QueryService>> = OnceLock::new();
    Arc::clone(SERVICE.get_or_init(|| {
        Arc::new(nn_service(&NnFixtureConfig {
            corpus_n: 96,
            ..Default::default()
        }))
    }))
}

/// Serial reference answers with every optimization off.
fn reference_answers(service: &QueryService) -> Vec<Vec<u64>> {
    QUERIES
        .iter()
        .map(|sql| {
            service
                .execute_with(sql, BASELINE)
                .expect("reference query")
                .matched_ids
        })
        .collect()
}

/// N threads hammer one shared service with coalescing and plan caching
/// on; every answer must be bitwise identical to the serial reference.
#[test]
fn concurrent_coalesced_results_match_serial() {
    let service = nn_fixture();
    let expected = Arc::new(reference_answers(&service));
    let threads = 6;
    let rounds = 2;
    std::thread::scope(|s| {
        for t in 0..threads {
            let service = Arc::clone(&service);
            let expected = Arc::clone(&expected);
            s.spawn(move || {
                for r in 0..rounds {
                    // Stagger the query mix per thread so different queries
                    // overlap in flight (the broker's merge case).
                    for (qi, sql) in QUERIES
                        .iter()
                        .enumerate()
                        .cycle()
                        .skip(t + r)
                        .take(QUERIES.len())
                    {
                        let out = service.execute(sql).expect("concurrent query");
                        assert_eq!(
                            out.matched_ids, expected[qi],
                            "thread {t} round {r} diverged on {sql:?}"
                        );
                    }
                }
            });
        }
    });
    let stats = service.stats();
    assert!(stats.queries >= (threads * rounds * QUERIES.len()) as u64);
    // The 2ms window plus 8 threads must have produced at least one real
    // cross-query merge (the coalescing path, not just the fast path).
    assert!(
        stats.broker.merged_calls > 0,
        "no batches merged under 8-thread load: {stats:?}"
    );
}

/// Same service under the baseline policy (no broker) per query:
/// concurrency alone must not change answers either.
#[test]
fn concurrent_uncoalesced_results_match_serial() {
    let service = nn_fixture();
    let expected = Arc::new(reference_answers(&service));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let service = Arc::clone(&service);
            let expected = Arc::clone(&expected);
            s.spawn(move || {
                for (qi, sql) in QUERIES.iter().enumerate() {
                    let out = service
                        .execute_with(sql, BASELINE)
                        .expect("concurrent query");
                    assert_eq!(out.matched_ids, expected[qi], "diverged on {sql:?}");
                }
            });
        }
    });
}

/// Packs are scored as morsels spread across the worker pool — through
/// the broker and through the local path — and must answer exactly what
/// the same predicates answer asked one item at a time (`timestamp = T`
/// selects one item), where every call scores one row and provably runs
/// as one pass. Quarter-corpus slices (two cameras, ~42 rows, under one
/// `MORSEL_ROWS`-row morsel) give the same answers and fan out wherever
/// the pool has workers; on one core they stay one pass.
#[test]
fn morsel_sized_packs_match_one_pass_slices_coalesced_and_not() {
    const PREDICATES: &[&str] = &[
        "contains_object(fence)",
        "contains_object(wallet) AND contains_object(fence)",
    ];
    let cfg = NnFixtureConfig {
        corpus_n: 2 * MORSEL_ROWS + 40,
        ..Default::default()
    };
    let service = Arc::new(nn_service(&cfg));
    let corpus = Corpus::synthetic(cfg.corpus_n, cfg.prevalence, cfg.seed);
    let matched = |p: &str, meta: &str| {
        let sql = format!("SELECT * FROM frames WHERE {p} AND {meta}");
        service
            .execute_with(&sql, BASELINE)
            .expect("slice")
            .matched_ids
    };
    let sliced: Vec<Vec<u64>> = PREDICATES
        .iter()
        .map(|p| {
            let mut ids: Vec<u64> = corpus
                .items
                .iter()
                .flat_map(|item| matched(p, &format!("timestamp = {}", item.timestamp)))
                .collect();
            ids.sort_unstable();
            ids
        })
        .collect();
    let stats = service.stats();
    assert_eq!(
        (stats.morsel_calls, stats.broker.morsel_calls),
        (0, 0),
        "one-row calls must stay on the one-pass path"
    );
    for (p, want) in PREDICATES.iter().zip(&sliced) {
        let mut quarters: Vec<u64> = (0..8)
            .step_by(2)
            .flat_map(|lo| matched(p, &format!("camera >= {lo} AND camera < {}", lo + 2)))
            .collect();
        quarters.sort_unstable();
        assert_eq!(&quarters, want, "quarter-corpus slices of {p:?}");
    }
    let fanned = service.stats().morsel_calls;
    if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
        assert!(fanned > 0, "quarter-corpus slices never fanned out");
    } else {
        assert_eq!(fanned, 0, "one lane runs calls of one morsel as one pass");
    }
    let run = |policy: ExecPolicy| {
        std::thread::scope(|s| {
            for t in 0..3 {
                let (service, sliced) = (&service, &sliced);
                s.spawn(move || {
                    for (p, want) in PREDICATES.iter().zip(sliced).cycle().skip(t).take(4) {
                        let sql = format!("SELECT * FROM frames WHERE {p}");
                        let got = service
                            .execute_with(&sql, policy)
                            .expect("whole-corpus query");
                        assert_eq!(&got.matched_ids, want, "thread {t}: {sql:?}");
                    }
                });
            }
        })
    };
    run(BASELINE);
    let stats = service.stats();
    assert!(
        stats.morsel_calls > fanned,
        "local path never fanned out: {stats:?}"
    );
    assert_eq!(
        stats.broker.morsel_calls, 0,
        "uncoalesced run used the broker"
    );
    run(ExecPolicy::default());
    let stats = service.stats();
    assert!(
        stats.broker.morsel_calls > 0,
        "broker path never fanned out: {stats:?}"
    );
}

/// Two standing queries ticked from two threads at once: each tick's
/// frame renders run as jobs on the shared process pool, and its entrant
/// packs (two morsels wide) fan out as inference scopes on the same
/// pool, so render and inference jobs of both queries interleave. Every
/// tick's delta and matched-set sum must equal a one-thread run of the
/// same script.
#[test]
fn concurrent_standing_ticks_match_sequential() {
    const STEP: u64 = 2 * MORSEL_ROWS as u64;
    const TICKS: usize = 3;
    const STREAMS: [(&str, &str); 2] = [
        ("coral", "SELECT * FROM frames WHERE contains_object(fence)"),
        (
            "jackson",
            "SELECT * FROM frames WHERE contains_object(wallet) AND contains_object(fence)",
        ),
    ];
    let service = nn_service(&NnFixtureConfig {
        corpus_n: 32,
        ..Default::default()
    });
    // Same registry seed and registration order: same qids, same frames.
    let registry = || {
        let registry = StreamRegistry::new(0x71C4);
        let qids: Vec<u64> = STREAMS
            .iter()
            .map(|(stream, sql)| {
                registry
                    .register(&service, stream, 2 * STEP, STEP, sql)
                    .expect("register")
                    .qid
            })
            .collect();
        (registry, qids)
    };
    type Tick = (Vec<u64>, Vec<u64>, u64);
    let tick = |registry: &StreamRegistry, qid: u64| -> Tick {
        let t = registry.tick(&service, qid).expect("tick");
        (t.deltas.added, t.deltas.removed, t.sum)
    };

    let (sequential, qids) = registry();
    let mut want: Vec<Vec<Tick>> = vec![Vec::new(); qids.len()];
    for _ in 0..TICKS {
        for (script, &qid) in want.iter_mut().zip(&qids) {
            script.push(tick(&sequential, qid));
        }
    }
    assert!(
        want.iter().flatten().any(|(added, _, _)| !added.is_empty()),
        "the script must match something"
    );

    let before = service.stats().broker.morsel_calls;
    let (concurrent, qids) = registry();
    let got: Vec<Vec<Tick>> = std::thread::scope(|s| {
        let handles: Vec<_> = qids
            .iter()
            .map(|&qid| {
                let (concurrent, tick) = (&concurrent, &tick);
                s.spawn(move || (0..TICKS).map(|_| tick(concurrent, qid)).collect())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ticking thread"))
            .collect()
    });
    for (q, (g, w)) in got.iter().zip(&want).enumerate() {
        for (t, (g, w)) in g.iter().zip(w).enumerate() {
            assert_eq!(g, w, "query {q} tick {}: (added, removed, sum)", t + 1);
        }
    }
    assert!(
        service.stats().broker.morsel_calls > before,
        "entrant packs never fanned out as morsels"
    );
}

/// A store directory must be invisible in answers: a service whose frame
/// store lives in a named directory returns bitwise-identical results to
/// the fixture on a temporary store — including after a simulated restart
/// that reopens the store directory (recovery + CRC verification, no
/// re-ingest) — and stays identical under concurrent load.
#[test]
fn persistent_store_service_matches_ram_and_survives_reopen() {
    let dir = std::env::temp_dir().join(format!("tahoma-serve-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let expected = Arc::new(reference_answers(&nn_fixture()));
    let persist_cfg = NnFixtureConfig {
        corpus_n: 96,
        store_dir: Some(dir.clone()),
        ..Default::default()
    };

    // First build: fresh ingest into the directory.
    {
        let service = nn_service(&persist_cfg);
        let got = reference_answers(&service);
        assert_eq!(
            got, *expected,
            "store directory diverged from the temporary store"
        );
    }

    // "Restart": a fresh service finds a compatible store in the
    // directory and reopens it instead of re-ingesting; concurrent
    // clients must still see the same answers.
    let service = Arc::new(nn_service(&persist_cfg));
    std::thread::scope(|s| {
        for t in 0..4 {
            let service = Arc::clone(&service);
            let expected = Arc::clone(&expected);
            s.spawn(move || {
                for (qi, sql) in QUERIES.iter().enumerate() {
                    let out = service.execute(sql).expect("concurrent query");
                    assert_eq!(
                        out.matched_ids, expected[qi],
                        "thread {t}: reopened store diverged on {sql:?}"
                    );
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Full-stack smoke: TCP server, concurrent protocol clients, shutdown.
#[test]
fn server_protocol_roundtrip_with_concurrent_clients() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let service = Arc::new(surrogate_service(
        &[ObjectKind::Fence, ObjectKind::Wallet],
        256,
        0xBEEF,
    ));
    let handle = serve(
        service,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 3,
            queue_cap: 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let ask = |lines: &[&str]| -> Vec<String> {
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut out = Vec::new();
        for line in lines {
            conn.write_all(format!("{line}\n").as_bytes())
                .expect("send");
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("recv");
            out.push(resp.trim_end().to_string());
        }
        out
    };

    assert_eq!(ask(&["PING"]), ["PONG"]);
    assert!(ask(&["BOGUS"])[0].starts_with("ERR"));

    // The canonical answer for one query, then the same query from 6
    // concurrent clients: every response line must be identical (same
    // count, same id hash).
    let sql = "QUERY SELECT * FROM frames WHERE contains_object(fence) AND camera < 6";
    let first = ask(&[sql]).remove(0);
    assert!(first.starts_with("OK "), "unexpected response: {first}");
    let echoes: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    conn.write_all(format!("{sql}\n").as_bytes()).expect("send");
                    let mut reader = BufReader::new(conn);
                    let mut resp = String::new();
                    reader.read_line(&mut resp).expect("recv");
                    resp.trim_end().to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let strip_plan = |line: &str| line.replace("plan=miss", "plan=hit");
    for echo in &echoes {
        assert_eq!(
            strip_plan(echo),
            strip_plan(&first),
            "client answers diverged"
        );
    }

    let stats = ask(&["STATS"]).remove(0);
    assert!(stats.starts_with("OK queries="), "bad stats line: {stats}");

    assert_eq!(ask(&["SHUTDOWN"]), ["BYE"]);
    handle.join();
}

mod plan_cache_props {
    use super::*;
    use proptest::prelude::*;

    fn surrogate_fixture() -> Arc<QueryService> {
        static SERVICE: OnceLock<Arc<QueryService>> = OnceLock::new();
        Arc::clone(SERVICE.get_or_init(|| {
            Arc::new(surrogate_service(
                &[ObjectKind::Fence, ObjectKind::Wallet, ObjectKind::Acorn],
                128,
                0x90,
            ))
        }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A plan served from the cache is identical to planning the same
        /// predicate set from scratch, entry by entry in execution order,
        /// for every subset and ordering of the served kinds — on the
        /// surrogate fixture and, for its kinds, the NN one.
        #[test]
        fn cached_plan_equals_fresh_planning(bits in 1u8..8, swap in 0u8..2) {
            let service = surrogate_fixture();
            let all = [ObjectKind::Fence, ObjectKind::Wallet, ObjectKind::Acorn];
            let mut kinds: Vec<ObjectKind> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, &k)| k)
                .collect();
            if swap == 1 {
                kinds.reverse();
            }
            cached_equals_fresh(&service, &kinds)?;
            // The two-kind NN case: its order comes from the corpus scores
            // the fixture kept at boot, not from the surrogate tables.
            let nn_kinds: Vec<ObjectKind> = kinds
                .iter()
                .copied()
                .filter(|k| matches!(k, ObjectKind::Fence | ObjectKind::Wallet))
                .collect();
            if !nn_kinds.is_empty() {
                cached_equals_fresh(&nn_fixture(), &nn_kinds)?;
            }
        }
    }

    fn cached_equals_fresh(
        service: &QueryService,
        kinds: &[ObjectKind],
    ) -> Result<(), TestCaseError> {
        // Warm (or hit) the cache, then compare against a fresh plan.
        let (cached, _) = service.plan_for(kinds, true).expect("cached planning");
        let (fresh, hit) = service.plan_for(kinds, false).expect("fresh planning");
        prop_assert!(!hit);
        prop_assert_eq!(cached.entries.len(), fresh.entries.len());
        for (c, f) in cached.entries.iter().zip(fresh.entries.iter()) {
            prop_assert_eq!(c.0, f.0);
            prop_assert_eq!(c.1.cascade, f.1.cascade);
            prop_assert_eq!(c.1.accuracy.to_bits(), f.1.accuracy.to_bits());
            prop_assert_eq!(c.1.throughput.to_bits(), f.1.throughput.to_bits());
        }
        // And a second cached call returns the very same allocation.
        let (again, hit) = service.plan_for(kinds, true).expect("repeat planning");
        prop_assert!(hit);
        prop_assert!(Arc::ptr_eq(&cached, &again));
        Ok(())
    }
}

/// Threads racing the same cold two-predicate `QUERY` — every one of them
/// misses the plan cache and orders the conjunction from the corpus
/// statistics — all get the serial reference's ids, and all end up
/// sharing one cached plan whose order equals planning from scratch.
#[test]
fn racing_cold_conjunctions_agree_on_ids_and_order() {
    const SQL: &str =
        "SELECT * FROM frames WHERE contains_object(wallet) AND contains_object(fence)";
    let kinds = [ObjectKind::Wallet, ObjectKind::Fence];
    let service = nn_service(&NnFixtureConfig {
        corpus_n: 96,
        seed: 1,
        ..Default::default()
    });
    let threads = 4;
    let barrier = std::sync::Barrier::new(threads);
    let answers: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let out = service.execute(SQL).expect("racing query");
                    let (plan, hit) = service.plan_for(&kinds, true).expect("planning");
                    assert!(hit, "the race's plan is cached");
                    (out.matched_ids, plan)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let reference = service
        .execute_with(SQL, BASELINE)
        .expect("reference query")
        .matched_ids;
    assert!(!reference.is_empty());
    let (fresh, _) = service.plan_for(&kinds, false).expect("fresh planning");
    let fresh_order: Vec<ObjectKind> = fresh.entries.iter().map(|e| e.0).collect();
    // Wallet passes every row of this fixture, so it runs last.
    assert_eq!(fresh_order, [ObjectKind::Fence, ObjectKind::Wallet]);
    for (t, (ids, plan)) in answers.iter().enumerate() {
        assert_eq!(ids, &reference, "thread {t}");
        assert!(
            Arc::ptr_eq(plan, &answers[0].1),
            "thread {t}: one cached plan"
        );
        let order: Vec<ObjectKind> = plan.entries.iter().map(|e| e.0).collect();
        assert_eq!(order, fresh_order, "thread {t}");
    }
}

/// The conjunction seam, end to end: a two-predicate + metadata `QUERY`
/// answers exactly the intersection of the two single-predicate `QUERY`s
/// and the metadata-only `QUERY` — on both backends, whatever order the
/// plan ran the predicates in.
#[test]
fn conjunction_query_equals_intersection_of_its_parts() {
    use std::collections::HashSet;
    let surrogate = surrogate_service(&[ObjectKind::Fence, ObjectKind::Wallet], 256, 0x1517);
    for (tag, service) in [("surrogate", &surrogate), ("nn", &*nn_fixture())] {
        let ids = |sql: &str| service.execute(sql).expect(sql).matched_ids;
        let whole = service
            .execute(
                "SELECT * FROM frames WHERE contains_object(fence) AND camera < 5 \
                 AND contains_object(wallet)",
            )
            .expect("conjunction query");
        let meta = ids("SELECT * FROM frames WHERE camera < 5");
        let fence: HashSet<u64> = ids("SELECT * FROM frames WHERE contains_object(fence)")
            .into_iter()
            .collect();
        let wallet: HashSet<u64> = ids("SELECT * FROM frames WHERE contains_object(wallet)")
            .into_iter()
            .collect();
        // Corpus order is preserved, so the intersection is a filter over
        // the metadata-only answer.
        let expected: Vec<u64> = meta
            .iter()
            .copied()
            .filter(|id| fence.contains(id) && wallet.contains(id))
            .collect();
        assert_eq!(whole.matched_ids, expected, "{tag}");
        assert_eq!(whole.metadata_survivors, meta.len(), "{tag}");
        assert!(
            !expected.is_empty() && expected.len() < meta.len(),
            "{tag}: fixture should make the conjunction selective, got {} of {}",
            expected.len(),
            meta.len()
        );
    }
}
