//! Mini SQL console over a synthetic visual corpus (paper §IV: content-based
//! queries decompose into metadata predicates plus binary content
//! predicates).
//!
//! ```text
//! cargo run --release --example sql_console
//! cargo run --release --example sql_console -- \
//!     "SELECT * FROM frames WHERE contains_object(scorpion) AND camera < 3"
//! ```
//!
//! With `--connect`, the console becomes a client for a running
//! `tahoma-serve` instance instead of executing locally — and doubles as a
//! small load-test tool (the CI smoke job drives it this way):
//!
//! ```text
//! cargo run --release --example sql_console -- --connect 127.0.0.1:7343 \
//!     --clients 4 --repeat 8 [--shutdown] [SQL...]
//! ```
//!
//! Every (client, repeat) response for the same SQL must be identical
//! (modulo the `plan=hit|miss` field); any divergence exits non-zero.
//!
//! With `--stream`, the client registers the SQL as a *standing*
//! continuous query over a live stream and drives its sliding window
//! tick by tick (the CI stream-smoke job's path):
//!
//! ```text
//! cargo run --release --example sql_console -- --connect 127.0.0.1:7343 \
//!     --stream coral --range 32 --step 8 --ticks 6 [--shutdown] [SQL]
//! ```
//!
//! The client reconstructs the matched set purely from the per-tick
//! `added`/`removed` deltas and checks its FNV hash against the server's
//! `sum=` on every tick; the final `DELTAS` must report `agree=yes` (the
//! server's own incremental-vs-rescan check) and the same hash. Any
//! mismatch exits non-zero.

use std::collections::BTreeMap;
use tahoma::core::evaluator::CostContext;
use tahoma::core::exec::{SurrogateBatchScorer, VectorizedExecutor};
use tahoma::prelude::*;

fn default_queries() -> Vec<String> {
    vec![
        "SELECT * FROM frames WHERE contains_object(fence)".to_string(),
        "SELECT * FROM frames WHERE contains_object(fence) AND location = 'Detroit'".to_string(),
        "SELECT * FROM frames WHERE contains_object(komondor) AND \
         contains_object(fence) AND timestamp >= 1700100000"
            .to_string(),
    ]
}

/// Client mode: speak the tahoma-serve line protocol over TCP.
mod client {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    pub struct Options {
        pub addr: String,
        pub clients: usize,
        pub repeat: usize,
        pub shutdown: bool,
        pub queries: Vec<String>,
        /// When set, register the first query as a standing continuous
        /// query over this stream instead of running ad-hoc queries.
        pub stream: Option<String>,
        pub range: u64,
        pub step: u64,
        pub ticks: u64,
    }

    /// One request line, with bounded retry on admission-control `BUSY`.
    fn ask(addr: &str, line: &str) -> Result<String, String> {
        for attempt in 0..32 {
            let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            conn.write_all(format!("{line}\n").as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            let mut resp = String::new();
            BufReader::new(&mut conn)
                .read_line(&mut resp)
                .map_err(|e| format!("recv: {e}"))?;
            let resp = resp.trim_end().to_string();
            if resp == "BUSY" {
                // Shed at admission; back off briefly and retry.
                std::thread::sleep(std::time::Duration::from_millis(2 << attempt.min(5)));
                continue;
            }
            return Ok(resp);
        }
        Err("server still BUSY after 32 attempts".to_string())
    }

    /// Extract a `key=value` field from a response line.
    fn field<'a>(resp: &'a str, key: &str) -> Result<&'a str, String> {
        let prefix = format!("{key}=");
        resp.split_whitespace()
            .find_map(|tok| tok.strip_prefix(prefix.as_str()))
            .ok_or_else(|| format!("missing {key}= in: {resp}"))
    }

    fn id_list(spec: &str) -> Result<Vec<u64>, String> {
        if spec == "-" {
            return Ok(Vec::new());
        }
        spec.split(',')
            .map(|s| s.parse().map_err(|_| format!("bad id '{s}'")))
            .collect()
    }

    /// Standing-query mode: REGISTER, then drive `ticks` window slides,
    /// reconstructing the matched set from the wire deltas alone and
    /// verifying it against the server's hash at every step.
    pub fn run_stream(opts: &Options, stream: &str) -> Result<(), String> {
        let ping = ask(&opts.addr, "PING")?;
        if ping != "PONG" {
            return Err(format!("unexpected PING response: {ping}"));
        }
        let sql = opts
            .queries
            .first()
            .ok_or("standing mode needs one SQL query")?;
        let resp = ask(
            &opts.addr,
            &format!(
                "REGISTER {stream} RANGE {} STEP {} {sql}",
                opts.range, opts.step
            ),
        )?;
        if !resp.starts_with("OK ") {
            return Err(format!("REGISTER failed: {resp}"));
        }
        let qid: u64 = field(&resp, "qid")?
            .parse()
            .map_err(|e| format!("bad qid: {e}"))?;
        println!("{resp}");
        let mut rebuilt: Vec<u64> = Vec::new();
        for t in 1..=opts.ticks {
            let resp = ask(&opts.addr, &format!("TICK {qid}"))?;
            if !resp.starts_with("OK ") {
                return Err(format!("TICK {t} failed: {resp}"));
            }
            let removed = id_list(field(&resp, "removed")?)?;
            let added = id_list(field(&resp, "added")?)?;
            rebuilt.retain(|id| !removed.contains(id));
            rebuilt.extend(&added);
            let sum = u64::from_str_radix(field(&resp, "sum")?, 16)
                .map_err(|e| format!("bad sum: {e}"))?;
            let local = tahoma::serve::protocol::fnv1a64(&rebuilt);
            if local != sum {
                return Err(format!(
                    "tick {t}: delta replay hash {local:016x} != server sum {sum:016x}\n  {resp}"
                ));
            }
            println!("{resp}");
        }
        let status = ask(&opts.addr, &format!("DELTAS {qid}"))?;
        if !status.starts_with("OK ") {
            return Err(format!("DELTAS failed: {status}"));
        }
        println!("{status}");
        if field(&status, "agree")? != "yes" {
            return Err(format!("server incremental != rescan: {status}"));
        }
        let sum =
            u64::from_str_radix(field(&status, "sum")?, 16).map_err(|e| format!("bad sum: {e}"))?;
        let local = tahoma::serve::protocol::fnv1a64(&rebuilt);
        if local != sum {
            return Err(format!(
                "final delta replay hash {local:016x} != server sum {sum:016x}"
            ));
        }
        println!(
            "delta replay verified: {} matched ids reconstructed over {} ticks",
            rebuilt.len(),
            opts.ticks
        );
        if opts.shutdown {
            let bye = ask(&opts.addr, "SHUTDOWN")?;
            if bye != "BYE" {
                return Err(format!("unexpected SHUTDOWN response: {bye}"));
            }
            println!("server shut down");
        }
        Ok(())
    }

    pub fn run(opts: &Options) -> Result<(), String> {
        if let Some(stream) = &opts.stream {
            return run_stream(opts, &stream.clone());
        }
        let ping = ask(&opts.addr, "PING")?;
        if ping != "PONG" {
            return Err(format!("unexpected PING response: {ping}"));
        }
        for sql in &opts.queries {
            // `clients` threads each issue the query `repeat` times over
            // their own connections, concurrently.
            let request = format!("QUERY {sql}");
            let mut all: Vec<(String, f64)> = Vec::new();
            let results: Vec<Result<Vec<(String, f64)>, String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..opts.clients)
                    .map(|_| {
                        let request = &request;
                        scope.spawn(move || {
                            let mut mine = Vec::new();
                            for _ in 0..opts.repeat {
                                let t = Instant::now();
                                let resp = ask(&opts.addr, request)?;
                                mine.push((resp, t.elapsed().as_secs_f64()));
                            }
                            Ok(mine)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for r in results {
                all.extend(r?);
            }
            // All responses must agree modulo the plan=hit|miss field.
            let canon = |s: &str| s.replace("plan=miss", "plan=hit");
            let first = &all[0].0;
            if !first.starts_with("OK ") {
                return Err(format!("query failed: {first}"));
            }
            if let Some((bad, _)) = all.iter().find(|(r, _)| canon(r) != canon(first)) {
                return Err(format!(
                    "responses diverged for {sql:?}:\n  {first}\n  {bad}"
                ));
            }
            let mut lat: Vec<f64> = all.iter().map(|&(_, s)| s).collect();
            lat.sort_by(f64::total_cmp);
            let q = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize] * 1e3;
            println!(
                "{} x{}: {}  (p50 {:.2} ms, p95 {:.2} ms)",
                sql,
                all.len(),
                first,
                q(0.50),
                q(0.95)
            );
        }
        let stats = ask(&opts.addr, "STATS")?;
        println!("{stats}");
        if opts.shutdown {
            let bye = ask(&opts.addr, "SHUTDOWN")?;
            if bye != "BYE" {
                return Err(format!("unexpected SHUTDOWN response: {bye}"));
            }
            println!("server shut down");
        }
        Ok(())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Client mode: --connect ADDR [--clients N] [--repeat R] [--shutdown].
    if args.first().map(String::as_str) == Some("--connect") {
        let mut opts = client::Options {
            addr: String::new(),
            clients: 1,
            repeat: 1,
            shutdown: false,
            queries: Vec::new(),
            stream: None,
            range: 32,
            step: 8,
            ticks: 6,
        };
        let mut it = args.into_iter().skip(1);
        opts.addr = it.next().unwrap_or_else(|| {
            eprintln!("--connect needs HOST:PORT");
            std::process::exit(2);
        });
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--clients" => opts.clients = it.next().and_then(|v| v.parse().ok()).unwrap_or(1),
                "--repeat" => opts.repeat = it.next().and_then(|v| v.parse().ok()).unwrap_or(1),
                "--stream" => opts.stream = it.next(),
                "--range" => opts.range = it.next().and_then(|v| v.parse().ok()).unwrap_or(32),
                "--step" => opts.step = it.next().and_then(|v| v.parse().ok()).unwrap_or(8),
                "--ticks" => opts.ticks = it.next().and_then(|v| v.parse().ok()).unwrap_or(6),
                "--shutdown" => opts.shutdown = true,
                _ => opts.queries.push(arg),
            }
        }
        if opts.queries.is_empty() {
            opts.queries = default_queries();
        }
        if let Err(e) = client::run(&opts) {
            eprintln!("client error: {e}");
            std::process::exit(1);
        }
        return;
    }

    let queries: Vec<String> = if args.is_empty() {
        default_queries()
    } else {
        args
    };

    // One corpus, one scenario, one initialized system per queried category.
    let corpus = Corpus::synthetic(8_000, 0.25, 5);
    let profiler = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
    println!("corpus: {} frames | scenario: ONGOING\n", corpus.len());

    // Cache initialized systems per predicate kind.
    let mut systems: BTreeMap<ObjectKind, (tahoma::core::pipeline::TahomaSystem, SurrogateScorer)> =
        BTreeMap::new();

    for sql in &queries {
        println!("tahoma> {sql}");
        let query = match Query::parse(sql) {
            Ok(q) => q,
            Err(e) => {
                println!("  error: {e}\n");
                continue;
            }
        };
        // Initialize a system per content predicate on demand.
        for &kind in &query.content {
            systems.entry(kind).or_insert_with(|| {
                let pred = PredicateSpec::for_kind(kind);
                let cfg = SurrogateBuildConfig {
                    n_config: 300,
                    n_eval: 400,
                    seed: 31 ^ kind.index() as u64,
                    variants: Some(paper_variants().into_iter().step_by(8).collect()),
                    ..Default::default()
                };
                let scorer = SurrogateScorer {
                    pred,
                    params: cfg.params,
                    seed: cfg.seed,
                };
                let repo = build_surrogate_repository(pred, &cfg, &DeviceProfile::k80());
                (
                    tahoma::core::pipeline::TahomaSystem::initialize_paper_main(repo),
                    scorer,
                )
            });
        }
        if query.content.is_empty() {
            let survivors = corpus
                .items
                .iter()
                .filter(|i| query.metadata.iter().all(|p| p.holds(i)))
                .count();
            println!("  {survivors} rows (metadata only)\n");
            continue;
        }
        // Execute each content predicate with its own selected cascade.
        // (Multi-predicate planning in concert is the paper's future work;
        // we run them independently and intersect, as §IV describes.)
        let mut matched: Option<Vec<u64>> = None;
        let mut survivors = 0usize;
        for &kind in &query.content {
            let (system, scorer) = &systems[&kind];
            let chosen = system
                .select(
                    &profiler,
                    Constraints {
                        max_accuracy_loss: Some(0.02),
                        max_throughput_loss: None,
                    },
                )
                .expect("feasible cascade");
            let cost = CostContext::build(&system.repo, &profiler);
            let executor = VectorizedExecutor::new(&system.repo, &system.thresholds, &cost);
            let single = Query {
                table: query.table.clone(),
                metadata: query.metadata.clone(),
                content: vec![kind],
            };
            let mut cascades = BTreeMap::new();
            cascades.insert(kind, chosen.cascade);
            let mut scorer = SurrogateBatchScorer::new(scorer, &system.repo);
            let result = executor
                .execute(&single, &corpus, &cascades, &mut scorer)
                .expect("query executes");
            survivors = result.metadata_survivors;
            let rel = &result.relations[0];
            println!(
                "  contains_object({kind}): cascade [{}] -> {:.0} fps, relation accuracy {:.3}",
                chosen.description, rel.throughput_fps, rel.accuracy
            );
            matched = Some(match matched {
                None => result.matched_ids,
                Some(prev) => {
                    let set: std::collections::HashSet<u64> =
                        result.matched_ids.into_iter().collect();
                    prev.into_iter().filter(|id| set.contains(id)).collect()
                }
            });
        }
        let matched = matched.unwrap_or_default();
        println!(
            "  {} rows match (of {survivors} after metadata filter); first ids: {:?}\n",
            matched.len(),
            &matched[..matched.len().min(8)]
        );
    }
}
