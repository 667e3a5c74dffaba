//! The end-to-end run: boot a real server process, check every reply,
//! drive one workload's closed loops over TCP, and read the server's cost
//! from `/proc`.

use crate::ops::{OpSource, Workload, FIXED_OPS_TIMEOUT_FACTOR, STANDING_REGISTER};
use crate::procfs;
use crate::reply::{self, QueryReply, Stats};
use crate::report::Report;
use crate::server::{Conn, Server, TempRoot};
use crate::stats::{self, Fnv};
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Stretches a measured phase of an end-to-end run is cut into. Between
/// two of them the load stops and one more server is booted on an empty
/// directory, so the boots `setup_s` is the fastest of lie ~10 s apart
/// across the whole run instead of in one cluster the box may be slow for.
const SEGMENTS: usize = 4;
/// The load generator may use at most this share of one core, or the run
/// measured the generator as much as the server.
const MAX_LOADGEN_CPU_SHARE: f64 = 0.25;
/// `STATS` counters that must not move during a measured phase.
const QUIET_COUNTERS: [&str; 4] = ["shed", "retries", "degraded_fetches", "timeouts"];

/// Where the server binary is and where scratch files may go.
pub struct Env {
    pub server_bin: PathBuf,
    pub tmp: TempRoot,
}

/// Per-text request lines and the `QUERYU` answers they must reproduce.
pub struct References {
    pub lines: Vec<String>,
    pub expected: Vec<QueryReply>,
}

/// Ask every distinct text once uncached and uncoalesced; every later
/// `QUERY` of the text must carry the same `n=` and `sum=`.
pub fn take_references(server: &Server, w: Workload) -> Result<References, String> {
    let mut conn = server.connect()?;
    let mut refs = References {
        lines: Vec::new(),
        expected: Vec::new(),
    };
    for text in w.texts() {
        let sql = text.sql();
        let reply = conn.request(&format!("QUERYU {sql}"))?;
        refs.expected
            .push(reply::parse_query(reply).map_err(|e| format!("reference {sql}: {e}"))?);
        refs.lines.push(format!("QUERY {sql}"));
    }
    Ok(refs)
}

/// `STATS` over a connection of its own, closed again at once: a worker
/// serves one connection at a time and `dashboards` needs all of them.
pub fn server_stats(server: &Server) -> Result<Stats, String> {
    reply::parse_stats(server.connect()?.request("STATS")?)
}

/// What one connection (or, merged, one phase) did.
#[derive(Debug, Default)]
pub struct Tally {
    /// Reply latency of every op that succeeded, send → full reply line.
    pub latencies_ms: Vec<f64>,
    /// When each of those replies was complete.
    pub done: Vec<Instant>,
    /// Text index of every attempted query op, in order.
    pub ops: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    digest: Option<(Fnv, usize)>,
    /// Sums over successful replies (the traced run's reply-side counts).
    pub survivors: u64,
    pub matches: u64,
    pub entered: u64,
    pub scored: u64,
}

impl Tally {
    fn with_digest(ops: usize) -> Tally {
        Tally {
            digest: Some((Fnv::default(), ops)),
            ..Tally::default()
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// A failed check that was not one of the counted ops.
    fn fail_check(&mut self, what: String) {
        self.attempted += 1;
        self.fail(what);
    }

    fn fold_sum(&mut self, sum: u64) {
        if let Some((fnv, left)) = &mut self.digest {
            if *left > 0 {
                fnv.push(sum);
                *left -= 1;
            }
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.survivors += other.survivors;
        self.matches += other.matches;
        self.entered += other.entered;
        self.scored += other.scored;
    }

    /// FNV over the leading replies' `sum=` fields, `None` when the phase
    /// ended before the fixed count was reached.
    pub fn result_digest(&self) -> Option<u64> {
        match self.digest {
            Some((fnv, 0)) => Some(fnv.0),
            _ => None,
        }
    }
}

/// One connection's request source and reply check.
enum Driver<'a> {
    Query {
        refs: &'a References,
        source: OpSource,
    },
    /// The standing window is rebuilt client-side from every `TICK`'s
    /// `added=` / `removed=` and must hash to the reply's `sum=`.
    Standing { tick: String, window: Vec<u64> },
}

impl Driver<'_> {
    /// Send one op and check its reply. `false` once the connection is
    /// unusable.
    fn step(&mut self, conn: &mut Conn, tally: &mut Tally) -> bool {
        match self {
            Driver::Query { refs, source } => {
                let idx = source.next().expect("query workloads have texts");
                tally.ops.push(idx);
                let want = refs.expected[idx];
                exchange(conn, &refs.lines[idx], tally, |reply, tally| {
                    let got = reply::parse_query(reply)?;
                    if (got.n, got.sum) != (want.n, want.sum) {
                        return Err(format!(
                            "n={} sum={:016x}, QUERYU said n={} sum={:016x}",
                            got.n, got.sum, want.n, want.sum
                        ));
                    }
                    tally.survivors += got.survivors;
                    tally.matches += got.n;
                    Ok(got.sum)
                })
            }
            Driver::Standing { tick, window } => exchange(conn, tick, tally, |reply, tally| {
                let got = reply::parse_tick(reply)?;
                stats::apply_deltas(window, &got.added, &got.removed);
                if window.len() as u64 != got.matched || stats::fnv1a64(window) != got.sum {
                    return Err(format!(
                        "tick {}: replayed window ({} ids) does not hash to sum={:016x}",
                        got.tick,
                        window.len(),
                        got.sum
                    ));
                }
                tally.entered += got.entered;
                tally.scored += got.scored;
                tally.matches += got.added.len() as u64;
                Ok(got.sum)
            }),
        }
    }
}

/// One timed request/reply exchange; `check` returns the reply's `sum=`
/// or why the reply is wrong. A wrong or missing reply is a failed op and
/// contributes no latency.
fn exchange(
    conn: &mut Conn,
    request: &str,
    tally: &mut Tally,
    check: impl FnOnce(&str, &mut Tally) -> Result<u64, String>,
) -> bool {
    tally.attempted += 1;
    let sent = Instant::now();
    let reply = match conn.request(request) {
        Ok(reply) => reply,
        Err(e) => {
            tally.fail(format!("{request}: {e}"));
            return false;
        }
    };
    let done = Instant::now();
    match check(reply, tally) {
        Ok(sum) => {
            tally.latencies_ms.push((done - sent).as_secs_f64() * 1e3);
            tally.done.push(done);
            tally.fold_sum(sum);
        }
        Err(e) => tally.fail(format!("{request}: {e} (reply: {reply})")),
    }
    true
}

/// A measured phase: every connection's tally merged, plus what the phase
/// cost each process and the server's counters either side of it.
pub struct Phase {
    pub tally: Tally,
    /// Sum over the segments of the longest measured loop of any connection
    /// (the pauses between segments are not in it).
    pub wall_s: f64,
    pub server_cpu_ms: f64,
    pub loadgen_cpu_ms: f64,
    /// `STATS` before the first warm-up op and after the last measured op.
    pub before: Stats,
    pub after: Stats,
    /// Unmeasured warm-up ops inside the `STATS` window, all connections.
    pub warmup_ops: u64,
    /// Every window of the phase; at least one whenever an op succeeded.
    pub windows: Vec<Window>,
    /// Boot time of the server booted in each pause between two segments.
    pub pause_boots_s: Vec<f64>,
}

impl Phase {
    pub fn succeeded(&self) -> u64 {
        self.tally.attempted - self.tally.failed
    }
}

/// One stretch of a measured phase between two checkpoints of connection
/// 0: what every connection completed meanwhile and what it cost the
/// server. Connection 0 checkpoints after every stride of its ops and a
/// window is a fixed number of strides long ([`Workload::window`]), so
/// windows overlap and one starts every stride.
///
/// On a shared box a neighbour slows the CPU by a third for stretches of
/// 0.3–30 s that cover anything from a tenth to most of a run, so
/// whole-phase timings repeat no better than 10–35% (README, "Noise").
/// The stretches the neighbour left alone do repeat, so each gated timing
/// is the best any window reached; the whole-phase numbers are printed
/// beside them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub wall_s: f64,
    /// Ops that succeeded, all connections.
    pub ops: u64,
    pub server_cpu_ms: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
}

impl Window {
    fn new(wall_s: f64, server_cpu_ms: f64, latencies_ms: &mut [f64]) -> Window {
        stats::sort(latencies_ms);
        Window {
            wall_s,
            ops: latencies_ms.len() as u64,
            server_cpu_ms,
            p50_ms: stats::percentile(latencies_ms, 0.50),
            p90_ms: stats::percentile(latencies_ms, 0.90),
        }
    }
}

/// Every window of `strides` consecutive strides within one segment's
/// `checkpoints` (time, server CPU ms so far). `done` and `latencies_ms`
/// are the phase's successful ops in any order; an op belongs to the
/// windows its reply completed in. A stretch in which no op completed is
/// no window.
pub fn windows(
    checkpoints: &[(Instant, f64)],
    strides: usize,
    done: &[Instant],
    latencies_ms: &[f64],
) -> Vec<Window> {
    let mut ops: Vec<(Instant, f64)> = done
        .iter()
        .copied()
        .zip(latencies_ms.iter().copied())
        .collect();
    ops.sort_by_key(|&(at, _)| at);
    let mut windows = Vec::new();
    for (from, to) in checkpoints.iter().zip(checkpoints.iter().skip(strides)) {
        let first = ops.partition_point(|&(at, _)| at <= from.0);
        let end = ops.partition_point(|&(at, _)| at <= to.0);
        let mut lat: Vec<f64> = ops[first..end].iter().map(|&(_, ms)| ms).collect();
        if !lat.is_empty() {
            let wall_s = (to.0 - from.0).as_secs_f64();
            windows.push(Window::new(wall_s, to.1 - from.1, &mut lat));
        }
    }
    windows
}

/// What connection 0 notes about one segment, besides its ops.
#[derive(Default)]
struct SegmentNotes {
    /// (time, server CPU ms so far) at the start and after every stride of
    /// connection 0's ops.
    checkpoints: Vec<(Instant, f64)>,
    /// Over the segment, from after the start barrier to after the end one.
    server_cpu_ms: f64,
    loadgen_cpu_ms: f64,
}

/// What a connection thread hands back.
struct ConnResult {
    tally: Tally,
    /// Measured loop per segment.
    elapsed_s: Vec<f64>,
    /// `standing`: the `DELTAS` request and the client-side window.
    standing: Option<(String, Vec<u64>)>,
    /// Connection 0 only.
    segments: Vec<SegmentNotes>,
    pause_boots_s: Vec<f64>,
}

/// Boot one more server on an empty directory of its own, shut it down
/// again and return how long the boot took.
pub fn side_boot(env: &Env, name: &str) -> Result<f64, String> {
    let (server, dir) = boot_fresh(env, name)?;
    let boot_s = server.boot_s;
    server.shutdown()?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(boot_s)
}

/// Drive `conns` closed loops: connect, warm up unmeasured, start together
/// on a barrier. A time-bound workload runs for `seconds`; a count-bound
/// one (`standing`) runs its fixed op count, and the clock only guards
/// against a hung run — ops it cuts off are failed ops. With `pauses` the
/// phase is cut into [`SEGMENTS`] equal segments; between two of them
/// every connection waits while connection 0 times a [`side_boot`].
pub fn run_phase(
    server: &Server,
    w: Workload,
    conns: usize,
    seed: u64,
    seconds: f64,
    refs: &References,
    pauses: Option<&Env>,
) -> Result<Phase, String> {
    let segments = if pauses.is_some() { SEGMENTS } else { 1 };
    let fixed = w.fixed_ops(seconds);
    let limit = Duration::from_secs_f64(match fixed {
        Some(_) => seconds * FIXED_OPS_TIMEOUT_FACTOR,
        None => seconds,
    }) / segments as u32;
    let (stride_ops, strides) = w.window();
    let barrier = Barrier::new(conns);
    let pid = &server.pid();
    let before = server_stats(server)?;
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<ConnResult, String> {
                    let ready = (|| {
                        let mut conn = server.connect()?;
                        let mut driver = match w {
                            Workload::Standing => {
                                let qid = reply::parse_register(conn.request(STANDING_REGISTER)?)?;
                                Driver::Standing {
                                    tick: format!("TICK {qid}"),
                                    window: Vec::new(),
                                }
                            }
                            _ => Driver::Query {
                                refs,
                                source: w.op_source(seed, c),
                            },
                        };
                        let mut warm = Tally::default();
                        for _ in 0..w.warmup(seed) {
                            if !driver.step(&mut conn, &mut warm) {
                                break;
                            }
                        }
                        Ok::<_, String>((conn, driver, warm))
                    })();
                    let (mut conn, mut driver, warm) = match ready {
                        Ok(ready) => ready,
                        Err(e) => {
                            // The others wait for this thread at every barrier.
                            for _ in 0..2 * segments {
                                barrier.wait();
                            }
                            return Err(e);
                        }
                    };
                    let mut tally = if c == 0 {
                        Tally::with_digest(w.digest_ops())
                    } else {
                        Tally::default()
                    };
                    let mut alive = true;
                    let mut elapsed_s = Vec::new();
                    let mut notes = Vec::new();
                    let mut pause_boots = Vec::new();
                    let cpu_now = || -> Result<(f64, f64), String> {
                        Ok((procfs::thread_cpu_ms(pid)?, procfs::cpu_ms("self")?))
                    };
                    let mut cpu_error = None;
                    for segment in 0..segments {
                        barrier.wait();
                        let mut seg = SegmentNotes::default();
                        let cpu_before = (c == 0).then(cpu_now);
                        let mut checkpoint = |at: Instant| {
                            if let Ok(cpu_ms) = procfs::thread_cpu_ms(pid) {
                                seg.checkpoints.push((at, cpu_ms));
                            }
                        };
                        let target = fixed.map(|n| n * (segment as u64 + 1) / segments as u64);
                        let start = Instant::now();
                        if c == 0 {
                            checkpoint(start);
                        }
                        while alive && target != Some(tally.attempted) && start.elapsed() < limit {
                            alive = driver.step(&mut conn, &mut tally);
                            if c == 0 && tally.attempted % stride_ops == 0 {
                                checkpoint(Instant::now());
                            }
                        }
                        elapsed_s.push(start.elapsed().as_secs_f64());
                        barrier.wait();
                        // From here to the next barrier the others wait.
                        let Some(cpu_before) = cpu_before else {
                            continue;
                        };
                        match (cpu_before, cpu_now()) {
                            (Ok(before), Ok(after)) => {
                                seg.server_cpu_ms = after.0 - before.0;
                                seg.loadgen_cpu_ms = after.1 - before.1;
                            }
                            (Err(e), _) | (_, Err(e)) => cpu_error = Some(e),
                        }
                        notes.push(seg);
                        if let (Some(env), true) = (pauses, segment + 1 < segments) {
                            pause_boots.push(side_boot(env, &format!("pause-{segment}")));
                        }
                    }
                    if let Some(e) = cpu_error {
                        return Err(e);
                    }
                    if let Some(count) = fixed.filter(|&count| tally.attempted < count) {
                        let unsent = count - tally.attempted;
                        tally.attempted = count;
                        tally.failed += unsent;
                        tally.errors.push(format!(
                            "{unsent} of {count} ops not sent within {:.1} s",
                            elapsed_s.iter().sum::<f64>()
                        ));
                    }
                    // A failed warm-up op fails the run like a measured one.
                    tally.attempted += warm.failed;
                    tally.failed += warm.failed;
                    tally.errors.extend(warm.errors);
                    Ok(ConnResult {
                        tally,
                        elapsed_s,
                        segments: notes,
                        pause_boots_s: pause_boots.into_iter().collect::<Result<_, _>>()?,
                        standing: match driver {
                            Driver::Standing { tick, window } => {
                                Some((tick.replace("TICK", "DELTAS"), window))
                            }
                            Driver::Query { .. } => None,
                        },
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect::<Result<Vec<ConnResult>, String>>()
    })?;
    // Every connection is closed by now, so a worker is free for `STATS`.
    let after = server_stats(server)?;
    let mut tally: Option<Tally> = None;
    let mut segment_wall_s = vec![0.0f64; segments];
    let mut notes = Vec::new();
    let mut pause_boots_s = Vec::new();
    for mut result in results {
        for (wall, elapsed) in segment_wall_s.iter_mut().zip(&result.elapsed_s) {
            *wall = wall.max(*elapsed);
        }
        notes.append(&mut result.segments);
        pause_boots_s.append(&mut result.pause_boots_s);
        let merged = match &mut tally {
            None => tally.insert(result.tally),
            Some(merged) => {
                merged.absorb(result.tally);
                merged
            }
        };
        if let Some((deltas, window)) = result.standing {
            // Server-side incremental ≡ rescan, and both ≡ the client-side
            // replay. Asked after `after` was read: the rescan scores a
            // whole window through the broker.
            let answer = server
                .connect()?
                .request(&deltas)
                .and_then(reply::parse_deltas);
            match answer {
                Ok(d) if d.agree && d.sum == stats::fnv1a64(&window) => {}
                Ok(d) => merged.fail_check(format!("{deltas}: disagreement: {d:?}")),
                Err(e) => merged.fail_check(format!("{deltas}: {e}")),
            }
        }
    }
    let tally = tally.ok_or("zero connections requested")?;
    let wall_s: f64 = segment_wall_s.iter().sum();
    let server_cpu_ms: f64 = notes.iter().map(|seg| seg.server_cpu_ms).sum();
    let mut windows: Vec<Window> = notes
        .iter()
        .flat_map(|seg| windows(&seg.checkpoints, strides, &tally.done, &tally.latencies_ms))
        .collect();
    if windows.is_empty() && !tally.latencies_ms.is_empty() {
        // A phase with no segment as long as a window is its own window.
        let mut lat = tally.latencies_ms.clone();
        windows.push(Window::new(wall_s, server_cpu_ms, &mut lat));
    }
    Ok(Phase {
        windows,
        tally,
        wall_s,
        server_cpu_ms,
        loadgen_cpu_ms: notes.iter().map(|seg| seg.loadgen_cpu_ms).sum(),
        before,
        after,
        warmup_ops: conns as u64 * w.warmup(seed),
        pause_boots_s,
    })
}

/// Boot a server on a fresh, empty store directory (corpus ingest, zoo
/// build, threshold calibration). Returns it and the directory.
pub fn boot_fresh(env: &Env, name: &str) -> Result<(Server, PathBuf), String> {
    let dir = env.tmp.subdir(name)?;
    let server = Server::boot(&env.server_bin, &dir)?;
    Ok((server, dir))
}

/// Counters that must stay still while a phase runs; returns a complaint
/// per counter that moved.
pub fn moved_counters(before: &Stats, after: &Stats) -> Result<Vec<String>, String> {
    let mut moved = Vec::new();
    for key in QUIET_COUNTERS {
        let delta = after.delta(before, key)?;
        if delta != 0 {
            moved.push(format!(
                "STATS {key} moved by {delta} during the measured phase"
            ));
        }
    }
    Ok(moved)
}

fn list(values: &[f64]) -> String {
    let texts: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    texts.join(" ")
}

/// The `--trace 0` run: every end-to-end metric of one workload.
pub fn run(env: &Env, w: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let (server, store_dir) = boot_fresh(env, "store")?;
    let mut boots = vec![server.boot_s];
    let refs = take_references(&server, w)?;
    let rss_alone_mib = procfs::hwm_mib(&server.pid())?;
    let phase = run_phase(
        &server,
        w,
        w.connections(),
        seed,
        seconds as f64,
        &refs,
        Some(env),
    )?;
    boots.extend(&phase.pause_boots_s);
    let rss_end_mib = procfs::hwm_mib(&server.pid())?;
    // Where connections overlap the peak ratchets at random for the whole
    // phase (README, Quirks) and no reading of it repeats within 10%. A
    // number that does not repeat is printed, not gated: on `dashboards`
    // the gated peak is the one before the connections overlap.
    let rss_mib = if w.connections() > 1 {
        rss_alone_mib
    } else {
        rss_end_mib
    };
    server.shutdown()?;
    let store_mib = procfs::dir_mib(&store_dir).map_err(|e| format!("store dir: {e}"))?;

    // Reopen the directory the measured phase left behind.
    let server = Server::boot(&env.server_bin, &store_dir)?;
    let reopen_s = server.boot_s;
    let first_sql = format!("QUERY {}", Workload::Lookup.texts()[0].sql());
    let mut conn = server.connect()?;
    let sent = Instant::now();
    reply::parse_query(conn.request(&first_sql)?)?;
    let first_query_ms = sent.elapsed().as_secs_f64() * 1e3;
    drop(conn);
    server.shutdown()?;
    boots.push(side_boot(env, "after")?);

    let mut problems = phase.tally.errors.clone();
    problems.extend(moved_counters(&phase.before, &phase.after)?);
    let loadgen_share = phase.loadgen_cpu_ms / (phase.wall_s * 1e3);
    if loadgen_share > MAX_LOADGEN_CPU_SHARE {
        problems.push(format!(
            "load generator used {loadgen_share:.2} of a core (limit {MAX_LOADGEN_CPU_SHARE})"
        ));
    }
    let ok = phase.succeeded();
    if ok == 0 {
        return Err(format!("no op succeeded: {problems:?}"));
    }
    let mut lat = phase.tally.latencies_ms.clone();
    stats::sort(&mut lat);

    let mut report = Report::new(w.name(), phase.tally.attempted, phase.tally.failed);
    // The fastest boot and the best window (see [`Window`]): the box runs
    // at one of two speeds, and only the fast one repeats.
    let least = |values: Vec<f64>| values.into_iter().fold(f64::INFINITY, f64::min);
    let best = |of: fn(&Window) -> f64| least(phase.windows.iter().map(of).collect());
    report.metric("setup_s", least(boots.clone()), "s");
    report.metric("latency_p50_ms", best(|win| win.p50_ms), "ms");
    report.metric("latency_p90_ms", best(|win| win.p90_ms), "ms");
    report.metric(
        "throughput_qps",
        1.0 / best(|win| win.wall_s / win.ops as f64),
        "1/s",
    );
    report.metric(
        "server_cpu_ms_per_op",
        best(|win| win.server_cpu_ms / win.ops as f64),
        "ms",
    );
    report.metric("server_rss_mb", rss_mib, "MiB");
    report.metric("store_mb", store_mib, "MiB");

    report.note("seed", seed);
    report.note("connections", w.connections());
    report.note("ops_succeeded", ok);
    report.note("measured_wall_s", format!("{:.3}", phase.wall_s));
    report.note("setup_samples_s", list(&boots));
    report.note("reopen_s", format!("{reopen_s:.4}"));
    report.note("first_query_ms", format!("{first_query_ms:.4}"));
    report.note("server_rss_end_mb", format!("{rss_end_mib:.4}"));
    let (stride_ops, strides) = w.window();
    report.note(
        "windows",
        format!(
            "{} of {} ops of connection 0, one every {stride_ops}",
            phase.windows.len(),
            stride_ops * strides as u64,
        ),
    );
    report.note(
        "whole_phase_throughput_qps",
        format!("{:.4}", ok as f64 / phase.wall_s),
    );
    report.note(
        "whole_phase_server_cpu_ms_per_op",
        format!("{:.4}", phase.server_cpu_ms / ok as f64),
    );
    for (name, q) in [
        ("whole_phase_latency_p50_ms", 0.50),
        ("whole_phase_latency_p90_ms", 0.90),
        ("whole_phase_latency_p95_ms", 0.95),
        ("whole_phase_latency_p99_ms", 0.99),
    ] {
        let text = match stats::guarded_percentile(&lat, q) {
            Some(value) => format!("{value:.4}"),
            None => format!("n/a (<{} samples beyond it)", stats::MIN_BEYOND),
        };
        report.note(name, text);
    }
    report.note("loadgen_cpu_share", format!("{loadgen_share:.4}"));
    report.note(
        "result_digest",
        match phase.tally.result_digest() {
            Some(d) => format!("{d:016x} (first {} ops)", w.digest_ops()),
            None => format!("n/a (the phase held fewer than {} ops)", w.digest_ops()),
        },
    );
    report.note(
        "nproc",
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    report.problems = problems;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_take_each_op_in_the_stretches_its_reply_completed_in() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let checkpoints = [
            (at(0), 100.0),
            (at(1000), 600.0),
            (at(2000), 900.0),
            (at(3000), 910.0),
        ];
        // Pooled from two connections, so not in time order; the op done
        // at 0 ms belongs to the warm-up and the one at 3500 ms to no
        // complete window.
        let done = [
            at(1500),
            at(400),
            at(0),
            at(1000),
            at(1001),
            at(3500),
            at(900),
        ];
        let lat = [7.0, 1.0, 99.0, 3.0, 5.0, 99.0, 2.0];
        let one = windows(&checkpoints, 1, &done, &lat);
        assert_eq!(one.len(), 2, "the stretch without an op is no window");
        assert_eq!((one[0].ops, one[0].wall_s), (3, 1.0));
        assert_eq!((one[0].p50_ms, one[0].p90_ms), (2.0, 3.0));
        assert_eq!(one[0].server_cpu_ms, 500.0);
        assert_eq!((one[1].ops, one[1].p50_ms, one[1].p90_ms), (2, 5.0, 7.0));
        assert_eq!(one[1].server_cpu_ms, 300.0);
        // Two strides long, one starting every stride: they overlap.
        let two = windows(&checkpoints, 2, &done, &lat);
        assert_eq!(two.len(), 2);
        assert_eq!((two[0].ops, two[0].wall_s), (5, 2.0));
        assert_eq!((two[0].p50_ms, two[0].p90_ms), (3.0, 7.0));
        assert_eq!(two[0].server_cpu_ms, 800.0);
        assert_eq!((two[1].ops, two[1].server_cpu_ms), (2, 310.0));
        assert!(windows(&checkpoints[..2], 2, &done, &lat).is_empty());
    }
}
