//! TCP front end: fixed worker pool, bounded accept queue, load shedding.
//!
//! Admission control is deliberately simple and explicit: `workers`
//! threads each serve one connection at a time, and at most `queue_cap`
//! accepted connections wait in line. A connection arriving beyond that
//! gets a one-line `BUSY` and is closed — the server sheds load instead
//! of queueing without bound, so latency under overload stays flat for
//! the queries it does admit (and the shed count is visible via `STATS`).
//!
//! Shutdown is cooperative: any client sending `SHUTDOWN` gets `BYE`, the
//! stop flag flips, the acceptor is unblocked by a self-connection, and
//! every worker drains its current connection before exiting.
//! [`ServerHandle::join`] returns once all of that has happened.

use crate::protocol::{
    encode_outcome, encode_register, encode_serve_error, encode_stats, encode_stream_status,
    encode_tick, parse_request, Request,
};
use crate::service::{Deadline, ExecPolicy, QueryService, ServeError};
use crate::stream::StreamRegistry;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Connection-serving worker threads.
    pub workers: usize,
    /// Bounded accept queue: connections waiting beyond this are shed
    /// with `BUSY`.
    pub queue_cap: usize,
    /// Seed for the standing-query stream registry: registered streams
    /// derive their deterministic frame sequences from it, so two servers
    /// booted with the same seed serve identical streams.
    pub stream_seed: u64,
    /// Server-side deadline applied to every plain `QUERY`/`QUERYU` that
    /// the client did not wrap in an explicit `DEADLINE` verb. `None`
    /// (the default) leaves ad-hoc queries unbounded, matching the
    /// pre-deadline wire behaviour byte for byte.
    pub default_deadline_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 32,
            stream_seed: 0x57AE,
            default_deadline_ms: None,
        }
    }
}

/// Longest accepted request line in bytes, excluding the terminating
/// newline. Anything longer is answered with a one-line `ERR` and the
/// remainder of the oversized line is discarded so the connection resyncs
/// at the next newline — a client (or fuzzer) streaming garbage can never
/// grow server memory past this bound.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

struct Shared {
    service: Arc<QueryService>,
    streams: StreamRegistry,
    // LOCK-ORDER: 10 — held only to push/pop connections; query execution
    // (and every deeper lock) runs strictly after the guard is dropped.
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    queue_cap: usize,
    stop: AtomicBool,
    shed: AtomicU64,
    default_deadline_ms: Option<u64>,
}

/// A running server; dropping the handle does NOT stop it — send
/// `SHUTDOWN` (or call [`ServerHandle::shutdown`]) and [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections shed with `BUSY` so far.
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Request shutdown from the owning process (equivalent to a client
    /// `SHUTDOWN`).
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor.
        let _ = TcpStream::connect(self.addr);
        self.shared.queue_cv.notify_all();
    }

    /// Wait for the acceptor and every worker to exit.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Start serving `service` per `config`. Returns once the listener is
/// bound and the workers are up.
pub fn serve(service: Arc<QueryService>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        service,
        streams: StreamRegistry::new(config.stream_seed),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        queue_cap: config.queue_cap.max(1),
        stop: AtomicBool::new(false),
        shed: AtomicU64::new(0),
        default_deadline_ms: config.default_deadline_ms,
    });
    let mut threads = Vec::with_capacity(config.workers + 1);
    let mut spawn = |name: String, f: Box<dyn FnOnce() + Send>| -> std::io::Result<()> {
        threads.push(std::thread::Builder::new().name(name).spawn(f)?);
        Ok(())
    };
    let boot = || -> std::io::Result<()> {
        for i in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            spawn(
                format!("tahoma-serve-{i}"),
                Box::new(move || worker_loop(&shared)),
            )?;
        }
        let shared = Arc::clone(&shared);
        spawn(
            "tahoma-serve-accept".to_string(),
            Box::new(move || accept_loop(&listener, &shared)),
        )
    };
    if let Err(e) = boot() {
        // Partial boot: stop whatever did spawn before surfacing the
        // error, so no orphan worker outlives the failed `serve` call.
        shared.stop.store(true, Ordering::SeqCst);
        shared.queue_cv.notify_all();
        return Err(e);
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        if q.len() >= shared.queue_cap {
            drop(q);
            shared.shed.fetch_add(1, Ordering::Relaxed);
            let mut s = stream;
            let _ = s.write_all(b"BUSY\n");
            continue;
        }
        q.push_back(stream);
        drop(q);
        shared.queue_cv.notify_one();
    }
    // Wake every worker so they observe `stop`.
    shared.queue_cv.notify_all();
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some(stream) = stream else { return };
        serve_connection(stream, shared);
        if shared.stop.load(Ordering::SeqCst) {
            // Drain whatever is already queued, then exit.
            let empty = shared
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .is_empty();
            if empty {
                shared.queue_cv.notify_all();
                return;
            }
        }
    }
}

/// One bounded read from the wire.
enum ReadLine {
    /// A complete, UTF-8-valid line within [`MAX_LINE_BYTES`].
    Line(String),
    /// The line overran [`MAX_LINE_BYTES`]; the overflow was discarded up
    /// to (and including) the next newline, so the stream is resynced.
    TooLong,
    /// Bytes arrived but they were not valid UTF-8.
    NotUtf8,
    /// EOF or a non-retryable read error: drop the connection.
    Closed,
}

/// Read one newline-terminated line without ever buffering more than
/// [`MAX_LINE_BYTES`] of it — the bounded-input replacement for
/// `BufRead::lines`, which would happily grow a `String` as fast as a
/// hostile client can stream bytes.
fn read_bounded_line<R: BufRead>(reader: &mut R) -> ReadLine {
    let mut buf: Vec<u8> = Vec::new();
    let mut over = false;
    loop {
        // FAULT: the client connection drops mid-request; the worker must
        // abandon the line and recycle cleanly, never block or panic.
        if tahoma_faults::fire(tahoma_faults::site::PROTO_READ) {
            return ReadLine::Closed;
        }
        let available = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadLine::Closed,
        };
        if available.is_empty() {
            // EOF. A partial final line (no trailing newline) is served if
            // intact; an oversized one was already discarded.
            return match (over, buf.is_empty()) {
                (true, _) => ReadLine::TooLong,
                (false, true) => ReadLine::Closed,
                (false, false) => finish_line(buf),
            };
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            if !over && buf.len() + pos <= MAX_LINE_BYTES {
                buf.extend_from_slice(&available[..pos]);
            } else {
                over = true;
            }
            reader.consume(pos + 1);
            return if over {
                ReadLine::TooLong
            } else {
                finish_line(buf)
            };
        }
        let n = available.len();
        if !over && buf.len() + n <= MAX_LINE_BYTES {
            buf.extend_from_slice(available);
        } else {
            over = true;
        }
        reader.consume(n);
    }
}

fn finish_line(buf: Vec<u8>) -> ReadLine {
    match String::from_utf8(buf) {
        Ok(mut line) => {
            if line.ends_with('\r') {
                line.pop();
            }
            ReadLine::Line(line)
        }
        Err(_) => ReadLine::NotUtf8,
    }
}

/// Write one response line. Injection point for a client that vanished
/// between request and response.
fn respond(writer: &mut TcpStream, response: &str) -> std::io::Result<()> {
    // FAULT: the response write fails (peer reset / partial write); the
    // worker drops the connection and moves on.
    if let Some(e) = tahoma_faults::transient_io(tahoma_faults::site::PROTO_WRITE) {
        return Err(e);
    }
    writer.write_all(format!("{response}\n").as_bytes())
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let Ok(peer_read) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(peer_read);
    let mut writer = stream;
    loop {
        let line = match read_bounded_line(&mut reader) {
            ReadLine::Closed => break,
            ReadLine::TooLong => {
                let msg = format!("ERR request line exceeds {MAX_LINE_BYTES} bytes");
                if respond(&mut writer, &msg).is_err() {
                    break;
                }
                continue;
            }
            ReadLine::NotUtf8 => {
                if respond(&mut writer, "ERR request is not valid UTF-8").is_err() {
                    break;
                }
                continue;
            }
            ReadLine::Line(line) => line,
        };
        // FAULT: a stalled peer (or scheduler hiccup) delays the worker
        // between read and dispatch — surfaces queue/deadline interplay.
        tahoma_faults::stall(tahoma_faults::site::PROTO_STALL);
        let response = match parse_request(&line) {
            Err(e) => format!("ERR {e}"),
            Ok(Request::Ping) => "PONG".to_string(),
            Ok(Request::Stats) => {
                encode_stats(&shared.service.stats(), shared.shed.load(Ordering::Relaxed))
            }
            Ok(Request::Shutdown) => {
                let _ = respond(&mut writer, "BYE");
                shared.stop.store(true, Ordering::SeqCst);
                // Self-kick: unblock the acceptor so it re-checks `stop`.
                if let Ok(addr) = writer.local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                shared.queue_cv.notify_all();
                return;
            }
            Ok(Request::Query(sql)) => run_query(
                shared,
                &sql,
                ExecPolicy {
                    deadline: shared.default_deadline_ms.map(Deadline::in_ms),
                    ..ExecPolicy::default()
                },
            ),
            Ok(Request::QueryUncached(sql)) => run_query(
                shared,
                &sql,
                ExecPolicy {
                    use_plan_cache: false,
                    coalesce: false,
                    deadline: shared.default_deadline_ms.map(Deadline::in_ms),
                },
            ),
            Ok(Request::Deadline { ms, inner }) => {
                let deadline = Some(Deadline::in_ms(ms));
                match *inner {
                    Request::Query(sql) => run_query(
                        shared,
                        &sql,
                        ExecPolicy {
                            deadline,
                            ..ExecPolicy::default()
                        },
                    ),
                    Request::QueryUncached(sql) => run_query(
                        shared,
                        &sql,
                        ExecPolicy {
                            use_plan_cache: false,
                            coalesce: false,
                            deadline,
                        },
                    ),
                    // The parser only wraps QUERY/QUERYU; anything else here
                    // is a protocol bug, answered rather than panicked on.
                    _ => "ERR DEADLINE wraps QUERY or QUERYU only".to_string(),
                }
            }
            Ok(Request::Register {
                stream,
                range,
                step,
                sql,
            }) => guarded(shared, || {
                shared
                    .streams
                    .register(&shared.service, &stream, range, step, &sql)
                    .map(|r| encode_register(&r))
            }),
            Ok(Request::Tick(qid)) => guarded(shared, || {
                shared
                    .streams
                    .tick(&shared.service, qid)
                    .map(|t| encode_tick(&t))
            }),
            Ok(Request::Deltas(qid)) => guarded(shared, || {
                shared
                    .streams
                    .status(&shared.service, qid)
                    .map(|s| encode_stream_status(&s))
            }),
        };
        if respond(&mut writer, &response).is_err() {
            break;
        }
    }
}

fn run_query(shared: &Shared, sql: &str, policy: ExecPolicy) -> String {
    guarded(shared, || {
        shared
            .service
            .execute_with(sql, policy)
            .map(|o| encode_outcome(&o))
    })
}

/// Run one request handler, turning typed errors into single response
/// lines: [`ServeError::Timeout`] gets its own `TIMEOUT` verb via
/// [`encode_serve_error`]; everything else collapses to `ERR`. Failures on
/// the query path are values, so the `catch_unwind` is a backstop only — a
/// panic must still not take the worker thread down — and every one it
/// catches is counted (`STATS panics_caught`, asserted zero by the chaos
/// campaign).
fn guarded<F>(shared: &Shared, f: F) -> String
where
    F: FnOnce() -> Result<String, ServeError>,
{
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(line)) => line,
        Ok(Err(e)) => encode_serve_error(&e),
        Err(_) => {
            shared.service.note_panic_caught();
            "ERR internal: request execution panicked".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{finish_line, read_bounded_line, ReadLine, MAX_LINE_BYTES};
    use std::io::Cursor;

    fn read_all(bytes: &[u8]) -> Vec<ReadLine> {
        let mut reader = Cursor::new(bytes.to_vec());
        let mut out = Vec::new();
        loop {
            match read_bounded_line(&mut reader) {
                ReadLine::Closed => return out,
                other => out.push(other),
            }
        }
    }

    fn as_line(r: &ReadLine) -> Option<&str> {
        match r {
            ReadLine::Line(s) => Some(s),
            _ => None,
        }
    }

    #[test]
    fn short_lines_pass_through_and_crlf_is_stripped() {
        let got = read_all(b"PING\r\nSTATS\nlast-without-newline");
        assert_eq!(got.len(), 3);
        assert_eq!(as_line(&got[0]), Some("PING"));
        assert_eq!(as_line(&got[1]), Some("STATS"));
        assert_eq!(as_line(&got[2]), Some("last-without-newline"));
    }

    #[test]
    fn oversized_line_is_rejected_and_stream_resyncs() {
        let mut bytes = vec![b'x'; MAX_LINE_BYTES + 1];
        bytes.push(b'\n');
        bytes.extend_from_slice(b"PING\n");
        let got = read_all(&bytes);
        assert_eq!(got.len(), 2);
        assert!(matches!(got[0], ReadLine::TooLong));
        assert_eq!(as_line(&got[1]), Some("PING"));
    }

    #[test]
    fn exactly_max_bytes_is_still_a_line() {
        let mut bytes = vec![b'y'; MAX_LINE_BYTES];
        bytes.push(b'\n');
        let got = read_all(&bytes);
        assert_eq!(got.len(), 1);
        assert_eq!(as_line(&got[0]).map(str::len), Some(MAX_LINE_BYTES));
    }

    #[test]
    fn oversized_line_truncated_by_eof_is_still_too_long() {
        let bytes = vec![b'z'; MAX_LINE_BYTES + 100];
        let got = read_all(&bytes);
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0], ReadLine::TooLong));
    }

    #[test]
    fn invalid_utf8_is_flagged_without_killing_the_connection() {
        let got = read_all(b"\xff\xfe garbage\nPING\n");
        assert_eq!(got.len(), 2);
        assert!(matches!(got[0], ReadLine::NotUtf8));
        assert_eq!(as_line(&got[1]), Some("PING"));
    }

    #[test]
    fn finish_line_strips_one_trailing_cr_only() {
        match finish_line(b"a\r\r".to_vec()) {
            ReadLine::Line(s) => assert_eq!(s, "a\r"),
            _ => panic!("expected a line"),
        }
    }

    /// An NN-backed service whose store lacks the model's input
    /// representation and whose zoo names no source to re-derive it from:
    /// every content query hits a pack the backend cannot score.
    fn unscorable_service() -> crate::QueryService {
        use tahoma_core::exec::SharedModelZoo;
        use tahoma_core::pipeline::TahomaSystem;
        use tahoma_core::query::Corpus;
        use tahoma_core::BuilderConfig;
        use tahoma_costmodel::{AnalyticProfiler, DeviceProfile, Scenario};
        use tahoma_imagery::{ColorMode, ObjectKind, Representation, RepresentationStore};
        use tahoma_zoo::repository::{build_surrogate_repository, SurrogateBuildConfig};
        use tahoma_zoo::variant::cross_variants;
        use tahoma_zoo::{ArchSpec, ModelId, PredicateSpec};

        let rep = Representation::new(24, ColorMode::Gray);
        let arch = ArchSpec {
            conv_layers: 1,
            conv_nodes: 4,
            dense_nodes: 8,
        };
        let corpus = std::sync::Arc::new(Corpus::synthetic(8, 0.5, 1));
        let store =
            RepresentationStore::temporary(vec![Representation::new(32, ColorMode::Rgb)]).unwrap();
        for item in &corpus.items {
            store
                .ingest(item.id, &crate::fixture::frame(item.id, 64))
                .unwrap();
        }
        let mut variants = cross_variants(&[arch], &[rep]);
        for (i, v) in variants.iter_mut().enumerate() {
            v.id = ModelId(i as u32);
        }
        let repo = build_surrogate_repository(
            PredicateSpec::for_kind(ObjectKind::Fence),
            &SurrogateBuildConfig {
                n_config: 50,
                n_eval: 50,
                seed: 1,
                variants: Some(variants),
                ..Default::default()
            },
            &DeviceProfile::k80(),
        );
        let builder = BuilderConfig {
            pool: repo.specialized_ids(),
            reference: None,
            n_settings: 1,
            max_pool_depth: 1,
            with_reference_terminal: false,
        };
        let system = TahomaSystem::initialize(repo, &[0.95], &builder);
        let mut zoo = SharedModelZoo::new();
        zoo.register(ModelId(0), rep, arch.cnn_spec(rep).build(1).unwrap());
        let profiler = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
        let mut service = crate::QueryService::new(profiler, crate::fixture::ACCURACY_LOSS, corpus);
        service.add_nn_kind(
            ObjectKind::Fence,
            system,
            None,
            Vec::new(),
            std::sync::Arc::new(store),
            zoo,
        );
        service
    }

    #[test]
    fn unscorable_pack_is_a_typed_error_on_the_wire_not_a_caught_panic() {
        use std::io::{BufRead, Write};
        let service = std::sync::Arc::new(unscorable_service());
        let handle = super::serve(
            std::sync::Arc::clone(&service),
            super::ServerConfig::default(),
        )
        .unwrap();
        let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        let mut ask = |line: &str| {
            conn.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            resp.trim_end().to_string()
        };
        for verb in ["QUERY", "QUERYU"] {
            let resp = ask(&format!(
                "{verb} SELECT * FROM frames WHERE contains_object(fence)"
            ));
            assert!(
                resp.starts_with("ERR execution: scoring: item 0: no stored"),
                "{verb}: {resp}"
            );
        }
        // Metadata-only queries never touch the backend and still answer.
        assert!(ask("QUERY SELECT * FROM frames WHERE camera < 4").starts_with("OK n="));
        assert!(ask("STATS").ends_with(" panics_caught=0"));
        assert_eq!(service.stats().panics_caught, 0);
        // Workers drain their current connection before exiting: close ours.
        drop(reader);
        drop(conn);
        handle.shutdown();
        handle.join();
    }
}
