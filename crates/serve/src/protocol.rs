//! The wire protocol: UTF-8 lines over TCP, one request per line.
//!
//! Requests:
//!
//! ```text
//! QUERY <sql>          execute under the service's default policy
//! QUERYU <sql>         execute uncached/uncoalesced (A/B baseline)
//! DEADLINE <ms> <QUERY|QUERYU ...>
//!                      execute with a server-side budget: past <ms>
//!                      milliseconds the query stops at the next predicate
//!                      boundary and answers TIMEOUT instead of OK
//! REGISTER <stream> RANGE <n> STEP <n> <sql>
//!                      register a standing continuous query over a live
//!                      stream (coral | jackson) with a sliding count
//!                      window; returns its qid
//! TICK <qid>           ingest the standing query's next STEP frames and
//!                      slide its window once; returns the result delta
//! DELTAS <qid>         cumulative standing-query state + server-side
//!                      incremental-vs-rescan equivalence check
//! PING                 liveness probe
//! STATS                service counters
//! SHUTDOWN             stop the server (connection gets BYE first)
//! ```
//!
//! Responses (one line each):
//!
//! ```text
//! OK n=<matches> survivors=<m> plan=<hit|miss> sum=<fnv64 of ids, hex>
//!    [degraded=<n>]    (only when n > 0: pack slots served through the
//!                       quarantine fallback — results still exact)
//! OK qid=<id> stream=<name> range=<n> step=<n>     (REGISTER)
//! OK qid=<id> tick=<t> window=<s>..<e> matched=<m> entered=<n> \
//!    scored=<n> sum=<hex> added=<ids|-> removed=<ids|->   (TICK)
//! OK qid=<id> ticks=<t> window=<s>..<e> matched=<m> scored=<n> \
//!    sum=<hex> rescan=<hex> agree=<yes|no> [state=degraded]  (DELTAS)
//! OK queries=... plan_hits=... plan_misses=... broker_calls=... \
//!    broker_merged=... broker_rows=... shed=... retries=... \
//!    timeouts=... degraded_fetches=... quarantined=... \
//!    broker_failovers=... panics_caught=...           (STATS)
//! PONG
//! BYE
//! BUSY                 shed at admission (queue full); retry later
//! TIMEOUT budget_ms=<n>   deadline expired (clean stop, not a failure)
//! ERR <message>
//! ```
//!
//! `sum` is an order-sensitive FNV-1a 64 over the matched ids, so clients
//! (and the CI smoke jobs) can verify that every replica of a query —
//! serial, concurrent, coalesced, or a standing window reconstructed
//! tick-by-tick from `added`/`removed` deltas — produced identical
//! results without shipping the id list. (`TICK` does ship the delta ids:
//! they are the standing query's output.)

use crate::service::{ServeOutcome, ServiceStats};
use crate::stream::{RegisterReport, StreamStatus, TickReport};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Execute SQL under the default policy.
    Query(String),
    /// Execute SQL with plan cache and coalescing disabled.
    QueryUncached(String),
    /// Execute the wrapped query under a millisecond budget.
    Deadline {
        /// Budget in milliseconds.
        ms: u64,
        /// The wrapped request (`Query` or `QueryUncached` only).
        inner: Box<Request>,
    },
    /// Register a standing continuous query over a live stream.
    Register {
        /// Stream name (`coral` or `jackson`).
        stream: String,
        /// Window width in arrivals.
        range: u64,
        /// Arrivals per tick.
        step: u64,
        /// The standing SQL query.
        sql: String,
    },
    /// Slide a standing query's window one step.
    Tick(u64),
    /// Report a standing query's cumulative state.
    Deltas(u64),
    /// Liveness probe.
    Ping,
    /// Service counters.
    Stats,
    /// Stop the server.
    Shutdown,
}

/// Parse one request line. Errors are human-readable and become `ERR`
/// responses verbatim.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "QUERY" if !rest.is_empty() => Ok(Request::Query(rest.to_string())),
        "QUERYU" if !rest.is_empty() => Ok(Request::QueryUncached(rest.to_string())),
        "QUERY" | "QUERYU" => Err("empty query".to_string()),
        "DEADLINE" => parse_deadline(rest),
        "REGISTER" => parse_register(rest),
        "TICK" => parse_qid(rest).map(Request::Tick),
        "DELTAS" => parse_qid(rest).map(Request::Deltas),
        "PING" => Ok(Request::Ping),
        "STATS" => Ok(Request::Stats),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "" => Err("empty request".to_string()),
        other => Err(format!("unknown verb {other}")),
    }
}

/// Split the leading whitespace-delimited word off `s`.
fn split_word(s: &str) -> Option<(&str, &str)> {
    let t = s.trim_start();
    if t.is_empty() {
        return None;
    }
    match t.split_once(char::is_whitespace) {
        Some((w, rest)) => Some((w, rest)),
        None => Some((t, "")),
    }
}

fn parse_register(rest: &str) -> Result<Request, String> {
    const USAGE: &str = "usage: REGISTER <stream> RANGE <n> STEP <n> <sql>";
    let (stream, rest) = split_word(rest).ok_or(USAGE)?;
    let (kw_range, rest) = split_word(rest).ok_or(USAGE)?;
    let (range, rest) = split_word(rest).ok_or(USAGE)?;
    let (kw_step, rest) = split_word(rest).ok_or(USAGE)?;
    let (step, sql) = split_word(rest).ok_or(USAGE)?;
    if !kw_range.eq_ignore_ascii_case("RANGE") || !kw_step.eq_ignore_ascii_case("STEP") {
        return Err(USAGE.to_string());
    }
    let range: u64 = range.parse().map_err(|_| format!("bad RANGE '{range}'"))?;
    let step: u64 = step.parse().map_err(|_| format!("bad STEP '{step}'"))?;
    let sql = sql.trim();
    if sql.is_empty() {
        return Err("empty standing query".to_string());
    }
    Ok(Request::Register {
        stream: stream.to_string(),
        range,
        step,
        sql: sql.to_string(),
    })
}

fn parse_deadline(rest: &str) -> Result<Request, String> {
    const USAGE: &str = "usage: DEADLINE <ms> <QUERY|QUERYU ...>";
    let (ms, inner_line) = split_word(rest).ok_or(USAGE)?;
    let ms: u64 = ms.parse().map_err(|_| format!("bad deadline '{ms}' ms"))?;
    if ms == 0 {
        return Err("deadline must be >= 1 ms".to_string());
    }
    match parse_request(inner_line)? {
        inner @ (Request::Query(_) | Request::QueryUncached(_)) => Ok(Request::Deadline {
            ms,
            inner: Box::new(inner),
        }),
        _ => Err("DEADLINE wraps QUERY or QUERYU only".to_string()),
    }
}

fn parse_qid(rest: &str) -> Result<u64, String> {
    rest.trim()
        .parse()
        .map_err(|_| format!("bad standing-query id '{}'", rest.trim()))
}

/// Order-sensitive FNV-1a 64 over a sequence of ids.
pub fn fnv1a64(ids: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &id in ids {
        for byte in id.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Encode a successful query outcome. The `degraded=` field only appears
/// when the query actually degraded, so healthy responses are unchanged
/// byte for byte.
pub fn encode_outcome(out: &ServeOutcome) -> String {
    let mut line = format!(
        "OK n={} survivors={} plan={} sum={:016x}",
        out.matched_ids.len(),
        out.metadata_survivors,
        if out.plan_hit { "hit" } else { "miss" },
        fnv1a64(&out.matched_ids),
    );
    if out.degraded > 0 {
        line.push_str(&format!(" degraded={}", out.degraded));
    }
    line
}

/// Encode a service error: an expired deadline gets its own well-formed
/// `TIMEOUT` response (a clean stop, distinguishable from failure);
/// everything else is an `ERR` line.
pub fn encode_serve_error(e: &crate::service::ServeError) -> String {
    match e {
        crate::service::ServeError::Timeout { budget_ms } => {
            format!("TIMEOUT budget_ms={budget_ms}")
        }
        other => format!("ERR {other}"),
    }
}

/// Comma-joined id list, `-` when empty (so the line always has the same
/// field count).
fn encode_ids(ids: &[u64]) -> String {
    if ids.is_empty() {
        "-".to_string()
    } else {
        ids.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
    }
}

/// Encode a successful `REGISTER`.
pub fn encode_register(r: &RegisterReport) -> String {
    format!(
        "OK qid={} stream={} range={} step={}",
        r.qid, r.stream, r.range, r.step
    )
}

/// Encode a successful `TICK`: the slide's delta ids ride at the end of
/// the line so the fixed-position fields parse the same way every tick.
pub fn encode_tick(t: &TickReport) -> String {
    format!(
        "OK qid={} tick={} window={}..{} matched={} entered={} scored={} sum={:016x} \
         added={} removed={}",
        t.qid,
        t.deltas.tick,
        t.deltas.window_start,
        t.deltas.window_end,
        t.matched,
        t.deltas.entered,
        t.deltas.scored,
        t.sum,
        encode_ids(&t.deltas.added),
        encode_ids(&t.deltas.removed),
    )
}

/// Encode a successful `DELTAS`. The `state=degraded` marker only appears
/// on quarantined standing queries, so healthy status lines are unchanged.
pub fn encode_stream_status(s: &StreamStatus) -> String {
    let mut line = format!(
        "OK qid={} ticks={} window={}..{} matched={} scored={} sum={:016x} rescan={:016x} \
         agree={}",
        s.qid,
        s.ticks,
        s.window_start,
        s.window_end,
        s.matched,
        s.scored,
        s.sum,
        s.rescan_sum,
        if s.agree { "yes" } else { "no" },
    );
    if s.degraded {
        line.push_str(" state=degraded");
    }
    line
}

/// Encode the `STATS` response. `shed` is the server's admission-control
/// counter (the service itself never sheds).
pub fn encode_stats(stats: &ServiceStats, shed: u64) -> String {
    format!(
        "OK queries={} plan_hits={} plan_misses={} broker_calls={} broker_merged={} \
         broker_rows={} shed={} retries={} timeouts={} degraded_fetches={} quarantined={} \
         broker_failovers={} panics_caught={}",
        stats.queries,
        stats.plan_hits,
        stats.plan_misses,
        stats.broker.calls,
        stats.broker.merged_calls,
        stats.broker.rows,
        shed,
        stats.store.retries,
        stats.timeouts,
        stats.store.degraded_fetches,
        stats.store.quarantined,
        stats.broker.failovers,
        stats.panics_caught,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_verbs_case_insensitively() {
        assert_eq!(
            parse_request("query SELECT * FROM f").unwrap(),
            Request::Query("SELECT * FROM f".into())
        );
        assert_eq!(parse_request("  PING  ").unwrap(), Request::Ping);
        assert_eq!(parse_request("shutdown").unwrap(), Request::Shutdown);
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert!(parse_request("QUERY").is_err());
        assert!(parse_request("NOPE x").is_err());
        assert!(parse_request("").is_err());
    }

    #[test]
    fn parses_streaming_verbs() {
        assert_eq!(
            parse_request("REGISTER coral RANGE 32 STEP 8 SELECT * FROM frames WHERE x = 1")
                .unwrap(),
            Request::Register {
                stream: "coral".into(),
                range: 32,
                step: 8,
                sql: "SELECT * FROM frames WHERE x = 1".into(),
            }
        );
        assert_eq!(
            parse_request("register jackson range 4 step 4 q").unwrap(),
            Request::Register {
                stream: "jackson".into(),
                range: 4,
                step: 4,
                sql: "q".into(),
            }
        );
        assert_eq!(parse_request("TICK 3").unwrap(), Request::Tick(3));
        assert_eq!(parse_request("DELTAS 7").unwrap(), Request::Deltas(7));
        assert!(parse_request("REGISTER coral RANGE 32 STEP 8").is_err());
        assert!(parse_request("REGISTER coral RANGE x STEP 8 q").is_err());
        assert!(parse_request("REGISTER coral STEP 8 RANGE 4 q").is_err());
        assert!(parse_request("TICK").is_err());
        assert!(parse_request("DELTAS x").is_err());
    }

    #[test]
    fn stream_encodings_are_one_line() {
        use tahoma_core::continuous::TickDeltas;
        let tick = encode_tick(&TickReport {
            qid: 2,
            matched: 2,
            sum: 0xABCD,
            deltas: TickDeltas {
                tick: 5,
                window_start: 8,
                window_end: 40,
                added: vec![3, 9],
                removed: vec![],
                matched: 2,
                entered: 8,
                scored: 8,
            },
        });
        assert_eq!(
            tick,
            "OK qid=2 tick=5 window=8..40 matched=2 entered=8 scored=8 \
             sum=000000000000abcd added=3,9 removed=-"
        );
        let mut st = StreamStatus {
            qid: 2,
            ticks: 5,
            window_start: 8,
            window_end: 40,
            matched: 2,
            scored: 40,
            sum: 1,
            rescan_sum: 1,
            agree: true,
            degraded: false,
        };
        let status = encode_stream_status(&st);
        assert!(status.ends_with("sum=0000000000000001 rescan=0000000000000001 agree=yes"));
        assert!(!tick.contains('\n') && !status.contains('\n'));
        st.degraded = true;
        assert!(encode_stream_status(&st).ends_with("agree=yes state=degraded"));
    }

    #[test]
    fn id_hash_is_order_sensitive_and_stable() {
        assert_ne!(fnv1a64(&[1, 2]), fnv1a64(&[2, 1]));
        assert_eq!(fnv1a64(&[]), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(&[1, 2, 3]), fnv1a64(&[1, 2, 3]));
    }

    #[test]
    fn outcome_encoding_is_one_line() {
        let mut out = ServeOutcome {
            matched_ids: vec![3, 5],
            metadata_survivors: 9,
            plan_hit: true,
            degraded: 0,
        };
        let line = encode_outcome(&out);
        assert!(line.starts_with("OK n=2 survivors=9 plan=hit sum="));
        assert!(!line.contains('\n'));
        assert!(!line.contains("degraded"), "healthy lines carry no marker");
        out.degraded = 3;
        assert!(encode_outcome(&out).ends_with(" degraded=3"));
    }

    #[test]
    fn deadline_wrapper_parses_and_validates() {
        assert_eq!(
            parse_request("DEADLINE 250 QUERY SELECT * FROM f").unwrap(),
            Request::Deadline {
                ms: 250,
                inner: Box::new(Request::Query("SELECT * FROM f".into())),
            }
        );
        assert_eq!(
            parse_request("deadline 9 queryu q").unwrap(),
            Request::Deadline {
                ms: 9,
                inner: Box::new(Request::QueryUncached("q".into())),
            }
        );
        assert!(parse_request("DEADLINE").is_err());
        assert!(parse_request("DEADLINE x QUERY q").is_err());
        assert!(parse_request("DEADLINE 0 QUERY q").is_err());
        assert!(parse_request("DEADLINE 5 PING").is_err());
        assert!(parse_request("DEADLINE 5 DEADLINE 5 QUERY q").is_err());
        assert!(parse_request("DEADLINE 5").is_err());
    }

    #[test]
    fn timeout_errors_get_their_own_response() {
        use crate::service::ServeError;
        assert_eq!(
            encode_serve_error(&ServeError::Timeout { budget_ms: 40 }),
            "TIMEOUT budget_ms=40"
        );
        let err = encode_serve_error(&ServeError::Query("bad sql".into()));
        assert!(err.starts_with("ERR "), "{err}");
    }
}
