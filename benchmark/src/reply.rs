//! Parsers for the server's one-line replies (`crates/serve/src/protocol.rs`
//! documents the grammar). Anything that is not a well-formed `OK` line of
//! the expected shape — `BUSY`, `TIMEOUT`, `ERR`, a truncated line — is a
//! parse error, which the load loops count as a failed op.

use std::collections::BTreeMap;

/// `key=value` fields of an `OK …` line, in order of appearance.
fn ok_fields(line: &str) -> Result<Vec<(&str, &str)>, String> {
    let rest = line
        .strip_prefix("OK ")
        .ok_or_else(|| format!("not an OK reply: {line}"))?;
    rest.split_ascii_whitespace()
        .map(|word| {
            word.split_once('=')
                .ok_or_else(|| format!("field without '=' in: {line}"))
        })
        .collect()
}

fn field<'a>(fields: &[(&str, &'a str)], key: &str) -> Result<&'a str, String> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("reply has no {key}= field"))
}

fn num(fields: &[(&str, &str)], key: &str) -> Result<u64, String> {
    let v = field(fields, key)?;
    v.parse().map_err(|_| format!("bad {key}={v}"))
}

fn hex(fields: &[(&str, &str)], key: &str) -> Result<u64, String> {
    let v = field(fields, key)?;
    u64::from_str_radix(v, 16).map_err(|_| format!("bad {key}={v}"))
}

fn ids(fields: &[(&str, &str)], key: &str) -> Result<Vec<u64>, String> {
    let v = field(fields, key)?;
    if v == "-" {
        return Ok(Vec::new());
    }
    v.split(',')
        .map(|id| id.parse().map_err(|_| format!("bad id '{id}' in {key}=")))
        .collect()
}

/// `OK n=<matches> survivors=<m> plan=<hit|miss> sum=<hex> [degraded=<n>]`
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryReply {
    pub n: u64,
    pub survivors: u64,
    pub sum: u64,
}

pub fn parse_query(line: &str) -> Result<QueryReply, String> {
    let f = ok_fields(line)?;
    Ok(QueryReply {
        n: num(&f, "n")?,
        survivors: num(&f, "survivors")?,
        sum: hex(&f, "sum")?,
    })
}

/// `OK qid=<id> tick=<t> window=.. matched=<m> entered=<n> scored=<n>
/// sum=<hex> added=<ids|-> removed=<ids|->`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickReply {
    pub tick: u64,
    pub matched: u64,
    pub entered: u64,
    pub scored: u64,
    pub sum: u64,
    pub added: Vec<u64>,
    pub removed: Vec<u64>,
}

pub fn parse_tick(line: &str) -> Result<TickReply, String> {
    let f = ok_fields(line)?;
    Ok(TickReply {
        tick: num(&f, "tick")?,
        matched: num(&f, "matched")?,
        entered: num(&f, "entered")?,
        scored: num(&f, "scored")?,
        sum: hex(&f, "sum")?,
        added: ids(&f, "added")?,
        removed: ids(&f, "removed")?,
    })
}

/// `OK qid=<id> stream=.. range=.. step=..` → the qid.
pub fn parse_register(line: &str) -> Result<u64, String> {
    num(&ok_fields(line)?, "qid")
}

/// `OK qid=.. ticks=.. matched=.. sum=<hex> rescan=<hex> agree=<yes|no>`
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltasReply {
    pub sum: u64,
    pub agree: bool,
}

pub fn parse_deltas(line: &str) -> Result<DeltasReply, String> {
    let f = ok_fields(line)?;
    Ok(DeltasReply {
        sum: hex(&f, "sum")?,
        agree: field(&f, "agree")? == "yes",
    })
}

/// The `STATS` counter line as a name → value map, so a counter a later
/// server adds is carried along without a parser change.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats(BTreeMap<String, u64>);

pub fn parse_stats(line: &str) -> Result<Stats, String> {
    let f = ok_fields(line)?;
    let mut map = BTreeMap::new();
    for (k, v) in f {
        map.insert(
            k.to_string(),
            v.parse().map_err(|_| format!("bad {k}={v} in STATS"))?,
        );
    }
    Ok(Stats(map))
}

impl Stats {
    /// Growth of counter `key` from `earlier` to `self`.
    pub fn delta(&self, earlier: &Stats, key: &str) -> Result<u64, String> {
        let get = |s: &Stats| {
            s.0.get(key)
                .copied()
                .ok_or_else(|| format!("STATS has no {key}= counter"))
        };
        Ok(get(self)?.saturating_sub(get(earlier)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_replies_parse_and_failures_do_not() {
        let r = parse_query("OK n=784 survivors=2038 plan=hit sum=e4b24aefd647c897").unwrap();
        assert_eq!(
            r,
            QueryReply {
                n: 784,
                survivors: 2038,
                sum: 0xe4b24aefd647c897
            }
        );
        let degraded = "OK n=0 survivors=0 plan=miss sum=cbf29ce484222325 degraded=2";
        assert_eq!(parse_query(degraded).unwrap().n, 0);
        for bad in [
            "BUSY",
            "TIMEOUT budget_ms=40",
            "ERR query: nope",
            "",
            "OK n=1 survivors=2 plan=hit",
            "OK n=x survivors=2 plan=hit sum=00",
            "OK n=1 survivors",
        ] {
            assert!(parse_query(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn tick_register_and_deltas_replies_parse() {
        let t = parse_tick(
            "OK qid=2 tick=5 window=8..40 matched=2 entered=8 scored=8 \
             sum=000000000000abcd added=3,9 removed=-",
        )
        .unwrap();
        assert_eq!((t.tick, t.matched, t.entered, t.scored), (5, 2, 8, 8));
        assert_eq!(t.sum, 0xabcd);
        assert_eq!(t.added, vec![3, 9]);
        assert!(t.removed.is_empty());
        assert!(parse_tick("OK qid=2 tick=5 matched=2 sum=00 added=3,x removed=-").is_err());
        assert!(parse_tick("ERR execution: standing query 2 is DEGRADED").is_err());

        assert_eq!(
            parse_register("OK qid=7 stream=coral range=256 step=16"),
            Ok(7)
        );
        assert!(parse_register("ERR query: unknown stream").is_err());

        let d = parse_deltas(
            "OK qid=1 ticks=300 window=4544..4800 matched=228 scored=4800 \
             sum=defb04305d079022 rescan=defb04305d079022 agree=yes",
        )
        .unwrap();
        assert_eq!((d.sum, d.agree), (0xdefb04305d079022, true));
        let frozen = "OK qid=1 ticks=3 window=0..4 matched=0 scored=4 sum=00 rescan=00 \
                      agree=no state=degraded";
        assert!(!parse_deltas(frozen).unwrap().agree);
    }

    #[test]
    fn stats_deltas_by_counter_name() {
        let a = parse_stats("OK queries=4 plan_hits=1 broker_calls=6 shed=0").unwrap();
        let b =
            parse_stats("OK queries=10 plan_hits=6 broker_calls=18 shed=0 new_counter=3").unwrap();
        assert_eq!(b.delta(&a, "queries"), Ok(6));
        assert_eq!(b.delta(&a, "broker_calls"), Ok(12));
        assert_eq!(b.delta(&a, "shed"), Ok(0));
        assert!(b.delta(&a, "new_counter").is_err());
        assert!(parse_stats("PONG").is_err());
        assert!(parse_stats("OK queries=many").is_err());
    }
}
