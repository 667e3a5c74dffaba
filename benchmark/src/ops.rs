//! The four workloads and their seeded op lists.
//!
//! Everything the server is sent is generated here from `--seed`; the
//! server itself always boots with [`SERVER_SEED`], because its seed picks
//! the corpus, the network weights and — through the surrogate pricing —
//! the cascade depth per predicate, which moves `scan` latency between
//! 73 and 180 ms. The driver measures spread *across* seeds, so the seed
//! may vary what is asked, not what a query costs.

/// `--seed` of every server this benchmark boots.
pub const SERVER_SEED: u64 = 1;
/// `--corpus` of every server this benchmark boots.
pub const CORPUS: usize = 2048;
/// Served predicates (`--kinds`).
pub const KINDS: [&str; 2] = ["fence", "wallet"];
/// `--workers`; `dashboards` opens exactly this many connections, because
/// a worker serves one connection at a time.
pub const WORKERS: usize = 4;
/// `--queue`.
pub const QUEUE: usize = 32;

const LOCATIONS: [&str; 4] = ["Detroit", "Ann Arbor", "Lansing", "Flint"];
const CAMERAS: u64 = 8;
/// Distinct `scan` texts. Each costs one ~0.2 s `QUERYU` reference before
/// the measured phase, which is what keeps this from being 100.
const SCAN_TEXTS: u64 = 16;
const EPOCH: u64 = 1_700_000_000;
const FRAME_STRIDE_S: u64 = 30;

/// The standing query `standing` registers.
pub const STANDING_REGISTER: &str =
    "REGISTER coral RANGE 256 STEP 16 SELECT * FROM frames WHERE contains_object(fence)";
/// Measured ticks of `standing` per second of `--seconds`: a count, not a
/// duration, because the store grows ~250 KB per tick and is never
/// compacted — `store_mb` and `server_rss_mb` mean something only at a
/// fixed count. 1 500 ticks at the default 30 s, ~15 s on the seed code.
const STANDING_TICKS_PER_SECOND: u64 = 50;
/// A count-bound phase may take this many times `--seconds` before the
/// ticks it has not sent are counted as failed.
pub const FIXED_OPS_TIMEOUT_FACTOR: f64 = 4.0;

/// splitmix64: the whole benchmark's randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One distinct SQL text, kept in parts so the traced run can re-ask it
/// for a subset of its content predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryText {
    pub kinds: Vec<&'static str>,
    pub meta: String,
}

impl QueryText {
    pub fn sql(&self) -> String {
        self.sql_for(&self.kinds)
    }

    /// The same query restricted to `kinds`.
    pub fn sql_for(&self, kinds: &[&str]) -> String {
        let mut clauses: Vec<String> = kinds
            .iter()
            .map(|k| format!("contains_object({k})"))
            .collect();
        clauses.push(self.meta.clone());
        format!("SELECT * FROM frames WHERE {}", clauses.join(" AND "))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Scan,
    Lookup,
    Dashboards,
    Standing,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Scan,
        Workload::Lookup,
        Workload::Dashboards,
        Workload::Standing,
    ];

    /// The workloads `BENCHMARK.json` lists, i.e. the ones the driver runs
    /// and judges. `dashboards` runs more connections than the box has
    /// cores and is there to be run by hand (README, "Noise").
    pub const GATED: [Workload; 3] = [Workload::Scan, Workload::Lookup, Workload::Standing];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan",
            Workload::Lookup => "lookup",
            Workload::Dashboards => "dashboards",
            Workload::Standing => "standing",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections, one blocking thread each.
    pub fn connections(self) -> usize {
        match self {
            Workload::Dashboards => WORKERS,
            _ => 1,
        }
    }

    /// Unmeasured ops each connection sends first. `standing` draws its
    /// count from the seed (16..=32) so the measured window starts at a
    /// seed-dependent stream offset — the only input a standing query has.
    pub fn warmup(self, seed: u64) -> u64 {
        match self {
            Workload::Scan => 5,
            Workload::Lookup => 100,
            Workload::Dashboards => 25,
            Workload::Standing => 16 + SplitMix64::new(seed).below(17),
        }
    }

    /// `Some(n)`: the phase is exactly `n` ops long however long they take
    /// (`standing`); `None`: it ends on the clock after `seconds`.
    pub fn fixed_ops(self, seconds: f64) -> Option<u64> {
        match self {
            Workload::Standing => Some((STANDING_TICKS_PER_SECOND as f64 * seconds).ceil() as u64),
            _ => None,
        }
    }

    /// How the measured phase is cut into windows (`e2e::Window`):
    /// connection 0 checkpoints after every `.0` of its ops and a window is
    /// `.1` such strides long. A window should be shorter than the
    /// stretches a neighbour on the box leaves alone (0.3 s and up) and
    /// still hold enough ops for a p90: five `scan` ops (0.8 s, so its p90
    /// is the slowest of five), two passes over the 64 texts on `lookup`
    /// (0.3 s), one and a half on every `dashboards` connection (0.7 s),
    /// 60 `standing` ticks (0.6 s). Any 64 consecutive ops of a cycled
    /// order are one pass, so every `lookup` window holds the same mix.
    /// Of the shapes tried on recorded runs these repeated best; twice as
    /// long a `lookup` window spread twice as far (README, "Noise").
    pub fn window(self) -> (u64, usize) {
        match self {
            Workload::Scan => (1, 5),
            Workload::Lookup => (16, 8),
            Workload::Dashboards => (16, 6),
            Workload::Standing => (5, 12),
        }
    }

    /// Leading ops (of connection 0) folded into `result_digest`: a fixed
    /// count, so the digest of two commits compares as one string even
    /// when the faster one fits more ops into a time-bound phase.
    pub fn digest_ops(self) -> usize {
        match self {
            Workload::Scan => 40,
            Workload::Lookup => 2000,
            Workload::Dashboards => 500,
            Workload::Standing => 500,
        }
    }

    /// Every distinct SQL text the workload sends (none for `standing`).
    pub fn texts(self) -> Vec<QueryText> {
        match self {
            Workload::Scan => (0..SCAN_TEXTS)
                .map(|k| QueryText {
                    kinds: KINDS.to_vec(),
                    meta: format!("timestamp >= {}", EPOCH + FRAME_STRIDE_S * k),
                })
                .collect(),
            Workload::Lookup | Workload::Dashboards => {
                let mut texts = Vec::new();
                for kind in KINDS {
                    for camera in 0..CAMERAS {
                        for location in LOCATIONS {
                            texts.push(QueryText {
                                kinds: vec![kind],
                                meta: format!("camera = {camera} AND location = '{location}'"),
                            });
                        }
                    }
                }
                texts
            }
            Workload::Standing => Vec::new(),
        }
    }

    /// The endless op list of connection `conn`: indices into
    /// [`Workload::texts`]. `scan` draws each op's text afresh; the lookup
    /// family cycles one seed-shuffled order of all its texts, a different
    /// order per connection.
    pub fn op_source(self, seed: u64, conn: usize) -> OpSource {
        let mut rng = SplitMix64::new(seed ^ (conn as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let texts = self.texts().len();
        let order = match self {
            Workload::Scan | Workload::Standing => Vec::new(),
            Workload::Lookup | Workload::Dashboards => {
                let mut order: Vec<usize> = (0..texts).collect();
                rng.shuffle(&mut order);
                order
            }
        };
        OpSource {
            rng,
            texts,
            order,
            pos: 0,
        }
    }
}

/// See [`Workload::op_source`].
#[derive(Debug, Clone)]
pub struct OpSource {
    rng: SplitMix64,
    texts: usize,
    order: Vec<usize>,
    pos: usize,
}

impl Iterator for OpSource {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.texts == 0 {
            return None;
        }
        if self.order.is_empty() {
            return Some(self.rng.below(self.texts as u64) as usize);
        }
        let idx = self.order[self.pos % self.order.len()];
        self.pos += 1;
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoma_core::query::Query;

    #[test]
    fn op_lists_are_deterministic_in_the_seed() {
        for w in Workload::ALL {
            let a: Vec<usize> = w.op_source(7, 0).take(300).collect();
            let b: Vec<usize> = w.op_source(7, 0).take(300).collect();
            assert_eq!(a, b, "{} not repeatable", w.name());
            assert_eq!(w.warmup(7), w.warmup(7));
            if w != Workload::Standing {
                let c: Vec<usize> = w.op_source(8, 0).take(300).collect();
                assert_ne!(a, c, "{} ignores the seed", w.name());
                assert!(a.iter().all(|&i| i < w.texts().len()));
            } else {
                assert!(a.is_empty());
                assert!((16..=32).contains(&w.warmup(7)));
            }
        }
        // Each dashboard connection walks its own order.
        let c0: Vec<usize> = Workload::Dashboards.op_source(1, 0).take(64).collect();
        let c1: Vec<usize> = Workload::Dashboards.op_source(1, 1).take(64).collect();
        assert_ne!(c0, c1);
    }

    #[test]
    fn lookup_cycles_every_text_once_per_pass() {
        let ops: Vec<usize> = Workload::Lookup.op_source(3, 0).take(128).collect();
        let mut first: Vec<usize> = ops[..64].to_vec();
        assert_eq!(&ops[..64], &ops[64..], "second pass repeats the order");
        first.sort_unstable();
        assert_eq!(first, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn every_text_is_valid_sql_for_the_served_kinds() {
        assert_eq!(Workload::Scan.texts().len(), SCAN_TEXTS as usize);
        assert_eq!(Workload::Lookup.texts().len(), 64);
        assert_eq!(Workload::Lookup.texts(), Workload::Dashboards.texts());
        for w in Workload::ALL {
            let mut seen = std::collections::BTreeSet::new();
            for text in w.texts() {
                let q = Query::parse(&text.sql()).expect("parses");
                assert_eq!(q.content.len(), text.kinds.len());
                assert!(!q.metadata.is_empty());
                assert!(seen.insert(text.sql()), "duplicate text");
                let first = Query::parse(&text.sql_for(&text.kinds[..1])).expect("parses");
                assert_eq!(first.content.len(), 1);
                assert_eq!(first.metadata, q.metadata);
            }
        }
        let register = tahoma_serve::protocol::parse_request(STANDING_REGISTER);
        assert!(matches!(
            register,
            Ok(tahoma_serve::protocol::Request::Register {
                range: 256,
                step: 16,
                ..
            })
        ));
    }

    #[test]
    fn standing_is_the_only_count_bound_workload() {
        assert_eq!(Workload::Standing.fixed_ops(30.0), Some(1500));
        assert_eq!(Workload::Standing.fixed_ops(6.0), Some(300));
        assert_eq!(Workload::Scan.fixed_ops(30.0), None);
        assert_eq!(
            Workload::from_name("dashboards"),
            Some(Workload::Dashboards)
        );
        assert_eq!(Workload::from_name("nope"), None);
        assert_eq!(Workload::Dashboards.connections(), WORKERS);
    }
}
