//! Content-based query processing (paper §IV).
//!
//! Queries like
//!
//! ```sql
//! SELECT * FROM frames WHERE contains_object(fence) AND location = 'Detroit'
//! ```
//!
//! decompose into *metadata predicates* (cheap, evaluated first) and binary
//! *content predicates* (expensive, implemented by a selected classifier
//! cascade). The executor runs the cascade over the images that survive the
//! metadata filter, materializing the paper's notional binary-predicate
//! relation and accounting simulated data-handling + inference cost per
//! image.
//!
//! This module owns the vocabulary — corpus, query AST and parser, the
//! relation types — and the item-at-a-time oracle. Execution lives in
//! [`crate::exec`]: one conjunction walk over one level-major cascade
//! driver, which every product path calls. What remains here is simple on
//! purpose: [`walk_cascade_item`], one item climbing one cascade with §IV
//! prefix costing through one [`ItemScorer`] call per level — the single
//! copy of that walk.
//! [`VectorizedExecutor::run_cascade_reference`](crate::exec::VectorizedExecutor::run_cascade_reference)
//! loops it: the oracle the executor is property-tested against in
//! `tests/exec_proptests.rs`.

use crate::cascade::{Cascade, MAX_LEVELS};
use crate::error::CoreError;
use crate::evaluator::CostContext;
use crate::exec::LevelDecision;
use crate::thresholds::ThresholdTable;
use tahoma_imagery::ObjectKind;
use tahoma_mathx::DetRng;
use tahoma_zoo::{ModelId, ModelRepository};

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

/// One stored image/frame with its metadata.
#[derive(Debug, Clone)]
pub struct CorpusItem {
    /// Stable id.
    pub id: u64,
    /// Capture location.
    pub location: String,
    /// Camera identifier.
    pub camera: u64,
    /// Capture timestamp (seconds).
    pub timestamp: u64,
    /// Object categories present in the scene (ground truth).
    pub objects: Vec<ObjectKind>,
    /// Scene difficulty in [0, 1].
    pub difficulty: f32,
}

impl CorpusItem {
    /// Ground truth for one category.
    pub fn contains(&self, kind: ObjectKind) -> bool {
        self.objects.contains(&kind)
    }
}

/// A queryable collection of items.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// The items.
    pub items: Vec<CorpusItem>,
}

impl Corpus {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Synthesize a corpus: items spread over locations/cameras/time, with
    /// each category present independently at `prevalence`.
    pub fn synthetic(n: usize, prevalence: f64, seed: u64) -> Corpus {
        const LOCATIONS: [&str; 4] = ["Detroit", "Ann Arbor", "Lansing", "Flint"];
        let mut rng = DetRng::new(seed ^ 0xC00C);
        let mut items = Vec::with_capacity(n);
        for id in 0..n as u64 {
            let objects: Vec<ObjectKind> = ObjectKind::ALL
                .into_iter()
                .filter(|_| rng.bernoulli(prevalence))
                .collect();
            let difficulty = (0.40 * rng.uniform()
                + 0.30 * rng.uniform()
                + 0.15 * rng.uniform()
                + 0.15 * rng.uniform()) as f32;
            items.push(CorpusItem {
                id,
                location: LOCATIONS[rng.index(LOCATIONS.len())].to_string(),
                camera: rng.index(8) as u64,
                timestamp: 1_700_000_000 + id * 30,
                objects,
                difficulty,
            });
        }
        Corpus { items }
    }
}

// ---------------------------------------------------------------------------
// Query AST + parser
// ---------------------------------------------------------------------------

/// Comparison operators for metadata predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn holds_u64(self, a: u64, b: u64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A metadata predicate over the corpus schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaPredicate {
    /// `location = 'X'` / `location != 'X'`.
    Location(CmpOp, String),
    /// `camera <op> N`.
    Camera(CmpOp, u64),
    /// `timestamp <op> N`.
    Timestamp(CmpOp, u64),
}

impl MetaPredicate {
    /// Evaluate against one item.
    pub fn holds(&self, item: &CorpusItem) -> bool {
        match self {
            MetaPredicate::Location(op, v) => match op {
                CmpOp::Eq => item.location == *v,
                CmpOp::Ne => item.location != *v,
                // Ordered comparison on locations is not meaningful; treat
                // as lexicographic to keep the operator total.
                CmpOp::Lt => item.location.as_str() < v.as_str(),
                CmpOp::Le => item.location.as_str() <= v.as_str(),
                CmpOp::Gt => item.location.as_str() > v.as_str(),
                CmpOp::Ge => item.location.as_str() >= v.as_str(),
            },
            MetaPredicate::Camera(op, v) => op.holds_u64(item.camera, *v),
            MetaPredicate::Timestamp(op, v) => op.holds_u64(item.timestamp, *v),
        }
    }
}

/// A parsed query: metadata predicates plus content predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Source table name.
    pub table: String,
    /// Metadata predicates (conjunctive).
    pub metadata: Vec<MetaPredicate>,
    /// `contains_object(...)` predicates (conjunctive).
    pub content: Vec<ObjectKind>,
}

struct Tokenizer<'a> {
    src: &'a str,
    pos: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Num(u64),
    Star,
    LParen,
    RParen,
    Op(CmpOp),
    End,
}

impl<'a> Tokenizer<'a> {
    fn new(src: &'a str) -> Self {
        Tokenizer { src, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> CoreError {
        CoreError::Parse {
            position: self.pos,
            message: message.into(),
        }
    }

    fn next(&mut self) -> Result<Token, CoreError> {
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if self.pos >= bytes.len() {
            return Ok(Token::End);
        }
        let c = bytes[self.pos];
        match c {
            b'*' => {
                self.pos += 1;
                Ok(Token::Star)
            }
            b'(' => {
                self.pos += 1;
                Ok(Token::LParen)
            }
            b')' => {
                self.pos += 1;
                Ok(Token::RParen)
            }
            b';' => {
                self.pos += 1;
                self.next() // trailing semicolon: skip
            }
            b'=' => {
                self.pos += 1;
                Ok(Token::Op(CmpOp::Eq))
            }
            b'!' => {
                if bytes.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Ok(Token::Op(CmpOp::Ne))
                } else {
                    Err(self.error("expected '=' after '!'"))
                }
            }
            b'<' => {
                if bytes.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Ok(Token::Op(CmpOp::Le))
                } else {
                    self.pos += 1;
                    Ok(Token::Op(CmpOp::Lt))
                }
            }
            b'>' => {
                if bytes.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Ok(Token::Op(CmpOp::Ge))
                } else {
                    self.pos += 1;
                    Ok(Token::Op(CmpOp::Gt))
                }
            }
            b'\'' => {
                let start = self.pos + 1;
                let mut end = start;
                while end < bytes.len() && bytes[end] != b'\'' {
                    end += 1;
                }
                if end >= bytes.len() {
                    return Err(self.error("unterminated string literal"));
                }
                self.pos = end + 1;
                Ok(Token::Str(self.src[start..end].to_string()))
            }
            b'0'..=b'9' => {
                let start = self.pos;
                while self.pos < bytes.len() && bytes[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                self.src[start..self.pos]
                    .parse()
                    .map(Token::Num)
                    .map_err(|_| self.error("invalid number"))
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self.pos < bytes.len()
                    && (bytes[self.pos].is_ascii_alphanumeric() || bytes[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                Ok(Token::Ident(self.src[start..self.pos].to_string()))
            }
            other => Err(self.error(format!("unexpected character '{}'", other as char))),
        }
    }
}

impl Query {
    /// Parse the supported SQL subset:
    /// `SELECT * FROM <table> [WHERE <cond> (AND <cond>)*] [;]` where a
    /// condition is `contains_object(<category>)` or
    /// `<field> <op> <value>` over `location`/`camera`/`timestamp`.
    pub fn parse(src: &str) -> Result<Query, CoreError> {
        let mut tz = Tokenizer::new(src);
        let expect_kw = |tz: &mut Tokenizer, kw: &str| -> Result<(), CoreError> {
            match tz.next()? {
                Token::Ident(w) if w.eq_ignore_ascii_case(kw) => Ok(()),
                other => Err(tz.error(format!("expected {kw}, found {other:?}"))),
            }
        };
        expect_kw(&mut tz, "select")?;
        match tz.next()? {
            Token::Star => {}
            other => return Err(tz.error(format!("expected '*', found {other:?}"))),
        }
        expect_kw(&mut tz, "from")?;
        let table = match tz.next()? {
            Token::Ident(t) => t,
            other => return Err(tz.error(format!("expected table name, found {other:?}"))),
        };
        let mut query = Query {
            table,
            metadata: Vec::new(),
            content: Vec::new(),
        };
        match tz.next()? {
            Token::End => return Ok(query),
            Token::Ident(w) if w.eq_ignore_ascii_case("where") => {}
            other => return Err(tz.error(format!("expected WHERE, found {other:?}"))),
        }
        loop {
            // One condition.
            let field = match tz.next()? {
                Token::Ident(f) => f,
                other => return Err(tz.error(format!("expected condition, found {other:?}"))),
            };
            if field.eq_ignore_ascii_case("contains_object") {
                match tz.next()? {
                    Token::LParen => {}
                    other => return Err(tz.error(format!("expected '(', found {other:?}"))),
                }
                let cat = match tz.next()? {
                    Token::Ident(c) => c,
                    Token::Str(c) => c,
                    other => return Err(tz.error(format!("expected category, found {other:?}"))),
                };
                match tz.next()? {
                    Token::RParen => {}
                    other => return Err(tz.error(format!("expected ')', found {other:?}"))),
                }
                let kind = ObjectKind::from_name(&cat.to_ascii_lowercase())
                    .ok_or(CoreError::UnknownCategory(cat))?;
                query.content.push(kind);
            } else {
                let op = match tz.next()? {
                    Token::Op(op) => op,
                    other => return Err(tz.error(format!("expected operator, found {other:?}"))),
                };
                let value = tz.next()?;
                let pred = match field.to_ascii_lowercase().as_str() {
                    "location" => match value {
                        Token::Str(s) => MetaPredicate::Location(op, s),
                        other => {
                            return Err(
                                tz.error(format!("location needs a string, found {other:?}"))
                            )
                        }
                    },
                    "camera" => match value {
                        Token::Num(n) => MetaPredicate::Camera(op, n),
                        other => {
                            return Err(tz.error(format!("camera needs a number, found {other:?}")))
                        }
                    },
                    "timestamp" => match value {
                        Token::Num(n) => MetaPredicate::Timestamp(op, n),
                        other => {
                            return Err(
                                tz.error(format!("timestamp needs a number, found {other:?}"))
                            )
                        }
                    },
                    _ => return Err(CoreError::UnknownField(field)),
                };
                query.metadata.push(pred);
            }
            match tz.next()? {
                Token::End => break,
                Token::Ident(w) if w.eq_ignore_ascii_case("and") => continue,
                other => return Err(tz.error(format!("expected AND or end, found {other:?}"))),
            }
        }
        Ok(query)
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Provides per-(model, item) classifier scores at query time. The surrogate
/// path adapts `tahoma_zoo::SurrogateScorer`; a real deployment would run
/// the actual CNNs.
pub trait ItemScorer {
    /// Score of `model` on `item` in [0, 1].
    fn score(&self, model: ModelId, item: &CorpusItem) -> f32;
}

/// Salt applied to corpus item ids before they enter the surrogate noise
/// stream, so corpus scores are independent of the eval split's (which use
/// unsalted ids). [`SurrogateItemScorer`] and the batched
/// [`crate::exec::SurrogateBatchScorer`] must use the same salt to stay
/// bit-identical.
pub const CORPUS_SCORE_SALT: u64 = 0xC0_5A17;

/// Surrogate-backed scorer over a corpus: each model's score is drawn from
/// the same calibrated family the repository was built with, keyed by the
/// item's ground truth and difficulty. A distinct noise stream (salted item
/// ids) keeps corpus scores independent of the eval split.
pub struct SurrogateItemScorer<'a> {
    /// The predicate's surrogate family.
    pub scorer: &'a tahoma_zoo::SurrogateScorer,
    /// Repository whose model ids the cascade references.
    pub repo: &'a ModelRepository,
}

impl ItemScorer for SurrogateItemScorer<'_> {
    fn score(&self, model: ModelId, item: &CorpusItem) -> f32 {
        let variant = &self.repo.entry(model).variant;
        self.scorer.score(
            variant,
            tahoma_zoo::surrogate::Split::Eval,
            item.id ^ CORPUS_SCORE_SALT,
            item.contains(self.scorer.pred.kind),
            item.difficulty,
        )
    }
}

/// One row of the materialized binary-predicate relation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationRow {
    /// Item id.
    pub id: u64,
    /// The predicate's value for this item.
    pub value: bool,
    /// Score of the deciding level.
    pub score: f32,
    /// Cascade level that decided (0-based).
    pub decided_at: u8,
}

/// The materialized relation for one content predicate, plus execution
/// statistics.
#[derive(Debug, Clone)]
pub struct PredicateRelation {
    /// The category.
    pub kind: ObjectKind,
    /// One row per evaluated item.
    pub rows: Vec<RelationRow>,
    /// Simulated total classification time (s).
    pub simulated_time_s: f64,
    /// Effective throughput (items / simulated second).
    pub throughput_fps: f64,
    /// How many items each level decided.
    pub level_histogram: [u64; MAX_LEVELS],
    /// Accuracy against corpus ground truth.
    pub accuracy: f64,
}

impl PredicateRelation {
    /// Aggregate per-item `(decision, simulated seconds)` pairs, aligned
    /// with `items`, into the relation and its statistics. Both executors
    /// build their relation here, so their totals accumulate in the same
    /// order (bitwise-equal simulated time).
    pub(crate) fn collect(
        kind: ObjectKind,
        items: &[&CorpusItem],
        decided: impl Iterator<Item = (LevelDecision, f64)>,
    ) -> PredicateRelation {
        let mut rows = Vec::with_capacity(items.len());
        let mut total_time = 0.0f64;
        let mut level_histogram = [0u64; MAX_LEVELS];
        let mut correct = 0usize;
        for (item, (d, time)) in items.iter().zip(decided) {
            level_histogram[d.level as usize] += 1;
            if d.value == item.contains(kind) {
                correct += 1;
            }
            total_time += time;
            rows.push(RelationRow {
                id: item.id,
                value: d.value,
                score: d.score,
                decided_at: d.level,
            });
        }
        let n = items.len().max(1) as f64;
        PredicateRelation {
            kind,
            rows,
            simulated_time_s: total_time,
            throughput_fps: if total_time > 0.0 {
                n / total_time
            } else {
                0.0
            },
            level_histogram,
            accuracy: correct as f64 / n,
        }
    }

    /// The predicate's value per evaluated item, in row order — the shape
    /// [`crate::exec::run_conjunction`]'s evaluation seam returns.
    pub fn passes(&self) -> Vec<bool> {
        self.rows.iter().map(|r| r.value).collect()
    }
}

/// Walk one item up one cascade, item-at-a-time: each level is priced
/// (`fixed + Σ infer + Σ marginal` over distinct representations, §IV),
/// scored through one virtual call, and decided against its thresholds;
/// the terminal level always decides at 0.5. Returns the decision and the
/// simulated seconds the item paid. The cascade's model ids must be valid
/// for `cost` and `thresholds` (callers validate against the repository).
pub fn walk_cascade_item(
    thresholds: &ThresholdTable,
    cost: &CostContext,
    cascade: &Cascade,
    scorer: &dyn ItemScorer,
    item: &CorpusItem,
) -> (LevelDecision, f64) {
    let depth = cascade.depth();
    let mut time = cost.fixed_s;
    let mut seen_reps = [u32::MAX; MAX_LEVELS];
    let mut l = 0usize;
    loop {
        let m = cascade.model_at(l) as usize;
        time += cost.infer_s[m];
        let key = cost.rep_key[m];
        if !seen_reps[..l].contains(&key) {
            time += cost.rep_marginal_s[m];
        }
        seen_reps[l] = key;
        let score = scorer.score(ModelId(m as u32), item);
        let decision = if l + 1 == depth {
            Some(score >= 0.5)
        } else {
            thresholds
                .get(m, cascade.setting_at(l) as usize)
                .decide(score)
        };
        if let Some(value) = decision {
            let level = l as u8;
            return (
                LevelDecision {
                    value,
                    score,
                    level,
                },
                time,
            );
        }
        l += 1;
    }
}

/// The result of executing a query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Ids satisfying every predicate, in corpus order.
    pub matched_ids: Vec<u64>,
    /// Items surviving the metadata filter (and thus classified).
    pub metadata_survivors: usize,
    /// Materialized relation per content predicate.
    pub relations: Vec<PredicateRelation>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_query() {
        let q = Query::parse(
            "SELECT * FROM frames WHERE contains_object(fence) AND location = 'Detroit' \
             AND timestamp >= 1700000000;",
        )
        .unwrap();
        assert_eq!(q.table, "frames");
        assert_eq!(q.content, vec![ObjectKind::Fence]);
        assert_eq!(q.metadata.len(), 2);
        assert_eq!(
            q.metadata[0],
            MetaPredicate::Location(CmpOp::Eq, "Detroit".into())
        );
        assert_eq!(
            q.metadata[1],
            MetaPredicate::Timestamp(CmpOp::Ge, 1_700_000_000)
        );
    }

    #[test]
    fn parse_without_where() {
        let q = Query::parse("select * from images").unwrap();
        assert!(q.metadata.is_empty());
        assert!(q.content.is_empty());
    }

    #[test]
    fn parse_rejects_unknown_category() {
        let e = Query::parse("SELECT * FROM t WHERE contains_object(dragon)").unwrap_err();
        assert_eq!(e, CoreError::UnknownCategory("dragon".into()));
    }

    #[test]
    fn parse_rejects_unknown_field() {
        let e = Query::parse("SELECT * FROM t WHERE speed > 3").unwrap_err();
        assert_eq!(e, CoreError::UnknownField("speed".into()));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Query::parse("SELECT FROM t").is_err());
        assert!(Query::parse("SELECT * FROM t WHERE location = Detroit").is_err());
        assert!(Query::parse("SELECT * FROM t WHERE camera = 'one'").is_err());
        assert!(Query::parse("SELECT * FROM t WHERE location = 'x' OR camera = 1").is_err());
        assert!(Query::parse("").is_err());
    }

    #[test]
    fn operators_parse_and_evaluate() {
        for (text, op) in [
            ("=", CmpOp::Eq),
            ("!=", CmpOp::Ne),
            ("<", CmpOp::Lt),
            ("<=", CmpOp::Le),
            (">", CmpOp::Gt),
            (">=", CmpOp::Ge),
        ] {
            let q = Query::parse(&format!("SELECT * FROM t WHERE camera {text} 3")).unwrap();
            assert_eq!(q.metadata[0], MetaPredicate::Camera(op, 3));
        }
        assert!(CmpOp::Le.holds_u64(3, 3));
        assert!(!CmpOp::Lt.holds_u64(3, 3));
        assert!(CmpOp::Ne.holds_u64(2, 3));
    }

    #[test]
    fn metadata_predicates_filter_items() {
        let corpus = Corpus::synthetic(200, 0.3, 9);
        let q = Query::parse("SELECT * FROM t WHERE location = 'Detroit' AND camera < 4").unwrap();
        let survivors: Vec<&CorpusItem> = corpus
            .items
            .iter()
            .filter(|i| q.metadata.iter().all(|p| p.holds(i)))
            .collect();
        assert!(!survivors.is_empty());
        for s in survivors {
            assert_eq!(s.location, "Detroit");
            assert!(s.camera < 4);
        }
    }

    #[test]
    fn synthetic_corpus_prevalence() {
        let corpus = Corpus::synthetic(2000, 0.25, 3);
        let with_fence = corpus
            .items
            .iter()
            .filter(|i| i.contains(ObjectKind::Fence))
            .count();
        let rate = with_fence as f64 / corpus.len() as f64;
        assert!((rate - 0.25).abs() < 0.05, "prevalence {rate}");
    }
}
