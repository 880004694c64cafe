//! Request/response model of the mining service and its JSON codec.
//!
//! One request names a dataset, a kernel, and a support threshold, plus
//! the service-level limits (deadline, pattern budget); one response
//! reports an [`Outcome`], the patterns (or just their count), and the
//! per-request statistics. The same structs travel over both frontends:
//! in-process callers hold them directly, the line protocol maps them
//! through [`parse_request`] / [`render_response`].

use crate::json::{self, Json};
use fpm::types::MineKind;
use fpm::{ItemsetCount, PatternQuery, RuleSpec, TransactionDb};
use quest::{Dataset, Scale};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

// The kernel taxonomy moved into the substrate (`fpm::Kernel`) so the
// executor, CLI, and service all dispatch over one enum; re-exported
// here because `serve::Kernel` is this crate's wire vocabulary.
pub use fpm::Kernel;

/// Where the transactions come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetSpec {
    /// Transactions shipped inline with the request.
    Inline(Vec<Vec<u32>>),
    /// One of the paper's evaluation datasets, generated on demand and
    /// cached inside the service (deterministic generators).
    Named {
        /// Which Table 6 dataset.
        dataset: Dataset,
        /// Reproduction scale.
        scale: Scale,
    },
    /// A FIMI `.dat` file on the server's filesystem. Anything but a
    /// regular file is rejected before it is opened.
    Path(String),
}

impl DatasetSpec {
    /// Loads/generates the transactions. `Err` carries a caller-visible
    /// reason (the request is rejected, the server keeps running).
    pub fn resolve(&self) -> Result<TransactionDb, String> {
        match self {
            DatasetSpec::Inline(rows) => Ok(TransactionDb::from_transactions(rows.clone())),
            DatasetSpec::Named { dataset, scale } => Ok(dataset.generate(*scale)),
            DatasetSpec::Path(path) => read_path(path),
        }
    }
}

/// Reads the FIMI file a request names, if it is a regular file. The
/// type is checked before the file is opened, because opening a FIFO
/// blocks, and a device such as `/dev/zero` reads as one endless line. A
/// failure names the path and, for a malformed line, its number, but
/// quotes no byte of the file, so a request cannot read back a file that
/// is not a `.dat` file.
fn read_path(path: &str) -> Result<TransactionDb, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    if !meta.is_file() {
        return Err(format!("cannot read {path:?}: not a regular file"));
    }
    fpm::io::read_dat_file(path).map_err(|e| {
        // `fpm::io` words a malformed token as "line N: bad item <token>";
        // keep only N.
        let msg = e.to_string();
        let line = msg
            .strip_prefix("line ")
            .and_then(|rest| rest.split_once(':'))
            .map(|(n, _)| n)
            .filter(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
        match line {
            Some(n) => format!("cannot read {path:?}: line {n} is not a FIMI transaction"),
            None => format!("cannot read {path:?}: {}", e.kind()),
        }
    })
}

/// One mining query.
#[derive(Debug, Clone, PartialEq)]
pub struct MineRequest {
    /// The input transactions.
    pub dataset: DatasetSpec,
    /// The kernel to run.
    pub kernel: Kernel,
    /// Minimum support (absolute count).
    pub min_support: u64,
    /// Which slice of the frequent set to answer with (class, top-k,
    /// rule thresholds — DESIGN.md §15). The default is the identity
    /// (every frequent itemset), which keeps the pre-query wire shape
    /// valid unchanged. Part of the cache key; the service mines the
    /// identity query's All set and derives every other answer from it.
    pub query: PatternQuery,
    /// Wall-clock limit, armed at *submit* time — queue wait counts
    /// against it, as a caller experiences latency.
    pub deadline: Option<Duration>,
    /// Emitted-pattern budget; the response is truncated to a prefix of
    /// the serial emission order once it is reached.
    pub max_patterns: Option<u64>,
    /// `false` returns only the count (and statistics), not the
    /// patterns themselves.
    pub include_patterns: bool,
}

impl MineRequest {
    /// A request with no limits, returning the full pattern list.
    pub fn new(dataset: DatasetSpec, kernel: Kernel, min_support: u64) -> Self {
        MineRequest {
            dataset,
            kernel,
            min_support,
            query: PatternQuery::all(),
            deadline: None,
            max_patterns: None,
            include_patterns: true,
        }
    }

    /// Replaces the request's pattern query.
    pub fn with_query(mut self, query: PatternQuery) -> Self {
        self.query = query;
        self
    }
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The full answer (possibly budget-truncated — see
    /// [`MineStats::truncated`]) was produced.
    Complete,
    /// The caller cancelled mid-run; patterns are a prefix of the
    /// serial emission order.
    Cancelled,
    /// The deadline passed before mining finished; patterns are a
    /// prefix of the serial emission order.
    DeadlineExceeded,
    /// The service refused to mine (queue full, admission bound, bad
    /// dataset); see [`MineResponse::reason`].
    Rejected,
    /// The service lost the run — a mining task panicked mid-run (the
    /// worker caught the unwind), or the worker itself failed at pickup
    /// (the chaos shard-stall site's panic flavor). The service keeps
    /// running and the patterns (when included) are still a clean
    /// prefix of the serial emission order — everything delivered
    /// before the failure point, possibly empty.
    Failed,
}

impl Outcome {
    /// The wire label.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Complete => "complete",
            Outcome::Cancelled => "cancelled",
            Outcome::DeadlineExceeded => "deadline_exceeded",
            Outcome::Rejected => "rejected",
            Outcome::Failed => "failed",
        }
    }

    /// Parses a wire label.
    pub fn by_label(label: &str) -> Option<Outcome> {
        match label {
            "complete" => Some(Outcome::Complete),
            "cancelled" => Some(Outcome::Cancelled),
            "deadline_exceeded" => Some(Outcome::DeadlineExceeded),
            "rejected" => Some(Outcome::Rejected),
            "failed" => Some(Outcome::Failed),
            _ => None,
        }
    }
}

/// Per-request observability, echoed in every response.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MineStats {
    /// Patterns delivered (equals `patterns.len()` when included).
    pub emitted: u64,
    /// `true` when the pattern budget cut the output short (the outcome
    /// stays [`Outcome::Complete`]: the prefix *is* the answer asked
    /// for).
    pub truncated: bool,
    /// `true` when the result came from the cache without mining: the
    /// request's own cached answer, or one derived from the cached All
    /// set of its `(dataset, kernel, min_support)`.
    pub cache_hit: bool,
    /// `true` when the request attached to another in-flight request
    /// for the same `(dataset, kernel, min_support)` (single-flight) and
    /// was answered from that run's All set without mining itself.
    pub coalesced: bool,
    /// Milliseconds spent queued before a worker picked the job up.
    pub queue_ms: u64,
    /// Milliseconds spent resolving the dataset + mining.
    pub mine_ms: u64,
    /// Microseconds from submit to the response being sent — the
    /// latency a caller experiences, at the resolution the loadgen
    /// percentiles are computed from.
    pub service_us: u64,
    /// The admission-control candidate bound computed for this request
    /// (0 when it was not computed — cache hits and early rejects).
    pub candidate_bound: f64,
}

/// The answer to one [`MineRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct MineResponse {
    /// How the request ended.
    pub outcome: Outcome,
    /// Frequent itemsets in the kernel's serial emission order —
    /// `None` when the request asked for counts only, or on rejection.
    pub patterns: Option<Arc<Vec<ItemsetCount>>>,
    /// Number of patterns delivered.
    pub count: u64,
    /// Human-readable cause, set for [`Outcome::Rejected`] and
    /// [`Outcome::Failed`].
    pub reason: Option<String>,
    /// Per-request statistics.
    pub stats: MineStats,
}

impl MineResponse {
    /// A rejection with `reason` and otherwise-empty fields.
    pub fn rejected(reason: impl Into<String>, stats: MineStats) -> Self {
        MineResponse {
            outcome: Outcome::Rejected,
            patterns: None,
            count: 0,
            reason: Some(reason.into()),
            stats,
        }
    }
}

/// Parses one request line of the wire protocol. The shape is
///
/// ```json
/// {"dataset": {"inline": [[1,2,3],[1,2]]},
///  "kernel": "lcm", "min_support": 2,
///  "deadline_ms": 250, "max_patterns": 1000, "include_patterns": true}
/// ```
///
/// with `{"name": "ds1", "scale": "smoke"}` or `{"path": "db.dat"}` as
/// the other dataset forms. `deadline_ms`, `max_patterns`, and
/// `include_patterns` are optional, as are the query fields:
/// `"class"` (`"all"` / `"closed"` / `"maximal"`), `"top_k"`
/// (non-negative integer), and `"rules"` (an object with numeric
/// `"min_confidence"` and optional `"min_lift"`). Absent query fields
/// mean the identity query — the pre-query wire shape parses to the
/// same request it always did.
pub fn parse_request(line: &str) -> Result<MineRequest, String> {
    let v = json::parse(line)?;
    let dataset = v.get("dataset").ok_or("missing \"dataset\"")?;
    let dataset = if let Some(rows) = dataset.get("inline") {
        let rows = rows.as_arr().ok_or("\"inline\" must be an array")?;
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let row = row.as_arr().ok_or("\"inline\" rows must be arrays")?;
            let mut t = Vec::with_capacity(row.len());
            for item in row {
                let item = item.as_u64().ok_or("items must be non-negative integers")?;
                t.push(u32::try_from(item).map_err(|_| format!("item {item} exceeds u32"))?);
            }
            out.push(t);
        }
        DatasetSpec::Inline(out)
    } else if let Some(name) = dataset.get("name") {
        let name = name.as_str().ok_or("\"name\" must be a string")?;
        let ds = Dataset::by_label(name).ok_or_else(|| format!("unknown dataset {name:?}"))?;
        let scale = match dataset.get("scale") {
            None => Scale::Smoke,
            Some(s) => {
                let s = s.as_str().ok_or("\"scale\" must be a string")?;
                Scale::by_label(s).ok_or_else(|| format!("unknown scale {s:?}"))?
            }
        };
        DatasetSpec::Named { dataset: ds, scale }
    } else if let Some(path) = dataset.get("path") {
        DatasetSpec::Path(path.as_str().ok_or("\"path\" must be a string")?.to_string())
    } else {
        return Err("\"dataset\" needs one of \"inline\", \"name\", \"path\"".into());
    };

    let kernel = v
        .get("kernel")
        .and_then(Json::as_str)
        .ok_or("missing \"kernel\"")?;
    let kernel = Kernel::by_label(kernel).ok_or_else(|| format!("unknown kernel {kernel:?}"))?;
    let min_support = v
        .get("min_support")
        .and_then(Json::as_u64)
        .ok_or("missing or invalid \"min_support\"")?;
    let deadline = match v.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(d) => Some(Duration::from_millis(
            d.as_u64().ok_or("\"deadline_ms\" must be a non-negative integer")?,
        )),
    };
    let max_patterns = match v.get("max_patterns") {
        None | Some(Json::Null) => None,
        Some(m) => Some(m.as_u64().ok_or("\"max_patterns\" must be a non-negative integer")?),
    };
    let include_patterns = match v.get("include_patterns") {
        None => true,
        Some(b) => b.as_bool().ok_or("\"include_patterns\" must be a boolean")?,
    };
    let class = match v.get("class") {
        None | Some(Json::Null) => MineKind::All,
        Some(c) => {
            let c = c.as_str().ok_or("\"class\" must be a string")?;
            MineKind::by_label(c).ok_or_else(|| format!("unknown class {c:?}"))?
        }
    };
    let top_k = match v.get("top_k") {
        None | Some(Json::Null) => None,
        Some(k) => Some(k.as_u64().ok_or("\"top_k\" must be a non-negative integer")?),
    };
    let rules = match v.get("rules") {
        None | Some(Json::Null) => None,
        Some(r) => {
            let min_confidence = r
                .get("min_confidence")
                .and_then(Json::as_f64)
                .ok_or("\"rules\" needs numeric \"min_confidence\"")?;
            let min_lift = match r.get("min_lift") {
                None | Some(Json::Null) => 0.0,
                Some(l) => l.as_f64().ok_or("\"min_lift\" must be numeric")?,
            };
            if !(0.0..=1.0).contains(&min_confidence) {
                return Err("\"min_confidence\" must be in [0, 1]".into());
            }
            if !min_lift.is_finite() || min_lift < 0.0 {
                return Err("\"min_lift\" must be finite and non-negative".into());
            }
            Some(RuleSpec {
                min_confidence,
                min_lift,
            })
        }
    };
    Ok(MineRequest {
        dataset,
        kernel,
        min_support,
        query: PatternQuery {
            class,
            top_k,
            rules,
        },
        deadline,
        max_patterns,
        include_patterns,
    })
}

/// Renders one response line of the wire protocol (no trailing newline)
/// straight into one pre-sized `String`; no [`Json`] tree is built.
/// Strings and the admission bound go through `json`'s own escaping and
/// number rules. Every other number is an integer and prints exactly,
/// which matches the `f64`-backed [`Json`] printer below 2^53.
pub fn render_response(resp: &MineResponse) -> String {
    let patterns = resp.patterns.as_deref();
    let mut out = String::with_capacity(
        256 + resp.reason.as_ref().map_or(0, String::len) + patterns.map_or(0, |p| 40 * p.len()),
    );
    out.push_str("{\"outcome\":");
    json::write_str(resp.outcome.label(), &mut out);
    write!(out, ",\"count\":{}", resp.count).expect("write to String cannot fail");
    if let Some(reason) = &resp.reason {
        out.push_str(",\"reason\":");
        json::write_str(reason, &mut out);
    }
    if let Some(patterns) = patterns {
        out.push_str(",\"patterns\":[");
        for (i, p) in patterns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"items\":[");
            for (j, item) in p.items.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write!(out, "{item}").expect("write to String cannot fail");
            }
            write!(out, "],\"support\":{}}}", p.support).expect("write to String cannot fail");
        }
        out.push(']');
    }
    let s = &resp.stats;
    write!(
        out,
        ",\"stats\":{{\"emitted\":{},\"truncated\":{},\"cache_hit\":{},\"coalesced\":{},\
         \"queue_ms\":{},\"mine_ms\":{},\"service_us\":{},\"candidate_bound\":",
        s.emitted, s.truncated, s.cache_hit, s.coalesced, s.queue_ms, s.mine_ms, s.service_us
    )
    .expect("write to String cannot fail");
    json::write_num(s.candidate_bound, &mut out);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_inline_request() {
        let r = parse_request(
            r#"{"dataset":{"inline":[[1,2,3],[1,2]]},"kernel":"lcm","min_support":2,
               "deadline_ms":250,"max_patterns":10,"include_patterns":false}"#,
        )
        .unwrap();
        assert_eq!(
            r.dataset,
            DatasetSpec::Inline(vec![vec![1, 2, 3], vec![1, 2]])
        );
        assert_eq!(r.kernel, Kernel::Lcm);
        assert_eq!(r.min_support, 2);
        assert_eq!(r.deadline, Some(Duration::from_millis(250)));
        assert_eq!(r.max_patterns, Some(10));
        assert!(!r.include_patterns);
    }

    #[test]
    fn parses_named_and_path_datasets() {
        let r = parse_request(
            r#"{"dataset":{"name":"ds2","scale":"ci"},"kernel":"eclat","min_support":5}"#,
        )
        .unwrap();
        assert_eq!(
            r.dataset,
            DatasetSpec::Named {
                dataset: Dataset::Ds2,
                scale: Scale::Ci
            }
        );
        assert_eq!(r.deadline, None);
        assert!(r.include_patterns);

        let r = parse_request(
            r#"{"dataset":{"path":"x.dat"},"kernel":"fpgrowth","min_support":1}"#,
        )
        .unwrap();
        assert_eq!(r.dataset, DatasetSpec::Path("x.dat".into()));
        assert_eq!(r.kernel, Kernel::FpGrowth);
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"kernel":"lcm","min_support":1}"#,
            r#"{"dataset":{"inline":[[1]]},"min_support":1}"#,
            r#"{"dataset":{"inline":[[1]]},"kernel":"nope","min_support":1}"#,
            r#"{"dataset":{"inline":[[1]]},"kernel":"lcm"}"#,
            r#"{"dataset":{"name":"ds9"},"kernel":"lcm","min_support":1}"#,
            r#"{"dataset":{"inline":[[-1]]},"kernel":"lcm","min_support":1}"#,
            r#"{"dataset":{"inline":[[1]]},"kernel":"lcm","min_support":1,"class":"open"}"#,
            r#"{"dataset":{"inline":[[1]]},"kernel":"lcm","min_support":1,"class":3}"#,
            r#"{"dataset":{"inline":[[1]]},"kernel":"lcm","min_support":1,"top_k":-4}"#,
            r#"{"dataset":{"inline":[[1]]},"kernel":"lcm","min_support":1,"rules":{}}"#,
            r#"{"dataset":{"inline":[[1]]},"kernel":"lcm","min_support":1,
               "rules":{"min_confidence":1.5}}"#,
            r#"{"dataset":{"inline":[[1]]},"kernel":"lcm","min_support":1,
               "rules":{"min_confidence":0.5,"min_lift":-1}}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_query_fields_and_defaults_to_identity() {
        // Absent fields: the pre-query wire shape still means "all".
        let r = parse_request(r#"{"dataset":{"inline":[[1]]},"kernel":"lcm","min_support":1}"#)
            .unwrap();
        assert!(r.query.is_all());
        assert_eq!(r.query, PatternQuery::all());

        // Nulls are treated as absent, like deadline_ms/max_patterns.
        let r = parse_request(
            r#"{"dataset":{"inline":[[1]]},"kernel":"lcm","min_support":1,
               "class":null,"top_k":null,"rules":null}"#,
        )
        .unwrap();
        assert!(r.query.is_all());

        let r = parse_request(
            r#"{"dataset":{"inline":[[1,2],[1,2],[2]]},"kernel":"eclat","min_support":1,
               "class":"closed","top_k":5,
               "rules":{"min_confidence":0.6,"min_lift":1.2}}"#,
        )
        .unwrap();
        assert_eq!(r.query.class, MineKind::Closed);
        assert_eq!(r.query.top_k, Some(5));
        let spec = r.query.rules.unwrap();
        assert_eq!(spec.min_confidence, 0.6);
        assert_eq!(spec.min_lift, 1.2);

        // min_lift is optional inside "rules" and defaults to 0 (no
        // lift constraint).
        let r = parse_request(
            r#"{"dataset":{"inline":[[1]]},"kernel":"lcm","min_support":1,
               "class":"maximal","rules":{"min_confidence":0.9}}"#,
        )
        .unwrap();
        assert_eq!(r.query.class, MineKind::Maximal);
        assert_eq!(r.query.rules, Some(RuleSpec::confidence(0.9)));
        assert_eq!(r.query.top_k, None);
    }

    #[test]
    fn renders_response_with_patterns() {
        let resp = MineResponse {
            outcome: Outcome::Complete,
            patterns: Some(Arc::new(vec![ItemsetCount {
                items: vec![1, 2],
                support: 3,
            }])),
            count: 1,
            reason: None,
            stats: MineStats {
                emitted: 1,
                mine_ms: 4,
                candidate_bound: 7.0,
                ..MineStats::default()
            },
        };
        let line = render_response(&resp);
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("complete"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(1));
        let p = &v.get("patterns").unwrap().as_arr().unwrap()[0];
        assert_eq!(p.get("support").unwrap().as_u64(), Some(3));
        let stats = v.get("stats").unwrap();
        assert_eq!(stats.get("candidate_bound").unwrap().as_u64(), Some(7));
    }

    /// Every outcome × patterns on/off × reason on/off × five admission
    /// bounds, plus an empty pattern list; counts and stats reach
    /// 2^53 - 1, item ids reach `u32::MAX`, and the reason needs every
    /// kind of escape.
    fn golden_cases() -> Vec<MineResponse> {
        let outcomes = [
            Outcome::Complete,
            Outcome::Cancelled,
            Outcome::DeadlineExceeded,
            Outcome::Rejected,
            Outcome::Failed,
        ];
        let bounds = [0.0, 7.0, 2.5, 1.5e30, f64::INFINITY];
        let patterns = Arc::new(vec![
            ItemsetCount { items: vec![2], support: 3 },
            ItemsetCount { items: vec![0, u32::MAX], support: (1 << 53) - 1 },
            ItemsetCount { items: vec![], support: 0 },
        ]);
        let reason = "say \"hi\"\nthen \\ \t\r\u{1}\u{1f} café → ∞";
        let mut cases = Vec::new();
        for outcome in outcomes {
            for with_patterns in [false, true] {
                for with_reason in [false, true] {
                    for bound in bounds {
                        let i = cases.len() as u64;
                        cases.push(MineResponse {
                            outcome,
                            patterns: with_patterns.then(|| Arc::clone(&patterns)),
                            count: i * 1_000_003,
                            reason: with_reason.then(|| reason.to_string()),
                            stats: MineStats {
                                emitted: i,
                                truncated: i % 2 == 1,
                                cache_hit: i.is_multiple_of(3),
                                coalesced: i.is_multiple_of(5),
                                queue_ms: i * 7,
                                mine_ms: 1000 + i,
                                service_us: (1 << 53) - 1 - i,
                                candidate_bound: bound,
                            },
                        });
                    }
                }
            }
        }
        cases.push(MineResponse {
            patterns: Some(Arc::new(Vec::new())),
            ..MineResponse::rejected("", MineStats::default())
        });
        cases
    }

    #[test]
    fn renders_the_golden_bytes() {
        // One line per case, as the `Json`-tree printer rendered it; the
        // direct writer must reproduce every byte.
        let golden = include_str!("../tests/render_response.golden");
        let cases = golden_cases();
        assert_eq!(golden.lines().count(), cases.len());
        for (i, (case, want)) in cases.iter().zip(golden.lines()).enumerate() {
            assert_eq!(render_response(case), want, "case {i}");
        }
    }

    #[test]
    fn outcome_labels_roundtrip() {
        for o in [
            Outcome::Complete,
            Outcome::Cancelled,
            Outcome::DeadlineExceeded,
            Outcome::Rejected,
            Outcome::Failed,
        ] {
            assert_eq!(Outcome::by_label(o.label()), Some(o));
        }
        for k in Kernel::ALL {
            assert_eq!(Kernel::by_label(k.label()), Some(k));
        }
    }
}
