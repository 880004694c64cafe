//! The traced replay: a workload's requests, one at a time, through each
//! layer's public calls, in the order the service makes them.
//!
//! Every call sits in a [`Tracer`] span. The same code runs once with
//! spans off and once with spans on; the difference in wall time is the
//! tracing overhead. Kernel work counts come from the kernels' serial
//! entry points, outside the timed loop.

use crate::scan::digest;
use crate::trace::Tracer;
use crate::workload::{Refs, Req, Workload, TOP_K};
use exec::MinePlan;
use fpm::{CollectSink, CountSink, ItemsetCount, Kernel, TransactionDb};
use quest::{Dataset, Scale};
use serve::cache::Lookup;
use serve::{parse_request, render_response, MineResponse, MineStats, Outcome, ResultCache};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one replay pass did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time spent in the replay's calls, store loads included.
    pub wall: Duration,
    /// Answers that differ from their reference.
    pub wrong: usize,
    /// Bytes of the store's artifacts.
    pub artifact_bytes: u64,
    /// `(collected size, answer size)` per non-identity request that
    /// mined: the All set, or the top-k path's at most k patterns.
    pub collected: Vec<(u64, u64)>,
    /// Distinct `(dataset, kernel, minsup)` keys the pass mined.
    pub mined: BTreeSet<(u8, u8, u64)>,
}

fn mine_span(kernel: Kernel) -> &'static str {
    match kernel {
        Kernel::Lcm => "exec.mine.lcm",
        Kernel::FpGrowth => "exec.mine.fpgrowth",
        Kernel::Eclat => "exec.mine.eclat",
    }
}

fn apply_span(q: u8) -> &'static str {
    match q {
        1 => "query.apply.closed",
        2 => "query.apply.maximal",
        3 => "query.apply.topk",
        _ => "query.apply.rules",
    }
}

/// One replay's state: a benchmark-owned cache with the service's
/// capacity and the datasets seen so far.
pub struct Replayer {
    w: Workload,
    cache: ResultCache,
    dbs: BTreeMap<&'static str, Arc<TransactionDb>>,
    /// What the replay did so far.
    pub out: Pass,
}

impl Replayer {
    /// A fresh replay, warm-started from `store_dir` when given (as the
    /// service's own warm start does: load every artifact, register its
    /// dataset, seed the cache with its results).
    pub fn new(w: Workload, store_dir: Option<&Path>, tr: &mut Tracer) -> io::Result<Replayer> {
        let cfg = w.service(None);
        let mut r = Replayer {
            w,
            cache: ResultCache::new(cfg.cache_capacity * cfg.shards),
            dbs: BTreeMap::new(),
            out: Pass::default(),
        };
        let t0 = Instant::now();
        if let Some(dir) = store_dir {
            for path in store::scan(dir)? {
                r.out.artifact_bytes += std::fs::metadata(&path)?.len();
                let a = tr
                    .span("store.load", 0, || store::Artifact::load(&path))
                    .map_err(|e| io::Error::other(format!("{}: {e:?}", path.display())))?;
                let ds = Dataset::by_label(&a.spec.dataset)
                    .ok_or_else(|| io::Error::other("artifact names an unknown dataset"))?;
                for e in a.live_results() {
                    let key = (a.fingerprint, e.kernel, e.min_support, e.query);
                    r.cache.insert(key, Arc::new(e.patterns.clone()));
                }
                r.dbs.insert(
                    ds.label(),
                    Arc::new(TransactionDb::from_transactions(a.raw)),
                );
            }
        }
        r.out.wall += t0.elapsed();
        Ok(r)
    }

    /// Replays request `id` (`line` is `r` on the wire) and checks the
    /// answer against `refs`.
    pub fn request(
        &mut self,
        id: u32,
        r: &Req,
        line: &str,
        refs: &Refs,
        tr: &mut Tracer,
    ) -> io::Result<()> {
        let t0 = Instant::now();
        let root = tr.enter("request", id);
        let req = tr
            .span("frontend.parse", id, || parse_request(line))
            .map_err(io::Error::other)?;
        let label = r.dataset().label();
        let db = match self.dbs.get(label) {
            Some(db) => Arc::clone(db),
            None => {
                let db =
                    Arc::new(tr.span("quest.generate", id, || r.dataset().generate(Scale::Smoke)));
                self.dbs.insert(label, Arc::clone(&db));
                db
            }
        };
        let fp = tr.span("cache.fingerprint", id, || serve::fingerprint(&db));
        let key = (fp, req.kernel.code(), req.min_support, req.query.key());
        let cache = &mut self.cache;
        let looked = tr.span("cache.probe", id, || cache.probe(&key));
        let (answer, hit) = match looked {
            Lookup::Hit(p) => (p, true),
            Lookup::Miss | Lookup::Corrupt | Lookup::Expired => {
                let minsup = req.min_support;
                black_box(tr.span("service.admission", id, || {
                    fpm::bound::candidate_bound(&db, minsup)
                }));
                black_box(tr.span("exec.remap", id, || fpm::remap(&db, minsup)));
                // Identity, closed, maximal and rules mine the All set,
                // and the last three apply their query to it. A top-k
                // request makes the service's own call instead: exec
                // streams it through its top-k sink, which keeps at most
                // k patterns and never builds the All set, then applies
                // the query to those. Its answer is that same list, so
                // the apply span below repeats that last step.
                let plan = MinePlan::kernel(req.kernel, minsup).threads(self.w.mine_threads());
                let plan = if r.query == TOP_K {
                    plan.query(req.query)
                } else {
                    plan
                };
                let mut sink = CollectSink::default();
                tr.span(mine_span(req.kernel), id, || plan.execute(&db, &mut sink));
                self.out.mined.insert(r.mine_key());
                let answer = if req.query.is_all() {
                    sink.patterns
                } else {
                    let collected = sink.patterns.len() as u64;
                    let n = db.len() as u64;
                    let answer = tr.span(apply_span(r.query), id, || {
                        req.query.apply(sink.patterns, n)
                    });
                    self.out.collected.push((collected, answer.len() as u64));
                    answer
                };
                let answer = Arc::new(answer);
                tr.span("cache.insert", id, || {
                    cache.insert(key, Arc::clone(&answer))
                });
                (answer, false)
            }
        };
        let resp = MineResponse {
            outcome: Outcome::Complete,
            count: answer.len() as u64,
            patterns: req.include_patterns.then(|| Arc::clone(&answer)),
            reason: None,
            stats: MineStats {
                emitted: answer.len() as u64,
                cache_hit: hit,
                ..MineStats::default()
            },
        };
        black_box(tr.span("frontend.encode", id, || render_response(&resp)));
        tr.exit(root);
        self.out.wall += t0.elapsed();
        if !matches(refs.get(r), &answer, r.patterns) {
            self.out.wrong += 1;
        }
        Ok(())
    }
}

/// Replays `reqs` twice in lockstep, once with spans off and once with
/// them on, alternating which goes first per request so that drift and
/// warm-up fall on both sides. Returns `(off, on, the spans)`.
pub fn replay(
    w: Workload,
    reqs: &[Req],
    refs: &Refs,
    store_dir: Option<&Path>,
) -> io::Result<(Pass, Pass, Tracer)> {
    let (mut t_off, mut t_on) = (Tracer::new(false), Tracer::new(true));
    let mut off = Replayer::new(w, store_dir, &mut t_off)?;
    let mut on = Replayer::new(w, store_dir, &mut t_on)?;
    for (i, r) in reqs.iter().enumerate() {
        let line = r.line();
        let id = i as u32;
        if i % 2 == 0 {
            off.request(id, r, &line, refs, &mut t_off)?;
            on.request(id, r, &line, refs, &mut t_on)?;
        } else {
            on.request(id, r, &line, refs, &mut t_on)?;
            off.request(id, r, &line, refs, &mut t_off)?;
        }
    }
    Ok((off.out, on.out, t_on))
}

fn matches(
    want: Option<&crate::workload::Expect>,
    answer: &[ItemsetCount],
    patterns: bool,
) -> bool {
    want.is_some_and(|w| {
        w.count == answer.len() as u64 && (!patterns || w.digest == Some(digest(answer)))
    })
}

/// Exact work counts summed over `keys`, from the kernels' serial entry
/// points: `(metric, count)`.
pub fn kernel_counts(keys: &BTreeSet<(u8, u8, u64)>) -> Vec<(&'static str, u64)> {
    let mut c: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut dbs: BTreeMap<u8, TransactionDb> = BTreeMap::new();
    for &(ds, kernel, minsup) in keys {
        let db = dbs
            .entry(ds)
            .or_insert_with(|| Dataset::ALL[ds as usize].generate(Scale::Smoke));
        let mut sink = CountSink::default();
        let kernel = Req {
            ds,
            kernel,
            minsup,
            query: 0,
            patterns: false,
        }
        .kernel();
        match kernel {
            Kernel::Lcm => {
                let s = lcm::mine(db, minsup, &lcm::LcmConfig::all(), &mut sink);
                *c.entry("lcm.nodes").or_default() += s.nodes;
                *c.entry("lcm.occ_entries").or_default() += s.occ_entries;
            }
            Kernel::FpGrowth => {
                let s = fpgrowth::mine(db, minsup, &fpgrowth::FpConfig::all(), &mut sink);
                *c.entry("fpgrowth.nodes_built").or_default() += s.nodes_built;
                *c.entry("fpgrowth.chain_nodes").or_default() += s.chain_nodes;
            }
            Kernel::Eclat => {
                let s =
                    eclat::tidlist::mine(db, minsup, eclat::tidlist::SparseRepr::Hybrid, &mut sink);
                *c.entry("eclat.set_ops").or_default() += s.set_ops;
                *c.entry("eclat.elements_in").or_default() += s.elements_in;
            }
        }
    }
    c.into_iter().collect()
}

/// Serial mine time per key for the `par.speedup` base, recorded as
/// `par.serial` spans.
pub fn serial_base(keys: &BTreeSet<(u8, u8, u64)>, tr: &mut Tracer) {
    let mut dbs: BTreeMap<u8, TransactionDb> = BTreeMap::new();
    for (i, &(ds, kernel, minsup)) in keys.iter().enumerate() {
        let db = dbs
            .entry(ds)
            .or_insert_with(|| Dataset::ALL[ds as usize].generate(Scale::Smoke));
        let kernel = Req {
            ds,
            kernel,
            minsup,
            query: 0,
            patterns: false,
        }
        .kernel();
        let mut sink = CollectSink::default();
        tr.span("par.serial", i as u32, || {
            MinePlan::kernel(kernel, minsup)
                .threads(1)
                .execute(db, &mut sink)
        });
    }
}
