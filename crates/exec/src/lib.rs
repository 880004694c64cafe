//! # `fpm-exec` — the unified mining executor
//!
//! PRs 1–3 grew each kernel a parallel, a controlled, and a probed
//! entry point; this crate collapses that matrix into one execution
//! path. A [`MinePlan`] names *what* to mine (kernel variant × minimum
//! support × pattern query) and *how* (a thread count — serial at one,
//! the `fpm-par` work-stealing runtime above — deadline, pattern
//! budget); [`MinePlan::execute`] is then the only place in the
//! workspace that wires the [`KernelSpine`] contract, [`ControlledSink`]
//! budget charging, and the deterministic rank-ordered merge together,
//! in one driver that identity and query plans share. Every caller —
//! the serve layer, the CLI, benches, conformance tests — builds a plan
//! instead of naming a kernel function (also-lint rule R6
//! `kernel-entry` enforces this).
//!
//! The invariant inherited from PR 1 and kept by every plan: the
//! emitted pattern sequence is **byte-identical** to the kernel's
//! serial emission order — at every thread count, and, when a deadline,
//! budget, cancellation, or task panic trips the run, as a contiguous
//! prefix of it (DESIGN.md §11; a panic is caught at the task boundary
//! and surfaces as `StopCause::TaskPanicked`, never as an unwind
//! crossing the mining API).
//!
//! ```
//! use fpm::{CollectSink, TransactionDb};
//! use fpm_exec::MinePlan;
//!
//! let db = TransactionDb::from_transactions(vec![vec![1, 2], vec![1, 2, 3]]);
//! let mut sink = CollectSink::default();
//! let summary = MinePlan::by_label("lcm", 2)
//!     .unwrap()
//!     .threads(2)
//!     .execute(&db, &mut sink);
//! assert!(summary.complete);
//! assert_eq!(summary.emitted, sink.patterns.len() as u64);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use fpm::control::{MineControl, StopCause};
use fpm::exec::KernelSpine;
use fpm::query::TopKSink;
use fpm::types::MineKind;
use fpm::{CollectSink, ControlledSink, PatternQuery, PatternSink, TransactionDb};
use memsim::NullProbe;
use std::time::Duration;

/// One kernel variant: which miner runs and with which ablation flags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelConfig {
    /// `fpm-lcm` with its [`lcm::LcmConfig`] variant flags.
    Lcm(lcm::LcmConfig),
    /// `fpm-eclat` with its [`eclat::EclatConfig`] variant flags.
    Eclat(eclat::EclatConfig),
    /// `fpm-fpgrowth` with its [`fpgrowth::FpConfig`] variant flags.
    FpGrowth(fpgrowth::FpConfig),
}

impl KernelConfig {
    /// The all-patterns configuration of a service kernel.
    pub fn from_kernel(kernel: fpm::Kernel) -> KernelConfig {
        match kernel {
            fpm::Kernel::Lcm => KernelConfig::Lcm(lcm::LcmConfig::all()),
            fpm::Kernel::Eclat => KernelConfig::Eclat(eclat::EclatConfig::all()),
            fpm::Kernel::FpGrowth => KernelConfig::FpGrowth(fpgrowth::FpConfig::all()),
        }
    }

    /// Parses a kernel label (`lcm`, `eclat`, `fpgrowth`), yielding its
    /// all-patterns configuration.
    pub fn by_label(label: &str) -> Result<KernelConfig, String> {
        fpm::Kernel::by_label(label)
            .map(KernelConfig::from_kernel)
            .ok_or_else(|| format!("unknown kernel {label:?}"))
    }

    /// Replaces the variant flags with the kernel's named Figure 8
    /// variant (`base`, `lex`, …, `all`).
    pub fn variant(self, name: &str) -> Result<KernelConfig, String> {
        fn pick<C>(
            kernel: &str,
            name: &str,
            variants: Vec<(&'static str, C)>,
        ) -> Result<C, String> {
            variants
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, c)| c)
                .ok_or_else(|| format!("{kernel} has no variant {name:?}"))
        }
        match self {
            KernelConfig::Lcm(_) => Ok(KernelConfig::Lcm(pick("lcm", name, lcm::variants())?)),
            KernelConfig::Eclat(_) => {
                Ok(KernelConfig::Eclat(pick("eclat", name, eclat::variants())?))
            }
            KernelConfig::FpGrowth(_) => Ok(KernelConfig::FpGrowth(pick(
                "fpgrowth",
                name,
                fpgrowth::variants(),
            )?)),
        }
    }

    /// The kernel's label.
    pub fn label(&self) -> &'static str {
        match self {
            KernelConfig::Lcm(_) => "lcm",
            KernelConfig::Eclat(_) => "eclat",
            KernelConfig::FpGrowth(_) => "fpgrowth",
        }
    }
}

/// What one [`MinePlan::execute`] run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSummary {
    /// `true` iff the full serial emission sequence reached the sink —
    /// nothing tripped and no task was abandoned or truncated.
    pub complete: bool,
    /// Patterns delivered to the caller's sink.
    pub emitted: u64,
    /// Why the run stopped early, `None` when nothing tripped.
    pub stop_cause: Option<StopCause>,
}

impl ExecSummary {
    /// `true` iff this run's output is the *entire* serial emission
    /// sequence and may therefore be shared beyond the requester that
    /// triggered it — cached, or fanned out to coalesced requests whose
    /// own limits are applied as prefix cuts. A tripped or truncated
    /// run is only honest for the caller whose limit tripped it.
    pub fn shareable(&self) -> bool {
        self.complete && self.stop_cause.is_none()
    }
}

/// A mining run, fully described: kernel variant × minimum support ×
/// scheduling × limits × query. Build one, then
/// [`execute`](MinePlan::execute) it against any database; the output
/// reaching the sink is always the kernel's serial emission order (or,
/// under a trip, a contiguous prefix of it) — for a query plan, the
/// query's answer in output order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinePlan {
    config: KernelConfig,
    minsup: u64,
    threads: usize,
    deadline: Option<Duration>,
    max_patterns: Option<u64>,
    query: PatternQuery,
}

impl MinePlan {
    /// A serial, unlimited plan for `config` at `minsup`.
    pub fn new(config: KernelConfig, minsup: u64) -> MinePlan {
        MinePlan {
            config,
            minsup,
            threads: 1,
            deadline: None,
            max_patterns: None,
            query: PatternQuery::all(),
        }
    }

    /// A plan for a service [`Kernel`](fpm::Kernel) (all-patterns
    /// configuration).
    pub fn kernel(kernel: fpm::Kernel, minsup: u64) -> MinePlan {
        Self::new(KernelConfig::from_kernel(kernel), minsup)
    }

    /// A plan parsed from a kernel label (`lcm`, `eclat`, `fpgrowth`).
    pub fn by_label(label: &str, minsup: u64) -> Result<MinePlan, String> {
        Ok(Self::new(KernelConfig::by_label(label)?, minsup))
    }

    /// Selects a named Figure 8 variant for the plan's kernel.
    pub fn variant(mut self, name: &str) -> Result<MinePlan, String> {
        self.config = self.config.variant(name)?;
        Ok(self)
    }

    /// The plan's kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Worker thread count, the plan's only scheduling knob: `1` (the
    /// default) streams serially on the calling thread, `0` runs the
    /// `fpm-par` work-stealing runtime with auto-detected parallelism,
    /// `n > 1` with `n` workers. Output is byte-identical across all
    /// values.
    pub fn threads(self, n: usize) -> MinePlan {
        MinePlan { threads: n, ..self }
    }

    /// Arms a wall-clock deadline, measured from the `execute` call.
    pub fn deadline(self, deadline: Duration) -> MinePlan {
        MinePlan {
            deadline: Some(deadline),
            ..self
        }
    }

    /// Caps the output at `n` patterns. An identity plan arms the cap as
    /// the control's budget, so the miner stops after delivering the
    /// first `n` patterns of the serial order. A query plan mines the
    /// complete All set regardless and cuts its answer to the first `n`
    /// results.
    pub fn max_patterns(self, n: u64) -> MinePlan {
        MinePlan {
            max_patterns: Some(n),
            ..self
        }
    }

    /// Selects which slice of the frequent set the plan answers with
    /// (DESIGN.md §15). Any query but the identity mines the complete
    /// All-class set through the same driver (so the prefix contract
    /// holds unchanged), applies the query as a pure function of the
    /// serial-order list, and delivers the answer — byte-identical at
    /// every thread count. A run whose mine trips (deadline, cancel,
    /// task panic) delivers the empty prefix rather than an unfounded
    /// partial answer.
    pub fn query(self, query: PatternQuery) -> MinePlan {
        MinePlan { query, ..self }
    }

    /// The plan's pattern query.
    pub fn pattern_query(&self) -> &PatternQuery {
        &self.query
    }

    /// Runs the plan, delivering patterns (original item ids, serial
    /// emission order) to `sink`. Arms a fresh [`MineControl`] from the
    /// plan's deadline and, for an identity plan, its `max_patterns`
    /// budget; use [`execute_controlled`](MinePlan::execute_controlled)
    /// to share an externally owned control (the serve layer's
    /// cancellation path).
    pub fn execute<S: PatternSink>(&self, db: &TransactionDb, sink: &mut S) -> ExecSummary {
        let budget = self.max_patterns.filter(|_| self.query.is_all());
        let control = MineControl::new(self.deadline, budget);
        self.execute_controlled(db, &control, sink)
    }

    /// [`execute`](MinePlan::execute) under a caller-owned
    /// [`MineControl`]. Arm deadlines and an identity plan's budget on
    /// the control itself: the plan's own `deadline` is ignored here,
    /// and its `max_patterns` only cuts a query plan's answer. A budget
    /// on the control charges every mined pattern — the All set, for a
    /// query plan — so arm one only for an identity plan, as serve does.
    pub fn execute_controlled<S: PatternSink>(
        &self,
        db: &TransactionDb,
        control: &MineControl,
        sink: &mut S,
    ) -> ExecSummary {
        if self.query.is_all() {
            let mut tally = Tally { inner: sink, emitted: 0 };
            let complete = self.mine(db, control, &mut tally);
            return ExecSummary {
                complete,
                emitted: tally.emitted,
                stop_cause: control.stop_cause(),
            };
        }
        // A pure top-k query selects while the serial order streams by:
        // its sink raises the control's support floor as its heap fills,
        // and its output equals the collect-then-select result by
        // construction. Every other query collects the full set.
        let (input, mined) = match (self.query.class, self.query.rules, self.query.top_k) {
            (MineKind::All, None, Some(k)) => {
                let mut top = TopKSink::new(k, control);
                let mined = self.mine(db, control, &mut top);
                (top.finish(), mined)
            }
            _ => {
                let mut all = CollectSink::default();
                let mined = self.mine(db, control, &mut all);
                (all.patterns, mined)
            }
        };
        if !mined {
            // A partial All set cannot support closedness, rule or top-k
            // claims, so the honest answer is the empty prefix with the
            // stop cause attached.
            return ExecSummary {
                complete: false,
                emitted: 0,
                stop_cause: control.stop_cause(),
            };
        }
        let answer = self.query.apply(input, db.len() as u64);
        let cut = self
            .max_patterns
            .map_or(answer.len(), |n| answer.len().min(n as usize));
        for p in answer.iter().take(cut) {
            sink.emit(&p.items, p.support);
        }
        let truncated = cut < answer.len();
        ExecSummary {
            complete: !truncated,
            emitted: cut as u64,
            stop_cause: if truncated {
                Some(StopCause::BudgetExhausted)
            } else {
                control.stop_cause()
            },
        }
    }

    /// Mines the plan's complete All-class set into `sink` through
    /// [`drive`]; returns `true` iff the full serial sequence arrived.
    fn mine<S: PatternSink>(
        &self,
        db: &TransactionDb,
        control: &MineControl,
        sink: &mut S,
    ) -> bool {
        let (minsup, threads) = (self.minsup, self.threads);
        match &self.config {
            KernelConfig::Lcm(cfg) => {
                drive::<lcm::LcmSpine, _>(db, cfg, minsup, threads, control, sink)
            }
            KernelConfig::Eclat(cfg) => {
                drive::<eclat::EclatSpine, _>(db, cfg, minsup, threads, control, sink)
            }
            KernelConfig::FpGrowth(cfg) => {
                drive::<fpgrowth::FpSpine, _>(db, cfg, minsup, threads, control, sink)
            }
        }
    }
}

/// Counts deliveries on their way to the caller's sink.
struct Tally<'a, S> {
    inner: &'a mut S,
    emitted: u64,
}

impl<S: PatternSink> PatternSink for Tally<'_, S> {
    #[inline]
    fn emit(&mut self, itemset: &[u32], support: u64) {
        self.emitted += 1;
        self.inner.emit(itemset, support);
    }
}

/// The one generic driver behind every spine kernel: prepare once,
/// enumerate root tasks in serial emission order, then either stream
/// them in order on the calling thread (`threads == 1`) or deal them to
/// the work-stealing runtime and merge per-task buffers back in task
/// order. Every emission is charged to `control`. Returns `true` iff the
/// full serial sequence reached `sink`.
fn drive<K: KernelSpine, S: PatternSink>(
    db: &TransactionDb,
    cfg: &K::Config,
    minsup: u64,
    threads: usize,
    control: &MineControl,
    sink: &mut S,
) -> bool {
    let prepared = K::prepare(db, minsup, cfg);
    let tasks = K::root_tasks(&prepared);
    if threads == 1 {
        // One controlled sink around the caller's: emissions stream
        // straight through in task order, each charged against the
        // control's budget. A panicking task is caught at the task
        // boundary, as the runtime's tasks are, with the chaos
        // worker-panic site crossed inside the catch: every emission is
        // a whole line, so what already streamed is still a clean serial
        // prefix, and the control records the failure as the first cause.
        let mut controlled = ControlledSink::new(control, sink);
        for (idx, task) in tasks.into_iter().enumerate() {
            if control.should_stop() {
                return false;
            }
            let done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if fpm::faults::worker_panic(idx) {
                    panic!("chaos: injected worker panic at task {idx}");
                }
                K::mine_task(&prepared, task, &mut NullProbe, control, &mut controlled)
            }));
            match done {
                Ok(true) => {}
                Ok(false) => return false,
                Err(_payload) => {
                    control.trip_panicked();
                    return false;
                }
            }
        }
        return controlled.suppressed == 0;
    }
    // Each task mines into a private buffer whose completeness is
    // tracked per task; the rank-ordered prefix replay then restores the
    // serial sequence (or a contiguous prefix of it when anything
    // tripped). The runtime hands a task panic back as a value — the
    // failed task's buffer slot is None, so the replay cuts before it —
    // and the control records it as the first cause instead of letting
    // the unwind cross the mining API.
    let prepared = &prepared;
    let (buffers, panic) = par::run(
        tasks,
        threads,
        || control.should_stop(),
        |task| {
            let mut controlled = ControlledSink::new(control, CollectSink::default());
            let done = K::mine_task(prepared, task, &mut NullProbe, control, &mut controlled);
            let complete = done && controlled.suppressed == 0;
            (controlled.into_inner().patterns, complete)
        },
    );
    if panic.is_some() {
        control.trip_panicked();
    }
    fpm::replay_merged_prefix(buffers, sink) && panic.is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm::types::canonicalize;
    use fpm::{CollectSink, ItemsetCount, RecordSink};

    fn toy() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![0, 2, 5],
            vec![1, 2, 5],
            vec![0, 2, 5],
            vec![3, 4],
            vec![0, 1, 2, 3, 4, 5],
        ])
    }

    fn serial_reference(kernel: fpm::Kernel, db: &TransactionDb, minsup: u64) -> Vec<u8> {
        let mut sink = RecordSink::default();
        match kernel {
            fpm::Kernel::Lcm => {
                lcm::mine(db, minsup, &lcm::LcmConfig::all(), &mut sink);
            }
            fpm::Kernel::Eclat => {
                eclat::mine(db, minsup, &eclat::EclatConfig::all(), &mut sink);
            }
            fpm::Kernel::FpGrowth => {
                fpgrowth::mine(db, minsup, &fpgrowth::FpConfig::all(), &mut sink);
            }
        }
        sink.bytes
    }

    #[test]
    fn plan_output_is_byte_identical_to_serial_mine() {
        let db = toy();
        for kernel in fpm::Kernel::ALL {
            let want = serial_reference(kernel, &db, 2);
            for threads in [1usize, 0, 2, 7] {
                let mut sink = RecordSink::default();
                let summary = MinePlan::kernel(kernel, 2).threads(threads).execute(&db, &mut sink);
                assert!(summary.complete, "{} threads={threads}", kernel.label());
                assert_eq!(summary.stop_cause, None);
                assert_eq!(sink.bytes, want, "{} threads={threads}", kernel.label());
            }
        }
    }

    #[test]
    fn budget_cuts_to_exact_serial_prefix() {
        let db = toy();
        for kernel in fpm::Kernel::ALL {
            let full = serial_reference(kernel, &db, 2);
            let full_lines: Vec<&[u8]> = full.split_inclusive(|&b| b == b'\n').collect();
            for budget in [0u64, 1, 3, full_lines.len() as u64 + 5] {
                for threads in [1usize, 3] {
                    let mut sink = RecordSink::default();
                    let summary = MinePlan::kernel(kernel, 2)
                        .threads(threads)
                        .max_patterns(budget)
                        .execute(&db, &mut sink);
                    let cap = budget.min(full_lines.len() as u64) as usize;
                    // Serial delivers exactly the first `budget` patterns;
                    // parallel charges the shared budget in racing task
                    // order, so it may keep fewer — but what it keeps is
                    // always a contiguous serial prefix.
                    let got_lines = sink.bytes.split_inclusive(|&b| b == b'\n').count();
                    if threads == 1 {
                        assert_eq!(got_lines, cap, "{} budget={budget}", kernel.label());
                    } else {
                        assert!(got_lines <= cap, "{} budget={budget}", kernel.label());
                    }
                    let want_bytes: Vec<u8> = full_lines[..got_lines]
                        .iter()
                        .flat_map(|l| l.iter().copied())
                        .collect();
                    assert_eq!(
                        sink.bytes,
                        want_bytes,
                        "{} threads={threads} budget={budget}",
                        kernel.label()
                    );
                    assert_eq!(summary.emitted, got_lines as u64);
                    if budget < full_lines.len() as u64 {
                        assert!(!summary.complete);
                        assert_eq!(summary.stop_cause, Some(StopCause::BudgetExhausted));
                    } else {
                        assert!(summary.complete, "{} threads={threads}", kernel.label());
                    }
                }
            }
        }
    }

    #[test]
    fn external_control_cancellation_yields_empty_prefix() {
        let db = toy();
        let control = MineControl::unlimited();
        control.cancel();
        for kernel in fpm::Kernel::ALL {
            let mut sink = CollectSink::default();
            let summary =
                MinePlan::kernel(kernel, 2).threads(3).execute_controlled(&db, &control, &mut sink);
            assert!(sink.patterns.is_empty(), "{}", kernel.label());
            assert!(!summary.complete);
            assert_eq!(summary.stop_cause, Some(StopCause::Cancelled));
        }
    }

    #[test]
    fn labels_variants_and_errors() {
        assert!(MinePlan::by_label("lcm", 2).unwrap().variant("tile").is_ok());
        assert!(MinePlan::by_label("eclat", 2).unwrap().variant("simd").is_ok());
        let err = MinePlan::by_label("eclat", 2).unwrap().variant("tile").unwrap_err();
        assert!(err.contains("eclat has no variant"), "{err}");
        let err = MinePlan::by_label("nope", 1).unwrap_err();
        assert!(err.contains("unknown kernel"), "{err}");
    }

    #[test]
    fn empty_database_is_complete_and_empty() {
        for threads in [1usize, 4] {
            let mut sink = CollectSink::default();
            let summary = MinePlan::kernel(fpm::Kernel::Lcm, 1)
                .threads(threads)
                .execute(&TransactionDb::default(), &mut sink);
            assert!(summary.complete);
            assert_eq!(summary.emitted, 0);
            assert!(sink.patterns.is_empty());
        }
    }

    #[test]
    fn query_plans_match_oracle_and_are_thread_invariant() {
        use fpm::types::MineKind;
        use fpm::{naive, PatternQuery, RuleSpec};
        let db = toy();
        let n = db.len() as u64;
        let queries = [
            PatternQuery::class(MineKind::Closed),
            PatternQuery::class(MineKind::Maximal),
            PatternQuery::all().top_k(4),
            PatternQuery::class(MineKind::Closed).top_k(3),
            PatternQuery::all().rules(RuleSpec { min_confidence: 0.5, min_lift: 1.0 }),
        ];
        for q in queries {
            let naive_want = q.apply(naive::mine(&db, 2), n);
            for kernel in fpm::Kernel::ALL {
                // Tie-breaking inside top-k follows the kernel's serial
                // rank, so the per-kernel oracle applies the query to the
                // kernel's own serial All-class output.
                let mut all = CollectSink::default();
                MinePlan::kernel(kernel, 2).execute(&db, &mut all);
                let want = q.apply(all.patterns, n);
                let mut reference: Option<Vec<u8>> = None;
                for threads in [1usize, 2, 4] {
                    let mut sink = RecordSink::default();
                    let summary = MinePlan::kernel(kernel, 2)
                        .query(q)
                        .threads(threads)
                        .execute(&db, &mut sink);
                    assert!(summary.complete, "{} {} t={threads}", kernel.label(), q.label());
                    assert_eq!(summary.emitted, want.len() as u64);
                    match &reference {
                        None => reference = Some(sink.bytes.clone()),
                        Some(r) => assert_eq!(
                            &sink.bytes,
                            r,
                            "{} {} t={threads}",
                            kernel.label(),
                            q.label()
                        ),
                    }
                    // The emitted list is exactly the per-kernel oracle,
                    // and (tie-free queries) the naive oracle's set.
                    let mut collect = CollectSink::default();
                    MinePlan::kernel(kernel, 2).query(q).threads(threads).execute(&db, &mut collect);
                    assert_eq!(collect.patterns, want, "{} {}", kernel.label(), q.label());
                    if q.top_k.is_none() {
                        assert_eq!(
                            canonicalize(collect.patterns),
                            canonicalize(naive_want.clone()),
                            "{} {}",
                            kernel.label(),
                            q.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn query_budget_cuts_to_prefix_of_query_answer() {
        use fpm::types::MineKind;
        use fpm::PatternQuery;
        let db = toy();
        let q = PatternQuery::class(MineKind::Closed);
        for kernel in fpm::Kernel::ALL {
            let mut full = RecordSink::default();
            MinePlan::kernel(kernel, 2).query(q).execute(&db, &mut full);
            let lines: Vec<&[u8]> = full.bytes.split_inclusive(|&b| b == b'\n').collect();
            assert!(lines.len() > 2);
            for threads in [1usize, 3] {
                let mut cut = RecordSink::default();
                let summary = MinePlan::kernel(kernel, 2)
                    .query(q)
                    .threads(threads)
                    .max_patterns(2)
                    .execute(&db, &mut cut);
                // Budgets charge per query result: exactly 2 delivered,
                // and they are the first 2 lines of the full answer at
                // any thread count.
                assert_eq!(summary.emitted, 2, "{} t={threads}", kernel.label());
                assert!(!summary.complete);
                assert_eq!(summary.stop_cause, Some(StopCause::BudgetExhausted));
                let want: Vec<u8> = lines[..2].iter().flat_map(|l| l.iter().copied()).collect();
                assert_eq!(cut.bytes, want, "{} t={threads}", kernel.label());
            }
        }
    }

    #[test]
    fn cancelled_query_run_delivers_empty_prefix() {
        use fpm::PatternQuery;
        let db = toy();
        let control = MineControl::unlimited();
        control.cancel();
        let mut sink = CollectSink::default();
        let summary = MinePlan::kernel(fpm::Kernel::Lcm, 2)
            .query(PatternQuery::all().top_k(3))
            .execute_controlled(&db, &control, &mut sink);
        assert!(sink.patterns.is_empty(), "tripped collection must not leak a partial answer");
        assert!(!summary.complete);
        assert_eq!(summary.emitted, 0);
        assert_eq!(summary.stop_cause, Some(StopCause::Cancelled));
    }

    #[test]
    fn top_k_raises_support_floor_through_control() {
        use fpm::PatternQuery;
        let db = toy();
        // A pure top-k selects through its streaming sink at every
        // thread count: fed by the serial stream or by the replay.
        for threads in [1usize, 3] {
            let control = MineControl::unlimited();
            let mut sink = CollectSink::default();
            let summary = MinePlan::kernel(fpm::Kernel::Eclat, 1)
                .query(PatternQuery::all().top_k(2))
                .threads(threads)
                .execute_controlled(&db, &control, &mut sink);
            assert!(summary.complete);
            assert_eq!(sink.patterns.len(), 2);
            assert!(
                control.support_floor() > 0,
                "threads={threads}: the top-k path must publish its dynamic floor"
            );
        }
    }

    #[test]
    fn canonical_sets_agree_across_kernels() {
        let db = toy();
        let mut reference: Option<Vec<ItemsetCount>> = None;
        for label in ["lcm", "eclat", "fpgrowth"] {
            let mut sink = CollectSink::default();
            MinePlan::by_label(label, 2).unwrap().execute(&db, &mut sink);
            let got = canonicalize(sink.patterns);
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "{label}"),
            }
        }
    }
}
