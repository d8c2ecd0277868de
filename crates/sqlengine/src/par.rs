//! Morsel-driven parallel execution of [`PhysicalPlan`] trees.
//!
//! [`crate::vexec`] executes a plan bottom-up with each operator consuming
//! its input batch whole, on one thread. This module re-runs the same
//! operator algebra as a pull-based pipeline of bounded **morsels**: an
//! operator's input is split into contiguous logical row ranges of at most
//! [`ExecOptions::morsel_rows`] rows (represented as selection-vector
//! sub-batches — columns stay `Arc`-shared, nothing is copied), and the
//! ranges are handed out to a pool of scoped worker threads from an atomic
//! cursor ([`par_map`]). Each worker owns the morsels it claims; per-morsel
//! results are reassembled **in morsel index order**, which is what makes
//! the executor deterministic:
//!
//! > for every plan, every parameter binding and every storage state, the
//! > parallel executor produces byte-identical results to the sequential
//! > [`vexec::exec`] path at *any* worker count and *any* morsel size.
//!
//! Per-operator strategy (see `DESIGN.md` § Morsel-driven parallel
//! execution for the full argument):
//!
//! * **Streaming operators** (filter, project, exists-semijoin, expression
//!   evaluation, join gather) are embarrassingly parallel per morsel: each
//!   morsel's output depends only on that morsel's rows, and concatenating
//!   outputs in morsel order reproduces the sequential order. Their
//!   intermediate buffers are bounded by the morsel size.
//! * **Hash join** evaluates key columns per-morsel, then builds a
//!   *partitioned* hash table: build rows are split by key hash into one
//!   partition per worker, each partition built in global build-row order,
//!   so every key's match list is identical to the single sequential
//!   table's. Probing scans probe morsels in parallel; each morsel emits
//!   pairs in probe order and the chunks concatenate to the sequential
//!   pair list.
//! * **Pipeline breakers** ([`PhysicalPlan::is_pipeline_breaker`]: sort,
//!   row-number, distinct, set operations) cannot stream — they accumulate
//!   per-worker partial state and merge. Sorting sorts per-worker
//!   contiguous runs and k-way-merges them with an index tie-break, which
//!   is provably equal to one global stable sort; distinct/except
//!   materialise rows in parallel but keep the order-dependent
//!   deduplication/decrement pass sequential.
//! * **Scans** stay zero-copy (a table scan is an `Arc` clone of the
//!   storage columns); the atomic cursor hands out morsel *ranges over the
//!   scanned batch* to the consuming operator rather than copying the scan
//!   output itself.
//!
//! `workers(1)` bypasses this module entirely and runs the sequential
//! executor, which keeps the interpreter oracle and the delta path
//! ([`crate::vexec::DeltaExec`]) valid differential baselines.

use crate::error::EngineError;
use crate::opt::live_estimate;
use crate::plan::{BuildSide, PhysicalPlan, VExpr};
use crate::storage::{ColumnarResult, Storage};
use crate::value::{compare_rows, ParamValues, Row, SqlValue};
use crate::vexec::{
    self, Batch, CteEnv, PlanProfile, Profiler, SchemaCol, ScopeFrame, ScopeStack, VecCtx,
};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default morsel size: bounds the rows a streaming operator touches (and
/// the intermediate buffers it allocates) per unit of scheduled work.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Per-row subplan execution (correlated `EXISTS`) is expensive enough that
/// parallelism pays for itself well below one morsel's worth of rows.
const PAR_SUBPLAN_ROWS: usize = 16;

/// Default estimated-row threshold below which a plan runs sequentially even
/// when `workers > 1`: sub-10ms pipelines lose more to thread hand-off than
/// they gain from fan-out (BENCH_pr9 measured 0.6–0.85× on every small
/// query), and ~8k rows is where fan-out starts paying for itself.
pub const DEFAULT_MIN_PARALLEL_ROWS: usize = 8192;

/// Execution options for one plan run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads to fan morsels across. `1` means the sequential
    /// executor (the degenerate case every differential baseline runs on).
    pub workers: usize,
    /// Upper bound on rows per morsel.
    pub morsel_rows: usize,
    /// Plans whose catalog-informed row estimate ([`crate::opt::live_estimate`])
    /// falls below this stay on the sequential executor regardless of
    /// `workers`. `0` disables the gate (always fan out when `workers > 1`).
    pub min_parallel_rows: usize,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            workers: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            min_parallel_rows: DEFAULT_MIN_PARALLEL_ROWS,
        }
    }
}

impl ExecOptions {
    /// Options with `workers` threads and the default morsel size.
    pub fn with_workers(workers: usize) -> ExecOptions {
        ExecOptions {
            workers: workers.max(1),
            ..ExecOptions::default()
        }
    }
}

/// What one parallel execution did: how many morsels were dispatched, the
/// peak number of workers simultaneously busy, and each morsel's wall time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub morsels_dispatched: u64,
    pub peak_workers: u64,
    pub morsel_nanos: Vec<u64>,
}

/// Shared tally behind [`ExecStats`], updated by every worker.
#[derive(Default)]
struct ParStats {
    morsels: AtomicU64,
    active: AtomicU64,
    peak: AtomicU64,
    nanos: Mutex<Vec<u64>>,
}

impl ParStats {
    fn begin(&self) {
        self.morsels.fetch_add(1, AtomicOrdering::Relaxed);
        let active = self.active.fetch_add(1, AtomicOrdering::Relaxed) + 1;
        self.peak.fetch_max(active, AtomicOrdering::Relaxed);
    }

    fn end(&self, nanos: u64) {
        self.active.fetch_sub(1, AtomicOrdering::Relaxed);
        if let Ok(mut v) = self.nanos.lock() {
            v.push(nanos);
        }
    }

    fn snapshot(&self) -> ExecStats {
        ExecStats {
            morsels_dispatched: self.morsels.load(AtomicOrdering::Relaxed),
            peak_workers: self.peak.load(AtomicOrdering::Relaxed),
            morsel_nanos: self.nanos.lock().map(|v| v.clone()).unwrap_or_default(),
        }
    }
}

/// Everything a parallel plan execution shares across workers.
struct ParCtx<'a> {
    storage: &'a Storage,
    params: &'a ParamValues,
    prof: Option<&'a Profiler>,
    workers: usize,
    morsel_rows: usize,
    stats: &'a ParStats,
}

impl<'a> ParCtx<'a> {
    /// The sequential-executor view of this context, for running whole
    /// sub-batches (morsels, correlated subplans) through [`vexec`].
    fn vec_ctx(&self) -> VecCtx<'a> {
        VecCtx {
            storage: self.storage,
            params: self.params,
            prof: self.prof,
        }
    }

    /// Should an operator over `len` rows fan out? Only when the input does
    /// not fit in a single morsel — small inputs stay on the inline path so
    /// the parallel executor never pays thread hand-off for trivial work.
    fn engage(&self, len: usize) -> bool {
        self.workers > 1 && len > self.morsel_rows
    }
}

/// Like [`vexec::execute_plan_bound`], but fanning morsels across
/// `opts.workers` threads. `workers <= 1` delegates to the sequential
/// executor (identical code path, no thread machinery).
pub fn execute_plan_bound_opts(
    plan: &PhysicalPlan,
    storage: &Storage,
    params: &ParamValues,
    opts: ExecOptions,
) -> Result<(ColumnarResult, ExecStats), EngineError> {
    if opts.workers <= 1 || below_parallel_threshold(plan, storage, opts) {
        let result = vexec::execute_plan_bound(plan, storage, params)?;
        return Ok((result, ExecStats::default()));
    }
    let stats = ParStats::default();
    let ctx = ParCtx {
        storage,
        params,
        prof: None,
        workers: opts.workers,
        morsel_rows: opts.morsel_rows.max(1),
        stats: &stats,
    };
    let batch = pexec(plan, &ctx, &CteEnv::default(), &ScopeStack::default())?;
    Ok((batch.into_columnar(), stats.snapshot()))
}

/// Like [`execute_plan_bound_opts`], but with pre-bound `WITH` results
/// visible to free `CteScan`s of those names — the parallel entry point for
/// package-level shared subplans (cross-stage CSE): a shared definition is
/// executed once per package and its columnar result re-bound, zero-copy,
/// under each consuming stage's CTE name. Falls back to the sequential
/// bound-CTE executor under the same adaptive-parallelism gate.
pub fn execute_plan_bound_ctes_opts(
    plan: &PhysicalPlan,
    storage: &Storage,
    params: &ParamValues,
    ctes: &[(String, ColumnarResult)],
    opts: ExecOptions,
) -> Result<(ColumnarResult, ExecStats), EngineError> {
    if opts.workers <= 1 || below_parallel_threshold(plan, storage, opts) {
        let result = vexec::execute_plan_bound_ctes(plan, storage, params, ctes)?;
        return Ok((result, ExecStats::default()));
    }
    let stats = ParStats::default();
    let ctx = ParCtx {
        storage,
        params,
        prof: None,
        workers: opts.workers,
        morsel_rows: opts.morsel_rows.max(1),
        stats: &stats,
    };
    let mut env = CteEnv::default();
    for (name, result) in ctes {
        env = env.extended(name, vexec::batch_from_columnar(result));
    }
    let batch = pexec(plan, &ctx, &env, &ScopeStack::default())?;
    Ok((batch.into_columnar(), stats.snapshot()))
}

/// Like [`vexec::execute_plan_profiled`], but parallel: every worker
/// aggregates its batches/rows/nanos into the shared atomic [`Profiler`],
/// so `EXPLAIN ANALYZE` actuals stay exact under parallelism.
pub fn execute_plan_profiled_opts(
    plan: &PhysicalPlan,
    storage: &Storage,
    params: &ParamValues,
    opts: ExecOptions,
) -> Result<(ColumnarResult, PlanProfile, ExecStats), EngineError> {
    if opts.workers <= 1 || below_parallel_threshold(plan, storage, opts) {
        let (result, prof) = vexec::execute_plan_profiled(plan, storage, params)?;
        return Ok((result, prof, ExecStats::default()));
    }
    let stats = ParStats::default();
    let prof = Profiler::new(plan);
    let ctx = ParCtx {
        storage,
        params,
        prof: Some(&prof),
        workers: opts.workers,
        morsel_rows: opts.morsel_rows.max(1),
        stats: &stats,
    };
    let batch = pexec(plan, &ctx, &CteEnv::default(), &ScopeStack::default())?;
    let result = batch.into_columnar();
    let ops = prof.actuals(plan);
    Ok((result, PlanProfile { ops }, stats.snapshot()))
}

/// The adaptive-parallelism gate: true when the plan's estimated output (and
/// therefore its likely working set) is too small for fan-out to pay for the
/// thread hand-off. Both entry points fall back to the sequential executor
/// in that case, which is byte-identical by the determinism guarantee.
fn below_parallel_threshold(plan: &PhysicalPlan, storage: &Storage, opts: ExecOptions) -> bool {
    opts.min_parallel_rows > 0 && live_estimate(plan, storage) < opts.min_parallel_rows as f64
}

// ---------------------------------------------------------------------------
// The worker pool primitive
// ---------------------------------------------------------------------------

/// Map `f` over `items` on up to `ctx.workers` scoped threads. Items are
/// handed out by an atomic cursor (morsel dispatch); each worker collects
/// `(index, result)` locally and the caller reassembles results **in item
/// order**, so the output is independent of scheduling. The first error (in
/// item order) aborts remaining dispatch and is returned; worker panics
/// propagate to the caller.
fn par_map<'env, T, R, F>(ctx: &ParCtx<'_>, items: &'env [T], f: F) -> Result<Vec<R>, EngineError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &'env T) -> Result<R, EngineError> + Sync,
{
    let n = items.len();
    let workers = ctx.workers.min(n);
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                ctx.stats.begin();
                let start = Instant::now();
                let r = f(i, item);
                ctx.stats
                    .end(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                r
            })
            .collect();
    }

    let cursor = AtomicU64::new(0);
    let failed = AtomicBool::new(false);
    let run = || {
        let mut local: Vec<(usize, Result<R, EngineError>)> = Vec::new();
        loop {
            if failed.load(AtomicOrdering::Relaxed) {
                break;
            }
            let i = cursor.fetch_add(1, AtomicOrdering::Relaxed) as usize;
            if i >= n {
                break;
            }
            ctx.stats.begin();
            let start = Instant::now();
            let r = f(i, &items[i]);
            ctx.stats
                .end(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            if r.is_err() {
                failed.store(true, AtomicOrdering::Relaxed);
            }
            local.push((i, r));
        }
        local
    };

    let mut collected: Vec<Vec<(usize, Result<R, EngineError>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(run)).collect();
        let mine = run();
        let mut all = vec![mine];
        for h in handles {
            match h.join() {
                Ok(v) => all.push(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut first_err: Option<(usize, EngineError)> = None;
    for (i, r) in collected.drain(..).flatten() {
        match r {
            Ok(v) => slots[i] = Some(v),
            Err(e) => {
                if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_err = Some((i, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    slots
        .into_iter()
        .map(|s| {
            s.ok_or_else(|| {
                EngineError::TypeError("internal: morsel result missing after join".to_string())
            })
        })
        .collect()
}

/// Split `0..len` into contiguous morsel ranges: at most `morsel_rows`
/// each, and small enough that every worker gets several morsels to keep
/// the atomic-cursor dispatch load-balanced.
fn morsel_ranges(ctx: &ParCtx<'_>, len: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let balanced = len.div_ceil(ctx.workers.max(1) * 4).max(1);
    let target = ctx.morsel_rows.min(balanced).max(1);
    (0..len)
        .step_by(target)
        .map(|s| s..(s + target).min(len))
        .collect()
}

/// Split `0..len` into one contiguous run per worker — the accumulation
/// granularity for pipeline breakers ([`PhysicalPlan::is_pipeline_breaker`]),
/// which merge per-worker state instead of streaming morsels.
fn worker_ranges(len: usize, workers: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let n = workers.min(len).max(1);
    let chunk = len.div_ceil(n).max(1);
    (0..len)
        .step_by(chunk)
        .map(|s| s..(s + chunk).min(len))
        .collect()
}

/// A morsel: the sub-batch of `batch` at logical rows `range`, expressed as
/// a selection vector over the same `Arc`-shared columns (no copying).
fn sub_batch(batch: &Batch, range: Range<usize>) -> Batch {
    let sel: Vec<usize> = range.map(|i| batch.phys(i)).collect();
    Batch {
        schema: batch.schema.clone(),
        columns: batch.columns.clone(),
        sel: Some(Arc::new(sel)),
        base_rows: batch.base_rows,
    }
}

// ---------------------------------------------------------------------------
// Parallel plan execution
// ---------------------------------------------------------------------------

/// Execute one plan node with morsel parallelism, recording profiler
/// actuals and the same dynamic invariants as the sequential [`vexec::exec`].
fn pexec(
    plan: &PhysicalPlan,
    ctx: &ParCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Batch, EngineError> {
    let timer = ctx.prof.map(|p| (p, Instant::now()));
    let batch = pexec_node(plan, ctx, ctes, scope)?;
    if let Some((prof, start)) = timer {
        prof.record(
            plan,
            batch.len() as u64,
            start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
    }
    debug_assert_eq!(
        batch.columns.len(),
        plan.output_columns().len(),
        "plan node produced a batch of {} columns but declares {} output columns",
        batch.columns.len(),
        plan.output_columns().len(),
    );
    debug_assert_eq!(batch.schema.len(), batch.columns.len());
    if let Some(sel) = &batch.sel {
        debug_assert!(sel.iter().all(|&p| p < batch.base_rows));
    }
    Ok(batch)
}

fn pexec_node(
    plan: &PhysicalPlan,
    ctx: &ParCtx<'_>,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Batch, EngineError> {
    match plan {
        // Leaves and structural nodes run exactly as in the sequential
        // executor: scans are zero-copy Arc clones, so the parallelism
        // lives in the operators that consume them.
        PhysicalPlan::UnitRow | PhysicalPlan::TableScan { .. } | PhysicalPlan::CteScan { .. } => {
            let vctx = ctx.vec_ctx();
            vexec::exec(plan, &vctx, ctes, scope)
        }
        PhysicalPlan::SubqueryScan { input, alias } => {
            let inner = par_materialise(ctx, pexec(input, ctx, ctes, scope)?)?;
            Ok(vexec::realias(&inner, alias))
        }
        PhysicalPlan::NestedLoopJoin { left, right } => {
            let l = pexec(left, ctx, ctes, scope)?;
            let r = pexec(right, ctx, ctes, scope)?;
            let pairs: Vec<(usize, usize)> = (0..l.len())
                .flat_map(|i| (0..r.len()).map(move |j| (i, j)))
                .collect();
            par_join_gather(ctx, &l, &r, &pairs)
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            build,
        } => {
            let l = pexec(left, ctx, ctes, scope)?;
            let r = pexec(right, ctx, ctes, scope)?;
            let lk = par_eval_keys(ctx, left_keys, &l, ctes, scope)?;
            let rk = par_eval_keys(ctx, right_keys, &r, ctes, scope)?;
            let (build_keys, probe_keys, probe_is_left) = match build {
                BuildSide::Right => (rk, lk, true),
                BuildSide::Left => (lk, rk, false),
            };
            let pairs = par_hash_join_pairs(ctx, &build_keys, &probe_keys, probe_is_left)?;
            par_join_gather(ctx, &l, &r, &pairs)
        }
        PhysicalPlan::Filter { input, predicate } => {
            let batch = pexec(input, ctx, ctes, scope)?;
            let len = batch.len();
            let sel: Vec<usize> = if !ctx.engage(len) {
                let vctx = ctx.vec_ctx();
                let values = vexec::eval(predicate, &batch, &vctx, ctes, scope)?;
                values
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.as_bool() == Some(true))
                    .map(|(i, _)| batch.phys(i))
                    .collect()
            } else {
                let ranges = morsel_ranges(ctx, len);
                let chunks = par_map(ctx, &ranges, |_, range| {
                    let sub = sub_batch(&batch, range.clone());
                    let vctx = ctx.vec_ctx();
                    let values = vexec::eval(predicate, &sub, &vctx, ctes, scope)?;
                    Ok(values
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| v.as_bool() == Some(true))
                        .map(|(k, _)| sub.phys(k))
                        .collect::<Vec<usize>>())
                })?;
                chunks.concat()
            };
            Ok(Batch {
                sel: Some(Arc::new(sel)),
                ..batch
            })
        }
        PhysicalPlan::ExistsSemiJoin {
            input,
            subplan,
            anti,
        } => {
            let batch = pexec(input, ctx, ctes, scope)?;
            let len = batch.len();
            // Per-row subplan execution dominates, so fan out well below
            // one morsel's worth of rows.
            let ranges = if ctx.workers > 1 && len >= PAR_SUBPLAN_ROWS {
                morsel_ranges(ctx, len)
            } else {
                std::iter::once(0..len).collect()
            };
            let chunks = par_map(ctx, &ranges, |_, range| {
                let vctx = ctx.vec_ctx();
                let mut sel = Vec::new();
                for i in range.clone() {
                    let frame = ScopeFrame {
                        schema: batch.schema.clone(),
                        values: batch.row(i),
                    };
                    let inner = vexec::exec(subplan, &vctx, ctes, &scope.pushed(frame))?;
                    if inner.is_empty() == *anti {
                        sel.push(batch.phys(i));
                    }
                }
                Ok(sel)
            })?;
            Ok(Batch {
                sel: Some(Arc::new(chunks.concat())),
                ..batch
            })
        }
        PhysicalPlan::HashSemiJoin {
            input,
            build,
            probe_keys,
            build_keys,
            anti,
        } => {
            let batch = pexec(input, ctx, ctes, scope)?;
            // The build side runs exactly once, under the same scope as this
            // node (decorrelation guarantees it holds no references to the
            // input's rows), and its key set is shared read-only by every
            // probe morsel.
            let built = pexec(build, ctx, ctes, scope)?;
            let mut table: HashSet<Row> = HashSet::new();
            'build: for key in par_eval_keys(ctx, build_keys, &built, ctes, scope)? {
                for v in &key {
                    if v.is_null() {
                        continue 'build;
                    }
                }
                table.insert(key);
            }
            let probe = par_eval_keys(ctx, probe_keys, &batch, ctes, scope)?;
            let len = batch.len();
            let keep = |i: usize| {
                let key = &probe[i];
                (!key.iter().any(|v| v.is_null()) && table.contains(key)) != *anti
            };
            let sel: Vec<usize> = if !ctx.engage(len) {
                (0..len)
                    .filter(|&i| keep(i))
                    .map(|i| batch.phys(i))
                    .collect()
            } else {
                let ranges = morsel_ranges(ctx, len);
                let chunks = par_map(ctx, &ranges, |_, range| {
                    Ok(range
                        .clone()
                        .filter(|&i| keep(i))
                        .map(|i| batch.phys(i))
                        .collect::<Vec<usize>>())
                })?;
                chunks.concat()
            };
            Ok(Batch {
                sel: Some(Arc::new(sel)),
                ..batch
            })
        }
        PhysicalPlan::RowNumber { input, specs, .. } => {
            let batch = par_materialise(ctx, pexec(input, ctx, ctes, scope)?)?;
            let len = batch.len();
            let mut schema = batch.schema.as_ref().clone();
            let mut columns = batch.columns.clone();
            for (spec_idx, keys) in specs.iter().enumerate() {
                let key_values = par_eval_keys(ctx, keys, &batch, ctes, scope)?;
                let order = par_sort_indices(ctx, &key_values)?;
                let mut rn = vec![SqlValue::Null; len];
                for (number, row_idx) in order.into_iter().enumerate() {
                    rn[row_idx] = SqlValue::Int((number + 1) as i64);
                }
                schema.push((None, format!("#rn{}", spec_idx)));
                columns.push(Arc::new(rn));
            }
            Ok(Batch {
                schema: Arc::new(schema),
                columns,
                sel: None,
                base_rows: len,
            })
        }
        PhysicalPlan::Sort { input, keys } => {
            let batch = pexec(input, ctx, ctes, scope)?;
            let key_values = par_eval_keys(ctx, keys, &batch, ctes, scope)?;
            let order = par_sort_indices(ctx, &key_values)?;
            let sel: Vec<usize> = order.into_iter().map(|i| batch.phys(i)).collect();
            Ok(Batch {
                sel: Some(Arc::new(sel)),
                ..batch
            })
        }
        PhysicalPlan::Project {
            input,
            exprs,
            columns,
        } => {
            let batch = pexec(input, ctx, ctes, scope)?;
            let len = batch.len();
            let schema: Vec<SchemaCol> = columns.iter().map(|c| (None, c.clone())).collect();
            let out: Vec<Arc<Vec<SqlValue>>> = if !ctx.engage(len) || exprs.is_empty() {
                let vctx = ctx.vec_ctx();
                exprs
                    .iter()
                    .map(|e| vexec::eval(e, &batch, &vctx, ctes, scope).map(Arc::new))
                    .collect::<Result<Vec<_>, _>>()?
            } else {
                // One task per (expression × morsel); per-expression chunks
                // concatenate in morsel order.
                let ranges = morsel_ranges(ctx, len);
                let tasks: Vec<(usize, Range<usize>)> = exprs
                    .iter()
                    .enumerate()
                    .flat_map(|(e, _)| ranges.iter().map(move |r| (e, r.clone())))
                    .collect();
                let parts = par_map(ctx, &tasks, |_, (e, range)| {
                    let sub = sub_batch(&batch, range.clone());
                    let vctx = ctx.vec_ctx();
                    vexec::eval(&exprs[*e], &sub, &vctx, ctes, scope)
                })?;
                let mut parts = parts.into_iter();
                (0..exprs.len())
                    .map(|_| {
                        let mut col: Vec<SqlValue> = Vec::with_capacity(len);
                        for _ in 0..ranges.len() {
                            let mut part = parts.next().expect("task count mismatch");
                            col.append(&mut part);
                        }
                        Arc::new(col)
                    })
                    .collect()
            };
            Ok(Batch {
                schema: Arc::new(schema),
                columns: out,
                sel: None,
                base_rows: len,
            })
        }
        PhysicalPlan::Distinct { input } => {
            // Pipeline breaker: rows materialise in parallel, but the
            // first-occurrence scan is inherently ordered and stays
            // sequential.
            let batch = pexec(input, ctx, ctes, scope)?;
            let rows = par_rows(ctx, &batch)?;
            let mut seen: HashSet<Row> = HashSet::new();
            let sel: Vec<usize> = rows
                .into_iter()
                .enumerate()
                .filter(|(_, row)| seen.insert(row.clone()))
                .map(|(i, _)| batch.phys(i))
                .collect();
            Ok(Batch {
                sel: Some(Arc::new(sel)),
                ..batch
            })
        }
        PhysicalPlan::UnionAll(branches) => {
            let mut iter = branches.iter();
            let first = iter
                .next()
                .ok_or_else(|| EngineError::TypeError("empty UNION ALL".to_string()))?;
            let acc = pexec(first, ctx, ctes, scope)?.materialised();
            let width = acc.columns.len();
            let mut columns: Vec<Vec<SqlValue>> = (0..width)
                .map(|c| acc.columns[c].as_ref().clone())
                .collect();
            let mut total = acc.base_rows;
            for branch in iter {
                let next = pexec(branch, ctx, ctes, scope)?;
                if next.columns.len() != width {
                    return Err(EngineError::TypeError(format!(
                        "UNION ALL branches have {} and {} columns",
                        width,
                        next.columns.len()
                    )));
                }
                total += next.len();
                for (c, column) in columns.iter_mut().enumerate() {
                    column.extend(next.gather(c));
                }
            }
            Ok(Batch {
                schema: acc.schema,
                columns: columns.into_iter().map(Arc::new).collect(),
                sel: None,
                base_rows: total,
            })
        }
        PhysicalPlan::ExceptAll { left, right } => {
            let l = pexec(left, ctx, ctes, scope)?;
            let r = pexec(right, ctx, ctes, scope)?;
            let r_rows = par_rows(ctx, &r)?;
            let l_rows = par_rows(ctx, &l)?;
            let mut counts: HashMap<Row, usize> = HashMap::new();
            for row in r_rows {
                *counts.entry(row).or_insert(0) += 1;
            }
            let mut rows = Vec::new();
            for row in l_rows {
                match counts.get_mut(&row) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => rows.push(row),
                }
            }
            Ok(Batch::from_rows(l.schema.clone(), rows))
        }
        PhysicalPlan::With {
            name,
            definition,
            body,
        } => {
            let bound = pexec(definition, ctx, ctes, scope)?;
            let extended = ctes.extended(name, bound);
            pexec(body, ctx, &extended, scope)
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel operator kernels
// ---------------------------------------------------------------------------

/// Parallel [`Batch::materialised`]: gather each column on its own worker.
fn par_materialise(ctx: &ParCtx<'_>, batch: Batch) -> Result<Batch, EngineError> {
    if batch.sel.is_none() || !ctx.engage(batch.len()) || batch.columns.len() <= 1 {
        return Ok(batch.materialised());
    }
    let cols: Vec<usize> = (0..batch.columns.len()).collect();
    let columns = par_map(ctx, &cols, |_, &c| Ok(Arc::new(batch.gather(c))))?;
    Ok(Batch {
        schema: batch.schema.clone(),
        columns,
        sel: None,
        base_rows: batch.len(),
    })
}

/// Parallel [`vexec::eval_keys`]: key rows per morsel, concatenated in
/// morsel order.
fn par_eval_keys(
    ctx: &ParCtx<'_>,
    keys: &[VExpr],
    batch: &Batch,
    ctes: &CteEnv,
    scope: &ScopeStack,
) -> Result<Vec<Row>, EngineError> {
    let len = batch.len();
    if !ctx.engage(len) {
        let vctx = ctx.vec_ctx();
        return vexec::eval_keys(keys, batch, &vctx, ctes, scope);
    }
    let ranges = morsel_ranges(ctx, len);
    let chunks = par_map(ctx, &ranges, |_, range| {
        let sub = sub_batch(batch, range.clone());
        let vctx = ctx.vec_ctx();
        vexec::eval_keys(keys, &sub, &vctx, ctes, scope)
    })?;
    Ok(chunks.concat())
}

/// Materialise every logical row of a batch, morsel-parallel.
fn par_rows(ctx: &ParCtx<'_>, batch: &Batch) -> Result<Vec<Row>, EngineError> {
    let len = batch.len();
    if !ctx.engage(len) {
        return Ok((0..len).map(|i| batch.row(i)).collect());
    }
    let ranges = morsel_ranges(ctx, len);
    let chunks = par_map(ctx, &ranges, |_, range| {
        Ok(range.clone().map(|i| batch.row(i)).collect::<Vec<Row>>())
    })?;
    Ok(chunks.concat())
}

fn hash_row(row: &Row) -> u64 {
    let mut h = DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
}

/// The hash-join match phase, partitioned: build rows are split by key hash
/// into one partition per worker (each partition's match lists are in global
/// build-row order, so the union of partitions is exactly the sequential
/// hash table), then probe morsels scan in parallel and emit pairs in probe
/// order.
fn par_hash_join_pairs(
    ctx: &ParCtx<'_>,
    build_keys: &[Row],
    probe_keys: &[Row],
    probe_is_left: bool,
) -> Result<Vec<(usize, usize)>, EngineError> {
    let engaged = ctx.engage(build_keys.len()) || ctx.engage(probe_keys.len());
    if !engaged {
        // Sequential single-table path, identical to the vexec operator.
        let mut table: HashMap<&Row, Vec<usize>> = HashMap::new();
        'build: for (i, key) in build_keys.iter().enumerate() {
            for v in key {
                if v.is_null() {
                    continue 'build;
                }
            }
            table.entry(key).or_default().push(i);
        }
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        'probe: for (i, key) in probe_keys.iter().enumerate() {
            for v in key {
                if v.is_null() {
                    continue 'probe;
                }
            }
            if let Some(matches) = table.get(key) {
                for &j in matches {
                    pairs.push(if probe_is_left { (i, j) } else { (j, i) });
                }
            }
        }
        return Ok(pairs);
    }

    // Hash every non-NULL key once, morsel-parallel.
    let hash_side = |keys: &[Row]| -> Result<Vec<Option<u64>>, EngineError> {
        let ranges = morsel_ranges(ctx, keys.len());
        let chunks = par_map(ctx, &ranges, |_, range| {
            Ok(range
                .clone()
                .map(|i| {
                    let key = &keys[i];
                    if key.iter().any(|v| v.is_null()) {
                        None
                    } else {
                        Some(hash_row(key))
                    }
                })
                .collect::<Vec<_>>())
        })?;
        Ok(chunks.concat())
    };
    let build_hashes = hash_side(build_keys)?;
    let probe_hashes = hash_side(probe_keys)?;

    // Partitioned build: worker `p` owns the keys whose hash lands in
    // partition `p` and inserts them in global build-row order, so each
    // key's match list equals the sequential table's.
    let nparts = ctx.workers as u64;
    let parts: Vec<u64> = (0..nparts).collect();
    let tables: Vec<HashMap<&Row, Vec<usize>>> = par_map(ctx, &parts, |_, &p| {
        let mut table: HashMap<&Row, Vec<usize>> = HashMap::new();
        for (i, h) in build_hashes.iter().enumerate() {
            if let Some(h) = h {
                if h % nparts == p {
                    table.entry(&build_keys[i]).or_default().push(i);
                }
            }
        }
        Ok(table)
    })?;

    // Parallel probe: each morsel emits its pairs in probe order; chunks
    // concatenate to the sequential pair list.
    let ranges = morsel_ranges(ctx, probe_keys.len());
    let chunks = par_map(ctx, &ranges, |_, range| {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for i in range.clone() {
            if let Some(h) = probe_hashes[i] {
                if let Some(matches) = tables[(h % nparts) as usize].get(&probe_keys[i]) {
                    for &j in matches {
                        pairs.push(if probe_is_left { (i, j) } else { (j, i) });
                    }
                }
            }
        }
        Ok(pairs)
    })?;
    Ok(chunks.concat())
}

/// Parallel [`vexec::join_gather`]: one worker per output column (the unit
/// that avoids any cross-worker writes and any post-merge copy).
fn par_join_gather(
    ctx: &ParCtx<'_>,
    left: &Batch,
    right: &Batch,
    pairs: &[(usize, usize)],
) -> Result<Batch, EngineError> {
    let width = left.columns.len() + right.columns.len();
    if !ctx.engage(pairs.len()) || width <= 1 {
        return Ok(vexec::join_gather(left, right, pairs));
    }
    let mut schema = left.schema.as_ref().clone();
    schema.extend(right.schema.iter().cloned());
    let lw = left.columns.len();
    let cols: Vec<usize> = (0..width).collect();
    let columns = par_map(ctx, &cols, |_, &c| {
        Ok(Arc::new(if c < lw {
            let data = &left.columns[c];
            pairs
                .iter()
                .map(|&(i, _)| data[left.phys(i)].clone())
                .collect::<Vec<SqlValue>>()
        } else {
            let data = &right.columns[c - lw];
            pairs
                .iter()
                .map(|&(_, j)| data[right.phys(j)].clone())
                .collect::<Vec<SqlValue>>()
        }))
    })?;
    Ok(Batch {
        schema: Arc::new(schema),
        columns,
        sel: None,
        base_rows: pairs.len(),
    })
}

/// Stable sort of `0..keys.len()` by key, parallel: per-worker contiguous
/// runs are stably sorted, then k-way merged with an index tie-break.
/// Within a run, equal keys keep ascending index order (stable sort over a
/// contiguous ascending range); across runs, ties pick the smaller index —
/// so the merged order is exactly "sorted by (key, index)", which is what a
/// single global stable sort produces. The result is therefore independent
/// of worker count and run boundaries.
fn par_sort_indices(ctx: &ParCtx<'_>, keys: &[Row]) -> Result<Vec<usize>, EngineError> {
    let len = keys.len();
    let mut order: Vec<usize> = (0..len).collect();
    if !ctx.engage(len) {
        order.sort_by(|&a, &b| compare_rows(&keys[a], &keys[b]));
        return Ok(order);
    }
    let ranges = worker_ranges(len, ctx.workers);
    let mut runs = par_map(ctx, &ranges, |_, range| {
        let mut run: Vec<usize> = range.clone().collect();
        run.sort_by(|&a, &b| compare_rows(&keys[a], &keys[b]));
        Ok(run)
    })?;
    let mut heads = vec![0usize; runs.len()];
    let mut out = Vec::with_capacity(len);
    loop {
        let mut best: Option<(usize, usize)> = None;
        for (rix, run) in runs.iter().enumerate() {
            if heads[rix] >= run.len() {
                continue;
            }
            let cand = run[heads[rix]];
            best = Some(match best {
                None => (rix, cand),
                Some((brix, bidx)) => match compare_rows(&keys[cand], &keys[bidx]) {
                    Ordering::Less => (rix, cand),
                    Ordering::Greater => (brix, bidx),
                    Ordering::Equal => {
                        if cand < bidx {
                            (rix, cand)
                        } else {
                            (brix, bidx)
                        }
                    }
                },
            });
        }
        match best {
            Some((rix, idx)) => {
                heads[rix] += 1;
                out.push(idx);
            }
            None => break,
        }
    }
    for run in runs.drain(..) {
        drop(run);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ctx<'a>(
        storage: &'a Storage,
        params: &'a ParamValues,
        stats: &'a ParStats,
        workers: usize,
        morsel_rows: usize,
    ) -> ParCtx<'a> {
        ParCtx {
            storage,
            params,
            prof: None,
            workers,
            morsel_rows,
            stats,
        }
    }

    #[test]
    fn par_map_preserves_item_order() {
        let storage = Storage::new();
        let params = ParamValues::new();
        let stats = ParStats::default();
        let ctx = test_ctx(&storage, &params, &stats, 4, 1);
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&ctx, &items, |_, &x| Ok(x * 2)).unwrap();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        let snap = stats.snapshot();
        assert_eq!(snap.morsels_dispatched, 100);
        assert!(snap.peak_workers >= 1);
        assert_eq!(snap.morsel_nanos.len(), 100);
    }

    #[test]
    fn par_map_returns_first_error_in_item_order() {
        let storage = Storage::new();
        let params = ParamValues::new();
        let stats = ParStats::default();
        let ctx = test_ctx(&storage, &params, &stats, 4, 1);
        let items: Vec<usize> = (0..64).collect();
        let err = par_map(&ctx, &items, |_, &x| {
            if x >= 10 {
                Err(EngineError::TypeError(format!("boom {x}")))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        // Workers may hit later failing items first, but the reported error
        // is the smallest failing index among those actually executed —
        // item 10 always executes because dispatch is in index order and
        // nothing before it fails.
        assert_eq!(
            err.to_string(),
            EngineError::TypeError("boom 10".into()).to_string()
        );
    }

    #[test]
    fn morsel_ranges_cover_and_bound() {
        let storage = Storage::new();
        let params = ParamValues::new();
        let stats = ParStats::default();
        for (workers, morsel, len) in [(4, 1, 17), (4, 7, 100), (2, 4096, 10_000), (8, 3, 3)] {
            let ctx = test_ctx(&storage, &params, &stats, workers, morsel);
            let ranges = morsel_ranges(&ctx, len);
            assert!(ranges.iter().all(|r| r.len() <= morsel && !r.is_empty()));
            let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(flat, (0..len).collect::<Vec<_>>());
        }
        let ctx = test_ctx(&storage, &params, &stats, 4, 8);
        assert!(morsel_ranges(&ctx, 0).is_empty());
    }

    #[test]
    fn worker_ranges_cover() {
        for (len, workers) in [(10, 3), (3, 8), (1, 1), (4096, 4)] {
            let ranges = worker_ranges(len, workers);
            assert!(ranges.len() <= workers);
            let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(flat, (0..len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_stable_sort_matches_sequential() {
        let storage = Storage::new();
        let params = ParamValues::new();
        let stats = ParStats::default();
        // Lots of duplicate keys to exercise the stability tie-break.
        let keys: Vec<Row> = (0..1000)
            .map(|i| vec![SqlValue::Int((i * 37 % 11) as i64)])
            .collect();
        let mut expected: Vec<usize> = (0..keys.len()).collect();
        expected.sort_by(|&a, &b| compare_rows(&keys[a], &keys[b]));
        for workers in [2, 3, 8] {
            let ctx = test_ctx(&storage, &params, &stats, workers, 16);
            assert_eq!(par_sort_indices(&ctx, &keys).unwrap(), expected);
        }
    }
}
