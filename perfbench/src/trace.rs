//! The traced run: reads and writes recomposed from each layer's public
//! functions, one span per call, so time can be split by layer from
//! outside the library.
//!
//! A read follows the session's own path. When the workload prepares per
//! read: `auto_parameterize`, then `normalise_with_type_obs` (its
//! `Typecheck` stage span becomes an `nrc.typecheck` child). Cold-small
//! then compiles: every stage call (`shred_query`, `shred_type`,
//! `let_insert`, `sql_of_let_query`, `plan_query`, `optimize`) and then
//! `compile_normalised_opts` itself. The latter's time beyond its own
//! stage spans is cross-stage sharing (`core.share`). Every read that
//! prepares runs `lint_term` and `check_compiled`. Execution runs the
//! shared subplans, then each stage in package order, then decode and
//! stitch, with the session's `ExecOptions`. A write is one `apply_batch`
//! span; its live-view maintenance, taken from the views'
//! `maintain_nanos`, is a child span at its end.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use nrc::schema::Schema;
use nrc::term::Term;
use nrc::types::Path;
use nrc::value::Value;
use obs::{Json, QueryObs, Stage};
use shredding::error::ShredError;
use shredding::flatten::{value_to_sql, ColumnarStage, ResultLayout};
use shredding::letins::let_insert;
use shredding::normalise::normalise_with_type_obs;
use shredding::pipeline::{compile_normalised_opts, table_defs_of_schema, CompiledQuery};
use shredding::session::{auto_parameterize, Params, Shredder};
use shredding::shred::{package_by, shred_query, shred_type};
use shredding::sqlgen::sql_of_let_query;
use shredding::{Subscription, WriteBatch};
use sqlengine::plan::{plan_query, PhysicalPlan, SchemaCatalog};
use sqlengine::{Engine, ExecOptions, ParamValues};

use crate::workload::{Query, Workload};

/// Layers a read passes through, by span name. Each is reported as its
/// self time per read, `<name>_us`.
pub const READ_LAYERS: [&str; 12] = [
    "nrc.typecheck",
    "core.normalise",
    "core.shred",
    "core.sqlgen",
    "sqlengine.plan",
    "sqlengine.opt",
    "core.share",
    "analysis.verify",
    "sqlengine.exec",
    "sqlengine.exec.shared",
    "core.decode",
    "core.stitch",
];

/// Layers a write passes through, reported as self time per write batch.
pub const WRITE_LAYERS: [&str; 2] = ["sqlengine.storage.apply", "core.delta.maintain"];

/// Root span of a read. Its self time is glue outside every layer.
const READ_ROOT: &str = "request";

/// Children of `core.share` placed from `compile_normalised_opts`'s own
/// stage spans: the stage calls it makes, already counted once above.
const PIPELINE_STAGE: &str = "core.pipeline.stage";

/// The operator kinds the benchmark's optimized plans contain, each
/// reported on its own; every other `PhysicalPlan::kind()` is summed
/// under `other`.
pub const OPERATOR_KINDS: [&str; 10] = [
    "TableScan",
    "CteScan",
    "HashJoin",
    "Filter",
    "HashSemiJoin",
    "RowNumber",
    "Project",
    "UnionAll",
    "With",
    "other",
];

/// One call into a layer. Times are nanoseconds since the trace's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// The spans and counts of one thread, kept in memory until the run ends.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
    next_req: u64,
    req: u64,
    /// `(root span, query index)` of every read.
    pub reads: Vec<(usize, usize)>,
    pub writes: u64,
    /// Maintenance time of each live view, summed over the run, in ns.
    pub maintain_ns: Vec<u64>,
    /// Counts recorded at layer boundaries, summed over the run.
    pub counts: BTreeMap<&'static str, f64>,
    /// The same counts split by the query being read, when one is.
    pub query_counts: Vec<BTreeMap<&'static str, f64>>,
    query: Option<usize>,
}

impl Trace {
    /// Request ids start at `first_req`, so threads' traces merge cleanly.
    pub fn new(epoch: Instant, first_req: u64) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
            next_req: first_req,
            req: first_req,
            reads: Vec::new(),
            writes: 0,
            maintain_ns: Vec::new(),
            counts: BTreeMap::new(),
            query_counts: Vec::new(),
            query: None,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn root(&mut self, name: &'static str) -> usize {
        self.req = self.next_req;
        self.next_req += 1;
        self.begin(name, None)
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            req: self.req,
            parent,
            name,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, span: usize) {
        self.spans[span].end = self.now();
    }

    /// A child whose duration the library measured but whose position it
    /// did not record: laid out from `start`, in the order given.
    fn place(&mut self, name: &'static str, parent: usize, start: u64, nanos: u64) {
        self.spans.push(Span {
            req: self.req,
            parent: Some(parent),
            name,
            start,
            end: start + nanos,
        });
    }

    fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
        if let Some(q) = self.query {
            if self.query_counts.len() <= q {
                self.query_counts.resize_with(q + 1, BTreeMap::new);
            }
            *self.query_counts[q].entry(name).or_insert(0.0) += value;
        }
    }

    /// Each span's duration minus the time its children cover. Children of
    /// one span never overlap: every span of a trace comes from one thread.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.end - span.start);
            }
        }
        own
    }
}

/// The session's read and write paths, recomposed from layer calls.
pub struct Recomposer<'a> {
    workload: Workload,
    schema: &'a Schema,
    catalog: SchemaCatalog,
    engine: &'a Engine,
    opts: ExecOptions,
    /// Each query compiled once, as the plan cache holds it.
    pub compiled: Vec<CompiledQuery>,
}

impl<'a> Recomposer<'a> {
    pub fn new(
        workload: Workload,
        session: &'a Shredder,
        queries: &[Query],
        opts: ExecOptions,
    ) -> Result<Recomposer<'a>, ShredError> {
        let schema = session.schema();
        let compiled = queries
            .iter()
            .map(|q| {
                compile_normalised_opts(
                    q.prepared.normalised().clone(),
                    q.prepared.result_type().clone(),
                    schema,
                    None,
                    true,
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(Recomposer {
            workload,
            schema,
            catalog: SchemaCatalog::new(table_defs_of_schema(schema)),
            engine: session.engine()?,
            opts,
            compiled,
        })
    }

    /// One read of query `q`, as the workload's client issues it.
    pub fn read(&self, tr: &mut Trace, q: usize, query: &Query) -> Result<Value, ShredError> {
        let root = tr.root(READ_ROOT);
        tr.query = Some(q);
        let answer = self.read_in(tr, root, q, query);
        tr.query = None;
        tr.end(root);
        tr.reads.push((root, q));
        answer
    }

    fn read_in(
        &self,
        tr: &mut Trace,
        root: usize,
        q: usize,
        query: &Query,
    ) -> Result<Value, ShredError> {
        if !self.workload.prepares_per_read() {
            let params = sql_params(query.prepared.default_bindings())?;
            return self.execute(tr, root, &self.compiled[q], &params);
        }
        let (term, defaults) = auto_parameterize(&query.term);
        let span = tr.begin("core.normalise", Some(root));
        let obs = QueryObs::new(false);
        let normalised = normalise_with_type_obs(&term, self.schema, Some(&obs));
        tr.end(span);
        place_stage_spans(tr, span, &obs, |stage| {
            (stage == Stage::Typecheck).then_some("nrc.typecheck")
        });
        let (normalised, result_type) = normalised?;
        let fresh;
        let compiled = if self.workload == Workload::ColdSmall {
            fresh = self.compile(tr, root, normalised, result_type)?;
            &fresh
        } else {
            &self.compiled[q]
        };
        self.verify(tr, root, &term, compiled);
        self.execute(tr, root, compiled, &sql_params(&defaults)?)
    }

    fn compile(
        &self,
        tr: &mut Trace,
        root: usize,
        normalised: shredding::NormQuery,
        result_type: nrc::types::Type,
    ) -> Result<CompiledQuery, ShredError> {
        package_by(&result_type, &mut |path: &Path| -> Result<(), ShredError> {
            let span = tr.begin("core.shred", Some(root));
            let shredded = shred_query(&normalised, path)?;
            let layout = ResultLayout::new(&shred_type(&result_type, path)?.inner);
            let let_inserted = let_insert(&shredded);
            tr.end(span);
            let span = tr.begin("core.sqlgen", Some(root));
            let sql = sql_of_let_query(&let_inserted?, &layout, self.schema);
            tr.end(span);
            let span = tr.begin("sqlengine.plan", Some(root));
            let plan = plan_query(&sql?, &self.catalog);
            tr.end(span);
            let span = tr.begin("sqlengine.opt", Some(root));
            let optimized = sqlengine::optimize(plan.map_err(ShredError::Engine)?, &self.catalog);
            tr.end(span);
            std::hint::black_box(optimized);
            Ok(())
        })?;
        let span = tr.begin("core.share", Some(root));
        let obs = QueryObs::new(false);
        let compiled =
            compile_normalised_opts(normalised, result_type, self.schema, Some(&obs), true);
        tr.end(span);
        place_stage_spans(tr, span, &obs, |_| Some(PIPELINE_STAGE));
        compiled
    }

    fn verify(&self, tr: &mut Trace, root: usize, term: &Term, compiled: &CompiledQuery) {
        let mut names: Vec<String> = Vec::new();
        for (name, _) in term.params() {
            if !names.contains(&name) {
                names.push(name);
            }
        }
        let span = tr.begin("analysis.verify", Some(root));
        let mut found = analysis::lint::lint_term(term, &names);
        let catalog = table_defs_of_schema(self.schema);
        found.extend(shredding::verify::check_compiled(
            compiled, &catalog, &names,
        ));
        tr.end(span);
        std::hint::black_box(found);
    }

    fn execute(
        &self,
        tr: &mut Trace,
        root: usize,
        compiled: &CompiledQuery,
        params: &ParamValues,
    ) -> Result<Value, ShredError> {
        let mut shared = Vec::with_capacity(compiled.shared.len());
        for plan in &compiled.shared {
            let span = tr.begin("sqlengine.exec.shared", Some(root));
            let run = self.engine.execute_plan_bound_opts(plan, params, self.opts);
            tr.end(span);
            let (result, stats) = run?;
            count_exec(tr, span, result.len(), stats.morsels_dispatched);
            shared.push(result);
        }
        let mut decoded = Vec::new();
        for stage in compiled.stages.annotations() {
            let span = tr.begin("sqlengine.exec", Some(root));
            let run = match &stage.shared {
                Some(slot) if slot.index < shared.len() => {
                    self.engine.execute_plan_bound_ctes_opts(
                        &slot.body,
                        params,
                        &[(slot.name.clone(), shared[slot.index].clone())],
                        self.opts,
                    )
                }
                _ => self
                    .engine
                    .execute_plan_bound_opts(&stage.plan, params, self.opts),
            };
            tr.end(span);
            let (result, stats) = run?;
            count_exec(tr, span, result.len(), stats.morsels_dispatched);
            let span = tr.begin("core.decode", Some(root));
            let stage = ColumnarStage::decode(stage.layout.clone(), result);
            tr.end(span);
            let stage = stage?;
            tr.count("core.decode.rows", stage.len() as f64);
            decoded.push(stage);
        }
        let mut decoded = decoded.into_iter();
        let package = compiled.stages.try_map(&mut |_| {
            decoded
                .next()
                .ok_or_else(|| ShredError::Internal("stage count mismatch".into()))
        })?;
        let span = tr.begin("core.stitch", Some(root));
        let value = shredding::stitch(package);
        tr.end(span);
        let value = value?;
        tr.count("core.stitch.scalars", value.scalar_count() as f64);
        Ok(value)
    }

    /// Per-operator self time and output rows of one profiled execution of
    /// every stage plan of query `q` (the self-contained plans: profiling
    /// runs without cross-stage sharing, as `explain_analyze` does).
    pub fn profile_operators(
        &self,
        q: usize,
        query: &Query,
        into: &mut BTreeMap<&'static str, (f64, f64)>,
    ) -> Result<(), ShredError> {
        let params = sql_params(query.prepared.default_bindings())?;
        for stage in self.compiled[q].stages.annotations() {
            let (_, profile, _) =
                self.engine
                    .execute_plan_profiled_opts(&stage.plan, &params, self.opts)?;
            let nodes = stage.plan.nodes();
            for (i, node) in nodes.iter().enumerate() {
                let mut own = profile.ops[i].nanos;
                for child in direct_subtrees(&nodes, i) {
                    own = own.saturating_sub(profile.ops[child].nanos);
                }
                let kind = OPERATOR_KINDS
                    .into_iter()
                    .find(|&k| k == node.kind())
                    .unwrap_or("other");
                let entry = into.entry(kind).or_insert((0.0, 0.0));
                entry.0 += own as f64;
                entry.1 += profile.ops[i].rows_out as f64;
            }
        }
        Ok(())
    }
}

/// One write batch through the session, with live-view maintenance
/// (`stages` shredded stages across `views`) as a child span.
pub fn traced_apply(
    tr: &mut Trace,
    session: &Shredder,
    views: &[Subscription],
    stages: usize,
    batch: &WriteBatch,
) -> Result<(), ShredError> {
    let before: Vec<(u64, u64)> = views
        .iter()
        .map(|v| (v.maintain_nanos(), v.reseeds()))
        .collect();
    let root = tr.root("sqlengine.storage.apply");
    let delta = session.apply_batch(batch);
    tr.end(root);
    tr.writes += 1;
    let delta = delta?;
    tr.maintain_ns.resize(views.len(), 0);
    let (mut maintain, mut reseeds) = (0u64, 0u64);
    for (i, (view, (nanos, seeds))) in views.iter().zip(before).enumerate() {
        let spent = view.maintain_nanos() - nanos;
        tr.maintain_ns[i] += spent;
        maintain += spent;
        reseeds += view.reseeds() - seeds;
    }
    let end = tr.spans[root].end;
    tr.place(
        "core.delta.maintain",
        root,
        end.saturating_sub(maintain),
        maintain,
    );
    tr.count("sqlengine.storage.delta_rows", delta.row_count() as f64);
    tr.count("core.delta.reseeds", reseeds as f64);
    tr.count("core.delta.stage_maintenances", stages as f64);
    Ok(())
}

/// Pre-order indexes of the roots of node `i`'s direct subtrees (its
/// expression subplans and its inputs): `nodes()` lists a subtree
/// contiguously, so the next direct subtree starts where one ends.
fn direct_subtrees(nodes: &[&PhysicalPlan], i: usize) -> Vec<usize> {
    let end = i + nodes[i].nodes().len();
    let mut out = Vec::new();
    let mut j = i + 1;
    while j < end {
        out.push(j);
        j += nodes[j].nodes().len();
    }
    out
}

fn count_exec(tr: &mut Trace, span: usize, rows: usize, morsels: u64) {
    let nanos = (tr.spans[span].end - tr.spans[span].start) as f64;
    tr.count("sqlengine.exec.rows_out", rows as f64);
    tr.count("sqlengine.exec.morsels", morsels as f64);
    tr.count("sqlengine.exec.all_ns", nanos);
    if morsels > 0 {
        tr.count("sqlengine.exec.parallel_ns", nanos);
    }
}

/// Lay the library's stage spans recorded in `obs` out as children of
/// `parent`, back to back from its start, naming each by `name` (stages
/// it maps to `None` still take up their time, unnamed and unrecorded).
fn place_stage_spans(
    tr: &mut Trace,
    parent: usize,
    obs: &QueryObs,
    name: impl Fn(Stage) -> Option<&'static str>,
) {
    let mut at = tr.spans[parent].start;
    for span in obs.take().0 {
        if let Some(name) = name(span.stage) {
            tr.place(name, parent, at, span.nanos);
        }
        at += span.nanos;
    }
}

fn sql_params(params: &Params) -> Result<ParamValues, ShredError> {
    params
        .iter()
        .map(|(name, value)| Ok((name.to_string(), value_to_sql(value)?)))
        .collect()
}

/// Static properties of the plan each query runs, as counts.
pub fn plan_counts(query: &Query, compiled: &CompiledQuery) -> [(&'static str, f64); 8] {
    let stages = compiled.stages.annotations();
    let cse_bindings = stages.iter().filter(|s| s.shared.is_some()).count();
    let sum = |f: &dyn Fn(&shredding::pipeline::QueryStage) -> usize| {
        stages.iter().map(|s| f(s)).sum::<usize>() as f64
    };
    [
        (
            "core.normalise.nf_size",
            compiled.normalised.to_term().size() as f64,
        ),
        ("core.shred.stages", stages.len() as f64),
        (
            "core.sqlgen.sql_bytes",
            sum(&|s| sqlengine::print_query(&s.sql).len()),
        ),
        ("sqlengine.plan.nodes", sum(&|s| s.plan.nodes().len())),
        (
            "sqlengine.opt.rewrites",
            sum(&|s| s.opt.rewrites.len()) - cse_bindings as f64,
        ),
        ("sqlengine.opt.skipped", sum(&|s| s.opt.skipped.len())),
        ("core.share.slots", compiled.shared.len() as f64),
        ("analysis.diagnostics", query.prepared.check().len() as f64),
    ]
}

/// Spans written per trace at most: a cold-small run records about a
/// million, which would make an 80 MB file.
const SPANS_WRITTEN: usize = 50_000;

/// Write each trace's spans, one JSON object per line, after a header line
/// with the run's facts: all of them, or those of the requests that start
/// within the first [`SPANS_WRITTEN`]. Returns how many were written.
pub fn write_spans(
    path: &std::path::Path,
    header: &Json,
    traces: &[&Trace],
) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{}", header.render())?;
    let mut base = 0usize;
    let mut written = 0usize;
    for trace in traces {
        let keep = (SPANS_WRITTEN..trace.spans.len())
            .find(|&i| trace.spans[i].parent.is_none())
            .unwrap_or(trace.spans.len());
        written += keep;
        for (i, span) in trace.spans[..keep].iter().enumerate() {
            let line = Json::Obj(vec![
                ("id".into(), Json::from_u64((base + i) as u64)),
                ("req".into(), Json::from_u64(span.req)),
                (
                    "parent".into(),
                    span.parent
                        .map_or(Json::Null, |p| Json::from_u64((base + p) as u64)),
                ),
                ("name".into(), Json::Str(span.name.into())),
                ("start_ns".into(), Json::from_u64(span.start)),
                ("end_ns".into(), Json::from_u64(span.end)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        base += trace.spans.len();
    }
    out.flush()?;
    Ok(written)
}

/// Self time per request, in µs, of each of `layers`, over `requests`
/// reads or write batches.
pub fn layer_us(
    trace: &Trace,
    own: &[u64],
    layers: &[&'static str],
    requests: f64,
) -> Vec<(&'static str, f64)> {
    layers
        .iter()
        .map(|&layer| {
            let ns: u64 = trace
                .spans
                .iter()
                .zip(own)
                .filter(|(span, _)| span.name == layer)
                .map(|(_, &ns)| ns)
                .sum();
            (layer, ns as f64 / requests / 1e3)
        })
        .collect()
}

/// Mean self time per read, in µs, of every read layer, per query.
pub fn layer_us_by_query(
    trace: &Trace,
    own: &[u64],
    queries: usize,
) -> Vec<[f64; READ_LAYERS.len()]> {
    let mut sums = vec![[0.0; READ_LAYERS.len()]; queries];
    let mut reads = vec![0usize; queries];
    for (k, &(root, q)) in trace.reads.iter().enumerate() {
        let end = trace.reads.get(k + 1).map_or(trace.spans.len(), |r| r.0);
        for (span, &ns) in trace.spans[root + 1..end].iter().zip(&own[root + 1..end]) {
            if let Some(layer) = READ_LAYERS.iter().position(|&l| l == span.name) {
                sums[q][layer] += ns as f64 / 1e3;
            }
        }
        reads[q] += 1;
    }
    for (row, n) in sums.iter_mut().zip(reads) {
        row.iter_mut().for_each(|us| *us /= n.max(1) as f64);
    }
    sums
}
