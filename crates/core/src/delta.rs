//! Live nested views: delta-driven incremental maintenance of shredded
//! results.
//!
//! A prepared shredded query is a package of flat SQL stages whose rows are
//! grouped by their `(oidx_tag, oidx_ord)` outer-index columns and stitched
//! back into one nested value. This module keeps that whole chain *live*
//! across storage writes:
//!
//! * each stage's physical plan gets a [`DeltaExec`] — the sqlengine
//!   incremental executor whose per-operator caches turn a committed
//!   [`StorageDelta`] into a signed delta of the stage's output rows;
//! * the stage's rows are held pre-grouped by outer index, and the output
//!   delta touches only the groups whose rows actually changed;
//! * a caching stitcher materialises the nested value from those groups,
//!   memoising one [`Value`] per `(stage, index)` group and recording the
//!   reverse dependency edge child group → parent group whenever a parent
//!   row reads a nested index. After a write, dirtiness starts at the
//!   changed groups and flows *up* those edges, so the stitcher
//!   re-materialises only the nested subtrees whose groups changed — every
//!   clean subtree is a cache hit.
//!
//! Index ordinals stay put. The `ROW_NUMBER` windows that number a stage's
//! flat indexes are marked index ordinals by SQL generation, and
//! [`DeltaExec`] keeps each row's ordinal for as long as the row lives
//! instead of renumbering every later row. A parent stage's body window and
//! its child's `WITH` window see the same window keys and the same key
//! deltas, so they keep holding the same ordinals (the cross-stage invariant
//! documented on [`DeltaExec`]) and the `(oidx_tag, oidx_ord)` join between
//! them stays exact. A delete therefore touches the deleted row's subtree,
//! not every group numbered after it. Fresh ordinals keep creating new group
//! keys, so the stitcher also forgets the memoised values and dependency
//! edges of groups nothing references any more.
//!
//! When a write falls outside the incremental fragment (an executor bails,
//! e.g. a correlated `EXISTS` over a mutated table), *every* stage of the
//! view is re-seeded from scratch and the value cache is dropped: a stage
//! re-seeded alone would go back to dense numbering and break the join on
//! ordinals its neighbours kept. Recompute-from-scratch is always the
//! fallback, never an error.
//!
//! The public surface is [`Subscription`] (handed out by
//! `Shredder::subscribe`) plus re-exports of the sqlengine write-batch
//! types, so `shredding::delta::{WriteBatch, WriteOp, StorageDelta}` is the
//! one-stop path for mutating a session's storage and observing the
//! maintained results.

use crate::error::ShredError;
use crate::flatten::{sql_to_value, Leaf, LeafKind, ResultLayout};
use crate::nf::StaticIndex;
use crate::pipeline::CompiledQuery;
use crate::semantics::{IndexScheme, IndexValue};
use crate::shred::Package;
use analysis::codes;
use nrc::value::Value;
use sqlengine::{DeltaExec, DeltaRows, ParamValues, Row, SqlValue, Storage};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

pub use sqlengine::delta::{StorageDelta, TableDelta, WriteBatch, WriteOp};

// ---------------------------------------------------------------------------
// Maintained per-stage state
// ---------------------------------------------------------------------------

/// One shredded stage of a live view: the incremental executor that owns the
/// operator caches, the stage's column layout, and the stage's current rows
/// pre-grouped by their flat outer index.
struct LiveStage {
    exec: DeltaExec,
    layout: Arc<ResultLayout>,
    groups: HashMap<IndexValue, Vec<Row>>,
}

/// A stitched group: `(stage, outer index)`.
type GroupKey = (usize, IndexValue);

/// The mutable half of a live view, behind the subscription's mutex.
struct LiveState {
    /// Stages in package pre-order (the same order as
    /// [`Package::annotations`]).
    stages: Vec<LiveStage>,
    /// Memoised stitched values, one per group.
    cache: HashMap<GroupKey, Value>,
    /// Reverse dependency edges: child group → the groups whose last stitch
    /// read it. Consulted while dirtying; a stale edge (from a group that was
    /// dirtied and not yet re-stitched) can only over-invalidate.
    parents: HashMap<GroupKey, HashSet<GroupKey>>,
    /// Forward edges, the mirror of `parents`: group → the child groups its
    /// last stitch read (absent when it read none). When a re-stitch stops
    /// reading a child, the child loses that parent; a child left with no
    /// parent is unreachable, and it and its own subtree leave `cache`,
    /// `parents` and `children`.
    children: HashMap<GroupKey, HashSet<GroupKey>>,
    /// Bumped once per maintained write batch.
    generation: u64,
    /// How many stage re-seeds fell back to recompute-from-scratch (a bail
    /// re-seeds every stage of the view).
    reseeds: u64,
    /// Cumulative wall time spent inside [`LiveView::maintain`].
    maintain_nanos: u64,
}

/// The shared core of a [`Subscription`]: the compiled query it watches, its
/// bound parameters, and the maintained state. `Shredder::apply_batch` holds
/// a `Weak` to each live view and maintains it after every committed write.
pub(crate) struct LiveView {
    compiled: Arc<CompiledQuery>,
    /// The package shape with each bag constructor annotated by its stage
    /// index (pre-order), so the stitcher can address `LiveState::stages`.
    shape: Package<usize>,
    params: ParamValues,
    state: Mutex<LiveState>,
}

impl LiveView {
    /// Seed a live view for `compiled` against the current storage: run
    /// every stage's delta executor in seed mode and group its rows by
    /// outer index. The value cache starts empty and fills on first read.
    pub(crate) fn new(
        compiled: Arc<CompiledQuery>,
        params: ParamValues,
        storage: &Storage,
    ) -> Result<LiveView, ShredError> {
        let mut next = 0usize;
        let shape = compiled.stages.map(&mut |_| {
            let i = next;
            next += 1;
            i
        });
        let plans = compiled.stages.annotations();
        let mut stages = Vec::with_capacity(plans.len());
        for qs in &plans {
            let mut exec = DeltaExec::new(&qs.plan);
            exec.seed(&qs.plan, storage, &params)?;
            let groups = group_rows(exec.rows())?;
            stages.push(LiveStage {
                exec,
                layout: Arc::clone(&qs.layout),
                groups,
            });
        }
        Ok(LiveView {
            compiled,
            shape,
            params,
            state: Mutex::new(LiveState {
                stages,
                cache: HashMap::new(),
                parents: HashMap::new(),
                children: HashMap::new(),
                generation: 0,
                reseeds: 0,
                maintain_nanos: 0,
            }),
        })
    }

    /// Fold a committed write into every stage and invalidate exactly the
    /// stitched subtrees it touched. `storage` must be the post-state (the
    /// delta already applied). A stage whose plan reads none of the written
    /// tables is skipped outright by its executor. When any stage falls
    /// outside the incremental fragment, every stage is re-seeded and the
    /// value cache dropped; the result says whether that happened.
    pub(crate) fn maintain(
        &self,
        storage: &Storage,
        delta: &StorageDelta,
    ) -> Result<bool, ShredError> {
        let tm = std::time::Instant::now();
        let plans = self.compiled.stages.annotations();
        let mut guard = self.state.lock().expect("live view lock");
        let st = &mut *guard;
        let n = st.stages.len();
        let mut dirty: Vec<HashSet<IndexValue>> = vec![HashSet::new(); n];
        let mut bailed = false;
        for (i, qs) in plans.iter().enumerate() {
            let stage = &mut st.stages[i];
            match stage.exec.apply(&qs.plan, storage, &self.params, delta)? {
                Some(rows) => apply_group_delta(&mut stage.groups, &rows, &mut dirty[i])?,
                None => {
                    bailed = true;
                    break;
                }
            }
        }
        if bailed {
            // Re-seeding numbers every stage densely again, so no ordinal —
            // and no memoised group — survives.
            for (stage, qs) in st.stages.iter_mut().zip(&plans) {
                stage.exec.seed(&qs.plan, storage, &self.params)?;
                stage.groups = group_rows(stage.exec.rows())?;
            }
            st.reseeds += n as u64;
            st.cache.clear();
            st.parents.clear();
            st.children.clear();
        } else {
            // Dirtiness flows child → parent. Stages are numbered in
            // pre-order, so every parent has a smaller index than its
            // descendants; walking indices downwards processes each stage
            // after everything that can dirty it.
            for i in (0..n).rev() {
                let groups: Vec<IndexValue> = dirty[i].iter().cloned().collect();
                for g in groups {
                    if let Some(ps) = st.parents.get(&(i, g)) {
                        for (pi, pg) in ps.clone() {
                            dirty[pi].insert(pg);
                        }
                    }
                }
            }
            for (i, set) in dirty.into_iter().enumerate() {
                for g in set {
                    st.cache.remove(&(i, g));
                }
            }
        }
        st.generation += 1;
        st.maintain_nanos += tm.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        Ok(bailed)
    }

    /// Materialise the view's current nested value, reusing every cached
    /// clean subtree and rebuilding (and re-memoising) only dirty groups.
    pub(crate) fn value(&self) -> Result<Value, ShredError> {
        let mut guard = self.state.lock().expect("live view lock");
        let LiveState {
            stages,
            cache,
            parents,
            children,
            ..
        } = &mut *guard;
        let mut memo = Memo {
            cache,
            parents,
            children,
        };
        memo.bag(&self.shape, &IndexValue::top(IndexScheme::Flat), stages)
    }

    pub(crate) fn generation(&self) -> u64 {
        self.state.lock().expect("live view lock").generation
    }

    pub(crate) fn reseeds(&self) -> u64 {
        self.state.lock().expect("live view lock").reseeds
    }

    pub(crate) fn maintain_nanos(&self) -> u64 {
        self.state.lock().expect("live view lock").maintain_nanos
    }
}

// ---------------------------------------------------------------------------
// The subscription handle
// ---------------------------------------------------------------------------

/// A live handle to a prepared query's maintained result. Obtained from
/// `Shredder::subscribe`; after every write batch committed through
/// `Shredder::apply_batch`, the subscription's [`value`](Subscription::value)
/// reflects the post-write database without re-running the query from
/// scratch. Dropping every clone of the handle unsubscribes it.
#[derive(Clone)]
pub struct Subscription {
    pub(crate) inner: Arc<LiveView>,
}

impl Subscription {
    /// The view's current nested value. Cheap after a small write: only the
    /// nested subtrees whose `(oidx_tag, oidx_ord)` groups changed are
    /// re-stitched; everything else is returned from the value cache.
    pub fn value(&self) -> Result<Value, ShredError> {
        self.inner.value()
    }

    /// How many write batches this subscription has been maintained
    /// through (0 right after subscribing).
    pub fn generation(&self) -> u64 {
        self.inner.generation()
    }

    /// How many stage re-seeds maintenance fell back to because a write
    /// fell outside the incremental fragment. One such write re-seeds every
    /// stage of the view, so it adds the view's stage count.
    pub fn reseeds(&self) -> u64 {
        self.inner.reseeds()
    }

    /// Cumulative wall time, in nanoseconds, this subscription has spent
    /// being maintained: folding committed write deltas through the stage
    /// executors and invalidating stitched groups. The storage write itself
    /// and [`value`](Subscription::value) materialisation are excluded, so
    /// the difference of this counter across one write batch is exactly the
    /// cost a live view adds over not having one — the number the delta
    /// benchmark compares against a full recompute.
    pub fn maintain_nanos(&self) -> u64 {
        self.inner.maintain_nanos()
    }
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("stages", &self.inner.compiled.stages.nesting_degree())
            .field("generation", &self.inner.generation())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Group bookkeeping
// ---------------------------------------------------------------------------

/// Read a row's flat outer index from its first two columns.
fn group_key(row: &Row) -> Result<IndexValue, ShredError> {
    match (row.first(), row.get(1)) {
        (Some(tag), Some(ord)) => flat_index(tag, ord),
        _ => Err(decode_err(
            codes::DECODE_SHAPE_MISMATCH,
            "stage row is too narrow to hold its outer index pair".to_string(),
        )),
    }
}

/// Interpret a `(tag, ord)` cell pair as a flat index value.
fn flat_index(tag: &SqlValue, ord: &SqlValue) -> Result<IndexValue, ShredError> {
    let tag = tag.as_int().ok_or_else(|| {
        decode_err(
            codes::DECODE_TYPE_MISMATCH,
            "expected an integer index tag column".to_string(),
        )
    })?;
    let ordinal = ord.as_int().ok_or_else(|| {
        decode_err(
            codes::DECODE_TYPE_MISMATCH,
            "expected an integer index ordinal column".to_string(),
        )
    })?;
    Ok(IndexValue::Flat {
        tag: StaticIndex(u32::try_from(tag).map_err(|_| {
            decode_err(
                codes::DECODE_INDEX_RANGE,
                format!("static index column out of range: {}", tag),
            )
        })?),
        ordinal,
    })
}

fn decode_err(code: &'static str, message: String) -> ShredError {
    ShredError::Decode { code, message }
}

/// Group a seeded stage's full output by outer index.
fn group_rows(rows: &[Row]) -> Result<HashMap<IndexValue, Vec<Row>>, ShredError> {
    let mut out: HashMap<IndexValue, Vec<Row>> = HashMap::new();
    for row in rows {
        out.entry(group_key(row)?).or_default().push(row.clone());
    }
    Ok(out)
}

/// Fold a stage's signed output delta into its group map, recording every
/// touched group in `dirty`. Retractions remove the first matching row of
/// their group (the same first-occurrence discipline the executor's caches
/// and the storage layer use), insertions append; a group emptied by its
/// last retraction is dropped.
fn apply_group_delta(
    groups: &mut HashMap<IndexValue, Vec<Row>>,
    delta: &DeltaRows,
    dirty: &mut HashSet<IndexValue>,
) -> Result<(), ShredError> {
    for (row, sign) in delta {
        let key = group_key(row)?;
        dirty.insert(key.clone());
        if *sign > 0 {
            groups.entry(key).or_default().push(row.clone());
        } else {
            let bucket = groups.get_mut(&key).ok_or_else(|| {
                ShredError::Internal("maintenance retracted a row from an absent group".to_string())
            })?;
            let pos = bucket.iter().position(|r| r == row).ok_or_else(|| {
                ShredError::Internal(
                    "maintenance retracted a row absent from its group".to_string(),
                )
            })?;
            bucket.remove(pos);
            if bucket.is_empty() {
                groups.remove(&key);
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The caching stitcher
// ---------------------------------------------------------------------------

/// The stitcher's memo: the value cache and the dependency edges between
/// groups (see [`LiveState`]).
struct Memo<'a> {
    cache: &'a mut HashMap<GroupKey, Value>,
    parents: &'a mut HashMap<GroupKey, HashSet<GroupKey>>,
    children: &'a mut HashMap<GroupKey, HashSet<GroupKey>>,
}

impl Memo<'_> {
    /// Stitch one bag group, consulting the value cache first. A rebuilt
    /// bag is memoised, and its edges are replaced by the child groups its
    /// rows read now, so later writes deep in the tree know to invalidate
    /// it.
    fn bag(
        &mut self,
        shape: &Package<usize>,
        index: &IndexValue,
        stages: &[LiveStage],
    ) -> Result<Value, ShredError> {
        let Package::Bag(stage_idx, inner) = shape else {
            return Err(ShredError::Internal(
                "live stitching requires a bag-typed package node".to_string(),
            ));
        };
        let key = (*stage_idx, index.clone());
        if let Some(v) = self.cache.get(&key) {
            return Ok(v.clone());
        }
        let rows: &[Row] = stages[*stage_idx]
            .groups
            .get(index)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let mut items = Vec::with_capacity(rows.len());
        let mut read = HashSet::new();
        for row in rows {
            let mut leaf = 0usize;
            items.push(self.value(inner, *stage_idx, row, &mut leaf, stages, &mut read)?);
        }
        for child in &read {
            self.parents
                .entry(child.clone())
                .or_default()
                .insert(key.clone());
        }
        let before = self.children.remove(&key).unwrap_or_default();
        for child in before {
            if !read.contains(&child) {
                self.unlink(child, &key);
            }
        }
        if !read.is_empty() {
            self.children.insert(key.clone(), read);
        }
        let v = Value::Bag(items);
        self.cache.insert(key, v.clone());
        Ok(v)
    }

    /// Drop the edge `parent` → `child`. A child left with no parent is
    /// unreachable from the top: forget its memoised value and its edges,
    /// and unlink its own children in turn.
    fn unlink(&mut self, child: GroupKey, parent: &GroupKey) {
        let orphaned = match self.parents.get_mut(&child) {
            Some(ps) => {
                ps.remove(parent);
                ps.is_empty()
            }
            None => true,
        };
        if !orphaned {
            return;
        }
        self.parents.remove(&child);
        self.cache.remove(&child);
        for grandchild in self.children.remove(&child).unwrap_or_default() {
            self.unlink(grandchild, &child);
        }
    }

    /// Materialise one row of a stage, walking the package shape in
    /// lockstep with the layout's pre-resolved leaves — the live-view
    /// analogue of the columnar stitcher's row walk, reading from maintained
    /// group rows instead of decoded columns. Every nested group the row
    /// reads is added to `read`.
    fn value(
        &mut self,
        shape: &Package<usize>,
        stage_idx: usize,
        row: &Row,
        leaf: &mut usize,
        stages: &[LiveStage],
        read: &mut HashSet<GroupKey>,
    ) -> Result<Value, ShredError> {
        match shape {
            Package::Record(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (label, field_shape) in fields {
                    out.push((
                        label.clone(),
                        self.value(field_shape, stage_idx, row, leaf, stages, read)?,
                    ));
                }
                Ok(Value::Record(out))
            }
            Package::Base(b) => {
                let l = next_leaf(&stages[stage_idx].layout, leaf)?;
                if !matches!(l.kind, LeafKind::Base(_)) {
                    return Err(decode_err(
                        codes::DECODE_SHAPE_MISMATCH,
                        format!(
                            "layout leaf {} is an index but the package expects a base value",
                            l.name
                        ),
                    ));
                }
                sql_to_value(cell(row, l.col)?, *b)
            }
            Package::Bag(child_idx, _) => {
                let l = next_leaf(&stages[stage_idx].layout, leaf)?;
                if l.kind != LeafKind::Index {
                    return Err(decode_err(
                        codes::DECODE_SHAPE_MISMATCH,
                        format!(
                            "layout leaf {} is a base column but the package expects a nested bag",
                            l.name
                        ),
                    ));
                }
                let child_index = flat_index(cell(row, l.col)?, cell(row, l.col + 1)?)?;
                read.insert((*child_idx, child_index.clone()));
                self.bag(shape, &child_index, stages)
            }
        }
    }
}

fn next_leaf<'a>(layout: &'a ResultLayout, leaf: &mut usize) -> Result<&'a Leaf, ShredError> {
    let l = layout.leaves.get(*leaf).ok_or_else(|| {
        decode_err(
            codes::DECODE_SHAPE_MISMATCH,
            "stage has fewer leaves than the package shape".to_string(),
        )
    })?;
    *leaf += 1;
    Ok(l)
}

fn cell(row: &Row, col: usize) -> Result<&SqlValue, ShredError> {
    row.get(col).ok_or_else(|| {
        decode_err(
            codes::DECODE_SHAPE_MISMATCH,
            format!("stage row is missing column {}", col),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, engine_from_database, execute_bound};
    use nrc::builder::*;
    use nrc::schema::{Database, Schema, TableSchema};
    use nrc::term::Term;
    use nrc::types::BaseType;

    fn schema() -> Schema {
        Schema::new()
            .with_table(
                TableSchema::new(
                    "departments",
                    vec![("id", BaseType::Int), ("name", BaseType::String)],
                )
                .with_key(vec!["id"]),
            )
            .with_table(
                TableSchema::new(
                    "employees",
                    vec![
                        ("id", BaseType::Int),
                        ("dept", BaseType::String),
                        ("name", BaseType::String),
                        ("salary", BaseType::Int),
                    ],
                )
                .with_key(vec!["id"]),
            )
    }

    fn db() -> Database {
        let mut db = Database::new(schema());
        for (id, name) in [(1, "Product"), (2, "Research")] {
            db.insert_row(
                "departments",
                vec![("id", Value::Int(id)), ("name", Value::string(name))],
            )
            .unwrap();
        }
        for (id, dept, name, salary) in [
            (1, "Product", "Alex", 20000),
            (2, "Product", "Bert", 900),
            (3, "Research", "Cora", 50000),
        ] {
            db.insert_row(
                "employees",
                vec![
                    ("id", Value::Int(id)),
                    ("dept", Value::string(dept)),
                    ("name", Value::string(name)),
                    ("salary", Value::Int(salary)),
                ],
            )
            .unwrap();
        }
        db
    }

    fn nested_query() -> Term {
        for_in(
            "d",
            table("departments"),
            singleton(record(vec![
                ("dept", project(var("d"), "name")),
                (
                    "emps",
                    for_where(
                        "e",
                        table("employees"),
                        eq(project(var("e"), "dept"), project(var("d"), "name")),
                        singleton(project(var("e"), "name")),
                    ),
                ),
            ])),
        )
    }

    fn employee(id: i64, dept: &str, name: &str, salary: i64) -> Row {
        vec![
            SqlValue::Int(id),
            SqlValue::str(dept),
            SqlValue::str(name),
            SqlValue::Int(salary),
        ]
    }

    #[test]
    fn a_leaf_insert_is_maintained_without_reseeding() {
        let database = db();
        let compiled = Arc::new(compile(&nested_query(), &schema()).unwrap());
        let engine = engine_from_database(&database).unwrap();
        let view =
            LiveView::new(Arc::clone(&compiled), ParamValues::new(), &engine.storage()).unwrap();
        assert!(view
            .value()
            .unwrap()
            .multiset_eq(&execute_bound(&compiled, &engine, &ParamValues::new()).unwrap()));

        let batch = WriteBatch::new().insert("employees", employee(4, "Research", "Dana", 700));
        let delta = engine.apply_batch(&batch).unwrap();
        view.maintain(&engine.storage(), &delta).unwrap();

        let expected = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
        assert!(view.value().unwrap().multiset_eq(&expected));
        assert_eq!(view.generation(), 1);
        assert_eq!(view.reseeds(), 0);
    }

    #[test]
    fn deletes_and_updates_invalidate_only_the_touched_groups() {
        let database = db();
        let compiled = Arc::new(compile(&nested_query(), &schema()).unwrap());
        let engine = engine_from_database(&database).unwrap();
        let view =
            LiveView::new(Arc::clone(&compiled), ParamValues::new(), &engine.storage()).unwrap();
        view.value().unwrap(); // populate the cache and its dependency edges

        let batch = WriteBatch::new()
            .delete("employees", employee(2, "Product", "Bert", 900))
            .update(
                "employees",
                vec![SqlValue::Int(3)],
                employee(3, "Research", "Cora", 51000),
            );
        let delta = engine.apply_batch(&batch).unwrap();
        view.maintain(&engine.storage(), &delta).unwrap();

        let expected = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
        assert!(view.value().unwrap().multiset_eq(&expected));
        assert_eq!(view.reseeds(), 0);
    }

    #[test]
    fn a_net_zero_batch_leaves_the_view_unchanged() {
        let database = db();
        let compiled = Arc::new(compile(&nested_query(), &schema()).unwrap());
        let engine = engine_from_database(&database).unwrap();
        let view =
            LiveView::new(Arc::clone(&compiled), ParamValues::new(), &engine.storage()).unwrap();
        let before = view.value().unwrap();

        let row = employee(9, "Product", "Zed", 1);
        let batch = WriteBatch::new()
            .insert("employees", row.clone())
            .delete("employees", row);
        let delta = engine.apply_batch(&batch).unwrap();
        view.maintain(&engine.storage(), &delta).unwrap();

        assert!(view.value().unwrap().multiset_eq(&before));
        assert_eq!(view.generation(), 1);
    }

    #[test]
    fn an_outer_table_write_reorders_every_group_consistently() {
        // Inserting a department shifts ROW_NUMBER ordinals in the shared
        // outer CTE of both stages; the maintained view must keep the
        // cross-stage index join consistent.
        let database = db();
        let compiled = Arc::new(compile(&nested_query(), &schema()).unwrap());
        let engine = engine_from_database(&database).unwrap();
        let view =
            LiveView::new(Arc::clone(&compiled), ParamValues::new(), &engine.storage()).unwrap();
        view.value().unwrap();

        let batch = WriteBatch::new()
            .insert(
                "departments",
                vec![SqlValue::Int(3), SqlValue::str("Design")],
            )
            .insert("employees", employee(5, "Design", "Eve", 1200));
        let delta = engine.apply_batch(&batch).unwrap();
        view.maintain(&engine.storage(), &delta).unwrap();

        let expected = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
        assert!(view.value().unwrap().multiset_eq(&expected));
    }

    /// Fresh ordinals keep minting new group keys, so the stitcher's memo
    /// must forget groups as they die: after a long churn of department and
    /// employee inserts and deletes, the value cache and the dependency
    /// edges hold exactly what a freshly seeded view of the same data holds
    /// — one entry per group reachable from the top.
    #[test]
    fn the_stitch_memo_stays_bounded_by_the_live_groups_under_churn() {
        let database = db();
        let compiled = Arc::new(compile(&nested_query(), &schema()).unwrap());
        let engine = engine_from_database(&database).unwrap();
        let view =
            LiveView::new(Arc::clone(&compiled), ParamValues::new(), &engine.storage()).unwrap();
        let dept = |id: i64| vec![SqlValue::Int(id), SqlValue::str(format!("D{}", id))];
        for i in 0..1000i64 {
            let mut batch = WriteBatch::new()
                .insert("departments", dept(10 + i))
                .insert(
                    "employees",
                    employee(1000 + i, &format!("D{}", 10 + i), "E", i),
                )
                .insert("employees", employee(5000 + i, "Product", "P", i));
            if i >= 3 {
                batch = batch
                    .delete("departments", dept(10 + i - 3))
                    .delete(
                        "employees",
                        employee(1000 + i - 3, &format!("D{}", 7 + i), "E", i - 3),
                    )
                    .delete("employees", employee(5000 + i - 3, "Product", "P", i - 3));
            }
            let delta = engine.apply_batch(&batch).unwrap();
            assert!(!view.maintain(&engine.storage(), &delta).unwrap());
            if i % 97 == 0 {
                let expected = execute_bound(&compiled, &engine, &ParamValues::new()).unwrap();
                assert!(view.value().unwrap().multiset_eq(&expected), "batch {}", i);
            } else {
                view.value().unwrap();
            }
        }
        let fresh =
            LiveView::new(Arc::clone(&compiled), ParamValues::new(), &engine.storage()).unwrap();
        fresh.value().unwrap();
        let churned = view.state.lock().unwrap();
        let seeded = fresh.state.lock().unwrap();
        let live_groups: usize = seeded.stages.iter().map(|s| s.groups.len()).sum();
        assert!(seeded.cache.len() >= live_groups);
        assert_eq!(churned.cache.len(), seeded.cache.len());
        assert_eq!(churned.parents.len(), seeded.parents.len());
        assert_eq!(churned.children.len(), seeded.children.len());
        assert_eq!(churned.reseeds, 0);
    }
}
