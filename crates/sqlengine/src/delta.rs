//! The mutation layer: write batches and the typed deltas they emit.
//!
//! A [`WriteBatch`] is an ordered list of [`WriteOp`]s. Committing one is a
//! two-phase affair: [`Storage::validate_batch`] replays the operations
//! against a small overlay on each affected table — the keys the batch has
//! freed or taken and each row's net count, over the live table's key index
//! — so a batch that would violate arity, column types or a declared key is
//! rejected *before* any real table changes, at a cost that follows the
//! batch rather than the tables. It normalises the surviving operations
//! into a [`StorageDelta`]: one signed row multiset per table, with
//! insertions and retractions of the same row cancelled out (an update is
//! exactly a delete plus an insert). [`Storage::apply_delta`] then commits
//! the delta with a fixed discipline — retracted rows are removed at their
//! first occurrence, inserted rows are appended — so the post-state scan
//! order of a table is a deterministic function of its pre-state order and
//! the delta. The incremental maintenance layer relies on that: it keeps
//! per-operator row caches under the same retract-then-append discipline,
//! so a cache and a from-scratch scan of the same table always agree on row
//! order.

use crate::error::EngineError;
use crate::storage::{Storage, Table};
use crate::value::Row;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// One mutation inside a [`WriteBatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Insert a full row (validated like [`crate::storage::Table::insert`]).
    Insert { table: String, row: Row },
    /// Delete the first row equal to `row`.
    Delete { table: String, row: Row },
    /// Delete the row whose declared-key columns equal `key`.
    DeleteByKey { table: String, key: Row },
    /// Replace the row whose declared-key columns equal `key` with `row`.
    Update { table: String, key: Row, row: Row },
}

impl WriteOp {
    /// The table this operation addresses.
    pub fn table(&self) -> &str {
        match self {
            WriteOp::Insert { table, .. }
            | WriteOp::Delete { table, .. }
            | WriteOp::DeleteByKey { table, .. }
            | WriteOp::Update { table, .. } => table,
        }
    }
}

/// An ordered list of mutations committed atomically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriteBatch {
    pub ops: Vec<WriteOp>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Append an insert.
    pub fn insert(mut self, table: &str, row: Row) -> WriteBatch {
        self.ops.push(WriteOp::Insert {
            table: table.to_string(),
            row,
        });
        self
    }

    /// Append a delete-by-value.
    pub fn delete(mut self, table: &str, row: Row) -> WriteBatch {
        self.ops.push(WriteOp::Delete {
            table: table.to_string(),
            row,
        });
        self
    }

    /// Append a keyed delete.
    pub fn delete_by_key(mut self, table: &str, key: Row) -> WriteBatch {
        self.ops.push(WriteOp::DeleteByKey {
            table: table.to_string(),
            key,
        });
        self
    }

    /// Append a keyed update.
    pub fn update(mut self, table: &str, key: Row, row: Row) -> WriteBatch {
        self.ops.push(WriteOp::Update {
            table: table.to_string(),
            key,
            row,
        });
        self
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The normalised signed row multiset a committed batch induced on one
/// table. Multiplicity is by repetition; a row inserted and deleted the same
/// number of times inside one batch appears in neither list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableDelta {
    /// Rows removed from the pre-state, in first-mention order. Always a
    /// sub-multiset of the pre-state table.
    pub retract: Vec<Row>,
    /// Rows appended, in first-mention order.
    pub insert: Vec<Row>,
}

impl TableDelta {
    /// Total number of signed rows.
    pub fn len(&self) -> usize {
        self.retract.len() + self.insert.len()
    }

    /// Did the batch leave this table unchanged?
    pub fn is_empty(&self) -> bool {
        self.retract.is_empty() && self.insert.is_empty()
    }

    /// The delta as `(row, sign)` pairs: retractions (−1) first, then
    /// insertions (+1) — the order [`Storage::apply_delta`] commits them in.
    pub fn signed_rows(&self) -> impl Iterator<Item = (&Row, i64)> {
        self.retract
            .iter()
            .map(|r| (r, -1i64))
            .chain(self.insert.iter().map(|r| (r, 1i64)))
    }
}

/// The typed delta a committed [`WriteBatch`] emitted: per-table insertion
/// and retraction multisets, normalised so opposite-signed mentions of the
/// same row cancel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageDelta {
    tables: BTreeMap<String, TableDelta>,
}

impl StorageDelta {
    /// The per-table deltas, in table-name order.
    pub fn tables(&self) -> impl Iterator<Item = (&str, &TableDelta)> {
        self.tables.iter().map(|(n, d)| (n.as_str(), d))
    }

    /// The delta for one table, if the batch touched it.
    pub fn get(&self, table: &str) -> Option<&TableDelta> {
        self.tables.get(table)
    }

    /// Did the batch change this table?
    pub fn touches(&self, table: &str) -> bool {
        self.tables.get(table).is_some_and(|d| !d.is_empty())
    }

    /// Total number of signed rows across all tables (the `delta.rows`
    /// metric).
    pub fn row_count(&self) -> usize {
        self.tables.values().map(TableDelta::len).sum()
    }

    /// Did the batch change anything at all?
    pub fn is_empty(&self) -> bool {
        self.tables.values().all(TableDelta::is_empty)
    }
}

/// Collects signed row counts in first-mention order, then splits them into
/// retraction and insertion lists.
#[derive(Default)]
struct SignedRows {
    order: Vec<(Row, i64)>,
    index: HashMap<Row, usize>,
}

impl SignedRows {
    fn add(&mut self, row: Row, sign: i64) {
        match self.index.get(&row) {
            Some(&i) => self.order[i].1 += sign,
            None => {
                self.index.insert(row.clone(), self.order.len());
                self.order.push((row, sign));
            }
        }
    }

    /// The net count added for `row` so far.
    fn net(&self, row: &Row) -> i64 {
        self.index.get(row).map_or(0, |&i| self.order[i].1)
    }

    fn into_delta(self) -> TableDelta {
        let mut delta = TableDelta::default();
        for (row, net) in self.order {
            let (target, copies) = if net < 0 {
                (&mut delta.retract, -net)
            } else {
                (&mut delta.insert, net)
            };
            for _ in 0..copies {
                target.push(row.clone());
            }
        }
        delta
    }
}

/// What a batch has done so far to one table, layered over the live table
/// instead of a copy of it. The table as the batch sees it after its
/// earlier ops is the live table plus `signed`; `keys` records, for each
/// key the batch moved, who holds it now.
struct Overlay<'t> {
    table: &'t Table,
    /// Keys this batch changed: `Some(row)` when a row the batch inserted
    /// holds the key, `None` when the batch freed it.
    keys: HashMap<Row, Option<Row>>,
    /// Net signed count per row; becomes the table's delta.
    signed: SignedRows,
}

impl<'t> Overlay<'t> {
    fn new(table: &'t Table) -> Overlay<'t> {
        Overlay {
            table,
            keys: HashMap::new(),
            signed: SignedRows::default(),
        }
    }

    /// The row holding a non-`NULL` key after the batch's ops so far.
    fn holder(&self, key: &Row) -> Option<&Row> {
        match self.keys.get(key) {
            Some(taken) => taken.as_ref(),
            None => self.table.row_by_key(key),
        }
    }

    fn insert(&mut self, row: &Row) -> Result<(), EngineError> {
        self.table.check_row(row)?;
        if let Some(key) = self.table.key_of(row) {
            if self.holder(&key).is_some() {
                return Err(self.table.duplicate_key(key));
            }
            self.keys.insert(key, Some(row.clone()));
        }
        self.signed.add(row.clone(), 1);
        Ok(())
    }

    fn delete(&mut self, row: &Row) -> Result<(), EngineError> {
        if row.len() != self.table.def.arity() {
            return Err(self.table.no_such_row(row));
        }
        match self.table.key_of(row) {
            Some(key) => {
                if self.holder(&key) != Some(row) {
                    return Err(self.table.no_such_row(row));
                }
                self.keys.insert(key, None);
            }
            None => {
                // Copies left = live copies + net; a scan counts the live
                // ones only as far as it must.
                let net = self.signed.net(row);
                let needed = usize::try_from(1 - net).unwrap_or(0);
                if needed > 0 && self.table.count_up_to(row, needed) < needed {
                    return Err(self.table.no_such_row(row));
                }
            }
        }
        self.signed.add(row.clone(), -1);
        Ok(())
    }

    fn delete_by_key(&mut self, key: &Row) -> Result<(), EngineError> {
        self.table.require_key()?;
        let row = self
            .holder(key)
            .cloned()
            .ok_or_else(|| self.table.no_such_row(key))?;
        self.keys.insert(key.clone(), None);
        self.signed.add(row, -1);
        Ok(())
    }

    fn update(&mut self, key: &Row, row: &Row) -> Result<(), EngineError> {
        self.table.require_key()?;
        let old = self
            .holder(key)
            .cloned()
            .ok_or_else(|| self.table.no_such_row(key))?;
        self.table.check_row(row)?;
        let new_key = self.table.key_of(row);
        if let Some(new_key) = &new_key {
            if new_key != key && self.holder(new_key).is_some() {
                return Err(self.table.duplicate_key(new_key.clone()));
            }
        }
        self.keys.insert(key.clone(), None);
        if let Some(new_key) = new_key {
            self.keys.insert(new_key, Some(row.clone()));
        }
        self.signed.add(old, -1);
        self.signed.add(row.clone(), 1);
        Ok(())
    }
}

impl Storage {
    /// Replay a batch against an overlay on each affected table and
    /// normalise it into a [`StorageDelta`]. Nothing in `self` changes; an
    /// `Err` means some operation was invalid (unknown table or row, arity
    /// or type violation, duplicate key) and the batch must be rejected
    /// wholesale. Each op sees the effects of the ones before it.
    ///
    /// The overlay records only what the batch changed — the keys it freed
    /// or took and each row's net count — and answers every lookup through
    /// it and then the live table's key index. An op on a keyed table with
    /// a non-`NULL` key therefore costs O(1), independent of table size; a
    /// delete by value of a row without an indexed key (keyless table, or a
    /// `NULL` in the key) scans the table.
    ///
    /// The returned delta's retractions are a sub-multiset of the current
    /// (pre-state) tables, so [`Storage::apply_delta`] cannot fail.
    pub fn validate_batch(&self, batch: &WriteBatch) -> Result<StorageDelta, EngineError> {
        let mut overlays: BTreeMap<&str, Overlay<'_>> = BTreeMap::new();
        for op in &batch.ops {
            let name = op.table();
            let overlay = match overlays.entry(name) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(Overlay::new(self.table(name)?)),
            };
            match op {
                WriteOp::Insert { row, .. } => overlay.insert(row)?,
                WriteOp::Delete { row, .. } => overlay.delete(row)?,
                WriteOp::DeleteByKey { key, .. } => overlay.delete_by_key(key)?,
                WriteOp::Update { key, row, .. } => overlay.update(key, row)?,
            }
        }
        Ok(StorageDelta {
            tables: overlays
                .into_iter()
                .map(|(n, o)| (n.to_string(), o.signed.into_delta()))
                .collect(),
        })
    }

    /// Commit a delta produced by [`Storage::validate_batch`]: per table,
    /// remove each retracted row at its first occurrence, then append the
    /// inserted rows. Panics if a retracted row is absent (the validate
    /// phase guarantees it is not).
    pub fn apply_delta(&mut self, delta: &StorageDelta) {
        for (name, table_delta) in &delta.tables {
            if table_delta.is_empty() {
                continue;
            }
            let table = self
                .table_mut(name)
                .expect("validate_batch checked the table exists");
            for row in &table_delta.retract {
                table
                    .delete(row)
                    .expect("validate_batch checked the retraction applies");
            }
            for row in &table_delta.insert {
                table
                    .insert(row.clone())
                    .expect("validate_batch checked the insertion applies");
            }
        }
    }

    /// Validate and commit a write batch, returning the typed delta it
    /// induced. The batch applies atomically: any invalid operation rejects
    /// the whole batch with storage untouched.
    ///
    /// ```
    /// use sqlengine::delta::WriteBatch;
    /// use sqlengine::storage::{ColumnType, Storage, TableDef};
    /// use sqlengine::value::SqlValue;
    ///
    /// let mut storage = Storage::new();
    /// storage
    ///     .create_table(
    ///         TableDef::new("t", vec![("id", ColumnType::Int), ("name", ColumnType::Text)])
    ///             .with_key(vec!["id"]),
    ///     )
    ///     .unwrap();
    /// storage.insert("t", vec![SqlValue::Int(1), SqlValue::str("a")]).unwrap();
    ///
    /// // Insert one row and rename another; the delta records an insertion
    /// // for the new row and a retraction + insertion for the update.
    /// let batch = WriteBatch::new()
    ///     .insert("t", vec![SqlValue::Int(2), SqlValue::str("b")])
    ///     .update("t", vec![SqlValue::Int(1)], vec![SqlValue::Int(1), SqlValue::str("z")]);
    /// let delta = storage.apply_batch(&batch).unwrap();
    ///
    /// let t = delta.get("t").unwrap();
    /// assert_eq!(t.retract, vec![vec![SqlValue::Int(1), SqlValue::str("a")]]);
    /// assert_eq!(t.insert.len(), 2);
    /// assert_eq!(storage.table("t").unwrap().len(), 2);
    /// ```
    pub fn apply_batch(&mut self, batch: &WriteBatch) -> Result<StorageDelta, EngineError> {
        let delta = self.validate_batch(batch)?;
        self.apply_delta(&delta);
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{ColumnType, TableDef};
    use crate::value::SqlValue;
    use std::sync::Arc;

    fn storage() -> Storage {
        let mut s = Storage::new();
        s.create_table(
            TableDef::new(
                "t",
                vec![("id", ColumnType::Int), ("name", ColumnType::Text)],
            )
            .with_key(vec!["id"]),
        )
        .unwrap();
        for (id, name) in [(1, "a"), (2, "b")] {
            s.insert("t", vec![SqlValue::Int(id), SqlValue::str(name)])
                .unwrap();
        }
        s
    }

    fn row(id: i64, name: &str) -> Row {
        vec![SqlValue::Int(id), SqlValue::str(name)]
    }

    #[test]
    fn a_net_zero_batch_emits_an_empty_delta_and_changes_nothing() {
        let mut s = storage();
        let before = s.clone();
        let batch = WriteBatch::new()
            .insert("t", row(3, "c"))
            .delete("t", row(3, "c"));
        let delta = s.apply_batch(&batch).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.row_count(), 0);
        assert!(!delta.touches("t"));
        assert_eq!(s, before);
    }

    #[test]
    fn an_update_normalises_to_a_delete_plus_an_insert() {
        let mut s1 = storage();
        let mut s2 = storage();
        let update = WriteBatch::new().update("t", vec![SqlValue::Int(2)], row(2, "bb"));
        let delete_insert = WriteBatch::new()
            .delete("t", row(2, "b"))
            .insert("t", row(2, "bb"));
        let d1 = s1.apply_batch(&update).unwrap();
        let d2 = s2.apply_batch(&delete_insert).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
        assert_eq!(d1.get("t").unwrap().retract, vec![row(2, "b")]);
        assert_eq!(d1.get("t").unwrap().insert, vec![row(2, "bb")]);
    }

    #[test]
    fn an_invalid_batch_rejects_wholesale() {
        let mut s = storage();
        let before = s.clone();
        // The insert is fine, the duplicate key is not: nothing applies.
        let batch = WriteBatch::new()
            .insert("t", row(3, "c"))
            .insert("t", row(1, "dup"));
        assert!(matches!(
            s.apply_batch(&batch),
            Err(EngineError::DuplicateKey { .. })
        ));
        assert_eq!(s, before);
        // Deleting a missing row also rejects.
        assert!(matches!(
            s.apply_batch(&WriteBatch::new().delete("t", row(9, "x"))),
            Err(EngineError::NoSuchRow { .. })
        ));
        // So does touching a missing table.
        assert!(matches!(
            s.apply_batch(&WriteBatch::new().insert("nope", row(1, "a"))),
            Err(EngineError::NoSuchTable(_))
        ));
    }

    #[test]
    fn validation_sees_earlier_operations_in_the_same_batch() {
        let mut s = storage();
        // Key 1 is freed by the delete, so re-inserting it is valid.
        let batch = WriteBatch::new()
            .delete_by_key("t", vec![SqlValue::Int(1)])
            .insert("t", row(1, "fresh"));
        let delta = s.apply_batch(&batch).unwrap();
        assert_eq!(delta.get("t").unwrap().retract, vec![row(1, "a")]);
        assert_eq!(delta.get("t").unwrap().insert, vec![row(1, "fresh")]);
        assert_eq!(
            s.table("t").unwrap().rows(),
            vec![row(2, "b"), row(1, "fresh")]
        );
    }

    #[test]
    fn apply_delta_removes_first_occurrences_and_appends() {
        let mut s = Storage::new();
        s.create_table(TableDef::new("bag", vec![("x", ColumnType::Int)]))
            .unwrap();
        for x in [7, 8, 7] {
            s.insert("bag", vec![SqlValue::Int(x)]).unwrap();
        }
        let batch = WriteBatch::new()
            .delete("bag", vec![SqlValue::Int(7)])
            .insert("bag", vec![SqlValue::Int(9)]);
        s.apply_batch(&batch).unwrap();
        assert_eq!(
            s.table("bag").unwrap().rows(),
            vec![
                vec![SqlValue::Int(8)],
                vec![SqlValue::Int(7)],
                vec![SqlValue::Int(9)],
            ]
        );
    }

    #[test]
    fn a_rejected_batch_keeps_every_table_version_and_cached_view() {
        let mut s = storage();
        s.create_table(TableDef::new("bag", vec![("x", ColumnType::Int)]))
            .unwrap();
        s.insert("bag", vec![SqlValue::Int(7)]).unwrap();
        let before: Vec<_> = s.tables().map(|t| (t.version(), t.columnar())).collect();
        // Every op but the last is valid, and they touch both tables.
        let batch = WriteBatch::new()
            .insert("bag", vec![SqlValue::Int(8)])
            .delete("bag", vec![SqlValue::Int(7)])
            .update("t", vec![SqlValue::Int(2)], row(3, "c"))
            .insert("t", row(1, "dup"));
        assert!(matches!(
            s.apply_batch(&batch),
            Err(EngineError::DuplicateKey { .. })
        ));
        for ((version, cols), table) in before.iter().zip(s.tables()) {
            assert_eq!(table.version(), *version, "{}", table.def.name);
            assert!(
                Arc::ptr_eq(&table.columnar(), cols),
                "{} keeps its cached view",
                table.def.name
            );
        }
    }

    #[test]
    fn a_batch_touching_one_table_keeps_the_other_tables_cached_view() {
        let mut s = Storage::new();
        for name in ["departments", "tasks"] {
            s.create_table(TableDef::new(name, vec![("x", ColumnType::Int)]))
                .unwrap();
            s.insert(name, vec![SqlValue::Int(1)]).unwrap();
        }
        let departments = s.table("departments").unwrap().columnar();
        let tasks = s.table("tasks").unwrap().columnar();
        s.apply_batch(&WriteBatch::new().insert("tasks", vec![SqlValue::Int(2)]))
            .unwrap();
        assert!(Arc::ptr_eq(
            &s.table("departments").unwrap().columnar(),
            &departments
        ));
        assert!(!Arc::ptr_eq(&s.table("tasks").unwrap().columnar(), &tasks));
        assert_eq!(s.table("tasks").unwrap().columnar()[0].len(), 2);
    }

    // -----------------------------------------------------------------
    // Differential check of the write path against clone-and-replay
    // -----------------------------------------------------------------

    /// One table as a clone-and-replay validator sees it: a copy of the
    /// rows, every lookup a linear scan. This is the validator the overlay
    /// replaced, kept as the oracle that the overlay, the key index and the
    /// direct `Storage` mutators are checked against. `shape` is an empty
    /// table with the same definition, for the schema checks.
    struct ModelTable {
        shape: Table,
        rows: Vec<Row>,
    }

    impl ModelTable {
        fn of(table: &Table) -> ModelTable {
            ModelTable {
                shape: Table::new(table.def.clone()),
                rows: table.rows().to_vec(),
            }
        }

        fn insert(&mut self, row: Row) -> Result<(), EngineError> {
            self.shape.check_row(&row)?;
            if let Some(key) = self.shape.key_of(&row) {
                if self
                    .rows
                    .iter()
                    .any(|r| self.shape.key_of(r).as_ref() == Some(&key))
                {
                    return Err(self.shape.duplicate_key(key));
                }
            }
            self.rows.push(row);
            Ok(())
        }

        fn delete(&mut self, row: &Row) -> Result<(), EngineError> {
            let i = self
                .rows
                .iter()
                .position(|r| r == row)
                .ok_or_else(|| self.shape.no_such_row(row))?;
            self.rows.remove(i);
            Ok(())
        }

        fn delete_by_key(&mut self, key: &Row) -> Result<Row, EngineError> {
            self.shape.require_key()?;
            let i = self
                .rows
                .iter()
                .position(|r| self.shape.key_of(r).as_ref() == Some(key))
                .ok_or_else(|| self.shape.no_such_row(key))?;
            Ok(self.rows.remove(i))
        }

        /// A delete plus an insert; a rejected update changes nothing.
        fn update(&mut self, key: &Row, row: Row) -> Result<Row, EngineError> {
            let saved = self.rows.clone();
            let old = self.delete_by_key(key)?;
            match self.insert(row) {
                Ok(()) => Ok(old),
                Err(e) => {
                    self.rows = saved;
                    Err(e)
                }
            }
        }
    }

    /// The reference validator: replay the batch on copies of the touched
    /// tables and normalise the ops into a delta.
    fn reference_validate(s: &Storage, batch: &WriteBatch) -> Result<StorageDelta, EngineError> {
        let mut shadows: BTreeMap<String, ModelTable> = BTreeMap::new();
        let mut signed: BTreeMap<String, SignedRows> = BTreeMap::new();
        for op in &batch.ops {
            let name = op.table();
            if !shadows.contains_key(name) {
                shadows.insert(name.to_string(), ModelTable::of(s.table(name)?));
            }
            let shadow = shadows.get_mut(name).expect("shadow table just inserted");
            let signed = signed.entry(name.to_string()).or_default();
            match op {
                WriteOp::Insert { row, .. } => {
                    shadow.insert(row.clone())?;
                    signed.add(row.clone(), 1);
                }
                WriteOp::Delete { row, .. } => {
                    shadow.delete(row)?;
                    signed.add(row.clone(), -1);
                }
                WriteOp::DeleteByKey { key, .. } => {
                    let row = shadow.delete_by_key(key)?;
                    signed.add(row, -1);
                }
                WriteOp::Update { key, row, .. } => {
                    let old = shadow.update(key, row.clone())?;
                    signed.add(old, -1);
                    signed.add(row.clone(), 1);
                }
            }
        }
        Ok(StorageDelta {
            tables: signed
                .into_iter()
                .map(|(n, s)| (n, s.into_delta()))
                .collect(),
        })
    }

    /// Every table's rows after committing `delta` to `s` under the
    /// retract-first-occurrence, then append, discipline.
    fn reference_commit(s: &Storage, delta: &StorageDelta) -> BTreeMap<String, Vec<Row>> {
        s.tables()
            .map(|t| {
                let mut rows = t.rows().to_vec();
                if let Some(d) = delta.get(&t.def.name) {
                    for r in &d.retract {
                        let i = rows
                            .iter()
                            .position(|x| x == r)
                            .expect("retraction applies");
                        rows.remove(i);
                    }
                    rows.extend(d.insert.iter().cloned());
                }
                (t.def.name.clone(), rows)
            })
            .collect()
    }

    /// Run `batch` through `apply_batch` and through the reference, and
    /// check they agree on the result, the post-state row order and the
    /// key index. Returns the result.
    fn check_against_reference(
        s: &mut Storage,
        batch: &WriteBatch,
    ) -> Result<StorageDelta, EngineError> {
        let expected = reference_validate(s, batch);
        let before = s.clone();
        let versions: Vec<u64> = s.tables().map(Table::version).collect();
        let got = s.apply_batch(batch);
        assert_eq!(got, expected, "batch {:?}", batch.ops);
        match &got {
            Ok(delta) => {
                let post = reference_commit(&before, delta);
                for t in s.tables() {
                    assert_eq!(t.rows(), post[&t.def.name], "batch {:?}", batch.ops);
                }
            }
            Err(_) => {
                assert_eq!(*s, before, "a rejected batch changes nothing");
                let after: Vec<u64> = s.tables().map(Table::version).collect();
                assert_eq!(after, versions, "a rejected batch bumps no version");
            }
        }
        s.tables().for_each(Table::assert_index_consistent);
        got
    }

    /// A keyed table, a table with a two-column key, and a keyless bag.
    fn mixed_storage() -> Storage {
        let mut s = storage();
        s.create_table(
            TableDef::new(
                "pair",
                vec![
                    ("a", ColumnType::Int),
                    ("b", ColumnType::Int),
                    ("v", ColumnType::Text),
                ],
            )
            .with_key(vec!["a", "b"]),
        )
        .unwrap();
        s.create_table(TableDef::new(
            "bag",
            vec![("x", ColumnType::Int), ("y", ColumnType::Text)],
        ))
        .unwrap();
        s
    }

    struct Rng(u64);

    impl Rng {
        /// splitmix64.
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn percent(&mut self, p: usize) -> bool {
            self.below(100) < p
        }

        /// A value of the column type from a small domain, sometimes `NULL`.
        fn value(&mut self, ty: ColumnType) -> SqlValue {
            if self.percent(12) {
                return SqlValue::Null;
            }
            match ty {
                ColumnType::Int => SqlValue::Int(self.below(5) as i64),
                ColumnType::Text => SqlValue::str(["a", "b"][self.below(2)]),
                ColumnType::Bool => SqlValue::Bool(self.percent(50)),
            }
        }

        /// A row for `def`, sometimes of the wrong arity or type.
        fn row(&mut self, def: &TableDef) -> Row {
            let mut row: Row = def.columns.iter().map(|(_, t)| self.value(*t)).collect();
            if self.percent(3) {
                row.pop();
            } else if self.percent(3) {
                row[0] = SqlValue::Bool(true);
            }
            row
        }

        /// A key for `def` (one value per key column), sometimes too short.
        fn key(&mut self, def: &TableDef) -> Row {
            let mut key: Row = def
                .key
                .iter()
                .map(|k| self.value(def.columns[def.column_index(k).unwrap()].1))
                .collect();
            if self.percent(3) {
                key.pop();
            }
            key
        }

        fn pick<'a>(&mut self, rows: &'a [Row]) -> Option<&'a Row> {
            (!rows.is_empty()).then(|| &rows[self.below(rows.len())])
        }
    }

    /// A random op. Rows and keys are drawn half the time from `pool` (the
    /// table's rows and the rows earlier ops in the batch mentioned), so
    /// batches chain ops on the same rows and reuse keys they freed.
    fn random_op(rng: &mut Rng, s: &Storage, pool: &mut Vec<Row>) -> WriteOp {
        let name = ["t", "pair", "bag", "t", "pair", "bag", "nope"][rng.below(7)];
        let Ok(table) = s.table(name) else {
            return WriteOp::Insert {
                table: name.to_string(),
                row: vec![SqlValue::Int(1)],
            };
        };
        let def = &table.def;
        let mut known: Vec<Row> = table.rows().to_vec();
        known.extend(pool.iter().filter(|r| r.len() == def.arity()).cloned());
        let from_pool = rng.percent(50);
        let mut row = match rng.pick(&known) {
            Some(r) if from_pool => r.clone(),
            _ => rng.row(def),
        };
        let key = match (def.key.is_empty(), rng.pick(&known)) {
            (false, Some(r)) if rng.percent(50) => table.key_of(r).unwrap_or_else(|| rng.key(def)),
            _ => rng.key(def),
        };
        let table = name.to_string();
        let op = match rng.below(4) {
            0 => WriteOp::Insert {
                table,
                row: rng.row(def),
            },
            1 => WriteOp::Delete { table, row },
            2 => WriteOp::DeleteByKey { table, key },
            _ => {
                if rng.percent(40) && row.len() == def.arity() {
                    // Keep the key, change the rest.
                    for (c, (col, ty)) in def.columns.iter().enumerate() {
                        if !def.key.contains(col) {
                            row[c] = rng.value(*ty);
                        }
                    }
                } else {
                    row = rng.row(def);
                }
                WriteOp::Update { table, key, row }
            }
        };
        if let WriteOp::Insert { row, .. } | WriteOp::Update { row, .. } = &op {
            pool.push(row.clone());
        }
        op
    }

    #[test]
    fn random_batches_agree_with_clone_and_replay() {
        let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
        for seed in 0..40 {
            let mut rng = Rng(seed);
            let mut s = mixed_storage();
            for _ in 0..30 {
                let mut pool = Vec::new();
                if let WriteOp::Insert { table, row } = random_op(&mut rng, &s, &mut pool) {
                    let _ = s.insert(&table, row);
                }
            }
            for _ in 0..100 {
                let mut pool = Vec::new();
                let ops = (0..1 + rng.below(6))
                    .map(|_| random_op(&mut rng, &s, &mut pool))
                    .collect();
                let got = check_against_reference(&mut s, &WriteBatch { ops });
                *outcomes.entry(outcome(&got)).or_default() += 1;
            }
        }
        // Every outcome occurs often enough to mean something.
        for kind in [
            "ok",
            "NoSuchTable",
            "ArityMismatch",
            "ColumnTypeMismatch",
            "DuplicateKey",
            "NoSuchRow",
            "NoDeclaredKey",
        ] {
            assert!(
                outcomes.get(kind).copied().unwrap_or(0) >= 20,
                "{kind}: {outcomes:?}"
            );
        }
    }

    #[test]
    fn chosen_batches_agree_with_clone_and_replay() {
        let k = |id: i64| vec![SqlValue::Int(id)];
        let null_row = |name: &str| vec![SqlValue::Null, SqlValue::str(name)];
        let bag = |x: i64| vec![SqlValue::Int(x), SqlValue::str("y")];
        let mut s = mixed_storage();
        s.insert_all("bag", [bag(7), bag(8), bag(7)]).unwrap();
        s.insert_all("t", [null_row("n"), null_row("n")]).unwrap();
        let cases = [
            // insert → update → delete chains inside one batch
            (
                WriteBatch::new()
                    .insert("t", row(3, "c"))
                    .update("t", k(3), row(3, "d"))
                    .delete_by_key("t", k(3)),
                "ok",
            ),
            (
                WriteBatch::new()
                    .insert("t", row(3, "c"))
                    .update("t", k(3), row(4, "d"))
                    .delete("t", row(4, "d"))
                    .insert("t", row(3, "e")),
                "ok",
            ),
            // an update onto a taken key, from the table or from the batch
            (
                WriteBatch::new().update("t", k(1), row(2, "x")),
                "DuplicateKey",
            ),
            (
                WriteBatch::new()
                    .insert("t", row(5, "e"))
                    .update("t", k(1), row(5, "x")),
                "DuplicateKey",
            ),
            // a key freed and reused in the same batch
            (
                WriteBatch::new()
                    .delete_by_key("t", k(1))
                    .update("t", k(2), row(1, "moved"))
                    .insert("t", row(2, "again")),
                "ok",
            ),
            (
                WriteBatch::new()
                    .update("t", k(1), row(6, "a"))
                    .insert("t", row(1, "reused"))
                    .delete("t", row(6, "a")),
                "ok",
            ),
            // deleting by value a row the batch already replaced
            (
                WriteBatch::new()
                    .update("t", k(3), row(3, "f"))
                    .delete("t", row(3, "e")),
                "NoSuchRow",
            ),
            // NULL keys: repeats are fine, one delete too many is not
            (
                WriteBatch::new()
                    .insert("t", null_row("n"))
                    .delete("t", null_row("n"))
                    .delete("t", null_row("n"))
                    .delete("t", null_row("n")),
                "ok",
            ),
            (WriteBatch::new().delete("t", null_row("n")), "NoSuchRow"),
            (
                WriteBatch::new().delete_by_key("t", vec![SqlValue::Null]),
                "NoSuchRow",
            ),
            // duplicate rows in a keyless table
            (
                WriteBatch::new()
                    .delete("bag", bag(7))
                    .insert("bag", bag(7))
                    .delete("bag", bag(7))
                    .delete("bag", bag(7)),
                "ok",
            ),
            (WriteBatch::new().delete("bag", bag(7)), "NoSuchRow"),
            (
                WriteBatch::new().delete_by_key("bag", vec![SqlValue::Int(7)]),
                "NoDeclaredKey",
            ),
            // missing rows and tables, and rows of the wrong shape
            (WriteBatch::new().delete("t", row(9, "x")), "NoSuchRow"),
            (WriteBatch::new().delete("t", k(1)), "NoSuchRow"),
            (WriteBatch::new().delete_by_key("t", k(9)), "NoSuchRow"),
            (
                WriteBatch::new().update("t", k(9), row(9, "x")),
                "NoSuchRow",
            ),
            (WriteBatch::new().update("t", k(2), k(2)), "ArityMismatch"),
            (
                WriteBatch::new()
                    .insert("t", row(7, "g"))
                    .delete("nope", row(7, "g")),
                "NoSuchTable",
            ),
        ];
        for (batch, expected) in &cases {
            let got = check_against_reference(&mut s, batch);
            assert_eq!(outcome(&got), *expected, "{:?}", batch.ops);
        }
        assert_eq!(
            s.table("t").unwrap().rows(),
            vec![row(3, "e"), row(2, "again"), row(1, "reused")]
        );
        assert_eq!(s.table("bag").unwrap().rows(), vec![bag(8)]);
    }

    /// `"ok"`, or the name of the error variant.
    fn outcome(result: &Result<StorageDelta, EngineError>) -> String {
        match result {
            Ok(_) => "ok".to_string(),
            Err(e) => {
                let debug = format!("{:?}", e);
                debug.split([' ', '(']).next().unwrap().to_string()
            }
        }
    }

    #[test]
    fn the_direct_mutators_agree_with_the_reference() {
        let mut rng = Rng(99);
        let mut s = mixed_storage();
        let mut models: BTreeMap<String, ModelTable> = s
            .tables()
            .map(|t| (t.def.name.clone(), ModelTable::of(t)))
            .collect();
        let mut rejected_updates = 0;
        for _ in 0..3000 {
            let op = random_op(&mut rng, &s, &mut Vec::new());
            let before = s.clone();
            let (got, expected) = match (op.clone(), models.get_mut(op.table())) {
                (_, None) => (
                    s.insert(op.table(), Vec::new()).map(|()| None),
                    Err(EngineError::NoSuchTable(op.table().to_string())),
                ),
                (WriteOp::Insert { table, row }, Some(m)) => (
                    s.insert(&table, row.clone()).map(|()| None),
                    m.insert(row).map(|()| None),
                ),
                (WriteOp::Delete { table, row }, Some(m)) => (
                    s.delete(&table, &row).map(|()| None),
                    m.delete(&row).map(|()| None),
                ),
                (WriteOp::DeleteByKey { table, key }, Some(m)) => (
                    s.delete_by_key(&table, &key).map(Some),
                    m.delete_by_key(&key).map(Some),
                ),
                (WriteOp::Update { table, key, row }, Some(m)) => {
                    let got = s.update(&table, &key, row.clone()).map(Some);
                    rejected_updates += got.is_err() as usize;
                    (got, m.update(&key, row).map(Some))
                }
            };
            assert_eq!(got, expected, "{:?}", op);
            if got.is_err() {
                assert_eq!(s, before, "a rejected {:?} changes nothing", op);
            }
            for t in s.tables() {
                assert_eq!(t.rows(), models[&t.def.name].rows, "after {:?}", op);
                t.assert_index_consistent();
            }
        }
        assert!(rejected_updates >= 50, "{rejected_updates}");
    }
}
