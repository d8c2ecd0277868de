//! Integration tests of live nested views: `Shredder::subscribe` keeps a
//! prepared query's nested result maintained across `apply_batch` writes,
//! and after every committed batch the subscription's value must be
//! identical to recomputing the query from scratch on the post-write
//! storage — across the full benchmark suite (QF1–QF6 and Q1–Q6) and all
//! three indexing schemes.

use nrc::types::BaseType;
use query_shredding::prelude::*;

fn small_db() -> Database {
    generate(&OrgConfig {
        departments: 3,
        employees_per_department: 5,
        contacts_per_department: 2,
        seed: 11,
        ..OrgConfig::default()
    })
}

fn all_benchmark_queries() -> Vec<(&'static str, nrc::Term)> {
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    queries
}

/// The acceptance bar of the delta subsystem: for every benchmark query,
/// under every indexing scheme, a subscription's value after each of a
/// stream of committed write batches is multiset-identical to a fresh
/// execution of the same prepared query (the differential oracle). Reseeds
/// are allowed — a query outside the incremental fragment falls back to
/// recompute-from-scratch — but divergence never is.
#[test]
fn subscriptions_match_recompute_after_every_write_batch_under_every_scheme() {
    let db = small_db();
    for scheme in IndexScheme::ALL {
        for (name, q) in all_benchmark_queries() {
            let session = Shredder::builder()
                .database(db.clone())
                .index_scheme(scheme)
                .build()
                .unwrap();
            let prepared = session.prepare(&q).unwrap();
            let sub = session.subscribe(&prepared).unwrap();
            let mut stream = MutationStream::over(
                &db,
                MutationConfig {
                    ops_per_batch: 3,
                    seed: 7,
                    ..MutationConfig::default()
                },
            );
            for round in 0..6 {
                let batch = stream.next_batch();
                session.apply_batch(&batch).unwrap();
                let live = sub.value().unwrap();
                let recomputed = session.execute(&prepared).unwrap();
                assert!(
                    live.multiset_eq(&recomputed),
                    "{name} under {scheme} indexes diverged from recompute \
                     after batch {round}"
                );
            }
            assert_eq!(sub.generation(), 6, "every batch maintains the view");
        }
    }
}

/// A subscription taken *after* some writes starts from the current
/// storage, not the session's load-time database.
#[test]
fn a_late_subscription_sees_previous_writes() {
    let db = small_db();
    let session = Shredder::over(db.clone()).unwrap();
    let (_, q) = datagen::queries::nested_queries().remove(0);
    let prepared = session.prepare(&q).unwrap();

    let mut stream = MutationStream::over(
        &db,
        MutationConfig {
            ops_per_batch: 4,
            seed: 3,
            ..MutationConfig::default()
        },
    );
    session.apply_batch(&stream.next_batch()).unwrap();

    let sub = session.subscribe(&prepared).unwrap();
    assert!(sub
        .value()
        .unwrap()
        .multiset_eq(&session.execute(&prepared).unwrap()));
    assert_eq!(sub.generation(), 0, "no batch maintained it yet");

    session.apply_batch(&stream.next_batch()).unwrap();
    assert!(sub
        .value()
        .unwrap()
        .multiset_eq(&session.execute(&prepared).unwrap()));
    assert_eq!(sub.generation(), 1);
}

/// Two subscriptions to different queries are maintained independently by
/// the same committed batches, and cloned handles share one live view.
#[test]
fn multiple_subscriptions_are_maintained_by_the_same_writes() {
    let db = small_db();
    let session = Shredder::over(db.clone()).unwrap();
    let queries = datagen::queries::nested_queries();
    let p1 = session.prepare(&queries[0].1).unwrap();
    let p2 = session.prepare(&queries[3].1).unwrap();
    let s1 = session.subscribe(&p1).unwrap();
    let s2 = session.subscribe(&p2).unwrap();
    let s1_clone = s1.clone();

    let mut stream = MutationStream::over(
        &db,
        MutationConfig {
            ops_per_batch: 2,
            seed: 19,
            ..MutationConfig::default()
        },
    );
    for _ in 0..4 {
        session.apply_batch(&stream.next_batch()).unwrap();
        assert!(s1
            .value()
            .unwrap()
            .multiset_eq(&session.execute(&p1).unwrap()));
        assert!(s2
            .value()
            .unwrap()
            .multiset_eq(&session.execute(&p2).unwrap()));
    }
    assert_eq!(s1.generation(), 4);
    assert_eq!(s1_clone.generation(), 4, "clones share the live view");
    assert_eq!(s2.generation(), 4);
}

/// `maintain_nanos` accumulates only across maintained batches — it is the
/// maintenance-only cost a benchmark compares against full recompute.
#[test]
fn maintain_nanos_accumulates_per_maintained_batch() {
    let db = small_db();
    let session = Shredder::over(db.clone()).unwrap();
    let (_, q) = datagen::queries::nested_queries().remove(0);
    let prepared = session.prepare(&q).unwrap();
    let sub = session.subscribe(&prepared).unwrap();
    assert_eq!(sub.maintain_nanos(), 0, "nothing maintained yet");

    let mut stream = MutationStream::over(
        &db,
        MutationConfig {
            ops_per_batch: 1,
            seed: 5,
            ..MutationConfig::default()
        },
    );
    session.apply_batch(&stream.next_batch()).unwrap();
    let after_one = sub.maintain_nanos();
    assert!(after_one > 0, "a maintained batch costs measurable time");
    session.apply_batch(&stream.next_batch()).unwrap();
    assert!(sub.maintain_nanos() > after_one, "the counter accumulates");
}

/// Departments → employees who out-earn some colleague → their tasks. The
/// colleague test correlates through `<`, which the optimizer cannot turn
/// into hash keys (analysis warning O001): the employee stage keeps a
/// correlated semi-join over `employees`, so every employee write makes it
/// bail, while the department stage above it stays incremental.
fn out_earners_with_tasks() -> nrc::Term {
    for_in(
        "d",
        table("departments"),
        singleton(record(vec![
            ("dept", project(var("d"), "name")),
            (
                "earners",
                for_where(
                    "e",
                    table("employees"),
                    and(
                        eq(project(var("e"), "dept"), project(var("d"), "name")),
                        not(is_empty(for_where(
                            "c",
                            table("employees"),
                            lt(project(var("c"), "salary"), project(var("e"), "salary")),
                            singleton(project(var("c"), "name")),
                        ))),
                    ),
                    singleton(record(vec![
                        ("name", project(var("e"), "name")),
                        (
                            "tasks",
                            for_where(
                                "t",
                                table("tasks"),
                                eq(project(var("t"), "employee"), project(var("e"), "name")),
                                singleton(project(var("t"), "task")),
                            ),
                        ),
                    ])),
                ),
            ),
        ])),
    )
}

/// Delete-heavy churn on the outer tables retires index ordinals all the
/// time and hands out fresh ones on every insert. After every batch each
/// subscription must still equal a fresh execution — including the O001
/// term, whose bails re-seed every stage of the view at once (a stage
/// re-seeded alone would renumber densely under its incrementally
/// maintained parent).
#[test]
fn delete_heavy_outer_churn_keeps_every_view_equal_to_recompute() {
    let db = small_db();
    let mut queries = all_benchmark_queries();
    queries.push(("out-earners", out_earners_with_tasks()));
    for (name, q) in queries {
        let session = Shredder::builder()
            .database(db.clone())
            .verify(true)
            .build()
            .unwrap();
        let prepared = session.prepare(&q).unwrap();
        let sub = session.subscribe(&prepared).unwrap();
        let mut stream = MutationStream::over(
            &db,
            MutationConfig {
                ops_per_batch: 4,
                leaf_bias: 0.0,
                delete_weight: 5,
                seed: 29,
                ..MutationConfig::default()
            },
        );
        for round in 0..12 {
            session.apply_batch(&stream.next_batch()).unwrap();
            let recomputed = session.execute(&prepared).unwrap();
            assert!(
                sub.value().unwrap().multiset_eq(&recomputed),
                "{name} diverged from recompute after batch {round}"
            );
        }
        if name == "out-earners" {
            assert!(
                prepared.check().has_code(
                    query_shredding::shredding::analysis::codes::RETAINED_CORRELATED_SUBQUERY
                ),
                "the correlated term must keep its semi-join: {}",
                prepared.check()
            );
            assert!(sub.reseeds() > 0, "employee writes make the view re-seed");
        }
    }
}

/// Keyless departments with a duplicate name: `"A"` twice. Rows the index
/// windows tie on (both copies of `"A"`, and each employee under either
/// copy) hold interchangeable ordinals; deleting one copy must retire the
/// same ordinals in the employee stage as in the task stage below it, even
/// when the employee stage has to hand a retired ordinal's place to a
/// surviving row.
#[test]
fn writes_to_duplicate_outer_rows_keep_subtrees_with_their_parents() {
    use query_shredding::sqlengine::SqlValue;
    let schema = Schema::new()
        .with_table(TableSchema::new(
            "departments",
            vec![("name", BaseType::String)],
        ))
        .with_table(TableSchema::new(
            "employees",
            vec![("name", BaseType::String), ("dept", BaseType::String)],
        ))
        .with_table(TableSchema::new(
            "tasks",
            vec![("employee", BaseType::String), ("task", BaseType::String)],
        ));
    let mut db = Database::new(schema);
    for dept in ["A", "A", "B"] {
        db.insert_row("departments", vec![("name", Value::string(dept))])
            .unwrap();
    }
    for (name, dept) in [("x", "A"), ("y", "A"), ("z", "B")] {
        db.insert_row(
            "employees",
            vec![("name", Value::string(name)), ("dept", Value::string(dept))],
        )
        .unwrap();
    }
    for (employee, task) in [("x", "tx"), ("y", "ty"), ("z", "tz")] {
        db.insert_row(
            "tasks",
            vec![
                ("employee", Value::string(employee)),
                ("task", Value::string(task)),
            ],
        )
        .unwrap();
    }
    let q = for_in(
        "d",
        table("departments"),
        singleton(record(vec![
            ("dept", project(var("d"), "name")),
            (
                "workers",
                for_where(
                    "e",
                    table("employees"),
                    eq(project(var("e"), "dept"), project(var("d"), "name")),
                    singleton(record(vec![
                        ("name", project(var("e"), "name")),
                        (
                            "tasks",
                            for_where(
                                "t",
                                table("tasks"),
                                eq(project(var("t"), "employee"), project(var("e"), "name")),
                                singleton(project(var("t"), "task")),
                            ),
                        ),
                    ])),
                ),
            ),
        ])),
    );
    let session = Shredder::over(db).unwrap();
    let prepared = session.prepare(&q).unwrap();
    let sub = session.subscribe(&prepared).unwrap();
    let s = |v: &str| SqlValue::str(v);
    let batches = [
        // A second, identical `x` in `A`: four employee rows now tie on
        // `(A, x)`, two under each copy of `A`.
        WriteBatch::new().insert("employees", vec![s("x"), s("A")]),
        WriteBatch::new().delete("departments", vec![s("A")]),
        WriteBatch::new()
            .insert("departments", vec![s("A")])
            .insert("employees", vec![s("w"), s("A")])
            .insert("tasks", vec![s("w"), s("tw")]),
        // One copy of `A` leaves while a second `y` arrives under the
        // other: the task stage's `(A, y)` rows cancel, the employee stage's
        // differ in `q.rn` and do not.
        WriteBatch::new()
            .delete("departments", vec![s("A")])
            .insert("employees", vec![s("y"), s("A")]),
        WriteBatch::new().insert("departments", vec![s("A")]),
        WriteBatch::new().delete("employees", vec![s("x"), s("A")]),
        WriteBatch::new()
            .delete("departments", vec![s("A")])
            .insert("departments", vec![s("B")]),
        WriteBatch::new().insert("employees", vec![s("x"), s("B")]),
        WriteBatch::new().delete("departments", vec![s("B")]),
    ];
    for (round, batch) in batches.iter().enumerate() {
        session.apply_batch(batch).unwrap();
        let recomputed = session.execute(&prepared).unwrap();
        assert!(
            sub.value().unwrap().multiset_eq(&recomputed),
            "diverged from recompute after batch {round}"
        );
    }
    assert_eq!(
        sub.reseeds(),
        0,
        "duplicates stay inside the incremental fragment"
    );
}
