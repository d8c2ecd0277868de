//! End-to-end integration tests spanning all workspace crates: every
//! benchmark query of the paper's evaluation is compiled, executed on the SQL
//! engine and compared against the nested reference semantics (Theorem 4),
//! for query shredding and for the loop-lifting baseline — all through the
//! `Shredder` session API.

use nrc::types::BaseType;
use query_shredding::prelude::*;
use query_shredding::shredding;

fn small_db() -> Database {
    generate(&OrgConfig {
        departments: 4,
        employees_per_department: 6,
        contacts_per_department: 3,
        seed: 7,
        ..OrgConfig::default()
    })
}

/// One session per compared backend, all sharing one loaded engine. Only the
/// shredding session owns the database (it provides the oracle); the
/// baseline sessions are schema + engine only.
fn sessions() -> (Shredder, Shredder, Shredder) {
    let shredding = Shredder::builder().database(small_db()).build().unwrap();
    let engine = shredding.shared_engine().unwrap();
    let looplift = Shredder::builder()
        .schema(organisation_schema())
        .engine(engine.clone())
        .backend(Box::new(LoopLiftBackend))
        .build()
        .unwrap();
    let flat = Shredder::builder()
        .schema(organisation_schema())
        .engine(engine)
        .backend(Box::new(FlatDefaultBackend))
        .build()
        .unwrap();
    (shredding, looplift, flat)
}

#[test]
fn all_flat_benchmark_queries_agree_across_systems() {
    let (shredding, looplift, flat) = sessions();
    for (name, q) in datagen::queries::flat_queries() {
        let reference = shredding.oracle(&q).unwrap();
        let shredded = shredding.run(&q).unwrap();
        let lifted = looplift.run(&q).unwrap();
        let default = flat.run(&q).unwrap();
        assert!(shredded.multiset_eq(&reference), "{} via shredding", name);
        assert!(lifted.multiset_eq(&reference), "{} via loop-lifting", name);
        assert!(
            default.multiset_eq(&reference),
            "{} via default flat evaluation",
            name
        );
    }
}

#[test]
fn all_nested_benchmark_queries_agree_across_systems() {
    let (shredding, looplift, _) = sessions();
    for (name, q) in datagen::queries::nested_queries() {
        let reference = shredding.oracle(&q).unwrap();
        let shredded = shredding.run(&q).unwrap();
        let lifted = looplift.run(&q).unwrap();
        assert!(shredded.multiset_eq(&reference), "{} via shredding", name);
        assert!(lifted.multiset_eq(&reference), "{} via loop-lifting", name);
    }
}

#[test]
fn nested_queries_agree_under_every_indexing_scheme() {
    let db = small_db();
    let oracle = Shredder::builder()
        .database(db.clone())
        .backend(Box::new(NestedOracleBackend))
        .build()
        .unwrap();
    for (name, q) in datagen::queries::nested_queries() {
        let reference = oracle.run(&q).unwrap();
        for scheme in IndexScheme::ALL {
            let session = Shredder::builder()
                .database(db.clone())
                .backend(Box::new(ShreddedMemoryBackend))
                .index_scheme(scheme)
                .build()
                .unwrap();
            let v = session.run(&q).unwrap();
            assert!(
                v.multiset_eq(&reference),
                "{} with {} indexes disagrees with the nested semantics",
                name,
                scheme
            );
        }
    }
}

#[test]
fn query_counts_match_nesting_degrees() {
    // A schema-only session can plan and explain without any data.
    let planner = Shredder::builder()
        .schema(organisation_schema())
        .build()
        .unwrap();
    let expected = [
        ("Q1", 4),
        ("Q2", 1),
        ("Q3", 2),
        ("Q4", 2),
        ("Q5", 2),
        ("Q6", 3),
    ];
    for ((name, q), (ename, degree)) in datagen::queries::nested_queries().into_iter().zip(expected)
    {
        assert_eq!(name, ename);
        let prepared = planner.prepare(&q).unwrap();
        assert_eq!(prepared.query_count(), degree, "query count of {}", name);
        assert_eq!(prepared.result_type().nesting_degree(), degree);
    }
}

#[test]
fn generated_sql_round_trips_through_the_parser() {
    let planner = Shredder::builder()
        .schema(organisation_schema())
        .build()
        .unwrap();
    for (_, q) in datagen::queries::nested_queries() {
        let prepared = planner.prepare(&q).unwrap();
        for text in prepared.sql_texts() {
            let parsed = sqlengine::parse_query(&text).expect("generated SQL parses");
            let reprinted = sqlengine::print_query(&parsed);
            let reparsed = sqlengine::parse_query(&reprinted).unwrap();
            assert_eq!(parsed, reparsed);
        }
    }
}

#[test]
fn the_default_backend_rejects_nested_queries_like_stock_links() {
    let (_, _, flat) = sessions();
    let err = flat.run(&datagen::queries::q1());
    assert!(
        err.is_err(),
        "default flat evaluation must reject nested results"
    );
}

#[test]
fn results_scale_with_the_data() {
    let q = datagen::queries::q4();
    let small = Shredder::over(generate(&OrgConfig {
        departments: 2,
        employees_per_department: 5,
        ..OrgConfig::default()
    }))
    .unwrap();
    let large = Shredder::over(generate(&OrgConfig {
        departments: 6,
        employees_per_department: 5,
        ..OrgConfig::default()
    }))
    .unwrap();
    assert_eq!(small.run(&q).unwrap().as_bag().unwrap().len(), 2);
    assert_eq!(large.run(&q).unwrap().as_bag().unwrap().len(), 6);
}

#[test]
fn the_low_level_pipeline_building_blocks_remain_usable() {
    // The deprecated pre-session shims (`run`, `run_in_memory`,
    // `eval_nested`) are gone; the composable building blocks they wrapped
    // stay available for callers that want to drive the stages by hand.
    let db = small_db();
    let schema = organisation_schema();
    let engine = shredding::pipeline::engine_from_database(&db).unwrap();
    let q = datagen::queries::q4();
    let reference = Shredder::over(db).unwrap().oracle(&q).unwrap();
    let compiled = shredding::pipeline::compile(&q, &schema).unwrap();
    assert_eq!(compiled.query_count(), 2);
    assert!(shredding::pipeline::execute(&compiled, &engine)
        .unwrap()
        .multiset_eq(&reference));
}

/// A keyless outer table holding duplicate rows: `departments(name)` has
/// `"A"` twice, so the generator columns alone cannot tell the two copies
/// apart. The parent stage and its child must still number the employees of
/// both copies alike, or one employee's tasks end up under another.
fn duplicate_department_db() -> Database {
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
            vec![("emp", BaseType::String), ("task", BaseType::String)],
        ));
    let mut db = Database::new(schema);
    for _ in 0..2 {
        db.insert_row("departments", vec![("name", Value::string("A"))])
            .unwrap();
    }
    for (name, dept) in [("x", "A"), ("y", "A")] {
        db.insert_row(
            "employees",
            vec![("name", Value::string(name)), ("dept", Value::string(dept))],
        )
        .unwrap();
    }
    for (emp, task) in [("x", "tx"), ("y", "ty")] {
        db.insert_row(
            "tasks",
            vec![("emp", Value::string(emp)), ("task", Value::string(task))],
        )
        .unwrap();
    }
    db
}

/// Three levels shaped like Qorg: departments → workers → their tasks.
fn workers_with_tasks() -> nrc::Term {
    for_in(
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
                                eq(project(var("t"), "emp"), project(var("e"), "name")),
                                singleton(project(var("t"), "task")),
                            ),
                        ),
                    ])),
                ),
            ),
        ])),
    )
}

#[test]
fn duplicate_rows_in_a_keyless_outer_table_keep_each_subtree_with_its_parent() {
    let q = workers_with_tasks();
    for workers in [1, 2] {
        let session = Shredder::builder()
            .database(duplicate_department_db())
            .workers(workers)
            .build()
            .unwrap();
        let reference = session.oracle(&q).unwrap();
        let shredded = session.run(&q).unwrap();
        assert!(
            shredded.multiset_eq(&reference),
            "workers({}): {:?} differs from the nested semantics {:?}",
            workers,
            shredded,
            reference
        );
    }
}
