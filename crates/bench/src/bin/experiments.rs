//! The `experiments` binary regenerates the tables behind the paper's
//! figures.
//!
//! ```text
//! experiments --figure 10                 # flat queries QF1–QF6 (Figure 10)
//! experiments --figure 11                 # nested queries Q1–Q6 (Figure 11)
//! experiments --appendix-a               # Van den Bussche blow-up (Appendix A)
//! experiments --all                      # everything
//! experiments --departments 64          # extend the scaling sweep
//! experiments --max-departments 64      # (alias of --departments)
//! experiments --check                    # verify every result against N⟦−⟧
//! experiments --vexec-json BENCH_pr2.json  # interpreter vs. vectorized engine
//! experiments --stitch-json BENCH_pr5.json # row-path vs. columnar result assembly
//! experiments --params-json BENCH_pr3.json # bound re-execution vs. replanning
//! experiments --concurrency-json BENCH_pr4.json # shared-session thread scaling
//! experiments --profile-json BENCH_pr7.json # stage tracing + operator profiling overhead
//! experiments --delta-json BENCH_pr8.json  # incremental maintenance vs. full recompute
//! experiments --morsel-json BENCH_pr9.json # morsel-parallel vs. sequential execution
//! experiments --opt-json BENCH_pr10.json   # logical optimizer on vs. off
//! ```
//!
//! Output layout mirrors the paper: one row per query and system, one column
//! per department count, entries in milliseconds (median of 3 runs).

use baselines::vandenbussche as vdb;
use bench::{check_against_reference, measure_median, Instance, System};

struct Options {
    figure10: bool,
    figure11: bool,
    appendix_a: bool,
    max_departments: usize,
    runs: usize,
    check: bool,
    vexec_json: Option<String>,
    params_json: Option<String>,
    param_bindings: usize,
    concurrency_json: Option<String>,
    concurrency_execs: usize,
    stitch_json: Option<String>,
    analyze_json: Option<String>,
    profile_json: Option<String>,
    delta_json: Option<String>,
    morsel_json: Option<String>,
    opt_json: Option<String>,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        figure10: false,
        figure11: false,
        appendix_a: false,
        max_departments: 32,
        runs: 3,
        check: false,
        vexec_json: None,
        params_json: None,
        param_bindings: 64,
        concurrency_json: None,
        concurrency_execs: 64,
        stitch_json: None,
        analyze_json: None,
        profile_json: None,
        delta_json: None,
        morsel_json: None,
        opt_json: None,
    };
    let mut i = 0;
    let mut any = false;
    while i < args.len() {
        match args[i].as_str() {
            "--figure" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("10") => opts.figure10 = true,
                    Some("11") => opts.figure11 = true,
                    other => {
                        eprintln!("unknown figure {:?} (expected 10 or 11)", other);
                        std::process::exit(2);
                    }
                }
                any = true;
            }
            "--appendix-a" => {
                opts.appendix_a = true;
                any = true;
            }
            "--all" => {
                opts.figure10 = true;
                opts.figure11 = true;
                opts.appendix_a = true;
                any = true;
            }
            // `--departments` is the uniform scale knob across every bench
            // gate; `--max-departments` stays as an alias for older scripts.
            "--departments" | "--max-departments" => {
                i += 1;
                opts.max_departments =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--departments expects a number");
                        std::process::exit(2);
                    });
            }
            "--runs" => {
                i += 1;
                opts.runs = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(3);
            }
            "--check" => opts.check = true,
            "--vexec-json" => {
                i += 1;
                let path = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--vexec-json expects a file path");
                    std::process::exit(2);
                });
                opts.vexec_json = Some(path);
                any = true;
            }
            "--params-json" => {
                i += 1;
                let path = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--params-json expects a file path");
                    std::process::exit(2);
                });
                opts.params_json = Some(path);
                any = true;
            }
            "--param-bindings" => {
                i += 1;
                opts.param_bindings =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--param-bindings expects a number");
                        std::process::exit(2);
                    });
            }
            "--concurrency-json" => {
                i += 1;
                let path = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--concurrency-json expects a file path");
                    std::process::exit(2);
                });
                opts.concurrency_json = Some(path);
                any = true;
            }
            "--stitch-json" => {
                i += 1;
                let path = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--stitch-json expects a file path");
                    std::process::exit(2);
                });
                opts.stitch_json = Some(path);
                any = true;
            }
            "--analyze-json" => {
                i += 1;
                let path = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--analyze-json expects a file path");
                    std::process::exit(2);
                });
                opts.analyze_json = Some(path);
                any = true;
            }
            "--profile-json" => {
                i += 1;
                let path = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--profile-json expects a file path");
                    std::process::exit(2);
                });
                opts.profile_json = Some(path);
                any = true;
            }
            "--delta-json" => {
                i += 1;
                let path = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--delta-json expects a file path");
                    std::process::exit(2);
                });
                opts.delta_json = Some(path);
                any = true;
            }
            "--morsel-json" => {
                i += 1;
                let path = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--morsel-json expects a file path");
                    std::process::exit(2);
                });
                opts.morsel_json = Some(path);
                any = true;
            }
            "--opt-json" => {
                i += 1;
                let path = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--opt-json expects a file path");
                    std::process::exit(2);
                });
                opts.opt_json = Some(path);
                any = true;
            }
            "--concurrency-execs" => {
                i += 1;
                opts.concurrency_execs =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--concurrency-execs expects a number");
                        std::process::exit(2);
                    });
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--figure 10|11] [--appendix-a] [--all] \
                     [--departments N] [--runs N] [--check] [--vexec-json PATH] \
                     [--params-json PATH] [--param-bindings N] \
                     [--concurrency-json PATH] [--concurrency-execs N] \
                     [--stitch-json PATH] [--analyze-json PATH] [--profile-json PATH] \
                     [--delta-json PATH] [--morsel-json PATH] [--opt-json PATH]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {}", other);
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if !any {
        opts.figure10 = true;
        opts.figure11 = true;
        opts.appendix_a = true;
    }
    opts
}

fn department_scales(max: usize) -> Vec<usize> {
    let mut scales = Vec::new();
    let mut d = 4;
    while d <= max {
        scales.push(d);
        d *= 2;
    }
    if scales.is_empty() {
        scales.push(max.max(1));
    }
    scales
}

fn print_header(title: &str, scales: &[usize]) {
    println!("\n=== {} ===", title);
    print!("{:<6} {:<14}", "query", "system");
    for d in scales {
        print!(" {:>9}", format!("{} dept", d));
    }
    println!();
}

fn run_figure(
    title: &str,
    queries: Vec<(&'static str, nrc::Term)>,
    systems: &[System],
    opts: &Options,
    instances: &[Instance],
) {
    let scales: Vec<usize> = instances.iter().map(|i| i.departments).collect();
    print_header(title, &scales);
    for (name, query) in &queries {
        for system in systems {
            print!("{:<6} {:<14}", name, system.to_string());
            for instance in instances {
                if opts.check {
                    if let Err(e) = check_against_reference(*system, query, instance) {
                        print!(" {:>9}", "MISMATCH");
                        eprintln!("check failed for {} under {}: {}", name, system, e);
                        continue;
                    }
                }
                let m = measure_median(*system, name, query, instance, opts.runs);
                match m.error {
                    None => print!(" {:>9.1}", m.millis()),
                    Some(_) => print!(" {:>9}", "n/a"),
                }
            }
            println!();
        }
    }
}

fn appendix_a() {
    println!("\n=== Appendix A: Van den Bussche simulation on multiset unions ===");
    println!(
        "{:<22} {:>10} {:>14} {:>12} {:>10} {:>12}",
        "instance", "adom", "correct tuples", "vdb tuples", "blow-up", "bag-correct"
    );
    let (r, s) = vdb::appendix_a_instance();
    let report = vdb::measure_blowup(&r, &s);
    print_blowup("paper example", &report);
    for n in [4usize, 8, 16, 32] {
        let (r, s) = vdb::scaled_instance(n, 2);
        let report = vdb::measure_blowup(&r, &s);
        print_blowup(&format!("{} rows x 2 elems", n), &report);
    }
    println!(
        "\nQuery shredding represents the same unions with the `correct tuples` count and\n\
         preserves multiplicities; the simulation grows with |adom|^2 and does not."
    );
}

fn print_blowup(label: &str, report: &vdb::BlowupReport) {
    println!(
        "{:<22} {:>10} {:>14} {:>12} {:>10.1} {:>12}",
        label,
        report.adom_size,
        report.correct_tuples,
        report.vdb_tuples,
        report.blowup_factor,
        if report.preserves_multiplicity {
            "yes"
        } else {
            "no"
        }
    );
}

/// Engine-level interpreter-vs-vectorized comparison over the compiled SQL
/// stages of every benchmark query; prints a table and writes the
/// machine-readable report (`BENCH_pr2.json` in CI).
fn vexec_report(path: &str, opts: &Options) {
    let instance = Instance::at_scale(opts.max_departments);
    println!(
        "\n=== Interpreter vs. vectorized executor ({} departments, median of {}) ===",
        instance.departments, opts.runs
    );
    println!(
        "{:<6} {:<7} {:>7} {:>10} {:>13} {:>13} {:>9}",
        "query", "kind", "stages", "plan ms", "interp ms", "vexec ms", "speedup"
    );
    let rows = bench::compare_vectorized(&instance, opts.runs);
    for row in &rows {
        println!(
            "{:<6} {:<7} {:>7} {:>10.4} {:>13.4} {:>13.4} {:>8.1}x",
            row.query,
            row.kind,
            row.stages,
            row.plan_ms,
            row.interpreter_ms,
            row.vectorized_ms,
            row.speedup()
        );
    }
    let json = bench::vexec_report_json(&instance, opts.runs, &rows);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {}: {}", path, e);
        std::process::exit(1);
    }
    println!("wrote {}", path);
}

/// The PR 3 parametric-workload comparison: one prepared shape re-executed
/// with N distinct bindings (bind variables) against replanning per
/// constant. Writes the machine-readable report and fails the process if the
/// ad-hoc plan-cache hit rate is zero (auto-parameterization regressed).
fn params_report(path: &str, opts: &Options) {
    let instance = Instance::at_scale(opts.max_departments);
    println!(
        "\n=== Bound re-execution vs. replanning ({} departments, {} bindings, median of {}) ===",
        instance.departments, opts.param_bindings, opts.runs
    );
    println!(
        "{:<14} {:>10} {:>13} {:>14} {:>9} {:>10} {:>8}",
        "workload", "prepare ms", "bound ms/exec", "replan ms/exec", "speedup", "hit rate", "plans"
    );
    let rows = bench::compare_params(&instance, opts.param_bindings, opts.runs);
    for row in &rows {
        println!(
            "{:<14} {:>10.4} {:>13.4} {:>14.4} {:>8.1}x {:>9.1}% {:>8}",
            row.workload,
            row.prepare_ms,
            row.bound_per_exec_ms,
            row.replan_per_exec_ms,
            row.speedup(),
            row.cache_hit_rate * 100.0,
            row.engine_plans_built_during_bound,
        );
    }
    let json = bench::params_report_json(&instance, opts.runs, &rows);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {}: {}", path, e);
        std::process::exit(1);
    }
    println!("wrote {}", path);
    for row in &rows {
        if row.cache_hit_rate <= 0.0 {
            eprintln!(
                "FAIL: workload {} has a 0% plan-cache hit rate — queries differing \
                 only in constants are not sharing plans",
                row.workload
            );
            std::process::exit(1);
        }
        if row.engine_plans_built_during_bound > 0 {
            eprintln!(
                "FAIL: workload {} built {} engine plans during bound re-execution",
                row.workload, row.engine_plans_built_during_bound
            );
            std::process::exit(1);
        }
    }
}

/// The PR 4 shared-session scaling sweep: one `Shredder` cloned into
/// 1/2/4/8 worker threads, each performing K bound executions of the
/// parametric workloads through the shared plan cache. Writes the
/// machine-readable report and fails the process if the shared state
/// misbehaved (engine-side re-planning, cold plan cache) or — on hosts with
/// at least 4 cores — if 4-thread throughput does not exceed the 1-thread
/// baseline.
fn concurrency_report(path: &str, opts: &Options) {
    let instance = Instance::at_scale(opts.max_departments);
    let thread_counts = [1usize, 2, 4, 8];
    println!(
        "\n=== Shared-session throughput ({} departments, {} execs/thread, best of {}) ===",
        instance.departments, opts.concurrency_execs, opts.runs
    );
    let report = bench::measure_concurrency_best_of(
        &instance,
        &thread_counts,
        opts.concurrency_execs,
        opts.runs,
    );
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>9}",
        "threads", "total execs", "elapsed ms", "execs/sec", "speedup"
    );
    for p in &report.points {
        println!(
            "{:<8} {:>12} {:>12.2} {:>14.1} {:>8.2}x",
            p.threads,
            p.total_execs,
            p.elapsed_ms,
            p.execs_per_sec,
            report.speedup_at(p.threads).unwrap_or(f64::NAN)
        );
    }
    println!(
        "plan-cache hit rate {:.1}%, engine plans built during run: {}, host parallelism: {}",
        report.cache_hit_rate * 100.0,
        report.engine_plans_built_during_run,
        report.available_parallelism
    );
    let json = bench::concurrency_report_json(&instance, &report);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {}: {}", path, e);
        std::process::exit(1);
    }
    println!("wrote {}", path);

    if report.engine_plans_built_during_run > 0 {
        eprintln!(
            "FAIL: {} engine plans were built during concurrent bound re-execution",
            report.engine_plans_built_during_run
        );
        std::process::exit(1);
    }
    if report.cache_hit_rate <= 0.9 {
        eprintln!(
            "FAIL: plan-cache hit rate {:.1}% under concurrency (expected > 90%)",
            report.cache_hit_rate * 100.0
        );
        std::process::exit(1);
    }
    let speedup4 = report.speedup_at(4).unwrap_or(0.0);
    if report.available_parallelism >= 4 {
        if speedup4 <= 1.0 {
            eprintln!(
                "FAIL: 4-thread throughput must exceed the 1-thread baseline on a \
                 {}-way host, got {:.2}x",
                report.available_parallelism, speedup4
            );
            std::process::exit(1);
        }
    } else if speedup4 <= 0.5 {
        // On an under-provisioned host real scaling is impossible; still
        // refuse catastrophic collapse (a serializing lock on the hot path).
        eprintln!(
            "FAIL: 4-thread throughput collapsed to {:.2}x of the 1-thread \
             baseline on a {}-way host (lock contention on the read path?)",
            speedup4, report.available_parallelism
        );
        std::process::exit(1);
    } else {
        println!(
            "note: host has {} core(s); thread-scaling assertion relaxed to \
             a no-collapse check ({:.2}x at 4 threads)",
            report.available_parallelism, speedup4
        );
    }
}

/// The PR 5 result-assembly comparison: the same per-stage engine output
/// decoded and stitched over the row path (transpose -> per-row `FlatValue`
/// trees -> row-at-a-time stitch) and the columnar path (index-keyed grouping
/// over `Arc`-shared columns -> one-pass materialisation). Writes the
/// machine-readable report and fails the process if the columnar path does
/// not beat the row path on every nested benchmark query.
fn stitch_report(path: &str, opts: &Options) {
    let instance = Instance::at_scale(opts.max_departments);
    println!(
        "\n=== Row-path vs. columnar result assembly ({} departments, median of {}) ===",
        instance.departments, opts.runs
    );
    println!(
        "{:<6} {:<7} {:>7} {:>8} {:>13} {:>13} {:>9}",
        "query", "kind", "stages", "rows", "row ms", "columnar ms", "speedup"
    );
    let rows = bench::compare_stitch(&instance, opts.runs);
    for row in &rows {
        println!(
            "{:<6} {:<7} {:>7} {:>8} {:>13.4} {:>13.4} {:>8.1}x",
            row.query,
            row.kind,
            row.stages,
            row.rows,
            row.row_path_ms,
            row.columnar_ms,
            row.speedup()
        );
    }
    let json = bench::stitch_report_json(&instance, opts.runs, &rows);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {}: {}", path, e);
        std::process::exit(1);
    }
    println!("wrote {}", path);
    for row in &rows {
        // Gate only queries that decode at least one row: with zero rows
        // both paths are sub-microsecond no-ops and the comparison is pure
        // timer noise.
        if row.kind == "nested" && row.rows > 0 && row.columnar_ms >= row.row_path_ms {
            eprintln!(
                "FAIL: nested query {} assembles results slower on the columnar path \
                 ({:.4} ms) than on the row path ({:.4} ms)",
                row.query, row.columnar_ms, row.row_path_ms
            );
            std::process::exit(1);
        }
    }
}

/// The PR 6 static-verification sweep: run the whole analysis pass (λNRC
/// lints, shredded-package checks, physical-plan validation) over every
/// benchmark query × all six backends × all three indexing schemes, write
/// the machine-readable report, and fail the process on any error-severity
/// diagnostic.
fn analyze_report(path: &str) {
    println!("\n=== Static verification sweep (12 queries × 6 backends × 3 schemes) ===");
    let entries = bench::analyze_all();
    println!(
        "{:<16} {:<10} {:>7} {:>8} {:>7} {:>9}",
        "backend", "scheme", "cells", "skipped", "errors", "warnings"
    );
    let mut backends: Vec<&'static str> = entries.iter().map(|e| e.backend).collect();
    backends.dedup();
    for backend in backends {
        for scheme in shredding::IndexScheme::ALL {
            let cells: Vec<_> = entries
                .iter()
                .filter(|e| e.backend == backend && e.scheme == scheme)
                .collect();
            let skipped = cells.iter().filter(|e| e.skip_reason.is_some()).count();
            let errors: usize = cells.iter().map(|e| e.error_count()).sum();
            let warnings: usize = cells
                .iter()
                .map(|e| e.diagnostics.len() - e.error_count())
                .sum();
            println!(
                "{:<16} {:<10} {:>7} {:>8} {:>7} {:>9}",
                backend,
                scheme.to_string(),
                cells.len(),
                skipped,
                errors,
                warnings
            );
        }
    }
    let total_errors: usize = entries.iter().map(|e| e.error_count()).sum();
    for e in &entries {
        for d in &e.diagnostics {
            if d.severity == shredding::Severity::Error {
                eprintln!("  {} on {} ({}): {}", d.code, e.query, e.backend, d);
            }
        }
    }
    let json = bench::analyze_report_json(&entries);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {}: {}", path, e);
        std::process::exit(1);
    }
    println!("wrote {}", path);
    if total_errors > 0 {
        eprintln!(
            "static verification FAILED: {} error-severity diagnostics",
            total_errors
        );
        std::process::exit(1);
    }
    println!("static verification passed: 0 error-severity diagnostics");
}

/// The PR 7 observability sweep: every benchmark query executed with
/// per-operator profiling off and on (stage tracing runs in both modes),
/// results cross-checked against the nested reference semantics, plus the
/// per-stage and per-operator breakdowns read back from the session's
/// metrics registry. Writes the machine-readable report and fails the
/// process on any divergence or if profiling costs more than 10% over the
/// whole suite.
fn profile_report(path: &str, opts: &Options) {
    let instance = Instance::at_scale(opts.max_departments);
    println!(
        "\n=== Stage tracing + operator profiling overhead ({} departments, median of {}) ===",
        instance.departments, opts.runs
    );
    let report = bench::measure_profiling(&instance, opts.runs);
    println!(
        "{:<6} {:<7} {:>7} {:>10} {:>15} {:>13} {:>10}",
        "query", "kind", "stages", "operators", "unprofiled ms", "profiled ms", "overhead"
    );
    for row in &report.rows {
        println!(
            "{:<6} {:<7} {:>7} {:>10} {:>15.4} {:>13.4} {:>9.1}%",
            row.query,
            row.kind,
            row.stages,
            row.operators,
            row.unprofiled_ms,
            row.profiled_ms,
            row.overhead_pct()
        );
    }
    println!("\nPer-stage spans (session registry):");
    println!(
        "{:<12} {:>8} {:>11} {:>11}",
        "stage", "spans", "mean ms", "p95 ms"
    );
    for (stage, count, mean_ms, p95_ms) in &report.stages {
        println!(
            "{:<12} {:>8} {:>11.4} {:>11.4}",
            stage, count, mean_ms, p95_ms
        );
    }
    println!("\nPer-operator actuals (profiled runs):");
    println!("{:<16} {:>10} {:>11}", "operator", "execs", "total ms");
    for (op, count, total_ms) in &report.operators {
        println!("{:<16} {:>10} {:>11.4}", op, count, total_ms);
    }
    println!(
        "\nsuite totals: unprofiled {:.4} ms, profiled {:.4} ms, overhead {:.1}%",
        report.unprofiled_total_ms,
        report.profiled_total_ms,
        report.overhead_pct()
    );
    let json = bench::profile_report_json(&instance, opts.runs, &report);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {}: {}", path, e);
        std::process::exit(1);
    }
    println!("wrote {}", path);
    if report.any_divergence() {
        for row in report.rows.iter().filter(|r| r.diverged) {
            eprintln!(
                "FAIL: query {} returns a different result when profiled",
                row.query
            );
        }
        std::process::exit(1);
    }
    if report.overhead_pct() > 10.0 {
        eprintln!(
            "FAIL: per-operator profiling costs {:.1}% over the whole suite (limit 10%)",
            report.overhead_pct()
        );
        std::process::exit(1);
    }
}

/// The PR 8 incremental-maintenance comparison: every benchmark query kept
/// live by a subscription while a seeded mutation stream commits write
/// batches, per-batch maintenance work (delta propagation plus stitch-cache
/// invalidation, the storage write excluded from both sides) timed against
/// a full recompute of the same prepared query. Writes the machine-readable
/// report and fails the process if any live view diverges from the
/// recompute oracle, or — at the committed scale (16+ departments) — if
/// maintenance of a single-operation batch is not at least 5× faster than
/// recomputing a nested query from scratch. Queries that fall back to
/// re-seeding (correlated `EXISTS` over mutated tables is outside the
/// incremental fragment) are held to a no-collapse bar instead, and at
/// least four of the six nested queries must stay fully incremental so the
/// exemption cannot swallow the gate.
fn delta_report(path: &str, opts: &Options) {
    let batch_sizes = [1usize, 8, 64];
    // Per-batch maintenance cost is heavy-tailed (a write to an outer table
    // touches the written row's whole subtree, a leaf write one group), so
    // the median needs a real sample size to settle.
    let batches = (opts.runs * 16).max(32);
    println!(
        "\n=== Incremental maintenance vs. full recompute ({} departments, {} batches/cell) ===",
        opts.max_departments, batches
    );
    println!(
        "{:<6} {:<7} {:>6} {:>7} {:>15} {:>13} {:>9} {:>8}",
        "query", "kind", "batch", "Δ rows", "incremental ms", "recompute ms", "speedup", "reseeds"
    );
    let rows = bench::compare_delta(opts.max_departments, &batch_sizes, batches);
    for row in &rows {
        println!(
            "{:<6} {:<7} {:>6} {:>7} {:>15.4} {:>13.4} {:>8.1}x {:>8}",
            row.query,
            row.kind,
            row.batch_size,
            row.delta_rows,
            row.incremental_ms,
            row.recompute_ms,
            row.speedup(),
            row.reseeds,
        );
    }
    let json = bench::delta_report_json(opts.max_departments, batches, &rows);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {}: {}", path, e);
        std::process::exit(1);
    }
    println!("wrote {}", path);

    let mut failed = false;
    for row in rows.iter().filter(|r| r.diverged) {
        eprintln!(
            "FAIL: live view for {} (batch size {}) diverged from the recompute oracle",
            row.query, row.batch_size
        );
        failed = true;
    }
    let small = batch_sizes[0];
    let mut incremental_nested = 0usize;
    let mut nested_cells = 0usize;
    for row in rows
        .iter()
        .filter(|r| r.kind == "nested" && r.batch_size == small)
    {
        nested_cells += 1;
        let speedup = row.speedup();
        if row.reseeds == 0 {
            incremental_nested += 1;
        }
        if opts.max_departments >= 16 && row.reseeds == 0 {
            if speedup < 5.0 {
                eprintln!(
                    "FAIL: maintaining {} after a {}-op batch is only {:.1}x faster than \
                     full recompute (expected >= 5x)",
                    row.query, small, speedup
                );
                failed = true;
            }
        } else if speedup <= 0.5 {
            // Reseeding queries (and smoke scales, where absolute times are
            // microseconds of timer noise) are held to a no-collapse bar:
            // the fallback is a recompute, so it must not lose outright.
            eprintln!(
                "FAIL: maintaining {} after a {}-op batch collapsed to {:.1}x of \
                 full recompute ({} departments, {} reseeds)",
                row.query, small, speedup, opts.max_departments, row.reseeds
            );
            failed = true;
        }
    }
    if nested_cells > 0 && incremental_nested * 3 < nested_cells * 2 {
        eprintln!(
            "FAIL: only {} of {} nested queries stayed fully incremental \
             (no reseeds) on single-op batches",
            incremental_nested, nested_cells
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "incremental maintenance verified: live views match the recompute oracle on \
         every committed batch"
    );
}

/// The PR 9 morsel-parallelism smoke gate: every benchmark query's compiled
/// stages executed sequentially and morsel-parallel, with the parallel
/// results differentially checked at morsel sizes 1/7/4096 against the
/// `workers = 1` baseline (strict, order included) and against the
/// row-at-a-time interpreter (as a bag). Writes the machine-readable report
/// and fails the process on any divergence, on any morsel-size-dependent
/// answer, or — on hosts with at least 4 cores — if the heavy queries (Q2,
/// QF6) speed up by less than cores/2. On smaller hosts the scaling
/// assertion relaxes to a no-collapse check and the host's parallelism is
/// recorded in the report.
fn morsel_report(path: &str, opts: &Options) {
    let instance = Instance::at_scale(opts.max_departments);
    println!(
        "\n=== Morsel-parallel vs. sequential execution ({} departments, median of {}) ===",
        instance.departments, opts.runs
    );
    let report = bench::compare_morsel(&instance, opts.runs);
    println!(
        "{:<6} {:<7} {:>7} {:>12} {:>12} {:>9} {:>11} {:>8}",
        "query", "kind", "stages", "1-worker ms", "parallel ms", "speedup", "consistent", "oracle"
    );
    for row in &report.rows {
        println!(
            "{:<6} {:<7} {:>7} {:>12.4} {:>12.4} {:>8.2}x {:>11} {:>8}",
            row.query,
            row.kind,
            row.stages,
            row.single_ms,
            row.parallel_ms,
            row.speedup(),
            if row.consistent { "yes" } else { "NO" },
            if row.matches_oracle { "yes" } else { "NO" },
        );
    }
    println!(
        "workers: {}, host parallelism: {}, morsel sizes checked: {:?}",
        report.workers, report.available_parallelism, report.morsel_sizes
    );
    let json = bench::morsel_report_json(&report, opts.runs);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {}: {}", path, e);
        std::process::exit(1);
    }
    println!("wrote {}", path);

    let mut failed = false;
    for row in &report.rows {
        if !row.consistent {
            eprintln!(
                "FAIL: query {} returns a morsel-size-dependent answer",
                row.query
            );
            failed = true;
        }
        if !row.matches_oracle {
            eprintln!(
                "FAIL: query {} diverges from the interpreter oracle under parallelism",
                row.query
            );
            failed = true;
        }
    }
    // The scaling gate watches the two heaviest single queries of the suite.
    const HEAVY: [&str; 2] = ["Q2", "QF6"];
    for name in HEAVY {
        let Some(row) = report.rows.iter().find(|r| r.query == name) else {
            eprintln!("FAIL: heavy query {} missing from the sweep", name);
            failed = true;
            continue;
        };
        let speedup = row.speedup();
        if report.available_parallelism >= 4 {
            let floor = report.available_parallelism as f64 / 2.0;
            if speedup < floor {
                eprintln!(
                    "FAIL: {} speeds up only {:.2}x under {} workers on a {}-way host \
                     (expected >= {:.1}x)",
                    name, speedup, report.workers, report.available_parallelism, floor
                );
                failed = true;
            }
        } else if speedup <= 0.5 {
            // An under-provisioned host cannot scale; still refuse outright
            // collapse (parallel execution must not lose to sequential by 2x).
            eprintln!(
                "FAIL: {} collapsed to {:.2}x under {} workers on a {}-way host",
                name, speedup, report.workers, report.available_parallelism
            );
            failed = true;
        } else {
            println!(
                "note: host has {} core(s); morsel scaling assertion for {} relaxed to \
                 a no-collapse check ({:.2}x)",
                report.available_parallelism, name, speedup
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "morsel-parallel execution verified: identical answers at every morsel size \
         and worker count"
    );
}

/// The PR 10 logical-optimizer gate: every benchmark query executed through
/// an optimizing and a non-optimizing session over the same loaded engine,
/// answers differentially checked against each other and — per stage —
/// against the engine's row-at-a-time SQL interpreter (which never sees the
/// rewrites), median execution times compared per query. Writes the
/// machine-readable report and fails the process on any divergence, if —
/// at the committed scale (256+ departments) — decorrelation does not make
/// the doubly-correlated queries (Q2, QF6) at least 5× faster, or if the
/// rewrites cost more than 10% anywhere (sub-quarter-millisecond medians
/// are timer noise at smoke scales and exempt from the regression bar).
fn opt_report(path: &str, opts: &Options) {
    println!(
        "\n=== Logical optimizer: optimized vs. unoptimized plans ({} departments, median of {}) ===",
        opts.max_departments, opts.runs
    );
    let rows = bench::compare_opt(opts.max_departments, opts.runs);
    println!(
        "{:<6} {:<7} {:>7} {:>9} {:>15} {:>13} {:>9} {:>6} {:>8}",
        "query",
        "kind",
        "stages",
        "rewrites",
        "unoptimized ms",
        "optimized ms",
        "speedup",
        "agree",
        "oracle"
    );
    for row in &rows {
        println!(
            "{:<6} {:<7} {:>7} {:>9} {:>15.4} {:>13.4} {:>8.2}x {:>6} {:>8}",
            row.query,
            row.kind,
            row.stages,
            row.rewrites,
            row.unoptimized_ms,
            row.optimized_ms,
            row.speedup(),
            if row.agree { "yes" } else { "NO" },
            if row.matches_oracle { "yes" } else { "NO" },
        );
    }
    let json = bench::opt_report_json(opts.max_departments, opts.runs, &rows);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {}: {}", path, e);
        std::process::exit(1);
    }
    println!("wrote {}", path);

    let mut failed = false;
    for row in &rows {
        if !row.matches_oracle {
            eprintln!(
                "FAIL: the optimized plan for {} diverges from the interpreter oracle",
                row.query
            );
            failed = true;
        }
        if !row.agree {
            eprintln!(
                "FAIL: optimized and unoptimized plans for {} return different bags",
                row.query
            );
            failed = true;
        }
    }
    // The payoff gate watches the doubly-correlated queries, where
    // decorrelation turns O(n·m) nested-loop EXISTS probing into a hash
    // build + probe; the asymptotic gap needs real data to dominate.
    if opts.max_departments >= 256 {
        for name in ["Q2", "QF6"] {
            let Some(row) = rows.iter().find(|r| r.query == name) else {
                eprintln!("FAIL: heavy query {} missing from the sweep", name);
                failed = true;
                continue;
            };
            if row.speedup() < 5.0 {
                eprintln!(
                    "FAIL: decorrelating {} wins only {:.2}x at {} departments \
                     (expected >= 5x)",
                    name,
                    row.speedup(),
                    opts.max_departments
                );
                failed = true;
            }
        }
    }
    // The no-regression bar: rewrites must never lose more than 10%
    // anywhere. Medians under a quarter millisecond are timer noise.
    for row in &rows {
        if row.unoptimized_ms >= 0.25 && row.optimized_ms > row.unoptimized_ms * 1.1 {
            eprintln!(
                "FAIL: the optimizer regresses {} from {:.4} ms to {:.4} ms (> 1.1x)",
                row.query, row.unoptimized_ms, row.optimized_ms
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "logical optimizer verified: rewritten plans match the unoptimized plans and \
         the oracle on every query"
    );
}

fn main() {
    let opts = parse_args();
    let scales = department_scales(opts.max_departments);

    if opts.figure10 || opts.figure11 {
        println!(
            "generating organisation databases at department counts {:?} (seeded)…",
            scales
        );
    }
    let instances: Vec<Instance> = if opts.figure10 || opts.figure11 {
        scales.iter().map(|d| Instance::at_scale(*d)).collect()
    } else {
        Vec::new()
    };

    if opts.figure10 {
        run_figure(
            "Figure 10: flat queries (total time in ms)",
            datagen::queries::flat_queries(),
            &[System::Shredding, System::LoopLifting, System::Default],
            &opts,
            &instances,
        );
    }
    if opts.figure11 {
        run_figure(
            "Figure 11: nested queries (total time in ms)",
            datagen::queries::nested_queries(),
            &[System::Shredding, System::LoopLifting],
            &opts,
            &instances,
        );
        println!("\nNesting degree (number of flat queries emitted by shredding):");
        // A schema-only session: plans and explains without any data.
        let planner = shredding::session::Shredder::builder()
            .schema(datagen::organisation_schema())
            .build()
            .expect("a schema-only session is valid");
        for (name, q) in datagen::queries::nested_queries() {
            if let Ok(prepared) = planner.prepare(&q) {
                println!("  {}: {} queries", name, prepared.query_count());
            }
        }
    }
    if opts.appendix_a {
        appendix_a();
    }
    if let Some(path) = &opts.vexec_json {
        vexec_report(path, &opts);
    }
    if let Some(path) = &opts.params_json {
        params_report(path, &opts);
    }
    if let Some(path) = &opts.concurrency_json {
        concurrency_report(path, &opts);
    }
    if let Some(path) = &opts.stitch_json {
        stitch_report(path, &opts);
    }
    if let Some(path) = &opts.analyze_json {
        analyze_report(path);
    }
    if let Some(path) = &opts.profile_json {
        profile_report(path, &opts);
    }
    if let Some(path) = &opts.delta_json {
        delta_report(path, &opts);
    }
    if let Some(path) = &opts.morsel_json {
        morsel_report(path, &opts);
    }
    if let Some(path) = &opts.opt_json {
        opt_report(path, &opts);
    }
}
