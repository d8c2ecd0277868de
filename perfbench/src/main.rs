//! perfbench — the repository's benchmark (see `BENCHMARK.json` and
//! `perfbench/NOTES.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-small|warm-large|live-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up nine times (reporting the median set-up
//! time), measures it for `--seconds`, checks every answer and prints two
//! JSON lines: a report with the host facts and the details, then the
//! result: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured through the
//! public `Shredder` API, with every time scaled to a reference host speed
//! by the probe in `host.rs`; with `--trace 1` they are the per-layer ones of
//! a separate traced run, whose spans are written to
//! `perfbench/out/trace-<workload>.jsonl`. The exit code is 0 only when
//! every operation succeeded and every answer was right.

#![forbid(unsafe_code)]

mod host;
mod measure;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use datagen::{generate, MutationStream, OrgConfig};
use obs::Json;

use measure::{
    check_views, churn, churn_batches, reads_and_writes, Checks, ReadStats, WriteStats, MIN_SAMPLES,
};
use stats::{geomean, mean, median, Latency};
use trace::{Recomposer, Trace};
use workload::{available_parallelism, exec_options, set_up, Instance, SetupTimes, Workload};

const USAGE: &str = "usage: perfbench --workload <cold-small|warm-large|live-churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Host-speed probes after each set-up, whose median scales its time.
const SETUP_PROBES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("seconds in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(run) => {
            let ok = run.failed == 0;
            println!("{}", run.report.render());
            println!(
                "{}",
                Json::Obj(vec![
                    ("correct".into(), Json::Bool(run.wrong == 0)),
                    ("attempted".into(), Json::from_u64(run.attempted)),
                    ("failed".into(), Json::from_u64(run.failed)),
                    (
                        "metrics".into(),
                        Json::Obj(
                            run.metrics
                                .into_iter()
                                .map(|(name, value, unit)| {
                                    (
                                        name,
                                        Json::Obj(vec![
                                            ("value".into(), Json::from_f64(value)),
                                            ("unit".into(), Json::Str(unit.into())),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ])
                .render()
            );
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one run measured and checked.
struct Run {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    /// Failed operations, wrong answers and failed checks.
    failed: u64,
    /// Wrong answers and failed checks alone.
    wrong: u64,
    report: Json,
}

impl Run {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn reads(&mut self, reads: &ReadStats) {
        self.attempted += reads.attempted;
        self.failed += reads.failed + reads.wrong;
        self.wrong += reads.wrong;
    }

    fn writes(&mut self, writes: &WriteStats) {
        self.attempted += writes.attempted;
        self.failed += writes.failed;
    }

    fn checks(&mut self, checks: &Checks) {
        self.attempted += checks.attempted;
        self.failed += checks.failed;
        self.wrong += checks.failed;
    }

    fn note(&mut self, key: &str, value: Json) {
        if let Json::Obj(fields) = &mut self.report {
            fields.push((key.into(), value));
        }
    }
}

fn run(args: &Args, started: Instant) -> Result<Run, String> {
    let opts = exec_options(args.workload);
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut built = None;
    for i in 0..SETUPS {
        drop(built.take());
        let from = if i == 0 { started } else { Instant::now() };
        let (inst, stream, mut times) = set_up(args.workload, args.seed, opts, from)
            .map_err(|e| format!("set-up failed: {e}"))?;
        times.scale(&setup_probe());
        setups.push(times);
        built = Some((inst, stream));
    }
    let (inst, mut stream) = built.expect("SETUPS > 0");

    let mut run = Run {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        wrong: 0,
        report: Json::Obj(vec![
            ("workload".into(), Json::Str(args.workload.name().into())),
            ("seed".into(), Json::from_u64(args.seed)),
            ("seconds".into(), Json::from_f64(args.seconds)),
            ("trace".into(), Json::Bool(args.trace)),
            ("host".into(), host_facts(opts)),
            ("rows".into(), data_rows(&inst)),
            (
                "setup_s".into(),
                Json::Arr(setups.iter().map(|s| Json::from_f64(s.total_s)).collect()),
            ),
            (
                "setup_probe_ms".into(),
                Json::Arr(setups.iter().map(|s| Json::from_f64(s.probe_ms)).collect()),
            ),
        ]),
    };
    let mut checks = Checks::default();
    check_views(&inst.session, &inst.queries, &inst.views, &mut checks);
    if args.trace {
        traced(args, &inst, &mut stream, &setups, &mut run)?;
    } else {
        untraced(args, (inst, stream), &setups, &mut run)?;
    }
    for seed in args.workload.data_seeds(args.seed) {
        oracle_check(args.workload, seed, opts, &mut checks)?;
    }
    run.checks(&checks);
    run.note(
        "failed_frac",
        Json::Obj(vec![
            (
                "value".into(),
                Json::from_f64(run.failed as f64 / run.attempted.max(1) as f64),
            ),
            ("unit".into(), Json::Str("ratio".into())),
        ]),
    );
    Ok(run)
}

/// The end-to-end run: the workload's clients through the public API.
/// Live-churn measures each of its organisations in turn, `first` (the
/// set-up one) and then the others, set up untimed, and pools the samples.
fn untraced(
    args: &Args,
    first: (Instance, MutationStream),
    setups: &[SetupTimes],
    run: &mut Run,
) -> Result<(), String> {
    let (inst, mut stream) = first;
    let names: Vec<&'static str> = inst.queries.iter().map(|q| q.name).collect();
    if args.workload != Workload::LiveChurn {
        let (reads, writes) = reads_and_writes(
            &inst,
            &mut stream,
            args.seconds,
            |q| inst.read(&inst.queries[q]),
            |session, _, batch| session.apply_batch(batch).map(drop),
        );
        report_untraced(&names, reads, writes, Checks::default(), setups, run);
        return Ok(());
    }
    let seeds = args.workload.data_seeds(args.seed);
    let per_dataset = churn_batches(args.seconds)
        .max(MIN_SAMPLES)
        .div_ceil(seeds.len());
    let (mut reads, mut writes, mut checks) = Default::default();
    let (mut rows, mut write_p50s) = (Vec::new(), Vec::new());
    let mut first = Some((inst, stream));
    for &seed in &seeds {
        let (inst, mut stream) = match first.take() {
            Some(first) => first,
            None => {
                let (inst, stream, _) = set_up(
                    args.workload,
                    seed,
                    exec_options(args.workload),
                    Instant::now(),
                )
                .map_err(|e| format!("set-up of organisation {seed} failed: {e}"))?;
                check_views(&inst.session, &inst.queries, &inst.views, &mut checks);
                (inst, stream)
            }
        };
        let (r, w, c) = churn(
            &inst,
            &mut stream,
            per_dataset,
            |session, _, q| session.execute(&q.prepared),
            |session, _, batch| session.apply_batch(batch).map(drop),
        );
        write_p50s.push(Json::from_f64(median(&w.scaled_ms)));
        ReadStats::absorb(&mut reads, r);
        WriteStats::absorb(&mut writes, w);
        checks.absorb(c);
        rows.push(data_rows(&inst));
    }
    run.note("rows_per_organisation", Json::Arr(rows));
    run.note("write_p50_ms_per_organisation", Json::Arr(write_p50s));
    report_untraced(&names, reads, writes, checks, setups, run);
    Ok(())
}

fn report_untraced(
    names: &[&str],
    reads: ReadStats,
    writes: WriteStats,
    checks: Checks,
    setups: &[SetupTimes],
    run: &mut Run,
) {
    run.reads(&reads);
    run.writes(&writes);
    run.checks(&checks);

    // Peak memory first, before the summaries below allocate.
    let peak_mb = peak_rss_mb();
    let per_query: Vec<f64> = reads.scaled_ms.iter().map(|l| median(l)).collect();
    let read = Latency::of(&reads.scaled_ms.concat());
    let write = Latency::of(&writes.scaled_ms);
    run.metric(
        "setup_s",
        median(&setups.iter().map(|s| s.scaled_s).collect::<Vec<_>>()),
        "s",
    );
    run.metric("queries_per_s", reads.per_s(), "1/s");
    run.metric("query_p50_ms", geomean(&per_query), "ms");
    run.metric("query_p95_ms", read.p95, "ms");
    run.metric("write_p50_ms", write.p50, "ms");
    run.metric("write_p95_ms", write.p95, "ms");
    run.metric("peak_rss_mb", peak_mb, "MB");

    // The same metrics as measured, before scaling to the reference host
    // speed, with the probes that scaled them.
    let raw_per_query: Vec<f64> = reads.latencies_ms.iter().map(|l| median(l)).collect();
    let raw_read = Latency::of(&reads.latencies_ms.concat());
    let raw_write = Latency::of(&writes.latencies_ms);
    run.note(
        "as_measured",
        Json::Obj(vec![
            (
                "setup_s".into(),
                Json::from_f64(median(
                    &setups.iter().map(|s| s.total_s).collect::<Vec<_>>(),
                )),
            ),
            ("queries_per_s".into(), Json::from_f64(reads.raw_per_s())),
            (
                "query_p50_ms".into(),
                Json::from_f64(geomean(&raw_per_query)),
            ),
            ("query_p95_ms".into(), Json::from_f64(raw_read.p95)),
            ("write_p50_ms".into(), Json::from_f64(raw_write.p50)),
            ("write_p95_ms".into(), Json::from_f64(raw_write.p95)),
        ]),
    );
    run.note(
        "probe_ms",
        Json::Obj(vec![
            ("reference".into(), Json::from_f64(host::REFERENCE_MS)),
            ("reads_p50".into(), Json::from_f64(median(&reads.probe_ms))),
            (
                "setup_p50".into(),
                Json::from_f64(median(
                    &setups.iter().map(|s| s.probe_ms).collect::<Vec<_>>(),
                )),
            ),
        ]),
    );

    run.note(
        "per_query_p50_ms",
        Json::Obj(
            names
                .iter()
                .zip(&per_query)
                .map(|(name, &ms)| (name.to_string(), Json::from_f64(ms)))
                .collect(),
        ),
    );
    run.note("reads", latency_json(&read));
    run.note("writes", latency_json(&write));
    run.note(
        "writer_lateness_p95_ms",
        Json::from_f64(Latency::of(&writes.lateness_ms).p95),
    );
}

/// The traced run: the same workload (live-churn over its first
/// organisation only), first through the public API for half of
/// `--seconds`, then recomposed from layer calls with one span per call
/// for the other half. Before both, profiled passes over every query give
/// the per-operator split.
fn traced(
    args: &Args,
    inst: &Instance,
    stream: &mut MutationStream,
    setups: &[SetupTimes],
    run: &mut Run,
) -> Result<(), String> {
    let opts = exec_options(args.workload);
    let recomposer = Recomposer::new(args.workload, &inst.session, &inst.queries, opts)
        .map_err(|e| format!("compiling the traced queries failed: {e}"))?;
    let epoch = Instant::now();
    let mut reads_trace = Trace::new(epoch, 0);
    let mut writes_trace = Trace::new(epoch, 1 << 40);

    // Parity: the recomposed read returns exactly what the session returns.
    let mut parity = Checks::default();
    for (q, query) in inst.queries.iter().enumerate() {
        parity.attempted += 1;
        let mine = recomposer.read(&mut Trace::new(epoch, 0), q, query);
        let theirs = inst.read(query);
        match (mine, theirs) {
            (Ok(a), Ok(b)) if a == b => {}
            (a, b) => {
                eprintln!(
                    "parity: recomposed {} gave {:?}, session gave {:?}",
                    query.name,
                    a.map(|v| v.scalar_count()),
                    b.map(|v| v.scalar_count())
                );
                parity.failed += 1;
            }
        }
    }
    run.checks(&parity);
    run.note(
        "parity_equal",
        Json::from_u64(parity.attempted - parity.failed),
    );

    // Operators: profiled passes over every query until a second is spent,
    // over the data as set up (before any write).
    let mut operators = BTreeMap::new();
    let mut rounds = 0usize;
    let until = deadline(1.0);
    while rounds == 0 || (Instant::now() < until && rounds < 50) {
        for (q, query) in inst.queries.iter().enumerate() {
            recomposer
                .profile_operators(q, query, &mut operators)
                .map_err(|e| format!("profiling {} failed: {e}", query.name))?;
        }
        rounds += 1;
    }

    let half = args.seconds / 2.0;
    let cache_before = inst.session.cache_stats();
    let stages: usize = if inst.views.is_empty() {
        0
    } else {
        inst.queries.iter().map(|q| q.prepared.query_count()).sum()
    };
    let (plain, traced_reads, writes, checks) = if args.workload == Workload::LiveChurn {
        let (plain, plain_writes, plain_checks) = churn(
            inst,
            stream,
            churn_batches(half),
            |session, _, q| session.execute(&q.prepared),
            |session, _, batch| session.apply_batch(batch).map(drop),
        );
        run.writes(&plain_writes);
        run.checks(&plain_checks);
        let reads_trace = &mut reads_trace;
        let writes_trace = &mut writes_trace;
        let (traced_reads, writes, checks) = churn(
            inst,
            stream,
            churn_batches(half),
            |_, q, query| recomposer.read(reads_trace, q, query),
            |session, views, batch| {
                trace::traced_apply(writes_trace, session, views, stages, batch)
            },
        );
        (plain, traced_reads, writes, checks)
    } else {
        let (plain, plain_writes) = reads_and_writes(
            inst,
            stream,
            half,
            |q| inst.read(&inst.queries[q]),
            |session, _, batch| session.apply_batch(batch).map(drop),
        );
        run.writes(&plain_writes);
        let (traced_reads, writes) = reads_and_writes(
            inst,
            stream,
            half,
            |q| recomposer.read(&mut reads_trace, q, &inst.queries[q]),
            |session, views, batch| {
                trace::traced_apply(&mut writes_trace, session, views, 0, batch)
            },
        );
        (plain, traced_reads, writes, Checks::default())
    };
    let cache_after = inst.session.cache_stats();
    run.reads(&plain);
    run.reads(&traced_reads);
    run.writes(&writes);
    run.checks(&checks);

    let own_reads = reads_trace.self_ns();
    let own_writes = writes_trace.self_ns();
    let n = inst.queries.len();
    let reads_n = reads_trace.reads.len().max(1) as f64;
    let writes_n = writes_trace.writes.max(1) as f64;
    let read_count = |name: &str| reads_trace.counts.get(name).copied().unwrap_or(0.0);
    let write_count = |name: &str| writes_trace.counts.get(name).copied().unwrap_or(0.0);

    let read_layers = trace::layer_us(&reads_trace, &own_reads, &trace::READ_LAYERS, reads_n);
    let write_layers = trace::layer_us(&writes_trace, &own_writes, &trace::WRITE_LAYERS, writes_n);
    for (layer, us) in read_layers.into_iter().chain(write_layers) {
        run.metric(format!("{layer}_us"), us, "us");
    }
    let mut plan_counts: BTreeMap<&str, f64> = BTreeMap::new();
    let mut per_query_plan = Vec::new();
    for (query, compiled) in inst.queries.iter().zip(&recomposer.compiled) {
        let counts = trace::plan_counts(query, compiled);
        for (name, value) in counts {
            *plan_counts.entry(name).or_insert(0.0) += value / n as f64;
        }
        let row = counts
            .iter()
            .map(|&(k, v)| (k.to_string(), Json::from_f64(v)));
        per_query_plan.push((query.name.to_string(), Json::Obj(row.collect())));
    }
    for (name, value) in plan_counts {
        run.metric(name, value, "count");
    }
    run.note("per_query_plan", Json::Obj(per_query_plan));
    for name in [
        "sqlengine.exec.rows_out",
        "sqlengine.exec.morsels",
        "core.decode.rows",
        "core.stitch.scalars",
    ] {
        run.metric(name, read_count(name) / reads_n, "count");
    }
    run.metric(
        "sqlengine.exec.parallel_frac",
        read_count("sqlengine.exec.parallel_ns") / read_count("sqlengine.exec.all_ns").max(1.0),
        "ratio",
    );

    for kind in trace::OPERATOR_KINDS {
        let (ns, rows) = operators.get(kind).copied().unwrap_or((0.0, 0.0));
        let per_read = (rounds * n) as f64;
        run.metric(format!("sqlengine.op.{kind}_us"), ns / per_read / 1e3, "us");
        run.metric(
            format!("sqlengine.op.{kind}.rows_out"),
            rows / per_read,
            "count",
        );
    }

    // Session time outside every traced layer: a query's mean latency
    // through the API minus its mean time inside the recomposed layers.
    let by_query = trace::layer_us_by_query(&reads_trace, &own_reads, n);
    let outside: Vec<f64> = plain
        .latencies_ms
        .iter()
        .zip(&by_query)
        .map(|(api, layers)| mean(api) * 1e3 - layers.iter().sum::<f64>())
        .collect();
    run.metric("core.session.unattributed_us", mean(&outside), "us");
    let mut reads_of = vec![0usize; n];
    for &(_, q) in &reads_trace.reads {
        reads_of[q] += 1;
    }
    let mut per_query = Vec::new();
    for (q, query) in inst.queries.iter().enumerate() {
        let mut row: Vec<(String, Json)> = trace::READ_LAYERS
            .iter()
            .zip(&by_query[q])
            .filter(|(_, &us)| us > 0.0)
            .map(|(layer, &us)| (format!("{layer}_us"), Json::from_f64(us)))
            .collect();
        row.push(("unattributed_us".into(), Json::from_f64(outside[q])));
        if let Some(counts) = reads_trace.query_counts.get(q) {
            let per_read = reads_of[q].max(1) as f64;
            row.extend(
                counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::from_f64(v / per_read))),
            );
        }
        per_query.push((query.name.to_string(), Json::Obj(row)));
    }
    run.note("per_query", Json::Obj(per_query));
    if !writes_trace.maintain_ns.is_empty() {
        run.note(
            "maintain_ms_per_batch",
            Json::Obj(
                inst.queries
                    .iter()
                    .zip(&writes_trace.maintain_ns)
                    .map(|(q, &ns)| {
                        (
                            q.name.to_string(),
                            Json::from_f64(ns as f64 / writes_n / 1e6),
                        )
                    })
                    .collect(),
            ),
        );
    }
    let hits = cache_after.hits - cache_before.hits;
    let lookups = hits + cache_after.misses - cache_before.misses;
    run.metric(
        "core.session.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    run.metric(
        "sqlengine.storage.delta_rows",
        write_count("sqlengine.storage.delta_rows") / writes_n,
        "count",
    );
    run.metric(
        "core.delta.reseed_frac",
        write_count("core.delta.reseeds") / write_count("core.delta.stage_maintenances").max(1.0),
        "ratio",
    );
    run.metric(
        "datagen.generate_s",
        median(&setups.iter().map(|s| s.generate_s).collect::<Vec<_>>()),
        "s",
    );
    run.metric(
        "sqlengine.storage.load_s",
        median(&setups.iter().map(|s| s.load_s).collect::<Vec<_>>()),
        "s",
    );
    run.metric("trace.queries_per_s", traced_reads.per_s(), "1/s");
    run.metric(
        "trace.overhead_ratio",
        plain.per_s() / traced_reads.per_s().max(f64::MIN_POSITIVE),
        "ratio",
    );
    run.note("untraced_queries_per_s", Json::from_f64(plain.per_s()));
    run.note("profiled_rounds", Json::from_u64(rounds as u64));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", args.workload.name()));
    let header = match &run.report {
        Json::Obj(fields) => Json::Obj(fields.iter().take(6).cloned().collect()),
        other => other.clone(),
    };
    let written = trace::write_spans(&path, &header, &[&reads_trace, &writes_trace])
        .map_err(|e| format!("writing {} failed: {e}", path.display()))?;
    run.note(
        "spans",
        Json::from_u64((reads_trace.spans.len() + writes_trace.spans.len()) as u64),
    );
    run.note("spans_written", Json::from_u64(written as u64));
    Ok(())
}

/// Every query of the workload, run the same way over `OrgConfig::small()`
/// with the organisation's seed, must equal the nested reference semantics
/// N⟦−⟧ (too slow to run at the workloads' full scale).
fn oracle_check(
    workload: Workload,
    seed: u64,
    opts: sqlengine::ExecOptions,
    checks: &mut Checks,
) -> Result<(), String> {
    let db = generate(&OrgConfig {
        seed,
        ..OrgConfig::small()
    });
    let session = workload
        .session(db, opts)
        .map_err(|e| format!("the oracle session failed to build: {e}"))?;
    for (name, term) in workload.queries() {
        checks.attempted += 1;
        let ours = session.prepare(&term).and_then(|p| session.execute(&p));
        match (ours, session.oracle(&term)) {
            (Ok(ours), Ok(truth)) if ours.multiset_eq(&truth) => {}
            (Ok(_), Ok(_)) => {
                eprintln!("{name} differs from the nested reference semantics");
                checks.failed += 1;
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("the oracle check of {name} failed: {e}");
                checks.failed += 1;
            }
        }
    }
    Ok(())
}

/// Host-speed probes right after a set-up, outside its timing.
fn setup_probe() -> host::Probe {
    let mut probe = host::Probe::new();
    for _ in 1..SETUP_PROBES {
        probe.sample();
    }
    probe
}

fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// The workload's stated data size: rows per table as generated.
fn data_rows(inst: &Instance) -> Json {
    let Some(db) = inst.session.database() else {
        return Json::Null;
    };
    Json::Obj(
        db.schema
            .tables()
            .map(|t| (t.name.clone(), Json::from_u64(db.row_count(&t.name) as u64)))
            .collect(),
    )
}

fn latency_json(l: &Latency) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::from_u64(l.count as u64)),
        ("p50_ms".into(), Json::from_f64(l.p50)),
        ("p95_ms".into(), Json::from_f64(l.p95)),
        ("above_p95".into(), Json::from_u64(l.above_p95 as u64)),
    ])
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    proc_kb("/proc/self/status", "VmHWM:").unwrap_or(0.0) / 1024.0
}

fn proc_kb(file: &str, key: &str) -> Option<f64> {
    std::fs::read_to_string(file)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

fn host_facts(opts: sqlengine::ExecOptions) -> Json {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    Json::Obj(vec![
        ("nproc".into(), Json::from_u64(nproc as u64)),
        (
            "mem_total_mb".into(),
            Json::from_f64(proc_kb("/proc/meminfo", "MemTotal:").unwrap_or(0.0) / 1024.0),
        ),
        ("commit".into(), Json::Str(commit())),
        (
            "available_parallelism".into(),
            Json::from_u64(available_parallelism() as u64),
        ),
        ("workers".into(), Json::from_u64(opts.workers as u64)),
        (
            "morsel_rows".into(),
            Json::from_u64(opts.morsel_rows as u64),
        ),
        (
            "min_parallel_rows".into(),
            Json::from_u64(opts.min_parallel_rows as u64),
        ),
    ])
}

/// The checked-out commit, read from `.git` in the working directory, or
/// `"unknown"` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
