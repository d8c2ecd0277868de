//! The three workloads, their sessions and their timed set-up.

use std::time::Instant;

use datagen::{generate, MutationConfig, MutationStream, OrgConfig};
use nrc::term::Term;
use nrc::value::Value;
use shredding::error::ShredError;
use shredding::session::{PreparedQuery, Shredder};
use shredding::Subscription;

use crate::host::Probe;
use sqlengine::ExecOptions;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// QF1–QF6 and Q1–Q6 over `OrgConfig::small()`, each read a fresh
    /// prepare (plan cache off) plus execute: compilation dominates.
    ColdSmall,
    /// The same twelve queries over 256 departments; each read's prepare is
    /// a plan-cache hit, so execution, decode and stitch dominate.
    WarmLarge,
    /// Q1–Q6 as live views over 16 departments, a fixed-rate writer beside
    /// a closed-loop reader of the prepared queries.
    LiveChurn,
}

/// Live-churn spreads a run over this many generated organisations. Its
/// write cost grows faster than the data (Q5 pairs each task with every
/// employee able to do it), so one organisation's size would decide a
/// whole run; averaging over 24 keeps runs with different seeds close.
const LIVE_DATASETS: u64 = 24;

/// Write batches per second of the live-churn writer: about a quarter of
/// what live-view maintenance of Q1–Q6 sustains at 16 × 100.
pub const CHURN_BATCHES_PER_S: f64 = 10.0;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdSmall,
        Workload::WarmLarge,
        Workload::LiveChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSmall => "cold-small",
            Workload::WarmLarge => "warm-large",
            Workload::LiveChurn => "live-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seeds of the organisations a run measures, the run's own first.
    pub fn data_seeds(self, seed: u64) -> Vec<u64> {
        let datasets = if self == Workload::LiveChurn {
            LIVE_DATASETS
        } else {
            1
        };
        (0..datasets).map(|k| seed.wrapping_add(k << 32)).collect()
    }

    /// The generated organisation, seeded by the run's seed.
    pub fn data(self, seed: u64) -> OrgConfig {
        let base = match self {
            Workload::ColdSmall => OrgConfig::small(),
            Workload::WarmLarge => OrgConfig::paper(256),
            Workload::LiveChurn => OrgConfig::paper(16),
        };
        OrgConfig { seed, ..base }
    }

    pub fn queries(self) -> Vec<(&'static str, Term)> {
        let mut queries = Vec::new();
        if self != Workload::LiveChurn {
            queries.extend(datagen::queries::flat_queries());
        }
        queries.extend(datagen::queries::nested_queries());
        queries
    }

    /// Does a read prepare its query (through the session's plan cache or,
    /// on cold-small, with the cache off) before executing it? Live-churn
    /// reads execute handles prepared at set-up.
    pub fn prepares_per_read(self) -> bool {
        self != Workload::LiveChurn
    }

    /// The session every run of this workload uses: library defaults
    /// (optimizer on) with the workload's [`exec_options`], spelled out so
    /// the traced run's recomposed execution can use the very same options.
    pub fn session(
        self,
        db: nrc::schema::Database,
        opts: ExecOptions,
    ) -> Result<Shredder, ShredError> {
        let builder = Shredder::builder()
            .database(db)
            .workers(opts.workers)
            .morsel_rows(opts.morsel_rows)
            .min_parallel_rows(opts.min_parallel_rows);
        let builder = if self == Workload::ColdSmall {
            builder.without_plan_cache()
        } else {
            builder
        };
        builder.build()
    }
}

/// The host's `available_parallelism`, the library's default worker count.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The workload's execution options: the library defaults, except that
/// cold-small and live-churn run one worker. Their data stays below the
/// `min_parallel_rows` gate, so more workers would add nothing but a
/// scoped thread per multi-stage read; on a shared host of few cores that
/// thread's wake-up measures the scheduler, not the program. One worker
/// also keeps live-churn at two threads, its reader and its writer.
/// Warm-large, the workload for parallel execution, keeps the default.
pub fn exec_options(workload: Workload) -> ExecOptions {
    let workers = match workload {
        Workload::WarmLarge => available_parallelism(),
        Workload::ColdSmall | Workload::LiveChurn => 1,
    };
    ExecOptions {
        workers,
        morsel_rows: sqlengine::DEFAULT_MORSEL_ROWS,
        min_parallel_rows: sqlengine::DEFAULT_MIN_PARALLEL_ROWS,
    }
}

/// One benchmark query with its set-up handle and reference answer.
pub struct Query {
    pub name: &'static str,
    pub term: Term,
    pub prepared: PreparedQuery,
    /// The query's first, untimed answer in canonical form; every timed
    /// answer of a read-only phase must be multiset-equal to it.
    pub reference: Value,
}

/// Everything a measured phase runs against.
pub struct Instance {
    pub workload: Workload,
    pub session: Shredder,
    pub queries: Vec<Query>,
    /// Live views of `queries`, in order (live-churn only).
    pub views: Vec<Subscription>,
    /// Where write batches go: the reading session itself on live-churn,
    /// elsewhere a second session over its own copy of the data, so the
    /// reads' answers stay fixed.
    pub writer: Shredder,
}

impl Instance {
    /// One read request, exactly as the workload's client issues it.
    pub fn read(&self, query: &Query) -> Result<Value, ShredError> {
        if self.workload.prepares_per_read() {
            let prepared = self.session.prepare(&query.term)?;
            self.session.execute(&prepared)
        } else {
            self.session.execute(&query.prepared)
        }
    }
}

/// Timings of one set-up, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
    pub load_s: f64,
    /// `total_s` at the reference host speed, and the probe's median time
    /// that scaled it (see `host`).
    pub scaled_s: f64,
    pub probe_ms: f64,
}

impl SetupTimes {
    /// Scale the set-up's time by probes made right after it.
    pub fn scale(&mut self, probe: &Probe) {
        self.probe_ms = probe.median_ms();
        self.scaled_s = self.total_s * probe.scale();
    }
}

/// Build an instance and the seeded write stream over its data: generate
/// the data, load the engine, prepare every query, subscribe live views and
/// warm up with one read per query. The clock runs from `started` to the
/// end of the warm-up; canonicalising the reference answers and loading
/// the separate write session happen after it stops.
pub fn set_up(
    workload: Workload,
    seed: u64,
    opts: ExecOptions,
    started: Instant,
) -> Result<(Instance, MutationStream, SetupTimes), ShredError> {
    let t = Instant::now();
    let db = generate(&workload.data(seed));
    let generate_s = t.elapsed().as_secs_f64();
    let stream = MutationStream::over(
        &db,
        MutationConfig {
            seed,
            ..MutationConfig::default()
        },
    );
    let spare = (workload != Workload::LiveChurn).then(|| db.clone());
    let session = workload.session(db, opts)?;
    let t = Instant::now();
    session.engine()?;
    let load_s = t.elapsed().as_secs_f64();

    let mut prepared = Vec::new();
    for (name, term) in workload.queries() {
        let handle = session.prepare(&term)?;
        prepared.push((name, term, handle));
    }
    let mut views = Vec::new();
    if workload == Workload::LiveChurn {
        for (_, _, handle) in &prepared {
            let view = session.subscribe(handle)?;
            view.value()?;
            views.push(view);
        }
    }
    let writer = session.clone();
    let mut instance = Instance {
        workload,
        session,
        queries: Vec::new(),
        views,
        writer,
    };
    let mut first = Vec::new();
    for (name, term, handle) in prepared {
        let query = Query {
            name,
            term,
            prepared: handle,
            reference: Value::Unit,
        };
        first.push(instance.read(&query)?);
        instance.queries.push(query);
    }
    let total_s = started.elapsed().as_secs_f64();
    let times = SetupTimes {
        total_s,
        generate_s,
        load_s,
        scaled_s: total_s,
        probe_ms: 0.0,
    };
    for (query, answer) in instance.queries.iter_mut().zip(first) {
        query.reference = answer.canonical();
    }
    if let Some(db) = spare {
        instance.writer = workload.session(db, opts)?;
        instance.writer.engine()?;
    }
    Ok((instance, stream, times))
}
