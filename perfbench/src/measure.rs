//! The measured phases: closed-loop reads with interleaved writes, and the
//! live-churn writer/reader pair. Each phase takes the requests it issues
//! as closures, so the untraced and the traced run share one loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use datagen::MutationStream;
use nrc::value::Value;
use shredding::error::ShredError;
use shredding::session::Shredder;
use shredding::{Subscription, WriteBatch};

use crate::host::{Probe, SharedProbe};
use crate::workload::{Instance, Query, CHURN_BATCHES_PER_S};

/// Write batches the live-churn writer sends in `seconds`.
pub fn churn_batches(seconds: f64) -> usize {
    (seconds * CHURN_BATCHES_PER_S).round() as usize
}

/// At least this many samples per latency distribution, so at least ten
/// lie above its 95th percentile.
pub const MIN_SAMPLES: usize = 200;

/// Samples reserved per query, so a run's sample vectors grow without
/// reallocating and the process's peak memory does not depend on how many
/// reads a run completed beyond the pages they fill.
const RESERVED_SAMPLES: usize = 1 << 17;

/// Live-churn compares every live view with a fresh execution after this
/// many write batches (and after the last one).
const CHECKPOINT_EVERY: usize = 50;

#[derive(Debug, Default)]
pub struct ReadStats {
    /// Latency of each completed read, in ms, per query index.
    pub latencies_ms: Vec<Vec<f64>>,
    /// The same latencies at the reference host speed (see `host`).
    pub scaled_ms: Vec<Vec<f64>>,
    /// Wall time spent inside reads, in seconds: the closed loop's busy
    /// time, excluding answer checks and checkpoint pauses.
    pub busy_s: f64,
    /// The busy time at the reference host speed.
    pub scaled_busy_s: f64,
    /// The reading thread's host-speed probe times, in ms.
    pub probe_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl ReadStats {
    /// Fold in another phase's reads of the same queries.
    pub fn absorb(&mut self, other: ReadStats) {
        self.latencies_ms
            .resize_with(other.latencies_ms.len(), Vec::new);
        self.scaled_ms.resize_with(other.scaled_ms.len(), Vec::new);
        for (mine, theirs) in self.latencies_ms.iter_mut().zip(other.latencies_ms) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.scaled_ms.iter_mut().zip(other.scaled_ms) {
            mine.extend(theirs);
        }
        self.busy_s += other.busy_s;
        self.scaled_busy_s += other.scaled_busy_s;
        self.probe_ms.extend(other.probe_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    pub fn completed(&self) -> usize {
        self.latencies_ms.iter().map(Vec::len).sum()
    }

    /// Reads per second of busy time at the reference host speed.
    pub fn per_s(&self) -> f64 {
        self.completed() as f64 / self.scaled_busy_s.max(f64::MIN_POSITIVE)
    }

    /// Reads per second of busy time as measured.
    pub fn raw_per_s(&self) -> f64 {
        self.completed() as f64 / self.busy_s.max(f64::MIN_POSITIVE)
    }
}

#[derive(Debug, Default)]
pub struct WriteStats {
    /// Time of each write batch from when it was due to be sent, in ms.
    pub latencies_ms: Vec<f64>,
    /// The same times at the reference host speed, by the probe of the
    /// reading thread (see `host`).
    pub scaled_ms: Vec<f64>,
    /// How late the writer sent each batch, in ms.
    pub lateness_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl WriteStats {
    /// Fold in another phase's writes.
    pub fn absorb(&mut self, other: WriteStats) {
        self.latencies_ms.extend(other.latencies_ms);
        self.scaled_ms.extend(other.scaled_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Round-robin reads over `queries` in one closed-loop client while
/// `keep_going` says so. `keep_going` runs before each read, outside its
/// timing, and may do side work there, timed against the loop's probe.
/// With `check`, every answer must equal the query's reference answer as a
/// multiset; checking happens outside the timed interval too. A read waits
/// at `gate` (held by live-churn checkpoints) before its clock starts.
/// The loop probes the host's speed between reads, at most every 50 ms;
/// with `shared`, only while no write is in flight, publishing its scale.
pub fn read_loop(
    queries: &[Query],
    check: bool,
    gate: Option<&RwLock<()>>,
    shared: Option<&SharedProbe>,
    mut keep_going: impl FnMut(&ReadStats, &Probe) -> bool,
    mut request: impl FnMut(usize) -> Result<Value, ShredError>,
) -> ReadStats {
    let reserved = || {
        (0..queries.len())
            .map(|_| Vec::with_capacity(RESERVED_SAMPLES))
            .collect()
    };
    let mut stats = ReadStats {
        latencies_ms: reserved(),
        scaled_ms: reserved(),
        ..ReadStats::default()
    };
    let mut probe = Probe::new();
    let mut i = 0usize;
    while keep_going(&stats, &probe) {
        match shared {
            None => probe.tick(),
            Some(shared) if !shared.writing() => {
                probe.tick();
                shared.publish(probe.scale());
            }
            Some(_) => {}
        }
        let q = i % queries.len();
        i += 1;
        let pause = gate.map(|g| g.read().expect("checkpoint gate poisoned"));
        stats.attempted += 1;
        let start = Instant::now();
        let answer = request(q);
        let elapsed = start.elapsed();
        drop(pause);
        let scale = probe.scale();
        stats.busy_s += elapsed.as_secs_f64();
        stats.scaled_busy_s += elapsed.as_secs_f64() * scale;
        match answer {
            Ok(value) => {
                let ms = elapsed.as_secs_f64() * 1e3;
                stats.latencies_ms[q].push(ms);
                stats.scaled_ms[q].push(ms * scale);
                if check && value.canonical() != queries[q].reference {
                    eprintln!(
                        "wrong answer: {} differs from its reference",
                        queries[q].name
                    );
                    stats.wrong += 1;
                }
            }
            Err(e) => {
                eprintln!("read of {} failed: {}", queries[q].name, e);
                stats.failed += 1;
            }
        }
    }
    stats.probe_ms = probe.into_ms();
    stats
}

/// The read-only workloads' phase: closed-loop reads for `seconds` (and
/// on until [`MIN_SAMPLES`] reads), with [`MIN_SAMPLES`] write batches of
/// the seeded stream interleaved at evenly spaced times. Writes go to the
/// instance's separate write session, so the reads' data never changes;
/// spreading them over the phase exposes them to the same host conditions
/// as the reads. A fixed count, so every run leaves the same data behind.
pub fn reads_and_writes(
    inst: &Instance,
    stream: &mut MutationStream,
    seconds: f64,
    request: impl FnMut(usize) -> Result<Value, ShredError>,
    mut apply: impl FnMut(&Shredder, &[Subscription], &WriteBatch) -> Result<(), ShredError>,
) -> (ReadStats, WriteStats) {
    let batches = stream.batches(MIN_SAMPLES);
    let spacing = Duration::from_secs_f64(seconds / batches.len() as f64);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let mut writes = WriteStats::default();
    let mut pending = batches.iter();
    let mut due = start;
    let reads = read_loop(
        &inst.queries,
        true,
        None,
        None,
        |reads, probe| {
            let now = Instant::now();
            while now >= due {
                let Some(batch) = pending.next() else { break };
                timed_write(&mut writes, Instant::now(), probe.scale(), || {
                    apply(&inst.writer, &inst.views, batch)
                });
                due += spacing;
            }
            now < until || reads.completed() < MIN_SAMPLES || pending.len() > 0
        },
        request,
    );
    (reads, writes)
}

/// Apply one write batch, timed from `due`; `scale` takes the time to the
/// reference host speed.
fn timed_write(
    stats: &mut WriteStats,
    due: Instant,
    scale: f64,
    apply: impl FnOnce() -> Result<(), ShredError>,
) {
    stats.attempted += 1;
    let start = Instant::now();
    let result = apply();
    let end = Instant::now();
    match result {
        Ok(()) => {
            let ms = (end - due).as_secs_f64() * 1e3;
            stats.latencies_ms.push(ms);
            stats.scaled_ms.push(ms * scale);
            stats.lateness_ms.push((start - due).as_secs_f64() * 1e3);
        }
        Err(e) => {
            eprintln!("write batch failed: {}", e);
            stats.failed += 1;
        }
    }
}

/// The live-churn pair: a writer sending `batches` batches, one every
/// `1 / CHURN_BATCHES_PER_S` seconds, each timed from when it was due, beside a
/// closed-loop reader of the prepared queries that runs until the writer
/// is done. Every [`CHECKPOINT_EVERY`] batches and at the end the writer
/// pauses the reader and compares each live view with a fresh execution;
/// the schedule restarts after each checkpoint, so checks delay no batch.
pub fn churn(
    inst: &Instance,
    stream: &mut MutationStream,
    batches: usize,
    read: impl FnMut(&Shredder, usize, &Query) -> Result<Value, ShredError> + Send,
    mut apply: impl FnMut(&Shredder, &[Subscription], &WriteBatch) -> Result<(), ShredError>,
) -> (ReadStats, WriteStats, Checks) {
    let total = batches.max(1);
    let period = Duration::from_secs_f64(1.0 / CHURN_BATCHES_PER_S);
    let gate = RwLock::new(());
    let done = AtomicBool::new(false);
    let shared = SharedProbe::new(Probe::new().scale());
    let (session, writer) = (&inst.session, &inst.writer);
    let (queries, views) = (&inst.queries[..], &inst.views[..]);
    std::thread::scope(|s| {
        let reader = s.spawn({
            let (gate, done, shared) = (&gate, &done, &shared);
            let mut read = read;
            move || {
                read_loop(
                    queries,
                    false,
                    Some(gate),
                    Some(shared),
                    |_, _| !done.load(Ordering::Acquire),
                    |q| read(session, q, &queries[q]),
                )
            }
        });
        let mut writes = WriteStats::default();
        let mut checks = Checks::default();
        let mut anchor = Instant::now();
        let mut slot = 0u32;
        for sent in 1..=total {
            let batch = stream.next_batch();
            let due = anchor + period * slot;
            slot += 1;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            shared.set_writing(true);
            timed_write(&mut writes, due, shared.scale(), || {
                apply(writer, views, &batch)
            });
            shared.set_writing(false);
            if sent % CHECKPOINT_EVERY == 0 || sent == total {
                let _paused = gate.write().expect("checkpoint gate poisoned");
                check_views(session, queries, views, &mut checks);
                anchor = Instant::now();
                slot = 1;
            }
        }
        done.store(true, Ordering::Release);
        let reads = reader.join().expect("reader thread panicked");
        (reads, writes, checks)
    })
}

/// Every live view's value must equal a fresh execution of its query.
pub fn check_views(
    session: &Shredder,
    queries: &[Query],
    views: &[Subscription],
    checks: &mut Checks,
) {
    for (query, view) in queries.iter().zip(views) {
        checks.attempted += 1;
        let same = view
            .value()
            .and_then(|live| Ok(live.canonical() == session.execute(&query.prepared)?.canonical()));
        match same {
            Ok(true) => {}
            Ok(false) => {
                eprintln!("live view of {} differs from a fresh execution", query.name);
                checks.failed += 1;
            }
            Err(e) => {
                eprintln!("checking the live view of {} failed: {}", query.name, e);
                checks.failed += 1;
            }
        }
    }
}
