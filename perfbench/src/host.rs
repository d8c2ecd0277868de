//! The host-speed probe: a fixed, allocation-heavy kernel that each
//! measuring thread times between its operations, so that the benchmark's
//! times can be reported at one reference host speed.
//!
//! On a shared host the memory system slows down and speeds up with other
//! tenants' load, in phases of seconds to about a minute. Every operation the
//! benchmark times slows with it, and a run's medians land wherever the
//! phases of that run put them. The probe's code never changes with the
//! program under test, so its time tracks the host alone: an operation's
//! time scaled by `REFERENCE_MS / probe_ms`, with the probe's median over
//! the three seconds before the operation, is its time on a host where
//! the probe takes `REFERENCE_MS`. The probe builds and drops a small
//! ordered map of small vectors: allocation and pointer chasing, like the
//! compile path. It tracked the reads' slow phases better than an integer
//! loop or random reads from a fixed table did.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::stats::median;

/// About the probe's time, in ms, on the 2-vCPU host the baseline in
/// `NOTES.md` was measured on: the scale of every reported time. It is a
/// fixed constant, so reported times of two commits compare directly.
pub const REFERENCE_MS: f64 = 0.5;

/// A measuring thread probes at most this often.
const EVERY: Duration = Duration::from_millis(50);

/// An operation is scaled by the probes of this long before it: long
/// enough that their median is steady, short enough to follow the host.
const WINDOW: Duration = Duration::from_secs(3);

/// Build and drop the map.
fn kernel() {
    let mut map = BTreeMap::new();
    let mut x = 1u64;
    for k in 0..3000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        map.insert(x >> 40, vec![k; 3]);
    }
    std::hint::black_box(&map);
}

/// One probe, in ms: the kernel's second of two back-to-back runs, so
/// the caches the program's last operation left behind weigh little.
fn kernel_ms() -> f64 {
    kernel();
    let start = Instant::now();
    kernel();
    start.elapsed().as_secs_f64() * 1e3
}

/// One measuring thread's probe.
#[derive(Debug)]
pub struct Probe {
    /// Probes of the last [`WINDOW`]: (when, time in ms).
    recent: VecDeque<(Instant, f64)>,
    /// Every probe time of the probe's life, in ms.
    all_ms: Vec<f64>,
    scale: f64,
}

impl Probe {
    /// A probe that has probed once.
    pub fn new() -> Probe {
        let mut probe = Probe {
            recent: VecDeque::new(),
            all_ms: Vec::new(),
            scale: 1.0,
        };
        probe.sample();
        probe
    }

    /// Probe once now.
    pub fn sample(&mut self) {
        let now = Instant::now();
        let ms = kernel_ms();
        self.record(now, ms);
    }

    fn record(&mut self, now: Instant, ms: f64) {
        self.all_ms.push(ms);
        self.recent.push_back((now, ms));
        while self.recent.len() > 1 && now.duration_since(self.recent[0].0) > WINDOW {
            self.recent.pop_front();
        }
        let window: Vec<f64> = self.recent.iter().map(|&(_, ms)| ms).collect();
        self.scale = REFERENCE_MS / median(&window);
    }

    /// Probe if the last probe is older than [`EVERY`].
    pub fn tick(&mut self) {
        if self.recent.back().is_none_or(|(t, _)| t.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// The factor that takes a time measured now to the reference speed:
    /// `REFERENCE_MS` over the median probe of the last [`WINDOW`].
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The median of every probe, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.all_ms)
    }

    /// Every probe time, in ms.
    pub fn into_ms(self) -> Vec<f64> {
        self.all_ms
    }
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

/// Live-churn's reader and writer run at once, and each slows the other.
/// That contention is part of what the workload measures, so the reader
/// probes only while no write is in flight and publishes its scale here,
/// and the writer scales its batches by it instead of probing beside the
/// reader.
#[derive(Debug)]
pub struct SharedProbe {
    writing: AtomicBool,
    scale_bits: AtomicU64,
}

impl SharedProbe {
    pub fn new(scale: f64) -> SharedProbe {
        SharedProbe {
            writing: AtomicBool::new(false),
            scale_bits: AtomicU64::new(scale.to_bits()),
        }
    }

    pub fn set_writing(&self, writing: bool) {
        self.writing.store(writing, Ordering::Release);
    }

    pub fn writing(&self) -> bool {
        self.writing.load(Ordering::Acquire)
    }

    pub fn publish(&self, scale: f64) {
        self.scale_bits.store(scale.to_bits(), Ordering::Release);
    }

    pub fn scale(&self) -> f64 {
        f64::from_bits(self.scale_bits.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_by_the_median_of_the_last_window() {
        let mut probe = Probe {
            recent: VecDeque::new(),
            all_ms: Vec::new(),
            scale: 1.0,
        };
        let t0 = Instant::now();
        probe.record(t0, 9.0);
        assert_eq!(probe.scale(), REFERENCE_MS / 9.0);
        probe.record(t0 + 2 * WINDOW, 0.25);
        probe.record(t0 + 2 * WINDOW + EVERY, 0.75);
        // The 9 ms probe is out of the window; the nearest-rank median of
        // the two left is 0.25 ms.
        assert_eq!(probe.scale(), REFERENCE_MS / 0.25);
        assert_eq!(probe.median_ms(), 0.75);
    }

    #[test]
    fn shares_the_published_scale() {
        let shared = SharedProbe::new(0.75);
        assert_eq!(shared.scale(), 0.75);
        shared.publish(1.25);
        shared.set_writing(true);
        assert_eq!(shared.scale(), 1.25);
        assert!(shared.writing());
    }

    #[test]
    fn probes_at_most_every_interval() {
        let mut probe = Probe::new();
        probe.tick();
        assert_eq!(probe.all_ms.len(), 1);
        assert!(probe.median_ms() > 0.0);
        assert!(probe.scale() > 0.0);
    }
}
