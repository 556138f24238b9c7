//! What one measured phase of a workload produces, and the bookkeeping the
//! three workloads share.

use crate::corpus::Request;
use crate::speed;
use crate::stats::{median, tail, Tail};
use crate::trace::Span;
use crate::verdict;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Run parameters common to every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The release `astree` binary (daemon and fleet workers).
    pub astree: PathBuf,
    /// Scratch directory inside the checkout (sockets, stores, traces).
    pub run_dir: PathBuf,
}

impl Ctx {
    /// How many units of work of nominal duration `unit_s` fill the run.
    /// The work of a run is a function of the seed and `--seconds` only,
    /// never of the wall clock, so store growth and RSS repeat exactly.
    pub fn units(&self, unit_s: f64, min: usize) -> usize {
        ((self.seconds as f64 / unit_s).round() as usize).max(min)
    }
}

/// Requests attempted and failed against the known answers.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the detail line.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one request; `Ok` carries nothing, `Err` the reason.
    pub fn record(&mut self, name: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(format!("{name}: {why}"));
                }
                false
            }
        }
    }

    /// Checks rendered alarm lines against the request's known answer.
    pub fn verdict(&mut self, req: &Request, alarm_lines: &[String]) -> bool {
        self.record(&req.name, verdict::check_lines(req.expect, alarm_lines))
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in &other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f.clone());
            }
        }
    }
}

/// One round of a measured phase: the round's requests (one, or one per
/// connection, concurrently) between two host-speed probes, run while no
/// request is in flight.
#[derive(Debug, Default)]
pub struct Round {
    pub probe_ms: f64,
    pub wall_s: f64,
    /// CPU seconds of every analyzer process during the round.
    pub cpu_s: f64,
    pub latencies_ms: Vec<f64>,
}

impl Round {
    /// Probes the host on `threads` threads, runs `requests`, which returns
    /// its result and the latency of each request it made, and probes again;
    /// the round's probe time is the mean of the two, so a speed change
    /// during the round counts half. `cpu` reads the analyzer processes' CPU
    /// seconds so far.
    pub fn run<R>(
        threads: usize,
        cpu: &dyn Fn() -> f64,
        requests: impl FnOnce() -> (R, Vec<f64>),
    ) -> (R, Round) {
        let before = speed::probe(threads);
        let cpu0 = cpu();
        let t0 = Instant::now();
        let (out, latencies_ms) = requests();
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu() - cpu0;
        let probe_ms = (before + speed::probe(threads)) / 2.0;
        (out, Round { probe_ms, wall_s, cpu_s, latencies_ms })
    }

    /// Factor turning this round's times into reference-host times.
    fn scale(&self, normalise: bool) -> f64 {
        if normalise {
            speed::REFERENCE_MS / self.probe_ms
        } else {
            1.0
        }
    }
}

/// One measured phase: its rounds plus per-layer readings.
#[derive(Debug, Default)]
pub struct Phase {
    pub tally: Tally,
    /// kLOC answered with a correct verdict.
    pub kloc: f64,
    pub rounds: Vec<Round>,
    pub peak_rss_mb: f64,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Phase {
    fn latencies(&self, normalise: bool) -> Vec<f64> {
        let scaled =
            |r: &Round| r.latencies_ms.iter().map(|l| l * r.scale(normalise)).collect::<Vec<_>>();
        self.rounds.iter().flat_map(scaled).collect()
    }

    pub fn tail(&self) -> Tail {
        tail(&self.latencies(true))
    }

    /// The end-to-end metrics other than `setup_s`, every time scaled to the
    /// reference host (`normalise`) or as measured.
    pub fn e2e(&self, normalise: bool) -> BTreeMap<&'static str, f64> {
        let wall: f64 = self.rounds.iter().map(|r| r.wall_s * r.scale(normalise)).sum();
        let cpu: f64 = self.rounds.iter().map(|r| r.cpu_s * r.scale(normalise)).sum();
        let latencies = self.latencies(normalise);
        BTreeMap::from([
            ("kloc_per_s", self.kloc / wall),
            ("latency_p50_ms", median(&latencies)),
            ("latency_tail_ms", tail(&latencies).value),
            ("cpu_s_per_kloc", cpu / self.kloc.max(1e-9)),
            ("peak_rss_mb", self.peak_rss_mb),
        ])
    }

    /// How much slower than the reference host this phase ran: measured
    /// round time over reference-host round time.
    pub fn slowdown(&self) -> f64 {
        let raw: f64 = self.rounds.iter().map(|r| r.wall_s).sum();
        let norm: f64 = self.rounds.iter().map(|r| r.wall_s * r.scale(true)).sum();
        raw / norm
    }
}

/// A traced phase: its readings and the spans recorded around it.
pub struct Traced {
    pub phase: Phase,
    pub spans: Vec<Span>,
}

/// Everything one workload run produces.
pub struct Report {
    /// Each set-up made in the run, as a round of its own.
    pub setups: Vec<Round>,
    /// Known-answer checks made during set-up.
    pub setup_tally: Tally,
    pub untraced: Phase,
    pub traced: Option<Traced>,
}

impl Report {
    /// Each set-up's time, scaled to the reference host or as measured.
    pub fn setup_times(&self, normalise: bool) -> Vec<f64> {
        self.setups.iter().map(|r| r.wall_s * r.scale(normalise)).collect()
    }

    /// The median set-up time, scaled to the reference host or as measured.
    pub fn setup_s(&self, normalise: bool) -> f64 {
        median(&self.setup_times(normalise))
    }
}

/// Mean of a per-request reading, 0 without requests.
pub fn mean(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
