//! The one job shape every fan-out surface shares.
//!
//! `astree batch`, the serve daemon's batch requests and the fuzz
//! campaign used to carry three private job structs; they all now submit
//! [`JobSpec`]s and get [`JobOutcome`]s back, so the wire protocol, the
//! campaign reports and the CLI cannot drift on spelling or shape.

use astree_core::AnalysisConfig;
use astree_obs::FleetCounters;
use astree_oracle::{MemberOutcome, MemberSpec};
use std::time::Duration;

/// One fleet job: a named source plus per-job configuration overrides, and
/// optionally an oracle payload turning the job into a fuzz-campaign member.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Display name (file name, generated-program identifier, or member
    /// label).
    pub name: String,
    /// C source text (derived from the member spec for oracle jobs).
    pub source: String,
    /// Per-job configuration overrides, applied on top of the fleet's base
    /// configuration.
    pub overrides: ConfigOverrides,
    /// When set, the job runs the differential soundness oracle on this
    /// member instead of a plain analysis.
    pub oracle: Option<OracleJob>,
}

impl JobSpec {
    /// A plain analysis job with no overrides.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> JobSpec {
        JobSpec {
            name: name.into(),
            source: source.into(),
            overrides: ConfigOverrides::default(),
            oracle: None,
        }
    }
}

/// Per-job overrides of the fleet-level base [`AnalysisConfig`]. Every
/// field is optional; `None` keeps the base value. This is the same
/// subset the serve protocol's `config` object exposes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigOverrides {
    /// Overrides `max_clock`.
    pub max_clock: Option<i64>,
    /// Overrides `loop_unroll`.
    pub loop_unroll: Option<u32>,
    /// Overrides `jobs` (intra-analysis worker threads).
    pub jobs: Option<usize>,
    /// Overrides `enable_octagons`.
    pub octagons: Option<bool>,
    /// Overrides `enable_dtrees`.
    pub dtrees: Option<bool>,
    /// Overrides `enable_ellipsoids`.
    pub ellipsoids: Option<bool>,
    /// Overrides `enable_clocked`.
    pub clocked: Option<bool>,
    /// Overrides `enable_linearization`.
    pub linearize: Option<bool>,
    /// Functions *added* to `partitioned_functions`.
    pub partition: Vec<String>,
}

impl ConfigOverrides {
    /// `true` when no override is set.
    pub fn is_empty(&self) -> bool {
        *self == ConfigOverrides::default()
    }

    /// The base configuration with these overrides applied.
    pub fn apply(&self, base: &AnalysisConfig) -> AnalysisConfig {
        let mut cfg = base.clone();
        if let Some(v) = self.max_clock {
            cfg.max_clock = v;
        }
        if let Some(v) = self.loop_unroll {
            cfg.loop_unroll = v;
        }
        if let Some(v) = self.jobs {
            cfg.jobs = v.max(1);
        }
        if let Some(v) = self.octagons {
            cfg.enable_octagons = v;
        }
        if let Some(v) = self.dtrees {
            cfg.enable_dtrees = v;
        }
        if let Some(v) = self.ellipsoids {
            cfg.enable_ellipsoids = v;
        }
        if let Some(v) = self.clocked {
            cfg.enable_clocked = v;
        }
        if let Some(v) = self.linearize {
            cfg.enable_linearization = v;
        }
        for f in &self.partition {
            cfg.partitioned_functions.insert(f.clone());
        }
        cfg
    }
}

/// The oracle payload of a fuzz-campaign job: the member to analyze plus
/// the per-member campaign parameters (the corpus-level parameters stay
/// with the caller).
#[derive(Debug, Clone)]
pub struct OracleJob {
    /// The corpus member.
    pub spec: MemberSpec,
    /// Execution seeds fuzzed against the member.
    pub seeds: u64,
    /// Clock ticks per execution.
    pub ticks: u64,
    /// Interpreter step budget per execution.
    pub max_steps: u64,
    /// Shrink counterexamples before reporting.
    pub shrink: bool,
    /// Fault injection for tests (see `OracleConfig::debug_tighten_cell`).
    pub debug_tighten_cell: Option<String>,
}

/// How a fleet job ended. Serialized exclusively through [`JobStatus::slug`]
/// / [`JobStatus::from_slug`], so the serve wire protocol, campaign reports
/// and the CLI all spell outcomes identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobStatus {
    /// The job ran to completion.
    Done,
    /// The job's source failed to compile or validate.
    Failed,
    /// The job panicked (isolated; the worker kept serving).
    Panicked,
    /// The job exceeded the per-job timeout and was killed.
    TimedOut,
    /// The worker process died mid-job and the retry budget ran out.
    Crashed,
}

impl JobStatus {
    /// Every status, in slug order.
    pub const ALL: [JobStatus; 5] = [
        JobStatus::Done,
        JobStatus::Failed,
        JobStatus::Panicked,
        JobStatus::TimedOut,
        JobStatus::Crashed,
    ];

    /// The stable wire/report spelling.
    pub fn slug(self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Panicked => "panicked",
            JobStatus::TimedOut => "timed-out",
            JobStatus::Crashed => "crashed",
        }
    }

    /// Parses a slug back; the inverse of [`JobStatus::slug`].
    pub fn from_slug(s: &str) -> Option<JobStatus> {
        JobStatus::ALL.into_iter().find(|k| k.slug() == s)
    }
}

impl std::fmt::Display for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// Outcome of one fleet job, reported in submission order.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job name as submitted.
    pub name: String,
    /// How the job ended.
    pub status: JobStatus,
    /// Number of alarms, when the job completed.
    pub alarms: Option<usize>,
    /// Rendered alarm lines, when the job completed (same `Display` as
    /// `astree analyze`, so reports diff byte-for-byte).
    pub alarm_lines: Vec<String>,
    /// Rendered main-loop invariant, when one was computed.
    pub main_invariant: Option<String>,
    /// Rendered main-loop census, when one was computed.
    pub main_census: Option<String>,
    /// The shared invariant store answered this job verbatim.
    pub cache_full_hit: bool,
    /// Loops installed from per-loop seeds on this job (cache telemetry,
    /// excluded from the stable report like every warm/cold-dependent
    /// field).
    pub loops_seeded: u64,
    /// Wall-clock time the job occupied a worker.
    pub wall: Duration,
    /// Worker lane that ran the job (informational).
    pub worker: usize,
    /// Times the job was re-scattered after its worker died.
    pub resent: u32,
    /// Error detail for failed jobs (panic message or compile error).
    pub detail: Option<String>,
    /// Oracle outcome, for fuzz-campaign jobs that completed.
    pub oracle: Option<MemberOutcome>,
}

impl JobOutcome {
    /// A skeleton outcome for a job that produced no analysis result.
    pub fn empty(name: impl Into<String>, status: JobStatus) -> JobOutcome {
        JobOutcome {
            name: name.into(),
            status,
            alarms: None,
            alarm_lines: Vec::new(),
            main_invariant: None,
            main_census: None,
            cache_full_hit: false,
            loops_seeded: 0,
            wall: Duration::ZERO,
            worker: 0,
            resent: 0,
            detail: None,
            oracle: None,
        }
    }
}

/// Aggregated outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-job outcomes in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Wall-clock time of the whole fleet run.
    pub wall: Duration,
    /// Worker lanes used (in-process threads or worker processes).
    pub workers: usize,
    /// Sum of per-job wall times (the sequential cost).
    pub total_job_time: Duration,
    /// Coordinator counters (steals, re-sends, crashes, store hits, per
    /// worker busy time).
    pub counters: FleetCounters,
}

impl FleetReport {
    /// Number of jobs that completed.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status == JobStatus::Done).count()
    }

    /// Total alarms across completed jobs.
    pub fn total_alarms(&self) -> usize {
        self.outcomes.iter().filter_map(|o| o.alarms).sum()
    }

    /// Observed speedup (sequential cost over fleet wall time).
    pub fn speedup(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.total_job_time.as_secs_f64() / self.wall.as_secs_f64()
    }

    /// A deterministic rendering of the run's *results* — names, statuses,
    /// alarms, invariants, censuses and oracle outcomes in submission order
    /// — excluding everything scheduling-dependent (wall times, worker
    /// indices, re-send counts, cache hits). Two runs of the same fleet at
    /// any worker count must produce byte-identical stable reports; the
    /// determinism tests and the `fleet-smoke` CI job diff exactly this.
    pub fn stable_report(&self) -> String {
        let mut out = String::from("fleet-report/1\n");
        for o in &self.outcomes {
            out.push_str(&format!("job {}\n", o.name));
            out.push_str(&format!("status {}\n", o.status.slug()));
            match o.alarms {
                Some(n) => out.push_str(&format!("alarms {n}\n")),
                None => out.push_str("alarms -\n"),
            }
            for line in &o.alarm_lines {
                out.push_str(&format!("alarm {line}\n"));
            }
            if let Some(inv) = &o.main_invariant {
                for line in inv.lines() {
                    out.push_str(&format!("invariant {line}\n"));
                }
            }
            if let Some(c) = &o.main_census {
                for line in c.lines() {
                    out.push_str(&format!("census {line}\n"));
                }
            }
            if let Some(d) = &o.detail {
                out.push_str(&format!("detail {}\n", d.replace('\n', " ")));
            }
            if let Some(m) = &o.oracle {
                out.push_str(&format!(
                    "oracle executions={} states={} inconclusive={}\n",
                    m.executions, m.states_checked, m.inconclusive
                ));
                for (k, n) in &m.alarms {
                    out.push_str(&format!("oracle-alarm {k} {n}\n"));
                }
                for d in &m.divergences {
                    out.push_str(&format!(
                        "oracle-divergence seed={} stmt={} tick={} shrunk={} {:?}\n",
                        d.exec_seed, d.stmt, d.tick, d.shrunk, d.kind
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_slugs_round_trip() {
        for s in JobStatus::ALL {
            assert_eq!(JobStatus::from_slug(s.slug()), Some(s));
        }
        assert_eq!(JobStatus::from_slug("nope"), None);
        assert_eq!(JobStatus::TimedOut.to_string(), "timed-out");
    }

    #[test]
    fn overrides_apply_on_top_of_base() {
        let base = AnalysisConfig::default();
        let ov = ConfigOverrides {
            max_clock: Some(99),
            octagons: Some(false),
            partition: vec!["main".into()],
            ..ConfigOverrides::default()
        };
        assert!(!ov.is_empty());
        let cfg = ov.apply(&base);
        assert_eq!(cfg.max_clock, 99);
        assert!(!cfg.enable_octagons);
        assert!(cfg.partitioned_functions.contains("main"));
        assert_eq!(cfg.loop_unroll, base.loop_unroll);
        assert!(ConfigOverrides::default().is_empty());
    }

    #[test]
    fn stable_report_excludes_scheduling_noise() {
        let mut a = JobOutcome::empty("j", JobStatus::Done);
        a.alarms = Some(0);
        let mut b = a.clone();
        b.wall = Duration::from_secs(5);
        b.worker = 3;
        b.resent = 2;
        b.cache_full_hit = true;
        b.loops_seeded = 4;
        let ra = FleetReport {
            outcomes: vec![a],
            wall: Duration::from_secs(1),
            workers: 1,
            total_job_time: Duration::from_secs(1),
            counters: FleetCounters::default(),
        };
        let rb = FleetReport {
            outcomes: vec![b],
            wall: Duration::from_secs(9),
            workers: 4,
            total_job_time: Duration::from_secs(2),
            counters: FleetCounters::default(),
        };
        assert_eq!(ra.stable_report(), rb.stable_report());
    }
}
