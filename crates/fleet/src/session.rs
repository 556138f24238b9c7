//! The unified Fleet API: one builder for every fan-out surface.
//!
//! `astree batch`, the serve daemon's batch request, and `astree fuzz` all
//! construct a [`FleetSession`] and call [`FleetSessionBuilder::run`]. The
//! builder decides the execution strategy from its distribution knobs:
//!
//! - no workers, no endpoints → **in-process**: jobs run on this process's
//!   threads ([`astree_sched::run_batch`] when parallel or deadlined,
//!   inline with panic containment otherwise — the daemon's path, which
//!   can also borrow a resident [`WorkerPool`]);
//! - `workers(n)` / `connect(..)` → **fleet**: the coordinator scatters
//!   jobs over local `astree worker` child processes and/or remote socket
//!   workers, with work stealing and crash isolation.
//!
//! Outcomes are identical either way — same [`JobOutcome`] per job, in
//! submission order, byte-identical at any worker count. Only the
//! scheduling telemetry ([`FleetCounters`]) differs.

use crate::coordinator::{run_fleet, FleetConfig, ProcessTransport, SocketTransport, Transport};
use crate::exec::{execute, ExecContext};
use crate::job::{FleetReport, JobOutcome, JobSpec, JobStatus};
use crate::proto::Endpoint;
use astree_core::{AnalysisConfig, InvariantStore};
use astree_obs::{BatchJobEvent, FleetCounters, Recorder};
use astree_sched::{run_batch, BatchConfig, Job, WorkerPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Entry point for fleet analysis; see the module docs.
pub struct FleetSession;

impl FleetSession {
    /// Starts building a fleet run.
    pub fn builder<'p>() -> FleetSessionBuilder<'p> {
        FleetSessionBuilder {
            jobs: Vec::new(),
            config: AnalysisConfig::default(),
            threads: 1,
            workers: 0,
            worker_cmd: None,
            connect: Vec::new(),
            timeout: None,
            retry_budget: 2,
            cache: None,
            cache_wire: false,
            recorder: None,
            pool: None,
            crash_on: None,
        }
    }
}

/// Builder for a fleet run; mirrors `AnalysisSession::builder`.
pub struct FleetSessionBuilder<'p> {
    jobs: Vec<JobSpec>,
    config: AnalysisConfig,
    threads: usize,
    workers: usize,
    worker_cmd: Option<Vec<String>>,
    connect: Vec<Endpoint>,
    timeout: Option<Duration>,
    retry_budget: u32,
    cache: Option<Arc<InvariantStore>>,
    cache_wire: bool,
    recorder: Option<Arc<dyn Recorder>>,
    pool: Option<&'p WorkerPool>,
    crash_on: Option<String>,
}

impl<'p> FleetSessionBuilder<'p> {
    /// Sets the job list (replacing any previous one).
    pub fn jobs(mut self, jobs: Vec<JobSpec>) -> Self {
        self.jobs = jobs;
        self
    }

    /// Appends one job.
    pub fn job(mut self, job: JobSpec) -> Self {
        self.jobs.push(job);
        self
    }

    /// Base analysis configuration; each job's overrides apply on top.
    pub fn config(mut self, config: AnalysisConfig) -> Self {
        self.config = config;
        self
    }

    /// In-process concurrency when no worker processes are configured
    /// (default 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of local worker *processes* to spawn (default 0: in-process).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Argv for local workers (default: this executable,
    /// `worker --stdio`).
    pub fn worker_cmd(mut self, cmd: Vec<String>) -> Self {
        self.worker_cmd = Some(cmd);
        self
    }

    /// Adds a remote worker endpoint (repeatable).
    pub fn connect(mut self, endpoint: Endpoint) -> Self {
        self.connect.push(endpoint);
        self
    }

    /// Per-job deadline. In the fleet, a worker missing it is killed.
    pub fn timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// How many times a crashed job is re-scattered before it is reported
    /// [`JobStatus::Crashed`] (default 2).
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Shared invariant store. In the fleet, workers open the same
    /// directory, so one worker's converged invariants warm every other.
    pub fn cache(mut self, store: Arc<InvariantStore>) -> Self {
        self.cache = Some(store);
        self
    }

    /// Syncs the store to fleet workers over the wire instead of a shared
    /// filesystem: workers never see the cache directory; they pull the
    /// coordinator's store files before each solve (`store_get`) and push
    /// what they changed back (`store_put`). No-op without a cache or for
    /// in-process runs (which share the store in memory anyway).
    pub fn cache_wire(mut self, on: bool) -> Self {
        self.cache_wire = on;
        self
    }

    /// Telemetry recorder: receives per-job `BatchJobEvent`s, fleet
    /// counters, and (in-process only) each analysis's own events.
    pub fn recorder(mut self, rec: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Resident slice pool for in-process sequential runs (the daemon's).
    pub fn pool(mut self, pool: &'p WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Fault injection for tests: the first worker of lane 0 aborts upon
    /// receiving the job with this name.
    #[doc(hidden)]
    pub fn crash_on(mut self, name: Option<String>) -> Self {
        self.crash_on = name;
        self
    }

    /// Runs the fleet and reports outcomes in submission order.
    pub fn run(self) -> FleetReport {
        let t0 = Instant::now();
        let recorder = self.recorder.clone();
        let (outcomes, mut counters) = if self.workers == 0 && self.connect.is_empty() {
            self.run_in_process()
        } else {
            self.run_distributed()
        };
        counters.store_full_hits = outcomes.iter().filter(|o| o.cache_full_hit).count() as u64;
        counters.loops_seeded = outcomes.iter().map(|o| o.loops_seeded).sum();

        if let Some(rec) = &recorder {
            if rec.enabled() {
                for out in &outcomes {
                    rec.batch_job(&BatchJobEvent {
                        name: &out.name,
                        status: out.status.slug(),
                        reason: out.detail.as_deref(),
                        wall_nanos: out.wall.as_nanos() as u64,
                        worker: out.worker,
                        alarms: out.alarms.map(|n| n as u64),
                    });
                }
                rec.fleet(&counters);
            }
        }

        let total_job_time = outcomes.iter().map(|o| o.wall).sum();
        let workers = counters.workers as usize;
        FleetReport { outcomes, wall: t0.elapsed(), workers, total_job_time, counters }
    }

    fn run_distributed(self) -> (Vec<JobOutcome>, FleetCounters) {
        let cmd = self.worker_cmd.clone().unwrap_or_else(default_worker_cmd);
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        for _ in 0..self.workers {
            transports.push(Box::new(ProcessTransport::new(cmd.clone())));
        }
        for endpoint in &self.connect {
            transports.push(Box::new(SocketTransport::new(endpoint.clone())));
        }
        let cfg = FleetConfig {
            config: &self.config,
            cache_dir: if self.cache_wire {
                None
            } else {
                self.cache.as_ref().map(|s| s.dir().to_path_buf())
            },
            store: if self.cache_wire { self.cache.clone() } else { None },
            timeout: self.timeout,
            retry_budget: self.retry_budget,
            crash_on: self.crash_on.clone(),
        };
        run_fleet(&self.jobs, transports, &cfg)
    }

    fn run_in_process(self) -> (Vec<JobOutcome>, FleetCounters) {
        let n = self.jobs.len();
        let threads = self.threads.max(1).min(n.max(1));
        let counters = FleetCounters {
            workers: threads as u64,
            processes: false,
            jobs: n as u64,
            ..FleetCounters::default()
        };
        if threads <= 1 && self.timeout.is_none() {
            // Inline: keeps recorder and pool as plain borrows (the serve
            // daemon's path — its resident pool and per-connection
            // recorder are not `'static`).
            let ctx = ExecContext {
                config: &self.config,
                cache: self.cache.clone(),
                recorder: self.recorder.as_deref(),
                pool: self.pool,
            };
            let outcomes = self
                .jobs
                .iter()
                .map(|spec| {
                    catch_unwind(AssertUnwindSafe(|| execute(spec, &ctx))).unwrap_or_else(
                        |payload| {
                            let mut out = JobOutcome::empty(spec.name.clone(), JobStatus::Panicked);
                            out.detail = Some(panic_message(payload.as_ref()));
                            out
                        },
                    )
                })
                .collect();
            return (outcomes, counters);
        }

        // Threaded: `run_batch` wants `'static` closures, so shared parts
        // move in as clones/Arcs. The resident pool cannot cross.
        let config = self.config.clone();
        let cache = self.cache.clone();
        let recorder = self.recorder.clone();
        let jobs: Vec<Job<JobOutcome>> = self
            .jobs
            .iter()
            .map(|spec| {
                let spec = spec.clone();
                let config = config.clone();
                let cache = cache.clone();
                let recorder = recorder.clone();
                Job::new(spec.name.clone(), move || {
                    let ctx = ExecContext {
                        config: &config,
                        cache,
                        recorder: recorder.as_deref(),
                        pool: None,
                    };
                    execute(&spec, &ctx)
                })
            })
            .collect();
        let report = run_batch(&BatchConfig { workers: threads, timeout: self.timeout }, jobs);
        let outcomes = report
            .results
            .into_iter()
            .map(|r| {
                let mut out = match r.status {
                    astree_sched::JobStatus::Done(out) => out,
                    astree_sched::JobStatus::Panicked(msg) => {
                        let mut out = JobOutcome::empty(r.name, JobStatus::Panicked);
                        out.detail = Some(msg);
                        out
                    }
                    astree_sched::JobStatus::TimedOut => {
                        JobOutcome::empty(r.name, JobStatus::TimedOut)
                    }
                };
                out.wall = r.wall;
                out.worker = r.worker;
                out
            })
            .collect();
        (outcomes, counters)
    }
}

/// The default local worker: this very executable in `worker --stdio` mode.
fn default_worker_cmd() -> Vec<String> {
    let exe = std::env::current_exe().expect("cannot locate current executable for worker spawn");
    vec![exe.display().to_string(), "worker".into(), "--stdio".into()]
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ConfigOverrides;

    fn tiny_jobs() -> Vec<JobSpec> {
        vec![
            JobSpec::new("clean", "int x; void main(void) { x = 1; }"),
            JobSpec::new("div", "int x; int d; void main(void) { d = 0; x = 1 / d; }"),
            JobSpec::new("broken", "not C at all"),
        ]
    }

    #[test]
    fn in_process_inline_and_threaded_agree() {
        let inline = FleetSession::builder().jobs(tiny_jobs()).run();
        let threaded = FleetSession::builder().jobs(tiny_jobs()).threads(2).run();
        assert_eq!(inline.stable_report(), threaded.stable_report());
        assert_eq!(inline.outcomes.len(), 3);
        assert_eq!(inline.outcomes[0].alarms, Some(0));
        assert_eq!(inline.outcomes[1].alarms, Some(1));
        assert_eq!(inline.outcomes[2].status, JobStatus::Failed);
        assert_eq!(inline.completed(), 2);
        assert_eq!(inline.total_alarms(), 1);
        assert!(!inline.counters.processes);
    }

    #[test]
    fn overrides_flow_through_the_session() {
        let mut job = JobSpec::new("div", "int x; int d; void main(void) { d = 0; x = 1 / d; }");
        job.overrides = ConfigOverrides { octagons: Some(false), ..ConfigOverrides::default() };
        let report = FleetSession::builder().job(job).run();
        assert_eq!(report.outcomes[0].status, JobStatus::Done);
        assert_eq!(report.outcomes[0].alarms, Some(1));
    }
}
