//! Single-job execution: the one place a [`JobSpec`] is turned into a
//! [`JobOutcome`].
//!
//! Both sides of the process boundary share this path — the in-process
//! runner calls [`execute`] directly, a worker process calls it for each
//! `job` frame — which is what makes the fleet's determinism contract
//! cheap to keep: a job's outcome depends only on its spec and the base
//! configuration, never on which process ran it.

use crate::job::{JobOutcome, JobSpec, JobStatus};
use astree_core::{AnalysisConfig, AnalysisSession, InvariantStore};
use astree_frontend::Frontend;
use astree_obs::Recorder;
use astree_oracle::{run_member, OracleConfig};
use astree_sched::WorkerPool;
use std::sync::Arc;
use std::time::Instant;

/// Everything a job needs from its host besides the spec itself.
pub struct ExecContext<'a> {
    /// Base analysis configuration; the spec's overrides apply on top.
    pub config: &'a AnalysisConfig,
    /// Shared invariant store (the fleet's warm substrate), if any.
    pub cache: Option<Arc<InvariantStore>>,
    /// Telemetry recorder for the analysis itself, if any.
    pub recorder: Option<&'a dyn Recorder>,
    /// In-process slice pool to run the analysis on, if any.
    pub pool: Option<&'a WorkerPool>,
}

/// Runs one job to completion. Returns [`JobStatus::Done`] or
/// [`JobStatus::Failed`]; panics propagate (the caller decides whether to
/// `catch_unwind`, because only the caller knows its isolation story).
pub fn execute(spec: &JobSpec, ctx: &ExecContext<'_>) -> JobOutcome {
    let t0 = Instant::now();
    let mut out =
        if spec.oracle.is_some() { run_oracle_job(spec, ctx) } else { run_analysis_job(spec, ctx) };
    out.name = spec.name.clone();
    out.wall = t0.elapsed();
    out
}

fn failed(detail: String) -> JobOutcome {
    let mut out = JobOutcome::empty("", JobStatus::Failed);
    out.detail = Some(detail);
    out
}

fn run_analysis_job(spec: &JobSpec, ctx: &ExecContext<'_>) -> JobOutcome {
    let program = match Frontend::new().compile_str(&spec.source) {
        Ok(p) => p,
        Err(e) => return failed(format!("compile error: {e}")),
    };
    let errs = program.validate();
    if !errs.is_empty() {
        return failed(format!("invalid program: {}", errs.join("; ")));
    }
    let config = spec.overrides.apply(ctx.config);
    let mut builder = AnalysisSession::builder(&program).config(config);
    if let Some(rec) = ctx.recorder {
        builder = builder.recorder(rec);
    }
    if let Some(store) = &ctx.cache {
        builder = builder.cache(Arc::clone(store));
    }
    if let Some(pool) = ctx.pool {
        builder = builder.pool(pool);
    }
    let result = builder.build().run();

    let mut out = JobOutcome::empty("", JobStatus::Done);
    out.alarms = Some(result.alarms.len());
    out.alarm_lines = result.alarms.iter().map(|a| a.to_string()).collect();
    out.main_invariant = result.main_invariant.as_ref().map(|s| s.to_string());
    out.main_census = result.main_census.as_ref().map(|c| c.to_string());
    out.cache_full_hit = result.cache.full_hit;
    out.loops_seeded = result.stats.loops_seeded;
    out
}

fn run_oracle_job(spec: &JobSpec, ctx: &ExecContext<'_>) -> JobOutcome {
    let oracle = spec.oracle.as_ref().expect("oracle job without oracle payload");
    let cfg = OracleConfig {
        members: 1,
        seeds: oracle.seeds,
        ticks: oracle.ticks,
        max_steps: oracle.max_steps,
        shrink: oracle.shrink,
        analysis: spec.overrides.apply(ctx.config),
        debug_tighten_cell: oracle.debug_tighten_cell.clone(),
        ..OracleConfig::default()
    };
    match run_member(&oracle.spec, &cfg) {
        Ok(member) => {
            let mut out = JobOutcome::empty("", JobStatus::Done);
            out.alarms = Some(member.alarms.values().map(|&n| n as usize).sum());
            out.oracle = Some(member);
            out
        }
        Err(e) => failed(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::OracleJob;
    use astree_oracle::MemberSpec;

    fn base_ctx(config: &AnalysisConfig) -> ExecContext<'_> {
        ExecContext { config, cache: None, recorder: None, pool: None }
    }

    #[test]
    fn analysis_job_reports_alarms_and_invariant() {
        let spec =
            JobSpec::new("div", "int main() { volatile int d = 0; int x = 1 / d; return x; }\n");
        let config = AnalysisConfig::default();
        let out = execute(&spec, &base_ctx(&config));
        assert_eq!(out.status, JobStatus::Done);
        assert!(out.alarms.unwrap() >= 1, "division by a zero volatile must alarm");
        assert_eq!(out.alarm_lines.len(), out.alarms.unwrap());
        assert_eq!(out.name, "div");
    }

    #[test]
    fn compile_errors_become_failed_outcomes() {
        let spec = JobSpec::new("bad", "int main( {\n");
        let config = AnalysisConfig::default();
        let out = execute(&spec, &base_ctx(&config));
        assert_eq!(out.status, JobStatus::Failed);
        assert!(out.detail.unwrap().contains("compile error"));
    }

    #[test]
    fn oracle_job_runs_a_member() {
        let mut spec = JobSpec::new("m", "");
        spec.oracle = Some(OracleJob {
            spec: MemberSpec { channels: 1, gen_seed: 1, bug: None, knobs: Default::default() },
            seeds: 1,
            ticks: 4,
            max_steps: 200_000,
            shrink: false,
            debug_tighten_cell: None,
        });
        let config = AnalysisConfig::default();
        let out = execute(&spec, &base_ctx(&config));
        assert_eq!(out.status, JobStatus::Done, "detail: {:?}", out.detail);
        let member = out.oracle.unwrap();
        assert!(member.executions >= 1);
    }
}
