//! `family_fleet`: nightly re-verification of a program family on a process
//! fleet — `FleetSession` with two `astree worker --stdio` processes, the
//! store synced over the wire.
//!
//! Set-up is one cold pass in ascending channel order (misses, cross-member
//! seed transfer, `store_put`). Every measured pass re-submits the unchanged
//! family, so every job is a full hit delivered by `store_get` sync to
//! freshly spawned workers: worker spawn, wire sync, store decoding and the
//! frontend do all the work and the iterator none — the opposite of
//! cold_ladder. One pass is one request; per-job latency is not reported,
//! since inside a pass it measures queue position and steal timing.

use crate::corpus::{self, Request};
use crate::phase::{mean, Ctx, Phase, Report, Round, Tally, Traced};
use crate::stats::median;
use crate::sys;
use crate::trace::{layer_metrics, maybe_span, Tracer};
use astree_core::InvariantStore;
use astree_fleet::{FleetReport, FleetSession, JobSpec, JobStatus};
use astree_obs::{Collector, Recorder};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Nominal seconds of one replay pass on a 2-vCPU host.
const PASS_S: f64 = 0.37;
/// Cold passes made, each into a fresh store, to time set-up; the last
/// store serves the measured passes.
const SETUPS: usize = 7;
const WORKERS: usize = 2;

pub fn run(ctx: &Ctx) -> Report {
    let family = corpus::family(ctx.seed);
    let jobs: Vec<JobSpec> =
        family.iter().map(|r| JobSpec::new(r.name.clone(), r.source.clone())).collect();
    let worker_cmd = vec![ctx.astree.display().to_string(), "worker".into(), "--stdio".into()];
    let fleet = Fleet { jobs, family, worker_cmd };

    let mut setup_tally = Tally::default();
    let mut setups = Vec::new();
    let mut setup_report = None;
    let mut store = None;
    for k in 0..SETUPS {
        let dir = ctx.run_dir.join(format!("fleet-{}-{k}-store", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ((s, report), round) = Round::run(WORKERS, &|| 0.0, || {
            let s =
                Arc::new(InvariantStore::open(&dir).expect("cannot open the coordinator store"));
            let report = fleet.pass(&s, None);
            ((s, report), vec![])
        });
        setups.push(round);
        sweep_sync_dirs();
        fleet.check(&report, false, &mut setup_tally);
        store = Some(StoreDir(dir, s));
        setup_report = Some(report);
    }
    let store = store.expect("at least one set-up");
    // The measured passes run in a fresh process, so the workers' peak RSS
    // (`RUSAGE_CHILDREN`) covers their workers only, not the set-up's.
    sys::continue_in_child();
    let setup_counters = setup_report.expect("at least one set-up").counters;
    let passes = ctx.units(PASS_S, 11);

    let mut untraced = fleet.measure(&store.1, passes, None);
    untraced.layers.insert("fleet.seed_hits", setup_counters.seed_hits as f64);
    untraced.layers.insert("fleet.loops_seeded", setup_counters.loops_seeded as f64);
    untraced.layers.insert("fleet.store_puts", setup_counters.store_puts as f64);
    let traced = ctx.trace.then(|| {
        let tracer = Tracer::new();
        let mut phase = fleet.measure(&store.1, passes, Some(&tracer));
        crate::probe::layers(&fleet.family, &tracer);
        let spans = tracer.spans();
        phase.layers.extend(layer_metrics(&spans));
        Traced { phase, spans }
    });
    Report { setups, setup_tally, untraced, traced }
}

/// A coordinator store, removed from disk when dropped.
struct StoreDir(PathBuf, Arc<InvariantStore>);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Fleet {
    jobs: Vec<JobSpec>,
    family: Vec<Request>,
    worker_cmd: Vec<String>,
}

impl Fleet {
    fn pass(
        &self,
        store: &Arc<InvariantStore>,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> FleetReport {
        let mut builder = FleetSession::builder()
            .jobs(self.jobs.clone())
            .workers(WORKERS)
            .worker_cmd(self.worker_cmd.clone())
            .cache(Arc::clone(store))
            .cache_wire(true);
        if let Some(rec) = recorder {
            builder = builder.recorder(rec);
        }
        builder.run()
    }

    /// Checks every job of a pass; returns the kLOC answered correctly. On a
    /// `replay` pass a job that is not a store full hit fails too: the
    /// measured passes exist to time full hits.
    fn check(&self, report: &FleetReport, replay: bool, tally: &mut Tally) -> f64 {
        let mut kloc = 0.0;
        for (req, out) in self.family.iter().zip(&report.outcomes) {
            let ok = if out.status != JobStatus::Done {
                tally.record(&req.name, Err(format!("job status {}", out.status)))
            } else if replay && !out.cache_full_hit {
                tally.record(&req.name, Err("replay was not a store full hit".into()))
            } else {
                tally.verdict(req, &out.alarm_lines)
            };
            if ok {
                kloc += req.kloc;
            }
        }
        if report.outcomes.len() != self.family.len() {
            tally.record(
                "pass",
                Err(format!("{} outcomes for {} jobs", report.outcomes.len(), self.family.len())),
            );
        }
        kloc
    }

    fn measure(
        &self,
        store: &Arc<InvariantStore>,
        passes: usize,
        tracer: Option<&Tracer>,
    ) -> Phase {
        let mut phase = Phase::default();
        let (mut pass_s, mut job_ms, mut coordination) = (Vec::new(), Vec::new(), 0.0);
        let (mut full_hits, mut jobs, mut store_gets, mut steals) = (0u64, 0u64, 0u64, 0u64);
        let family_kloc: f64 = self.family.iter().map(|r| r.kloc).sum();

        let cpu = || sys::self_usage().cpu_s + sys::children_usage().cpu_s;
        for p in 0..passes {
            let (report, round) = Round::run(WORKERS, &cpu, || {
                // The coordinator's peak over this pass alone, read before
                // the next probe; workers are accounted as children.
                sys::reset_peak_rss();
                let t0 = Instant::now();
                let report = maybe_span(tracer, "pass", None, p as u64, family_kloc, |root| {
                    let recorder: Option<Arc<dyn Recorder>> =
                        tracer.map(|_| Arc::new(Collector::new()) as Arc<dyn Recorder>);
                    let report =
                        maybe_span(tracer, "fleet_run", root, p as u64, family_kloc, |_| {
                            self.pass(store, recorder)
                        });
                    phase.kloc += self.check(&report, true, &mut phase.tally);
                    report
                });
                let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                let peak = sys::status_mb(None, "VmHWM").unwrap_or(0.0);
                phase.peak_rss_mb = phase.peak_rss_mb.max(peak);
                (report, vec![latency_ms])
            });
            phase.rounds.push(round);
            sweep_sync_dirs();
            let c = &report.counters;
            let wall = report.wall.as_secs_f64();
            pass_s.push(wall);
            job_ms.extend(report.outcomes.iter().map(|o| o.wall.as_secs_f64() * 1e3));
            let busy: f64 = c.per_worker.iter().map(|w| w.busy_nanos as f64 / 1e9).sum();
            coordination += 1.0 - busy / (c.workers.max(1) as f64 * wall);
            full_hits += c.store_full_hits;
            jobs += c.jobs;
            store_gets += c.store_gets;
            steals += c.steals;
        }
        // This process started no other children (see `continue_in_child`).
        let children = sys::children_usage();
        let coordinator_peak = phase.peak_rss_mb;
        phase.peak_rss_mb = phase.peak_rss_mb.max(children.maxrss_mb);
        phase.layers = BTreeMap::from([
            ("fleet.pass_s", median(&pass_s)),
            ("fleet.job_ms_p50", median(&job_ms)),
            ("fleet.coordination_share", coordination / passes as f64),
            ("fleet.full_hit_ratio", if jobs == 0 { 0.0 } else { full_hits as f64 / jobs as f64 }),
            ("fleet.store_gets", mean(store_gets as f64, passes)),
            ("fleet.steals", mean(steals as f64, passes)),
            ("fleet.worker_peak_rss_mb", children.maxrss_mb),
            ("fleet.coordinator_peak_rss_mb", coordinator_peak),
        ]);
        phase
    }
}

/// Removes the store copies fleet workers leave in the temp directory: the
/// coordinator kills its workers at the end of a run, so their own clean-up
/// never runs, and each copy holds the whole synced store.
fn sweep_sync_dirs() {
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else { return };
    for e in entries.flatten() {
        if e.file_name().to_string_lossy().starts_with("astree-fleet-sync-") {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::Expect;
    use astree_fleet::JobOutcome;
    use std::time::Duration;

    fn fleet() -> Fleet {
        let req = |name: &str| Request {
            name: name.into(),
            source: String::new(),
            expect: Expect::Clean,
            channels: 4,
            kloc: 1.0,
        };
        Fleet { jobs: vec![], family: vec![req("a"), req("b")], worker_cmd: vec![] }
    }

    fn report(full_hits: [bool; 2]) -> FleetReport {
        let outcome = |name: &str, hit: bool| JobOutcome {
            alarms: Some(0),
            cache_full_hit: hit,
            ..JobOutcome::empty(name, JobStatus::Done)
        };
        FleetReport {
            outcomes: vec![outcome("a", full_hits[0]), outcome("b", full_hits[1])],
            wall: Duration::ZERO,
            workers: WORKERS,
            total_job_time: Duration::ZERO,
            counters: Default::default(),
        }
    }

    /// A measured pass counts a job that was re-solved instead of replayed
    /// from the store as failed, even when its verdict is right; set-up
    /// passes, which are cold, do not.
    #[test]
    fn replay_that_is_not_a_full_hit_fails() {
        let f = fleet();
        let mut tally = Tally::default();
        assert_eq!(f.check(&report([true, true]), true, &mut tally), 2.0);
        assert_eq!((tally.attempted, tally.failed), (2, 0));
        assert_eq!(f.check(&report([true, false]), true, &mut tally), 1.0);
        assert_eq!((tally.attempted, tally.failed), (4, 1));
        assert!(tally.failures[0].contains("full hit"), "{:?}", tally.failures);
        assert_eq!(f.check(&report([false, false]), false, &mut tally), 2.0);
        assert_eq!(tally.failed, 1);
    }
}
