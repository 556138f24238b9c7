//! `astree-obs` — structured analysis telemetry.
//!
//! The analyzer's iterator is heavily parametrized (widening thresholds,
//! delayed widening, unrolling, trace partitioning, parallel slicing); this
//! crate makes its behavior observable without perturbing it. The design
//! follows the tuning workflow of Monniaux's parallel-Astrée report: record
//! *where* iterations are spent, *which* strategy fired, and *why* the
//! scheduler fell back, then read it all from one JSON document.
//!
//! Two implementations of [`Recorder`] exist:
//!
//! - [`NullRecorder`]: every hook is an empty default method and
//!   [`Recorder::enabled`] is `false`, so instrumented call sites guard with
//!   one cached boolean and the hot path stays untouched;
//! - [`Collector`]: aggregates events into a [`Metrics`] document behind a
//!   mutex and optionally keeps a human-readable per-iteration trace.
//!
//! The JSON schema (`astree-metrics/1`) is documented field by field in the
//! repository's `DESIGN.md`.

pub mod events;
pub mod json;
pub mod stream;

pub use json::Json;
pub use stream::{Fanout, StreamSink, EVENT_SCHEMA};

use std::collections::BTreeMap;
use std::sync::Mutex;

/// The schema identifier emitted at the top of every metrics document.
pub const SCHEMA: &str = "astree-metrics/1";

/// Fixpoint phase of one loop iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Plain-union iteration (delayed widening / stabilization grace).
    Union,
    /// Widening with thresholds.
    Widen,
    /// Threshold-free widening after the hard iteration cap.
    WidenTop,
    /// Decreasing (narrowing) iteration.
    Narrow,
}

impl Phase {
    /// Stable lower-case name used in traces and the JSON document.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Union => "union",
            Phase::Widen => "widen",
            Phase::WidenTop => "widen-top",
            Phase::Narrow => "narrow",
        }
    }
}

/// One fixpoint iteration on one loop.
#[derive(Debug, Clone)]
pub struct LoopIterEvent<'a> {
    /// Enclosing function name.
    pub func: &'a str,
    /// Loop id (stable across runs).
    pub loop_id: u32,
    /// 1-based iteration number within this loop's fixpoint computation.
    pub iteration: u64,
    /// What the iteration did.
    pub phase: Phase,
    /// Environment cells still unstable at this iteration.
    pub unstable_cells: u64,
    /// Bounds that were widened onto a finite threshold this iteration.
    pub threshold_hits: u64,
    /// Bounds that escaped past every threshold to ±∞ this iteration.
    pub infinity_escapes: u64,
}

/// Emitted once per loop when its fixpoint computation finishes.
#[derive(Debug, Clone)]
pub struct LoopDoneEvent<'a> {
    /// Enclosing function name.
    pub func: &'a str,
    /// Loop id.
    pub loop_id: u32,
    /// Total iterations spent (unions + widenings + narrowings).
    pub iterations: u64,
    /// Iteration at which the invariant stabilized (before narrowing).
    pub stabilized_at: u64,
}

/// One alarm, with provenance: where it fired, which domain's check failed,
/// and in which loop context it stabilized.
#[derive(Debug, Clone)]
pub struct AlarmEvent<'a> {
    /// Enclosing function name.
    pub func: &'a str,
    /// Statement id.
    pub stmt: u32,
    /// Source line.
    pub line: u32,
    /// Alarm kind slug (e.g. `div_by_zero`).
    pub kind: &'a str,
    /// The base domain whose check could not prove the operation safe.
    pub domain: &'static str,
    /// Statement context (pretty-printed expression).
    pub context: &'a str,
    /// Innermost loop the alarm was found under, if any.
    pub loop_id: Option<u32>,
    /// Checking-phase iteration at which the alarm surfaced (unroll passes
    /// count from 1; the post-fixpoint invariant replay comes after them).
    pub iteration: Option<u64>,
}

/// One parallel slice of a sliced stage.
#[derive(Debug, Clone)]
pub struct SliceEvent {
    /// Stage sequence number (per analysis, 1-based).
    pub stage: u64,
    /// Slice index within the stage.
    pub index: usize,
    /// Statements in the slice.
    pub stmts: usize,
    /// Wall time of the slice.
    pub nanos: u64,
}

/// One finished batch job.
#[derive(Debug, Clone)]
pub struct BatchJobEvent<'a> {
    /// Job name.
    pub name: &'a str,
    /// `done`, `failed`, `panicked` or `timed-out`.
    pub status: &'a str,
    /// Failure detail, when any.
    pub reason: Option<&'a str>,
    /// Wall time the job occupied a worker.
    pub wall_nanos: u64,
    /// Worker index that ran the job.
    pub worker: usize,
    /// Alarm count, when the job completed.
    pub alarms: Option<u64>,
}

/// Invariant-cache counters for one analysis run.
///
/// Emitted once per run by the analysis session when a cache store is
/// attached; the [`Collector`] sums runs field-wise, so a batch over a shared
/// store reports fleet-wide totals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Whole-program entries replayed verbatim (warm runs).
    pub full_hits: u64,
    /// Runs that found no whole-program entry.
    pub misses: u64,
    /// Functions whose stored loop invariants were installed as seeds.
    pub seeded_functions: u64,
    /// Functions with no usable stored invariants (stale or never seen).
    pub invalidated_functions: u64,
    /// Loop invariants reused after a one-pass soundness check.
    pub loops_replayed: u64,
    /// Loop invariants recomputed by fixpoint iteration.
    pub loops_solved: u64,
    /// Loops warm-started from a per-loop seed (the function's closure
    /// fingerprint missed, but the loop's stored invariant verified as a
    /// post-fixpoint).
    pub loops_seeded: u64,
    /// Cache files evicted to keep the store under its size bound.
    pub evictions: u64,
    /// Cache files rejected as corrupt or truncated (clean cold fallback).
    pub corrupt_files: u64,
    /// Bytes read from cache files.
    pub bytes_read: u64,
    /// Bytes written to cache files.
    pub bytes_written: u64,
    /// Wall time spent decoding and replaying stored results.
    pub replay_nanos: u64,
    /// Estimated analysis time avoided (stored cold time minus replay time).
    pub saved_nanos: u64,
}

impl CacheCounters {
    /// Field-wise sum.
    pub fn add(&mut self, o: &CacheCounters) {
        self.full_hits += o.full_hits;
        self.misses += o.misses;
        self.seeded_functions += o.seeded_functions;
        self.invalidated_functions += o.invalidated_functions;
        self.loops_replayed += o.loops_replayed;
        self.loops_solved += o.loops_solved;
        self.loops_seeded += o.loops_seeded;
        self.evictions += o.evictions;
        self.corrupt_files += o.corrupt_files;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
        self.replay_nanos += o.replay_nanos;
        self.saved_nanos += o.saved_nanos;
    }

    /// Field-wise saturating difference (`self` at a later time minus an
    /// earlier snapshot of the same cumulative counters).
    pub fn since(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            full_hits: self.full_hits.saturating_sub(earlier.full_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            seeded_functions: self.seeded_functions.saturating_sub(earlier.seeded_functions),
            invalidated_functions: self
                .invalidated_functions
                .saturating_sub(earlier.invalidated_functions),
            loops_replayed: self.loops_replayed.saturating_sub(earlier.loops_replayed),
            loops_solved: self.loops_solved.saturating_sub(earlier.loops_solved),
            loops_seeded: self.loops_seeded.saturating_sub(earlier.loops_seeded),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            corrupt_files: self.corrupt_files.saturating_sub(earlier.corrupt_files),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            replay_nanos: self.replay_nanos.saturating_sub(earlier.replay_nanos),
            saved_nanos: self.saved_nanos.saturating_sub(earlier.saved_nanos),
        }
    }
}

/// Persistent-map sharing counters for one analysis run.
///
/// Emitted once per run by the analysis session; the totals cover the main
/// thread and every worker slice (per-thread counters are drained once per
/// slice and summed at the merge). The [`Collector`] sums runs field-wise.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PmapCounters {
    /// Tree nodes allocated (every path copy and rebalance).
    pub nodes_allocated: u64,
    /// Binary merge operations started (`union_with` / `union_outcome`).
    pub merge_calls: u64,
    /// Merges answered entirely at the root by pointer equality.
    pub root_shortcut_hits: u64,
    /// Shared subtrees skipped inside merges and diff traversals.
    pub interior_shortcut_hits: u64,
    /// Public operations that returned an input physically unchanged
    /// (no-op inserts, merges whose result is one of the operands).
    pub identity_preserved: u64,
    /// Node allocations served from the slab allocator's free lists
    /// instead of fresh chunk memory.
    pub nodes_recycled: u64,
    /// Bytes handed out by the node slab (fresh and recycled alike).
    pub slab_bytes_allocated: u64,
    /// Bytes returned to the node slab's free lists.
    pub slab_bytes_freed: u64,
}

impl PmapCounters {
    /// Field-wise sum.
    pub fn add(&mut self, o: &PmapCounters) {
        self.nodes_allocated += o.nodes_allocated;
        self.merge_calls += o.merge_calls;
        self.root_shortcut_hits += o.root_shortcut_hits;
        self.interior_shortcut_hits += o.interior_shortcut_hits;
        self.identity_preserved += o.identity_preserved;
        self.nodes_recycled += o.nodes_recycled;
        self.slab_bytes_allocated += o.slab_bytes_allocated;
        self.slab_bytes_freed += o.slab_bytes_freed;
    }

    /// Approximate live slab bytes over the recorded window (allocations
    /// minus frees, clamped at zero).
    pub fn bytes_live(&self) -> u64 {
        self.slab_bytes_allocated.saturating_sub(self.slab_bytes_freed)
    }
}

/// Work-stealing pool counters for one analysis run.
///
/// Emitted once per run by the analysis session when a worker pool was
/// active; the [`Collector`] keeps the last report (the pool's counters
/// are cumulative over the session).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PoolCounters {
    /// Logical workers (pool threads + the participating caller).
    pub workers: u64,
    /// Tasks pushed onto the deques over the session.
    pub tasks: u64,
    /// Tasks taken from a deque other than the claiming worker's own.
    pub steals: u64,
    /// Deepest any single deque ever got.
    pub max_queue_depth: u64,
    /// Per-worker nanoseconds spent executing tasks (index 0 = caller).
    pub busy_nanos: Vec<u64>,
}

/// Per-worker counters of one fleet run (one entry per coordinator lane).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FleetWorkerCounters {
    /// Jobs this worker completed.
    pub jobs: u64,
    /// Jobs this worker took from another worker's queue.
    pub steals: u64,
    /// Wall time the worker spent executing jobs.
    pub busy_nanos: u64,
    /// Exponentially-weighted moving average of this lane's job service
    /// time, in nanoseconds (0 until the lane completes its first job).
    /// Drives the latency-aware scatter.
    pub ewma_nanos: u64,
}

/// Process-fleet coordinator counters for one fleet run.
///
/// Emitted once per run by the fleet session; the [`Collector`] keeps the
/// last report (the counters are cumulative over the run).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FleetCounters {
    /// Worker lanes (processes, or in-process threads when `processes` is
    /// `false`).
    pub workers: u64,
    /// `true` when jobs were scattered to worker *processes*; `false` for
    /// the in-process executor.
    pub processes: bool,
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs taken from a queue other than the executing worker's own.
    pub steals: u64,
    /// Jobs re-scattered after their worker died mid-job.
    pub resent: u64,
    /// Worker processes that died mid-job (crash or lost connection).
    pub crashes: u64,
    /// Jobs killed for exceeding the per-job timeout.
    pub timeouts: u64,
    /// Dead local worker processes replaced with a fresh child.
    pub respawns: u64,
    /// Jobs answered verbatim by the shared invariant store.
    pub store_full_hits: u64,
    /// `store_get` requests served to remote workers syncing cache files
    /// over the wire.
    pub store_gets: u64,
    /// `store_put` uploads accepted from remote workers.
    pub store_puts: u64,
    /// Always 0: cross-member seed transfer no longer exists. Kept only
    /// because the `perfbench` crate still reads it.
    pub seed_hits: u64,
    /// Per-loop warm starts across all jobs.
    pub loops_seeded: u64,
    /// Per-worker breakdown, indexed by lane.
    pub per_worker: Vec<FleetWorkerCounters>,
}

/// Daemon-lifetime counters for the resident `astree serve` service.
///
/// Unlike the per-run counters above these describe the *service*, not an
/// analysis: they are cumulative from daemon start and are reported through
/// `status` responses rather than the [`Recorder`] hooks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests received (admitted or rejected).
    pub requests: u64,
    /// Requests that ran to completion and returned a `result` frame.
    pub completed: u64,
    /// Requests rejected with `overloaded` by the admission gate.
    pub rejected_overloaded: u64,
    /// Requests that failed with `bad_request` (malformed frame or program).
    pub bad_requests: u64,
    /// Requests whose analysis panicked (isolated; daemon kept serving).
    pub panicked: u64,
    /// Event frames streamed to clients.
    pub events_streamed: u64,
    /// High-water mark of concurrently admitted requests.
    pub max_inflight_seen: u64,
}

impl ServeCounters {
    /// Field-wise sum.
    pub fn add(&mut self, o: &ServeCounters) {
        self.requests += o.requests;
        self.completed += o.completed;
        self.rejected_overloaded += o.rejected_overloaded;
        self.bad_requests += o.bad_requests;
        self.panicked += o.panicked;
        self.events_streamed += o.events_streamed;
        self.max_inflight_seen = self.max_inflight_seen.max(o.max_inflight_seen);
    }

    /// Renders the counters as a JSON object (used in `status` responses).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::UInt(self.requests)),
            ("completed", Json::UInt(self.completed)),
            ("rejected_overloaded", Json::UInt(self.rejected_overloaded)),
            ("bad_requests", Json::UInt(self.bad_requests)),
            ("panicked", Json::UInt(self.panicked)),
            ("events_streamed", Json::UInt(self.events_streamed)),
            ("max_inflight_seen", Json::UInt(self.max_inflight_seen)),
        ])
    }
}

/// The telemetry sink threaded through the analysis pipeline.
///
/// Every hook has an empty default body, so implementations opt into the
/// events they care about and the no-op recorder costs one virtual call at
/// most — and instrumented sites are expected to cache [`Recorder::enabled`]
/// and skip event construction entirely when it is `false`.
pub trait Recorder: Send + Sync {
    /// `true` when events should be recorded at all.
    fn enabled(&self) -> bool {
        false
    }

    /// `true` when per-iteration human-readable tracing is on.
    fn tracing(&self) -> bool {
        false
    }

    /// One fixpoint iteration on a loop.
    fn loop_iter(&self, _e: &LoopIterEvent) {}

    /// A loop's fixpoint computation finished.
    fn loop_done(&self, _e: &LoopDoneEvent) {}

    /// Semantic unrolling applied to a loop.
    fn unroll(&self, _func: &str, _loop_id: u32, _factor: u32) {}

    /// Trace-partition fan-out observed in a function.
    fn partitions(&self, _func: &str, _live: u64) {}

    /// One timed domain operation.
    fn domain_op(&self, _domain: &'static str, _op: &'static str, _nanos: u64) {}

    /// A batched domain-operation report: `count` applications of `op`
    /// totalling `nanos`, accumulated off the hot path (e.g. per-thread
    /// saved-closure counters drained once per slice).
    fn domain_op_n(&self, _domain: &'static str, _op: &'static str, _count: u64, _nanos: u64) {}

    /// Wall time of a whole analysis phase (`iterate` / `check`).
    fn phase_time(&self, _phase: &'static str, _nanos: u64) {}

    /// An alarm was recorded (first report of its (statement, kind) pair).
    fn alarm(&self, _e: &AlarmEvent) {}

    /// A parallel slice completed.
    fn slice(&self, _e: &SliceEvent) {}

    /// A sliced stage's ordered overlay merge completed.
    fn merge(&self, _stage: u64, _slices: usize, _nanos: u64) {}

    /// A stage fell back to sequential execution.
    fn fallback(&self, _reason: &'static str) {}

    /// Work-stealing pool counters for the run (emitted once per run when
    /// a pool was active).
    fn pool(&self, _p: &PoolCounters) {}

    /// A batch job finished.
    fn batch_job(&self, _e: &BatchJobEvent) {}

    /// Fleet coordinator counters for one fleet run (emitted once per run
    /// by the fleet session).
    fn fleet(&self, _c: &FleetCounters) {}

    /// Invariant-cache counters for one analysis run (emitted once per run
    /// when a cache store is attached to the session).
    fn cache(&self, _c: &CacheCounters) {}

    /// Persistent-map sharing counters for one analysis run (emitted once
    /// per run by the analysis session).
    fn pmap(&self, _c: &PmapCounters) {}

    /// Octagon pack sizes (variable count per discovered pack), emitted
    /// once per run right after pack discovery. Feeds the pack-size
    /// histogram that backs the small-pack kernel dispatch policy.
    fn pack_sizes(&self, _sizes: &[usize]) {}

    /// Free-form trace line (only meaningful when [`Recorder::tracing`]).
    fn trace(&self, _line: &str) {}
}

/// The no-op recorder: the default everywhere, adds no observable cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// A shared no-op instance for call sites needing a `&'static dyn Recorder`.
pub static NULL: NullRecorder = NullRecorder;

// ---------------------------------------------------------------------------
// Aggregated metrics model
// ---------------------------------------------------------------------------

/// Per-loop fixpoint counters.
#[derive(Debug, Default, Clone)]
pub struct LoopMetrics {
    /// Total fixpoint iterations.
    pub iterations: u64,
    /// Plain-union iterations (delayed widening).
    pub union_iterations: u64,
    /// Widening applications (including threshold-free ones).
    pub widenings: u64,
    /// Narrowing applications.
    pub narrowings: u64,
    /// Bounds caught by a finite widening threshold.
    pub threshold_hits: u64,
    /// Bounds that escaped to ±∞.
    pub infinity_escapes: u64,
    /// Semantic unrolling factor applied.
    pub unroll_factor: u32,
    /// Iteration at which the invariant stabilized.
    pub stabilized_at: u64,
}

/// Per-function counters.
#[derive(Debug, Default, Clone)]
pub struct FunctionMetrics {
    /// Peak simultaneously-live trace partitions observed.
    pub peak_partitions: u64,
    /// Loops solved within the function, by loop id.
    pub loops: BTreeMap<u32, LoopMetrics>,
}

/// Count and wall time of one domain operation.
#[derive(Debug, Default, Clone)]
pub struct OpMetrics {
    /// Number of applications.
    pub count: u64,
    /// Total wall time.
    pub nanos: u64,
}

/// One recorded alarm with provenance (owned mirror of [`AlarmEvent`]).
#[derive(Debug, Clone)]
pub struct AlarmRecord {
    /// Enclosing function name.
    pub func: String,
    /// Statement id.
    pub stmt: u32,
    /// Source line.
    pub line: u32,
    /// Alarm kind slug.
    pub kind: String,
    /// Responsible base domain.
    pub domain: &'static str,
    /// Statement context.
    pub context: String,
    /// Innermost loop, if any.
    pub loop_id: Option<u32>,
    /// Checking-phase iteration.
    pub iteration: Option<u64>,
}

/// One recorded slice (owned mirror of [`SliceEvent`]).
#[derive(Debug, Clone)]
pub struct SliceRecord {
    /// Stage sequence number.
    pub stage: u64,
    /// Slice index within the stage.
    pub index: usize,
    /// Statements in the slice.
    pub stmts: usize,
    /// Wall time.
    pub nanos: u64,
}

/// One recorded batch job (owned mirror of [`BatchJobEvent`]).
#[derive(Debug, Clone)]
pub struct BatchJobRecord {
    /// Job name.
    pub name: String,
    /// Completion status.
    pub status: String,
    /// Failure detail.
    pub reason: Option<String>,
    /// Wall time.
    pub wall_nanos: u64,
    /// Worker index.
    pub worker: usize,
    /// Alarm count.
    pub alarms: Option<u64>,
}

/// Scheduler-side counters (parallel slicing + batch execution).
#[derive(Debug, Default, Clone)]
pub struct SchedulerMetrics {
    /// Sliced stages executed.
    pub stages: u64,
    /// Per-slice timings.
    pub slices: Vec<SliceRecord>,
    /// Ordered overlay merges performed.
    pub merges: u64,
    /// Total merge wall time.
    pub merge_nanos: u64,
    /// Fallback-to-sequential reasons, with occurrence counts.
    pub fallbacks: BTreeMap<&'static str, u64>,
    /// Batch job outcomes.
    pub batch_jobs: Vec<BatchJobRecord>,
    /// Work-stealing pool counters (absent when no pool ran).
    pub pool: Option<PoolCounters>,
}

/// The full aggregated metrics document.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    /// Per-function fixpoint counters.
    pub functions: BTreeMap<String, FunctionMetrics>,
    /// Per-domain operation counts and wall times.
    pub domains: BTreeMap<&'static str, BTreeMap<&'static str, OpMetrics>>,
    /// Analysis phase wall times.
    pub phases: BTreeMap<&'static str, u64>,
    /// Alarms with provenance, in report order.
    pub alarms: Vec<AlarmRecord>,
    /// Scheduler counters.
    pub scheduler: SchedulerMetrics,
    /// Invariant-cache counters, summed across recorded runs.
    pub cache: CacheCounters,
    /// Persistent-map sharing counters, summed across recorded runs.
    pub pmap: PmapCounters,
    /// Octagon pack-size histogram (variables per pack → pack count),
    /// summed across recorded runs. The mass at 2–3 variables is what
    /// justifies the specialized small-pack closure kernels.
    pub pack_size_histogram: BTreeMap<usize, u64>,
    /// Fleet coordinator counters (absent when no fleet ran; the last
    /// reported run wins).
    pub fleet: Option<FleetCounters>,
}

impl Metrics {
    /// Renders the document in the `astree-metrics/1` schema.
    pub fn to_json(&self) -> Json {
        let functions = Json::Obj(
            self.functions
                .iter()
                .map(|(name, f)| {
                    let loops = Json::Obj(
                        f.loops
                            .iter()
                            .map(|(id, l)| {
                                (
                                    id.to_string(),
                                    Json::obj([
                                        ("iterations", Json::UInt(l.iterations)),
                                        ("union_iterations", Json::UInt(l.union_iterations)),
                                        ("widenings", Json::UInt(l.widenings)),
                                        ("narrowings", Json::UInt(l.narrowings)),
                                        ("threshold_hits", Json::UInt(l.threshold_hits)),
                                        ("infinity_escapes", Json::UInt(l.infinity_escapes)),
                                        ("unroll_factor", Json::UInt(l.unroll_factor as u64)),
                                        ("stabilized_at", Json::UInt(l.stabilized_at)),
                                    ]),
                                )
                            })
                            .collect(),
                    );
                    (
                        name.clone(),
                        Json::obj([
                            ("peak_partitions", Json::UInt(f.peak_partitions)),
                            ("loops", loops),
                        ]),
                    )
                })
                .collect(),
        );
        let domains = Json::Obj(
            self.domains
                .iter()
                .map(|(domain, ops)| {
                    (
                        domain.to_string(),
                        Json::Obj(
                            ops.iter()
                                .map(|(op, m)| {
                                    (
                                        op.to_string(),
                                        Json::obj([
                                            ("count", Json::UInt(m.count)),
                                            ("nanos", Json::UInt(m.nanos)),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    )
                })
                .collect(),
        );
        let phases =
            Json::Obj(self.phases.iter().map(|(p, n)| (p.to_string(), Json::UInt(*n))).collect());
        let alarms = Json::Arr(
            self.alarms
                .iter()
                .map(|a| {
                    Json::obj([
                        ("func", Json::str(&a.func)),
                        ("stmt", Json::UInt(a.stmt as u64)),
                        ("line", Json::UInt(a.line as u64)),
                        ("kind", Json::str(&a.kind)),
                        ("domain", Json::str(a.domain)),
                        ("context", Json::str(&a.context)),
                        ("loop", a.loop_id.map_or(Json::Null, |l| Json::UInt(l as u64))),
                        ("iteration", a.iteration.map_or(Json::Null, Json::UInt)),
                    ])
                })
                .collect(),
        );
        let s = &self.scheduler;
        let scheduler = Json::obj([
            ("stages", Json::UInt(s.stages)),
            (
                "slices",
                Json::Arr(
                    s.slices
                        .iter()
                        .map(|sl| {
                            Json::obj([
                                ("stage", Json::UInt(sl.stage)),
                                ("index", Json::UInt(sl.index as u64)),
                                ("stmts", Json::UInt(sl.stmts as u64)),
                                ("nanos", Json::UInt(sl.nanos)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("merges", Json::UInt(s.merges)),
            ("merge_nanos", Json::UInt(s.merge_nanos)),
            (
                "fallbacks",
                Json::Obj(
                    s.fallbacks.iter().map(|(r, n)| (r.to_string(), Json::UInt(*n))).collect(),
                ),
            ),
            (
                "batch_jobs",
                Json::Arr(
                    s.batch_jobs
                        .iter()
                        .map(|j| {
                            Json::obj([
                                ("name", Json::str(&j.name)),
                                ("status", Json::str(&j.status)),
                                ("reason", j.reason.as_deref().map_or(Json::Null, Json::str)),
                                ("wall_nanos", Json::UInt(j.wall_nanos)),
                                ("worker", Json::UInt(j.worker as u64)),
                                ("alarms", j.alarms.map_or(Json::Null, Json::UInt)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "pool",
                s.pool.as_ref().map_or(Json::Null, |p| {
                    Json::obj([
                        ("workers", Json::UInt(p.workers)),
                        ("tasks", Json::UInt(p.tasks)),
                        ("steals", Json::UInt(p.steals)),
                        ("max_queue_depth", Json::UInt(p.max_queue_depth)),
                        (
                            "busy_nanos",
                            Json::Arr(p.busy_nanos.iter().map(|&n| Json::UInt(n)).collect()),
                        ),
                    ])
                }),
            ),
        ]);
        let c = &self.cache;
        let cache = Json::obj([
            ("full_hits", Json::UInt(c.full_hits)),
            ("misses", Json::UInt(c.misses)),
            ("seeded_functions", Json::UInt(c.seeded_functions)),
            ("invalidated_functions", Json::UInt(c.invalidated_functions)),
            ("loops_replayed", Json::UInt(c.loops_replayed)),
            ("loops_solved", Json::UInt(c.loops_solved)),
            ("loops_seeded", Json::UInt(c.loops_seeded)),
            ("evictions", Json::UInt(c.evictions)),
            ("corrupt_files", Json::UInt(c.corrupt_files)),
            ("bytes_read", Json::UInt(c.bytes_read)),
            ("bytes_written", Json::UInt(c.bytes_written)),
            ("replay_nanos", Json::UInt(c.replay_nanos)),
            ("saved_nanos", Json::UInt(c.saved_nanos)),
        ]);
        let p = &self.pmap;
        let pmap = Json::obj([
            ("nodes_allocated", Json::UInt(p.nodes_allocated)),
            ("merge_calls", Json::UInt(p.merge_calls)),
            ("root_shortcut_hits", Json::UInt(p.root_shortcut_hits)),
            ("interior_shortcut_hits", Json::UInt(p.interior_shortcut_hits)),
            ("identity_preserved", Json::UInt(p.identity_preserved)),
            ("nodes_recycled", Json::UInt(p.nodes_recycled)),
            ("slab_bytes_allocated", Json::UInt(p.slab_bytes_allocated)),
            ("slab_bytes_freed", Json::UInt(p.slab_bytes_freed)),
            ("bytes_live", Json::UInt(p.bytes_live())),
        ]);
        let packs = Json::obj([(
            "octagon_size_histogram",
            Json::Obj(
                self.pack_size_histogram
                    .iter()
                    .map(|(size, count)| (size.to_string(), Json::UInt(*count)))
                    .collect(),
            ),
        )]);
        let fleet = self.fleet.as_ref().map_or(Json::Null, |f| {
            Json::obj([
                ("workers", Json::UInt(f.workers)),
                ("processes", Json::Bool(f.processes)),
                ("jobs", Json::UInt(f.jobs)),
                ("steals", Json::UInt(f.steals)),
                ("resent", Json::UInt(f.resent)),
                ("crashes", Json::UInt(f.crashes)),
                ("timeouts", Json::UInt(f.timeouts)),
                ("respawns", Json::UInt(f.respawns)),
                ("store_full_hits", Json::UInt(f.store_full_hits)),
                ("store_gets", Json::UInt(f.store_gets)),
                ("store_puts", Json::UInt(f.store_puts)),
                ("loops_seeded", Json::UInt(f.loops_seeded)),
                (
                    "per_worker",
                    Json::Arr(
                        f.per_worker
                            .iter()
                            .map(|w| {
                                Json::obj([
                                    ("jobs", Json::UInt(w.jobs)),
                                    ("steals", Json::UInt(w.steals)),
                                    ("busy_nanos", Json::UInt(w.busy_nanos)),
                                    ("ewma_nanos", Json::UInt(w.ewma_nanos)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        });
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("functions", functions),
            ("domains", domains),
            ("phases", phases),
            ("alarms", alarms),
            ("scheduler", scheduler),
            ("cache", cache),
            ("pmap", pmap),
            ("packs", packs),
            ("fleet", fleet),
        ])
    }
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// The collecting recorder: aggregates every event into a [`Metrics`]
/// document and, when tracing, keeps the human-readable iteration log.
///
/// The single mutex is deliberate: telemetry runs are diagnostic runs, and
/// the per-event cost (one short critical section) is negligible next to the
/// abstract operations being measured.
#[derive(Debug, Default)]
pub struct Collector {
    metrics: Mutex<Metrics>,
    trace_on: bool,
    trace_lines: Mutex<Vec<String>>,
}

impl Collector {
    /// A collector without tracing.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// A collector that also records the per-iteration trace log.
    pub fn with_trace() -> Collector {
        Collector { trace_on: true, ..Collector::default() }
    }

    /// A copy of the aggregated metrics so far.
    pub fn snapshot(&self) -> Metrics {
        self.metrics.lock().expect("collector poisoned").clone()
    }

    /// Drains the trace log.
    pub fn take_trace(&self) -> Vec<String> {
        std::mem::take(&mut *self.trace_lines.lock().expect("collector poisoned"))
    }

    /// Renders the aggregated metrics as the `astree-metrics/1` document.
    pub fn to_json(&self) -> Json {
        self.snapshot().to_json()
    }

    fn push_trace(&self, line: String) {
        self.trace_lines.lock().expect("collector poisoned").push(line);
    }
}

impl Recorder for Collector {
    fn enabled(&self) -> bool {
        true
    }

    fn tracing(&self) -> bool {
        self.trace_on
    }

    fn loop_iter(&self, e: &LoopIterEvent) {
        {
            let mut m = self.metrics.lock().expect("collector poisoned");
            let l = m
                .functions
                .entry(e.func.to_string())
                .or_default()
                .loops
                .entry(e.loop_id)
                .or_default();
            l.iterations += 1;
            match e.phase {
                Phase::Union => l.union_iterations += 1,
                Phase::Widen | Phase::WidenTop => l.widenings += 1,
                Phase::Narrow => l.narrowings += 1,
            }
            l.threshold_hits += e.threshold_hits;
            l.infinity_escapes += e.infinity_escapes;
        }
        if self.trace_on {
            self.push_trace(format!(
                "[{}] loop {} iter {:>3} {:<9} unstable={} hits={} escapes={}",
                e.func,
                e.loop_id,
                e.iteration,
                e.phase.as_str(),
                e.unstable_cells,
                e.threshold_hits,
                e.infinity_escapes,
            ));
        }
    }

    fn loop_done(&self, e: &LoopDoneEvent) {
        {
            let mut m = self.metrics.lock().expect("collector poisoned");
            let l = m
                .functions
                .entry(e.func.to_string())
                .or_default()
                .loops
                .entry(e.loop_id)
                .or_default();
            l.stabilized_at = e.stabilized_at;
        }
        if self.trace_on {
            self.push_trace(format!(
                "[{}] loop {} stable after {} iteration(s) ({} total)",
                e.func, e.loop_id, e.stabilized_at, e.iterations,
            ));
        }
    }

    fn unroll(&self, func: &str, loop_id: u32, factor: u32) {
        let mut m = self.metrics.lock().expect("collector poisoned");
        m.functions
            .entry(func.to_string())
            .or_default()
            .loops
            .entry(loop_id)
            .or_default()
            .unroll_factor = factor;
    }

    fn partitions(&self, func: &str, live: u64) {
        let mut m = self.metrics.lock().expect("collector poisoned");
        let f = m.functions.entry(func.to_string()).or_default();
        f.peak_partitions = f.peak_partitions.max(live);
    }

    fn domain_op(&self, domain: &'static str, op: &'static str, nanos: u64) {
        let mut m = self.metrics.lock().expect("collector poisoned");
        let e = m.domains.entry(domain).or_default().entry(op).or_default();
        e.count += 1;
        e.nanos += nanos;
    }

    fn domain_op_n(&self, domain: &'static str, op: &'static str, count: u64, nanos: u64) {
        if count == 0 {
            return;
        }
        let mut m = self.metrics.lock().expect("collector poisoned");
        let e = m.domains.entry(domain).or_default().entry(op).or_default();
        e.count += count;
        e.nanos += nanos;
    }

    fn phase_time(&self, phase: &'static str, nanos: u64) {
        let mut m = self.metrics.lock().expect("collector poisoned");
        *m.phases.entry(phase).or_insert(0) += nanos;
    }

    fn alarm(&self, e: &AlarmEvent) {
        {
            let mut m = self.metrics.lock().expect("collector poisoned");
            m.alarms.push(AlarmRecord {
                func: e.func.to_string(),
                stmt: e.stmt,
                line: e.line,
                kind: e.kind.to_string(),
                domain: e.domain,
                context: e.context.to_string(),
                loop_id: e.loop_id,
                iteration: e.iteration,
            });
        }
        if self.trace_on {
            self.push_trace(format!(
                "[{}] alarm {} at line {} ({}): {}",
                e.func, e.kind, e.line, e.domain, e.context,
            ));
        }
    }

    fn slice(&self, e: &SliceEvent) {
        let mut m = self.metrics.lock().expect("collector poisoned");
        m.scheduler.slices.push(SliceRecord {
            stage: e.stage,
            index: e.index,
            stmts: e.stmts,
            nanos: e.nanos,
        });
    }

    fn merge(&self, _stage: u64, slices: usize, nanos: u64) {
        let mut m = self.metrics.lock().expect("collector poisoned");
        m.scheduler.stages += 1;
        m.scheduler.merges += slices as u64;
        m.scheduler.merge_nanos += nanos;
    }

    fn fallback(&self, reason: &'static str) {
        {
            let mut m = self.metrics.lock().expect("collector poisoned");
            *m.scheduler.fallbacks.entry(reason).or_insert(0) += 1;
        }
        if self.trace_on {
            self.push_trace(format!("scheduler: sequential fallback ({reason})"));
        }
    }

    fn pool(&self, p: &PoolCounters) {
        {
            let mut m = self.metrics.lock().expect("collector poisoned");
            m.scheduler.pool = Some(p.clone());
        }
        if self.trace_on {
            self.push_trace(format!(
                "pool: workers={} tasks={} steals={} max_depth={}",
                p.workers, p.tasks, p.steals, p.max_queue_depth,
            ));
        }
    }

    fn batch_job(&self, e: &BatchJobEvent) {
        let mut m = self.metrics.lock().expect("collector poisoned");
        m.scheduler.batch_jobs.push(BatchJobRecord {
            name: e.name.to_string(),
            status: e.status.to_string(),
            reason: e.reason.map(|s| s.to_string()),
            wall_nanos: e.wall_nanos,
            worker: e.worker,
            alarms: e.alarms,
        });
    }

    fn cache(&self, c: &CacheCounters) {
        {
            let mut m = self.metrics.lock().expect("collector poisoned");
            m.cache.add(c);
        }
        if self.trace_on {
            self.push_trace(format!(
                "cache: full_hits={} misses={} seeded={} replayed={} solved={} loop_seeded={} \
                 evictions={} corrupt={}",
                c.full_hits,
                c.misses,
                c.seeded_functions,
                c.loops_replayed,
                c.loops_solved,
                c.loops_seeded,
                c.evictions,
                c.corrupt_files,
            ));
        }
    }

    fn pmap(&self, c: &PmapCounters) {
        {
            let mut m = self.metrics.lock().expect("collector poisoned");
            m.pmap.add(c);
        }
        if self.trace_on {
            self.push_trace(format!(
                "pmap: allocated={} recycled={} merges={} root_hits={} interior_hits={} \
                 identity={} bytes_live={}",
                c.nodes_allocated,
                c.nodes_recycled,
                c.merge_calls,
                c.root_shortcut_hits,
                c.interior_shortcut_hits,
                c.identity_preserved,
                c.bytes_live(),
            ));
        }
    }

    fn pack_sizes(&self, sizes: &[usize]) {
        {
            let mut m = self.metrics.lock().expect("collector poisoned");
            for &s in sizes {
                *m.pack_size_histogram.entry(s).or_insert(0) += 1;
            }
        }
        if self.trace_on {
            self.push_trace(format!("packs: octagon_sizes={sizes:?}"));
        }
    }

    fn fleet(&self, c: &FleetCounters) {
        {
            let mut m = self.metrics.lock().expect("collector poisoned");
            m.fleet = Some(c.clone());
        }
        if self.trace_on {
            self.push_trace(format!(
                "fleet: workers={} jobs={} steals={} resent={} crashes={} store_hits={} \
                 store_gets={} store_puts={}",
                c.workers,
                c.jobs,
                c.steals,
                c.resent,
                c.crashes,
                c.store_full_hits,
                c.store_gets,
                c.store_puts,
            ));
        }
    }

    fn trace(&self, line: &str) {
        if self.trace_on {
            self.push_trace(line.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled() {
        assert!(!NullRecorder.enabled());
        assert!(!NULL.tracing());
        // All hooks are no-ops and must not panic.
        NULL.loop_iter(&LoopIterEvent {
            func: "main",
            loop_id: 0,
            iteration: 1,
            phase: Phase::Union,
            unstable_cells: 0,
            threshold_hits: 0,
            infinity_escapes: 0,
        });
        NULL.fallback("worker_panic");
    }

    #[test]
    fn collector_aggregates_loop_counters() {
        let c = Collector::new();
        for (i, phase) in
            [Phase::Union, Phase::Union, Phase::Widen, Phase::Narrow].into_iter().enumerate()
        {
            c.loop_iter(&LoopIterEvent {
                func: "main",
                loop_id: 3,
                iteration: i as u64 + 1,
                phase,
                unstable_cells: 2,
                threshold_hits: u64::from(phase == Phase::Widen),
                infinity_escapes: 0,
            });
        }
        c.loop_done(&LoopDoneEvent { func: "main", loop_id: 3, iterations: 4, stabilized_at: 3 });
        c.unroll("main", 3, 2);
        let m = c.snapshot();
        let l = &m.functions["main"].loops[&3];
        assert_eq!(l.iterations, 4);
        assert_eq!(l.union_iterations, 2);
        assert_eq!(l.widenings, 1);
        assert_eq!(l.narrowings, 1);
        assert_eq!(l.threshold_hits, 1);
        assert_eq!(l.stabilized_at, 3);
        assert_eq!(l.unroll_factor, 2);
    }

    #[test]
    fn collector_aggregates_domain_and_scheduler_events() {
        let c = Collector::new();
        c.domain_op("octagon", "closure", 10);
        c.domain_op("octagon", "closure", 5);
        c.domain_op("state", "widen", 7);
        c.slice(&SliceEvent { stage: 1, index: 0, stmts: 8, nanos: 100 });
        c.merge(1, 2, 50);
        c.fallback("worker_panic");
        c.fallback("worker_panic");
        c.phase_time("iterate", 1000);
        let m = c.snapshot();
        assert_eq!(m.domains["octagon"]["closure"].count, 2);
        assert_eq!(m.domains["octagon"]["closure"].nanos, 15);
        assert_eq!(m.domains["state"]["widen"].count, 1);
        assert_eq!(m.scheduler.slices.len(), 1);
        assert_eq!(m.scheduler.stages, 1);
        assert_eq!(m.scheduler.fallbacks["worker_panic"], 2);
        assert_eq!(m.phases["iterate"], 1000);
    }

    #[test]
    fn trace_lines_are_kept_only_when_tracing() {
        let quiet = Collector::new();
        quiet.trace("hidden");
        assert!(quiet.take_trace().is_empty());
        let loud = Collector::with_trace();
        loud.trace("shown");
        loud.fallback("slice_shape");
        let lines = loud.take_trace();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("slice_shape"));
    }

    #[test]
    fn json_document_matches_schema() {
        let c = Collector::new();
        c.loop_iter(&LoopIterEvent {
            func: "main",
            loop_id: 0,
            iteration: 1,
            phase: Phase::Widen,
            unstable_cells: 1,
            threshold_hits: 1,
            infinity_escapes: 0,
        });
        c.alarm(&AlarmEvent {
            func: "main",
            stmt: 7,
            line: 12,
            kind: "div_by_zero",
            domain: "int_interval",
            context: "x / y",
            loop_id: Some(0),
            iteration: Some(1),
        });
        c.batch_job(&BatchJobEvent {
            name: "gen-1",
            status: "done",
            reason: None,
            wall_nanos: 5,
            worker: 0,
            alarms: Some(1),
        });
        c.cache(&CacheCounters { full_hits: 1, saved_nanos: 500, ..CacheCounters::default() });
        c.pmap(&PmapCounters {
            nodes_allocated: 10,
            identity_preserved: 3,
            nodes_recycled: 4,
            slab_bytes_allocated: 640,
            slab_bytes_freed: 128,
            ..Default::default()
        });
        c.pack_sizes(&[2, 2, 3, 2]);
        c.fleet(&FleetCounters {
            workers: 2,
            processes: true,
            jobs: 3,
            steals: 1,
            per_worker: vec![FleetWorkerCounters {
                jobs: 2,
                steals: 1,
                busy_nanos: 9,
                ewma_nanos: 5,
            }],
            ..FleetCounters::default()
        });
        let j = c.to_json();
        assert_eq!(j.get("schema"), Some(&Json::str(SCHEMA)));
        for key in [
            "functions",
            "domains",
            "phases",
            "alarms",
            "scheduler",
            "cache",
            "pmap",
            "packs",
            "fleet",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        let rendered = j.to_string();
        assert!(rendered.contains("\"div_by_zero\""));
        assert!(rendered.contains("\"batch_jobs\""));
        assert!(rendered.contains("\"store_full_hits\""));
        assert!(rendered.contains("\"nodes_recycled\": 4"));
        assert!(rendered.contains("\"bytes_live\": 512"));
        // Histogram: three packs of 2 variables, one of 3.
        assert!(rendered.contains("\"octagon_size_histogram\""));
        assert!(rendered.contains("\"2\": 3"));
        assert!(rendered.contains("\"3\": 1"));
        // The document round-trips through a strict JSON reader shape: no
        // trailing commas, balanced braces.
        assert_eq!(rendered.matches('{').count(), rendered.matches('}').count());
    }
}
