//! The public analysis entry point: [`AnalysisSession`], a builder-style
//! session coupling a program with a configuration, an optional telemetry
//! recorder, an optional incremental invariant cache and intra-analysis
//! parallelism — all orthogonal options behind one `run()`.

use crate::alarms::Alarm;
use crate::cache::{
    config_fingerprint, loops_in_preorder, packs_fingerprint, InvariantStore, Seed, SeedOrigin,
    StoreKey,
};
use crate::census::Census;
use crate::config::AnalysisConfig;
use crate::iterator::{Iter, Mode};
use crate::packs::Packs;
use crate::state::AbsState;
use astree_ir::{
    func_fingerprints, globals_fingerprint, loop_fingerprints, program_fingerprint, FuncId, LoopId,
    Program, StmtId,
};
use astree_memory::{CellLayout, LayoutConfig};
use astree_obs::{CacheCounters, PmapCounters, PoolCounters, Recorder, NULL};
use astree_sched::WorkerPool;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aggregated statistics of one analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisStats {
    /// Wall time of the invariant-generation phase. On a cache replay this
    /// is the *stored cold-run* time, so throughput comparisons (e.g. the
    /// `jobs_scaling` bench) stay meaningful; the actual replay cost is in
    /// [`AnalysisStats::time_replay`].
    pub time_iterate: Duration,
    /// Wall time of the checking phase (stored cold-run time on a replay).
    pub time_check: Duration,
    /// Wall time spent replaying a cached result (zero on cold runs).
    pub time_replay: Duration,
    /// Number of abstract cells after array expansion/shrinking.
    pub cells: usize,
    /// Octagon packs used.
    pub octagon_packs: usize,
    /// Octagon packs that actually improved the analysis (Sect. 7.2.2).
    pub useful_octagon_packs: Vec<usize>,
    /// Decision-tree packs used.
    pub dtree_packs: usize,
    /// Ellipsoid filter instances detected.
    pub ellipse_packs: usize,
    /// Total widening/union loop iterations.
    pub loop_iterations: u64,
    /// Total abstract statement interpretations.
    pub stmts_interpreted: u64,
    /// Peak trace partitions.
    pub peak_partitions: usize,
    /// A proxy for analyzer memory: peak live abstract-environment entries
    /// touched (cells × loop invariants kept).
    pub invariant_cells: usize,
    /// Statement stages executed by parallel slicing (0 when `jobs` is 1).
    pub parallel_stages: u64,
    /// Total worker slices run across all parallel stages.
    pub parallel_slices: u64,
    /// Loops solved by fixpoint iteration in *this* run.
    pub loops_solved: u64,
    /// Loops whose invariant was reused from a verified whole-function
    /// cache seed.
    pub loops_replayed: u64,
    /// Loops seeded from a per-loop candidate that passed the post-fixpoint
    /// acceptance check (edited functions whose loops did not change).
    pub loops_seeded: u64,
    /// Loops re-solved during the checking pass because the stored
    /// invariant did not cover the arriving context (nested loops are
    /// re-solved per outer iteration in iteration mode, so the stored
    /// invariant describes only the *last* visit's context).
    pub loops_rechecked: u64,
}

/// How the incremental cache participated in one analysis run.
#[derive(Debug, Clone, Default)]
pub struct CacheReport {
    /// `true` when the session had a cache store attached.
    pub enabled: bool,
    /// `true` when the whole stored result was replayed verbatim (no
    /// abstract interpretation ran).
    pub full_hit: bool,
    /// Functions whose stored invariants were installed as seeds.
    pub seeded_functions: usize,
    /// Functions the warm store could not seed (edited, or transitively
    /// calling something edited).
    pub invalidated_functions: usize,
    /// Loops solved by full fixpoint iteration, by enclosing function.
    pub loops_solved_by_function: BTreeMap<String, u64>,
    /// Loops replayed from verified seeds, by enclosing function.
    pub loops_replayed_by_function: BTreeMap<String, u64>,
}

/// The result of an analysis.
#[derive(Debug)]
pub struct AnalysisResult {
    /// All alarms (empty means the program is proven free of run-time
    /// errors under the environment assumptions).
    pub alarms: Vec<Alarm>,
    /// Statistics.
    pub stats: AnalysisStats,
    /// Census of the main loop invariant (the first top-level loop of the
    /// entry function), when the program has one.
    pub main_census: Option<Census>,
    /// The invariant at the main loop head.
    pub main_invariant: Option<AbsState>,
    /// Cache participation report.
    pub cache: CacheReport,
    /// Joined abstract state per statement from the Check pass, present only
    /// when [`AnalysisConfig::collect_stmt_invariants`] was set. A statement
    /// absent from the map is claimed unreachable. Consumed by the
    /// differential soundness oracle (`astree-oracle`).
    pub stmt_invariants: Option<HashMap<StmtId, AbsState>>,
}

/// Builder for an [`AnalysisSession`]; see [`AnalysisSession::builder`].
pub struct AnalysisSessionBuilder<'a> {
    program: &'a Program,
    config: AnalysisConfig,
    recorder: &'a dyn Recorder,
    cache: Option<Arc<InvariantStore>>,
    jobs: Option<usize>,
    pool: Option<&'a WorkerPool>,
}

impl<'a> AnalysisSessionBuilder<'a> {
    /// Sets the analysis configuration (default: [`AnalysisConfig::default`]).
    pub fn config(mut self, config: AnalysisConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a telemetry recorder (default: the no-op recorder).
    pub fn recorder(mut self, rec: &'a dyn Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// Attaches an incremental invariant cache store.
    pub fn cache(mut self, store: Arc<InvariantStore>) -> Self {
        self.cache = Some(store);
        self
    }

    /// Sets the intra-analysis worker count (overrides the configuration's
    /// `jobs`, regardless of the `config`/`jobs` call order).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Hands the session an external, already-warm [`WorkerPool`] instead
    /// of letting it construct (and tear down) its own. The session clamps
    /// its effective `jobs` to the pool's worker count, and per-run pool
    /// counters are reported as deltas over the pool's cumulative totals,
    /// so a long-lived pool (the `serve` daemon's) can be shared by many
    /// sessions — concurrently: [`WorkerPool::scatter`] takes `&self`.
    pub fn pool(mut self, pool: &'a WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Finalizes the session.
    pub fn build(self) -> AnalysisSession<'a> {
        let mut config = self.config;
        if let Some(jobs) = self.jobs {
            config.jobs = jobs;
        }
        if let Some(pool) = self.pool {
            config.jobs = config.jobs.min(pool.workers()).max(1);
        }
        AnalysisSession {
            program: self.program,
            config,
            recorder: self.recorder,
            cache: self.cache,
            pool: self.pool,
        }
    }
}

/// An analysis session: one program plus everything orthogonal to it —
/// configuration, telemetry, incremental cache, parallelism.
///
/// See the [crate root](crate) for an end-to-end example.
pub struct AnalysisSession<'a> {
    program: &'a Program,
    config: AnalysisConfig,
    recorder: &'a dyn Recorder,
    cache: Option<Arc<InvariantStore>>,
    pool: Option<&'a WorkerPool>,
}

impl<'a> AnalysisSession<'a> {
    /// Starts building a session for `program`.
    pub fn builder(program: &'a Program) -> AnalysisSessionBuilder<'a> {
        AnalysisSessionBuilder {
            program,
            config: AnalysisConfig::default(),
            recorder: &NULL,
            cache: None,
            jobs: None,
            pool: None,
        }
    }

    /// The effective configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Runs the analysis: replay a stored whole-program result when the
    /// cache has an exact match, otherwise run both phases (iteration with
    /// any verified seeds installed, then checking) and update the store.
    pub fn run(&self) -> AnalysisResult {
        let t_start = Instant::now();
        let rec = self.recorder;
        let layout = CellLayout::new(
            self.program,
            &LayoutConfig { shrink_threshold: self.config.shrink_threshold },
        );
        let packs = Packs::discover(self.program, &layout, &self.config);

        let mut report = CacheReport { enabled: self.cache.is_some(), ..CacheReport::default() };
        let mut run_counters = CacheCounters::default();
        let mut seeds: HashMap<LoopId, Seed> = HashMap::new();
        let mut cache_ctx: Option<(StoreKey, u64, Vec<u64>, CacheCounters)> = None;

        if let Some(store) = &self.cache {
            let key = StoreKey {
                layout_fp: globals_fingerprint(self.program),
                packs_fp: packs_fingerprint(&packs),
                config_fp: config_fingerprint(&self.config),
            };
            let program_fp = program_fingerprint(self.program);
            let store_before = store.counters();
            // A verbatim replay carries no per-statement states, so the
            // collection flag forces the full pipeline (seeds still apply).
            let full_hit = if self.config.collect_stmt_invariants {
                None
            } else {
                store.lookup_full(&key, program_fp, &layout, &packs)
            };
            if let Some(hit) = full_hit {
                let time_replay = t_start.elapsed();
                let mut stats = hit.stats;
                stats.time_replay = time_replay;
                report.full_hit = true;
                run_counters.full_hits = 1;
                run_counters.replay_nanos = time_replay.as_nanos() as u64;
                let cold = stats.time_iterate + stats.time_check;
                run_counters.saved_nanos =
                    cold.as_nanos().saturating_sub(time_replay.as_nanos()) as u64;
                let io = store.counters().since(&store_before);
                store.absorb_run(&run_counters);
                run_counters.bytes_read += io.bytes_read;
                run_counters.bytes_written += io.bytes_written;
                run_counters.corrupt_files += io.corrupt_files;
                run_counters.evictions += io.evictions;
                if rec.enabled() {
                    rec.phase_time("replay", time_replay.as_nanos() as u64);
                    rec.cache(&run_counters);
                }
                return AnalysisResult {
                    alarms: hit.alarms,
                    stats,
                    main_census: hit.census,
                    main_invariant: hit.invariant,
                    cache: report,
                    stmt_invariants: None,
                };
            }
            run_counters.misses = 1;
            let fps = func_fingerprints(self.program);
            let had_seeds = store.has_seeds(&key);
            for (fi, func) in self.program.funcs.iter().enumerate() {
                match store.lookup_seeds(&key, fps[fi], &layout, &packs) {
                    Some(stored) => {
                        let loop_ids = loops_in_preorder(func);
                        for (ordinal, st) in stored {
                            if let Some(&lid) = loop_ids.get(ordinal as usize) {
                                seeds.insert(lid, Seed { state: st, origin: SeedOrigin::Func });
                            }
                        }
                        report.seeded_functions += 1;
                    }
                    None => {
                        if had_seeds {
                            report.invalidated_functions += 1;
                        }
                        // The function (or a callee) changed. Fall back to
                        // its loops whose local fingerprint still matches.
                        let loop_ids = loops_in_preorder(func);
                        if loop_ids.is_empty() {
                            continue;
                        }
                        let loop_fps = loop_fingerprints(self.program, FuncId(fi as u32), &fps);
                        for (ordinal, &lid) in loop_ids.iter().enumerate() {
                            let Some(&lfp) = loop_fps.get(ordinal) else {
                                continue;
                            };
                            if let Some(st) = store.lookup_loop_seed(&key, lfp, &layout, &packs) {
                                seeds.insert(lid, Seed { state: st, origin: SeedOrigin::Loop });
                            }
                        }
                    }
                }
            }
            run_counters.seeded_functions = report.seeded_functions as u64;
            run_counters.invalidated_functions = report.invalidated_functions as u64;
            cache_ctx = Some((key, program_fp, fps, store_before));
        }

        // One persistent work-stealing pool for the whole session (both
        // phases): stages pay queue pushes, not thread spawns. An external
        // pool (the daemon's warm one) is reused as-is; otherwise one is
        // created only when `jobs > 1` *and* only after the cache-hit early
        // return — a `--jobs 1` session or a replay spawns no threads.
        let own_pool = match self.pool {
            Some(_) => None,
            None => (self.config.jobs > 1).then(|| WorkerPool::new(self.config.jobs)),
        };
        let pool: Option<&WorkerPool> = self.pool.or(own_pool.as_ref());
        // Pool counters are cumulative over the pool's lifetime; snapshot
        // them so a shared pool reports per-run deltas.
        let pool_before = pool.map(|p| p.stats());
        // Reset the thread-local fast-path counters so a previous analysis
        // on this thread (with telemetry off) cannot leak into this run.
        let _ = astree_domains::take_saved_closures();
        let _ = astree_pmap::take_stats();
        // Arm (or, for the CI differential, disarm) the pointer shortcuts on
        // the calling thread; worker slices re-arm their own threads from the
        // config. Restored below so concurrent sessions on this thread (e.g.
        // the test harness) are not affected. The flag never changes results
        // — it is excluded from the cache fingerprint.
        let prev_shortcuts = astree_pmap::set_ptr_shortcuts(!self.config.debug_no_ptr_shortcuts);
        let prev_kernels = astree_domains::set_generic_kernels(self.config.debug_generic_kernels);

        let mut iter = Iter::with_recorder(self.program, &layout, &packs, &self.config, rec);
        iter.pool = pool;
        iter.seeds = seeds;

        let t0 = Instant::now();
        let _final_state = iter.run_mode(Mode::Iterate);
        let time_iterate = t0.elapsed();

        let t1 = Instant::now();
        let _ = iter.run_mode(Mode::Check);
        let time_check = t1.elapsed();

        let saved_closures = astree_domains::take_saved_closures();
        let mut pmap_stats = astree_pmap::take_stats();
        pmap_stats.absorb(&iter.pmap_worker_stats);
        astree_pmap::set_ptr_shortcuts(prev_shortcuts);
        astree_domains::set_generic_kernels(prev_kernels);
        if rec.enabled() {
            rec.phase_time("iterate", time_iterate.as_nanos() as u64);
            rec.phase_time("check", time_check.as_nanos() as u64);
            if saved_closures > 0 {
                rec.domain_op_n("octagon", "closure_saved", saved_closures, 0);
            }
            rec.pmap(&PmapCounters {
                nodes_allocated: pmap_stats.nodes_allocated,
                merge_calls: pmap_stats.merge_calls,
                root_shortcut_hits: pmap_stats.root_shortcut_hits,
                interior_shortcut_hits: pmap_stats.interior_shortcut_hits,
                identity_preserved: pmap_stats.identity_preserved,
                nodes_recycled: pmap_stats.nodes_recycled,
                slab_bytes_allocated: pmap_stats.slab_bytes_allocated,
                slab_bytes_freed: pmap_stats.slab_bytes_freed,
            });
            let oct_sizes: Vec<usize> = packs.octagons.iter().map(|p| p.cells.len()).collect();
            rec.pack_sizes(&oct_sizes);
            if let Some(pool) = pool {
                let s = match &pool_before {
                    Some(before) => pool.stats().since(before),
                    None => pool.stats(),
                };
                rec.pool(&PoolCounters {
                    workers: s.workers as u64,
                    tasks: s.tasks,
                    steals: s.steals,
                    max_queue_depth: s.max_queue_depth,
                    busy_nanos: s.busy_nanos,
                });
            }
        }

        // The main loop: the first loop of the entry function.
        let main_loop = first_loop_id(self.program);
        let main_invariant = main_loop.and_then(|id| iter.invariants.get(&id).cloned());
        let main_census = main_invariant.as_ref().map(|s| Census::of_state(s, &layout, &packs));

        let useful: Vec<usize> =
            iter.oct_useful.iter().enumerate().filter(|(_, n)| **n > 0).map(|(i, _)| i).collect();
        let invariant_cells: usize = iter.invariants.values().map(|s| s.env.len()).sum::<usize>();

        let stats = AnalysisStats {
            time_iterate,
            time_check,
            time_replay: Duration::ZERO,
            cells: layout.num_cells(),
            octagon_packs: packs.octagons.len(),
            useful_octagon_packs: useful,
            dtree_packs: packs.dtrees.len(),
            ellipse_packs: packs.ellipses.len(),
            loop_iterations: iter.stats.loop_iterations,
            stmts_interpreted: iter.stats.stmts_interpreted,
            peak_partitions: iter.stats.peak_partitions,
            invariant_cells,
            parallel_stages: iter.stats.par_stages,
            parallel_slices: iter.stats.par_slices,
            loops_solved: iter.loops_solved,
            loops_replayed: iter.loops_replayed,
            loops_seeded: iter.loops_seeded,
            loops_rechecked: iter.loops_rechecked,
        };
        report.loops_solved_by_function = std::mem::take(&mut iter.solved_by_func);
        report.loops_replayed_by_function = std::mem::take(&mut iter.replayed_by_func);
        let alarms = std::mem::take(&mut iter.sink).into_sorted();

        if let (Some(store), Some((key, program_fp, fps, store_before))) = (&self.cache, cache_ctx)
        {
            let mut seeds_out: Vec<(u64, Vec<(u32, AbsState)>)> =
                Vec::with_capacity(self.program.funcs.len());
            let mut loop_seeds_out: Vec<(u64, AbsState)> = Vec::new();
            for (fi, func) in self.program.funcs.iter().enumerate() {
                let loop_ids = loops_in_preorder(func);
                let mut loops = Vec::new();
                for (ordinal, lid) in loop_ids.iter().enumerate() {
                    if let Some(inv) = iter.invariants.get(lid) {
                        loops.push((ordinal as u32, inv.clone()));
                    }
                }
                if !loop_ids.is_empty() {
                    let loop_fps = loop_fingerprints(self.program, FuncId(fi as u32), &fps);
                    for (ordinal, lid) in loop_ids.iter().enumerate() {
                        if let (Some(inv), Some(&lfp)) =
                            (iter.invariants.get(lid), loop_fps.get(ordinal))
                        {
                            loop_seeds_out.push((lfp, inv.clone()));
                        }
                    }
                }
                seeds_out.push((fps[fi], loops));
            }
            store.update(
                &key,
                program_fp,
                &alarms,
                main_census,
                main_invariant.as_ref(),
                &stats,
                &seeds_out,
                &loop_seeds_out,
            );
            run_counters.loops_replayed = stats.loops_replayed;
            run_counters.loops_solved = stats.loops_solved;
            run_counters.loops_seeded = stats.loops_seeded;
            let io = store.counters().since(&store_before);
            store.absorb_run(&run_counters);
            run_counters.bytes_read += io.bytes_read;
            run_counters.bytes_written += io.bytes_written;
            run_counters.corrupt_files += io.corrupt_files;
            run_counters.evictions += io.evictions;
            if rec.enabled() {
                rec.cache(&run_counters);
            }
        }

        let stmt_invariants =
            self.config.collect_stmt_invariants.then(|| std::mem::take(&mut iter.stmt_invariants));

        AnalysisResult {
            alarms,
            stats,
            main_census,
            main_invariant,
            cache: report,
            stmt_invariants,
        }
    }
}

/// The id of the entry function's main loop: the first top-level
/// constant-true (reactive) loop, else the first top-level loop.
fn first_loop_id(program: &Program) -> Option<astree_ir::LoopId> {
    let entry = program.func(program.entry);
    for s in &entry.body {
        if let astree_ir::StmtKind::While(id, c, _) = &s.kind {
            if matches!(c, astree_ir::Expr::Int(v, _) if *v != 0) {
                return Some(*id);
            }
        }
    }
    for s in &entry.body {
        if let astree_ir::StmtKind::While(id, _, _) = &s.kind {
            return Some(*id);
        }
    }
    // Fall back to the first loop anywhere.
    let mut found = None;
    for f in &program.funcs {
        astree_ir::stmt::for_each_stmt(&f.body, &mut |s| {
            if found.is_none() {
                if let astree_ir::StmtKind::While(id, _, _) = &s.kind {
                    found = Some(*id);
                }
            }
        });
        if found.is_some() {
            break;
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use astree_frontend::Frontend;

    fn analyze(src: &str) -> AnalysisResult {
        let p = Frontend::new().compile_str(src).expect("compiles");
        AnalysisSession::builder(&p).build().run()
    }

    #[test]
    fn clean_straightline_program() {
        let r = analyze("int x; void main(void) { x = 1 + 2; }");
        assert!(r.alarms.is_empty(), "{:?}", r.alarms);
    }

    #[test]
    fn certain_division_by_zero_is_reported() {
        let r = analyze("int x; int d; void main(void) { d = 0; x = 10 / d; }");
        assert_eq!(r.alarms.len(), 1, "{:?}", r.alarms);
        assert_eq!(r.alarms[0].kind, crate::alarms::AlarmKind::DivByZero);
    }

    #[test]
    fn guarded_division_is_clean() {
        let r = analyze(
            r#"
            volatile int in; int x;
            void main(void) {
                __astree_input_int(in, -100, 100);
                int d = in;
                if (d > 0) { x = 10 / d; }
            }
        "#,
        );
        assert!(r.alarms.is_empty(), "{:?}", r.alarms);
    }

    #[test]
    fn guarded_accumulator_is_clean() {
        // An accumulator guarded against growth: intervals + thresholds
        // prove it bounded.
        let r = analyze(
            r#"
            int i; int sum;
            void main(void) {
                sum = 0;
                for (i = 0; i < 100; i++) {
                    if (sum < 10000) { sum = sum + i; }
                }
            }
        "#,
        );
        assert!(r.alarms.is_empty(), "{:?}", r.alarms);
    }

    #[test]
    fn unrolling_proves_small_accumulators() {
        // An unguarded accumulator needs full semantic unrolling
        // (Sect. 7.1.1): with the default factor it alarms, fully unrolled
        // it is proven exact.
        let src = r#"
            int i; int sum;
            void main(void) {
                sum = 0;
                for (i = 0; i < 5; i++) { sum = sum + i; }
            }
        "#;
        let p = Frontend::new().compile_str(src).unwrap();
        let default = AnalysisSession::builder(&p).build().run();
        assert_eq!(default.alarms.len(), 1, "{:?}", default.alarms);
        let mut cfg = AnalysisConfig::default();
        cfg.loop_unroll = 6;
        let unrolled = AnalysisSession::builder(&p).config(cfg).build().run();
        assert!(unrolled.alarms.is_empty(), "{:?}", unrolled.alarms);
    }

    #[test]
    fn reactive_loop_with_inputs() {
        let r = analyze(
            r#"
            volatile int in; int x;
            void main(void) {
                __astree_input_int(in, 0, 10);
                while (1) {
                    x = in;
                    __astree_wait();
                }
            }
        "#,
        );
        assert!(r.alarms.is_empty(), "{:?}", r.alarms);
        assert!(r.main_census.is_some());
    }

    #[test]
    fn unbounded_counter_overflows_without_clock() {
        // A counter incremented every cycle: bounded only thanks to the
        // clocked domain and the max operating time.
        let src = r#"
            int ticks;
            void main(void) {
                ticks = 0;
                while (1) {
                    ticks = ticks + 1;
                    __astree_wait();
                }
            }
        "#;
        let p = Frontend::new().compile_str(src).unwrap();
        let with_clock = AnalysisSession::builder(&p).build().run();
        assert!(with_clock.alarms.is_empty(), "{:?}", with_clock.alarms);
        let mut cfg = AnalysisConfig::default();
        cfg.enable_clocked = false;
        let without = AnalysisSession::builder(&p).config(cfg).build().run();
        assert_eq!(without.alarms.len(), 1, "{:?}", without.alarms);
        assert_eq!(without.alarms[0].kind, crate::alarms::AlarmKind::IntOverflow);
    }

    #[test]
    fn stats_are_populated() {
        let r =
            analyze("int x; int y; void main(void) { x = y + 1; while (x < 10) { x = x + 1; } }");
        assert!(r.stats.cells >= 2);
        assert!(r.stats.loop_iterations > 0);
        assert!(r.stats.stmts_interpreted > 0);
        assert!(r.stats.loops_solved > 0);
        assert_eq!(r.stats.loops_replayed, 0, "no cache attached");
        assert!(!r.cache.enabled);
    }

    #[test]
    fn builder_jobs_overrides_config_in_any_order() {
        let p = Frontend::new().compile_str("int x; void main(void) { x = 1; }").unwrap();
        let s = AnalysisSession::builder(&p).jobs(3).config(AnalysisConfig::default()).build();
        assert_eq!(s.config().jobs, 3);
        let s = AnalysisSession::builder(&p).config(AnalysisConfig::default()).jobs(2).build();
        assert_eq!(s.config().jobs, 2);
    }
}
