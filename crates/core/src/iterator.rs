//! The iterator: abstract execution by induction on the abstract syntax
//! (paper Sect. 5.3–5.5 and 7.1).
//!
//! Two modes share the same transfer functions:
//!
//! - **iteration mode** computes loop invariants by unrolled first
//!   iterations (Sect. 7.1.1), plain unions for the first iterations
//!   (delayed widening, Sect. 7.1.3), widening with thresholds
//!   (Sect. 7.1.2), optional float-bound perturbation (Sect. 7.1.4), and
//!   narrowing; no warnings are emitted;
//! - **checking mode** replays the program from the stored invariants and
//!   issues one alarm per operator application that may err.
//!
//! Calls are analyzed by abstract inlining (context-sensitive polyvariant
//! analysis, Sect. 5.4); by-reference parameters are substituted by the
//! actual l-values. Trace partitioning (Sect. 7.1.5) delays branch merging
//! inside user-selected functions until the function's return point.

use crate::alarms::AlarmSink;
use crate::cache::{Seed, SeedOrigin};
use crate::config::AnalysisConfig;
use crate::packs::Packs;
use crate::state::{float_view, meet_cell_with_float, AbsState, PackEnv};
use crate::substitute::substitute_block;
use astree_domains::dtree::Lattice;
use astree_domains::{Ellipsoid, ErrFlags, FloatItv, Thresholds};
use astree_ir::{
    Binop, Block, CallArg, Expr, FuncId, LoopId, Lvalue, Program, ScalarType, Stmt, StmtId,
    StmtKind, Unop, VarId,
};
use astree_memory::{CellId, CellLayout, CellVal, Evaluator};
use astree_obs::{AlarmEvent, LoopDoneEvent, LoopIterEvent, Phase, Recorder, SliceEvent};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Analysis mode (paper Sect. 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Generate invariants; no warnings.
    Iterate,
    /// Replay from invariants; collect alarms.
    Check,
}

/// Running counters exposed in the final statistics.
#[derive(Debug, Default, Clone)]
pub struct IterStats {
    /// Total widening/union iterations across all loops.
    pub loop_iterations: u64,
    /// Total statements interpreted (both modes).
    pub stmts_interpreted: u64,
    /// Peak number of simultaneously live trace partitions.
    pub peak_partitions: usize,
    /// Number of statement stages executed by parallel slicing.
    pub par_stages: u64,
    /// Total slices run across all parallel stages.
    pub par_slices: u64,
}

impl IterStats {
    /// Folds a worker iterator's counters into this one.
    fn merge_worker(&mut self, o: &IterStats) {
        self.loop_iterations += o.loop_iterations;
        self.stmts_interpreted += o.stmts_interpreted;
        self.peak_partitions = self.peak_partitions.max(o.peak_partitions);
        self.par_stages += o.par_stages;
        self.par_slices += o.par_slices;
    }
}

/// The iterator.
pub struct Iter<'a> {
    program: &'a Program,
    layout: &'a CellLayout,
    packs: &'a Packs,
    config: &'a AnalysisConfig,
    eval: Evaluator<'a>,
    mode: Mode,
    /// Loop-head invariants, filled in iteration mode, replayed in checking
    /// mode.
    pub invariants: HashMap<LoopId, AbsState>,
    /// Candidate loop invariants from the incremental cache. A candidate is
    /// accepted iff one body pass proves it is still a post-fixpoint
    /// (`entry ⊔ F(seed) ⊑ seed`); otherwise the loop is solved cold.
    /// Per-loop candidates get one rescue attempt: the failed pass's
    /// iterate `entry ⊔ F(seed)` is itself re-checked with the same
    /// predicate (one Kleene step absorbs drift from the edit outside the
    /// loop).
    pub seeds: HashMap<LoopId, Seed>,
    /// Per-loop *coverage witness*: the post-unroll entry iterate (`base`)
    /// of the **last** iteration-mode visit, recorded alongside the stored
    /// invariant. The checking pass replays a loop against the stored
    /// invariant only when its own post-unroll iterate is below this
    /// witness — the stored invariant is a post-fixpoint of the body
    /// transfer above it, so it soundly describes exactly those contexts.
    /// Any other context (nested loops re-solved per outer iteration,
    /// shared bodies reached from several call statements) is re-solved by
    /// [`Iter::recheck_invariant`]. The invariant itself cannot serve as
    /// the witness: the loop-done reduction preserves concretizations but
    /// can tighten the invariant below `base` in the abstract order, which
    /// would flag every single-visit loop as uncovered.
    pub cover: HashMap<LoopId, AbsState>,
    /// Joined abstract state observed at each statement during the Check
    /// pass, filled only when `config.collect_stmt_invariants` is set. For a
    /// `while` statement this additionally accumulates every loop-head
    /// arrival (unrolled passes and the residual invariant), matching the
    /// concrete interpreter's per-arrival observer.
    pub stmt_invariants: HashMap<StmtId, AbsState>,
    /// Loops solved by full widening/narrowing iteration (iteration mode).
    pub loops_solved: u64,
    /// Loops whose cached invariant was verified by a single body pass.
    pub loops_replayed: u64,
    /// Loops seeded from a per-loop candidate that passed the acceptance
    /// check.
    pub loops_seeded: u64,
    /// Loops re-solved during the checking pass because the stored
    /// invariant did not cover the arriving context (see
    /// [`Iter::recheck_invariant`]).
    pub loops_rechecked: u64,
    /// Per-function breakdown of `loops_solved`.
    pub solved_by_func: BTreeMap<String, u64>,
    /// Per-function breakdown of `loops_replayed`.
    pub replayed_by_func: BTreeMap<String, u64>,
    /// The alarm sink (checking mode).
    pub sink: AlarmSink,
    /// Per-octagon-pack usefulness counters (Sect. 7.2.2).
    pub oct_useful: Vec<usize>,
    /// Counters.
    pub stats: IterStats,
    /// Persistent-map counters drained from worker slices (the main thread's
    /// own counters stay in its thread-local and are drained by the session).
    pub(crate) pmap_worker_stats: astree_pmap::PmapStats,
    /// Whether the top-level dispatch may be sliced across workers
    /// (Monniaux's partition-and-join scheme); disabled inside workers.
    par_enabled: bool,
    /// The persistent work-stealing pool slices run on. `None` falls back
    /// to the per-stage fork-join scatter (and disables nested slicing).
    pub(crate) pool: Option<&'a astree_sched::WorkerPool>,
    /// Per-statement cost (nanos) measured the last time the statement ran
    /// in a staged block; feeds cost-guided chunking and the fat-statement
    /// test for nested slicing. Purely a scheduling hint: any chunking of a
    /// parallel stage merges identically.
    stmt_cost: HashMap<StmtId, u64>,
    /// How many `if` branch levels below a staged block the current block
    /// sits at (0 = the staged block itself). Nested slicing recurses one
    /// level only.
    branch_level: u32,
    /// Whether the statement currently executing on the main iterator was
    /// measured fat enough (cost share ≥ `nested_cost_fraction`) for its
    /// branch blocks to be worth slicing.
    nested_fat: bool,
    /// Cached stage plans, keyed by the first statement of the block.
    plans: HashMap<StmtId, Arc<crate::parallel::BlockPlan>>,
    /// Telemetry sink (the no-op recorder by default).
    rec: &'a dyn Recorder,
    /// Cached `rec.enabled()`: hot paths pay one branch, not a virtual call.
    rec_on: bool,
    /// Function-name stack for event and cache-counter attribution.
    func_stack: Vec<&'a str>,
    /// `(loop id, checking iteration)` context stack (maintained when
    /// `rec_on`), for alarm provenance.
    loop_stack: Vec<(u32, u64)>,
}

/// The set of partitions flowing through a block, plus the accumulated
/// return state of the enclosing function.
struct Flow {
    parts: Vec<AbsState>,
    returned: AbsState,
}

/// Everything one slice of a parallel stage sends back to the merger.
struct SliceOut {
    /// The slice's post-state (`None` when it went to bottom or split into
    /// partitions — shapes the overlay model cannot express).
    post: Option<AbsState>,
    returned: AbsState,
    invariants: HashMap<LoopId, AbsState>,
    cover: HashMap<LoopId, AbsState>,
    sink: AlarmSink,
    stats: IterStats,
    oct_useful: Vec<usize>,
    wall: Duration,
    /// Per-statement cost, fed back into the chunking heuristic.
    stmt_nanos: Vec<(StmtId, u64)>,
    /// Octagon closures the ref fast paths skipped on this slice's thread.
    saved_closures: u64,
    /// Persistent-map counters drained from this slice's thread.
    pmap_stats: astree_pmap::PmapStats,
    loops_solved: u64,
    loops_replayed: u64,
    loops_seeded: u64,
    loops_rechecked: u64,
    solved_by_func: BTreeMap<String, u64>,
    replayed_by_func: BTreeMap<String, u64>,
}

impl<'a> Iter<'a> {
    /// Creates an iterator over the given program and configuration, with
    /// the no-op telemetry recorder.
    pub fn new(
        program: &'a Program,
        layout: &'a CellLayout,
        packs: &'a Packs,
        config: &'a AnalysisConfig,
    ) -> Self {
        Iter::with_recorder(program, layout, packs, config, &astree_obs::NULL)
    }

    /// Creates an iterator that reports telemetry events to `rec`.
    pub fn with_recorder(
        program: &'a Program,
        layout: &'a CellLayout,
        packs: &'a Packs,
        config: &'a AnalysisConfig,
        rec: &'a dyn Recorder,
    ) -> Self {
        let mut eval = Evaluator::new(program, layout, config.max_clock);
        eval.linearize = config.enable_linearization;
        eval.clocked = config.enable_clocked;
        Iter {
            program,
            layout,
            packs,
            config,
            eval,
            mode: Mode::Iterate,
            invariants: HashMap::new(),
            cover: HashMap::new(),
            seeds: HashMap::new(),
            stmt_invariants: HashMap::new(),
            loops_solved: 0,
            loops_replayed: 0,
            loops_seeded: 0,
            loops_rechecked: 0,
            solved_by_func: BTreeMap::new(),
            replayed_by_func: BTreeMap::new(),
            sink: AlarmSink::new(),
            oct_useful: vec![0; packs.octagons.len()],
            stats: IterStats::default(),
            pmap_worker_stats: astree_pmap::PmapStats::default(),
            // Parallel slices run on worker `Iter`s whose per-statement
            // captures would be dropped at merge; collection forces the
            // sequential interpreter (alarms are identical either way).
            par_enabled: config.jobs > 1 && !config.collect_stmt_invariants,
            pool: None,
            stmt_cost: HashMap::new(),
            branch_level: 0,
            nested_fat: true,
            plans: HashMap::new(),
            rec,
            rec_on: rec.enabled(),
            func_stack: Vec::new(),
            loop_stack: Vec::new(),
        }
    }

    /// The function currently being analyzed, for event attribution.
    fn cur_func(&self) -> &'a str {
        match self.func_stack.last() {
            Some(name) => name,
            None => self.program.func(self.program.entry).name.as_str(),
        }
    }

    /// Nanoseconds elapsed since `t0` (telemetry helper).
    fn nanos_since(t0: Instant) -> u64 {
        t0.elapsed().as_nanos() as u64
    }

    /// Runs one full pass from the entry point in the given mode and returns
    /// the final state.
    pub fn run_mode(&mut self, mode: Mode) -> AbsState {
        self.mode = mode;
        let state = AbsState::initial(self.layout, self.packs);
        self.exec_function(state, self.program.entry, None, 0)
    }

    // ----- functions -------------------------------------------------------

    fn exec_function(
        &mut self,
        state: AbsState,
        func: FuncId,
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) -> AbsState {
        assert!(depth < 128, "call depth exceeded (recursion should be rejected)");
        let f = self.program.func(func);
        let partitioning = self.config.partitioned_functions.contains(&f.name);
        let body = f.body.clone();
        let bot = state.bottom_like();
        self.func_stack.push(self.program.func(func).name.as_str());
        let mut flow = Flow { parts: vec![state], returned: bot };
        self.exec_block(&mut flow, &body, ret_target, partitioning, depth);
        let mut out = flow.returned;
        for p in flow.parts {
            out = out.join(&p, self.layout, self.packs);
        }
        self.func_stack.pop();
        out
    }

    fn exec_block(
        &mut self,
        flow: &mut Flow,
        block: &Block,
        ret_target: Option<&Lvalue>,
        partitioning: bool,
        depth: u32,
    ) {
        // Top-level blocks (the entry dispatch and the synchronous loop's
        // body) may be sliced across workers when `jobs > 1`. Branch blocks
        // of a fat `if` may be sliced one level deeper (nested slicing),
        // their sub-slices becoming stealable tasks on the pool.
        let nest_ok = self.branch_level == 0
            || (self.config.nested_slicing
                && self.pool.is_some()
                && self.branch_level == 1
                && self.nested_fat);
        if self.par_enabled
            && depth == 0
            && !partitioning
            && nest_ok
            && block.len() >= 2
            && flow.parts.len() == 1
            && !flow.parts[0].is_bottom()
        {
            self.exec_block_staged(flow, block, ret_target, depth);
            return;
        }
        for s in block {
            // A lone statement is the whole block's cost: always fat.
            self.nested_fat = true;
            self.exec_stmt(flow, s, ret_target, partitioning, depth);
            flow.parts.retain(|p| !p.is_bottom());
            if flow.parts.is_empty() {
                return;
            }
        }
    }

    /// Cost share of `s` within `block` per the last measurements, deciding
    /// whether its branch blocks are worth nested slicing. Unmeasured blocks
    /// (first iteration, cold cache) count as fat — recursing is how the
    /// costs get measured.
    fn is_fat(&self, block: &Block, s: &Stmt) -> bool {
        let total: u64 =
            block.iter().map(|s| self.stmt_cost.get(&s.id).copied().unwrap_or(0)).sum();
        if total == 0 {
            return true;
        }
        let cost = self.stmt_cost.get(&s.id).copied().unwrap_or(0);
        cost as f64 >= self.config.nested_cost_fraction.clamp(0.0, 1.0) * total as f64
    }

    /// Executes a block stage by stage, slicing parallel stages across
    /// `config.jobs` workers. Statement order inside each stage's merge is
    /// fixed, so the result is bit-identical to the sequential interpreter
    /// for every worker count.
    fn exec_block_staged(
        &mut self,
        flow: &mut Flow,
        block: &Block,
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) {
        let plan = match self.plans.get(&block[0].id) {
            Some(p) => Arc::clone(p),
            None => {
                let p = Arc::new(crate::parallel::plan_block(
                    self.program,
                    self.layout,
                    self.packs,
                    block,
                ));
                self.plans.insert(block[0].id, Arc::clone(&p));
                p
            }
        };
        if !plan.parallel {
            // No stage can be sliced: plain sequential execution.
            for s in block {
                self.exec_stmt_timed(flow, block, s, ret_target, depth);
                flow.parts.retain(|p| !p.is_bottom());
                if flow.parts.is_empty() {
                    return;
                }
            }
            return;
        }
        for stage in &plan.stages {
            let run_par = stage.parallel
                && self.config.jobs > 1
                && flow.parts.len() == 1
                && !flow.parts[0].is_bottom();
            if !run_par || !self.exec_stage_parallel(flow, block, &plan, stage, ret_target, depth) {
                for s in &block[stage.range()] {
                    self.exec_stmt_timed(flow, block, s, ret_target, depth);
                    flow.parts.retain(|p| !p.is_bottom());
                    if flow.parts.is_empty() {
                        return;
                    }
                }
            }
        }
    }

    /// Executes one statement of a staged block on the main iterator,
    /// recording its cost (the chunking heuristic for the next encounter —
    /// staged blocks re-run every fixpoint iteration) and flagging whether
    /// it is fat enough for nested slicing of its branch blocks.
    fn exec_stmt_timed(
        &mut self,
        flow: &mut Flow,
        block: &Block,
        s: &Stmt,
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) {
        self.nested_fat = self.is_fat(block, s);
        let t0 = Instant::now();
        self.exec_stmt(flow, s, ret_target, false, depth);
        self.stmt_cost.insert(s.id, Self::nanos_since(t0));
    }

    /// Runs one parallel stage: the statement range is chunked into
    /// contiguous slices, each slice is analyzed from the shared pre-state by
    /// a fresh worker iterator, and the slice deltas are overlaid in slice
    /// order. Returns `false` (leaving the flow untouched) when the stage
    /// must be replayed sequentially instead.
    fn exec_stage_parallel(
        &mut self,
        flow: &mut Flow,
        block: &Block,
        plan: &crate::parallel::BlockPlan,
        stage: &astree_sched::Stage,
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) -> bool {
        let stmts = &block[stage.range()];
        // Chunk by last-measured statement cost when available (zero-cost
        // vectors fall back to equal counts); chunks above the cost-fraction
        // threshold are split further into stealable tasks.
        let costs: Vec<u64> =
            stmts.iter().map(|s| self.stmt_cost.get(&s.id).copied().unwrap_or(0)).collect();
        let chunks = astree_sched::cost_chunk_ranges(
            stmts.len(),
            self.config.jobs,
            Some(&costs),
            self.config.nested_cost_fraction,
        );
        if chunks.len() < 2 {
            if self.rec_on {
                self.rec.fallback("too_few_chunks");
            }
            return false;
        }
        let pre = flow.parts[0].clone();
        let mode = self.mode;
        let program = self.program;
        let layout = self.layout;
        let packs = self.packs;
        let config = self.config;
        let seed_invariants = &self.invariants;
        let cover_map = &self.cover;
        let cache_seeds = &self.seeds;
        let panic_slice = self.config.debug_panic_slice;

        // Each worker runs under `catch_unwind`: a panicking slice must not
        // take down the analysis, it only forces the sequential replay below
        // (which is safe — nothing of the stage has been committed yet).
        // `AssertUnwindSafe` is sound here because a panicked slice's entire
        // result is discarded and the captured state is read-only.
        let worker = |ci: usize, r: std::ops::Range<usize>| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if panic_slice == Some(ci) {
                    panic!("injected slice fault (debug_panic_slice)");
                }
                // Pool threads keep their own copy of the thread-local
                // sharing flag: align it with the session's configuration on
                // every slice (the session only sets the caller's thread).
                astree_pmap::set_ptr_shortcuts(!config.debug_no_ptr_shortcuts);
                astree_domains::set_generic_kernels(config.debug_generic_kernels);
                let t0 = Instant::now();
                let mut w = Iter::new(program, layout, packs, config);
                w.par_enabled = false;
                w.mode = mode;
                // Cache seeds feed both iteration-mode solves and the
                // checking pass's context re-solves; share them either way
                // so worker and sequential solves stay identical.
                w.seeds = cache_seeds.clone();
                if mode == Mode::Check {
                    w.invariants = seed_invariants.clone();
                    w.cover = cover_map.clone();
                }
                let mut wf = Flow { parts: vec![pre.clone()], returned: pre.bottom_like() };
                let mut stmt_nanos = Vec::with_capacity(r.len());
                for s in &stmts[r] {
                    let ts = Instant::now();
                    w.exec_stmt(&mut wf, s, ret_target, false, depth);
                    stmt_nanos.push((s.id, Self::nanos_since(ts)));
                    wf.parts.retain(|p| !p.is_bottom());
                    if wf.parts.is_empty() {
                        break;
                    }
                }
                let post = if wf.parts.len() == 1 { Some(wf.parts.pop().unwrap()) } else { None };
                SliceOut {
                    post,
                    returned: wf.returned,
                    invariants: w.invariants,
                    cover: w.cover,
                    sink: w.sink,
                    stats: w.stats,
                    oct_useful: w.oct_useful,
                    wall: t0.elapsed(),
                    stmt_nanos,
                    saved_closures: astree_domains::take_saved_closures(),
                    pmap_stats: astree_pmap::take_stats(),
                    loops_solved: w.loops_solved,
                    loops_replayed: w.loops_replayed,
                    loops_seeded: w.loops_seeded,
                    loops_rechecked: w.loops_rechecked,
                    solved_by_func: w.solved_by_func,
                    replayed_by_func: w.replayed_by_func,
                }
            }))
            .ok()
        };
        let results = if config.debug_inline_slices {
            chunks.iter().cloned().enumerate().map(|(ci, r)| worker(ci, r)).collect()
        } else {
            match self.pool {
                Some(pool) => pool.scatter_seeded(config.debug_force_steal, chunks.clone(), worker),
                None => astree_sched::scatter(chunks.clone(), worker),
            }
        };

        if results.iter().any(|r| r.is_none()) {
            if self.rec_on {
                self.rec.fallback("worker_panic");
            }
            return false;
        }
        let results: Vec<SliceOut> =
            results.into_iter().map(|r| r.expect("checked above")).collect();

        // Any slice that went to bottom, split into partitions, or produced a
        // return state falls outside the overlay model: replay sequentially.
        if results.iter().any(|r| r.post.is_none() || !r.returned.is_bottom()) {
            if self.rec_on {
                self.rec.fallback("slice_shape");
            }
            return false;
        }

        let stage_no = self.stats.par_stages + 1;
        if self.rec_on {
            for (ci, r) in results.iter().enumerate() {
                self.rec.slice(&SliceEvent {
                    stage: stage_no,
                    index: ci,
                    stmts: chunks[ci].len(),
                    nanos: r.wall.as_nanos() as u64,
                });
            }
        }
        let t_merge = self.rec_on.then(Instant::now);
        let mut merged = pre.clone();
        let mut saved_closures = 0u64;
        for (ci, out) in results.into_iter().enumerate() {
            let post = out.post.expect("checked above");
            let r = &chunks[ci];
            let eff = crate::parallel::slice_effects(
                &plan.footprints[stage.start + r.start..stage.start + r.end],
            );
            merged.overlay_from(&pre, &post, &eff, self.layout);
            self.loops_rechecked += out.loops_rechecked;
            if mode == Mode::Iterate {
                for (id, inv) in out.invariants {
                    self.invariants.insert(id, inv);
                }
                for (id, c) in out.cover {
                    self.cover.insert(id, c);
                }
                self.loops_solved += out.loops_solved;
                self.loops_replayed += out.loops_replayed;
                self.loops_seeded += out.loops_seeded;
                for (k, v) in out.solved_by_func {
                    *self.solved_by_func.entry(k).or_insert(0) += v;
                }
                for (k, v) in out.replayed_by_func {
                    *self.replayed_by_func.entry(k).or_insert(0) += v;
                }
            }
            self.sink.absorb(out.sink);
            self.stats.merge_worker(&out.stats);
            for (pi, n) in out.oct_useful.into_iter().enumerate() {
                self.oct_useful[pi] += n;
            }
            for (sid, ns) in out.stmt_nanos {
                self.stmt_cost.insert(sid, ns);
            }
            saved_closures += out.saved_closures;
            self.pmap_worker_stats.absorb(&out.pmap_stats);
        }
        if self.rec_on && saved_closures > 0 {
            self.rec.domain_op_n("octagon", "closure_saved", saved_closures, 0);
        }
        if let Some(t0) = t_merge {
            self.rec.merge(stage_no, chunks.len(), Self::nanos_since(t0));
        }
        self.stats.par_stages += 1;
        self.stats.par_slices += chunks.len() as u64;
        flow.parts[0] = merged;
        true
    }

    fn exec_stmt(
        &mut self,
        flow: &mut Flow,
        s: &Stmt,
        ret_target: Option<&Lvalue>,
        partitioning: bool,
        depth: u32,
    ) {
        self.stats.stmts_interpreted += flow.parts.len() as u64;
        self.stats.peak_partitions = self.stats.peak_partitions.max(flow.parts.len());
        if self.rec_on && flow.parts.len() > 1 {
            self.rec.partitions(self.cur_func(), flow.parts.len() as u64);
        }
        if self.config.collect_stmt_invariants && self.mode == Mode::Check {
            for p in &flow.parts {
                self.note_stmt_state(s.id, p);
            }
        }
        match &s.kind {
            StmtKind::Assign(lv, e) => {
                for p in &mut flow.parts {
                    *p = self.transfer_assign(p, lv, e, s);
                }
            }
            StmtKind::If(c, then_b, else_b) => {
                if self.mode == Mode::Check {
                    // Check the condition against every live partition (the
                    // alarm sink deduplicates per statement and kind).
                    let parts = std::mem::take(&mut flow.parts);
                    for p in &parts {
                        self.check_expr(Some(p), c, s);
                    }
                    flow.parts = parts;
                }
                let parts = std::mem::take(&mut flow.parts);
                let mut merged: Vec<AbsState> = Vec::new();
                // Branch blocks sit one slice level deeper; `nested_fat`
                // (set for this `if` by the staged caller) must be restored
                // before each branch since a sliced branch clobbers it.
                let fat = self.nested_fat;
                self.branch_level += 1;
                for p in parts {
                    let t_in = self.state_guard(&p, c, true);
                    let f_in = self.state_guard(&p, c, false);
                    let mut tf = Flow { parts: vec![t_in], returned: p.bottom_like() };
                    self.nested_fat = fat;
                    self.exec_block(&mut tf, then_b, ret_target, partitioning, depth);
                    let mut ff = Flow { parts: vec![f_in], returned: p.bottom_like() };
                    self.nested_fat = fat;
                    self.exec_block(&mut ff, else_b, ret_target, partitioning, depth);
                    flow.returned = flow.returned.join(&tf.returned, self.layout, self.packs);
                    flow.returned = flow.returned.join(&ff.returned, self.layout, self.packs);
                    if partitioning {
                        merged.extend(tf.parts);
                        merged.extend(ff.parts);
                    } else {
                        let mut j = p.bottom_like();
                        for q in tf.parts.into_iter().chain(ff.parts) {
                            j = j.join(&q, self.layout, self.packs);
                        }
                        merged.push(j);
                    }
                }
                self.branch_level -= 1;
                // Cap the number of live partitions.
                if merged.len() > self.config.max_partitions {
                    let mut j = merged[0].bottom_like();
                    for q in merged {
                        j = j.join(&q, self.layout, self.packs);
                    }
                    merged = vec![j];
                }
                flow.parts = merged;
            }
            StmtKind::While(id, c, body) => {
                // Loops merge partitions (partitioning applies to acyclic
                // code; the invariant is one abstract element).
                let mut entry = flow.parts[0].bottom_like();
                for p in std::mem::take(&mut flow.parts) {
                    entry = entry.join(&p, self.layout, self.packs);
                }
                let exit = match self.mode {
                    Mode::Iterate => self.solve_loop(entry, *id, c, body, ret_target, depth),
                    Mode::Check => self.check_loop(entry, *id, c, body, s, ret_target, depth),
                };
                flow.parts = vec![exit];
            }
            StmtKind::Call(ret, callee, args) => {
                let parts = std::mem::take(&mut flow.parts);
                for p in parts {
                    let out = self.transfer_call(p, *callee, args, ret.as_ref(), s, depth);
                    flow.parts.push(out);
                }
            }
            StmtKind::Return(e) => {
                let parts = std::mem::take(&mut flow.parts);
                for p in parts {
                    let p = match (e, ret_target) {
                        (Some(e), Some(target)) => self.transfer_assign(&p, target, e, s),
                        (Some(e), None) => {
                            if self.mode == Mode::Check {
                                self.check_expr(Some(&p), e, s);
                            }
                            p
                        }
                        _ => p,
                    };
                    flow.returned = flow.returned.join(&p, self.layout, self.packs);
                }
            }
            StmtKind::Wait => {
                for p in &mut flow.parts {
                    p.env = self.eval.tick(&p.env);
                    if self.config.enable_clocked {
                        p.tick_relational();
                    }
                }
            }
            StmtKind::Assume(c) => {
                for p in flow.parts.iter_mut() {
                    *p = self.state_guard(p, c, true);
                }
            }
            StmtKind::ReadVolatile(v) => {
                for p in &mut flow.parts {
                    *p = self.transfer_read_volatile(p, *v);
                }
            }
        }
    }

    // ----- loops (Sect. 5.5, 7.1) ------------------------------------------

    /// Post-fixpoint test with a `ptr_eq` fast path: once merges preserve
    /// identity, a stabilized iterate is *physically* equal to its
    /// predecessor and the structural `leq` walk can be skipped outright.
    /// The fast path is an implication (`ptr_eq ⇒ leq`), never a semantic
    /// change; `debug_no_ptr_shortcuts` (via the thread-local pmap flag)
    /// forces the walk for the CI differential.
    fn post_fixpoint(fval: &AbsState, inv: &AbsState) -> bool {
        (astree_pmap::ptr_shortcuts_enabled() && fval.ptr_eq(inv)) || fval.leq(inv)
    }

    fn solve_loop(
        &mut self,
        entry: AbsState,
        id: LoopId,
        cond: &Expr,
        body: &Block,
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) -> AbsState {
        let mut exits = entry.bottom_like();
        let mut cur = entry;
        // Semantic loop unrolling (Sect. 7.1.1).
        let unroll = self.config.unroll_for(id);
        if self.rec_on && unroll > 0 {
            self.rec.unroll(self.cur_func(), id.0, unroll);
        }
        for _ in 0..unroll {
            exits = exits.join(&self.state_guard(&cur, cond, false), self.layout, self.packs);
            let body_in = self.state_guard(&cur, cond, true);
            if body_in.is_bottom() {
                self.invariants.insert(id, body_in.bottom_like());
                // Residual unreachable in this context: a checking-mode
                // context that *does* reach the residual is uncovered.
                self.cover.insert(id, body_in.bottom_like());
                return exits;
            }
            cur = self.exec_loop_body(body_in, body, ret_target, depth);
        }
        // Widening iterations for the residual loop.
        let base = cur.clone();
        // Incremental replay: a cached candidate invariant is accepted iff
        // one body pass proves it is still a post-fixpoint of the residual
        // loop (`entry ⊔ F(seed) ⊑ seed`, sound by Tarski). A stale
        // candidate costs one pass and falls back to cold iteration.
        if self.mode == Mode::Iterate {
            if let Some(Seed { state: mut cand, origin }) = self.seeds.get(&id).cloned() {
                // A whole-function candidate either fits verbatim or not;
                // per-loop candidates get the one-step rescue (see the
                // `seeds` field).
                let attempts = if origin == SeedOrigin::Func { 1 } else { 2 };
                for attempt in 0..attempts {
                    let body_in = self.state_guard(&cand, cond, true);
                    let body_out = self.exec_loop_body(body_in, body, ret_target, depth);
                    let fval = base.join(&body_out, self.layout, self.packs);
                    if Self::post_fixpoint(&fval, &cand) {
                        match origin {
                            SeedOrigin::Func => {
                                self.loops_replayed += 1;
                                let f = self.cur_func().to_string();
                                *self.replayed_by_func.entry(f).or_insert(0) += 1;
                            }
                            SeedOrigin::Loop => self.loops_seeded += 1,
                        }
                        if self.rec_on {
                            self.rec.loop_done(&LoopDoneEvent {
                                func: self.cur_func(),
                                loop_id: id.0,
                                iterations: (attempt + 1) as u64,
                                stabilized_at: 1,
                            });
                        }
                        self.invariants.insert(id, cand.clone());
                        // The acceptance test proved `base ⊑ cand`.
                        self.cover.insert(id, base.clone());
                        return exits.join(
                            &self.state_guard(&cand, cond, false),
                            self.layout,
                            self.packs,
                        );
                    }
                    cand = fval;
                }
            }
            self.loops_solved += 1;
            let f = self.cur_func().to_string();
            *self.solved_by_func.entry(f).or_insert(0) += 1;
        }
        let mut inv = cur;
        let mut iter = 0u32;
        let mut grace = self.config.stabilization_grace;
        let mut prev_unstable = usize::MAX;
        let no_thresholds = Thresholds::none();
        let stabilized_at;
        loop {
            iter += 1;
            self.stats.loop_iterations += 1;
            let body_in = self.state_guard(&inv, cond, true);
            let mut body_out = self.exec_loop_body(body_in, body, ret_target, depth);
            self.perturb(&mut body_out);
            let fval = base.join(&body_out, self.layout, self.packs);
            if Self::post_fixpoint(&fval, &inv) {
                stabilized_at = iter as u64;
                break;
            }
            let unstable = inv.env.count_diff(&fval.env);
            let stabilizing = unstable < prev_unstable && grace > 0;
            prev_unstable = unstable;
            // Snapshot the invariant's env (cheap: persistent map) so the
            // telemetry event can classify which bounds moved and how.
            let before = self.rec_on.then(|| inv.env.clone());
            let t0 = self.rec_on.then(Instant::now);
            let phase;
            if iter <= self.config.widening_delay || stabilizing {
                if stabilizing && iter > self.config.widening_delay {
                    grace -= 1;
                }
                phase = Phase::Union;
                inv = inv.join(&fval, self.layout, self.packs);
            } else if iter <= self.config.max_iterations {
                phase = Phase::Widen;
                inv = inv.widen(&fval, self.layout, self.packs, &self.config.thresholds);
            } else {
                // Hard cap: finish with threshold-free widening.
                phase = Phase::WidenTop;
                inv = inv.widen(&fval, self.layout, self.packs, &no_thresholds);
            }
            if let (Some(before), Some(t0)) = (before, t0) {
                let op = if phase == Phase::Union { "join" } else { "widen" };
                self.rec.domain_op("state", op, Self::nanos_since(t0));
                let (threshold_hits, infinity_escapes) = self.widen_deltas(&before, &inv.env);
                self.rec.loop_iter(&LoopIterEvent {
                    func: self.cur_func(),
                    loop_id: id.0,
                    iteration: iter as u64,
                    phase,
                    unstable_cells: unstable as u64,
                    threshold_hits,
                    infinity_escapes,
                });
            }
        }
        // Narrowing iterations (Sect. 5.5).
        for k in 0..self.config.narrowing_iterations {
            let body_in = self.state_guard(&inv, cond, true);
            let body_out = self.exec_loop_body(body_in, body, ret_target, depth);
            let fval = base.join(&body_out, self.layout, self.packs);
            // Widening-overshoot correction: a physically unchanged iterate
            // cannot narrow anything (`x Δ x = x`), so skip the walk.
            if astree_pmap::ptr_shortcuts_enabled() && fval.ptr_eq(&inv) {
                continue;
            }
            let t0 = self.rec_on.then(Instant::now);
            inv = inv.narrow(&fval);
            if let Some(t0) = t0 {
                self.rec.domain_op("state", "narrow", Self::nanos_since(t0));
                self.rec.loop_iter(&LoopIterEvent {
                    func: self.cur_func(),
                    loop_id: id.0,
                    iteration: stabilized_at + k as u64 + 1,
                    phase: Phase::Narrow,
                    unstable_cells: 0,
                    threshold_hits: 0,
                    infinity_escapes: 0,
                });
            }
        }
        let t0 = self.rec_on.then(Instant::now);
        self.reduce_loop_done(&mut inv, &base.env, cond, body, depth);
        if let Some(t0) = t0 {
            self.rec.domain_op("octagon", "closure", Self::nanos_since(t0));
            self.rec.loop_done(&LoopDoneEvent {
                func: self.cur_func(),
                loop_id: id.0,
                iterations: stabilized_at + self.config.narrowing_iterations as u64,
                stabilized_at,
            });
        }
        self.invariants.insert(id, inv.clone());
        self.cover.insert(id, base);
        exits.join(&self.state_guard(&inv, cond, false), self.layout, self.packs)
    }

    /// The reduction closing a loop solve. Depth-0 loops (the synchronous
    /// loop, entry-block initialization loops) reduce the full state; loops
    /// inside callees reduce only the packs overlapping the loop's own cells
    /// (the localized loop-done reduction — cost proportional to the loop,
    /// and the statement footprint stays local, which is what lets the
    /// planner slice the top-level dispatch). Falls back to the full
    /// reduction when the loop's cell set is unbounded (call-depth cap,
    /// clock tick inside the body).
    fn reduce_loop_done(
        &mut self,
        inv: &mut AbsState,
        entry_env: &astree_memory::AbsEnv,
        cond: &Expr,
        body: &Block,
        depth: u32,
    ) {
        let cells = if depth == 0 {
            None
        } else {
            crate::parallel::loop_touched_cells(self.program, self.layout, cond, body)
        };
        match cells {
            Some(cells) => {
                let mut cells: Vec<CellId> = cells.into_iter().collect();
                // Add the cells the solve actually moved, enumerated by
                // `diff2` at cost proportional to the diff (not the
                // environment): this catches effects the syntactic walk
                // cannot attribute while keeping the reduction scope a
                // superset of the purely syntactic one. The diff is computed
                // the same way with sharing on and off, so both modes reduce
                // the same packs.
                entry_env.changed_cells(&inv.env, &mut cells);
                cells.sort_unstable();
                cells.dedup();
                inv.reduce_local(self.layout, self.packs, &cells, Some(&mut self.oct_useful));
            }
            None => {
                inv.reduce_counting(self.layout, self.packs, Some(&mut self.oct_useful));
            }
        }
    }

    /// Diffs the invariant environment across one join/widen step: a bound
    /// that moved to a finite value is a threshold hit, one that escaped to
    /// the type's extreme is an infinity escape. Driven by the changed-cell
    /// set (`diff2` skips shared subtrees wholesale), not a full env walk —
    /// bounds can only move at cells whose value changed.
    fn widen_deltas(
        &self,
        before: &astree_memory::AbsEnv,
        after: &astree_memory::AbsEnv,
    ) -> (u64, u64) {
        let mut hits = 0u64;
        let mut escapes = 0u64;
        let mut changed = Vec::new();
        before.changed_cells(after, &mut changed);
        for id in changed {
            let old = before.get(id, self.layout);
            let new = after.get(id, self.layout);
            match (old, &new) {
                (CellVal::Int(o), CellVal::Int(n)) => {
                    if n.val.lo < o.val.lo {
                        if n.val.lo == i64::MIN {
                            escapes += 1
                        } else {
                            hits += 1
                        }
                    }
                    if n.val.hi > o.val.hi {
                        if n.val.hi == i64::MAX {
                            escapes += 1
                        } else {
                            hits += 1
                        }
                    }
                }
                (CellVal::Float(o), CellVal::Float(n)) => {
                    if n.lo < o.lo {
                        if n.lo == f64::NEG_INFINITY {
                            escapes += 1
                        } else {
                            hits += 1
                        }
                    }
                    if n.hi > o.hi {
                        if n.hi == f64::INFINITY {
                            escapes += 1
                        } else {
                            hits += 1
                        }
                    }
                }
                _ => {}
            }
        }
        (hits, escapes)
    }

    /// Joins `st` into the per-statement invariant record for `id` (Check
    /// mode with `collect_stmt_invariants` only; bottom states — claimed
    /// unreachable — are skipped so absence in the map means "the analyzer
    /// claims no execution reaches this point").
    fn note_stmt_state(&mut self, id: StmtId, st: &AbsState) {
        if !self.config.collect_stmt_invariants || self.mode != Mode::Check || st.is_bottom() {
            return;
        }
        let (layout, packs) = (self.layout, self.packs);
        match self.stmt_invariants.entry(id) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let joined = e.get().join(st, layout, packs);
                e.insert(joined);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(st.clone());
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_loop(
        &mut self,
        entry: AbsState,
        id: LoopId,
        cond: &Expr,
        body: &Block,
        s: &Stmt,
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) -> AbsState {
        let mut exits = entry.bottom_like();
        let entry0 = entry.clone();
        let mut cur = entry;
        let unroll = self.config.unroll_for(id);
        for k in 0..unroll {
            if self.rec_on {
                self.loop_stack.push((id.0, k as u64 + 1));
            }
            self.check_expr(Some(&cur), cond, s);
            exits = exits.join(&self.state_guard(&cur, cond, false), self.layout, self.packs);
            let body_in = self.state_guard(&cur, cond, true);
            if body_in.is_bottom() {
                if self.rec_on {
                    self.loop_stack.pop();
                }
                return exits;
            }
            cur = self.exec_loop_body(body_in, body, ret_target, depth);
            // Each back edge of an unrolled pass arrives at the loop head
            // with `cur`; record it so the soundness oracle can check the
            // concrete per-arrival observations of early iterations.
            self.note_stmt_state(s.id, &cur);
            if self.rec_on {
                self.loop_stack.pop();
            }
        }
        let covered = self.cover.get(&id).is_some_and(|c| Self::post_fixpoint(&cur, c));
        let inv = match self.invariants.get(&id) {
            // The stored invariant is a post-fixpoint of the body transfer
            // above the recorded coverage witness, so it soundly describes
            // the residual iterations of any context at or below it.
            Some(stored) if covered => stored.clone(),
            // Uncovered context: iteration mode stores loop invariants by
            // overwrite, so a loop revisited under several contexts (nested
            // loops re-solved per outer iteration, shared bodies reached
            // from several call statements) keeps only the *last* visit's
            // invariant. Checking this context against it would be unsound
            // — reproduce the iteration-mode in-context solve instead.
            Some(_) => self.recheck_invariant(entry0, id, cond, body, ret_target, depth),
            None => cur,
        };
        // All residual loop-head arrivals (beyond the unrolled prefix) are
        // covered by the loop invariant.
        self.note_stmt_state(s.id, &inv);
        // One extra pass in checking mode from the invariant (Sect. 5.4).
        if self.rec_on {
            self.loop_stack.push((id.0, unroll as u64 + 1));
        }
        self.check_expr(Some(&inv), cond, s);
        let body_in = self.state_guard(&inv, cond, true);
        if !body_in.is_bottom() {
            let _ = self.exec_loop_body(body_in, body, ret_target, depth);
        }
        if self.rec_on {
            self.loop_stack.pop();
        }
        exits.join(&self.state_guard(&inv, cond, false), self.layout, self.packs)
    }

    /// Re-solves a loop during the checking pass, for a context the stored
    /// invariant does not cover.
    ///
    /// Iteration mode stores `invariants[id]` by overwrite, so a loop
    /// visited under several contexts keeps only the last one: a nested
    /// loop re-solved on every outer iteration ends up described by the
    /// residual outer invariant alone, losing the unrolled first outer
    /// iterations (the differential soundness oracle caught this — a
    /// concrete first-tick store escaped the claimed exit state of an inner
    /// history-shift loop). Checking an uncovered context against the
    /// stored invariant could miss real errors.
    ///
    /// The cure reproduces what iteration mode computed when it visited the
    /// loop under *this* context: run [`Iter::solve_loop`] from the same
    /// entry state, in iteration mode (alarms and per-statement captures
    /// suppressed), and hand the resulting in-context invariant to the
    /// caller's single checking pass. Because the entry state is
    /// bit-identical to the iteration-mode visit's, so is the re-solved
    /// invariant — exit states match the fixpoint phase exactly and the
    /// mismatch does not cascade into enclosing loops. The invariant and
    /// coverage maps are snapshotted around the solve: checking mode must
    /// not perturb stored results (parallel check slices drop their local
    /// maps, and sequential runs must stay bit-identical to them).
    fn recheck_invariant(
        &mut self,
        entry: AbsState,
        id: LoopId,
        cond: &Expr,
        body: &Block,
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) -> AbsState {
        let saved_invariants = self.invariants.clone();
        let saved_cover = self.cover.clone();
        // The re-solve is also counter- and telemetry-neutral: parallel
        // check slices execute from the stage's entry state, so their
        // off-footprint cells can spuriously fail the coverage test and
        // re-solve loops the sequential pass accepted (harmless — by slice
        // disjointness the re-solved invariant agrees on every cell the
        // slice touches). Letting those solves bump the widening counters
        // would break the bit-identical parallel-vs-sequential contract.
        let saved_stats = self.stats.clone();
        let saved_solved = (self.loops_solved, self.loops_replayed, self.loops_seeded);
        let saved_solved_func = self.solved_by_func.clone();
        let saved_replayed_func = self.replayed_by_func.clone();
        let prev_rec = self.rec_on;
        self.rec_on = false;
        let prev_mode = self.mode;
        self.mode = Mode::Iterate;
        let _ = self.solve_loop(entry, id, cond, body, ret_target, depth);
        self.mode = prev_mode;
        self.rec_on = prev_rec;
        let inv = self.invariants.get(&id).cloned().expect("solve_loop stores an invariant");
        self.invariants = saved_invariants;
        self.cover = saved_cover;
        self.stats = saved_stats;
        (self.loops_solved, self.loops_replayed, self.loops_seeded) = saved_solved;
        self.solved_by_func = saved_solved_func;
        self.replayed_by_func = saved_replayed_func;
        self.loops_rechecked += 1;
        inv
    }

    fn exec_loop_body(
        &mut self,
        state: AbsState,
        body: &Block,
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) -> AbsState {
        let mut flow = Flow { parts: vec![state.clone()], returned: state.bottom_like() };
        self.exec_block(&mut flow, body, ret_target, false, depth);
        // `return` inside a loop leaves the function, not the loop; the
        // returned state is handled by the caller via `flow.returned`, which
        // we conservatively fold into the enclosing function by re-joining.
        // (The family's reactive main loops do not return.)
        let mut out = state.bottom_like();
        for p in flow.parts {
            out = out.join(&p, self.layout, self.packs);
        }
        if !flow.returned.is_bottom() {
            out = out.join(&flow.returned, self.layout, self.packs);
        }
        out
    }

    /// Floating iteration perturbation (Sect. 7.1.4): inflate float bounds
    /// by a relative ε so near-stable iterates are recognized as stable.
    fn perturb(&self, state: &mut AbsState) {
        let eps = self.config.float_perturbation;
        if eps <= 0.0 || state.is_bottom() {
            return;
        }
        let updates: Vec<(CellId, CellVal)> = state
            .env
            .iter()
            .filter_map(|(id, v)| match v {
                CellVal::Float(f) if !f.is_bottom() => {
                    let lo = f.lo - eps * f.lo.abs();
                    let hi = f.hi + eps * f.hi.abs();
                    Some((*id, CellVal::Float(FloatItv::new(lo, hi))))
                }
                _ => None,
            })
            .collect();
        for (id, v) in updates {
            state.env = state.env.set(id, v);
        }
    }

    // ----- transfers ---------------------------------------------------------

    fn transfer_assign(&mut self, state: &AbsState, lv: &Lvalue, e: &Expr, s: &Stmt) -> AbsState {
        if state.is_bottom() {
            return state.clone();
        }
        let mut out = state.clone();
        // Ellipsoid pending computation at the filter group's first stmt.
        if let Some(&pi) = self.packs.ellipse_starts.get(&s.id) {
            let t0 = self.rec_on.then(Instant::now);
            let d = self.ellipse_delta(&out, pi);
            out.set_pending(pi, d);
            if let Some(t0) = t0 {
                self.rec.domain_op("ellipsoid", "delta", Self::nanos_since(t0));
            }
        }
        let (env, flags) = self.eval.assign(&state.env, lv, e);
        if self.mode == Mode::Check && !flags.is_empty() {
            self.report(s, flags, lv, Some(e));
        }
        out.env = env;
        if out.is_bottom() {
            return out;
        }
        // Relational updates.
        let r = self.eval.resolve(&state.env, lv);
        if r.strong && r.cells.len() == 1 {
            let cell = r.cells[0];
            if self.rec_on {
                let t0 = Instant::now();
                self.oct_assign(&mut out, state, cell, e);
                self.rec.domain_op("octagon", "assign", Self::nanos_since(t0));
                let t0 = Instant::now();
                self.dtree_assign(&mut out, state, cell, e);
                self.rec.domain_op("dtree", "assign", Self::nanos_since(t0));
                let t0 = Instant::now();
                self.ellipse_assign(&mut out, cell, s);
                self.rec.domain_op("ellipsoid", "commit", Self::nanos_since(t0));
            } else {
                self.oct_assign(&mut out, state, cell, e);
                self.dtree_assign(&mut out, state, cell, e);
                self.ellipse_assign(&mut out, cell, s);
            }
        } else {
            for c in &r.cells {
                out.forget_cell(*c, self.packs);
            }
        }
        out
    }

    /// The `δ` update for filter pack `pi`, evaluated in the pre-state.
    fn ellipse_delta(&self, state: &AbsState, pi: usize) -> f64 {
        let pack = &self.packs.ellipses[pi];
        let x = float_view(state.env.get(pack.x, self.layout));
        let y = float_view(state.env.get(pack.y, self.layout));
        let ell = Ellipsoid { a: pack.a, b: pack.b, k: state.ell(pi) }.reduce_from_box(x, y);
        let t_max = match &pack.t {
            None => 0.0,
            Some(t) => {
                let (v, f) = self.eval.eval(&state.env, t);
                if !f.is_empty() {
                    return f64::INFINITY;
                }
                let fv = v.as_float();
                if fv.is_bottom() || !fv.lo.is_finite() || !fv.hi.is_finite() {
                    return f64::INFINITY;
                }
                fv.lo.abs().max(fv.hi.abs())
            }
        };
        ell.delta(t_max)
    }

    /// Octagon transfer for a strong scalar assignment.
    fn oct_assign(&mut self, out: &mut AbsState, pre: &AbsState, cell: CellId, e: &Expr) {
        let Some(pids) = self.packs.oct_index.get(&cell) else { return };
        for &pi in pids {
            let slot = self.packs.oct_slot(pi, cell).expect("cell in pack");
            // Try the exact affine shapes x := ±y + [lo, hi].
            if let Some((src, neg, lo, hi)) = self.affine_shape(pre, e) {
                if let Some(src_slot) = self.packs.oct_slot(pi, src) {
                    let mut oct = out.oct(pi).clone();
                    if neg {
                        oct.assign_neg_var_plus_const(slot, src_slot, lo, hi);
                    } else {
                        oct.assign_var_plus_const(slot, src_slot, lo, hi);
                    }
                    out.set_oct(pi, oct);
                    continue;
                }
            }
            // Fallback: interval assignment.
            let v = float_view(out.env.get(cell, self.layout));
            let mut oct = out.oct(pi).clone();
            oct.assign_interval(slot, v);
            out.set_oct(pi, oct);
        }
    }

    /// Matches `±y + [lo, hi]` against `e` (evaluating the non-variable part
    /// in the pre-state); the paper's "smart" octagon assignment. For float
    /// expressions the constant range is widened by the operation's rounding
    /// error, making the real-field octagon constraint sound for the
    /// floating-point semantics (the per-operator error absorption of
    /// Sect. 6.3).
    fn affine_shape(&self, pre: &AbsState, e: &Expr) -> Option<(CellId, bool, f64, f64)> {
        let plain = |lv: &Lvalue| -> Option<CellId> {
            let r = self.eval.resolve(&pre.env, lv);
            (r.strong && r.cells.len() == 1).then(|| r.cells[0])
        };
        let eval_itv = |e: &Expr| -> Option<(f64, f64)> {
            let (v, f) = self.eval.eval(&pre.env, e);
            if !f.is_empty() {
                return None;
            }
            let itv = match v {
                astree_memory::AbsVal::Float(fv) => fv,
                astree_memory::AbsVal::Int(iv) => {
                    if iv.is_bottom() || iv.lo == i64::MIN || iv.hi == i64::MAX {
                        return None;
                    }
                    FloatItv::new(iv.lo as f64, iv.hi as f64)
                }
            };
            (itv.lo.is_finite() && itv.hi.is_finite()).then_some((itv.lo, itv.hi))
        };
        // Absolute rounding-error bound of one float operation whose result
        // is `e`'s value (zero for exact integer arithmetic).
        let round_err = |e: &Expr| -> Option<f64> {
            match e.ty() {
                ScalarType::Int(_) => Some(0.0),
                ScalarType::Float(_) => {
                    let (lo, hi) = eval_itv(e)?;
                    let m = lo.abs().max(hi.abs());
                    Some(m * (4.0 * astree_float::UNIT_ROUNDOFF) + astree_float::MIN_SUBNORMAL)
                }
            }
        };
        match e {
            Expr::Load(lv, _) => plain(lv).map(|c| (c, false, 0.0, 0.0)),
            Expr::Unop(Unop::Neg, _, a) => match &**a {
                Expr::Load(lv, _) => plain(lv).map(|c| (c, true, 0.0, 0.0)),
                _ => None,
            },
            Expr::Binop(Binop::Add, _, a, b) => {
                let err = round_err(e)?;
                match (&**a, &**b) {
                    (Expr::Load(lv, _), rest) | (rest, Expr::Load(lv, _)) => {
                        let c = plain(lv)?;
                        let (lo, hi) = eval_itv(rest)?;
                        Some((c, false, lo - err, hi + err))
                    }
                    _ => None,
                }
            }
            Expr::Binop(Binop::Sub, _, a, b) => {
                let err = round_err(e)?;
                match (&**a, &**b) {
                    (Expr::Load(lv, _), rest) => {
                        let c = plain(lv)?;
                        let (lo, hi) = eval_itv(rest)?;
                        Some((c, false, -hi - err, -lo + err))
                    }
                    (rest, Expr::Load(lv, _)) => {
                        let c = plain(lv)?;
                        let (lo, hi) = eval_itv(rest)?;
                        Some((c, true, lo - err, hi + err))
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Decision-tree transfer for a strong scalar assignment.
    fn dtree_assign(&mut self, out: &mut AbsState, pre: &AbsState, cell: CellId, e: &Expr) {
        let Some(pids) = self.packs.dtree_index.get(&cell) else { return };
        for &pi in pids {
            let pack = &self.packs.dtrees[pi];
            let tree = pre.dtree(pi).clone();
            if pack.bools.contains(&cell) {
                // b := e — split each context on the truth of e.
                let eval = &self.eval;
                let layout = self.layout;
                let env = &pre.env;
                let restrict = |value: bool| {
                    move |leaf: &PackEnv| -> PackEnv {
                        if leaf.is_bottom() {
                            return PackEnv { cells: leaf.cells.clone(), unreachable: true };
                        }
                        // Refine env with the leaf context, then guard on e.
                        let mut ctx = env.clone();
                        for (c, v) in &leaf.cells {
                            let m = ctx.get(*c, layout).meet(v);
                            if m.is_bottom() {
                                return PackEnv { cells: leaf.cells.clone(), unreachable: true };
                            }
                            ctx = ctx.set(*c, m);
                        }
                        let guarded = eval.guard(&ctx, e, value);
                        if guarded.is_bottom() {
                            PackEnv { cells: leaf.cells.clone(), unreachable: true }
                        } else {
                            PackEnv::from_env(&guarded, layout, &cells_of(leaf))
                        }
                    }
                };
                let new = tree.assign_bool(cell, &restrict(false), &restrict(true));
                out.set_dtree(pi, new);
            } else {
                // numeric := e — update the member in every context.
                let eval = &self.eval;
                let layout = self.layout;
                let env = &pre.env;
                let new = tree.map(&|leaf: &PackEnv| {
                    if leaf.is_bottom() {
                        return leaf.clone();
                    }
                    let mut ctx = env.clone();
                    for (c, v) in &leaf.cells {
                        let m = ctx.get(*c, layout).meet(v);
                        if m.is_bottom() {
                            return PackEnv { cells: leaf.cells.clone(), unreachable: true };
                        }
                        ctx = ctx.set(*c, m);
                    }
                    let (val, flags) = eval.eval(&ctx, e);
                    let new_val = if flags.is_empty() {
                        match val {
                            astree_memory::AbsVal::Int(i) => {
                                CellVal::Int(astree_domains::Clocked::of_val(i, ctx.clock))
                            }
                            astree_memory::AbsVal::Float(f) => CellVal::Float(f),
                        }
                    } else {
                        // Errors possible: fall back to the post-env value.
                        env.get(cell, layout)
                    };
                    leaf.set(cell, new_val)
                });
                out.set_dtree(pi, new);
            }
        }
    }

    /// Ellipsoid commit at the filter group's final statement.
    fn ellipse_assign(&mut self, out: &mut AbsState, cell: CellId, s: &Stmt) {
        // Default forgetting already happened via oct/dtree paths; ellipses
        // forget through `forget_cell` only on weak updates, so clear any
        // pack whose x/y was strongly overwritten, then commit pendings.
        if let Some(pids) = self.packs.ellipse_index.get(&cell) {
            for &pi in pids {
                out.set_ell(pi, f64::INFINITY);
            }
        }
        if let Some(&pi) = self.packs.ellipse_commits.get(&s.id) {
            let committed = out.pending(pi);
            out.set_ell(pi, committed);
            out.set_pending(pi, f64::INFINITY);
            // Reduce X's interval from the committed constraint
            // (the paper's post-assignment interval tightening).
            let pack = &self.packs.ellipses[pi];
            let e = Ellipsoid { a: pack.a, b: pack.b, k: committed };
            let xb = e.x_bound();
            if xb.is_finite() {
                meet_cell_with_float(&mut out.env, self.layout, pack.x, FloatItv::new(-xb, xb));
            }
            let yb = e.y_bound();
            if yb.is_finite() {
                meet_cell_with_float(&mut out.env, self.layout, pack.y, FloatItv::new(-yb, yb));
            }
        }
    }

    fn transfer_call(
        &mut self,
        state: AbsState,
        callee: FuncId,
        args: &[CallArg],
        ret: Option<&Lvalue>,
        s: &Stmt,
        depth: u32,
    ) -> AbsState {
        if state.is_bottom() {
            return state;
        }
        let f = self.program.func(callee);
        let mut cur = state;
        let mut ref_map: HashMap<VarId, Lvalue> = HashMap::new();
        for (param, arg) in f.params.iter().zip(args) {
            match arg {
                CallArg::Value(e) => {
                    let target = Lvalue::var(param.var);
                    cur = self.transfer_assign(&cur, &target, e, s);
                }
                CallArg::Ref(lv) => {
                    ref_map.insert(param.var, lv.clone());
                }
            }
        }
        if cur.is_bottom() {
            return cur;
        }
        // Abstract inlining with by-ref substitution.
        let body =
            if ref_map.is_empty() { f.body.clone() } else { substitute_block(&f.body, &ref_map) };
        let partitioning = self.config.partitioned_functions.contains(&f.name);
        self.func_stack.push(self.program.func(callee).name.as_str());
        let mut flow = Flow { parts: vec![cur.clone()], returned: cur.bottom_like() };
        self.exec_block(&mut flow, &body, ret, partitioning, depth + 1);
        self.func_stack.pop();
        let mut out = flow.returned;
        for p in flow.parts {
            out = out.join(&p, self.layout, self.packs);
        }
        out
    }

    fn transfer_read_volatile(&mut self, state: &AbsState, var: VarId) -> AbsState {
        let mut out = state.clone();
        out.env = self.eval.read_volatile(&state.env, var);
        let cell = self.layout.scalar_cell(var);
        out.forget_cell(cell, self.packs);
        // The octagon can keep the fresh interval.
        if let Some(pids) = self.packs.oct_index.get(&cell) {
            for &pi in pids.iter() {
                if let Some(slot) = self.packs.oct_slot(pi, cell) {
                    let v = float_view(out.env.get(cell, self.layout));
                    let mut oct = out.oct(pi).clone();
                    oct.assign_interval(slot, v);
                    out.set_oct(pi, oct);
                }
            }
        }
        out
    }

    // ----- guards ------------------------------------------------------------

    /// Full-state guard: environment refinement plus relational constraints.
    pub fn state_guard(&mut self, state: &AbsState, cond: &Expr, positive: bool) -> AbsState {
        if state.is_bottom() {
            return state.clone();
        }
        if !positive {
            return self.state_guard(state, &cond.negate_condition(), true);
        }
        match cond {
            Expr::Binop(Binop::LAnd, _, a, b) => {
                let s1 = self.state_guard(state, a, true);
                self.state_guard(&s1, b, true)
            }
            Expr::Binop(Binop::LOr, _, a, b) => {
                let s1 = self.state_guard(state, a, true);
                let s2 = self.state_guard(state, b, true);
                s1.join(&s2, self.layout, self.packs)
            }
            Expr::Unop(Unop::LNot, _, a)
                if matches!(&**a, Expr::Unop(Unop::LNot, _, _) | Expr::Int(..))
                    || matches!(&**a, Expr::Binop(op, _, _, _)
                        if op.is_comparison() || op.is_logical()) =>
            {
                self.state_guard(state, &a.negate_condition(), true)
            }
            _ => {
                let mut out = state.clone();
                out.env = self.eval.guard(&state.env, cond, true);
                if out.is_bottom() {
                    return out;
                }
                let t_guard = self.rec_on.then(Instant::now);
                self.oct_guard(&mut out, cond);
                self.dtree_guard(&mut out, cond, true);
                if let Some(t0) = t_guard {
                    self.rec.domain_op("octagon", "guard", Self::nanos_since(t0));
                }
                // Localized reduction: only the packs the condition touches.
                let mut cells = Vec::new();
                cond.for_each_lvalue(&mut |lv| {
                    let r = self.eval.resolve(&state.env, lv);
                    cells.extend(r.cells);
                });
                let t_red = self.rec_on.then(Instant::now);
                out.reduce_local(self.layout, self.packs, &cells, Some(&mut self.oct_useful));
                if let Some(t0) = t_red {
                    self.rec.domain_op("octagon", "closure", Self::nanos_since(t0));
                }
                out
            }
        }
    }

    /// Adds octagon constraints for atomic comparisons between pack members.
    fn oct_guard(&mut self, state: &mut AbsState, cond: &Expr) {
        let Expr::Binop(op, t, a, b) = cond else { return };
        if !op.is_comparison() {
            return;
        }
        let cell_of = |e: &Expr, st: &AbsState| -> Option<CellId> {
            match e {
                Expr::Load(lv, _) => {
                    let r = self.eval.resolve(&st.env, lv);
                    (r.strong && r.cells.len() == 1).then(|| r.cells[0])
                }
                _ => None,
            }
        };
        let (ca, cb) = (cell_of(a, state), cell_of(b, state));
        let is_int = matches!(t, ScalarType::Int(_));
        // Strictness margin: integers gain 1, floats use the closed bound.
        let margin = if is_int { 1.0 } else { 0.0 };
        match (ca, cb) {
            (Some(x), Some(y)) => {
                for (pi, (sx, sy)) in self.pack_pairs(x, y) {
                    let mut oct = state.oct(pi).clone();
                    match op {
                        Binop::Lt => oct.add_diff_le(sx, sy, -margin),
                        Binop::Le => oct.add_diff_le(sx, sy, 0.0),
                        Binop::Gt => oct.add_diff_le(sy, sx, -margin),
                        Binop::Ge => oct.add_diff_le(sy, sx, 0.0),
                        Binop::Eq => {
                            oct.add_diff_le(sx, sy, 0.0);
                            oct.add_diff_le(sy, sx, 0.0);
                        }
                        _ => {}
                    }
                    state.set_oct(pi, oct);
                }
            }
            (Some(x), None) => {
                // x op const-expr.
                if let Some((lo, hi)) = self.const_bounds(state, b) {
                    self.oct_unary_guard(state, x, *op, lo, hi, margin);
                }
            }
            (None, Some(y)) => {
                if let Some((lo, hi)) = self.const_bounds(state, a) {
                    self.oct_unary_guard(state, y, op.swap(), lo, hi, margin);
                }
            }
            _ => {}
        }
    }

    /// Pack and slot pairs shared by two cells.
    fn pack_pairs(&self, x: CellId, y: CellId) -> HashMap<usize, (usize, usize)> {
        let mut out = HashMap::new();
        if let (Some(pxs), Some(pys)) = (self.packs.oct_index.get(&x), self.packs.oct_index.get(&y))
        {
            for pi in pxs {
                if pys.contains(pi) {
                    let sx = self.packs.oct_slot(*pi, x).expect("in pack");
                    let sy = self.packs.oct_slot(*pi, y).expect("in pack");
                    out.insert(*pi, (sx, sy));
                }
            }
        }
        out
    }

    fn const_bounds(&self, state: &AbsState, e: &Expr) -> Option<(f64, f64)> {
        let (v, f) = self.eval.eval(&state.env, e);
        if !f.is_empty() {
            return None;
        }
        match v {
            astree_memory::AbsVal::Int(i) => {
                (!i.is_bottom() && i.lo != i64::MIN && i.hi != i64::MAX)
                    .then_some((i.lo as f64, i.hi as f64))
            }
            astree_memory::AbsVal::Float(fv) => {
                (!fv.is_bottom() && fv.lo.is_finite() && fv.hi.is_finite())
                    .then_some((fv.lo, fv.hi))
            }
        }
    }

    fn oct_unary_guard(
        &mut self,
        state: &mut AbsState,
        x: CellId,
        op: Binop,
        lo: f64,
        hi: f64,
        margin: f64,
    ) {
        let Some(pids) = self.packs.oct_index.get(&x) else { return };
        for &pi in pids {
            let slot = self.packs.oct_slot(pi, x).expect("in pack");
            let mut oct = state.oct(pi).clone();
            match op {
                Binop::Lt => oct.add_upper(slot, hi - margin),
                Binop::Le => oct.add_upper(slot, hi),
                Binop::Gt => oct.add_lower(slot, lo + margin),
                Binop::Ge => oct.add_lower(slot, lo),
                Binop::Eq => {
                    oct.add_upper(slot, hi);
                    oct.add_lower(slot, lo);
                }
                _ => {}
            }
            state.set_oct(pi, oct);
        }
    }

    /// Prunes decision-tree contexts on boolean guards (`b`, `!b`,
    /// `b == 0/1`).
    fn dtree_guard(&mut self, state: &mut AbsState, cond: &Expr, positive: bool) {
        let (cell, value) = match cond {
            Expr::Load(lv, ScalarType::Int(_)) => {
                let r = self.eval.resolve(&state.env, lv);
                if !(r.strong && r.cells.len() == 1) {
                    return;
                }
                (r.cells[0], positive)
            }
            Expr::Unop(Unop::LNot, _, inner) => {
                return self.dtree_guard(state, inner, !positive);
            }
            Expr::Binop(Binop::Eq, _, a, b) => match (&**a, &**b) {
                (Expr::Load(lv, _), Expr::Int(v, _)) | (Expr::Int(v, _), Expr::Load(lv, _)) => {
                    let r = self.eval.resolve(&state.env, lv);
                    if !(r.strong && r.cells.len() == 1) {
                        return;
                    }
                    (r.cells[0], if *v == 0 { !positive } else { positive })
                }
                _ => return,
            },
            Expr::Binop(Binop::Ne, _, a, b) => match (&**a, &**b) {
                (Expr::Load(lv, _), Expr::Int(v, _)) | (Expr::Int(v, _), Expr::Load(lv, _)) => {
                    let r = self.eval.resolve(&state.env, lv);
                    if !(r.strong && r.cells.len() == 1) {
                        return;
                    }
                    (r.cells[0], if *v == 0 { positive } else { !positive })
                }
                _ => return,
            },
            _ => return,
        };
        if let Some(pids) = self.packs.dtree_index.get(&cell) {
            for &pi in pids {
                if self.packs.dtrees[pi].bools.contains(&cell) {
                    let g = state.dtree(pi).guard(cell, value);
                    state.set_dtree(pi, g);
                }
            }
        }
    }

    // ----- checking ----------------------------------------------------------

    /// Evaluates an expression purely for its error flags (checking mode).
    fn check_expr(&mut self, state: Option<&AbsState>, e: &Expr, s: &Stmt) {
        let Some(state) = state else { return };
        if state.is_bottom() {
            return;
        }
        let (_, flags) = self.eval.eval(&state.env, e);
        if !flags.is_empty() {
            let ctx = astree_ir::pretty::expr_to_string(self.program, e);
            let fresh = self.sink.report(s.id, s.loc, flags, &ctx);
            self.emit_alarms(s, &ctx, fresh);
        }
    }

    fn report(&mut self, s: &Stmt, flags: ErrFlags, lv: &Lvalue, e: Option<&Expr>) {
        let mut ctx = astree_ir::pretty::lvalue_to_string(self.program, lv);
        if let Some(e) = e {
            ctx.push_str(" = ");
            ctx.push_str(&astree_ir::pretty::expr_to_string(self.program, e));
        }
        let fresh = self.sink.report(s.id, s.loc, flags, &ctx);
        self.emit_alarms(s, &ctx, fresh);
    }

    /// Emits one provenance event per freshly reported alarm kind, tagged
    /// with the surrounding loop context (if any).
    fn emit_alarms(&self, s: &Stmt, ctx: &str, fresh: Vec<crate::alarms::AlarmKind>) {
        if !self.rec_on || fresh.is_empty() {
            return;
        }
        let (loop_id, iteration) = match self.loop_stack.last() {
            Some(&(l, i)) => (Some(l), Some(i)),
            None => (None, None),
        };
        for kind in fresh {
            self.rec.alarm(&AlarmEvent {
                func: self.cur_func(),
                stmt: s.id.0,
                line: s.loc.line,
                kind: kind.slug(),
                domain: kind.domain(),
                context: ctx,
                loop_id,
                iteration,
            });
        }
    }
}

/// Cells listed in a leaf (helper for rebuilding a `PackEnv`).
fn cells_of(leaf: &PackEnv) -> Vec<CellId> {
    leaf.cells.iter().map(|(c, _)| *c).collect()
}
