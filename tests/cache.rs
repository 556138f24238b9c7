//! End-to-end tests of the incremental invariant cache: warm replays are
//! bit-identical and fast, invalidation is function-granular, configuration
//! changes miss the whole store, and damaged files degrade to a clean cold
//! run.

use astree::core::{AnalysisConfig, AnalysisResult, AnalysisSession, InvariantStore};
use astree::fleet::{generated_jobs, FleetSession, JobStatus};
use astree::frontend::Frontend;
use astree::gen::{generate, GenConfig};
use astree::ir::Program;
use astree::obs::Collector;
use std::sync::Arc;
use std::time::Instant;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("astree-cache-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_cached(program: &Program, store: &Arc<InvariantStore>) -> (AnalysisResult, f64) {
    let t0 = Instant::now();
    let r = AnalysisSession::builder(program).cache(Arc::clone(store)).build().run();
    (r, t0.elapsed().as_secs_f64())
}

/// The headline guarantee: re-analyzing an unchanged program (≥50
/// functions) through a warm store replays the stored result bit-identically
/// — same alarms, same census, same invariant — at least 5× faster.
#[test]
fn warm_rerun_is_bit_identical_and_at_least_5x_faster() {
    let dir = temp_dir("full-hit");
    let source = generate(&GenConfig { channels: 47, seed: 1, bug: None });
    let program = Frontend::new().compile_str(&source).expect("compiles");
    assert!(program.funcs.len() >= 50, "need a large program, got {}", program.funcs.len());

    let store = Arc::new(InvariantStore::open(&dir).expect("opens"));
    let (cold, cold_wall) = run_cached(&program, &store);
    assert!(!cold.cache.full_hit);

    // A fresh store on the same directory proves the replay came from disk.
    let store = Arc::new(InvariantStore::open(&dir).expect("reopens"));
    let (warm, warm_wall) = run_cached(&program, &store);
    assert!(warm.cache.full_hit, "unchanged program must be a full hit");

    assert_eq!(cold.alarms, warm.alarms, "alarms must replay bit-identically");
    assert_eq!(cold.main_census, warm.main_census, "census must replay bit-identically");
    let cold_inv = cold.main_invariant.as_ref().map(|s| s.to_string());
    let warm_inv = warm.main_invariant.as_ref().map(|s| s.to_string());
    assert_eq!(cold_inv, warm_inv, "invariant must replay bit-identically");

    // Replay-specific accounting: the stored cold times survive, the actual
    // replay cost is reported separately.
    assert_eq!(warm.stats.time_iterate, cold.stats.time_iterate);
    assert_eq!(warm.stats.time_check, cold.stats.time_check);
    assert!(warm.stats.time_replay.as_nanos() > 0);
    assert_eq!(warm.stats.loops_solved, 0);

    assert!(
        cold_wall >= 5.0 * warm_wall,
        "warm replay not ≥5× faster: cold {cold_wall:.3}s, warm {warm_wall:.3}s"
    );
    let c = store.counters();
    assert_eq!(c.full_hits, 1);
    assert!(c.bytes_read > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

const TWO_WORKERS: &str = r#"
    int a; int b; int i; int j;
    void f(void) {
        for (i = 0; i < 1000; i++) { a = a + 1; if (a > 100) { a = 0; } }
    }
    void g(void) {
        for (j = 0; j < 1000; j++) { b = b + STEP; if (b > 200) { b = 0; } }
    }
    void main(void) {
        while (1) { f(); g(); __astree_wait(); }
    }
"#;

fn two_workers(step: &str) -> Program {
    let src = TWO_WORKERS.replace("STEP", step);
    Frontend::new().compile_str(&src).expect("compiles")
}

/// Editing one function's body re-solves only that function (and its
/// transitive callers); the untouched function replays from its seed.
#[test]
fn editing_one_function_invalidates_only_that_function() {
    let dir = temp_dir("invalidation");
    let store = Arc::new(InvariantStore::open(&dir).expect("opens"));
    let before = two_workers("2");
    let (cold, _) = run_cached(&before, &store);
    assert!(!cold.cache.full_hit);

    // Rewrite an expression in g's body (same value, different shape): g and
    // main (which inlines g) must re-solve, f must be seeded and replay
    // without iteration.
    let after = two_workers("1 + 1");
    let store = Arc::new(InvariantStore::open(&dir).expect("reopens"));
    let (warm, _) = run_cached(&after, &store);
    assert!(!warm.cache.full_hit, "edited program must not replay verbatim");
    assert_eq!(warm.cache.seeded_functions, 1, "{:?}", warm.cache);
    assert_eq!(warm.cache.invalidated_functions, 2, "{:?}", warm.cache);
    assert!(
        warm.cache.loops_replayed_by_function.contains_key("f"),
        "f must replay its loop from the seed: {:?}",
        warm.cache
    );
    // f may still fall back to iteration while the enclosing reactive loop's
    // widening transiently overshoots the stored fixpoint, but the seed must
    // absorb most of its passes; g (edited) never replays.
    let f_solved = warm.cache.loops_solved_by_function.get("f").copied().unwrap_or(0);
    let f_solved_cold = cold.cache.loops_solved_by_function.get("f").copied().unwrap_or(0);
    assert!(
        f_solved < f_solved_cold,
        "seeding f must reduce its re-solves ({f_solved} vs cold {f_solved_cold}): {:?}",
        warm.cache
    );
    assert!(!warm.cache.loops_replayed_by_function.contains_key("g"), "{:?}", warm.cache);
    assert!(warm.cache.loops_solved_by_function.contains_key("g"), "{:?}", warm.cache);
    assert!(warm.cache.loops_solved_by_function.contains_key("main"), "{:?}", warm.cache);

    // Soundness cross-check: the seeded run must agree with a cold run of
    // the edited program.
    let cold_edited = AnalysisSession::builder(&after).build().run();
    assert_eq!(warm.alarms, cold_edited.alarms);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Changing an analysis-relevant parameter changes the store key: nothing is
/// seeded, nothing is reported invalidated — it is a clean full miss.
#[test]
fn changing_widening_or_packing_parameters_misses_the_whole_store() {
    let dir = temp_dir("config-miss");
    let store = Arc::new(InvariantStore::open(&dir).expect("opens"));
    let program = two_workers("2");
    run_cached(&program, &store);

    let mut widen = AnalysisConfig::default();
    widen.widening_delay += 1;
    let mut pack = AnalysisConfig::default();
    pack.octagon_pack_cap += 1;
    for cfg in [widen, pack] {
        let store = Arc::new(InvariantStore::open(&dir).expect("reopens"));
        let r =
            AnalysisSession::builder(&program).config(cfg).cache(Arc::clone(&store)).build().run();
        assert!(!r.cache.full_hit);
        assert_eq!(r.cache.seeded_functions, 0, "{:?}", r.cache);
        assert_eq!(r.cache.invalidated_functions, 0, "{:?}", r.cache);
        assert_eq!(store.counters().misses, 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated cache file must not panic or poison the result: the run falls
/// back to cold, reports the corruption, and rewrites the entry.
#[test]
fn corrupt_cache_files_fall_back_to_a_clean_cold_run() {
    let dir = temp_dir("corrupt");
    let store = Arc::new(InvariantStore::open(&dir).expect("opens"));
    let program = two_workers("2");
    let (cold, _) = run_cached(&program, &store);

    for file in std::fs::read_dir(&dir).expect("lists") {
        let path = file.expect("entry").path();
        let bytes = std::fs::read(&path).expect("reads");
        std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("writes");
    }
    let store = Arc::new(InvariantStore::open(&dir).expect("reopens"));
    let (warm, _) = run_cached(&program, &store);
    assert!(!warm.cache.full_hit);
    assert_eq!(warm.cache.seeded_functions, 0, "{:?}", warm.cache);
    assert_eq!(warm.alarms, cold.alarms);
    assert!(store.counters().corrupt_files >= 1, "{:?}", store.counters());

    // The rewritten entry is usable again.
    let store = Arc::new(InvariantStore::open(&dir).expect("reopens again"));
    let (warm2, _) = run_cached(&program, &store);
    assert!(warm2.cache.full_hit);
    let _ = std::fs::remove_dir_all(&dir);
}

const TAILED: &str = r#"
    int a; int b; int i; int j; int t;
    void f(void) {
        for (i = 0; i < 1000; i++) { a = a + 1; if (a > 100) { a = 0; } }
        t = TAIL;
        t = 1;
    }
    void g(void) {
        for (j = 0; j < 1000; j++) { b = b + 1; if (b > 200) { b = 0; } }
    }
    void main(void) {
        while (1) { f(); g(); __astree_wait(); }
    }
"#;

fn tailed(tail: &str) -> Program {
    let src = TAILED.replace("TAIL", tail);
    Frontend::new().compile_str(&src).expect("compiles")
}

/// Editing a function *outside* its loop invalidates the function-level seed
/// but not the loop-level one: the loop's stored invariant is re-verified and
/// installed without iterating, and the analyzer's output (alarms, census)
/// matches a cold run of the edited program bit for bit.
#[test]
fn per_loop_seeds_survive_edits_outside_the_loop() {
    let dir = temp_dir("loop-seed");
    let store = Arc::new(InvariantStore::open(&dir).expect("opens"));
    let before = tailed("2");
    run_cached(&before, &store);

    // The edit changes f's closure fingerprint (so the whole-function seed
    // misses) but leaves the loop body and every value flowing into the loop
    // head untouched (the edited temporary is squashed to 1 before f
    // returns), so the loop fingerprint still matches.
    let after = tailed("3");
    let store = Arc::new(InvariantStore::open(&dir).expect("reopens"));
    let (warm, _) = run_cached(&after, &store);
    assert!(!warm.cache.full_hit);
    assert_eq!(warm.cache.seeded_functions, 1, "only g keeps its seed: {:?}", warm.cache);
    assert!(warm.stats.loops_seeded > 0, "f's loop must be seeded: {:?}", warm.stats);
    let f_solved = warm.cache.loops_solved_by_function.get("f").copied().unwrap_or(0);

    let cold_edited = AnalysisSession::builder(&after).build().run();
    let f_solved_cold = cold_edited.stats.loops_solved; // whole-program, upper bound
    assert!(f_solved < f_solved_cold, "seeding must save solves: {f_solved} vs {f_solved_cold}");
    assert_eq!(warm.alarms, cold_edited.alarms, "seeded run must match cold bit for bit");
    assert_eq!(warm.main_census, cold_edited.main_census);
    // The internal invariant may differ from the cold trajectory — seeding
    // converges the reactive loop in fewer widening steps, which here lands
    // the mission clock on a *tighter* threshold than the cold overshoot.
    // Soundness is what the acceptance check guarantees; the alarm and
    // census equality above pin the observable output.
    let _ = std::fs::remove_dir_all(&dir);
}

/// Nothing leaks between family members: a store filled by the 4- and
/// 8-channel members gives a never-analyzed 12-channel member no full hit
/// and no seed, and its report is byte-identical to a cold run without a
/// store.
#[test]
fn unseen_family_member_matches_a_cold_run_without_a_store() {
    let dir = temp_dir("no-leakage");
    let store = Arc::new(InvariantStore::open(&dir).expect("opens"));
    for channels in [4, 8] {
        let src = generate(&GenConfig { channels, seed: 9, bug: None });
        run_cached(&Frontend::new().compile_str(&src).expect("compiles"), &store);
    }

    let member = generated_jobs(&[12], &[9]);
    let store = Arc::new(InvariantStore::open(&dir).expect("reopens"));
    let warm = FleetSession::builder().jobs(member.clone()).cache(Arc::clone(&store)).run();
    let cold = FleetSession::builder().jobs(member).run();
    let (w, c) = (&warm.outcomes[0], &cold.outcomes[0]);
    assert_eq!(w.status, JobStatus::Done, "{:?}", w.detail);
    assert!(!w.cache_full_hit, "an unseen member must not replay");
    assert_eq!(w.loops_seeded, 0, "no loop may be seeded from another member");
    assert_eq!(store.counters().seeded_functions, 0, "{:?}", store.counters());
    assert_eq!(w.alarm_lines, c.alarm_lines);
    assert_eq!(w.main_census, c.main_census);
    assert_eq!(warm.stable_report(), cold.stable_report());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store bounded far below the working set evicts old entries instead of
/// growing, and a rerun through the evicted store degrades to (at worst) a
/// cold miss — never a wrong answer.
#[test]
fn tiny_cache_bound_evicts_and_still_yields_correct_results() {
    let dir = temp_dir("bounded");
    let program = two_workers("2");
    let baseline = AnalysisSession::builder(&program).build().run();

    let store = Arc::new(InvariantStore::open_bounded(&dir, 1024).expect("opens"));
    let (first, _) = run_cached(&program, &store);
    assert_eq!(first.alarms, baseline.alarms);
    assert!(store.counters().evictions >= 1, "1 KiB bound must evict: {:?}", store.counters());

    let store = Arc::new(InvariantStore::open_bounded(&dir, 1024).expect("reopens"));
    let (again, _) = run_cached(&program, &store);
    assert!(!again.cache.full_hit, "the evicted entry must miss");
    assert_eq!(again.alarms, baseline.alarms);
    assert_eq!(again.main_census, baseline.main_census);
    let again_inv = again.main_invariant.as_ref().map(|s| s.to_string());
    let base_inv = baseline.main_invariant.as_ref().map(|s| s.to_string());
    assert_eq!(again_inv, base_inv);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The metrics document grows a `cache` section with the run's counters.
#[test]
fn metrics_document_reports_cache_counters() {
    let dir = temp_dir("metrics");
    let program = two_workers("2");
    for expect_hit in [false, true] {
        let store = Arc::new(InvariantStore::open(&dir).expect("opens"));
        let collector = Collector::new();
        let r = AnalysisSession::builder(&program)
            .recorder(&collector)
            .cache(Arc::clone(&store))
            .build()
            .run();
        assert_eq!(r.cache.full_hit, expect_hit);
        let json = collector.to_json().to_string();
        assert!(json.contains("\"cache\""), "{json}");
        let m = collector.snapshot();
        if expect_hit {
            assert_eq!(m.cache.full_hits, 1);
            assert!(m.cache.saved_nanos > 0);
        } else {
            assert_eq!(m.cache.misses, 1);
            assert!(m.cache.bytes_written > 0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
