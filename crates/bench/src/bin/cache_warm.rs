//! `cache_warm` — wall time of a fleet family campaign cold vs warm, with
//! the invariant store synced to worker processes over the wire.
//!
//! Two passes over `astree worker --stdio` children, both in `--cache-wire`
//! mode — the store directory lives only on the coordinator side and the
//! workers warm up exclusively through `store_get`/`store_files`/`store_put`
//! frames (zero shared filesystem):
//!
//! 1. **cold** — empty store; every member solves from scratch and ships
//!    its converged entry back (`store_puts`).
//! 2. **warm** — same members, store reopened; every member replays from
//!    entries pulled over the wire (`store_full_hits`). The stable report
//!    must be byte-identical to the cold pass, and the wall time at least
//!    3x faster — full-hit replay skips the fixpoint solve entirely.
//!
//! ```text
//! cargo run --release -p astree-bench --bin cache_warm [out.json] [astree-bin]
//! ```
//!
//! The `astree` binary (for worker children) defaults to the sibling of
//! this binary in the cargo target directory; build it first with
//! `cargo build --release`.

use astree_core::InvariantStore;
use astree_fleet::{FleetReport, FleetSession, JobSpec};
use astree_obs::{FleetCounters, Json};
use std::sync::Arc;
use std::time::Instant;

/// Channel counts of the family campaign: large
/// members, so the fixpoint solve dominates process-spawn and wire-sync
/// overhead and the warm replay advantage is visible in wall time.
const CHANNELS: [usize; 3] = [8, 12, 16];
/// Seeds cycled across the campaign channel counts.
const SEEDS: u64 = 16;

fn counters_json(c: &FleetCounters) -> Json {
    Json::obj([
        ("steals", Json::UInt(c.steals)),
        ("store_full_hits", Json::UInt(c.store_full_hits)),
        ("store_gets", Json::UInt(c.store_gets)),
        ("store_puts", Json::UInt(c.store_puts)),
        ("loops_seeded", Json::UInt(c.loops_seeded)),
        (
            "per_worker",
            Json::Arr(
                c.per_worker
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("jobs", Json::UInt(w.jobs)),
                            ("busy_s", Json::Float(w.busy_nanos as f64 / 1e9)),
                            ("ewma_nanos", Json::UInt(w.ewma_nanos)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Runs one wire-synced fleet pass: the store is (re)opened from `dir` and
/// handed to the coordinator only; workers sync over the protocol.
fn pass(
    jobs: &[JobSpec],
    dir: &std::path::Path,
    workers: usize,
    astree_bin: &str,
) -> (FleetReport, f64) {
    let store = InvariantStore::open(dir).expect("open invariant store");
    let t0 = Instant::now();
    let report = FleetSession::builder()
        .jobs(jobs.to_vec())
        .workers(workers)
        .worker_cmd(vec![astree_bin.to_string(), "worker".into(), "--stdio".into()])
        .cache(Arc::new(store))
        .cache_wire(true)
        .run();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.completed(), jobs.len(), "fleet pass completes");
    (report, wall)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let out_path = args.next().unwrap_or_else(|| "BENCH_cache_warm.json".into());
    let astree_bin = args.next().unwrap_or_else(|| {
        let exe = std::env::current_exe().expect("current exe");
        let sibling = exe.with_file_name("astree");
        if !sibling.exists() {
            eprintln!(
                "cache_warm: {} not found — build it first (`cargo build --release`) \
                 or pass the astree binary path as the second argument",
                sibling.display()
            );
            std::process::exit(1);
        }
        sibling.to_string_lossy().into_owned()
    });

    let seeds: Vec<u64> = (1..=SEEDS).collect();
    let jobs = astree_fleet::generated_jobs(&CHANNELS, &seeds);
    let workers = 2usize;

    let dir = std::env::temp_dir().join(format!("astree-cache-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");

    let (cold, cold_wall) = pass(&jobs, &dir, workers, &astree_bin);
    assert_eq!(cold.counters.store_full_hits, 0, "cold pass starts from an empty store");
    assert!(cold.counters.store_puts > 0, "workers ship converged entries back over the wire");

    let (warm, warm_wall) = pass(&jobs, &dir, workers, &astree_bin);
    assert_eq!(
        cold.stable_report(),
        warm.stable_report(),
        "warm pass changed the campaign outcomes — determinism violated"
    );
    assert_eq!(
        warm.counters.store_full_hits,
        jobs.len() as u64,
        "warm pass replays every member from the wire-synced store"
    );
    assert!(warm.counters.store_gets > 0, "coordinator ships store files to workers");
    let speedup = cold_wall / warm_wall.max(f64::EPSILON);
    assert!(
        speedup >= 3.0,
        "warm fleet must be at least 3x faster than cold (got {speedup:.2}x: \
         cold {cold_wall:.3}s, warm {warm_wall:.3}s)"
    );

    let doc = Json::obj([
        ("experiment", Json::str("cache_warm")),
        (
            "host_cpus",
            Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("workers", Json::UInt(workers as u64)),
        ("members", Json::UInt(jobs.len() as u64)),
        ("channels", Json::Arr(CHANNELS.iter().map(|&c| Json::UInt(c as u64)).collect())),
        ("shared_filesystem", Json::Bool(false)),
        ("identical_reports", Json::Bool(true)),
        (
            "cold",
            Json::obj([
                ("wall_s", Json::Float(cold_wall)),
                ("fleet", counters_json(&cold.counters)),
            ]),
        ),
        (
            "warm",
            Json::obj([
                ("wall_s", Json::Float(warm_wall)),
                ("speedup", Json::Float(speedup)),
                ("fleet", counters_json(&warm.counters)),
            ]),
        ),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    let rendered = doc.to_string();
    if let Err(e) = std::fs::write(&out_path, &rendered) {
        eprintln!("cache_warm: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("{rendered}");
}
