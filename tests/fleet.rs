//! End-to-end tests of the distributed fleet: the `astree batch` CLI
//! driving real `astree worker` child processes over the `astree-fleet/1`
//! wire protocol.
//!
//! These are the acceptance tests of the fleet determinism contract:
//! outcomes are reported in submission order and are byte-identical for
//! every worker count, crashes are isolated and re-scattered, and the
//! shared invariant store warms all workers.

use astree::obs::Json;
use std::path::PathBuf;
use std::process::Command;

fn astree() -> Command {
    Command::new(env!("CARGO_BIN_EXE_astree"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("astree-fleet-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `astree batch` with the given extra args; returns (stdout, success).
fn run_batch(extra: &[&str]) -> (String, bool) {
    let out = astree().arg("batch").args(extra).output().expect("spawn astree batch");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.code().is_some(),
        "batch was killed by a signal\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    (stdout, out.status.success())
}

#[test]
fn fleet_outcomes_are_identical_for_every_worker_count() {
    let dir = temp_dir("determinism");
    let mut reports = Vec::new();
    for workers in [0usize, 1, 2, 4] {
        let report = dir.join(format!("report-w{workers}.txt"));
        let (stdout, ok) = run_batch(&[
            "--gen",
            "6",
            "--channels",
            "1,2,3",
            "--workers",
            &workers.to_string(),
            "--report",
            report.to_str().unwrap(),
        ]);
        assert!(ok, "clean fleet run with {workers} worker(s)\n{stdout}");
        reports.push(std::fs::read_to_string(&report).expect("report written"));
    }
    let base = &reports[0];
    assert!(base.starts_with("fleet-report/1\n"), "report header: {base}");
    assert!(base.contains("gen-c1-s1"), "report lists jobs: {base}");
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(
            base,
            r,
            "stable report for workers={} differs from the in-process run",
            [0usize, 1, 2, 4][i]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_workers_jobs_are_rescattered() {
    // `--crash-on` makes the first worker process abort when it receives
    // the named job; the coordinator must respawn and re-scatter so the
    // job still completes, counted in `fleet.resent`.
    let (stdout, ok) = run_batch(&[
        "--gen",
        "4",
        "--channels",
        "1,2",
        "--workers",
        "2",
        "--crash-on",
        "gen-c1-s1",
        "--json",
    ]);
    assert!(ok, "fleet absorbs the crash\n{stdout}");
    let j = Json::parse(&stdout).expect("batch --json output parses");
    let jobs = match j.get("jobs") {
        Some(Json::Arr(jobs)) => jobs,
        other => panic!("jobs array missing: {other:?}"),
    };
    assert_eq!(jobs.len(), 4);
    for job in jobs {
        assert_eq!(
            job.get("status").and_then(Json::as_str),
            Some("done"),
            "every job completes despite the crash: {stdout}"
        );
    }
    let fleet = j.get("fleet").expect("fleet counters in --json output");
    let count = |key: &str| fleet.get(key).and_then(Json::as_u64).unwrap_or(0);
    assert!(count("crashes") >= 1, "crash observed: {stdout}");
    assert!(count("resent") >= 1, "crashed job re-scattered: {stdout}");
    assert!(count("respawns") >= 1, "dead worker respawned: {stdout}");
}

#[test]
fn shared_store_warms_across_worker_processes() {
    // Pass 1 fills the shared invariant store from two worker processes;
    // pass 2 must replay every member from the store, including members
    // analyzed by the *other* worker in pass 1.
    let dir = temp_dir("warm-store");
    let cache = dir.join("store");
    let cache_arg = cache.to_str().unwrap();
    let args =
        ["--gen", "4", "--channels", "1,2", "--workers", "2", "--cache", cache_arg, "--json"];
    let (stdout1, ok1) = run_batch(&args);
    assert!(ok1, "cold pass succeeds\n{stdout1}");
    let (stdout2, ok2) = run_batch(&args);
    assert!(ok2, "warm pass succeeds\n{stdout2}");

    let hits = |stdout: &str| -> u64 {
        // The `cache:` summary line precedes the JSON document.
        let json_start = stdout.find('{').expect("json in output");
        let j = Json::parse(&stdout[json_start..]).expect("batch --json output parses");
        j.get("fleet").and_then(|f| f.get("store_full_hits")).and_then(Json::as_u64).unwrap_or(0)
    };
    assert_eq!(hits(&stdout1), 0, "cold pass has no store hits\n{stdout1}");
    assert_eq!(hits(&stdout2), 4, "warm pass replays every job from the store\n{stdout2}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_synced_store_warms_workers_without_a_shared_filesystem() {
    // `--cache-wire` keeps the invariant store private to the coordinator:
    // workers pull entries over `store_get`/`store_files` frames before a
    // cold solve and push converged entries back with `store_put`. Pass 2
    // must replay every member from the wire-synced store even though no
    // worker ever sees the cache directory.
    let dir = temp_dir("wire-store");
    let cache = dir.join("store");
    let cache_arg = cache.to_str().unwrap();
    let report1 = dir.join("report-cold.txt");
    let report2 = dir.join("report-warm.txt");
    let args = |report: &str| {
        vec![
            "--gen".to_string(),
            "4".into(),
            "--channels".into(),
            "1,2".into(),
            "--workers".into(),
            "2".into(),
            "--cache".into(),
            cache_arg.to_string(),
            "--cache-wire".into(),
            "--json".into(),
            "--report".into(),
            report.to_string(),
        ]
    };
    let cold_args = args(report1.to_str().unwrap());
    let (stdout1, ok1) = run_batch(&cold_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(ok1, "cold wire-synced pass succeeds\n{stdout1}");
    let warm_args = args(report2.to_str().unwrap());
    let (stdout2, ok2) = run_batch(&warm_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(ok2, "warm wire-synced pass succeeds\n{stdout2}");

    let fleet_count = |stdout: &str, key: &str| -> u64 {
        let json_start = stdout.find('{').expect("json in output");
        let j = Json::parse(&stdout[json_start..]).expect("batch --json output parses");
        j.get("fleet").and_then(|f| f.get(key)).and_then(Json::as_u64).unwrap_or(0)
    };
    // Cold pass: nothing to replay, but workers ship their converged
    // entries back to the coordinator's store.
    assert_eq!(fleet_count(&stdout1, "store_full_hits"), 0, "cold pass\n{stdout1}");
    assert!(fleet_count(&stdout1, "store_puts") > 0, "workers push entries back\n{stdout1}");
    // Warm pass: every member replays from entries pulled over the wire.
    assert_eq!(fleet_count(&stdout2, "store_full_hits"), 4, "warm pass replays all\n{stdout2}");
    assert!(fleet_count(&stdout2, "store_gets") > 0, "coordinator ships files out\n{stdout2}");
    // The determinism contract holds across cold and warm.
    let cold = std::fs::read_to_string(&report1).expect("cold report");
    let warm = std::fs::read_to_string(&report2).expect("warm report");
    assert_eq!(cold, warm, "warm wire-synced report matches cold");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn remote_workers_over_a_unix_socket_agree_with_in_process() {
    // A long-lived `astree worker --socket` process serves coordinators
    // over a Unix socket: `--connect` fleets must produce the same stable
    // report as the in-process run.
    let dir = temp_dir("socket");
    let sock = dir.join("worker.sock");
    let mut worker =
        astree().arg("worker").arg("--socket").arg(&sock).spawn().expect("spawn socket worker");
    // Wait for the socket to appear.
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(sock.exists(), "worker bound its socket");

    let local = dir.join("report-local.txt");
    let remote = dir.join("report-remote.txt");
    let (stdout, ok) =
        run_batch(&["--gen", "3", "--channels", "1,2", "--report", local.to_str().unwrap()]);
    assert!(ok, "in-process run\n{stdout}");
    let (stdout, ok) = run_batch(&[
        "--gen",
        "3",
        "--channels",
        "1,2",
        "--connect",
        &format!("unix:{}", sock.display()),
        "--report",
        remote.to_str().unwrap(),
    ]);
    assert!(ok, "remote run over the socket\n{stdout}");
    let local = std::fs::read_to_string(&local).expect("local report");
    let remote = std::fs::read_to_string(&remote).expect("remote report");
    assert_eq!(local, remote, "socket fleet matches the in-process fleet");

    worker.kill().ok();
    worker.wait().ok();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `astree batch` with `TMPDIR` pointed at `tmp`; returns (stdout,
/// stderr, success).
fn run_batch_in(tmp: &std::path::Path, extra: &[&str]) -> (String, String, bool) {
    let out = astree().arg("batch").args(extra).env("TMPDIR", tmp).output().expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (stdout, stderr, out.status.success())
}

#[test]
fn batch_json_stdout_is_one_document_and_the_cache_summary_goes_to_stderr() {
    let dir = temp_dir("json-stdout");
    let cache = dir.join("store");
    let args = [
        "--gen",
        "4",
        "--channels",
        "1,2",
        "--workers",
        "2",
        "--cache",
        cache.to_str().unwrap(),
        "--cache-wire",
        "--json",
    ];
    let (_, _, ok) = run_batch_in(&dir, &args);
    assert!(ok, "cold pass succeeds");
    let (stdout, stderr, ok) = run_batch_in(&dir, &args);
    assert!(ok, "warm pass succeeds\n{stdout}\n{stderr}");
    let j = Json::parse(&stdout).expect("stdout is exactly one JSON document");
    let full_hits = j.get("fleet").and_then(|f| f.get("store_full_hits")).and_then(Json::as_u64);
    assert_eq!(full_hits, Some(4), "warm pass replays every job\n{stdout}");
    let summary = stderr
        .lines()
        .find_map(|l| l.strip_prefix("cache: "))
        .unwrap_or_else(|| panic!("cache summary on stderr\n{stderr}"));
    let stderr_hits: u64 = summary
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("full-hit count in {summary:?}"));
    assert_eq!(Some(stderr_hits), full_hits, "stderr summary agrees with the JSON: {summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_synced_workers_leave_no_store_copies_in_the_temp_directory() {
    let dir = temp_dir("sync-leak");
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).expect("create TMPDIR");
    let cache = dir.join("store");
    let (stdout, stderr, ok) = run_batch_in(
        &tmp,
        &[
            "--gen",
            "2",
            "--channels",
            "1",
            "--workers",
            "2",
            "--cache",
            cache.to_str().unwrap(),
            "--cache-wire",
        ],
    );
    assert!(ok, "wire-synced run succeeds\n{stdout}\n{stderr}");
    let leaked: Vec<String> = std::fs::read_dir(&tmp)
        .expect("list TMPDIR")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("astree-fleet-sync-"))
        .collect();
    assert!(leaked.is_empty(), "workers left store copies behind: {leaked:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
