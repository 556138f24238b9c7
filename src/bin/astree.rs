//! `astree` — the command-line driver.
//!
//! ```text
//! astree analyze <file.c>... [options]   statically prove absence of RTEs
//! astree batch [files...] [options]      analyze a fleet of programs
//! astree serve [options]                 resident analysis daemon (warm pool)
//! astree worker [options]                fleet worker process (spawned/remote)
//! astree client [files...] [options]     send requests to a serving daemon
//! astree run <file.c> [options]          execute with the reference interpreter
//! astree slice <file.c> [options]        backward slices from alarm points
//! astree generate [options]              emit a synthetic family member
//! astree fuzz [options]                  differential soundness campaign
//! ```
//!
//! Run `astree <command> --help` for the options of each command.

use astree::core::{AnalysisConfig, AnalysisSession, CacheReport};
use astree::fleet::{self, FleetSession, JobSpec};
use astree::frontend::Frontend;
use astree::gen::{generate, BugKind, GenConfig};
use astree::ir::{Interp, InterpConfig, SeededInputs};
use astree::options::{RunOptions, RUN_OPTIONS_HELP};
use astree::oracle::{campaign_to_json, DivergenceKind, OracleConfig};
use astree::serve::client::AnalyzeRequest;
use astree::serve::{Client, ClientError, Endpoint, ServeOptions, Server};
use astree::slicer::Slicer;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!(
            "usage: astree <analyze|batch|serve|worker|client|run|slice|generate|fuzz> [options]"
        );
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "analyze" => cmd_analyze(rest),
        "batch" => cmd_batch(rest),
        "serve" => cmd_serve(rest),
        "worker" => cmd_worker(rest),
        "client" => cmd_client(rest),
        "run" => cmd_run(rest),
        "slice" => cmd_slice(rest),
        "generate" => cmd_generate(rest),
        "fuzz" => cmd_fuzz(rest),
        "--help" | "-h" | "help" => {
            println!(
                "usage: astree <analyze|batch|serve|worker|client|run|slice|generate|fuzz> [options]"
            );
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("astree: {msg}");
            ExitCode::from(2)
        }
    }
}

fn compile(files: &[String]) -> Result<astree::ir::Program, String> {
    if files.is_empty() {
        return Err("no input files".into());
    }
    let mut sources = Vec::new();
    for f in files {
        sources.push(std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?);
    }
    let refs: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
    Frontend::new().compile_units(&refs).map_err(|e| e.to_string())
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut config = AnalysisConfig::default();
    let mut show_census = false;
    let mut dump_invariant = false;
    let mut run = RunOptions::default();
    let mut i = 0;
    while i < args.len() {
        if run.try_parse(args, &mut i)? {
            i += 1;
            continue;
        }
        let a = &args[i];
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: astree analyze <file.c>... [--max-clock N] [--unroll N]\n\
                     \x20      [--no-octagons] [--no-dtrees] [--no-ellipsoids]\n\
                     \x20      [--no-clock] [--no-linearize] [--baseline]\n\
                     \x20      [--partition FN] [--thresholds ALPHA,LAMBDA,N]\n\
                     \x20      [--pack VAR1,VAR2,...] [--census] [--dump-invariant]\n\
                     \x20      [--jobs N] [--metrics FILE] [--metrics-stream FILE]\n\
                     \x20      [--trace] [--cache DIR] [--debug-no-ptr-shortcuts]\n\
                     \x20      [--debug-generic-kernels]\n\
                     --jobs N analyzes with N worker threads (results are\n\
                     identical to the sequential analysis for every N)\n\
                     --debug-no-ptr-shortcuts disables the persistent-map\n\
                     sharing fast paths (validation: results are identical)\n\
                     --debug-generic-kernels disables the specialized\n\
                     small-pack octagon kernels (validation: results are\n\
                     identical)\n\
                     {RUN_OPTIONS_HELP}\n\
                     exit status: 0 = proven error-free, 1 = alarms reported"
                );
                return Ok(ExitCode::SUCCESS);
            }
            "--max-clock" => {
                config.max_clock = value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--unroll" => {
                config.loop_unroll = value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--no-octagons" => config.enable_octagons = false,
            "--no-dtrees" => config.enable_dtrees = false,
            "--no-ellipsoids" => config.enable_ellipsoids = false,
            "--no-clock" => config.enable_clocked = false,
            "--no-linearize" => config.enable_linearization = false,
            "--baseline" => config = AnalysisConfig::baseline(),
            "--partition" => {
                config.partitioned_functions.insert(value(&mut i)?);
            }
            "--thresholds" => {
                let v = value(&mut i)?;
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 3 {
                    return Err("--thresholds expects ALPHA,LAMBDA,N".into());
                }
                let alpha: f64 = parts[0].parse().map_err(|e| format!("{e}"))?;
                let lambda: f64 = parts[1].parse().map_err(|e| format!("{e}"))?;
                let n: u32 = parts[2].parse().map_err(|e| format!("{e}"))?;
                config.thresholds = astree::domains::Thresholds::geometric(alpha, lambda, n);
            }
            "--pack" => {
                let names: Vec<String> =
                    value(&mut i)?.split(',').map(|s| s.trim().to_string()).collect();
                config.octagon_packs_extra.push(names);
            }
            "--census" => show_census = true,
            "--dump-invariant" => dump_invariant = true,
            "--debug-no-ptr-shortcuts" => config.debug_no_ptr_shortcuts = true,
            "--debug-generic-kernels" => config.debug_generic_kernels = true,
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    let program = compile(&files)?;
    let errs = program.validate();
    if !errs.is_empty() {
        return Err(format!("invalid program: {}", errs.join("; ")));
    }
    if let Some(j) = run.jobs {
        config.jobs = j;
    }
    let jobs = config.jobs;
    let store = run.open_store()?;
    let result = if run.record() {
        let collector = Arc::new(run.collector());
        let stream = run.open_stream()?;
        let rec = run.recorder(&collector, &stream);
        let mut builder = AnalysisSession::builder(&program).config(config).recorder(rec.as_ref());
        if let Some(s) = &store {
            builder = builder.cache(Arc::clone(s));
        }
        let result = builder.build().run();
        if let Some(sink) = &stream {
            sink.flush();
        }
        run.finish(&collector)?;
        result
    } else {
        let mut builder = AnalysisSession::builder(&program).config(config);
        if let Some(s) = &store {
            builder = builder.cache(Arc::clone(s));
        }
        builder.build().run()
    };
    println!(
        "analyzed {} ({} cells, {} octagon packs, {} filters, {} decision-tree packs)",
        program.metrics(),
        result.stats.cells,
        result.stats.octagon_packs,
        result.stats.ellipse_packs,
        result.stats.dtree_packs,
    );
    if result.cache.full_hit {
        println!(
            "time: {:.2?} replay from cache (cold run: {:.2?} invariant generation + {:.2?} checking)",
            result.stats.time_replay, result.stats.time_iterate, result.stats.time_check
        );
    } else {
        println!(
            "time: {:.2?} invariant generation + {:.2?} checking",
            result.stats.time_iterate, result.stats.time_check
        );
    }
    if result.cache.enabled {
        print_cache_summary(&result.cache);
    }
    if result.stats.parallel_stages > 0 {
        println!(
            "parallel: {} sliced stages, {} slices across {} workers",
            result.stats.parallel_stages, result.stats.parallel_slices, jobs,
        );
    }
    if show_census {
        if let Some(c) = &result.main_census {
            println!("\nmain loop invariant census:\n{c}");
        }
    }
    if dump_invariant {
        if let Some(inv) = &result.main_invariant {
            println!("\nmain loop invariant:\n{inv}");
        }
    }
    if result.alarms.is_empty() {
        println!("\nno alarms: the program is proven free of run-time errors");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("\n{} alarm(s):", result.alarms.len());
        for a in &result.alarms {
            println!("  {a}");
        }
        Ok(ExitCode::from(1))
    }
}

/// One-line cache participation summary for `astree analyze --cache`.
fn print_cache_summary(c: &CacheReport) {
    if c.full_hit {
        println!("cache: full hit, replayed the stored invariants and alarms");
    } else {
        let replayed: u64 = c.loops_replayed_by_function.values().sum();
        let solved: u64 = c.loops_solved_by_function.values().sum();
        println!(
            "cache: {} function(s) seeded, {} invalidated; {} loop(s) replayed, {} solved",
            c.seeded_functions, c.invalidated_functions, replayed, solved
        );
    }
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, String> {
    let mut files: Vec<String> = Vec::new();
    let mut gen_count = 0usize;
    let mut channels = vec![4usize];
    let mut seeds: Option<Vec<u64>> = None;
    let mut timeout: Option<Duration> = None;
    let mut json = false;
    let mut workers = 0usize;
    let mut worker_cmd: Option<Vec<String>> = None;
    let mut connect: Vec<Endpoint> = Vec::new();
    let mut cache_wire = false;
    let mut retry_budget = 2u32;
    let mut crash_on: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut config = AnalysisConfig::default();
    let mut run = RunOptions::default();
    let mut i = 0;
    while i < args.len() {
        if run.try_parse(args, &mut i)? {
            i += 1;
            continue;
        }
        let a = &args[i];
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: astree batch [file.c...] [--gen N] [--channels N1,N2,...]\n\
                     \x20      [--seeds S1,S2,...] [--jobs N] [--timeout SECS]\n\
                     \x20      [--workers N] [--worker-cmd CMD] [--connect ADDR]\n\
                     \x20      [--retry-budget N] [--report FILE] [--analysis-jobs N]\n\
                     \x20      [--json] [--metrics FILE] [--metrics-stream FILE]\n\
                     \x20      [--trace] [--cache DIR] [--cache-wire]\n\
                     analyzes each input file, plus N generated family members\n\
                     (--gen, cycling --channels), as independent jobs; a panicking\n\
                     or timed-out job fails alone. --jobs N shards over N threads\n\
                     in this process; --workers N shards over N worker processes\n\
                     (spawned from --worker-cmd, default `astree worker --stdio`);\n\
                     --connect adds remote workers (unix:PATH or tcp:HOST:PORT,\n\
                     repeatable). Outcomes are reported in submission order and\n\
                     are identical for every worker count. --report writes the\n\
                     deterministic fleet report to FILE. --analysis-jobs\n\
                     additionally parallelizes inside each analysis; --cache\n\
                     shares one invariant store across all jobs and workers.\n\
                     --cache-wire syncs the store to worker processes over the\n\
                     fleet protocol instead of a shared directory (workers on\n\
                     other machines warm up without any shared filesystem).\n\
                     {RUN_OPTIONS_HELP}\n\
                     exit status: 0 = all jobs clean, 1 = alarms or failures"
                );
                return Ok(ExitCode::SUCCESS);
            }
            "--gen" => gen_count = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--channels" => channels = fleet::parse_channels(&value(&mut i)?)?,
            "--seeds" => {
                let v = value(&mut i)?;
                let parsed: Result<Vec<u64>, _> = v.split(',').map(|s| s.trim().parse()).collect();
                seeds = Some(parsed.map_err(|e| format!("--seeds: {e}"))?);
            }
            "--timeout" => {
                let secs: f64 = value(&mut i)?.parse().map_err(|e| format!("{e}"))?;
                timeout = Some(Duration::from_secs_f64(secs));
            }
            "--workers" => workers = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--worker-cmd" => {
                let cmd: Vec<String> =
                    value(&mut i)?.split_whitespace().map(str::to_string).collect();
                if cmd.is_empty() {
                    return Err("--worker-cmd: empty command".into());
                }
                worker_cmd = Some(cmd);
            }
            "--connect" => connect.push(Endpoint::parse(&value(&mut i)?)),
            "--cache-wire" => cache_wire = true,
            "--retry-budget" => {
                retry_budget = value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--crash-on" => crash_on = Some(value(&mut i)?), // debug: crash-isolation tests
            "--report" => report_path = Some(value(&mut i)?),
            "--analysis-jobs" => {
                config.jobs = value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--json" => json = true,
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    let threads = run.jobs.unwrap_or(2);

    let mut jobs: Vec<JobSpec> = Vec::new();
    for f in &files {
        let source = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        jobs.push(JobSpec::new(f.clone(), source));
    }
    let seeds = seeds.unwrap_or_else(|| (1..=gen_count as u64).collect());
    jobs.extend(fleet::generated_jobs(&channels, &seeds));
    if jobs.is_empty() {
        return Err("no jobs: give input files, --gen N, or --seeds".into());
    }

    let n = jobs.len();
    let store = run.open_store()?;
    let record = run.record();
    let collector = Arc::new(run.collector());
    let stream = run.open_stream()?;
    let mut builder = FleetSession::builder()
        .jobs(jobs)
        .config(config)
        .threads(threads)
        .workers(workers)
        .timeout(timeout)
        .retry_budget(retry_budget)
        .cache_wire(cache_wire)
        .crash_on(crash_on);
    if let Some(cmd) = worker_cmd {
        builder = builder.worker_cmd(cmd);
    }
    for endpoint in connect {
        builder = builder.connect(endpoint);
    }
    if let Some(store) = &store {
        builder = builder.cache(Arc::clone(store));
    }
    if record {
        builder = builder.recorder(run.recorder(&collector, &stream));
    }
    let report = builder.run();
    if let Some(sink) = &stream {
        sink.flush();
    }
    if record {
        run.finish(&collector)?;
    }
    if store.is_some() {
        // From the fleet's own counters: with worker processes the
        // coordinator's store sees none of the jobs' lookups.
        let hits = report.counters.store_full_hits;
        eprintln!(
            "cache: {hits} full hit(s), {} miss(es), {} loop(s) seeded",
            (report.completed() as u64).saturating_sub(hits),
            report.counters.loops_seeded
        );
    }
    if let Some(path) = &report_path {
        std::fs::write(path, report.stable_report()).map_err(|e| format!("{path}: {e}"))?;
    }
    if json {
        print!("{}", batch_report_json(&report));
    } else {
        let kind = if report.counters.processes { "worker process(es)" } else { "worker(s)" };
        println!("batch: {n} jobs on {} {kind}", report.workers);
        for o in &report.outcomes {
            match o.alarms {
                Some(a) => {
                    println!("  {:<24} {:>9} {:>4} alarm(s)  {:.2?}", o.name, o.status, a, o.wall)
                }
                None => println!(
                    "  {:<24} {:>9}  {}",
                    o.name,
                    o.status,
                    o.detail.as_deref().unwrap_or("-")
                ),
            }
        }
        println!(
            "wall {:.2?}, sequential cost {:.2?}, speedup {:.2}x",
            report.wall,
            report.total_job_time,
            report.speedup()
        );
        let c = &report.counters;
        if c.processes {
            println!(
                "fleet: {} steal(s), {} resent, {} crash(es), {} timeout(s), {} respawn(s), \
                 {} store hit(s)",
                c.steals, c.resent, c.crashes, c.timeouts, c.respawns, c.store_full_hits
            );
            if c.store_gets + c.store_puts > 0 {
                println!(
                    "  wire sync: {} file(s) shipped to workers, {} imported back, \
                     {} loop seed(s)",
                    c.store_gets, c.store_puts, c.loops_seeded
                );
            }
        }
        for (w, pw) in c.per_worker.iter().enumerate() {
            println!(
                "  worker {w}: {} job(s), {} steal(s), busy {:.2?}",
                pw.jobs,
                pw.steals,
                Duration::from_nanos(pw.busy_nanos)
            );
        }
    }
    let clean = report.completed() == n && report.total_alarms() == 0;
    Ok(if clean { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn cmd_worker(args: &[String]) -> Result<ExitCode, String> {
    let mut endpoint: Option<Endpoint> = None;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: astree worker [--stdio | --socket PATH | --listen HOST:PORT]\n\
                     runs a fleet worker speaking astree-fleet/1: --stdio (default)\n\
                     serves one coordinator over stdin/stdout (how `astree batch\n\
                     --workers N` spawns local workers); --socket/--listen accept\n\
                     coordinator connections for `astree batch --connect`."
                );
                return Ok(ExitCode::SUCCESS);
            }
            "--stdio" => endpoint = None,
            "--socket" => endpoint = Some(Endpoint::Unix(value(&mut i)?.into())),
            "--listen" => endpoint = Some(Endpoint::Tcp(value(&mut i)?)),
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    match endpoint {
        None => fleet::serve_stdio().map_err(|e| format!("worker: {e}"))?,
        Some(endpoint) => fleet::serve_listener(&endpoint).map_err(|e| format!("worker: {e}"))?,
    }
    Ok(ExitCode::SUCCESS)
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            '\t' => "\\t".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn batch_report_json(report: &fleet::FleetReport) -> String {
    let mut out = String::from("{\n  \"jobs\": [\n");
    for (i, o) in report.outcomes.iter().enumerate() {
        let alarms = o.alarms.map_or("null".to_string(), |a| a.to_string());
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"status\": \"{}\", \"alarms\": {}, \"wall_s\": {:.6}, \"worker\": {}, \"resent\": {}}}{}\n",
            json_escape(&o.name),
            o.status.slug(),
            alarms,
            o.wall.as_secs_f64(),
            o.worker,
            o.resent,
            if i + 1 < report.outcomes.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"workers\": {},\n", report.workers));
    out.push_str(&format!("  \"wall_s\": {:.6},\n", report.wall.as_secs_f64()));
    out.push_str(&format!(
        "  \"sequential_cost_s\": {:.6},\n",
        report.total_job_time.as_secs_f64()
    ));
    out.push_str(&format!("  \"speedup\": {:.4},\n", report.speedup()));
    let c = &report.counters;
    out.push_str(&format!(
        "  \"fleet\": {{\"processes\": {}, \"steals\": {}, \"resent\": {}, \"crashes\": {}, \
         \"timeouts\": {}, \"respawns\": {}, \"store_full_hits\": {}, \"store_gets\": {}, \
         \"store_puts\": {}, \"loops_seeded\": {}}},\n",
        c.processes,
        c.steals,
        c.resent,
        c.crashes,
        c.timeouts,
        c.respawns,
        c.store_full_hits,
        c.store_gets,
        c.store_puts,
        c.loops_seeded
    ));
    let per_worker: Vec<String> = c
        .per_worker
        .iter()
        .map(|w| {
            format!(
                "{{\"jobs\": {}, \"steals\": {}, \"busy_s\": {:.6}, \"ewma_nanos\": {}}}",
                w.jobs,
                w.steals,
                Duration::from_nanos(w.busy_nanos).as_secs_f64(),
                w.ewma_nanos
            )
        })
        .collect();
    out.push_str(&format!("  \"per_worker\": [{}]\n", per_worker.join(", ")));
    out.push_str("}\n");
    out
}

/// Parses the shared `--socket PATH` / `--listen`/`--connect ADDR` endpoint
/// flags; `addr_flag` names the TCP flag of the calling command.
fn parse_endpoint_flag(
    args: &[String],
    i: &mut usize,
    addr_flag: &str,
    endpoint: &mut Endpoint,
) -> Result<bool, String> {
    let a = &args[*i];
    if a == "--socket" {
        *i += 1;
        let path = args.get(*i).ok_or("--socket needs a value")?;
        *endpoint = Endpoint::Unix(path.into());
        Ok(true)
    } else if a == addr_flag {
        *i += 1;
        let addr = args.get(*i).ok_or_else(|| format!("{addr_flag} needs a value"))?;
        *endpoint = Endpoint::Tcp(addr.clone());
        Ok(true)
    } else {
        Ok(false)
    }
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut endpoint = Endpoint::default_socket();
    let mut opts = ServeOptions::default();
    let mut i = 0;
    while i < args.len() {
        if parse_endpoint_flag(args, &mut i, "--listen", &mut endpoint)? {
            i += 1;
            continue;
        }
        let a = &args[i];
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: astree serve [--socket PATH | --listen HOST:PORT]\n\
                     \x20      [--jobs N] [--max-inflight N] [--cache DIR]\n\
                     runs the resident analysis daemon: one warm worker pool\n\
                     (--jobs) and one shared invariant store (--cache) serve\n\
                     every request; past --max-inflight concurrent requests\n\
                     new ones are rejected with `overloaded`. The default\n\
                     endpoint is a Unix socket in the temp directory; see\n\
                     `astree client --help` for talking to it.\n\
                     exit status: 0 after a clean `shutdown` request"
                );
                return Ok(ExitCode::SUCCESS);
            }
            "--jobs" => opts.jobs = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--max-inflight" => {
                opts.max_inflight = value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--cache" => opts.cache_dir = Some(value(&mut i)?.into()),
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    let (jobs, max_inflight) = (opts.jobs, opts.max_inflight);
    let server = Server::bind(endpoint, opts).map_err(|e| format!("bind: {e}"))?;
    println!(
        "astree serve: listening on {} ({jobs} analysis worker(s), max {max_inflight} in flight)",
        server.endpoint()
    );
    server.serve().map_err(|e| format!("serve: {e}"))?;
    println!("astree serve: shut down cleanly");
    Ok(ExitCode::SUCCESS)
}

fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let mut endpoint = Endpoint::default_socket();
    let mut files = Vec::new();
    let mut status = false;
    let mut shutdown = false;
    let mut show_events = false;
    let mut events_mode: Option<&'static str> = None;
    let mut dump_invariant = false;
    let mut show_census = false;
    let mut i = 0;
    while i < args.len() {
        if parse_endpoint_flag(args, &mut i, "--connect", &mut endpoint)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: astree client [--socket PATH | --connect HOST:PORT]\n\
                     \x20      [<file.c>...] [--census] [--dump-invariant]\n\
                     \x20      [--events none|coarse|all] [--show-events]\n\
                     \x20      [--status] [--shutdown]\n\
                     sends each file to a running `astree serve` daemon and\n\
                     prints the verdict exactly as `astree analyze` would;\n\
                     --show-events mirrors streamed astree-events/1 records\n\
                     to stderr. --status and --shutdown talk to the daemon\n\
                     itself (after any file analyses).\n\
                     exit status: 0 = all proven error-free, 1 = alarms,\n\
                     2 = transport or daemon error"
                );
                return Ok(ExitCode::SUCCESS);
            }
            "--status" => status = true,
            "--shutdown" => shutdown = true,
            "--show-events" => show_events = true,
            "--events" => {
                i += 1;
                events_mode = Some(match args.get(i).map(|s| s.as_str()) {
                    Some("none") => "none",
                    Some("coarse") => "coarse",
                    Some("all") => "all",
                    other => return Err(format!("--events: unknown mode {other:?}")),
                });
            }
            "--dump-invariant" => dump_invariant = true,
            "--census" => show_census = true,
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    if files.is_empty() && !status && !shutdown {
        return Err("nothing to do: give input files, --status or --shutdown".into());
    }
    let mut client =
        Client::connect(&endpoint).map_err(|e| format!("connect to {endpoint}: {e}"))?;
    let mut alarmed = false;
    for f in &files {
        let source = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let req = AnalyzeRequest {
            source,
            events: events_mode.or(if show_events { Some("coarse") } else { Some("none") }),
            ..AnalyzeRequest::default()
        };
        let outcome = match client.analyze(&req) {
            Ok(o) => o,
            Err(ClientError::Server { code, message }) => {
                return Err(format!("{f}: daemon answered {code}: {message}"))
            }
            Err(e) => return Err(format!("{f}: {e}")),
        };
        if show_events {
            for ev in &outcome.events {
                eprintln!("{}", ev.to_compact());
            }
        }
        if show_census {
            if let Some(c) = &outcome.main_census {
                println!("\nmain loop invariant census:\n{c}");
            }
        }
        if dump_invariant {
            if let Some(inv) = &outcome.main_invariant {
                println!("\nmain loop invariant:\n{inv}");
            }
        }
        if outcome.alarms.is_empty() {
            println!("\nno alarms: the program is proven free of run-time errors");
        } else {
            alarmed = true;
            println!("\n{} alarm(s):", outcome.alarms.len());
            for a in &outcome.alarms {
                println!("  {a}");
            }
        }
    }
    if status {
        let frame = client.status().map_err(|e| format!("status: {e}"))?;
        println!("{frame}");
    }
    if shutdown {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        println!("daemon shut down");
    }
    Ok(if alarmed { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut seed = 1u64;
    let mut ticks = 1000u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("usage: astree run <file.c>... [--seed N] [--ticks N]");
                return Ok(ExitCode::SUCCESS);
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--ticks" => {
                i += 1;
                ticks = args
                    .get(i)
                    .ok_or("--ticks needs a value")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    let program = compile(&files)?;
    let mut inputs = SeededInputs::new(seed);
    let mut interp =
        Interp::new(&program, InterpConfig { max_steps: u64::MAX, max_ticks: ticks }, &mut inputs);
    match interp.run() {
        Ok(()) => {
            println!("completed {} clock ticks", interp.ticks());
            if interp.events().is_empty() {
                println!("no run-time events");
                Ok(ExitCode::SUCCESS)
            } else {
                println!("{} recoverable events:", interp.events().len());
                for (stmt, e) in interp.events() {
                    println!("  stmt {}: {e:?}", stmt.0);
                }
                Ok(ExitCode::from(1))
            }
        }
        Err(e) => {
            println!("run-time error after {} ticks: {e}", interp.ticks());
            Ok(ExitCode::from(1))
        }
    }
}

fn cmd_slice(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut abstract_slice = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: astree slice <file.c>... [--abstract]\n\
                     analyzes the program and prints the backward slice of \
                     each alarm point; --abstract restricts the slice to the \
                     variables the invariant knows too little about \
                     (paper Sect. 3.3)"
                );
                return Ok(ExitCode::SUCCESS);
            }
            "--abstract" => abstract_slice = true,
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    let program = compile(&files)?;
    let result = AnalysisSession::builder(&program).build().run();
    if result.alarms.is_empty() {
        println!("no alarms to slice");
        return Ok(ExitCode::SUCCESS);
    }
    let interesting = if abstract_slice {
        result.main_invariant.as_ref().map(|inv| {
            let layout =
                astree::memory::CellLayout::new(&program, &astree::memory::LayoutConfig::default());
            astree::core::under_constrained_vars(inv, &layout, 1e6)
        })
    } else {
        None
    };
    let slicer = Slicer::new(&program);
    for alarm in &result.alarms {
        let slice = match &interesting {
            Some(vars) => slicer.slice_restricted(alarm.stmt, vars),
            None => slicer.slice(alarm.stmt),
        };
        println!(
            "{alarm}\n  slice: {} of {} statements ({:.0}%)",
            slice.len(),
            slice.total_stmts,
            100.0 * slice.coverage()
        );
    }
    Ok(ExitCode::from(1))
}

fn cmd_generate(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = GenConfig::default();
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: astree generate [--channels N] [--seed N] \
                     [--bug div0|oob|overflow] [-o FILE]"
                );
                return Ok(ExitCode::SUCCESS);
            }
            "--channels" => {
                i += 1;
                cfg.channels = args
                    .get(i)
                    .ok_or("--channels needs a value")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--bug" => {
                i += 1;
                cfg.bug = Some(match args.get(i).map(|s| s.as_str()) {
                    Some("div0") => BugKind::DivByZero,
                    Some("oob") => BugKind::OutOfBounds,
                    Some("overflow") => BugKind::IntOverflow,
                    other => return Err(format!("unknown bug kind {other:?}")),
                });
            }
            "-o" | "--output" => {
                i += 1;
                out = Some(args.get(i).ok_or("-o needs a value")?.clone());
            }
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    let src = generate(&cfg);
    match out {
        Some(path) => std::fs::write(&path, &src).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{src}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_fuzz(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = OracleConfig::default();
    let mut report: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut quiet = false;
    let mut threads = 1usize;
    let mut workers = 0usize;
    let mut worker_cmd: Option<Vec<String>> = None;
    let mut connect: Vec<Endpoint> = Vec::new();
    let mut cache_dir: Option<String> = None;
    let mut cache_wire = false;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: astree fuzz [--members N] [--seeds N] [--ticks N]\n\
                     \x20      [--channels-max N] [--no-bugs] [--no-shrink] [--quiet]\n\
                     \x20      [--jobs N] [--workers N] [--worker-cmd CMD] [--connect ADDR]\n\
                     \x20      [--cache DIR] [--cache-wire]\n\
                     \x20      [--report FILE] [--baseline FILE]\n\
                     Generates a corpus of family members, analyzes each with\n\
                     per-statement invariant collection, then fuzzes the concrete\n\
                     interpreter against the claimed invariants: every observed\n\
                     concrete state must lie inside the abstract one, and every\n\
                     concrete run-time error must be covered by an alarm of the\n\
                     same kind at the same statement. Counterexamples are shrunk\n\
                     (fewest channels, smallest seed, earliest tick) and reported\n\
                     through the astree-campaign/1 JSON schema. Members are fleet\n\
                     jobs: --jobs shards over threads, --workers over worker\n\
                     processes, --connect over remote workers; the campaign is\n\
                     identical for every sharding. --cache warms member analyses\n\
                     from a shared invariant store; --cache-wire ships it to\n\
                     workers over the fleet protocol (no shared filesystem).\n\
                     --baseline FILE adds an alarm-census delta vs a prior report\n\
                     exit status: 0 = no divergence, 1 = divergences found"
                );
                return Ok(ExitCode::SUCCESS);
            }
            "--members" => cfg.members = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--seeds" => cfg.seeds = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--ticks" => cfg.ticks = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--channels-max" => {
                cfg.channels_max = value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--no-bugs" => cfg.include_bugs = false,
            "--no-shrink" => cfg.shrink = false,
            "--quiet" => quiet = true,
            "--jobs" => threads = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--workers" => workers = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--worker-cmd" => {
                let cmd: Vec<String> =
                    value(&mut i)?.split_whitespace().map(str::to_string).collect();
                if cmd.is_empty() {
                    return Err("--worker-cmd: empty command".into());
                }
                worker_cmd = Some(cmd);
            }
            "--connect" => connect.push(Endpoint::parse(&value(&mut i)?)),
            "--cache" => cache_dir = Some(value(&mut i)?),
            "--cache-wire" => cache_wire = true,
            "--report" => report = Some(value(&mut i)?),
            "--baseline" => baseline = Some(value(&mut i)?),
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    let base_json = match &baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(astree::obs::Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    let jobs = fleet::campaign_jobs(&cfg);
    let mut builder = FleetSession::builder()
        .jobs(jobs.clone())
        .config(cfg.analysis.clone())
        .threads(threads)
        .workers(workers)
        .cache_wire(cache_wire);
    if let Some(dir) = &cache_dir {
        let store =
            astree::core::InvariantStore::open(dir).map_err(|e| format!("--cache {dir}: {e}"))?;
        builder = builder.cache(Arc::new(store));
    }
    if let Some(cmd) = worker_cmd {
        builder = builder.worker_cmd(cmd);
    }
    for endpoint in connect {
        builder = builder.connect(endpoint);
    }
    let fleet_report = builder.run();
    if !quiet {
        for o in &fleet_report.outcomes {
            match &o.oracle {
                Some(outcome) => {
                    let verdict = if outcome.divergences.is_empty() { "ok" } else { "DIVERGED" };
                    println!(
                        "{:24} {} executions, {} states checked, {} alarms: {verdict}",
                        o.name,
                        outcome.executions,
                        outcome.states_checked,
                        outcome.alarms.values().sum::<u64>(),
                    );
                }
                None => {
                    println!("{:24} {}: {}", o.name, o.status, o.detail.as_deref().unwrap_or("-"))
                }
            }
        }
    }
    let campaign = fleet::campaign_from_outcomes(&jobs, &fleet_report.outcomes);
    for d in &campaign.divergences {
        let what = match &d.kind {
            DivergenceKind::Escape { cell, value, abs } => {
                format!("cell {cell} = {value} escapes {abs}")
            }
            DivergenceKind::Unreachable => "reached a claimed-unreachable statement".to_string(),
            DivergenceKind::MissedError { kind } => format!("uncovered {kind} error"),
        };
        eprintln!(
            "divergence: {} seed {} stmt {} tick {}: {what}",
            d.member.label(),
            d.exec_seed,
            d.stmt,
            d.tick
        );
    }
    println!(
        "campaign: {} members, {} executions, {} states checked, {} divergences",
        campaign.members,
        campaign.executions,
        campaign.states_checked,
        campaign.divergences.len()
    );
    let json = campaign_to_json(&campaign, base_json.as_ref());
    if let Some(path) = report {
        let mut text = json.to_compact();
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(if campaign.divergences.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}
