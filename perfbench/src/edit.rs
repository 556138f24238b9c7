//! `edit_serve`: the developer's loop of re-verifying after a one-function
//! edit, against a real `astree serve --jobs 2 --cache DIR` daemon.
//!
//! Two client connections work on disjoint halves of the base set, in
//! lockstep: each round, both send one request and wait for its verdict. Every measured request is an edit of a warmed base member
//! that no other request shares, so p50 and the tail describe one
//! population. Cache lookup, verification and writes, the serve framing and
//! the daemon's shared `sched` pool all carry a large share here; the
//! iterator still does most of the work, re-solving the loops an edit
//! invalidates.

use crate::corpus::{self, Request};
use crate::phase::{mean, Ctx, Phase, Report, Round, Tally, Traced};
use crate::stats::median;
use crate::sys;
use crate::trace::{layer_metrics, maybe_span, Tracer};
use astree_obs::Json;
use astree_serve::client::AnalyzeRequest;
use astree_serve::RequestOutcome;
use astree_serve::{Client, Endpoint};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Nominal seconds of one edit request per connection on a 2-vCPU host.
const EDIT_S: f64 = 0.58;
/// Daemons started (each with a fresh store) to time set-up; the last one
/// serves the measured phase.
const SETUPS: usize = 5;

pub fn run(ctx: &Ctx) -> Report {
    let bases = corpus::edit_bases(ctx.seed);
    let values = corpus::edit_values(ctx.seed);
    let per_conn = ctx.units(EDIT_S, 6).min(values.len() / 4);

    let mut setup_tally = Tally::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..SETUPS {
        let ((d, clients), round) = Round::run(2, &|| 0.0, || {
            let d = Daemon::start(ctx, k);
            let mut clients = [d.connect(), d.connect()];
            for (a, b) in bases[0].iter().zip(&bases[1]) {
                for (req, reply) in exchange(&mut clients, [a, b], 0, None) {
                    reply.check(&mut setup_tally, req);
                }
            }
            ((d, clients), vec![])
        });
        setups.push(round);
        if k + 1 < SETUPS {
            d.shutdown(clients);
        } else {
            daemon = Some((d, clients));
        }
    }
    let (daemon, mut clients) = daemon.expect("at least one set-up");

    let untraced_reqs = corpus::edit_requests(&bases, &values, 0, per_conn, ctx.seed);
    let untraced = measure(&daemon, &mut clients, &untraced_reqs, None);
    let traced = ctx.trace.then(|| {
        // A disjoint slice of the value pool: replaying the untraced edits
        // would turn every request into a full hit.
        let reqs = corpus::edit_requests(&bases, &values, 2 * per_conn, per_conn, ctx.seed);
        let tracer = Tracer::new();
        let mut phase = measure(&daemon, &mut clients, &reqs, Some(&tracer));
        let probe: Vec<Request> = bases.iter().flatten().cloned().collect();
        crate::probe::layers(&probe, &tracer);
        let spans = tracer.spans();
        phase.layers.extend(layer_metrics(&spans));
        Traced { phase, spans }
    });
    daemon.shutdown(clients);
    Report { setups, setup_tally, untraced, traced }
}

/// One request's reply and latency.
struct Reply {
    outcome: Result<RequestOutcome, String>,
    latency_ms: f64,
}

impl Reply {
    /// Checks the verdict; a transport error or refusal is a failure too.
    fn check(&self, tally: &mut Tally, req: &Request) -> bool {
        match &self.outcome {
            Ok(o) => tally.verdict(req, &o.alarms),
            Err(e) => tally.record(&req.name, Err(e.clone())),
        }
    }

    fn stat(&self, section: &str, key: &str) -> f64 {
        let ok = self.outcome.as_ref().ok();
        let v = ok.and_then(|o| o.raw.get(section)).and_then(|s| s.get(key)).and_then(Json::as_u64);
        v.unwrap_or(0) as f64
    }
}

/// One lockstep step: each connection sends its request, concurrently, and
/// waits for the verdict. `step` numbers the requests for the spans.
fn exchange<'r>(
    clients: &mut [Client; 2],
    reqs: [&'r Request; 2],
    step: usize,
    tracer: Option<&Tracer>,
) -> Vec<(&'r Request, Reply)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(reqs)
            .enumerate()
            .map(|(c, (client, req))| {
                s.spawn(move || {
                    let id = (2 * step + c) as u64;
                    let ask = AnalyzeRequest {
                        source: req.source.clone(),
                        events: Some("none"),
                        ..Default::default()
                    };
                    let t0 = Instant::now();
                    let outcome = maybe_span(tracer, "request", None, id, req.kloc, |root| {
                        maybe_span(tracer, "serve_analyze", root, id, req.kloc, |_| {
                            client.analyze(&ask)
                        })
                    });
                    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                    (req, Reply { outcome: outcome.map_err(|e| e.to_string()), latency_ms })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

fn measure(
    daemon: &Daemon,
    clients: &mut [Client; 2],
    lists: &[Vec<Request>; 2],
    tracer: Option<&Tracer>,
) -> Phase {
    let mut phase = Phase::default();
    let rejected0 = daemon.rejected(&mut clients[0]);
    let store0 = sys::dir_mb(&daemon.store);
    let rss0 = sys::status_mb(Some(daemon.pid), "VmRSS").unwrap_or(0.0);
    let pid = daemon.pid;
    let cpu = || sys::proc_cpu_s(pid).unwrap_or(0.0);
    let mut replies = Vec::new();
    for (i, (a, b)) in lists[0].iter().zip(&lists[1]).enumerate() {
        let (step, round) = Round::run(2, &cpu, || {
            let step = exchange(clients, [a, b], i, tracer);
            let latencies = step.iter().map(|(_, r)| r.latency_ms).collect();
            (step, latencies)
        });
        phase.rounds.push(round);
        for (req, reply) in step {
            if reply.check(&mut phase.tally, req) {
                phase.kloc += req.kloc;
            }
            replies.push(reply);
        }
    }
    let rss1 = sys::status_mb(Some(daemon.pid), "VmRSS").unwrap_or(0.0);
    let store1 = sys::dir_mb(&daemon.store);
    let rejected = daemon.rejected(&mut clients[0]) - rejected0;
    phase.peak_rss_mb = sys::status_mb(Some(daemon.pid), "VmHWM").unwrap_or(0.0);

    let n = replies.len();
    let sum = |f: &dyn Fn(&Reply) -> f64| replies.iter().map(f).sum::<f64>();
    let stat = |k: &'static str| sum(&|r| r.stat("stats", k));
    let engine_ms =
        |r: &Reply| (r.stat("stats", "time_iterate_ns") + r.stat("stats", "time_check_ns")) / 1e6;
    let overheads: Vec<f64> = replies.iter().map(|r| r.latency_ms - engine_ms(r)).collect();
    let (replayed, solved) = (stat("loops_replayed"), stat("loops_solved"));
    let kloc: f64 = lists.iter().flatten().map(|r| r.kloc).sum();
    let wall: f64 = phase.rounds.iter().map(|r| r.wall_s).sum();
    let cpu_s: f64 = phase.rounds.iter().map(|r| r.cpu_s).sum();
    phase.layers = BTreeMap::from([
        ("serve.overhead_ms", median(&overheads)),
        ("serve.rejected", rejected),
        (
            "cache.reuse_ratio",
            if replayed + solved == 0.0 { 0.0 } else { replayed / (replayed + solved) },
        ),
        ("cache.seeded_functions", mean(sum(&|r| r.stat("cache", "seeded_functions")), n)),
        (
            "cache.invalidated_functions",
            mean(sum(&|r| r.stat("cache", "invalidated_functions")), n),
        ),
        ("store.mb", store1),
        ("store.mb_per_request", mean(store1 - store0, n)),
        ("daemon.rss_mb_per_request", mean(rss1 - rss0, n)),
        ("daemon.cpu_per_wall", cpu_s / wall),
        ("sched.parallel_slices", mean(stat("parallel_slices"), n)),
        ("iterate.ms_per_kloc", stat("time_iterate_ns") / 1e6 / kloc),
        ("check.ms_per_kloc", stat("time_check_ns") / 1e6 / kloc),
        ("iterate.stmts_interpreted", stat("stmts_interpreted")),
        ("iterate.loop_iterations", stat("loop_iterations")),
        ("packs.octagon_packs", stat("octagon_packs")),
    ]);
    phase
}

/// A resident `astree serve` child process with its own socket and store.
struct Daemon {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pid: u32,
    endpoint: Endpoint,
    socket: PathBuf,
    store: PathBuf,
}

impl Daemon {
    /// Launches the daemon and waits for its "listening" line.
    fn start(ctx: &Ctx, k: usize) -> Daemon {
        let tag = format!("edit-{}-{k}", std::process::id());
        let socket = ctx.run_dir.join(format!("{tag}.sock"));
        let store = ctx.run_dir.join(format!("{tag}-store"));
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_dir_all(&store);
        let mut child = Command::new(&ctx.astree)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(["--jobs", "2", "--cache"])
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("cannot launch `astree serve`");
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("daemon stdout");
        let mut d = Daemon {
            child: Some(child),
            stdout,
            pid,
            endpoint: Endpoint::Unix(socket.clone()),
            socket,
            store,
        };
        if !line.contains("listening") {
            d.kill();
            panic!("daemon did not start: {line:?}");
        }
        d
    }

    fn connect(&self) -> Client {
        Client::connect(&self.endpoint).expect("cannot connect to the daemon")
    }

    /// overloaded + bad_request + panicked replies so far, from `status`.
    fn rejected(&self, client: &mut Client) -> f64 {
        let status = client.status().expect("status request");
        let serve = status.get("serve").expect("status carries serve counters");
        ["rejected_overloaded", "bad_requests", "panicked"]
            .iter()
            .map(|k| serve.get(k).and_then(Json::as_u64).unwrap_or(0) as f64)
            .sum()
    }

    /// Asks the daemon to stop, waits for it to exit, and removes its files.
    fn shutdown(mut self, clients: [Client; 2]) {
        let [mut first, second] = clients;
        drop(second);
        let asked = first.shutdown().is_ok();
        drop(first);
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if asked && Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_dir_all(&self.store);
    }
}
