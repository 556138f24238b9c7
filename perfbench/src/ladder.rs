//! `cold_ladder`: sequential cold analyses up the Fig. 2 size ladder, in this
//! process, one thread, `AnalysisSession` with jobs = 1 and no store.
//!
//! Only the frontend, pack discovery, the iterator (with its domains, memory
//! domain and persistent maps) and the checking pass do work here; the
//! cache, `sched`, `fleet` and `serve` do none, so a change confined to them
//! should read "no change" on this workload.

use crate::corpus::{self, Request};
use crate::phase::{Ctx, Phase, Report, Round, Tally, Traced};
use crate::sys;
use crate::trace::{layer_metrics, maybe_span, Tracer};
use astree_core::{AnalysisConfig, AnalysisSession};
use astree_frontend::Frontend;
use astree_obs::Collector;
use std::collections::BTreeMap;
use std::time::Instant;

/// Nominal seconds of one pass over the ladder on a 2-vCPU host.
const PASS_S: f64 = 2.5;
/// Set-up rounds per run, each one analysis of every priming member (about
/// half a second); their median is the workload's set-up time.
const SETUPS: usize = 12;
/// Four members of one size average out the cost of any one generator seed.
const PRIMING_MEMBERS: u64 = 4;
const PRIMING_CHANNELS: usize = 8;

pub fn run(ctx: &Ctx) -> Report {
    // The analysis and the one-thread probe share one vCPU.
    sys::pin_to_one_cpu();
    let requests = corpus::ladder(ctx.seed, ctx.units(PASS_S, 1));
    let members = (0..PRIMING_MEMBERS)
        .map(|k| {
            let seed = ctx.seed.wrapping_mul(PRIMING_MEMBERS).wrapping_add(k) % 1_000_000;
            corpus::member(PRIMING_CHANNELS, seed, None)
        })
        .collect();
    let mut priming = Priming { members, rounds: Vec::new(), tally: Tally::default() };

    let untraced = measure(&requests, None, Some(&mut priming));
    let traced = ctx.trace.then(|| {
        let tracer = Tracer::new();
        let mut phase = measure(&requests, Some(&tracer), None);
        let spans = tracer.spans();
        phase.layers.extend(layer_metrics(&spans));
        Traced { phase, spans }
    });
    Report { setups: priming.rounds, setup_tally: priming.tally, untraced, traced }
}

/// cold_ladder has nothing to set up, yet every run reports `setup_s`: it
/// times rounds of cold analyses of small priming members. They are spread
/// evenly over the untraced phase rather than made before it, so they meet
/// the same host speed modes as the requests around them: made back to
/// back, the whole set-up fell into one mode of the host, and its median
/// followed that mode from run to run.
struct Priming {
    members: Vec<Request>,
    rounds: Vec<Round>,
    tally: Tally,
}

impl Priming {
    fn round(&mut self) {
        let (verdicts, round) = Round::run(1, &|| 0.0, || {
            (
                self.members.iter().map(|req| analyze(req, 0, None, None).0).collect::<Vec<_>>(),
                vec![],
            )
        });
        for (req, lines) in self.members.iter().zip(verdicts) {
            self.tally.verdict(req, &lines);
        }
        self.rounds.push(round);
    }
}

/// Compiles and analyzes one request; returns the rendered alarms and the
/// session's stats. When traced, also times layout + pack discovery (which
/// the session redoes internally) and attaches a metrics recorder.
fn analyze(
    req: &Request,
    id: u64,
    tracer: Option<&Tracer>,
    collector: Option<&Collector>,
) -> (Vec<String>, Option<astree_core::AnalysisStats>) {
    maybe_span(tracer, "request", None, id, req.kloc, |root| {
        let compiled = maybe_span(tracer, "frontend", root, id, req.kloc, |_| {
            Frontend::new().compile_str(&req.source)
        });
        let program = match compiled {
            Ok(p) => p,
            Err(e) => return (vec![format!("compile error: {e}")], None),
        };
        let config = AnalysisConfig::default();
        if tracer.is_some() {
            maybe_span(tracer, "packs", root, id, req.kloc, |_| {
                std::hint::black_box(crate::probe::discover_packs(&program, &config));
            });
        }
        let result = maybe_span(tracer, "analysis", root, id, req.kloc, |_| {
            let mut builder = AnalysisSession::builder(&program).config(config).jobs(1);
            if let Some(c) = collector {
                builder = builder.recorder(c);
            }
            builder.build().run()
        });
        (result.alarms.iter().map(|a| a.to_string()).collect(), Some(result.stats))
    })
}

/// Runs every request, each as a round of its own; with `priming`, also
/// its set-up rounds, spread evenly between the requests.
fn measure(
    requests: &[Request],
    tracer: Option<&Tracer>,
    mut priming: Option<&mut Priming>,
) -> Phase {
    let mut phase = Phase::default();
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *sums.entry(k).or_default() += v;
    let (mut iterate_ms, mut check_ms) = (0.0, 0.0);
    let mut domain = DomainTotals::default();

    let cpu = || sys::self_usage().cpu_s;
    let every = requests.len().div_ceil(SETUPS);
    for (i, req) in requests.iter().enumerate() {
        if let Some(p) = priming.as_deref_mut().filter(|_| i % every == 0) {
            p.round();
        }
        let collector = tracer.map(|_| Collector::new());
        let ((lines, stats), round) = Round::run(1, &cpu, || {
            // Peak memory of this request alone, read before the next probe.
            sys::reset_peak_rss();
            let t0 = Instant::now();
            let out = analyze(req, i as u64, tracer, collector.as_ref());
            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            let peak = sys::status_mb(None, "VmHWM").unwrap_or(0.0);
            phase.peak_rss_mb = phase.peak_rss_mb.max(peak);
            (out, vec![latency_ms])
        });
        phase.rounds.push(round);
        if phase.tally.verdict(req, &lines) {
            phase.kloc += req.kloc;
        }
        if let Some(s) = stats {
            iterate_ms += s.time_iterate.as_secs_f64() * 1e3;
            check_ms += s.time_check.as_secs_f64() * 1e3;
            add("packs.octagon_packs", s.octagon_packs as f64);
            add("iterate.stmts_interpreted", s.stmts_interpreted as f64);
            add("iterate.loop_iterations", s.loop_iterations as f64);
        }
        if let Some(c) = &collector {
            domain.add(c);
        }
    }

    let kloc: f64 = requests.iter().map(|r| r.kloc).sum();
    phase.layers = sums;
    phase.layers.insert("iterate.ms_per_kloc", iterate_ms / kloc);
    phase.layers.insert("check.ms_per_kloc", check_ms / kloc);
    if tracer.is_some() {
        domain.report(&mut phase.layers, iterate_ms);
    }
    phase
}

/// Recorder readings summed over the requests of a traced phase.
#[derive(Default)]
struct DomainTotals {
    closure_count: u64,
    closure_ns: u64,
    assign_ns: u64,
    ops_ns: u64,
    nodes_allocated: u64,
    nodes_recycled: u64,
    merge_calls: u64,
    root_shortcuts: u64,
    max_bytes_live: u64,
}

impl DomainTotals {
    fn add(&mut self, c: &Collector) {
        let m = c.snapshot();
        let op = |d: &str, o: &str| {
            m.domains.get(d).and_then(|ops| ops.get(o)).cloned().unwrap_or_default()
        };
        let closure = op("octagon", "closure");
        self.closure_count += closure.count;
        self.closure_ns += closure.nanos;
        self.assign_ns += op("octagon", "assign").nanos;
        self.ops_ns +=
            m.domains.values().flat_map(|ops| ops.values()).map(|o| o.nanos).sum::<u64>();
        let p = &m.pmap;
        self.nodes_allocated += p.nodes_allocated;
        self.nodes_recycled += p.nodes_recycled;
        self.merge_calls += p.merge_calls;
        self.root_shortcuts += p.root_shortcut_hits;
        self.max_bytes_live = self.max_bytes_live.max(p.bytes_live());
    }

    fn report(&self, layers: &mut BTreeMap<&'static str, f64>, iterate_ms: f64) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let ms = |ns: u64| ns as f64 / 1e6;
        layers.insert("octagon.closure_count", self.closure_count as f64);
        layers.insert("octagon.closure_ms", ms(self.closure_ns));
        layers.insert("octagon.assign_ms", ms(self.assign_ns));
        layers.insert("domains.ops_ms", ms(self.ops_ns));
        layers.insert("iterate.unattributed_ms", iterate_ms - ms(self.ops_ns));
        layers.insert("pmap.nodes_allocated", self.nodes_allocated as f64);
        layers.insert("pmap.recycled_ratio", ratio(self.nodes_recycled, self.nodes_allocated));
        layers.insert("pmap.shortcut_ratio", ratio(self.root_shortcuts, self.merge_calls));
        layers.insert("pmap.bytes_live_mb", self.max_bytes_live as f64 / (1024.0 * 1024.0));
    }
}
