//! The astree benchmark: three workloads, end-to-end metrics checked
//! against the generator's known answers, and a traced mode for per-layer
//! numbers. See `perfbench/README.md`; `perfbench/run.py` builds the
//! analyzer and this program, then runs it.
//!
//! Usage: `perfbench --workload W --seed N --seconds S --trace 0|1
//!         --astree PATH`, from the repository root.
//!
//! Prints a detail line (tail percentiles, sample counts, failures), then as
//! its last line `{"correct", "attempted", "failed", "metrics"}`.

mod corpus;
mod edit;
mod fleet;
mod ladder;
mod phase;
mod probe;
mod speed;
mod stats;
mod sys;
mod trace;
mod verdict;

use astree_obs::Json;
use phase::{Ctx, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Sockets, stores, the analyzer's temp files and traces, relative to the
/// repository root.
const RUN_DIR: &str = ".bench_run";

/// The benchmark's definition, relative to the repository root; its
/// `end_to_end` and `per_layer` lists name the metrics a run prints.
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// Metric names and units, in the order `BENCHMARK.json` lists them.
struct Metrics {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn load_metrics() -> Result<Metrics, String> {
    let text = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("cannot read {BENCHMARK_JSON}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let table = |key: &str| -> Result<Vec<(String, String)>, String> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            return Err(format!("{BENCHMARK_JSON}: no {key} list"));
        };
        items
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or_else(|| format!("{BENCHMARK_JSON}: {key} entry without name or unit"))
            })
            .collect()
    };
    Ok(Metrics { end_to_end: table("end_to_end")?, per_layer: table("per_layer")? })
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let workload = need(get("--workload"), "--workload")?;
    let seed = need(get("--seed"), "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 =
        need(get("--seconds"), "--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match need(get("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let astree = PathBuf::from(need(get("--astree"), "--astree")?);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let run_dir = PathBuf::from(RUN_DIR);
    Ok(Args { workload, ctx: Ctx { seed, seconds, trace, astree, run_dir } })
}

fn main() -> ExitCode {
    let (args, metrics) = match parse_args().and_then(|a| Ok((a, load_metrics()?))) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    // Everything the analyzer writes (fleet workers' store copies go to the
    // temp directory) stays inside the run directory.
    let tmp = ctx.run_dir.join("tmp");
    std::fs::create_dir_all(&tmp).expect("cannot create the run directory");
    std::env::set_var("TMPDIR", tmp.canonicalize().expect("run directory path"));
    // The first probe of a process reads about 1.5x slow; it would skew
    // whichever round it opened.
    speed::probe(2);
    let report = match args.workload.as_str() {
        "cold_ladder" => ladder::run(ctx),
        "edit_serve" => edit::run(ctx),
        "family_fleet" => fleet::run(ctx),
        other => {
            eprintln!(
                "perfbench: unknown workload {other} (cold_ladder, edit_serve, family_fleet)"
            );
            return ExitCode::from(2);
        }
    };
    let (detail, result) = match render(&args.workload, ctx, &metrics, &report) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(t) = &report.traced {
        let path = ctx.run_dir.join(format!("trace-{}-seed{}.json", args.workload, ctx.seed));
        let doc = Json::obj([("detail", detail.clone()), ("spans", trace::to_json(&t.spans))]);
        std::fs::write(&path, doc.to_compact()).expect("cannot write the trace file");
    }
    println!("{}", Json::obj([("detail", detail)]).to_compact());
    println!("{}", result.to_compact());
    ExitCode::SUCCESS
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Float(*v)).collect())
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Float(value)), ("unit", Json::str(unit))])
}

/// The detail object and the result line. A per-layer metric the workload
/// does not exercise reads 0; an end-to-end metric the workload does not
/// produce is an error.
fn render(
    workload: &str,
    ctx: &Ctx,
    metrics: &Metrics,
    report: &Report,
) -> Result<(Json, Json), String> {
    let mut e2e = report.untraced.e2e(true);
    e2e.insert("setup_s", report.setup_s(true));
    let mut raw = report.untraced.e2e(false);
    raw.insert("setup_s", report.setup_s(false));
    let mut tally = phase::Tally::default();
    for t in [&report.setup_tally, &report.untraced.tally]
        .into_iter()
        .chain(report.traced.as_ref().map(|t| &t.phase.tally))
    {
        tally.absorb(t);
    }

    let values: Vec<(String, Json)> = if let Some(traced) = &report.traced {
        // Counters the API returns come from the untraced phase; span and
        // recorder readings from the traced one.
        let mut layers: BTreeMap<String, f64> =
            traced.phase.layers.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        layers.extend(report.untraced.layers.iter().map(|(k, v)| (k.to_string(), *v)));
        layers.insert("trace.spans".into(), traced.spans.len() as f64);
        // Set-up is never traced, so `setup_s` has no overhead.
        for (name, traced_value) in traced.phase.e2e(true) {
            layers.insert(format!("trace.overhead.{name}"), traced_value - e2e[name]);
        }
        metrics
            .per_layer
            .iter()
            .map(|(name, unit)| {
                (name.clone(), metric(layers.get(name).copied().unwrap_or(0.0), unit))
            })
            .collect()
    } else {
        metrics
            .end_to_end
            .iter()
            .map(|(name, unit)| match e2e.get(name.as_str()) {
                Some(v) => Ok((name.clone(), metric(*v, unit))),
                None => Err(format!("no end-to-end metric {name}")),
            })
            .collect::<Result<_, _>>()?
    };

    let tail = report.untraced.tail();
    let detail = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::UInt(ctx.seed)),
        ("seconds", Json::UInt(ctx.seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("rounds", Json::UInt(report.untraced.rounds.len() as u64)),
        ("tail_percentile", Json::Float(tail.percentile)),
        ("tail_samples", Json::UInt(tail.samples as u64)),
        ("slowdown", Json::Float(report.untraced.slowdown())),
        ("raw", Json::obj(raw.iter().map(|(k, v)| (*k, Json::Float(*v))))),
        ("setups_s", floats(&report.setup_times(true))),
        ("setups_raw_s", floats(&report.setup_times(false))),
        ("layers", Json::obj(report.untraced.layers.iter().map(|(k, v)| (*k, Json::Float(*v))))),
        ("failures", Json::Arr(tally.failures.iter().map(|f| Json::str(f.clone())).collect())),
    ]);
    let result = Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::UInt(tally.attempted)),
        ("failed", Json::UInt(tally.failed)),
        ("metrics", Json::Obj(values)),
    ]);
    Ok((detail, result))
}
