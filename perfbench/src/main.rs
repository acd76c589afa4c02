//! End-to-end and per-layer benchmark of the Athena workspace.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <city-t1|overload-adaptive|live-chain> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on untraced runs;
//! `--trace 1` makes one traced run and times each layer's public
//! functions on its inputs. Every run is checked for correctness. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines above it
//! give the host facts and every metric by name with its unit. The
//! process exits nonzero when any run fails a check. `METRICS.md` maps
//! each metric to the layer it measures.

// A benchmark times the wall clock and reads its command line; both are
// outside any simulation.
#![allow(clippy::disallowed_methods)]

mod layers;
mod stats;
mod workload;

use dde_core::{QueryStatus, RunOptions, RunReport};
use dde_net::ClusterOutcome;
use dde_obs::SharedSink;
use dde_workload::Scenario;
use layers::{now, LayerSink};
use std::collections::BTreeMap;
use std::time::Duration;
use workload::{Workload, LIVE_TIME_SCALE};

/// Fewest batch builds per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Batch builds repeat until this much time has passed, so a cheap
/// set-up is still timed often enough for a steady median.
const SETUP_MIN: Duration = Duration::from_secs(1);
/// Fewest measured runs per invocation, however long they take.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing {k}"));
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = Workload::from_name(get("--workload")?)
        .ok_or(format!("unknown workload; one of {names:?}"))?;
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if flags.len() != 4 {
        return Err("unexpected flag".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one invocation measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    /// The metrics of the final JSON line.
    reported: Vec<Metric>,
    /// Printed by name with the rest, but left out of the JSON line
    /// because some workload lacks them or reads 0.
    extra: Vec<Metric>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.reported.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts one run and records its check result.
    fn checked(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

fn main() {
    // lint: allow(nondeterminism) — the command line is the benchmark's input
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("host {}", host_facts());
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        per_layer(w, args.seed, budget)
    } else {
        end_to_end(w, args.seed, budget)
    };

    for m in outcome.reported.iter().chain(&outcome.extra) {
        println!("{:<28} {:>16} {}", m.name, format_value(m.value), m.unit);
    }
    let mut failures = outcome.failures;
    for m in &outcome.reported {
        if !m.value.is_finite() {
            failures.push(format!("{} is not a finite number", m.name));
        }
    }
    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let metrics: Vec<String> = outcome
        .reported
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    let failed = failures.len() as u64;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        outcome.attempted.max(1),
        failed,
        metrics.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// CPU count, toolchain, build profile and source revision, so numbers
/// from different hosts are never compared blind.
fn host_facts() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"cpus\": {cpus}, \"rustc\": {}, \"profile\": {}, \"opt_level\": {}, \"git_rev\": {}}}",
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(env!("PERFBENCH_OPT_LEVEL")),
        json_str(&git_rev())
    )
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Queries that reached a final status: decided either way, missed or
/// shed (shed queries end as missed).
fn finished(r: &RunReport) -> usize {
    r.queries
        .iter()
        .filter(|q| !matches!(q.status, QueryStatus::Pending))
        .count()
}

/// Simulated issue-to-decision latencies of decided queries, seconds.
fn sim_latencies(r: &RunReport) -> Vec<f64> {
    r.queries
        .iter()
        .filter_map(|q| q.latency.map(|l| l.as_secs_f64()))
        .collect()
}

/// One scenario of an invocation's batch, with its options and the DES
/// report every run of it is checked against.
struct Case {
    scenario: Scenario,
    options: RunOptions,
    reference: RunReport,
}

/// Builds the workload's batch of scenarios at least `SETUP_REPS` times
/// and for at least `SETUP_MIN`, and returns the median time of one
/// batch build (on the live workload each
/// build includes the scenario's DES reference run) with the cases. The
/// DES workloads' reference runs come after, untimed.
fn setup(w: Workload, seed: u64) -> (f64, Vec<Case>) {
    let seeds = workload::batch_seeds(seed);
    let mut built = Vec::new();
    let mut samples = Vec::new();
    let start = now();
    while samples.len() < SETUP_REPS || start.elapsed() < SETUP_MIN {
        let t = now();
        built = seeds
            .iter()
            .map(|&s| {
                let scenario = w.build(s);
                let options = w.options(s);
                let reference = w
                    .is_live()
                    .then(|| workload::live_reference(&scenario, &options));
                (scenario, options, reference)
            })
            .collect();
        samples.push(secs(t.elapsed()));
    }
    let cases = built
        .into_iter()
        .map(|(scenario, options, reference)| {
            let reference =
                reference.unwrap_or_else(|| workload::des_reference(w, &scenario, &options));
            Case {
                scenario,
                options,
                reference,
            }
        })
        .collect();
    (stats::median(&samples), cases)
}

/// Runs `run` until `budget` has elapsed (and at least `MIN_RUNS`
/// times), returning each run's wall time and result.
fn measure<R>(budget: Duration, mut run: impl FnMut() -> R) -> Vec<(f64, R)> {
    let start = now();
    let mut out = Vec::new();
    while out.len() < MIN_RUNS || start.elapsed() < budget {
        let t = now();
        let r = run();
        out.push((secs(t.elapsed()), r));
    }
    out
}

/// Runs the cases round-robin until `budget` has elapsed and each has
/// run at least once; returns each case's run times and results.
fn measure_cases<R>(
    cases: &[Case],
    budget: Duration,
    mut run: impl FnMut(&Case) -> R,
) -> Vec<Vec<(f64, R)>> {
    let start = now();
    let mut out: Vec<Vec<(f64, R)>> = cases.iter().map(|_| Vec::new()).collect();
    loop {
        for (case, runs) in cases.iter().zip(out.iter_mut()) {
            if start.elapsed() >= budget && !runs.is_empty() {
                return out;
            }
            let t = now();
            let r = run(case);
            runs.push((secs(t.elapsed()), r));
        }
    }
}

/// Outcome totals over a batch, one run per scenario.
#[derive(Default)]
struct Totals {
    queries: usize,
    finished: usize,
    resolved: usize,
    missed: usize,
    bytes: u64,
    events: u64,
}

impl Totals {
    fn add(&mut self, r: &RunReport) {
        self.queries += r.total_queries;
        self.finished += finished(r);
        self.resolved += r.resolved;
        self.missed += r.missed;
        self.bytes += r.total_bytes;
        self.events += r.events;
    }
}

fn end_to_end(w: Workload, seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, cases) = setup(w, seed);

    // Per scenario: the median run time, and the outcome of its first
    // run; every run is checked first.
    let mut times = Vec::new();
    let mut runs_made = 0;
    let mut totals = Totals::default();
    let mut sim_lat: Vec<Vec<f64>> = Vec::new();
    if w.is_live() {
        let mut wall_ms = Vec::new();
        let mut lag_ms = Vec::new();
        let all = measure_cases(&cases, budget, |c| {
            workload::run_live(&c.scenario, &c.options)
        });
        for (j, (case, runs)) in cases.iter().zip(all).enumerate() {
            let mut ok_times = Vec::new();
            let mut first = None;
            for (i, (t, r)) in runs.into_iter().enumerate() {
                let check = r
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(|o| workload::check_live(o, &case.reference));
                out.checked(&format!("scenario {j} live run {i}"), check);
                let Ok(o) = r else { continue };
                ok_times.push(t);
                live_wall_latencies(&case.scenario, &o, &mut wall_ms, &mut lag_ms);
                first.get_or_insert(o.report);
            }
            let Some(first) = first else { continue };
            runs_made += ok_times.len();
            times.push(stats::median(&ok_times));
            totals.add(&first);
            // Simulated latency is the DES reference's: the live run's
            // virtual clock is wall time scaled.
            sim_lat.push(sim_latencies(&case.reference));
        }
        let pct = |xs: &[f64], p: f64| stats::percentile(xs, p).unwrap_or(f64::NAN);
        out.extra("wall_latency_p50_ms", pct(&wall_ms, 50.0), "ms");
        out.extra("wall_latency_p90_ms", pct(&wall_ms, 90.0), "ms");
        if let Some(p) = stats::tail_percentile(wall_ms.len()) {
            out.extra(
                &format!("wall_latency_tail_p{p}_ms"),
                pct(&wall_ms, p),
                "ms",
            );
        }
        out.extra("wall_latency_samples", wall_ms.len() as f64, "count");
        out.extra("issue_lag_p50_ms", pct(&lag_ms, 50.0), "ms");
        out.extra("issue_lag_max_ms", pct(&lag_ms, 100.0), "ms");
        out.extra("offered_queries_per_s", 1e6 / LIVE_TIME_SCALE as f64, "1/s");
    } else {
        let all = measure_cases(&cases, budget, |c| {
            workload::run_des(&c.scenario, &c.options)
        });
        for (j, (case, runs)) in cases.iter().zip(all).enumerate() {
            for (i, (_, r)) in runs.iter().enumerate() {
                out.checked(
                    &format!("scenario {j} run {i}"),
                    workload::check_des(r, &case.reference),
                );
            }
            runs_made += runs.len();
            times.push(stats::median(
                &runs.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            ));
            let first = &runs[0].1;
            totals.add(first);
            sim_lat.push(sim_latencies(first));
        }
    }
    if times.is_empty() {
        out.failures.push("no run completed".into());
        return out;
    }

    let busy: f64 = times.iter().sum();
    let queries = totals.queries.max(1) as f64;
    // Latency percentiles are taken per scenario, as the paper reads
    // them off one run, and averaged over the batch: a pooled tail would
    // be set by whichever scenario has the slowest queries.
    let pct = |p: f64| {
        let per: Vec<f64> = sim_lat
            .iter()
            .map(|l| stats::percentile(l, p).unwrap_or(f64::NAN))
            .collect();
        per.iter().sum::<f64>() / per.len() as f64
    };
    out.metric("setup_s", setup_s, "s");
    out.metric("run_s", busy / times.len() as f64, "s");
    out.metric("events_per_s", totals.events as f64 / busy, "1/s");
    out.metric("decisions_per_s", totals.finished as f64 / busy, "1/s");
    out.metric(
        "resolution_ratio",
        totals.resolved as f64 / queries,
        "ratio",
    );
    out.metric("bytes_per_decision", totals.bytes as f64 / queries, "B");
    out.metric("sim_latency_p50_s", pct(50.0), "s");
    out.metric("sim_latency_p90_s", pct(90.0), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.extra("scenarios", cases.len() as f64, "count");
    out.extra("run_samples", runs_made as f64, "count");
    out.extra("miss_ratio", totals.missed as f64 / queries, "ratio");
    let fewest = sim_lat.iter().map(Vec::len).min().unwrap_or(0);
    out.extra("sim_latency_samples_min", fewest as f64, "count");
    if let Some(p) = stats::tail_percentile(fewest) {
        out.extra(&format!("sim_latency_tail_p{p}_s"), pct(p), "s");
    }
    let per_origin = cases
        .iter()
        .map(|c| workload::queries_per_origin_max(&c.scenario));
    out.extra(
        "queries_per_origin_max",
        per_origin.max().unwrap_or(0) as f64,
        "count",
    );
    out
}

/// Appends each decided query's wall latency, timed from its scheduled
/// issue instant, and how late the host issued it, both in wall ms.
fn live_wall_latencies(
    scenario: &Scenario,
    outcome: &ClusterOutcome,
    wall_ms: &mut Vec<f64>,
    lag_ms: &mut Vec<f64>,
) {
    let scheduled: BTreeMap<u64, _> = scenario
        .queries
        .iter()
        .map(|q| (q.id, q.issue_at))
        .collect();
    let to_wall_ms = |virtual_us: u64| virtual_us as f64 / LIVE_TIME_SCALE as f64 / 1000.0;
    for q in &outcome.report.queries {
        let (QueryStatus::Decided { at, .. }, Some(latency)) = (q.status, q.latency) else {
            continue;
        };
        let Some(&issue) = scheduled.get(&q.id.0) else {
            continue;
        };
        let from_schedule = at.saturating_since(issue).as_micros();
        wall_ms.push(to_wall_ms(from_schedule));
        lag_ms.push(to_wall_ms(
            from_schedule.saturating_sub(latency.as_micros()),
        ));
    }
}

fn per_layer(w: Workload, seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let seed = workload::batch_seeds(seed)[0];
    let options = w.options(seed);
    let micro = budget / 40;

    let mut scenario = None;
    let build_s = layers::time_median(SETUP_REPS, || scenario = Some(w.build(seed)));
    let scenario = scenario.expect("built at least once");
    let mut routes_samples = Vec::new();
    for _ in 0..SETUP_REPS {
        let mut topology = scenario.topology.clone();
        let t = now();
        topology.rebuild_routes();
        routes_samples.push(secs(t.elapsed()));
    }
    let node_build_s = layers::time_median(SETUP_REPS, || {
        let shared = dde_core::build_shared_world(&scenario, &options);
        let annotator: std::sync::Arc<dyn dde_core::Annotator + Send + Sync> =
            std::sync::Arc::new(dde_core::GroundTruthAnnotator);
        dde_core::build_nodes(&scenario, &shared, &annotator)
    });

    // Untraced runs give the baseline for the tracing overhead and the
    // handler estimate; the traced run gives counts and layer inputs.
    // On the live workload the DES layers are read off its DES
    // reference run and the wire layer off the cluster.
    let sink = SharedSink::new(LayerSink::default());
    let (des_run_s, untraced_s, traced_s, records, wire, events);
    if w.is_live() {
        let reference = workload::live_reference(&scenario, &options);
        events = reference.events;
        des_run_s = layers::time_median(MIN_RUNS, || workload::live_reference(&scenario, &options));
        let traced_des = dde_net::DesTransport::new(options.clone())
            .run_observed(&scenario, Box::new(sink.clone()));
        out.checked(
            "traced DES reference",
            check_traced(&traced_des, &reference),
        );
        let runs = measure(budget / 2, || workload::run_live(&scenario, &options));
        let mut times = Vec::new();
        for (i, (t, r)) in runs.iter().enumerate() {
            let check = r
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|o| workload::check_live(o, &reference));
            out.checked(&format!("live run {i}"), check);
            times.push(*t);
        }
        untraced_s = stats::median(&times);
        let live_sink = SharedSink::new(LayerSink::default());
        let t = now();
        let traced = dde_net::run_cluster_tcp_observed(
            &scenario,
            &options,
            &workload::live_config(),
            Some(live_sink.clone()),
        )
        .map_err(|e| format!("cluster run failed: {e}"));
        traced_s = secs(t.elapsed());
        let check = traced
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|o| workload::check_live(o, &reference));
        out.checked("traced live run", check);
        records = live_sink.with(|s| s.records);
        wire = traced.ok().map(|o| wire_counts(&o));
    } else {
        let reference = workload::des_reference(w, &scenario, &options);
        events = reference.events;
        let runs = measure(budget / 2, || workload::run_des(&scenario, &options));
        let mut times = Vec::new();
        for (i, (t, r)) in runs.iter().enumerate() {
            out.checked(&format!("run {i}"), workload::check_des(r, &reference));
            times.push(*t);
        }
        untraced_s = stats::median(&times);
        des_run_s = untraced_s;
        let t = now();
        let traced = dde_core::run_scenario_sharded_observed(
            &scenario,
            options.clone(),
            1,
            Box::new(sink.clone()),
        );
        traced_s = secs(t.elapsed());
        out.checked("traced run", check_traced(&traced, &reference));
        records = sink.with(|s| s.records);
        wire = None;
    }
    let layer = sink.with(std::mem::take);

    // The engine's self time on one shard thread, and on two, where
    // window planning, barrier waits and the trace merge join in.
    let mut replay = |threads: usize| {
        let mut sent = 0;
        let s = layers::time_median(MIN_RUNS, || {
            sent = layers::replay_engine(
                &scenario,
                &layer.transmits,
                options.medium,
                threads,
                options.seed,
            );
        });
        let expected = layer.transmits.len() as u64;
        out.checked(
            &format!("engine replay on {threads} threads"),
            if sent == expected {
                Ok(())
            } else {
                Err(format!("replayed {sent} transmits of {expected}"))
            },
        );
        s
    };
    let replay_s = replay(1);
    let replay_t2_s = replay(2);
    let (candidates_ns, plan_ns) = layers::time_planners(&scenario, options.strategy, micro);
    let store = layers::replay_store(&layer, options.cache_capacity, micro);
    let fib = layers::catalog_fib(&scenario);
    let requested = layers::requested_names(&layer);
    let misses = layers::fib_misses(&fib, &requested);
    out.checked(
        "FIB replay",
        if misses == 0 {
            Ok(())
        } else {
            Err(format!("{misses} requested names have no route"))
        },
    );
    let fib_ns = layers::time_fib(&fib, &requested, micro);
    let weights: BTreeMap<&'static str, u64> =
        layers::KINDS.iter().map(|&k| (k, layer.tx(k).0)).collect();
    let codec = layers::time_codec(&layers::sample_messages(&scenario), &weights, micro);

    out.metric("workload.build_s", build_s, "s");
    out.metric("netsim.routes_s", stats::median(&routes_samples), "s");
    out.metric("core.node_build_s", node_build_s, "s");
    out.metric("netsim.events", events as f64, "count");
    for k in layers::KINDS {
        out.metric(&format!("netsim.tx.{k}"), layer.tx(k).0 as f64, "count");
    }
    for k in layers::KINDS {
        out.metric(&format!("netsim.tx_bytes.{k}"), layer.tx(k).1 as f64, "B");
    }
    out.metric("netsim.drops", layer.drops as f64, "count");
    out.metric("netsim.losses", layer.losses as f64, "count");
    out.metric("netsim.purges", layer.purges as f64, "count");
    out.metric("netsim.engine_replay_s", replay_s, "s");
    out.metric("netsim.engine_replay_t2_s", replay_t2_s, "s");
    out.metric(
        "core.handler_s_est",
        des_run_s - replay_s - node_build_s,
        "s",
    );
    out.metric("core.plans", layer.plans as f64, "count");
    out.metric(
        "core.admission_verdicts",
        layer.admission_verdicts as f64,
        "count",
    );
    out.metric("core.fetch_timeouts", layer.fetch_timeouts as f64, "count");
    out.metric("core.request_sends", layer.request_sends as f64, "count");
    out.metric("core.label_shares", layer.label_shares as f64, "count");
    out.metric(
        "core.queries_per_origin_max",
        workload::queries_per_origin_max(&scenario) as f64,
        "count",
    );
    out.metric("sched.candidates_ns", candidates_ns, "ns");
    out.metric("sched.plan_dnf_ns", plan_ns, "ns");
    out.metric("naming.store_insert_ns", store.insert_ns, "ns");
    out.metric("naming.store_get_ns", store.get_ns, "ns");
    out.metric("naming.store_evictions", store.evictions as f64, "count");
    out.metric("naming.fib_lookup_ns", fib_ns, "ns");
    let lookups = layer.cache_hits + layer.cache_misses;
    out.metric(
        "naming.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            layer.cache_hits as f64 / lookups as f64
        },
        "ratio",
    );
    out.metric("net.encode_ns", codec.encode_ns, "ns");
    out.metric("net.decode_ns", codec.decode_ns, "ns");
    out.metric("net.frame_bytes", codec.frame_bytes, "B");
    let wire = wire.unwrap_or_default();
    out.metric("net.frames_out", wire.frames_out as f64, "count");
    out.metric("net.bytes_out", wire.bytes_out as f64, "B");
    out.metric("net.dispatches", wire.dispatches as f64, "count");
    out.metric("net.decode_errors", wire.decode_errors as f64, "count");
    out.metric("net.connect_retries", wire.connect_retries as f64, "count");
    out.metric("obs.trace_records", records as f64, "count");
    out.metric("obs.tracing_overhead", traced_s / untraced_s - 1.0, "ratio");
    out.extra("untraced_run_s", untraced_s, "s");
    out.extra("traced_run_s", traced_s, "s");
    out
}

/// A traced run must decide exactly as its untraced twin; only the cost
/// ledger an observed run attaches may differ.
fn check_traced(traced: &RunReport, reference: &RunReport) -> Result<(), String> {
    let mut t = traced.clone();
    t.ledger = None;
    workload::check_des(&t, reference)
}

/// Wire-layer counters of one cluster run, summed over nodes.
#[derive(Default)]
struct WireCounts {
    frames_out: u64,
    bytes_out: u64,
    dispatches: u64,
    decode_errors: u64,
    connect_retries: u64,
}

fn wire_counts(o: &ClusterOutcome) -> WireCounts {
    let sum = |name: &str| -> u64 {
        o.nodes
            .iter()
            .map(|n| n.snapshot.counter(name).unwrap_or(0))
            .sum()
    };
    WireCounts {
        frames_out: sum("tcp.frames_out"),
        bytes_out: sum("tcp.bytes_out"),
        dispatches: o.report.events,
        decode_errors: sum("tcp.decode_errors"),
        connect_retries: sum("tcp.connect_retries"),
    }
}
