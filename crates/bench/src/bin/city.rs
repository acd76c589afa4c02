//! Regenerates **BENCH_city.json**: the city-scale sharded-simulator gate.
//!
//! One JSON document with two sections:
//!
//! - `invariant` — facts of the simulated run itself (event count, query
//!   outcomes, byte totals), identical on every machine and at every
//!   thread count; the CI gate compares these **exactly**. A sweep over
//!   the configured thread counts asserts cross-thread-count equality
//!   before anything is written.
//! - `throughput` — wall-clock events/sec per thread count as
//!   `{mean, stddev}` stat objects, compared **fuzzily** within the wide
//!   `bench.toml` tolerances. Wall-clock numbers depend on the host (core
//!   count, load, CPU generation), so the gate on them is deliberately
//!   coarse: it exists to catch order-of-magnitude collapses, not
//!   percent-level drift.
//!
//! Usage: `cargo run -p dde-bench --bin city --release`
//!
//! Knobs: `DDE_REPS` (timing samples per thread count, default 5),
//! `DDE_SEED` (scenario seed, default 1), `DDE_CITY_THREADS`
//! (space-separated sweep, default `1 2 4`).

// Bench binary: env knobs and wall-clock timing are out-of-simulation.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use dde_bench::{stat, write_bench_json, HarnessConfig};
use dde_core::prelude::*;
use dde_core::Strategy;
use dde_obs::JsonValue;
use dde_workload::prelude::*;
use std::time::Instant;

fn stat_json(samples: &[f64]) -> JsonValue {
    let st = stat(samples);
    JsonValue::Object(vec![
        ("mean".into(), JsonValue::Float(st.mean)),
        ("stddev".into(), JsonValue::Float(st.stddev)),
    ])
}

fn main() {
    let cfg = HarnessConfig::from_env();
    let threads: Vec<usize> = std::env::var("DDE_CITY_THREADS")
        .unwrap_or_else(|_| "1 2 4".into())
        .split_whitespace()
        .map(|t| t.parse().expect("DDE_CITY_THREADS must be integers"))
        .collect();
    assert!(!threads.is_empty(), "need at least one thread count");

    let config = ScenarioConfig::city()
        .with_seed(cfg.seed)
        .with_fast_ratio(0.4);
    let scenario = Scenario::build(config);
    let options = |threads| {
        let mut o = RunOptions::new(Strategy::LvfLabelShare);
        o.seed = cfg.seed ^ 0x5eed;
        o.threads = threads;
        o
    };
    eprintln!(
        "city: {} nodes, {} queries, threads {threads:?}, {} reps, seed {}",
        scenario.topology.len(),
        scenario.queries.len(),
        cfg.reps,
        cfg.seed
    );

    let mut baseline: Option<RunReport> = None;
    let mut throughput: Vec<(String, JsonValue)> = Vec::new();
    let mut per_thread_mean: Vec<f64> = Vec::new();
    for &t in &threads {
        let mut samples = Vec::with_capacity(cfg.reps as usize);
        let mut report = None;
        for _ in 0..cfg.reps.max(1) {
            let start = Instant::now();
            let r = run_scenario(&scenario, options(t));
            let wall = start.elapsed().as_secs_f64();
            samples.push(r.events as f64 / wall.max(1e-9));
            report = Some(r);
        }
        let report = report.expect("at least one rep");
        eprintln!(
            "  t={t}: {:.0} events/s (best of {} reps), {} events",
            samples.iter().cloned().fold(0.0f64, f64::max),
            samples.len(),
            report.events
        );
        // The run itself must not depend on the thread count.
        if let Some(base) = &baseline {
            assert_eq!(
                base, &report,
                "sharded run diverged between thread counts (t={t})"
            );
        } else {
            baseline = Some(report);
        }
        per_thread_mean.push(stat(&samples).mean);
        throughput.push((format!("events_per_sec_t{t}"), stat_json(&samples)));
    }
    let report = baseline.expect("at least one thread count ran");

    // Parallel speedup of the last sweep entry over the first (t_max vs
    // t1 in the default sweep) — a single machine-relative ratio, gated
    // coarsely like the absolute rates.
    if threads.len() > 1 {
        let speedup = per_thread_mean[threads.len() - 1] / per_thread_mean[0].max(1e-9);
        throughput.push((
            format!("speedup_t{}", threads[threads.len() - 1]),
            JsonValue::Object(vec![
                ("mean".into(), JsonValue::Float(speedup)),
                ("stddev".into(), JsonValue::Float(0.0)),
            ]),
        ));
    }

    let invariant = JsonValue::Object(vec![
        ("events".into(), JsonValue::Int(report.events as i64)),
        (
            "total_queries".into(),
            JsonValue::Int(report.total_queries as i64),
        ),
        ("resolved".into(), JsonValue::Int(report.resolved as i64)),
        ("viable".into(), JsonValue::Int(report.viable as i64)),
        (
            "total_bytes".into(),
            JsonValue::Int(report.total_bytes as i64),
        ),
        ("thread_counts_identical".into(), JsonValue::Bool(true)),
    ]);

    let doc = JsonValue::Object(vec![
        ("bench".into(), JsonValue::Str("city".into())),
        ("reps".into(), JsonValue::Int(cfg.reps as i64)),
        ("seed".into(), JsonValue::Int(cfg.seed as i64)),
        (
            "threads".into(),
            JsonValue::Array(threads.iter().map(|&t| JsonValue::Int(t as i64)).collect()),
        ),
        ("invariant".into(), invariant),
        ("throughput".into(), JsonValue::Object(throughput)),
    ]);
    write_bench_json("BENCH_city.json", &doc);
}
