//! Runs the city-scale evaluation scenario — 12×12 Manhattan grid, 60
//! Athena nodes, 120 route-finding queries — as a thread sweep over the
//! sharded parallel simulator, printing an events/sec figure per thread
//! count and the full run report for a chosen strategy.
//!
//! Run with:
//! `cargo run -p dde-examples --bin city_scale --release [strategy] [threads...]`
//! where `strategy` is one of `cmp`, `slt`, `lcf`, `lvf`, `lvfl`
//! (default `lvfl`) and `threads...` is the sweep (default `1 2 4`).
//! Reports must be identical at every thread count; the sweep checks this.

// CLI argument parsing and wall-clock throughput measurement read the
// environment; the simulated runs themselves use a fixed seed.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]
use dde_core::prelude::*;
use dde_workload::prelude::*;
use std::time::Instant;

fn main() {
    // lint: allow(nondeterminism) — CLI selection only; the run itself uses a fixed seed
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strategy: Strategy = args
        .first()
        .map(String::as_str)
        .unwrap_or("lvfl")
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("{e}; expected one of cmp/slt/lcf/lvf/lvfl");
            std::process::exit(2);
        });
    let threads: Vec<usize> = if args.len() > 1 {
        args[1..]
            .iter()
            .map(|a| a.parse().expect("thread counts must be integers"))
            .collect()
    } else {
        vec![1, 2, 4]
    };

    let config = ScenarioConfig::city().with_seed(11).with_fast_ratio(0.4);
    eprintln!(
        "building scenario: {}x{} grid, {} nodes, {} queries, 40% fast-changing objects…",
        config.grid_rows,
        config.grid_cols,
        config.node_count,
        config.node_count * config.queries_per_node
    );
    let scenario = Scenario::build(config);
    eprintln!(
        "catalog: {} objects over {} labels",
        scenario.catalog.len(),
        scenario.catalog.covered_labels().count()
    );

    // --- Thread sweep ---------------------------------------------------
    let mut baseline: Option<RunReport> = None;
    let mut report = None;
    println!(
        "{:>7}  {:>12}  {:>12}  {:>8}",
        "threads", "events", "wall s", "ev/s"
    );
    for &t in &threads {
        // lint: allow(nondeterminism) — wall-clock throughput only; simulated time is seeded
        let started = Instant::now();
        let mut options = RunOptions::new(strategy);
        options.threads = t;
        let r = run_scenario(&scenario, options);
        let wall = started.elapsed().as_secs_f64();
        println!(
            "{t:>7}  {:>12}  {wall:>12.3}  {:>8.0}",
            r.events,
            r.events as f64 / wall.max(1e-9)
        );
        if let Some(base) = &baseline {
            assert_eq!(
                (base.events, base.resolved, base.total_bytes, base.viable),
                (r.events, r.resolved, r.total_bytes, r.viable),
                "sharded run diverged at {t} threads"
            );
        } else {
            baseline = Some(r.clone());
        }
        report = Some(r);
    }
    let report = report.expect("at least one thread count");

    println!();
    println!("strategy              : {}", report.strategy);
    println!("queries               : {}", report.total_queries);
    println!(
        "resolved by deadline  : {} ({:.1}%)",
        report.resolved,
        report.resolution_ratio() * 100.0
    );
    println!("  viable route found  : {}", report.viable);
    println!("  no route viable     : {}", report.infeasible);
    println!("  deadline missed     : {}", report.missed);
    println!("decision accuracy     : {:.1}%", report.accuracy() * 100.0);
    println!("total bandwidth       : {:.1} MB", report.total_megabytes());
    for (kind, bytes) in &report.bytes_by_kind {
        println!("  {kind:<9}           : {:.2} MB", *bytes as f64 / 1e6);
    }
    println!(
        "mean decision latency : {}",
        report
            .mean_resolution_latency
            .map(|d| format!("{:.1} s", d.as_secs_f64()))
            .unwrap_or_else(|| "—".into())
    );
    println!("cache hits            : {}", report.cache_hits);
    println!("label hits            : {}", report.label_hits);
    println!("local samples         : {}", report.local_samples);
    println!("simulator events      : {}", report.events);
}
