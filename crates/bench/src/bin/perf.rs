//! Regenerates **BENCH_perf.json**: naming/retrieval hot-path throughput.
//!
//! Unlike the figure binaries (which record *simulation* metrics and are
//! deterministic to the byte), this harness records *wall-clock* throughput
//! of the retrieval hot paths of §V — name parsing, shared-prefix
//! similarity, FIB longest-prefix match, content-store insert/evict and
//! approximate substitution, `BTreeMap<Name, _>` point lookup, and
//! end-to-end queries per second — so future PRs have a perf trajectory to
//! regress against.
//!
//! Usage: `cargo run -p dde-bench --bin perf --release`
//!
//! Knobs: `DDE_REPS` (timing samples per bench, best-of is kept; default 5),
//! `DDE_SEED` (workload seed, default 1), `DDE_PERF_LABEL` (label recorded
//! for this run, e.g. `interned-symbols`), `DDE_PERF_BASELINE` (path to a
//! previous `BENCH_perf.json`; its `after` section is embedded as this
//! run's `before`, and per-bench speedups are computed).

// Bench binary: env knobs and wall-clock timing are out-of-simulation.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use dde_bench::write_bench_json;
use dde_bench::{run_point, HarnessConfig};
use dde_core::prelude::{run_scenario, RunOptions};
use dde_core::strategy::Strategy;
use dde_naming::fib::Fib;
use dde_naming::name::Name;
use dde_naming::store::ContentStore;
use dde_obs::JsonValue;
use dde_workload::scenario::ScenarioConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

use dde_logic::time::{SimDuration, SimTime};

/// A deterministic name universe shaped like the scenario generator's:
/// heavy prefix sharing near the root, diversity at the leaves.
fn name_universe(seed: u64, count: usize) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let kinds = ["camera", "acoustic", "seismic", "chemical"];
    let times = ["dawn", "noon", "dusk", "night"];
    (0..count)
        .map(|_| {
            let region = rng.gen_range(0..8u32);
            let district = rng.gen_range(0..16u32);
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let t = times[rng.gen_range(0..times.len())];
            let id = rng.gen_range(0..64u32);
            format!("/city/r{region}/d{district}/{t}/{kind}{id}")
        })
        .collect()
}

/// Times `work` (which performs `ops` operations per call) `reps` times and
/// keeps the fastest sample — best-of-N suppresses scheduler noise without
/// the statistics machinery this offline harness lacks.
fn best_of<F: FnMut()>(reps: u64, ops: u64, mut work: F) -> (f64, f64) {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        work();
        best = best.min(start.elapsed().as_secs_f64());
    }
    let ns_per_op = best * 1e9 / ops as f64;
    (ns_per_op, ops as f64 / best)
}

fn bench_entry(ns_per_op: f64, ops_per_sec: f64, ops: u64) -> JsonValue {
    JsonValue::Object(vec![
        ("ns_per_op".into(), JsonValue::Float(ns_per_op)),
        ("ops_per_sec".into(), JsonValue::Float(ops_per_sec)),
        ("ops".into(), JsonValue::Int(ops as i64)),
    ])
}

fn main() {
    let cfg = HarnessConfig::from_env();
    let label = std::env::var("DDE_PERF_LABEL").unwrap_or_else(|_| "current".into());
    const N: usize = 4096;
    let strings = name_universe(cfg.seed, N);
    let names: Vec<Name> = strings
        .iter()
        .map(|s| s.parse().expect("generated names are valid"))
        .collect();
    eprintln!(
        "perf: {} names, best of {} samples, seed {}",
        N, cfg.reps, cfg.seed
    );

    let mut benches: Vec<(String, JsonValue)> = Vec::new();
    let mut push = |name: &str, (ns, ops_s): (f64, f64), ops: u64| {
        eprintln!("{name:<24} {ns:>10.1} ns/op  {ops_s:>14.0} ops/s");
        benches.push((name.to_string(), bench_entry(ns, ops_s, ops)));
    };

    // 1. Name parsing (I/O boundary: string → interned representation).
    {
        const PASSES: u64 = 20;
        let ops = PASSES * N as u64;
        let r = best_of(cfg.reps, ops, || {
            for _ in 0..PASSES {
                for s in &strings {
                    std::hint::black_box(s.parse::<Name>().expect("valid"));
                }
            }
        });
        push("name_parse", r, ops);
    }

    // 2. Shared-prefix similarity (§V-A similarity measure).
    {
        const PASSES: u64 = 200;
        let ops = PASSES * N as u64;
        let r = best_of(cfg.reps, ops, || {
            let mut acc = 0usize;
            for _ in 0..PASSES {
                for pair in names.windows(2) {
                    acc += pair[0].shared_prefix_len(&pair[1]);
                }
                acc += names[N - 1].shared_prefix_len(&names[0]);
            }
            std::hint::black_box(acc);
        });
        push("shared_prefix", r, ops);
    }

    // 3. FIB longest-prefix match (§VI-B forwarding decision).
    {
        let mut fib: Fib<u32> = Fib::new();
        for (i, name) in names.iter().enumerate() {
            // Advertise at depth 3 (/city/rX/dY) and some at depth 4.
            let depth = 3 + (i % 2);
            fib.advertise(&name.prefix(depth.min(name.len())), i as u32);
        }
        const PASSES: u64 = 100;
        let ops = PASSES * N as u64;
        let r = best_of(cfg.reps, ops, || {
            let mut acc = 0u64;
            for _ in 0..PASSES {
                for name in &names {
                    if let Some(hop) = fib.lookup(name) {
                        acc = acc.wrapping_add(hop as u64);
                    }
                }
            }
            std::hint::black_box(acc);
        });
        push("fib_lookup", r, ops);
    }

    // 4. Content-store insert with eviction pressure (§VI-B/C).
    {
        const PASSES: u64 = 10;
        let ops = PASSES * N as u64;
        let r = best_of(cfg.reps, ops, || {
            for _ in 0..PASSES {
                // Capacity fits ~1/4 of the universe → sustained eviction.
                let mut cs: ContentStore<u32> = ContentStore::new(N as u64 * 25);
                for (i, name) in names.iter().enumerate() {
                    cs.insert(
                        name,
                        i as u32,
                        100,
                        SimTime::from_secs(i as u64),
                        SimDuration::from_secs(30),
                    );
                }
                std::hint::black_box(cs.evictions);
            }
        });
        push("store_insert_evict", r, ops);
    }

    // 5. Approximate substitution against live cache contents (§V-A).
    {
        let mut cs: ContentStore<u32> = ContentStore::new(u64::MAX);
        for (i, name) in names.iter().enumerate().take(512) {
            cs.insert(
                name,
                i as u32,
                100,
                SimTime::ZERO,
                SimDuration::from_secs(1_000_000),
            );
        }
        const PROBES: u64 = 256;
        let ops = PROBES;
        let now = SimTime::from_secs(1);
        let r = best_of(cfg.reps, ops, || {
            let mut acc = 0usize;
            for name in names.iter().rev().take(PROBES as usize) {
                if let Some((found, _)) = cs.closest_fresh(name, now, 2) {
                    acc += found.len();
                }
            }
            std::hint::black_box(acc);
        });
        push("store_closest", r, ops);
    }

    // 6. BTreeMap<Name, _> point lookup (object/cache key maps in dde-core).
    {
        let map: BTreeMap<Name, u64> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u64))
            .collect();
        const PASSES: u64 = 100;
        let ops = PASSES * N as u64;
        let r = best_of(cfg.reps, ops, || {
            let mut acc = 0u64;
            for _ in 0..PASSES {
                for name in &names {
                    if let Some(v) = map.get(name) {
                        acc = acc.wrapping_add(*v);
                    }
                }
            }
            std::hint::black_box(acc);
        });
        push("btreemap_get", r, ops);
    }

    // 7. End-to-end: queries per wall-clock second on the small scenario.
    {
        let base = ScenarioConfig::small();
        // One warm-up + timed reps; each rep is a full deterministic run.
        let mut queries = 0u64;
        let mut best = f64::INFINITY;
        for rep in 0..cfg.reps.max(1) {
            let start = Instant::now();
            let report = run_point(&base, 0.5, Strategy::LvfLabelShare, cfg.seed + rep);
            best = best.min(start.elapsed().as_secs_f64());
            queries = report.total_queries as u64;
        }
        let ops_s = queries as f64 / best;
        let ns = best * 1e9 / queries as f64;
        push("e2e_queries", (ns, ops_s), queries);
    }

    // 8. City-scale sharded simulation: events per wall-clock second at 1
    //    and 4 worker threads. Wall-clock figures are host-dependent —
    //    `host_cpus` is recorded at the top level so flat scaling on a
    //    single-core runner reads as what it is.
    {
        let scenario = dde_workload::scenario::Scenario::build(
            ScenarioConfig::city()
                .with_seed(cfg.seed)
                .with_fast_ratio(0.4),
        );
        for t in [1usize, 4] {
            let mut best = f64::INFINITY;
            let mut events = 0u64;
            for _ in 0..cfg.reps.clamp(1, 3) {
                let mut options = RunOptions::new(Strategy::LvfLabelShare);
                options.seed = cfg.seed ^ 0x5eed;
                options.threads = t;
                let start = Instant::now();
                let report = run_scenario(&scenario, options);
                best = best.min(start.elapsed().as_secs_f64());
                events = report.events;
            }
            let ops_s = events as f64 / best;
            let ns = best * 1e9 / events as f64;
            push(&format!("city_events_t{t}"), (ns, ops_s), events);
        }
    }

    // Embed the baseline (if given) and compute per-bench speedups.
    let current = JsonValue::Object(vec![
        ("label".into(), JsonValue::Str(label)),
        ("benches".into(), JsonValue::Object(benches)),
    ]);
    let before: Option<JsonValue> = std::env::var("DDE_PERF_BASELINE")
        .ok()
        .and_then(|path| std::fs::read_to_string(path).ok())
        .and_then(|src| dde_obs::json::parse(&src).ok())
        .and_then(|v| v.get("after").cloned());
    let speedup = before.as_ref().map(|b| {
        let mut out: Vec<(String, JsonValue)> = Vec::new();
        if let (Some(JsonValue::Object(bb)), Some(JsonValue::Object(cb))) =
            (b.get("benches"), current.get("benches"))
        {
            for (k, bv) in bb {
                let old = bv.get("ops_per_sec").and_then(JsonValue::as_float);
                let new = cb
                    .iter()
                    .find(|(ck, _)| ck == k)
                    .and_then(|(_, cv)| cv.get("ops_per_sec"))
                    .and_then(JsonValue::as_float);
                if let (Some(old), Some(new)) = (old, new) {
                    if old > 0.0 {
                        out.push((k.clone(), JsonValue::Float(new / old)));
                    }
                }
            }
        }
        JsonValue::Object(out)
    });

    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get() as i64)
        .unwrap_or(1);
    let mut top = vec![
        ("bench".into(), JsonValue::Str("perf".into())),
        ("names".into(), JsonValue::Int(N as i64)),
        ("reps".into(), JsonValue::Int(cfg.reps as i64)),
        ("seed".into(), JsonValue::Int(cfg.seed as i64)),
        ("host_cpus".into(), JsonValue::Int(host_cpus)),
        ("before".into(), before.unwrap_or(JsonValue::Null)),
        ("after".into(), current),
    ];
    if let Some(s) = speedup {
        top.push(("speedup".into(), s));
    }
    write_bench_json("BENCH_perf.json", &JsonValue::Object(top));
}
