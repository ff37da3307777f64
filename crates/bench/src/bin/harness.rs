//! The experiment harness: regenerates every table recorded in
//! EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! cargo run -p vadalog-bench --release --bin harness            # all experiments
//! cargo run -p vadalog-bench --release --bin harness -- e1 e5   # a selection
//! cargo run -p vadalog-bench --release --bin harness -- --quick # smaller sizes
//! ```
//!
//! The `joins` experiment additionally writes `BENCH_joins.json` (wall-times
//! and peak atom counts of the join-kernel workloads against the retained
//! seed baseline, plus the composite-index observability counters:
//! `composite_probes` — planned probe steps answered by a multi-column
//! fused-key index, `probe_misses_filtered` — index probes skipped by the
//! fingerprint filters, and per-workload `index_bytes`) into the current
//! directory, the `parallel` experiment writes `BENCH_parallel.json`
//! (wall-times of the sharded evaluator at 1/2/4/8 worker threads, plus the
//! host's available parallelism), and the `incremental` experiment writes
//! `BENCH_incremental.json` (delta-ingest wall-clock of the live
//! incremental engine vs a full from-scratch re-evaluation of the union,
//! with the affected-strata skip and bit-identity asserted first), the
//! `magic` experiment writes `BENCH_magic.json` (bound and point
//! reachability queries through the demand-driven magic-sets path vs full
//! materialisation, answers asserted bit-identical first), and the
//! `overload` experiment writes `BENCH_overload.json` (served/shed/rejected
//! throughput of the reactor transport under a connection storm plus the
//! health connection's latency percentiles, every answer served under load
//! asserted bit-identical to the unloaded reference first), and the `trace`
//! experiment writes `BENCH_trace.json` (wall-clock of the linear TC
//! fixpoint with `vadalog_obs` tracing disabled vs enabled, bit-identity
//! asserted first and the enabled overhead asserted under 10%).

use std::collections::BTreeMap;
use std::time::Instant;
use vadalog_analysis::classify::{classify_scenario, ScenarioClass};
use vadalog_analysis::linearize::linearize;
use vadalog_analysis::pwl::{is_intensionally_linear, is_piecewise_linear};
use vadalog_analysis::wardedness::is_warded;
use vadalog_bench::{layered_program, program, Table, LINEAR_TC, NONLINEAR_TC};
use vadalog_benchgen::data_exchange::data_exchange_scenario;
use vadalog_benchgen::graphs::{chain_graph, random_graph};
use vadalog_benchgen::iwarded::{iwarded_scenario, ScenarioMix};
use vadalog_benchgen::owl::{owl_database, owl_program};
use vadalog_chase::{ChaseConfig, ChaseEngine, TerminationPolicy};
use vadalog_core::{
    linear_proof_search, rewrite_to_pwl_datalog, CertainAnswerEngine, RewriteOptions, SearchOptions,
};
use vadalog_datalog::DatalogEngine;
use vadalog_engine::{EngineConfig, JoinOrdering, Reasoner};
use vadalog_model::parser::{parse_query, parse_rules};
use vadalog_model::{Database, Symbol};
use vadalog_tiling::{has_tiling_within, reduction, TilingSystem};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();
    let run = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);

    println!("== The Space-Efficient Core of Vadalog — experiment harness ==\n");
    if run("e1") {
        e1_space(quick);
    }
    if run("e2") {
        e2_scenario_statistics(quick);
    }
    if run("e3") {
        e3_combined_complexity(quick);
    }
    if run("e4") {
        e4_rewriting();
    }
    if run("e5") {
        e5_tiling();
    }
    if run("e6") {
        e6_ablation(quick);
    }
    if run("e7") {
        e7_program_expressive_power();
    }
    if run("e8") {
        e8_linearization(quick);
    }
    if run("joins") {
        joins_bench(quick);
    }
    if run("parallel") {
        parallel_bench(quick);
    }
    if run("incremental") {
        incremental_bench(quick);
    }
    if run("recovery") {
        recovery_bench(quick);
    }
    if run("magic") {
        magic_bench(quick);
    }
    if run("overload") {
        overload_bench(quick);
    }
    if run("trace") {
        trace_bench(quick);
    }
}

/// Trace — wall-clock overhead of the `vadalog_obs` spans on the linear
/// TC fixpoint, disabled vs enabled. Tracing must be observational twice
/// over: bit-identical outputs (the property suite proves it per counter;
/// the harness re-asserts it on this exact workload before timing) and
/// near-free wall-clock. The two switch states are timed interleaved
/// (min-of-N), so cache and frequency drift hit both equally, and the
/// enabled run may cost at most 10% over the disabled run — a tripped
/// assert fails the CI job. Writes `BENCH_trace.json`.
fn trace_bench(quick: bool) {
    println!("-- trace: span overhead on linear TC, disabled vs enabled --");
    let samples = if quick { 5 } else { 9 };
    let (nodes, edges) = if quick {
        (600usize, 2400usize)
    } else {
        (1500, 6000)
    };
    let db = random_graph(nodes, edges, 42);
    let engine = DatalogEngine::new(program(LINEAR_TC)).unwrap();

    // Bit-identity gate before any timing: same materialisation, same
    // counters, and the switch actually controls recording.
    vadalog_obs::set_enabled(false);
    vadalog_obs::drain();
    let reference = engine.evaluate(&db);
    assert!(
        vadalog_obs::drain().is_empty(),
        "disabled tracing must record nothing"
    );
    vadalog_obs::set_enabled(true);
    let traced = engine.evaluate(&db);
    let records_per_run = vadalog_obs::drain().len();
    vadalog_obs::set_enabled(false);
    assert!(records_per_run > 0, "enabled tracing must record spans");
    assert_eq!(
        traced.stats, reference.stats,
        "tracing must not change a single engine counter"
    );
    assert_eq!(
        traced.instance.sorted_row_layout(),
        reference.instance.sorted_row_layout(),
        "tracing must not change the materialisation"
    );

    // Position within a sample is not neutral (the second evaluation sees
    // a different allocator/cache state and measures ~20% slower on this
    // workload), so the order alternates every sample and min-of-N gives
    // each switch state its best-position, fully warmed time.
    let mut disabled_ms = f64::MAX;
    let mut enabled_ms = f64::MAX;
    for sample in 0..samples {
        let order = if sample % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for tracing in order {
            vadalog_obs::set_enabled(tracing);
            let start = Instant::now();
            let run = engine.evaluate(&db);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            vadalog_obs::set_enabled(false);
            assert_eq!(run.stats, reference.stats);
            vadalog_obs::drain();
            if tracing {
                enabled_ms = enabled_ms.min(wall_ms);
            } else {
                disabled_ms = disabled_ms.min(wall_ms);
            }
        }
    }
    let overhead = enabled_ms / disabled_ms;

    let mut table = Table::new(&["tracing", "wall ms", "note"]);
    table.row(&[
        "disabled".into(),
        format!("{disabled_ms:.3}"),
        format!("{} tuples derived", reference.stats.derived_atoms),
    ]);
    table.row(&[
        "enabled".into(),
        format!("{enabled_ms:.3}"),
        format!("{records_per_run} spans/run, overhead {overhead:.3}x"),
    ]);
    print!("{}", table.render());

    let json = format!(
        "{{\n  \"workload\": {{\n    \"program\": \"linear_tc\",\n    \"nodes\": {nodes},\n    \
         \"edges\": {edges},\n    \"derived_atoms\": {}\n  }},\n  \"samples\": {samples},\n  \
         \"disabled_wall_ms\": {disabled_ms:.3},\n  \"enabled_wall_ms\": {enabled_ms:.3},\n  \
         \"overhead_ratio\": {overhead:.4},\n  \"records_per_run\": {records_per_run},\n  \
         \"bit_identical\": true\n}}\n",
        reference.stats.derived_atoms,
    );
    std::fs::write("BENCH_trace.json", &json).expect("write BENCH_trace.json");
    println!("wrote BENCH_trace.json");

    assert!(
        overhead < 1.10,
        "enabled tracing must cost < 10% on the TC fixpoint, got {overhead:.3}x \
         (disabled {disabled_ms:.3} ms, enabled {enabled_ms:.3} ms)"
    );
}

/// Overload — graceful degradation of the reactor transport under a
/// connection storm, against a live server with deliberately small
/// admission caps (2 workers, queue depth 2, a connection cap below the
/// storm's width). Before any timing the harness captures the storm
/// query's answers on an unloaded server and asserts every answer served
/// *during* the storm **bit-identical** to them — shedding must be
/// all-or-nothing, never a truncated answer set; a tripped assert fails
/// the CI job. During the storm a dedicated health connection keeps
/// issuing a point query and records wall latencies (a shed health reply
/// counts — `ERR overloaded` *is* the responsiveness contract under
/// load). Afterwards the harness asserts the STATS transport counters
/// balance (`received` = `served` + `shed` + `failed` + the in-flight
/// `STATS` itself), that the server is not degraded, and that the health
/// p99 stays bounded. Writes `BENCH_overload.json` with served/shed/
/// rejected throughput and the health latency percentiles.
fn overload_bench(quick: bool) {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use vadalog_model::parser::parse_rules;
    use vadalog_service::{DurableEngine, IncrementalEngine, LiveServer, ServerConfig};

    println!("-- overload: load shedding and responsiveness under a connection storm --");
    let (storm_threads, requests_per_thread) = if quick { (4usize, 30usize) } else { (8, 80) };
    let chain_len = 80usize;

    let program = parse_rules("t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).").unwrap();
    let config = ServerConfig {
        worker_threads: 2,
        max_queue_depth: 2,
        max_connections: 6,
        overload_retry_ms: 5,
        poll_interval: std::time::Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let server = LiveServer::start_with(
        DurableEngine::volatile(IncrementalEngine::new(program).unwrap()),
        "127.0.0.1:0",
        config,
    )
    .expect("start overload server");
    let addr = server.addr();

    // Reads one full counted frame (header + `answers=<n>` lines + `END`).
    fn read_frame(reader: &mut BufReader<TcpStream>) -> Vec<String> {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response header");
        let mut lines = vec![line.trim_end().to_string()];
        if let Some(rest) = lines[0].strip_prefix("OK answers=") {
            let count: usize = rest
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .expect("answer count");
            for _ in 0..=count {
                let mut body = String::new();
                reader.read_line(&mut body).expect("read answer line");
                lines.push(body.trim_end().to_string());
            }
        }
        lines
    }
    fn ask(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Vec<String> {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        read_frame(reader)
    }
    let connect = |addr| {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    };

    const STORM_QUERY: &str = "QUERY ?(Y) :- t(n0, Y).";
    const HEALTH_QUERY: &str = "QUERY ?(X) :- t(X, n1).";

    // Seed the closure, then capture the reference answers *unloaded*.
    let (mut control, mut control_reader) = connect(addr);
    let chain: String = (0..chain_len)
        .map(|i| format!("edge(n{i}, n{}). ", i + 1))
        .collect();
    let loaded = ask(&mut control, &mut control_reader, &format!("BATCH {chain}"));
    assert!(loaded[0].starts_with("OK inserted="), "{loaded:?}");
    let reference = ask(&mut control, &mut control_reader, STORM_QUERY);
    assert_eq!(reference.len(), chain_len + 2, "header + answers + END");
    let health_reference = ask(&mut control, &mut control_reader, HEALTH_QUERY);
    assert!(health_reference[0].starts_with("OK answers=1"));

    // The storm: each thread hammers short-lived connections; every served
    // answer set is compared byte-for-byte against the unloaded reference.
    let served = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let storm_start = Instant::now();
    let (mut health, mut health_reader) = connect(addr);
    let storm: Vec<_> = (0..storm_threads)
        .map(|_| {
            let reference = reference.clone();
            let (served, shed, rejected) = (served.clone(), shed.clone(), rejected.clone());
            std::thread::spawn(move || {
                // One storm request: Ok(Some(true)) served, Ok(Some(false))
                // shed, Ok(None) / Err rejected — errors anywhere (connect
                // refused, a reset from an accept-time rejection racing the
                // client's write) classify as rejected, because an
                // *admitted* request is never cut in this workload.
                let one_request = |reference: &[String]| -> std::io::Result<Option<bool>> {
                    let mut stream = TcpStream::connect(addr)?;
                    let mut reader = BufReader::new(stream.try_clone()?);
                    stream.write_all(format!("{STORM_QUERY}\n").as_bytes())?;
                    let mut header = String::new();
                    if reader.read_line(&mut header)? == 0 {
                        return Ok(None);
                    }
                    let header = header.trim_end();
                    if let Some(rest) = header.strip_prefix("OK answers=") {
                        let count: usize = rest.split_whitespace().next().unwrap().parse().unwrap();
                        let mut frame = vec![header.to_string()];
                        for _ in 0..=count {
                            let mut body = String::new();
                            reader.read_line(&mut body)?;
                            frame.push(body.trim_end().to_string());
                        }
                        assert_eq!(
                            frame, reference,
                            "an answer served under load must be bit-identical \
                             to the unloaded reference"
                        );
                        Ok(Some(true))
                    } else if header.starts_with("ERR overloaded retry_ms=") {
                        // Shed at the queue *or* rejected at accept — the
                        // error line is the same, but a rejected socket
                        // closes right after it while a shed request's
                        // connection survives. STATS is exempt from
                        // shedding, so it discriminates: answered → shed,
                        // EOF → rejected.
                        let mut probe = String::new();
                        stream.write_all(b"STATS\n")?;
                        if reader.read_line(&mut probe).unwrap_or(0) > 0 {
                            Ok(Some(false))
                        } else {
                            Ok(None)
                        }
                    } else {
                        panic!("unexpected storm response: {header:?}");
                    }
                };
                for _ in 0..requests_per_thread {
                    match one_request(&reference) {
                        Ok(Some(true)) => served.fetch_add(1, Ordering::Relaxed),
                        Ok(Some(false)) => shed.fetch_add(1, Ordering::Relaxed),
                        Ok(None) | Err(_) => rejected.fetch_add(1, Ordering::Relaxed),
                    };
                }
            })
        })
        .collect();

    // The health loop: a persistent admitted connection that must stay
    // responsive for the whole storm — every round trip is timed, and a
    // structured shed counts as a (fast) response.
    let mut health_micros: Vec<u64> = Vec::new();
    let mut health_served = 0u64;
    let mut health_shed = 0u64;
    while storm.iter().any(|t| !t.is_finished()) {
        let start = Instant::now();
        let frame = ask(&mut health, &mut health_reader, HEALTH_QUERY);
        health_micros.push(start.elapsed().as_micros() as u64);
        if frame[0].starts_with("OK answers=") {
            assert_eq!(frame, health_reference, "health answers must not drift");
            health_served += 1;
        } else {
            assert!(
                frame[0].starts_with("ERR overloaded retry_ms="),
                "unexpected health response: {frame:?}"
            );
            health_shed += 1;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for thread in storm {
        thread.join().expect("storm thread must not panic");
    }
    let storm_secs = storm_start.elapsed().as_secs_f64();
    let served = served.load(Ordering::Relaxed);
    let shed = shed.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);
    assert_eq!(
        served + shed + rejected,
        (storm_threads * requests_per_thread) as u64,
        "every storm request must be classified"
    );

    health_micros.sort_unstable();
    let percentile = |q: f64| -> u64 {
        let rank = ((q * health_micros.len() as f64).ceil() as usize).clamp(1, health_micros.len());
        health_micros[rank - 1]
    };
    let (health_p50, health_p99) = (percentile(0.50), percentile(0.99));

    // The books must balance at quiescence: every request the transport
    // accepted was served, shed or failed — the `+ 1` is the in-flight
    // STATS request reading its own counters.
    let mut stats = String::new();
    control.write_all(b"STATS\n").unwrap();
    control_reader.read_line(&mut stats).unwrap();
    let stat = |key: &str| -> u64 {
        let needle = format!("\"{key}\":");
        let at = stats
            .find(&needle)
            .unwrap_or_else(|| panic!("{key} in {stats}"));
        stats[at + needle.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    };
    assert_eq!(
        stat("requests_received"),
        stat("requests_served") + stat("queries_shed") + stat("requests_failed") + 1,
        "transport counters must balance: {stats}"
    );
    // Client-side `rejected` can exceed the server's accept-time count
    // (connect failures never reach the listener) but never undershoot it.
    assert!(stat("connections_rejected") <= rejected, "{stats}");
    assert!(!stats.contains("\"degraded\":true"), "{stats}");
    let queue_depth_max = stat("queue_depth_max");
    control.write_all(b"SHUTDOWN\n").unwrap();
    server.join();

    let mut table = Table::new(&["metric", "value", "note"]);
    table.row(&[
        "storm requests served".into(),
        served.to_string(),
        format!("{:.0}/s over {storm_secs:.2}s", served as f64 / storm_secs),
    ]);
    table.row(&[
        "storm requests shed".into(),
        shed.to_string(),
        format!(
            "{:.0}/s, queue depth peaked at {queue_depth_max}",
            shed as f64 / storm_secs
        ),
    ]);
    table.row(&[
        "storm connections rejected".into(),
        rejected.to_string(),
        "accept-time cap".into(),
    ]);
    table.row(&[
        "health round trips".into(),
        health_micros.len().to_string(),
        format!("{health_served} served, {health_shed} shed"),
    ]);
    table.row(&[
        "health latency".into(),
        format!("p50 {health_p50} us"),
        format!("p99 {health_p99} us"),
    ]);
    println!("{}", table.render());

    let json = format!(
        "{{\n  \"workload\": {{\n    \"chain_len\": {chain_len},\n    \
         \"storm_threads\": {storm_threads},\n    \
         \"requests_per_thread\": {requests_per_thread},\n    \
         \"worker_threads\": 2,\n    \"max_queue_depth\": 2,\n    \"max_connections\": 6\n  }},\n  \
         \"storm_wall_s\": {storm_secs:.3},\n  \
         \"served\": {served},\n  \"shed\": {shed},\n  \"rejected\": {rejected},\n  \
         \"served_per_s\": {served_rate:.1},\n  \"shed_per_s\": {shed_rate:.1},\n  \
         \"queue_depth_max\": {queue_depth_max},\n  \
         \"health\": {{\n    \"round_trips\": {rounds},\n    \"served\": {health_served},\n    \
         \"shed\": {health_shed},\n    \"p50_micros\": {health_p50},\n    \
         \"p99_micros\": {health_p99}\n  }},\n  \"answers_bit_identical\": true\n}}\n",
        served_rate = served as f64 / storm_secs,
        shed_rate = shed as f64 / storm_secs,
        rounds = health_micros.len(),
    );
    std::fs::write("BENCH_overload.json", &json).expect("write BENCH_overload.json");
    println!("wrote BENCH_overload.json");

    assert!(
        health_p99 < 2_000_000,
        "the health connection must stay responsive under the storm \
         (p99 {health_p99} us)"
    );
}

/// Magic — demand-driven evaluation of bound queries against full
/// materialisation, on the disjoint-chains reachability workload (full
/// closure grows with every chain; a bound query can only demand one
/// chain's worth). Before any timing the harness asserts the magic path's
/// answers **bit-identical** to the full path's for the bound and the
/// point query, that the all-free query falls back, and that the second
/// same-pattern query comes out of the specialised-program cache with the
/// same bits; a tripped assert fails the CI job. Asserts the bound query
/// via magic beats full materialisation ≥ 10x and demands ≪ the full
/// closure, then that the warm point query stays flat across a 64x sweep of
/// EDB sizes (see [`magic_edb_sweep`]), and writes `BENCH_magic.json`.
fn magic_bench(quick: bool) {
    use vadalog_benchgen::magic::bound_query_scenario;
    use vadalog_datalog::{DemandEngine, DemandError};
    use vadalog_model::QueryBudget;

    println!("-- magic: demand-driven bound queries vs full materialisation --");
    let samples = if quick { 3 } else { 5 };
    let (chains, chain_len) = if quick { (60usize, 30usize) } else { (200, 60) };
    let scenario = bound_query_scenario(chains, chain_len, 42);
    let base = scenario.database.as_instance();
    let budget = QueryBudget::unlimited();

    // The full-path reference: materialise everything, then apply each CQ.
    let engine = DatalogEngine::new(scenario.program.clone()).unwrap();
    let reference = engine.evaluate(&scenario.database);
    let full_tuples = reference.stats.derived_atoms;
    assert_eq!(
        scenario.full_query.evaluate(&reference.instance).len(),
        scenario.full_closure_size,
        "the workload's closure size must match its structure"
    );

    // Correctness gates: bit-identity on both bound shapes, fallback on
    // the all-free shape, cache hit with the same bits on a repeat.
    let demand = DemandEngine::new(scenario.program.clone());
    let bound = demand.answer(base, &scenario.bound_query, &budget).unwrap();
    assert_eq!(
        bound.answers,
        scenario.bound_query.evaluate(&reference.instance),
        "magic and full answers must be bit-identical for the bound query"
    );
    let point = demand.answer(base, &scenario.point_query, &budget).unwrap();
    assert_eq!(
        point.answers,
        scenario.point_query.evaluate(&reference.instance),
        "magic and full answers must be bit-identical for the point query"
    );
    match demand.answer(base, &scenario.full_query, &budget) {
        Err(DemandError::Fallback(_)) => {}
        other => panic!("the all-free query must fall back, got {other:?}"),
    }
    let repeat = demand.answer(base, &scenario.bound_query, &budget).unwrap();
    assert!(
        repeat.cache_hit,
        "second same-pattern query must hit the cache"
    );
    assert_eq!(
        repeat.answers, bound.answers,
        "cached answers must not drift"
    );
    let demanded = bound.demanded_tuples;
    assert!(
        demanded.saturating_mul(10) < full_tuples as u64,
        "the bound query must demand far less than the full closure \
         ({demanded} vs {full_tuples})"
    );

    // Timed: full materialisation + CQ, vs the magic path per query shape.
    // `cold` pays rewrite + stratification + join compilation on a fresh
    // engine; `warm` replays the cached specialised program.
    let mut full_ms = f64::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        let result = engine.evaluate(&scenario.database);
        let answers = scenario.bound_query.evaluate(&result.instance);
        full_ms = full_ms.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(answers.len(), scenario.bound_answer_size);
    }
    let magic_timing = |query: &vadalog_model::ConjunctiveQuery| -> (f64, f64) {
        let mut cold = f64::MAX;
        let mut warm = f64::MAX;
        for _ in 0..samples {
            let fresh = DemandEngine::new(scenario.program.clone());
            let start = Instant::now();
            fresh.answer(base, query, &budget).unwrap();
            cold = cold.min(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            let again = fresh.answer(base, query, &budget).unwrap();
            warm = warm.min(start.elapsed().as_secs_f64() * 1e3);
            assert!(again.cache_hit);
        }
        (cold, warm)
    };
    let (bound_cold_ms, bound_warm_ms) = magic_timing(&scenario.bound_query);
    let (point_cold_ms, point_warm_ms) = magic_timing(&scenario.point_query);
    let bound_speedup = full_ms / bound_warm_ms;
    let point_speedup = full_ms / point_warm_ms;

    let mut table = Table::new(&["query", "wall ms", "note"]);
    table.row(&[
        "full TC + bound CQ".into(),
        format!("{full_ms:.3}"),
        format!("{full_tuples} tuples derived"),
    ]);
    table.row(&[
        "bound reach(c, Y), magic cold".into(),
        format!("{bound_cold_ms:.3}"),
        "rewrite + compile + evaluate".into(),
    ]);
    table.row(&[
        "bound reach(c, Y), magic warm".into(),
        format!("{bound_warm_ms:.3}"),
        format!("{demanded} tuples demanded, speedup {bound_speedup:.1}x"),
    ]);
    table.row(&[
        "point reach(c, c'), magic warm".into(),
        format!("{point_warm_ms:.3}"),
        format!("speedup {point_speedup:.1}x (cold {point_cold_ms:.3} ms)"),
    ]);
    print!("{}", table.render());

    let (sweep, growth) = magic_edb_sweep(quick);
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(chains, edges, ms)| {
            format!(
                "    {{\"chains\": {chains}, \"edges\": {edges}, \
                 \"point_magic_warm_wall_ms\": {ms:.3}}}"
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"workload\": {{\n    \"chains\": {chains},\n    \"chain_len\": {chain_len},\n    \
         \"edges\": {},\n    \"full_closure_size\": {}\n  }},\n  \
         \"full_wall_ms\": {full_ms:.3},\n  \"full_materialised_tuples\": {full_tuples},\n  \
         \"bound_magic_cold_wall_ms\": {bound_cold_ms:.3},\n  \
         \"bound_magic_warm_wall_ms\": {bound_warm_ms:.3},\n  \
         \"bound_speedup\": {bound_speedup:.2},\n  \
         \"point_magic_cold_wall_ms\": {point_cold_ms:.3},\n  \
         \"point_magic_warm_wall_ms\": {point_warm_ms:.3},\n  \
         \"point_speedup\": {point_speedup:.2},\n  \
         \"demanded_tuples\": {demanded},\n  \"answers_bit_identical\": true,\n  \
         \"edb_sweep_chain_len\": {SWEEP_CHAIN_LEN},\n  \"edb_sweep\": [\n{}\n  ],\n  \
         \"edb_sweep_point_warm_growth\": {growth:.3}\n}}\n",
        scenario.database.len(),
        scenario.full_closure_size,
        sweep_json.join(",\n"),
    );
    std::fs::write("BENCH_magic.json", &json).expect("write BENCH_magic.json");
    println!("wrote BENCH_magic.json");

    assert!(
        bound_speedup >= 10.0,
        "the bound query through the magic path must beat full materialisation \
         by at least 10x, got {bound_speedup:.2}x"
    );
    assert!(
        growth <= 2.0,
        "warm point-query latency must grow at most 2x across a 64x EDB sweep, \
         got {growth:.2}x"
    );
}

/// Chain length of the EDB-size sweep: the point query demands one whole
/// chain, so the demanded work stays fixed while the EDB grows.
const SWEEP_CHAIN_LEN: usize = 30;

/// The output-sensitivity gate of the demand path, over
/// `bound_query_scenario(n, SWEEP_CHAIN_LEN, 42)` for `n` = 50, 200, 800
/// and 3200 chains (10 to 640 with `--quick`): a 64x span of EDB sizes. At
/// every size the bound and point answers are first checked bit-identical
/// to full materialisation. Then the warm point query is timed, min of 25:
/// its specialised program is cached, and the first query already built the
/// index it probes on the base relation. Returns `(chains, edges, warm ms)`
/// per size and the ratio of the largest size's latency to the smallest's.
fn magic_edb_sweep(quick: bool) -> (Vec<(usize, usize, f64)>, f64) {
    use vadalog_benchgen::magic::bound_query_scenario;
    use vadalog_datalog::DemandEngine;
    use vadalog_model::QueryBudget;

    let budget = QueryBudget::unlimited();
    let smallest = if quick { 10 } else { 50 };
    let mut table = Table::new(&["chains", "edges", "point warm ms"]);
    let mut sweep = Vec::new();
    for factor in [1usize, 4, 16, 64] {
        let chains = smallest * factor;
        let scenario = bound_query_scenario(chains, SWEEP_CHAIN_LEN, 42);
        let base = scenario.database.as_instance();
        let demand = DemandEngine::new(scenario.program.clone());
        {
            let reference = DatalogEngine::new(scenario.program.clone())
                .unwrap()
                .evaluate(&scenario.database);
            for query in [&scenario.bound_query, &scenario.point_query] {
                assert_eq!(
                    demand.answer(base, query, &budget).unwrap().answers,
                    query.evaluate(&reference.instance),
                    "magic and full answers must be bit-identical at {chains} chains"
                );
            }
        }
        let mut warm = f64::MAX;
        for _ in 0..25 {
            let start = Instant::now();
            let answer = demand.answer(base, &scenario.point_query, &budget).unwrap();
            warm = warm.min(start.elapsed().as_secs_f64() * 1e3);
            assert!(answer.cache_hit && answer.answers.len() == 1);
        }
        let edges = scenario.database.len();
        table.row(&[chains.to_string(), edges.to_string(), format!("{warm:.3}")]);
        sweep.push((chains, edges, warm));
    }
    print!("{}", table.render());
    let growth = sweep[sweep.len() - 1].2 / sweep[0].2;
    println!("warm point query, largest over smallest EDB: {growth:.2}x");
    (sweep, growth)
}

/// Recovery — the durability tax and the recovery dividend, on the
/// two-closure delta-stream workload.
///
/// Measures (a) the WAL overhead of durable ingestion (append + fsync
/// before every applied batch) against the identical volatile path, and
/// (b) cold-start recovery (snapshot load + WAL tail replay) against the
/// full re-derivation a non-durable server would pay (base ingest + every
/// delta batch re-applied). Before any timing the harness asserts the
/// durable engine's materialisation — and the *recovered* engine's — are
/// bit-identical to the volatile reference (per-relation row layouts,
/// engine stats and epoch); a tripped assert fails the CI job. Asserts the
/// WAL overhead stays ≤ 25% and recovery beats re-derivation, and writes
/// `BENCH_recovery.json`.
fn recovery_bench(quick: bool) {
    use vadalog_benchgen::delta::two_closure_delta_stream;
    use vadalog_datalog::IncrementalEngine;
    use vadalog_service::{DurabilityConfig, DurableEngine, SyncPolicy};

    println!("-- recovery: WAL overhead and crash recovery vs re-derivation --");
    let samples = if quick { 5 } else { 7 };
    let (nodes, edges, links) = if quick {
        (160, 280, 160)
    } else {
        (240, 500, 300)
    };
    let (delta_batches, batch_size) = if quick { (12usize, 10usize) } else { (24, 12) };
    let scenario = two_closure_delta_stream(nodes, edges, links, delta_batches, batch_size, 42);
    let dir = std::env::temp_dir().join(format!("vadalog-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig::new(&dir);

    let fresh = || IncrementalEngine::new(scenario.program.clone()).unwrap();
    let mut seeded = fresh();
    seeded.ingest_database(&scenario.base).unwrap();

    // Correctness gate 1: the durable ingest path is bit-identical to the
    // volatile one (the WAL must be invisible to the engine).
    let mut volatile = seeded.clone();
    let mut durable = DurableEngine::create(seeded.clone(), config.clone()).unwrap();
    for batch in &scenario.deltas {
        volatile.ingest(batch).unwrap();
        durable.ingest(batch).unwrap();
    }
    assert_eq!(
        durable.engine().instance().row_layout(),
        volatile.instance().row_layout(),
        "durable vs volatile ingestion must be bit-identical"
    );
    assert_eq!(durable.engine().stats(), volatile.stats());
    assert_eq!(durable.engine().epoch(), volatile.epoch());
    let (wal_records, wal_bytes, _, _) = durable.wal_stats();
    // "Crash" without clean shutdown: the snapshot holds the base
    // materialisation, the WAL tail holds every delta batch.
    drop(durable);

    // Correctness gate 2: recovery converges to the same bits.
    let (recovered, report) = DurableEngine::recover(fresh(), config.clone()).unwrap();
    assert_eq!(report.records_replayed, delta_batches as u64);
    assert_eq!(
        recovered.engine().instance().row_layout(),
        volatile.instance().row_layout(),
        "recovered state must be bit-identical to the uncrashed engine"
    );
    assert_eq!(recovered.engine().stats(), volatile.stats());
    drop(recovered);

    // Timed: the delta stream through the volatile path and two durable
    // configurations — group commit (fsync every 8 appends; the bound is
    // asserted on this one, since the tiny delta batches make per-batch
    // fsync latency, not WAL bookkeeping, the dominant term) and
    // fsync-per-batch (reported, not asserted). Fresh directory per
    // durable sample so each pays the same WAL work.
    let mut volatile_ms = f64::MAX;
    for _ in 0..samples {
        let mut engine = seeded.clone();
        let start = Instant::now();
        for batch in &scenario.deltas {
            engine.ingest(batch).unwrap();
        }
        volatile_ms = volatile_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let durable_timing = |label: &str, policy: SyncPolicy| -> f64 {
        let mut best = f64::MAX;
        for sample in 0..samples {
            let sample_dir = dir.join(format!("sample-{label}-{sample}"));
            let sample_config = DurabilityConfig::new(&sample_dir).sync(policy);
            let mut engine = DurableEngine::create(seeded.clone(), sample_config).unwrap();
            let start = Instant::now();
            for batch in &scenario.deltas {
                engine.ingest(batch).unwrap();
            }
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    let durable_ms = durable_timing("group", SyncPolicy::EveryN(8));
    let durable_fsync_ms = durable_timing("always", SyncPolicy::Always);
    let overhead_pct = (durable_ms / volatile_ms - 1.0) * 100.0;
    let fsync_overhead_pct = (durable_fsync_ms / volatile_ms - 1.0) * 100.0;

    // Timed: cold-start recovery (snapshot + tail replay) vs the full
    // re-derivation a non-durable server pays at startup.
    let mut recovery_ms = f64::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        let (recovered, _) = DurableEngine::recover(fresh(), config.clone()).unwrap();
        recovery_ms = recovery_ms.min(start.elapsed().as_secs_f64() * 1e3);
        drop(recovered);
    }
    let mut rederive_ms = f64::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        let mut engine = fresh();
        engine.ingest_database(&scenario.base).unwrap();
        for batch in &scenario.deltas {
            engine.ingest(batch).unwrap();
        }
        rederive_ms = rederive_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let recovery_speedup = rederive_ms / recovery_ms;
    let snapshot_bytes = std::fs::metadata(dir.join("snapshot.bin"))
        .map(|m| m.len())
        .unwrap_or(0);

    let mut table = Table::new(&["path", "wall ms", "note"]);
    table.row(&[
        "volatile ingest".into(),
        format!("{volatile_ms:.3}"),
        format!("{delta_batches} batches of {batch_size}"),
    ]);
    table.row(&[
        "durable ingest (group commit)".into(),
        format!("{durable_ms:.3}"),
        format!("WAL overhead {overhead_pct:.1}%"),
    ]);
    table.row(&[
        "durable ingest (fsync/batch)".into(),
        format!("{durable_fsync_ms:.3}"),
        format!("WAL overhead {fsync_overhead_pct:.1}%"),
    ]);
    table.row(&[
        "recovery".into(),
        format!("{recovery_ms:.3}"),
        format!("snapshot + {wal_records} records replayed"),
    ]);
    table.row(&[
        "full re-derivation".into(),
        format!("{rederive_ms:.3}"),
        format!("recovery speedup {recovery_speedup:.2}x"),
    ]);
    print!("{}", table.render());

    let json = format!(
        "{{\n  \"workload\": {{\n    \"nodes\": {nodes},\n    \"edges\": {edges},\n    \
         \"links\": {links},\n    \"delta_batches\": {delta_batches},\n    \
         \"batch_size\": {batch_size}\n  }},\n  \"volatile_ingest_wall_ms\": {volatile_ms:.3},\n  \
         \"durable_ingest_wall_ms\": {durable_ms:.3},\n  \"wal_overhead_pct\": {overhead_pct:.2},\n  \"durable_fsync_wall_ms\": {durable_fsync_ms:.3},\n  \"wal_fsync_overhead_pct\": {fsync_overhead_pct:.2},\n  \
         \"recovery_wall_ms\": {recovery_ms:.3},\n  \"rederive_wall_ms\": {rederive_ms:.3},\n  \
         \"recovery_speedup\": {recovery_speedup:.2},\n  \"wal_records\": {wal_records},\n  \
         \"wal_bytes\": {wal_bytes},\n  \"snapshot_bytes\": {snapshot_bytes}\n}}\n"
    );
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    println!("wrote BENCH_recovery.json");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        overhead_pct <= 25.0,
        "group-commit WAL overhead must stay within 25% of volatile ingestion, \
         got {overhead_pct:.1}%"
    );
    assert!(
        recovery_speedup > 1.0,
        "recovery (snapshot + tail) must beat full re-derivation, got {recovery_speedup:.2}x"
    );
}

/// Incremental — the live engine's delta-ingest path against a full
/// from-scratch re-evaluation of the union, on the two-closure delta-stream
/// workload (`t` over `edge` is touched by every delta batch; `s` over
/// `link` is provably unaffected and must be skipped). Before any timing the
/// harness asserts the incremental materialisation **bit-identical** to the
/// from-scratch one — equal answer sets for both closures and equal
/// per-relation row sets — and `strata_skipped ≥ 1` on every delta batch;
/// a tripped assert fails the CI job. Writes `BENCH_incremental.json`.
fn incremental_bench(quick: bool) {
    use vadalog_benchgen::delta::two_closure_delta_stream;
    use vadalog_datalog::IncrementalEngine;

    println!("-- incremental: live delta ingestion vs full re-evaluation --");
    let samples = if quick { 3 } else { 5 };
    let (nodes, edges, links) = if quick {
        (100, 150, 100)
    } else {
        (200, 400, 260)
    };
    let (delta_batches, batch_size) = (2usize, 4usize);
    let scenario = two_closure_delta_stream(nodes, edges, links, delta_batches, batch_size, 42);

    // Seed the live engine with the base materialisation (not part of the
    // timed delta path — a service pays it once at startup).
    let mut seeded = IncrementalEngine::new(scenario.program.clone()).unwrap();
    seeded.ingest_database(&scenario.base).unwrap();

    // Correctness gate: ingest the stream once and compare against the
    // from-scratch evaluation of the union.
    let mut live = seeded.clone();
    let mut strata_skipped = 0usize;
    let mut rounds_incremental = 0usize;
    let mut delta_derived = 0usize;
    for batch in &scenario.deltas {
        let outcome = live.ingest(batch).unwrap();
        assert!(
            outcome.strata_skipped >= 1,
            "every delta touches only `edge`; the link/s stratum must be provably skipped"
        );
        strata_skipped += outcome.strata_skipped;
        rounds_incremental += outcome.rounds;
        delta_derived += outcome.derived_atoms;
    }
    let full_engine = DatalogEngine::new(scenario.program.clone()).unwrap();
    let full = full_engine.evaluate(&scenario.union);
    let t_query = parse_query("?(X, Y) :- t(X, Y).").unwrap();
    let s_query = parse_query("?(X, Y) :- s(X, Y).").unwrap();
    let t_answers = live.answers(&t_query);
    let s_answers = live.answers(&s_query);
    assert_eq!(
        t_answers,
        full.answers(&t_query),
        "t answers: incremental vs from-scratch"
    );
    assert_eq!(
        s_answers,
        full.answers(&s_query),
        "s answers: incremental vs from-scratch"
    );
    assert_eq!(
        live.instance().sorted_row_layout(),
        full.instance.sorted_row_layout(),
        "per-relation row sets: incremental vs from-scratch"
    );

    // Timed: the whole delta stream through the incremental path (each
    // sample restarts from a clone of the seeded engine, so every run
    // ingests from the same state)…
    let mut incremental_ms = f64::MAX;
    for _ in 0..samples {
        let mut engine = seeded.clone();
        let start = Instant::now();
        for batch in &scenario.deltas {
            engine.ingest(batch).unwrap();
        }
        incremental_ms = incremental_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    // …against a full from-scratch re-evaluation of the union.
    let mut full_ms = f64::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        let _ = full_engine.evaluate(&scenario.union);
        full_ms = full_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let speedup = full_ms / incremental_ms;
    let streamed = delta_batches * batch_size;

    let mut table = Table::new(&["path", "facts (re)processed", "wall (ms)", "speedup"]);
    table.row(&[
        "full re-evaluation of the union".to_string(),
        scenario.union.len().to_string(),
        format!("{full_ms:.3}"),
        "1.0x".to_string(),
    ]);
    table.row(&[
        format!("incremental ingest ({delta_batches} batches of {batch_size})"),
        streamed.to_string(),
        format!("{incremental_ms:.3}"),
        format!("{speedup:.1}x"),
    ]);
    println!("{}", table.render());
    println!(
        "delta stream: {delta_derived} atoms derived in {rounds_incremental} incremental \
         rounds, {strata_skipped} strata skipped ({} per batch)",
        strata_skipped / delta_batches.max(1)
    );

    let json = format!(
        "{{\n  \"workload\": {{\n    \"nodes\": {nodes},\n    \"edge_facts\": {edge_facts},\n    \"link_facts\": {link_facts},\n    \"delta_batches\": {delta_batches},\n    \"batch_size\": {batch_size},\n    \"union_facts\": {union_facts}\n  }},\n  \"full_reevaluation_wall_ms\": {full_ms:.3},\n  \"incremental_ingest_wall_ms\": {incremental_ms:.3},\n  \"speedup\": {speedup:.2},\n  \"delta_derived_atoms\": {delta_derived},\n  \"rounds_incremental\": {rounds_incremental},\n  \"strata_skipped\": {strata_skipped},\n  \"answers_t\": {answers_t},\n  \"answers_s\": {answers_s},\n  \"peak_atoms\": {peak}\n}}\n",
        edge_facts = edges + streamed,
        link_facts = links,
        union_facts = scenario.union.len(),
        answers_t = t_answers.len(),
        answers_s = s_answers.len(),
        peak = live.instance().len(),
    );
    std::fs::write("BENCH_incremental.json", &json).expect("write BENCH_incremental.json");
    println!("wrote BENCH_incremental.json");
}

/// Parallel — the sharded evaluator at 1/2/4/8 worker threads on four
/// workloads (TC-200 materialisation, the 3-hop CQ, the OWL 2 QL scenario
/// and the data-exchange scenario); writes `BENCH_parallel.json`. Every
/// thread count is asserted **bit-identical** to the sequential run (stats,
/// and for the materialisations the full row-id layout) before any timing,
/// so the table measures pure scheduling/merge behaviour. Wall-clock speedup
/// is bounded by the host's available parallelism (recorded in the JSON): on
/// a single-core container every thread count necessarily ties.
fn parallel_bench(quick: bool) {
    use std::ops::ControlFlow;
    use vadalog_model::parallel::sharded_match_count;
    use vadalog_model::{Atom, JoinSpec, Matcher, Term};

    println!("-- parallel: sharded semi-naive evaluation across worker threads --");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let thread_counts: [usize; 4] = [1, 2, 4, 8];
    let samples = if quick { 3 } else { 5 };
    let (nodes, edges) = if quick { (100, 150) } else { (200, 400) };
    let db = random_graph(nodes, edges, 42);
    let tc = program(LINEAR_TC);

    // TC materialisation at each thread count (best of N after a warm-up
    // that also checks bit-identity against the sequential run).
    let baseline = DatalogEngine::new(tc.clone()).unwrap().evaluate(&db);
    let mut tc_ms = Vec::new();
    for &threads in &thread_counts {
        let engine = DatalogEngine::new(tc.clone())
            .unwrap()
            .with_threads(threads);
        let warm = engine.evaluate(&db);
        assert_eq!(warm.stats.derived_atoms, baseline.stats.derived_atoms);
        assert_eq!(warm.stats.joins_evaluated, baseline.stats.joins_evaluated);
        assert_eq!(warm.stats.join_probes, baseline.stats.join_probes);
        assert_eq!(warm.stats.rows_prededuped, baseline.stats.rows_prededuped);
        assert_eq!(
            warm.instance.row_layout(),
            baseline.instance.row_layout(),
            "TC row layout must be bit-identical at {threads} threads"
        );
        let mut best = f64::MAX;
        for _ in 0..samples {
            let start = Instant::now();
            let _ = engine.evaluate(&db);
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        tc_ms.push(best);
    }

    // 3-hop CQ over a sparser graph's materialised closure, sharded on the
    // driver atom's rows.
    let (cq_nodes, cq_edges) = if quick { (100, 130) } else { (200, 260) };
    let closure = DatalogEngine::new(tc.clone())
        .unwrap()
        .evaluate(&random_graph(cq_nodes, cq_edges, 42))
        .instance;
    let v = Term::variable;
    let pattern = vec![
        Atom::new("t", vec![v("X"), v("Y")]),
        Atom::new("t", vec![v("Y"), v("Z")]),
        Atom::new("t", vec![v("Z"), v("W")]),
    ];
    let spec = JoinSpec::compile(&pattern);
    let mut sequential_answers = 0u64;
    Matcher::new(&spec).for_each(&closure, |_| {
        sequential_answers += 1;
        ControlFlow::Continue(())
    });
    let mut cq_ms = Vec::new();
    for &threads in &thread_counts {
        let warm = sharded_match_count(&spec, &closure, threads);
        assert_eq!(warm.matches, sequential_answers);
        let mut best = f64::MAX;
        for _ in 0..samples {
            let start = Instant::now();
            let _ = sharded_match_count(&spec, &closure, threads);
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        cq_ms.push(best);
    }

    // OWL 2 QL (Example 3.3): existential rules, so the bottom-up reasoner
    // carries the parallel trigger detection; application stays sequential,
    // hence full row-layout bit-identity across thread counts.
    let owl_db = owl_database(
        if quick { 15 } else { 40 },
        6,
        if quick { 60 } else { 200 },
        7,
    );
    let owl = owl_program();
    let owl_baseline = Reasoner::new(&owl, EngineConfig::default()).run(&owl_db);
    let mut owl_ms = Vec::new();
    for &threads in &thread_counts {
        let reasoner = Reasoner::new(
            &owl,
            EngineConfig {
                threads,
                ..EngineConfig::default()
            },
        );
        let warm = reasoner.run(&owl_db);
        assert_eq!(warm.stats.derived_atoms, owl_baseline.stats.derived_atoms);
        assert_eq!(warm.stats.join_probes, owl_baseline.stats.join_probes);
        assert_eq!(warm.stats.nulls_created, owl_baseline.stats.nulls_created);
        assert_eq!(
            warm.instance.row_layout(),
            owl_baseline.instance.row_layout(),
            "OWL row layout must be bit-identical at {threads} threads"
        );
        let mut best = f64::MAX;
        for _ in 0..samples {
            let start = Instant::now();
            let _ = reasoner.run(&owl_db);
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        owl_ms.push(best);
    }

    // Data exchange: source-to-target TGDs with value invention plus a
    // recursive target closure, chased with parallel trigger detection.
    let dex = data_exchange_scenario(3, if quick { 40 } else { 120 }, 25, 11);
    let dex_config = ChaseConfig {
        record_provenance: false,
        ..ChaseConfig::restricted(TerminationPolicy::Unbounded)
    };
    let dex_baseline = ChaseEngine::new(dex.program.clone(), dex_config).run(&dex.database);
    assert!(dex_baseline.completed);
    let mut dex_ms = Vec::new();
    for &threads in &thread_counts {
        let engine = ChaseEngine::new(dex.program.clone(), dex_config.with_threads(threads));
        let warm = engine.run(&dex.database);
        assert_eq!(warm.stats.steps, dex_baseline.stats.steps);
        assert_eq!(warm.stats.nulls_created, dex_baseline.stats.nulls_created);
        assert_eq!(
            warm.instance.row_layout(),
            dex_baseline.instance.row_layout(),
            "data-exchange row layout must be bit-identical at {threads} threads"
        );
        let mut best = f64::MAX;
        for _ in 0..samples {
            let start = Instant::now();
            let _ = engine.run(&dex.database);
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        dex_ms.push(best);
    }

    let mut table = Table::new(&["workload", "threads", "wall (ms)", "speedup vs 1"]);
    for (label, times) in [
        (
            format!("TC materialisation ({nodes} nodes, {edges} edges)"),
            &tc_ms,
        ),
        ("3-hop CQ over closure".to_string(), &cq_ms),
        ("OWL 2 QL reasoning".to_string(), &owl_ms),
        ("data exchange chase".to_string(), &dex_ms),
    ] {
        for (&threads, &ms) in thread_counts.iter().zip(times.iter()) {
            table.row(&[
                label.clone(),
                threads.to_string(),
                format!("{ms:.2}"),
                format!("{:.2}x", times[0] / ms),
            ]);
        }
    }
    println!("available parallelism on this host: {cores}");
    println!("{}", table.render());

    let per_thread = |times: &[f64]| -> String {
        thread_counts
            .iter()
            .zip(times.iter())
            .map(|(&threads, &ms)| {
                format!(
                    "        \"{threads}\": {{ \"wall_ms\": {ms:.3}, \"speedup_vs_1\": {:.2} }}",
                    times[0] / ms
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let json = format!(
        "{{\n  \"available_parallelism\": {cores},\n  \"workloads\": {{\n    \"tc_materialization\": {{\n      \"nodes\": {nodes},\n      \"edges\": {edges},\n      \"derived_atoms\": {derived},\n      \"rows_prededuped\": {prededuped},\n      \"threads\": {{\n{tc_threads}\n      }}\n    }},\n    \"cq_path3\": {{\n      \"nodes\": {cq_nodes},\n      \"edges\": {cq_edges},\n      \"answers\": {answers},\n      \"threads\": {{\n{cq_threads}\n      }}\n    }},\n    \"owl2ql\": {{\n      \"derived_atoms\": {owl_derived},\n      \"nulls_created\": {owl_nulls},\n      \"threads\": {{\n{owl_threads}\n      }}\n    }},\n    \"data_exchange\": {{\n      \"chase_steps\": {dex_steps},\n      \"nulls_created\": {dex_nulls},\n      \"threads\": {{\n{dex_threads}\n      }}\n    }}\n  }}\n}}\n",
        derived = baseline.stats.derived_atoms,
        prededuped = baseline.stats.rows_prededuped,
        tc_threads = per_thread(&tc_ms),
        answers = sequential_answers,
        cq_threads = per_thread(&cq_ms),
        owl_derived = owl_baseline.stats.derived_atoms,
        owl_nulls = owl_baseline.stats.nulls_created,
        owl_threads = per_thread(&owl_ms),
        dex_steps = dex_baseline.stats.steps,
        dex_nulls = dex_baseline.stats.nulls_created,
        dex_threads = per_thread(&dex_ms),
    );
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");
}

/// The PR 3 kernel wall times on the full-size workloads (recorded in the
/// repository's `BENCH_joins.json` before this change), so the JSON can
/// report the composite-index kernel's improvement against them. `None`
/// in quick mode, whose workload sizes differ.
const PR3_BASELINE_TC_MS: f64 = 5.362;
const PR3_BASELINE_CQ_MS: f64 = 66.876;

/// Joins — the packed build/probe kernel vs. the seed baseline on five
/// workloads: transitive-closure materialisation (200-node random graph), a
/// join-heavy 3-hop CQ, CQs over the materialised OWL 2 QL and
/// data-exchange scenarios, and the 2-key foreign-key join chain whose
/// every join binds a two-column key (composite plan vs. single-column plan
/// on the same kernel). Every workload asserts kernel/reference answer
/// equality before timing; writes `BENCH_joins.json` with the new
/// composite-index observability fields — `composite_probes`,
/// `probe_misses_filtered` (fingerprint skips) and per-workload
/// `index_bytes` — plus the PR 3 kernel baseline for the two original
/// workloads (full mode only).
fn joins_bench(quick: bool) {
    use std::ops::ControlFlow;
    use vadalog_bench::seed_reference;
    use vadalog_benchgen::fkjoin::fk_join_scenario;
    use vadalog_model::homomorphism::reference::homomorphisms_reference;
    use vadalog_model::{
        Atom, HomSearch, Instance, JoinPlan, JoinSpec, JoinStats, Matcher, Substitution, Term,
    };

    println!("-- joins: packed columnar store + build/probe kernel vs. seed algorithm --");
    let (nodes, edges) = if quick { (100, 150) } else { (200, 400) };
    let db = random_graph(nodes, edges, 42);
    let tc = program(LINEAR_TC);
    let engine = DatalogEngine::new(tc.clone()).unwrap();
    let samples = if quick { 3 } else { 5 };

    // Times one planned kernel enumeration (best of N), returning the
    // answer count, wall time and the kernel counters of the final run.
    let time_plan =
        |spec: &JoinSpec, plan: &JoinPlan, target: &Instance| -> (u64, f64, JoinStats) {
            let mut best_ms = f64::MAX;
            let mut answers = 0u64;
            let mut stats = JoinStats::default();
            for _ in 0..samples {
                let start = Instant::now();
                let mut count = 0u64;
                let mut matcher = Matcher::new(spec);
                matcher.set_plan(Some(plan));
                stats = matcher.for_each(target, |_| {
                    count += 1;
                    ControlFlow::Continue(())
                });
                best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
                answers = count;
            }
            (answers, best_ms, stats)
        };

    // Times a planned kernel count and the reference enumeration of the same
    // pattern, asserting equal answer counts (the bit-identity gate of the
    // CQ workloads).
    let cq_workload = |pattern: &[Atom], target: &Instance| -> (u64, f64, f64, JoinStats) {
        let spec = JoinSpec::compile(pattern);
        let plan = spec.plan(target, &[]);
        let (kernel_answers, kernel_ms, stats) = time_plan(&spec, &plan, target);
        let start = Instant::now();
        let seed_answers =
            homomorphisms_reference(pattern, target, &Substitution::new(), HomSearch::all()).len();
        let seed_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            kernel_answers as usize, seed_answers,
            "kernel and reference must agree on {pattern:?}"
        );
        (kernel_answers, kernel_ms, seed_ms, stats)
    };

    // Transitive-closure materialisation (best of N timed runs each, after a
    // shared warm-up, so one scheduler hiccup cannot skew the ratio).
    let warm = engine.evaluate(&db);
    let mut kernel_tc_ms = f64::MAX;
    let mut kernel_result = engine.evaluate(&db);
    for _ in 0..samples {
        let start = Instant::now();
        kernel_result = engine.evaluate(&db);
        kernel_tc_ms = kernel_tc_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let mut seed_tc_ms = f64::MAX;
    let mut seed_stats = seed_reference::evaluate(&tc, &db).1;
    for _ in 0..samples {
        let start = Instant::now();
        seed_stats = seed_reference::evaluate(&tc, &db).1;
        seed_tc_ms = seed_tc_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    assert_eq!(kernel_result.stats.derived_atoms, seed_stats.derived_atoms);
    assert_eq!(kernel_result.stats.peak_atoms, seed_stats.peak_atoms);

    // Join-heavy CQ over a materialised closure. Evaluated on a sparser
    // graph's closure than the TC workload: the baseline *materialises*
    // every answer substitution, and a 3-hop pattern over a dense closure
    // has too many answers for it to finish in sensible time.
    let (cq_nodes, cq_edges) = if quick { (100, 130) } else { (200, 260) };
    let closure = if (cq_nodes, cq_edges) == (nodes, edges) {
        warm.instance
    } else {
        engine
            .evaluate(&random_graph(cq_nodes, cq_edges, 42))
            .instance
    };
    let v = Term::variable;
    let pattern = vec![
        Atom::new("t", vec![v("X"), v("Y")]),
        Atom::new("t", vec![v("Y"), v("Z")]),
        Atom::new("t", vec![v("Z"), v("W")]),
    ];
    let (kernel_answers, kernel_cq_ms, seed_cq_ms, _) = cq_workload(&pattern, &closure);

    // OWL 2 QL (Example 3.3): materialise with the bottom-up reasoner, then
    // answer a 2-hop typing CQ with both kernels.
    let owl_db = owl_database(
        if quick { 15 } else { 40 },
        6,
        if quick { 60 } else { 200 },
        7,
    );
    let owl_instance = Reasoner::new(&owl_program(), EngineConfig::default())
        .run(&owl_db)
        .instance;
    let owl_pattern = vec![
        Atom::new("type", vec![v("X"), v("C")]),
        Atom::new("subclassStar", vec![v("C"), v("D")]),
        Atom::new("type", vec![v("Y"), v("D")]),
    ];
    let (owl_answers, owl_kernel_ms, owl_seed_ms, _) = cq_workload(&owl_pattern, &owl_instance);

    // Data exchange: chase the source-to-target TGDs, then answer a 2-hop
    // connectivity CQ over the target closure.
    let dex = data_exchange_scenario(3, if quick { 40 } else { 120 }, 25, 11);
    let dex_instance = ChaseEngine::new(
        dex.program.clone(),
        ChaseConfig {
            record_provenance: false,
            ..ChaseConfig::restricted(TerminationPolicy::Unbounded)
        },
    )
    .run(&dex.database)
    .instance;
    let dex_pattern = vec![
        Atom::new("connected", vec![v("X"), v("Y")]),
        Atom::new("connected", vec![v("Y"), v("Z")]),
    ];
    let (dex_answers, dex_kernel_ms, dex_seed_ms, _) = cq_workload(&dex_pattern, &dex_instance);

    // 2-key foreign-key join chain: every join binds a two-column key, so
    // this is where composite fused-key probes and fingerprint miss-skipping
    // pay off. Both plan flavours run on the *same* kernel over the same
    // instance and must enumerate the same answers (asserted, with the
    // reference oracle as a third witness, before any timing).
    let (fk_groups, fk_rows) = (40, if quick { 1500 } else { 6000 });
    let fk = fk_join_scenario(fk_groups, fk_rows, 13);
    let fk_instance = fk.database.as_instance();
    let fk_spec = JoinSpec::compile(&fk.pattern);
    let fk_composite_plan = fk_spec.plan(fk_instance, &[]);
    let fk_single_plan = fk_spec.plan_with_options(
        fk_instance,
        &[],
        vadalog_model::PlanOptions {
            composite_keys: false,
        },
    );
    let (fk_answers, fk_composite_ms, fk_stats) =
        time_plan(&fk_spec, &fk_composite_plan, fk_instance);
    let (fk_single_answers, fk_single_ms, fk_single_stats) =
        time_plan(&fk_spec, &fk_single_plan, fk_instance);
    assert_eq!(
        fk_answers, fk_single_answers,
        "composite and single-column plans must enumerate the same FK-chain answers"
    );
    assert_eq!(
        fk_answers as usize, fk.expected_answers,
        "FK-chain answers must match the generator's bookkeeping"
    );
    let start = Instant::now();
    let fk_seed_answers = homomorphisms_reference(
        &fk.pattern,
        fk_instance,
        &Substitution::new(),
        HomSearch::all(),
    )
    .len();
    let fk_seed_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        fk_answers as usize, fk_seed_answers,
        "FK chain vs reference oracle"
    );
    let fk_index_bytes = fk_instance.index_bytes();

    let mut table = Table::new(&["workload", "kernel (ms)", "seed (ms)", "speedup"]);
    for (label, kernel_ms, seed_ms) in [
        (
            format!("TC materialisation ({nodes} nodes, {edges} edges)"),
            kernel_tc_ms,
            seed_tc_ms,
        ),
        (
            "3-hop CQ over closure".to_string(),
            kernel_cq_ms,
            seed_cq_ms,
        ),
        ("OWL 2 QL typing CQ".to_string(), owl_kernel_ms, owl_seed_ms),
        (
            "data-exchange connectivity CQ".to_string(),
            dex_kernel_ms,
            dex_seed_ms,
        ),
        (
            "2-key FK join chain CQ".to_string(),
            fk_composite_ms,
            fk_seed_ms,
        ),
    ] {
        table.row(&[
            label,
            format!("{kernel_ms:.2}"),
            format!("{seed_ms:.2}"),
            format!("{:.1}x", seed_ms / kernel_ms),
        ]);
    }
    println!("{}", table.render());
    println!(
        "FK chain, composite vs single-column plan: {fk_composite_ms:.2} ms vs \
         {fk_single_ms:.2} ms ({:.2}x); composite_probes={}, probe_misses_filtered={} \
         (single-column plan: {} filtered), index_bytes={fk_index_bytes}",
        fk_single_ms / fk_composite_ms,
        fk_stats.composite_probes,
        fk_stats.misses_filtered,
        fk_single_stats.misses_filtered,
    );
    println!(
        "TC materialisation composite_probes={}, probe_misses_filtered={}",
        warm.stats.composite_probes, warm.stats.probe_misses_filtered
    );

    // The PR 3 baseline comparison only applies to the full-size workloads.
    let pr3 = |baseline: f64, now: f64| -> (String, String) {
        if quick {
            ("null".to_string(), "null".to_string())
        } else {
            (format!("{baseline:.3}"), format!("{:.2}", baseline / now))
        }
    };
    let (tc_pr3, tc_pr3_speedup) = pr3(PR3_BASELINE_TC_MS, kernel_tc_ms);
    let (cq_pr3, cq_pr3_speedup) = pr3(PR3_BASELINE_CQ_MS, kernel_cq_ms);
    let json = format!(
        "{{\n  \"workloads\": {{\n    \"tc_materialization\": {{\n      \"nodes\": {nodes},\n      \"edges\": {edges},\n      \"derived_atoms\": {derived},\n      \"peak_atoms\": {peak},\n      \"composite_probes\": {tc_composite},\n      \"probe_misses_filtered\": {tc_filtered},\n      \"index_bytes\": {tc_index_bytes},\n      \"kernel_wall_ms\": {kernel_tc_ms:.3},\n      \"seed_reference_wall_ms\": {seed_tc_ms:.3},\n      \"speedup\": {tc_speedup:.2},\n      \"pr3_kernel_wall_ms\": {tc_pr3},\n      \"speedup_vs_pr3_kernel\": {tc_pr3_speedup}\n    }},\n    \"cq_path3\": {{\n      \"nodes\": {cq_nodes},\n      \"edges\": {cq_edges},\n      \"answers\": {answers},\n      \"peak_atoms\": {cq_peak},\n      \"index_bytes\": {cq_index_bytes},\n      \"kernel_wall_ms\": {kernel_cq_ms:.3},\n      \"seed_reference_wall_ms\": {seed_cq_ms:.3},\n      \"speedup\": {cq_speedup:.2},\n      \"pr3_kernel_wall_ms\": {cq_pr3},\n      \"speedup_vs_pr3_kernel\": {cq_pr3_speedup}\n    }},\n    \"owl2ql_typing_cq\": {{\n      \"answers\": {owl_answers},\n      \"peak_atoms\": {owl_peak},\n      \"index_bytes\": {owl_index_bytes},\n      \"kernel_wall_ms\": {owl_kernel_ms:.3},\n      \"seed_reference_wall_ms\": {owl_seed_ms:.3},\n      \"speedup\": {owl_speedup:.2}\n    }},\n    \"data_exchange_connectivity_cq\": {{\n      \"answers\": {dex_answers},\n      \"peak_atoms\": {dex_peak},\n      \"index_bytes\": {dex_index_bytes},\n      \"kernel_wall_ms\": {dex_kernel_ms:.3},\n      \"seed_reference_wall_ms\": {dex_seed_ms:.3},\n      \"speedup\": {dex_speedup:.2}\n    }},\n    \"fk_join_2key_cq\": {{\n      \"groups\": {fk_groups},\n      \"rows\": {fk_rows},\n      \"answers\": {fk_answers},\n      \"peak_atoms\": {fk_peak},\n      \"composite_probes\": {fk_composite_probes},\n      \"probe_misses_filtered\": {fk_filtered},\n      \"index_bytes\": {fk_index_bytes},\n      \"kernel_wall_ms\": {fk_composite_ms:.3},\n      \"single_column_wall_ms\": {fk_single_ms:.3},\n      \"speedup_vs_single_column\": {fk_vs_single:.2},\n      \"seed_reference_wall_ms\": {fk_seed_ms:.3},\n      \"speedup\": {fk_speedup:.2}\n    }}\n  }}\n}}\n",
        derived = kernel_result.stats.derived_atoms,
        peak = kernel_result.stats.peak_atoms,
        tc_composite = warm.stats.composite_probes,
        tc_filtered = warm.stats.probe_misses_filtered,
        tc_index_bytes = kernel_result.instance.index_bytes(),
        tc_speedup = seed_tc_ms / kernel_tc_ms,
        answers = kernel_answers,
        cq_peak = closure.len(),
        cq_index_bytes = closure.index_bytes(),
        cq_speedup = seed_cq_ms / kernel_cq_ms,
        owl_peak = owl_instance.len(),
        owl_index_bytes = owl_instance.index_bytes(),
        owl_speedup = owl_seed_ms / owl_kernel_ms,
        dex_peak = dex_instance.len(),
        dex_index_bytes = dex_instance.index_bytes(),
        dex_speedup = dex_seed_ms / dex_kernel_ms,
        fk_peak = fk_instance.len(),
        fk_composite_probes = fk_stats.composite_probes,
        fk_filtered = fk_stats.misses_filtered,
        fk_vs_single = fk_single_ms / fk_composite_ms,
        fk_speedup = fk_seed_ms / fk_composite_ms,
    );
    std::fs::write("BENCH_joins.json", &json).expect("write BENCH_joins.json");
    println!("wrote BENCH_joins.json");
}

/// E1 — data complexity / space: the proof search keeps a constant-size
/// frontier while bottom-up evaluation materialises a growing instance.
fn e1_space(quick: bool) {
    println!("-- E1: space usage, linear proof search vs. materialisation (reachability) --");
    let sizes: &[usize] = if quick {
        &[50, 100]
    } else {
        &[50, 100, 200, 400]
    };
    let tc = program(LINEAR_TC);
    let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();
    let mut table = Table::new(&[
        "|D| (edges)",
        "materialised atoms (semi-naive)",
        "proof-search node width",
        "proof-search states",
        "node-width bound",
        "positive decision (ms)",
    ]);
    for &n in sizes {
        let db = chain_graph(n);
        let datalog = DatalogEngine::new(tc.clone()).unwrap().evaluate(&db);
        let boolean = query
            .instantiate(&[Symbol::new("n0"), Symbol::new(&format!("n{n}"))])
            .unwrap();
        let start = Instant::now();
        let outcome = linear_proof_search(&tc, &db, &boolean, SearchOptions::default());
        let elapsed = start.elapsed().as_millis();
        assert!(outcome.is_accepted(), "n0 reaches n{n}");
        let stats = outcome.stats();
        table.row(&[
            n.to_string(),
            datalog.stats.peak_atoms.to_string(),
            stats.max_state_size.to_string(),
            stats.states_visited.to_string(),
            stats.node_width_bound.to_string(),
            elapsed.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// E2 — the 55 / 15 / 30 statistic of Section 1.2 over a generated suite.
fn e2_scenario_statistics(quick: bool) {
    println!("-- E2: recursion-shape statistics over an iWarded-style suite --");
    let total = if quick { 60 } else { 200 };
    let mix = ScenarioMix::default();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2024);
    let mut counts: BTreeMap<ScenarioClass, usize> = BTreeMap::new();
    for seed in 0..total as u64 {
        let kind = mix.draw(&mut rng);
        let scenario = iwarded_scenario(kind, 6, seed);
        *counts.entry(classify_scenario(&scenario)).or_insert(0) += 1;
    }
    let mut table = Table::new(&["class", "scenarios", "fraction", "paper"]);
    let paper: &[(ScenarioClass, &str)] = &[
        (ScenarioClass::WardedPwl, "≈55%"),
        (ScenarioClass::WardedLinearizable, "≈15%"),
        (ScenarioClass::WardedNonPwl, "≈30%"),
        (ScenarioClass::NotWarded, "0% (all scenarios warded)"),
    ];
    for (class, paper_share) in paper {
        let count = counts.get(class).copied().unwrap_or(0);
        table.row(&[
            class.to_string(),
            count.to_string(),
            format!("{:.1}%", 100.0 * count as f64 / total as f64),
            paper_share.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// E3 — combined complexity: growth of the search with the program's level
/// structure on a fixed database.
fn e3_combined_complexity(quick: bool) {
    println!("-- E3: combined complexity, search work vs. program depth --");
    let levels: &[usize] = if quick { &[1, 2, 3] } else { &[1, 2, 3, 4, 5] };
    let db = chain_graph(6);
    let mut table = Table::new(&[
        "levels",
        "rules",
        "node-width bound",
        "states visited",
        "decision (ms)",
    ]);
    for &k in levels {
        let prog = layered_program(k);
        let query = parse_query(&format!("?(X, Y) :- p{k}(X, Y).")).unwrap();
        let boolean = query
            .instantiate(&[Symbol::new("n0"), Symbol::new("n6")])
            .unwrap();
        let start = Instant::now();
        let outcome = linear_proof_search(&prog, &db, &boolean, SearchOptions::default());
        let elapsed = start.elapsed().as_millis();
        assert!(outcome.is_accepted());
        table.row(&[
            k.to_string(),
            prog.len().to_string(),
            outcome.stats().node_width_bound.to_string(),
            outcome.stats().states_visited.to_string(),
            elapsed.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// E4 — Theorem 6.3: the rewriting into piece-wise linear Datalog agrees with
/// the other evaluation strategies.
fn e4_rewriting() {
    println!("-- E4: rewriting (WARD ∩ PWL, CQ) into piece-wise linear Datalog --");
    let scenarios: Vec<(&str, &str, &str, Database)> = vec![
        (
            "linear TC",
            LINEAR_TC,
            "?(A, B) :- t(A, B).",
            chain_graph(8),
        ),
        (
            "existential loop",
            "r(X, Z) :- p(X).\n p(Y) :- r(X, Y).",
            "?(A) :- r(A, Y), r(Y, W).",
            vadalog_model::parser::parse("p(a). p(b). p(c).")
                .unwrap()
                .database,
        ),
        (
            "subclass closure",
            "subclassStar(X, Y) :- subclass(X, Y).\n\
             subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).",
            "?(A, B) :- subclassStar(A, B).",
            vadalog_model::parser::parse("subclass(c1, c2). subclass(c2, c3). subclass(c3, c4).")
                .unwrap()
                .database,
        ),
    ];
    let mut table = Table::new(&[
        "scenario",
        "rewriting states",
        "rewriting rules",
        "intensionally linear",
        "answers match engine",
        "answers",
    ]);
    for (name, rules, query_src, db) in scenarios {
        let prog = parse_rules(rules).unwrap();
        let query = parse_query(query_src).unwrap();
        let rewritten = rewrite_to_pwl_datalog(&prog, &query, RewriteOptions::default())
            .unwrap()
            .expect("rewriting within bounds");
        let datalog_answers = DatalogEngine::new(rewritten.program.clone())
            .unwrap()
            .answers(&db, &rewritten.query);
        let engine = CertainAnswerEngine::with_defaults(prog).unwrap();
        let mut all_match = true;
        for answer in &datalog_answers {
            if !engine.is_certain_answer(&db, &query, answer).unwrap() {
                all_match = false;
            }
        }
        table.row(&[
            name.to_string(),
            rewritten.state_count.to_string(),
            rewritten.program.len().to_string(),
            is_intensionally_linear(&rewritten.program).to_string(),
            all_match.to_string(),
            datalog_answers.len().to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// E5 — Theorem 5.1: the tiling reduction is PWL but not warded; bounded
/// chase evaluation mirrors the bounded tiling solver.
fn e5_tiling() {
    println!("-- E5: the Section 5 tiling reduction (PWL without wardedness) --");
    let systems: Vec<(&str, TilingSystem)> = vec![
        ("solvable corridor", TilingSystem::solvable_example()),
        ("unsolvable corridor", TilingSystem::unsolvable_example()),
    ];
    let mut table = Table::new(&[
        "tiling system",
        "pwl",
        "warded",
        "bounded solver (4×4)",
        "bounded chase answers query",
        "chase atoms",
    ]);
    for (name, system) in systems {
        let red = reduction(&system);
        let solver = has_tiling_within(&system, 4, 4).is_some();
        let chase = ChaseEngine::new(
            red.program.clone(),
            ChaseConfig {
                record_provenance: false,
                ..ChaseConfig::restricted(TerminationPolicy::MaxNullDepth(4))
            },
        );
        let result = chase.run(&red.database);
        table.row(&[
            name.to_string(),
            is_piecewise_linear(&red.program).to_string(),
            is_warded(&red.program).to_string(),
            solver.to_string(),
            result.boolean_answer(&red.query).to_string(),
            result.instance.len().to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// E6 — Section 7 ablations: join ordering and strata materialisation.
fn e6_ablation(quick: bool) {
    println!("-- E6: Section 7 ablations (join ordering, strata materialisation) --");
    let owl_db = owl_database(
        if quick { 15 } else { 40 },
        6,
        if quick { 60 } else { 200 },
        7,
    );
    let dex = data_exchange_scenario(3, if quick { 40 } else { 120 }, 25, 11);
    let scenarios: Vec<(&str, vadalog_model::Program, Database)> = vec![
        ("OWL 2 QL (Example 3.3)", owl_program(), owl_db),
        ("data exchange", dex.program, dex.database),
    ];
    let mut table = Table::new(&[
        "scenario",
        "config",
        "join probes",
        "derived atoms",
        "peak atoms",
        "rounds",
        "time (ms)",
    ]);
    for (name, prog, db) in scenarios {
        let configs: Vec<(&str, EngineConfig)> = vec![
            ("pwl-aware order, strata", EngineConfig::default()),
            (
                "as-written order, strata",
                EngineConfig {
                    join_ordering: JoinOrdering::AsWritten,
                    ..EngineConfig::default()
                },
            ),
            (
                "pwl-aware order, global fixpoint",
                EngineConfig {
                    materialize_strata: false,
                    ..EngineConfig::default()
                },
            ),
        ];
        for (label, config) in configs {
            let reasoner = Reasoner::new(&prog, config);
            let start = Instant::now();
            let result = reasoner.run(&db);
            let elapsed = start.elapsed().as_millis();
            table.row(&[
                name.to_string(),
                label.to_string(),
                result.stats.join_probes.to_string(),
                result.stats.derived_atoms.to_string(),
                result.stats.peak_atoms.to_string(),
                result.stats.rounds.to_string(),
                elapsed.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}

/// E7 — program expressive power (Lemma 6.7): value invention separates
/// warded Datalog∃ from Datalog under the program expressive power.
fn e7_program_expressive_power() {
    println!("-- E7: program expressive power (Lemma 6.7) --");
    let sigma = parse_rules("r(X, Y) :- p(X).").unwrap();
    let db = vadalog_model::parser::parse("p(c).").unwrap().database;
    let engine = CertainAnswerEngine::with_defaults(sigma).unwrap();
    let q1 = parse_query("? :- r(X, Y).").unwrap();
    let q2 = parse_query("? :- r(X, Y), p(Y).").unwrap();
    let a1 = engine.boolean_certain(&db, &q1);
    let a2 = engine.boolean_certain(&db, &q2);
    let mut table = Table::new(&["query", "certain under Σ = {P(x) → ∃y R(x,y)}", "paper"]);
    table.row(&[
        "q1 = ∃x,y R(x,y)".to_string(),
        a1.to_string(),
        "true".to_string(),
    ]);
    table.row(&[
        "q2 = ∃x,y R(x,y) ∧ P(y)".to_string(),
        a2.to_string(),
        "false".to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "Any Datalog program over edb {{p}} that makes q1 true on D = {{p(c)}} can only do so\n\
         by deriving an R-fact over the active domain, which forces q2 to be true as well —\n\
         so no single Datalog program reproduces both answers (Lemma 6.7).\n"
    );
}

/// E8 — the linearisation rewriting of Section 1.2.
fn e8_linearization(quick: bool) {
    println!("-- E8: eliminating unnecessary non-linear recursion --");
    let sizes: &[usize] = if quick { &[100] } else { &[100, 300] };
    let mut table = Table::new(&[
        "|D| (edges)",
        "program",
        "pwl",
        "derived atoms",
        "joins evaluated",
        "answers",
        "time (ms)",
    ]);
    for &n in sizes {
        let db = random_graph(n / 4, n, 3);
        let query = parse_query("?(X, Y) :- t(X, Y).").unwrap();
        let nonlinear = program(NONLINEAR_TC);
        let linearized = linearize(&nonlinear).program;
        for (label, prog) in [("non-linear TC", nonlinear), ("linearised TC", linearized)] {
            let engine = DatalogEngine::new(prog.clone()).unwrap();
            let start = Instant::now();
            let result = engine.evaluate(&db);
            let elapsed = start.elapsed().as_millis();
            let answers = result.answers(&query);
            table.row(&[
                n.to_string(),
                label.to_string(),
                is_piecewise_linear(&prog).to_string(),
                result.stats.derived_atoms.to_string(),
                result.stats.joins_evaluated.to_string(),
                answers.len().to_string(),
                elapsed.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}
