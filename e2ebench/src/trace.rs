//! The traced run: the per-layer metrics. It repeats the workload's set-up
//! and a shorter loopback load, then replays the same requests in-process,
//! single-threaded, through each layer's public functions and times every
//! call from the outside. The program itself is not instrumented.

use crate::materialise::{Outcome, Tasks};
use crate::serve::{self, batch_line, json_field, ReadKind, CHAINS, CHAIN_LEN};
use crate::stats::{median, Metric};
use crate::{peak_rss_mb, threads, Args, Report};
use std::collections::BTreeMap;
use std::time::Instant;
use vadalog_benchgen::magic::bound_query_scenario;
use vadalog_datalog::{explain_query, DemandEngine};
use vadalog_model::{InstanceSnapshot, QueryBudget};
use vadalog_service::protocol::QueryMode;
use vadalog_service::wal::Wal;
use vadalog_service::{
    parse_request, DurabilityConfig, DurableEngine, IncrementalEngine, Request, Response,
    SyncPolicy,
};

/// Every per-layer metric: name, unit, and the end-to-end metric (on the
/// workload) it should move.
pub const LAYER_METRICS: [(&str, &str, &str); 53] = [
    (
        "reactor.residual_us",
        "us",
        "read_p50_ms, read_per_s on serve_read",
    ),
    (
        "reactor.queue_depth_max",
        "count",
        "read_p90_ms on serve_read",
    ),
    (
        "protocol.parse_us",
        "us",
        "read_p50_ms on serve_read (expected small)",
    ),
    ("protocol.render_us", "us", "read_p50_ms on serve_read"),
    ("protocol.reply_bytes", "B", "read_per_s on serve_read"),
    ("demand.rewrite_us", "us", "read_p50_ms on serve_read"),
    (
        "demand.seed_us",
        "us",
        "read_p50_ms, read_per_s on serve_read",
    ),
    ("demand.fixpoint_us", "us", "read_p50_ms on serve_read"),
    ("demand.answer_us", "us", "read_p50_ms on serve_read"),
    (
        "demand.scratch_atoms",
        "count",
        "read_p50_ms, peak_rss_mb on serve_read",
    ),
    (
        "demand.demanded_tuples",
        "count",
        "read_p50_ms on serve_read",
    ),
    ("demand.useful_ratio", "ratio", "read_p50_ms on serve_read"),
    (
        "demand.cache_hit_ratio",
        "ratio",
        "read_p50_ms on serve_read",
    ),
    ("cq.eval_us", "us", "read_p50_ms on serve_read"),
    (
        "explain.us",
        "us",
        "read_p50_ms on serve_read (small share)",
    ),
    ("wal.write_us", "us", "ingest_p50_ms on serve_mixed"),
    (
        "wal.fsync_us",
        "us",
        "ingest_p50_ms, ingest_p90_ms on serve_mixed",
    ),
    (
        "wal.always_us",
        "us",
        "ingest_p50_ms on serve_mixed (cross-check of write + fsync)",
    ),
    ("wal.write_amp", "ratio", "ingest_p50_ms on serve_mixed"),
    ("ingest.apply_ms", "ms", "ingest_p50_ms on serve_mixed"),
    (
        "ingest.derived_per_batch",
        "count",
        "ingest_p50_ms on serve_mixed",
    ),
    (
        "ingest.rounds_per_batch",
        "count",
        "ingest_p50_ms on serve_mixed",
    ),
    (
        "publish.ms",
        "ms",
        "ingest_p50_ms, read_p90_ms on serve_mixed",
    ),
    ("publish.release_ms", "ms", "ingest_p50_ms on serve_mixed"),
    ("checkpoint.ms", "ms", "setup_s on serve_read, serve_mixed"),
    (
        "checkpoint.bytes_per_atom",
        "B/atom",
        "setup_s, peak_rss_mb on serve_read",
    ),
    (
        "setup.generate_s",
        "s",
        "setup_s on serve_read, serve_mixed",
    ),
    (
        "setup.materialise_s",
        "s",
        "setup_s on serve_read, serve_mixed",
    ),
    (
        "setup.checkpoint_s",
        "s",
        "setup_s on serve_read, serve_mixed",
    ),
    ("setup.start_s", "s", "setup_s on serve_read, serve_mixed"),
    (
        "store.index_bytes_per_atom",
        "B/atom",
        "peak_rss_mb on serve_read",
    ),
    ("tc.wall_s", "s", "none: batch reasoning, timed only here"),
    ("tc.index_bytes_per_atom", "B/atom", "tc.wall_s"),
    (
        "tc.derived_atoms",
        "count",
        "tc.wall_s; setup_s on both (same semi-naive core)",
    ),
    (
        "tc.join_probes",
        "count",
        "tc.wall_s; setup_s on both (same semi-naive core)",
    ),
    (
        "tc.rows_prededuped",
        "count",
        "tc.wall_s; setup_s on both (same semi-naive core)",
    ),
    (
        "tc.iterations",
        "count",
        "tc.wall_s; setup_s on both (same semi-naive core)",
    ),
    (
        "tc.useful_ratio",
        "ratio",
        "tc.wall_s; setup_s on both (same semi-naive core)",
    ),
    (
        "tc.speedup_nproc",
        "x",
        "tc.wall_s; setup_s on both (same semi-naive core)",
    ),
    (
        "owl2ql.wall_s",
        "s",
        "none: batch reasoning, timed only here",
    ),
    ("owl2ql.steps", "count", "owl2ql.wall_s"),
    ("owl2ql.triggers_per_step", "ratio", "owl2ql.wall_s"),
    ("owl2ql.nulls", "count", "owl2ql.wall_s"),
    ("owl2ql.speedup_nproc", "x", "owl2ql.wall_s"),
    ("dex.wall_s", "s", "none: batch reasoning, timed only here"),
    ("dex.steps", "count", "dex.wall_s"),
    ("dex.triggers_per_step", "ratio", "dex.wall_s"),
    ("dex.nulls", "count", "dex.wall_s"),
    ("dex.speedup_nproc", "x", "dex.wall_s"),
    (
        "trace.overhead_ratio",
        "ratio",
        "none: timed over untimed in-process replay wall",
    ),
    (
        "trace.loopback_reads",
        "count",
        "none: reads in the traced loopback load",
    ),
    ("trace.peak_rss_mb", "MiB", "none: VmHWM of the traced run"),
    ("trace.wall_s", "s", "none: wall time of the traced run"),
];

/// Per-layer means and call counts.
#[derive(Default)]
struct Layers {
    sums: BTreeMap<String, (f64, u64)>,
}

impl Layers {
    fn add(&mut self, name: &str, value: f64) {
        let entry = self.sums.entry(name.to_string()).or_default();
        entry.0 += value;
        entry.1 += 1;
    }

    /// Sets a metric that is one measurement, not a mean over calls.
    fn set(&mut self, name: &str, value: f64, calls: u64) {
        self.sums
            .insert(name.to_string(), (value * calls.max(1) as f64, calls));
    }

    fn mean(&self, name: &str) -> f64 {
        self.sums
            .get(name)
            .map_or(f64::NAN, |&(sum, calls)| sum / calls.max(1) as f64)
    }
}

/// Runs `call`, adds its wall time in microseconds to `name`, and returns
/// its result.
fn timed<T>(layers: &mut Layers, name: &str, call: impl FnOnce() -> T) -> T {
    let clock = Instant::now();
    let result = call();
    layers.add(name, clock.elapsed().as_secs_f64() * 1e6);
    result
}

fn micros(clock: Instant) -> f64 {
    clock.elapsed().as_secs_f64() * 1e6
}

pub fn run(args: &Args) -> Result<Report, String> {
    let wall = Instant::now();
    let threads = threads();
    let mut layers = Layers::default();

    // Set-up, each step timed on its own.
    let (served, refs, setups) = crate::setup(args)?;
    let calls = setups.len() as u64;
    let step =
        |of: fn(&serve::SetupTimes) -> f64| median(&mut setups.iter().map(of).collect::<Vec<_>>());
    layers.set("setup.generate_s", step(|t| t.generate), calls);
    layers.set("setup.materialise_s", step(|t| t.materialise), calls);
    layers.set("setup.checkpoint_s", step(|t| t.checkpoint), calls);
    layers.set("setup.start_s", step(|t| t.start), calls);

    // A shorter loopback load of the same shape, then the transport's and
    // the store's view of it.
    let (reads, writes) = args
        .workload
        .load(&served, &refs, args.seed, 0, 0, args.seconds * 0.25);
    serve::verify_writes(served.addr(), served.atoms, &writes.acked)?;
    let stats = crate::client::Client::connect(served.addr())
        .map_err(|e| e.to_string())?
        .request("STATS")
        .map_err(|e| format!("STATS: {e}"))?;
    let field = |key| json_field(&stats.header, key).ok_or(format!("STATS lacks {key}"));
    layers.set(
        "reactor.queue_depth_max",
        field("queue_depth_max")? as f64,
        1,
    );
    layers.set(
        "store.index_bytes_per_atom",
        field("index_bytes")? as f64 / field("atoms")? as f64,
        1,
    );
    let magic_queries = field("magic_queries")?;
    layers.set(
        "demand.cache_hit_ratio",
        field("magic_cache_hits")? as f64 / magic_queries.max(1) as f64,
        magic_queries,
    );
    let program = served.program.clone();
    served.stop()?;
    if reads.mismatches + writes.mismatches > 0 {
        return Err(format!(
            "wrong answers in the loopback load: {:?}",
            reads.first_problem.or(writes.first_problem)
        ));
    }

    // The same state in-process: the served data, materialised afresh.
    let scenario = bound_query_scenario(CHAINS, CHAIN_LEN, args.seed);
    let mut engine = IncrementalEngine::from_database(program.clone(), &scenario.database)
        .map_err(|e| e.to_string())?;
    drop(scenario);
    let snapshot = engine.snapshot();
    let demand = DemandEngine::new(program).with_threads(engine.threads());

    // Reads, replayed three times: to warm the demand cache and the CPU
    // caches, with a timer around every layer call, and with only a timer
    // around the whole replay.
    let replay =
        |layers: Option<&mut Layers>| replay_reads(&reads.sent, &snapshot, &demand, &refs, layers);
    replay(None)?;
    let clock = Instant::now();
    let in_process = replay(Some(&mut layers))?;
    let traced_wall = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    replay(None)?;
    let untraced_wall = clock.elapsed().as_secs_f64();
    layers.set("trace.overhead_ratio", traced_wall / untraced_wall, 1);
    layers.set("trace.loopback_reads", reads.latencies_ms.len() as f64, 1);
    let mut loopback: Vec<f64> = reads
        .sent
        .iter()
        .zip(&reads.latencies_ms)
        .filter(|(request, _)| request.kind != ReadKind::Metrics)
        .map(|(_, ms)| ms * 1e3)
        .collect();
    let mut in_process: Vec<f64> = in_process.into_iter().flatten().collect();
    if loopback.is_empty() || in_process.is_empty() {
        return Err("no reads to compare between loopback and in-process".into());
    }
    layers.set(
        "reactor.residual_us",
        median(&mut loopback) - median(&mut in_process),
        in_process.len() as u64,
    );
    drop(snapshot);

    // Writes: the writer's batches through the WAL (fsync deferred, then
    // forced), the engine and the publication, as the server does them.
    let dir = crate::state_dir(args.workload);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    replay_writes(&mut layers, &mut engine, &dir, writes.acked.len())?;

    // Checkpoints of the served state.
    let atoms = engine.instance().len();
    let checkpoint_dir = dir.join("checkpoint");
    let mut durable = DurableEngine::create(engine, DurabilityConfig::new(&checkpoint_dir))
        .map_err(|e| e.to_string())?;
    for _ in 0..3 {
        let clock = Instant::now();
        durable.snapshot_now().map_err(|e| e.to_string())?;
        layers.add("checkpoint.ms", clock.elapsed().as_secs_f64() * 1e3);
    }
    let bytes = std::fs::metadata(checkpoint_dir.join("snapshot.bin"))
        .map_err(|e| e.to_string())?
        .len();
    layers.set("checkpoint.bytes_per_atom", bytes as f64 / atoms as f64, 1);
    drop(durable);

    replay_programs(&mut layers, &Tasks::generate(args.seed), threads)?;
    layers.set("trace.peak_rss_mb", peak_rss_mb()?, 1);
    layers.set("trace.wall_s", wall.elapsed().as_secs_f64(), 1);

    println!(
        "{:<28} {:>16} {:<7} {:>7}  feeds",
        "per-layer metric", "value", "unit", "calls"
    );
    let mut metrics = Vec::new();
    for (name, unit, feeds) in LAYER_METRICS {
        let value = layers.mean(name);
        let calls = layers.sums.get(name).map_or(0, |&(_, calls)| calls);
        println!("{name:<28} {value:>16.4} {unit:<7} {calls:>7}  {feeds}");
        metrics.push(Metric { name, unit, value });
    }
    let attempted = reads.attempted + writes.attempted;
    Ok(Report {
        correct: true,
        attempted,
        failed: reads.failed + writes.failed,
        metrics,
    })
}

/// Replays the reads in-process. With `layers`, every layer call is timed;
/// without, nothing inside the replay is, which gives the timers' cost.
/// Returns each request's in-process time (parse + layer calls + render;
/// `None` for `METRICS`, which has no public layer call). Every answer is
/// checked against the references.
fn replay_reads(
    sent: &[serve::ReadRequest],
    snapshot: &InstanceSnapshot,
    demand: &DemandEngine,
    refs: &serve::References,
    mut layers: Option<&mut Layers>,
) -> Result<Vec<Option<f64>>, String> {
    fn call<T>(layers: &mut Option<&mut Layers>, name: &str, run: impl FnOnce() -> T) -> T {
        match layers {
            Some(layers) => timed(layers, name, run),
            None => run(),
        }
    }
    let mut totals = Vec::with_capacity(sent.len());
    for request in sent {
        let start = Instant::now();
        let line = request.line();
        let parsed = call(&mut layers, "protocol.parse_us", || parse_request(&line))
            .map_err(|e| format!("`{line}` does not parse: {e}"))?;
        let response = match parsed {
            Request::Query { query, mode, .. } | Request::Profile { query, mode, .. }
                if mode != QueryMode::Full =>
            {
                let (answer, profile) = demand
                    .answer_profiled(snapshot.instance(), &query, &QueryBudget::default())
                    .map_err(|e| format!("`{line}`: {e}"))?;
                if let Some(layers) = layers.as_deref_mut() {
                    let fixpoint = profile.strata.iter().flatten();
                    for (name, value) in [
                        ("demand.rewrite_us", profile.rewrite_micros as f64),
                        ("demand.seed_us", profile.seed_micros as f64),
                        (
                            "demand.fixpoint_us",
                            fixpoint.map(|r| r.wall_micros as f64).sum(),
                        ),
                        ("demand.answer_us", profile.answer_micros as f64),
                        ("demand.scratch_atoms", answer.scratch_atoms as f64),
                        ("demand.demanded_tuples", answer.demanded_tuples as f64),
                        (
                            "demand.useful_ratio",
                            answer.answers.len() as f64 / answer.scratch_atoms.max(1) as f64,
                        ),
                    ] {
                        layers.add(name, value);
                    }
                }
                // A PROFILE reply renders the profile, not the answers.
                (request.kind != ReadKind::Profile).then(|| Response::Answers {
                    epoch: snapshot.epoch(),
                    tuples: answer.answers.into_iter().collect(),
                })
            }
            Request::Query { query, .. } => {
                let answers = call(&mut layers, "cq.eval_us", || {
                    query.evaluate_with_threads(snapshot, 1)
                });
                Some(Response::Answers {
                    epoch: snapshot.epoch(),
                    tuples: answers.into_iter().collect(),
                })
            }
            Request::Explain { query, .. } => {
                let report = call(&mut layers, "explain.us", || {
                    let cache_hit = demand.specialised(&query).ok().map(|(_, hit)| hit);
                    explain_query(
                        demand.program(),
                        snapshot.instance(),
                        &query,
                        true,
                        cache_hit,
                    )
                });
                Some(Response::Framed {
                    label: "explain",
                    info: format!("epoch={} magic={}", snapshot.epoch(), report.magic),
                    lines: report.lines,
                })
            }
            Request::Metrics => {
                totals.push(None);
                continue;
            }
            _ => return Err(format!("`{line}` is not a read")),
        };
        let mut total = micros(start);
        if let Some(response) = response {
            let rendered = call(&mut layers, "protocol.render_us", || response.render());
            total = micros(start);
            if let Some(layers) = layers.as_deref_mut() {
                layers.add("protocol.reply_bytes", rendered.len() as f64);
            }
            let expected = match request.kind {
                ReadKind::Bound | ReadKind::Full => Some(&refs.bound[request.chain]),
                ReadKind::Point => Some(&refs.point[request.chain]),
                _ => None,
            };
            if expected.is_some_and(|expected| serve::payload(&rendered) != expected) {
                return Err(format!("in-process answer of `{line}` differs"));
            }
        }
        totals.push(Some(total));
    }
    Ok(totals)
}

/// Replays `batches` writer batches through the write path's layers.
fn replay_writes(
    layers: &mut Layers,
    engine: &mut IncrementalEngine,
    dir: &std::path::Path,
    batches: usize,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let mut deferred =
        Wal::create(&dir.join("deferred.log"), SyncPolicy::EveryN(u32::MAX)).map_err(io)?;
    let mut always = Wal::create(&dir.join("always.log"), SyncPolicy::Always).map_err(io)?;
    let mut published = engine.snapshot();
    for k in 0..batches {
        let line = batch_line(k);
        let facts = match timed(layers, "protocol.parse_us", || parse_request(&line)) {
            Ok(Request::Ingest { facts, .. }) => facts,
            other => return Err(format!("batch {k} parsed as {other:?}")),
        };
        let before = deferred.bytes();
        timed(layers, "wal.write_us", || deferred.append_batch(&facts)).map_err(io)?;
        timed(layers, "wal.fsync_us", || deferred.sync()).map_err(io)?;
        layers.add(
            "wal.write_amp",
            (deferred.bytes() - before) as f64 / (line.len() + 1) as f64,
        );
        timed(layers, "wal.always_us", || always.append_batch(&facts)).map_err(io)?;

        let clock = Instant::now();
        let outcome = engine.ingest(&facts).map_err(|e| e.to_string())?;
        layers.add("ingest.apply_ms", clock.elapsed().as_secs_f64() * 1e3);
        layers.add("ingest.derived_per_batch", outcome.derived_atoms as f64);
        layers.add("ingest.rounds_per_batch", outcome.rounds as f64);

        let clock = Instant::now();
        let fresh = engine.snapshot();
        layers.add("publish.ms", clock.elapsed().as_secs_f64() * 1e3);
        let clock = Instant::now();
        drop(std::mem::replace(&mut published, fresh));
        layers.add("publish.release_ms", clock.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}

/// Timed passes at `nproc` threads per batch program; `<program>.wall_s`
/// is their median.
const PROGRAM_PASSES: usize = 3;

/// Runs a batch program once at 1 thread and `PROGRAM_PASSES` times at
/// `threads`, timing each run and requiring every result to match the
/// 1-thread one (row layout and counters). Returns the last result.
fn program_passes<T>(
    layers: &mut Layers,
    name: &str,
    threads: usize,
    run: impl Fn(usize) -> T,
    outcome: impl Fn(&T) -> Outcome,
) -> Result<T, String> {
    let clock = Instant::now();
    let one = outcome(&run(1));
    let one_secs = clock.elapsed().as_secs_f64();
    let mut secs = Vec::with_capacity(PROGRAM_PASSES);
    let mut last = None;
    for _ in 0..PROGRAM_PASSES {
        drop(last.take());
        let clock = Instant::now();
        let result = run(threads);
        secs.push(clock.elapsed().as_secs_f64());
        if outcome(&result) != one {
            return Err(format!("{name}: {threads} threads differ from 1 thread"));
        }
        last = Some(result);
    }
    let wall = median(&mut secs);
    layers.set(&format!("{name}.wall_s"), wall, PROGRAM_PASSES as u64);
    layers.set(&format!("{name}.speedup_nproc"), one_secs / wall, 1);
    Ok(last.expect("at least one pass"))
}

/// The batch programs: wall time, speed-up over 1 thread, counters, and the
/// check that 1 and `threads` threads give bit-identical results.
fn replay_programs(layers: &mut Layers, tasks: &Tasks, threads: usize) -> Result<(), String> {
    let result = program_passes(layers, "tc", threads, |t| tasks.tc(t), Outcome::of_tc)?;
    let stats = result.stats;
    layers.set(
        "tc.index_bytes_per_atom",
        result.instance.index_bytes() as f64 / result.instance.len() as f64,
        1,
    );
    layers.set("tc.derived_atoms", stats.derived_atoms as f64, 1);
    layers.set("tc.join_probes", stats.join_probes as f64, 1);
    layers.set("tc.rows_prededuped", stats.rows_prededuped as f64, 1);
    layers.set("tc.iterations", stats.iterations as f64, 1);
    layers.set(
        "tc.useful_ratio",
        stats.derived_atoms as f64 / (stats.derived_atoms as f64 + stats.rows_prededuped as f64),
        1,
    );
    drop(result);

    type Chase = fn(&Tasks, usize) -> vadalog_chase::ChaseResult;
    for (name, run) in [
        ("owl2ql", Tasks::owl2ql as Chase),
        ("dex", Tasks::dex as Chase),
    ] {
        let result = program_passes(layers, name, threads, |t| run(tasks, t), Outcome::of_chase)?;
        if !result.completed {
            return Err(format!("{name}: the chase did not complete"));
        }
        let stats = result.stats;
        layers.set(&format!("{name}.steps"), stats.steps as f64, 1);
        layers.set(
            &format!("{name}.triggers_per_step"),
            stats.triggers_examined as f64 / stats.steps.max(1) as f64,
            1,
        );
        layers.set(&format!("{name}.nulls"), stats.nulls_created as f64, 1);
    }
    Ok(())
}
