//! Property-based tests of the incremental engine: ingesting a random fact
//! stream in random batch splits must agree with a one-shot evaluation of
//! the union, and every split must be bit-identical across thread counts.
//!
//! "Agree with one-shot" means: identical answer sets for every predicate,
//! identical per-relation row *sets* (row-id order additionally encodes
//! arrival order, which one-shot evaluation does not have), and the stats
//! invariants — the incremental path derives exactly the same number of
//! atoms and materialises the same instance size. For a *fixed* split the
//! run is fully bit-identical across 1/2/4/8 threads: row layouts, join
//! counters, skip counters.
//!
//! The build environment is offline, so instead of `proptest` these use the
//! in-tree seeded PRNG over a fixed number of deterministic random cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vadalog::datalog::{explain_query, DatalogEngine, DemandEngine, IncrementalEngine};
use vadalog::model::parser::{parse_query, parse_rules};
use vadalog::model::{Atom, ConjunctiveQuery, Database, Instance, Program, QueryBudget};

/// A randomly generated *plain Datalog* program over binary predicates
/// `p0..p3` seeded from the `edge` EDB relation (the same generator family
/// as `prop_cross_engine`): chain, copy, intersection and edge-extension
/// rules, so recursion — including mutual recursion — and multi-stratum
/// layering arise freely.
fn arb_program(rng: &mut StdRng) -> Program {
    let mut src = String::from("p0(X, Y) :- edge(X, Y).\n");
    let n_rules = rng.gen_range(2..7usize);
    for _ in 0..n_rules {
        let head = rng.gen_range(0..4u32);
        match rng.gen_range(0..4u32) {
            0 => {
                let a = rng.gen_range(0..4u32);
                src.push_str(&format!("p{head}(X, Y) :- p{a}(X, Y).\n"));
            }
            1 => {
                let a = rng.gen_range(0..4u32);
                let b = rng.gen_range(0..4u32);
                src.push_str(&format!("p{head}(X, Z) :- p{a}(X, Y), p{b}(Y, Z).\n"));
            }
            2 => {
                let a = rng.gen_range(0..4u32);
                let b = rng.gen_range(0..4u32);
                src.push_str(&format!("p{head}(X, Y) :- p{a}(X, Y), p{b}(X, Y).\n"));
            }
            _ => {
                let a = rng.gen_range(0..4u32);
                src.push_str(&format!("p{head}(X, Z) :- edge(X, Y), p{a}(Y, Z).\n"));
            }
        }
    }
    parse_rules(&src).expect("generated program parses")
}

/// A random fact stream over `edge` plus occasional *direct IDB* facts
/// (`p0..p3`) — the service accepts both, and directly ingested IDB rows
/// must feed the fixpoint exactly like EDB-seeded IDB rows do in batch
/// evaluation. Duplicates occur on purpose.
fn arb_stream(rng: &mut StdRng) -> Vec<Atom> {
    let n_facts = rng.gen_range(4..20usize);
    let mut stream = Vec::with_capacity(n_facts);
    for _ in 0..n_facts {
        let a = rng.gen_range(0..6u32);
        let b = rng.gen_range(0..6u32);
        if a == b {
            continue;
        }
        let predicate = if rng.gen_range(0..5u32) == 0 {
            format!("p{}", rng.gen_range(0..4u32))
        } else {
            "edge".to_string()
        };
        stream.push(Atom::fact(
            &predicate,
            &[format!("n{a}").as_str(), format!("n{b}").as_str()],
        ));
    }
    stream
}

/// Splits a stream into non-empty batches at random boundaries.
fn arb_split(rng: &mut StdRng, stream: &[Atom]) -> Vec<Vec<Atom>> {
    let mut batches = Vec::new();
    let mut start = 0;
    while start < stream.len() {
        let len = rng.gen_range(1..stream.len() - start + 1);
        batches.push(stream[start..start + len].to_vec());
        start += len;
    }
    batches
}

fn union_database(stream: &[Atom]) -> Database {
    let mut db = Database::new();
    for fact in stream {
        db.insert(fact.clone()).expect("stream facts are ground");
    }
    db
}

/// Per-relation row sets in canonical (sorted) form: equal sets mean the
/// same materialisation regardless of arrival order.
fn sorted_rows(instance: &Instance) -> Vec<(String, Vec<String>)> {
    instance.sorted_row_layout()
}

/// Ingests every batch of a split, returning the engine and the total
/// number of genuinely new stream rows.
fn ingest_split(
    program: &Program,
    split: &[Vec<Atom>],
    threads: usize,
) -> (IncrementalEngine, usize) {
    let mut engine = IncrementalEngine::new(program.clone())
        .unwrap()
        .with_threads(threads);
    let mut inserted = 0;
    for batch in split {
        inserted += engine.ingest(batch).unwrap().facts_inserted;
    }
    (engine, inserted)
}

/// Random batch splits of a random stream are equivalent to one-shot
/// evaluation of the union: same answers, same row sets, same derivation
/// and size stats.
#[test]
fn random_batch_splits_match_one_shot_evaluation() {
    let mut rng = StdRng::seed_from_u64(41);
    for case in 0..10 {
        let program = arb_program(&mut rng);
        let stream = arb_stream(&mut rng);
        if stream.is_empty() {
            continue;
        }
        let union = union_database(&stream);
        let oneshot = DatalogEngine::new(program.clone())
            .unwrap()
            .evaluate(&union);

        let split_a = arb_split(&mut rng, &stream);
        let split_b = arb_split(&mut rng, &stream);
        for (label, split) in [("a", &split_a), ("b", &split_b)] {
            let (live, inserted) = ingest_split(&program, split, 1);
            for p in 0..4 {
                let q = parse_query(&format!("?(X, Y) :- p{p}(X, Y).")).unwrap();
                assert_eq!(
                    live.answers(&q),
                    oneshot.answers(&q),
                    "case {case}, split {label}: answers diverged on p{p}"
                );
            }
            assert_eq!(
                sorted_rows(live.instance()),
                sorted_rows(&oneshot.instance),
                "case {case}, split {label}: row sets diverged"
            );
            // Stats invariants: every materialised row is either a stream
            // insert or a derivation (a stream fact already derived in an
            // earlier batch is a *derivation* here but a *database fact* in
            // the one-shot accounting, so only the sums are comparable) and
            // both paths end at the same instance.
            assert_eq!(live.instance().len(), oneshot.instance.len());
            assert_eq!(
                live.stats().derived_atoms + inserted,
                live.instance().len(),
                "case {case}, split {label}: rows must be inserts or derivations"
            );
            assert_eq!(
                oneshot.stats.derived_atoms + union.len(),
                oneshot.instance.len()
            );
            assert_eq!(live.stats().peak_atoms, live.instance().len());
            assert!(live.epoch() <= split.len() as u64);
        }
    }
}

/// A fixed split is fully bit-identical across thread counts: the same row
/// layouts (row-id order included) and the same counters, skip counters
/// included.
#[test]
fn splits_are_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(42);
    for case in 0..8 {
        let program = arb_program(&mut rng);
        let stream = arb_stream(&mut rng);
        if stream.is_empty() {
            continue;
        }
        let split = arb_split(&mut rng, &stream);
        let (sequential, _) = ingest_split(&program, &split, 1);
        for threads in [2usize, 4, 8] {
            let (sharded, _) = ingest_split(&program, &split, threads);
            assert_eq!(
                sharded.instance().row_layout(),
                sequential.instance().row_layout(),
                "case {case}, {threads} threads: row-id ordering diverged"
            );
            let (a, b) = (sharded.stats(), sequential.stats());
            assert_eq!(
                a.derived_atoms, b.derived_atoms,
                "case {case}, {threads} threads"
            );
            assert_eq!(
                a.joins_evaluated, b.joins_evaluated,
                "case {case}, {threads} threads"
            );
            assert_eq!(
                a.join_probes, b.join_probes,
                "case {case}, {threads} threads"
            );
            assert_eq!(
                a.rows_prededuped, b.rows_prededuped,
                "case {case}, {threads} threads"
            );
            assert_eq!(a.iterations, b.iterations, "case {case}, {threads} threads");
            assert_eq!(
                a.strata_skipped, b.strata_skipped,
                "case {case}, {threads} threads"
            );
            assert_eq!(
                a.rounds_incremental, b.rounds_incremental,
                "case {case}, {threads} threads"
            );
            assert_eq!(
                a.composite_probes, b.composite_probes,
                "case {case}, {threads} threads"
            );
            assert_eq!(
                a.probe_misses_filtered, b.probe_misses_filtered,
                "case {case}, {threads} threads"
            );
            assert_eq!(sharded.epoch(), sequential.epoch());
        }
    }
}

/// Single-fact batches (the `FACT` protocol path taken to its extreme) also
/// converge to the one-shot fixpoint — the finest split is the worst case
/// for watermark bookkeeping.
#[test]
fn fact_at_a_time_ingestion_converges() {
    let mut rng = StdRng::seed_from_u64(43);
    for case in 0..6 {
        let program = arb_program(&mut rng);
        let stream = arb_stream(&mut rng);
        if stream.is_empty() {
            continue;
        }
        let union = union_database(&stream);
        let oneshot = DatalogEngine::new(program.clone())
            .unwrap()
            .evaluate(&union);
        let mut live = IncrementalEngine::new(program.clone()).unwrap();
        let mut inserted = 0;
        for fact in &stream {
            inserted += live
                .ingest(std::slice::from_ref(fact))
                .unwrap()
                .facts_inserted;
        }
        assert_eq!(
            sorted_rows(live.instance()),
            sorted_rows(&oneshot.instance),
            "case {case}: fact-at-a-time row sets diverged"
        );
        assert_eq!(
            live.stats().derived_atoms + inserted,
            live.instance().len(),
            "case {case}: rows must be inserts or derivations"
        );
    }
}

/// `count` disjoint chains `c<i>_n0 → … → c<i>_n<len>`, numbered from
/// `first`.
fn chains(first: usize, count: usize, len: usize) -> Vec<Atom> {
    let mut facts = Vec::with_capacity(count * len);
    for c in first..first + count {
        for j in 0..len {
            let (a, b) = (format!("c{c}_n{j}"), format!("c{c}_n{}", j + 1));
            facts.push(Atom::fact("edge", &[a.as_str(), b.as_str()]));
        }
    }
    facts
}

/// The read traffic a served snapshot sees between two batches: magic
/// bound and point queries, the same queries on the full path, full-path
/// misses on absent constants, a full-path probe of `reach`'s column 1
/// (which builds that index on the shared relation), and EXPLAIN. Answers
/// are checked against the full path so the reads are not dead code.
fn read_everything(snapshot: &Instance, demand: &DemandEngine, threads: usize) {
    let budget = QueryBudget::unlimited();
    let query = |src: &str| -> ConjunctiveQuery { parse_query(src).unwrap() };
    for src in [
        "?(Y) :- reach(c0_n0, Y).",
        "? :- reach(c1_n0, c1_n20).",
        "? :- reach(c2_n3, c3_n9).",
        "?(X) :- reach(X, c4_n5).",
    ] {
        let query = query(src);
        let full = query.evaluate_with_threads(snapshot, threads);
        if let Ok(magic) = demand.answer(snapshot, &query, &budget) {
            assert_eq!(magic.answers, full, "{query}");
        }
        let report = explain_query(demand.program(), snapshot, &query, true, None);
        assert!(!report.lines.is_empty());
    }
    for k in 0..100 {
        let absent = query(&format!("?(X) :- reach(X, absent{k})."));
        assert!(absent.evaluate_with_threads(snapshot, threads).is_empty());
    }
}

/// Read traffic never changes the live engine. Readers of a snapshot probe
/// (and build indexes on, and count filter misses in) relations the live
/// engine shares with the snapshot until its next write to them; none of
/// that may leak into the engine. The same fact stream ingested with and
/// without reads on every snapshot between batches must leave identical
/// row layouts and identical `DatalogStats` — every counter, the
/// fingerprint-filter `probe_misses_filtered` included — at 1 and 2
/// threads. Every other snapshot is kept alive across the next ingest (its
/// relations are copied on the first write) and the rest are dropped
/// first (the engine writes them in place).
///
/// The stream is built so that a leak would show: the readers build
/// `reach`'s column-1 index while it has too few distinct keys for a
/// fingerprint filter, and the engine first probes that column only in the
/// last batches, after `reach` has grown past the filter size gate. An
/// engine that inherited the readers' index would extend it without a
/// filter, and its `probe_misses_filtered` would differ.
#[test]
fn read_traffic_never_changes_the_live_engine() {
    let program = parse_rules(
        "reach(X, Y) :- edge(X, Y).\n\
         reach(X, Z) :- edge(X, Y), reach(Y, Z).\n\
         back(X, Y) :- mark(Y), reach(X, Y).",
    )
    .unwrap();
    let (base, per_batch, len) = (40usize, 2usize, 20usize);
    let mut batches = vec![chains(0, base, len)];
    for b in 0..8 {
        let mut batch = chains(base + b * per_batch, per_batch, len);
        if b >= 6 {
            for k in 0..300 {
                let target = match k % 2 {
                    0 => format!("c{}_n{}", k % base, 1 + k % len),
                    _ => format!("unmarked{b}_{k}"),
                };
                batch.push(Atom::fact("mark", &[target.as_str()]));
            }
        }
        batches.push(batch);
    }

    let run = |threads: usize, reads: bool| {
        let mut engine = IncrementalEngine::new(program.clone())
            .unwrap()
            .with_threads(threads);
        let demand = DemandEngine::new(program.clone()).with_threads(threads);
        let mut held = None;
        for (k, batch) in batches.iter().enumerate() {
            engine.ingest(batch).unwrap();
            let snapshot = engine.snapshot();
            if reads {
                read_everything(&snapshot, &demand, threads);
            }
            held = (k % 2 == 0).then_some(snapshot);
        }
        drop(held);
        engine
    };
    let reference = run(1, false);
    assert!(
        reference.stats().probe_misses_filtered > 0,
        "the workload must exercise the fingerprint filters"
    );
    for threads in [1usize, 2] {
        for reads in [false, true] {
            let engine = run(threads, reads);
            assert_eq!(
                engine.instance().row_layout(),
                reference.instance().row_layout(),
                "threads={threads} reads={reads}: row layout diverged"
            );
            assert_eq!(
                engine.stats(),
                reference.stats(),
                "threads={threads} reads={reads}: engine counters diverged"
            );
        }
    }
}
