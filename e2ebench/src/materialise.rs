//! The paper's batch reasoning tasks, evaluated in-process: linear
//! transitive closure (plain Datalog) and the restricted chase of two
//! warded, piece-wise linear programs with existentials.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use vadalog_benchgen::data_exchange::data_exchange_scenario;
use vadalog_benchgen::graphs::random_graph;
use vadalog_benchgen::magic::REACH_PROGRAM;
use vadalog_benchgen::owl::{owl_database, owl_program};
use vadalog_chase::{ChaseConfig, ChaseEngine, ChaseResult, TerminationPolicy};
use vadalog_datalog::{DatalogEngine, DatalogResult};
use vadalog_model::parser::parse_rules;
use vadalog_model::{Atom, Database, Instance, Program, Term};

/// The generator seed that fixes the OWL 2 QL database's shape: its class
/// hierarchy, restriction classes and typing. The chase's cost follows the
/// hierarchy's depth, which differs by up to 2.6× between generator seeds
/// (0.41–1.08 s over seeds 1–10 on 2 cores); seed 4 sits at the median.
/// `--seed` relabels this shape instead, as `bound_query_scenario` shuffles
/// fixed chains.
const OWL2QL_SHAPE_SEED: u64 = 4;

/// The three programs and their seeded inputs.
pub struct Tasks {
    pub tc: (Program, Database),
    pub owl2ql: (Program, Database),
    pub dex: (Program, Database),
}

impl Tasks {
    pub fn generate(seed: u64) -> Tasks {
        let dex = data_exchange_scenario(3, 1200, 120, seed);
        Tasks {
            tc: (
                parse_rules(REACH_PROGRAM).expect("reach program parses"),
                random_graph(1500, 6000, seed),
            ),
            owl2ql: (
                owl_program(),
                relabelled(&owl_database(400, 6, 8000, OWL2QL_SHAPE_SEED), seed),
            ),
            dex: (dex.program, dex.database),
        }
    }

    pub fn tc(&self, threads: usize) -> DatalogResult {
        DatalogEngine::new(self.tc.0.clone())
            .expect("reach program is Datalog")
            .with_threads(threads)
            .evaluate(&self.tc.1)
    }

    pub fn owl2ql(&self, threads: usize) -> ChaseResult {
        chase(&self.owl2ql, threads)
    }

    pub fn dex(&self, threads: usize) -> ChaseResult {
        chase(&self.dex, threads)
    }
}

/// An isomorphic copy of `database`: constants permuted among themselves
/// and facts inserted in a shuffled order, both drawn from `seed`.
fn relabelled(database: &Database, seed: u64) -> Database {
    fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..i + 1));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut facts: Vec<Atom> = database.iter().collect();
    let constant = |term: &Term| match term {
        Term::Const(symbol) => symbol.as_str(),
        other => panic!("generated facts are ground, found {other:?}"),
    };
    let names: Vec<&str> = facts
        .iter()
        .flat_map(|fact| fact.terms.iter().map(constant))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut images = names.clone();
    shuffle(&mut images, &mut rng);
    let rename: HashMap<&str, &str> = names.into_iter().zip(images).collect();
    shuffle(&mut facts, &mut rng);
    let mut relabelled = Database::new();
    for fact in &facts {
        let args: Vec<&str> = fact.terms.iter().map(|t| rename[constant(t)]).collect();
        relabelled
            .insert(Atom::fact(fact.predicate.name(), &args))
            .expect("relabelled facts are ground");
    }
    relabelled
}

fn chase((program, database): &(Program, Database), threads: usize) -> ChaseResult {
    let config = ChaseConfig {
        record_provenance: false,
        ..ChaseConfig::restricted(TerminationPolicy::Unbounded)
    }
    .with_threads(threads);
    ChaseEngine::new(program.clone(), config).run(database)
}

/// What a result must reproduce exactly: a fingerprint of every relation's
/// rows in row-id order (the row layout) and the engine's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub layout: u64,
    pub atoms: usize,
    pub stats: String,
}

impl Outcome {
    fn new(instance: &Instance, stats: String) -> Outcome {
        let mut relations: Vec<_> = instance.relations().collect();
        relations.sort_by_key(|rel| rel.predicate().name().to_string());
        let mut hasher = DefaultHasher::new();
        for rel in relations {
            rel.predicate().name().hash(&mut hasher);
            rel.row_count().hash(&mut hasher);
            rel.rows().for_each(|row| row.hash(&mut hasher));
        }
        Outcome {
            layout: hasher.finish(),
            atoms: instance.len(),
            stats,
        }
    }

    pub fn of_tc(result: &DatalogResult) -> Outcome {
        Outcome::new(&result.instance, format!("{:?}", result.stats))
    }

    /// Chase outcomes also record `completed`; every check requires it.
    pub fn of_chase(result: &ChaseResult) -> Outcome {
        Outcome::new(
            &result.instance,
            format!("{:?} completed={}", result.stats, result.completed),
        )
    }
}
