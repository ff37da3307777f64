//! The served data, its setup, the read and write loads over loopback, and
//! the answer checks.

use crate::client::{Client, Lost, Reply};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vadalog_benchgen::magic::{bound_query_scenario, BoundQueryScenario};
use vadalog_model::parser::parse_query;
use vadalog_model::{Program, Symbol};
use vadalog_service::{
    DurabilityConfig, DurableEngine, IncrementalEngine, LiveServer, Response, ServerConfig,
    SyncPolicy,
};

/// Disjoint `edge` chains in the served data.
pub const CHAINS: usize = 800;
/// Edges per served chain: 800 × 60 = 48,000 `edge` facts.
pub const CHAIN_LEN: usize = 60;
/// Edges per written `BATCH`: one fresh chain on new constants.
pub const BATCH_EDGES: usize = 10;
/// Atoms one batch adds: its edges plus their `reach` closure.
pub const BATCH_ATOMS: usize = BATCH_EDGES + BATCH_EDGES * (BATCH_EDGES + 1) / 2;
/// The writer's schedule: one batch due every 200 ms (5 batches/s). A
/// batch holds the engine for about 115 ms at 1.5M served atoms on 2 cores,
/// almost all of it publishing the new snapshot; at 10 batches/s the
/// backlog grows without bound.
pub const BATCH_INTERVAL: Duration = Duration::from_millis(200);
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// How readers choose the chain a request names.
#[derive(Debug, Clone, Copy)]
pub enum Keys {
    /// Zipf(s = 1) over the chains: hot chains repeat.
    Zipf,
    /// Uniform over the chains: repeats are rare.
    Uniform,
}

/// The read requests of the mix, with their shares in percent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `QUERY ?(Y) :- reach(c<i>_n0, Y).` (41%)
    Bound,
    /// `QUERY ? :- reach(c<i>_n0, c<i>_n60).` (30%)
    Point,
    /// `QUERY MODE=FULL ?(Y) :- reach(c<i>_n0, Y).` (20%)
    Full,
    /// `EXPLAIN ?(Y) :- reach(c<i>_n0, Y).` (4%)
    Explain,
    /// `PROFILE ?(Y) :- reach(c<i>_n0, Y).` (4%)
    Profile,
    /// `METRICS` (1%). It waits for the engine lock, so beside the writer
    /// a scrape can wait out a whole ingest. At 2% those waits made up about
    /// 1.1% of reads and the read p99 fell on the edge between them and the
    /// queries, jumping between 11 and 22 ms from run to run.
    Metrics,
}

const MIX: [(ReadKind, u32); 6] = [
    (ReadKind::Bound, 41),
    (ReadKind::Point, 30),
    (ReadKind::Full, 20),
    (ReadKind::Explain, 4),
    (ReadKind::Profile, 4),
    (ReadKind::Metrics, 1),
];

#[derive(Debug, Clone, Copy)]
pub struct ReadRequest {
    pub kind: ReadKind,
    pub chain: usize,
}

impl ReadRequest {
    pub fn line(&self) -> String {
        let c = self.chain;
        match self.kind {
            ReadKind::Bound => format!("QUERY ?(Y) :- reach(c{c}_n0, Y)."),
            ReadKind::Point => format!("QUERY ? :- reach(c{c}_n0, c{c}_n{CHAIN_LEN})."),
            ReadKind::Full => format!("QUERY MODE=FULL ?(Y) :- reach(c{c}_n0, Y)."),
            ReadKind::Explain => format!("EXPLAIN ?(Y) :- reach(c{c}_n0, Y)."),
            ReadKind::Profile => format!("PROFILE ?(Y) :- reach(c{c}_n0, Y)."),
            ReadKind::Metrics => "METRICS".to_string(),
        }
    }
}

/// A seeded stream of read requests.
pub struct ReadMix {
    rng: StdRng,
    /// Cumulative Zipf weights over the chains (`None`: uniform).
    zipf_cdf: Option<Vec<f64>>,
}

impl ReadMix {
    pub fn new(keys: Keys, seed: u64) -> ReadMix {
        let zipf_cdf = match keys {
            Keys::Uniform => None,
            Keys::Zipf => {
                let mut total = 0.0;
                let mut cdf: Vec<f64> = (1..=CHAINS)
                    .map(|rank| {
                        total += 1.0 / rank as f64;
                        total
                    })
                    .collect();
                cdf.iter_mut().for_each(|w| *w /= total);
                Some(cdf)
            }
        };
        ReadMix {
            rng: StdRng::seed_from_u64(seed),
            zipf_cdf,
        }
    }

    pub fn next_request(&mut self) -> ReadRequest {
        let mut pick = self.rng.gen_range(0..100u32);
        let kind = MIX
            .iter()
            .find(|(_, share)| {
                let hit = pick < *share;
                pick = pick.saturating_sub(*share);
                hit
            })
            .map(|(kind, _)| *kind)
            .expect("the mix shares sum to 100");
        let chain = match &self.zipf_cdf {
            None => self.rng.gen_range(0..CHAINS),
            Some(cdf) => {
                let u: f64 = self.rng.gen();
                cdf.partition_point(|&w| w <= u).min(CHAINS - 1)
            }
        };
        ReadRequest { kind, chain }
    }
}

/// The seed of stream `index` drawn from `seed`: one per round, and within
/// a round one per reader connection.
pub fn stream_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The `BATCH` line that writes chain `k`: `edge(w<k>_n<j>, w<k>_n<j+1>)`
/// for `j` in `0..10`, all on constants the served data does not use.
pub fn batch_line(k: usize) -> String {
    let mut line = String::from("BATCH");
    for j in 0..BATCH_EDGES {
        line.push_str(&format!(" edge(w{k}_n{j}, w{k}_n{}).", j + 1));
    }
    line
}

/// The rendered payload of an answer set: what follows the header of the
/// service's reply, byte for byte.
pub fn answer_body(tuples: BTreeSet<Vec<Symbol>>) -> String {
    let rendered = Response::Answers {
        epoch: 0,
        tuples: tuples.into_iter().collect(),
    }
    .render();
    payload(&rendered).to_string()
}

/// A rendered framed reply without its header line and its `END` line.
pub fn payload(rendered: &str) -> &str {
    let start = rendered.find('\n').map_or(rendered.len(), |at| at + 1);
    let body = &rendered[start..];
    body.strip_suffix("END\n").unwrap_or(body)
}

/// Expected reply payloads, computed in-process from the materialisation
/// before the server starts.
pub struct References {
    /// Per chain: the payload of `?(Y) :- reach(c<i>_n0, Y).`
    pub bound: Vec<String>,
    /// Per chain: the payload of `? :- reach(c<i>_n0, c<i>_n60).`
    pub point: Vec<String>,
}

impl References {
    pub fn compute(engine: &IncrementalEngine) -> References {
        let eval = |query: String| {
            let query = parse_query(&query).expect("reference query parses");
            answer_body(engine.answers(&query))
        };
        References {
            bound: (0..CHAINS)
                .map(|c| eval(format!("?(Y) :- reach(c{c}_n0, Y).")))
                .collect(),
            point: (0..CHAINS)
                .map(|c| eval(format!("? :- reach(c{c}_n0, c{c}_n{CHAIN_LEN}).")))
                .collect(),
        }
    }

    /// Checks one read reply against the references. `Ok(false)` is an
    /// `ERR` reply (a failed request, not a wrong answer).
    pub fn check(&self, request: &ReadRequest, reply: &Reply) -> Result<bool, String> {
        if !reply.is_ok() {
            return if reply.header.starts_with("ERR") {
                Ok(false)
            } else {
                Err(format!("unexpected header {:?}", reply.header))
            };
        }
        let chain = request.chain;
        let fail = |what: &str| {
            Err(format!(
                "{what} for `{}`: header {:?}",
                request.line(),
                reply.header
            ))
        };
        let expect_answers = |body: &str| {
            if reply.field("answers") != Some(&body.lines().count().to_string()) {
                fail("wrong answer count")
            } else if reply.body != body {
                fail("answers differ from the in-process reference")
            } else {
                Ok(true)
            }
        };
        match request.kind {
            ReadKind::Bound | ReadKind::Full => expect_answers(&self.bound[chain]),
            ReadKind::Point => expect_answers(&self.point[chain]),
            ReadKind::Explain if reply.field("magic") != Some("true") => {
                fail("EXPLAIN did not choose the magic path")
            }
            ReadKind::Profile
                if reply.field("path") != Some("magic")
                    || reply.field("answers")
                        != Some(&self.bound[chain].lines().count().to_string()) =>
            {
                fail("PROFILE path or answer count wrong")
            }
            ReadKind::Metrics if !reply.body.lines().any(|l| l.starts_with("vadalog_atoms ")) => {
                fail("METRICS lacks vadalog_atoms")
            }
            ReadKind::Explain | ReadKind::Profile | ReadKind::Metrics => Ok(true),
        }
    }
}

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub materialise: f64,
    pub checkpoint: f64,
    pub start: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate + self.materialise + self.checkpoint + self.start
    }
}

/// A running server over the materialised scenario.
pub struct Served {
    pub server: LiveServer,
    pub program: Program,
    pub dir: PathBuf,
    /// Atoms served right after set-up.
    pub atoms: usize,
}

impl Served {
    /// Sets up the served state: generate the scenario, materialise it,
    /// write the initial durable snapshot into `dir`, start the server.
    /// `inspect` sees the materialised engine between the timed steps.
    pub fn setup(
        seed: u64,
        dir: &Path,
        inspect: impl FnOnce(&IncrementalEngine),
    ) -> Result<(Served, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let clock = Instant::now();
        let BoundQueryScenario {
            program, database, ..
        } = bound_query_scenario(CHAINS, CHAIN_LEN, seed);
        times.generate = clock.elapsed().as_secs_f64();

        let clock = Instant::now();
        let engine = IncrementalEngine::from_database(program.clone(), &database)
            .map_err(|e| format!("materialise: {e}"))?;
        times.materialise = clock.elapsed().as_secs_f64();
        drop(database);
        let atoms = engine.instance().len();
        inspect(&engine);

        let clock = Instant::now();
        let config = DurabilityConfig::new(dir).sync(SyncPolicy::Always);
        let durable =
            DurableEngine::create(engine, config).map_err(|e| format!("checkpoint: {e}"))?;
        times.checkpoint = clock.elapsed().as_secs_f64();

        let clock = Instant::now();
        let server = LiveServer::start_with(durable, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("start: {e}"))?;
        times.start = clock.elapsed().as_secs_f64();
        Ok((
            Served {
                server,
                program,
                dir: dir.to_path_buf(),
                atoms,
            },
            times,
        ))
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the server, waits for it, and removes its durable state.
    pub fn stop(self) -> Result<(), String> {
        self.server.request_shutdown();
        self.server.join();
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("remove {:?}: {e}", self.dir))
    }
}

/// What one connection's load produced.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// Latency of every completed request, in milliseconds.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Requests answered `ERR`, broken mid-frame, or never answered.
    pub failed: u64,
    /// Replies whose content was wrong.
    pub mismatches: u64,
    pub first_problem: Option<String>,
    /// When the last request completed, measured from the load's start
    /// (the longest connection's, after a merge).
    pub busy: Duration,
    /// The requests behind `latencies_ms`, in the same order (readers
    /// only).
    pub sent: Vec<ReadRequest>,
    /// Chains whose batch was acknowledged (writer only).
    pub acked: Vec<usize>,
    /// Largest delay between a batch's due time and its send (writer only).
    pub max_late: Duration,
    /// Batches still unsent when the window closed (writer only).
    pub behind_at_end: usize,
}

impl LoadOutcome {
    fn note(&mut self, problem: String) {
        self.first_problem.get_or_insert(problem);
    }

    /// Counts one request that produced no usable reply and reconnects,
    /// since the connection's framing can no longer be trusted.
    fn lost(&mut self, client: &mut Client, addr: SocketAddr, lost: Lost) {
        self.failed += 1;
        self.note(format!("{lost}"));
        if let Ok(fresh) = Client::connect(addr) {
            *client = fresh;
        }
    }

    pub fn merge(&mut self, other: LoadOutcome) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        if let Some(problem) = other.first_problem {
            self.note(problem);
        }
        self.busy = self.busy.max(other.busy);
        self.sent.extend(other.sent);
        self.acked.extend(other.acked);
        self.max_late = self.max_late.max(other.max_late);
        self.behind_at_end += other.behind_at_end;
    }
}

/// One closed-loop reader connection: sends its next request as soon as the
/// previous reply is complete, until `duration` has passed.
pub fn reader(
    addr: SocketAddr,
    refs: &References,
    mut mix: ReadMix,
    duration: Duration,
) -> LoadOutcome {
    let mut out = LoadOutcome::default();
    let Ok(mut client) = Client::connect(addr) else {
        out.attempted = 1;
        out.failed = 1;
        out.note("reader could not connect".into());
        return out;
    };
    let start = Instant::now();
    while start.elapsed() < duration {
        let request = mix.next_request();
        let line = request.line();
        out.attempted += 1;
        let sent = Instant::now();
        match client.request(&line) {
            Ok(reply) => {
                let latency = sent.elapsed();
                match refs.check(&request, &reply) {
                    Ok(true) => {
                        out.latencies_ms.push(latency.as_secs_f64() * 1e3);
                        out.sent.push(request);
                    }
                    Ok(false) => {
                        out.failed += 1;
                        out.note(format!("`{line}` answered {}", reply.header));
                    }
                    Err(problem) => {
                        out.mismatches += 1;
                        out.note(problem);
                    }
                }
            }
            Err(lost) => out.lost(&mut client, addr, lost),
        }
    }
    out.busy = start.elapsed();
    out
}

/// The open-loop writer: its `k`-th batch (chain `first + k`) is due at
/// `k × BATCH_INTERVAL` after the start, whether or not earlier batches
/// are done, and its latency runs from when it was due. A stall is thus
/// charged to every batch queued behind it.
pub fn writer(addr: SocketAddr, first: usize, duration: Duration) -> LoadOutcome {
    let mut out = LoadOutcome::default();
    let Ok(mut client) = Client::connect(addr) else {
        out.attempted = 1;
        out.failed = 1;
        out.note("writer could not connect".into());
        return out;
    };
    let batches = (duration.as_secs_f64() / BATCH_INTERVAL.as_secs_f64()).round() as usize;
    let start = Instant::now();
    let end = start + duration;
    for k in 0..batches {
        let due = start + BATCH_INTERVAL * k as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        } else {
            out.max_late = out.max_late.max(now - due);
            if now >= end {
                out.behind_at_end += 1;
            }
        }
        let chain = first + k;
        out.attempted += 1;
        match client.request(&batch_line(chain)) {
            Ok(reply) if reply.is_ok() => {
                out.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let expected = (BATCH_EDGES, BATCH_ATOMS - BATCH_EDGES);
                let got = (
                    reply.field("inserted").and_then(|v| v.parse().ok()),
                    reply.field("derived").and_then(|v| v.parse().ok()),
                );
                if got == (Some(expected.0), Some(expected.1)) {
                    out.acked.push(chain);
                } else {
                    out.mismatches += 1;
                    out.note(format!("batch {chain} acknowledged {:?}", reply.header));
                }
            }
            Ok(reply) => {
                out.failed += 1;
                out.note(format!("batch {chain} answered {:?}", reply.header));
            }
            Err(lost) => out.lost(&mut client, addr, lost),
        }
    }
    out.busy = start.elapsed();
    out
}

/// Runs `readers` reader connections (request streams drawn from `seed`)
/// and, given the first chain to write, the writer, all at once for
/// `duration`.
pub fn load(
    addr: SocketAddr,
    refs: &References,
    keys: Keys,
    seed: u64,
    readers: usize,
    first_chain: Option<usize>,
    duration: Duration,
) -> (LoadOutcome, LoadOutcome) {
    std::thread::scope(|scope| {
        let reading: Vec<_> = (0..readers)
            .map(|conn| {
                let mix = ReadMix::new(keys, stream_seed(seed, conn));
                scope.spawn(move || reader(addr, refs, mix, duration))
            })
            .collect();
        let writing = first_chain.map(|first| scope.spawn(move || writer(addr, first, duration)));
        let mut reads = LoadOutcome::default();
        for handle in reading {
            reads.merge(handle.join().expect("reader thread panicked"));
        }
        let writes = writing
            .map(|handle| handle.join().expect("writer thread panicked"))
            .unwrap_or_default();
        (reads, writes)
    })
}

/// After the load: the served atom count must be the set-up count plus
/// every acknowledged batch's atoms, and each written chain's closure must
/// come back exactly.
pub fn verify_writes(addr: SocketAddr, served_atoms: usize, acked: &[usize]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("verify connect: {e}"))?;
    let stats = client.request("STATS").map_err(|e| format!("STATS: {e}"))?;
    let atoms = json_field(&stats.header, "atoms");
    let expected = served_atoms + BATCH_ATOMS * acked.len();
    if atoms != Some(expected as u64) {
        return Err(format!(
            "STATS atoms {atoms:?}, expected {expected} after {} batches",
            acked.len()
        ));
    }
    for &k in acked {
        let line = format!("QUERY ?(Y) :- reach(w{k}_n0, Y).");
        let reply = client.request(&line).map_err(|e| format!("{line}: {e}"))?;
        let closure: BTreeSet<Vec<Symbol>> = (1..=BATCH_EDGES)
            .map(|j| vec![Symbol::new(&format!("w{k}_n{j}"))])
            .collect();
        if !reply.is_ok() || reply.body != answer_body(closure) {
            return Err(format!(
                "written chain {k}: closure differs ({})",
                reply.header
            ));
        }
    }
    Ok(())
}

/// The unsigned integer after `"key":` in a STATS JSON line.
pub fn json_field(json: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let at = json.find(&pattern)? + pattern.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
