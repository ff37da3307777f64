//! End-to-end benchmark of the live Vadalog service and the paper's batch
//! reasoning programs. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_read --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod client;
mod materialise;
mod serve;
mod stats;
mod trace;

use serve::{Keys, LoadOutcome, References, Served, SETUP_REPEATS};
use stats::{median, quantile, result_line, Metric, Quantile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The served workloads. Both run reads and writes and differ in how the
/// two meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two closed-loop readers on Zipf-hot chains with no writes, then the
    /// open-loop writer alone: each path measured without interference.
    ServeRead,
    /// One closed-loop reader on uniform chains beside the open-loop
    /// writer: the interference between the two paths.
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_read" => Some(Workload::ServeRead),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    pub fn keys(self) -> Keys {
        match self {
            Workload::ServeRead => Keys::Zipf,
            Workload::ServeMixed => Keys::Uniform,
        }
    }

    /// Runs one round of the workload's reads and writes, `seconds` long:
    /// on `serve_read` the readers alone for two sevenths of it, then the
    /// writer alone for five sevenths; on `serve_mixed` both at once.
    /// Round `round` draws its own request streams, and its batches write
    /// chains from `first_chain` on.
    pub fn load(
        self,
        served: &Served,
        refs: &References,
        seed: u64,
        round: usize,
        first_chain: usize,
        seconds: f64,
    ) -> (LoadOutcome, LoadOutcome) {
        let part = |share: f64| Duration::from_secs_f64(seconds * share);
        let (addr, keys, seed) = (served.addr(), self.keys(), serve::stream_seed(seed, round));
        match self {
            Workload::ServeRead => {
                let (reads, _) = serve::load(addr, refs, keys, seed, 2, None, part(2.0 / 7.0));
                let (_, writes) = serve::load(
                    addr,
                    refs,
                    keys,
                    seed,
                    0,
                    Some(first_chain),
                    part(5.0 / 7.0),
                );
                (reads, writes)
            }
            Workload::ServeMixed => {
                serve::load(addr, refs, keys, seed, 1, Some(first_chain), part(1.0))
            }
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(40);
        if seconds == 0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds as f64,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fresh directory for this run's durable state, inside the benchmark's
/// own directory.
pub fn state_dir(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".state")
        .join(format!("{workload:?}-{}", std::process::id()))
}

/// Cores, build profile and commit of this run. The commit is read only
/// from the checkout's own `.git`: git would otherwise search the parent
/// directories.
fn host() -> String {
    let git_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let commit = git_dir
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .arg("--git-dir")
                .arg(&git_dir)
                .args(["rev-parse", "--short", "HEAD"])
                .output()
        })
        .and_then(Result::ok)
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host: cores={} profile={profile} commit={commit}",
        threads()
    )
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Sets the service up `SETUP_REPEATS` times and keeps the last server.
/// Returns it with the in-process references and each set-up's step times.
pub fn setup(args: &Args) -> Result<(Served, References, Vec<serve::SetupTimes>), String> {
    let dir = state_dir(args.workload);
    let mut times = Vec::new();
    let mut last = None;
    for repeat in 0..SETUP_REPEATS {
        if let Some((served, _)) = last.take() {
            Served::stop(served)?;
        }
        let mut refs = None;
        let (served, step) = Served::setup(args.seed, &dir, |engine| {
            if repeat + 1 == SETUP_REPEATS {
                refs = Some(References::compute(engine));
            }
        })?;
        times.push(step);
        last = Some((served, refs));
    }
    let (served, refs) = last.expect("at least one set-up");
    Ok((served, refs.expect("references of the last set-up"), times))
}

/// Rounds per run: one per 10 s, at least three. On `serve_read` the reads
/// and the writes alternate round by round, so both sample the whole run:
/// on a shared host the steal time comes in bursts of tens of seconds.
fn rounds(seconds: f64) -> usize {
    ((seconds / 10.0) as usize).max(3)
}

/// A quantile that must have at least ten samples beyond it.
fn tail(samples: &mut [f64], q: f64, what: &str) -> Result<Quantile, String> {
    if samples.is_empty() {
        return Err(format!("{what}: no samples"));
    }
    let quantile = quantile(samples, q);
    if quantile.beyond < 10 {
        return Err(format!(
            "{what}: only {} of {} samples beyond it; lengthen the run",
            quantile.beyond, quantile.count
        ));
    }
    Ok(quantile)
}

fn run(args: &Args) -> Result<Report, String> {
    let (served, refs, setups) = setup(args)?;
    let mut setup_secs: Vec<f64> = setups.iter().map(|t| t.total()).collect();
    println!("setup_s samples: {setup_secs:.4?}");

    let rounds = rounds(args.seconds);
    let round_secs = args.seconds / rounds as f64;
    let (mut reads, mut writes) = (LoadOutcome::default(), LoadOutcome::default());
    let mut read_secs = 0.0;
    for round in 0..rounds {
        let first_chain = writes.attempted as usize;
        let (r, w) = args
            .workload
            .load(&served, &refs, args.seed, round, first_chain, round_secs);
        read_secs += r.busy.as_secs_f64();
        reads.merge(r);
        writes.merge(w);
    }
    let verified = serve::verify_writes(served.addr(), served.atoms, &writes.acked);
    served.stop()?;

    let read_p50 = quantile(&mut reads.latencies_ms, 0.5);
    // p99 is printed but not reported: on a shared 2-core host steal time
    // moves it by 24-40% between runs, p90 by 5-21%.
    let read_p90 = tail(&mut reads.latencies_ms, 0.9, "read_p90_ms")?;
    let read_p99 = quantile(&mut reads.latencies_ms, 0.99);
    let read_per_s = reads.latencies_ms.len() as f64 / read_secs;
    let ingest_p50 = quantile(&mut writes.latencies_ms, 0.5);
    let ingest_p90 = tail(&mut writes.latencies_ms, 0.9, "ingest_p90_ms")?;

    println!(
        "reads: attempted={} failed={} mismatched={} p50={} p90={} p99={} per_s={read_per_s:.1}",
        reads.attempted,
        reads.failed,
        reads.mismatches,
        read_p50.describe("ms"),
        read_p90.describe("ms"),
        read_p99.describe("ms"),
    );
    println!(
        "ingest: attempted={} failed={} mismatched={} p50={} p90={} max_late_ms={:.3} behind_at_end={}{}",
        writes.attempted,
        writes.failed,
        writes.mismatches,
        ingest_p50.describe("ms"),
        ingest_p90.describe("ms"),
        writes.max_late.as_secs_f64() * 1e3,
        writes.behind_at_end,
        if writes.behind_at_end > 1 {
            " BACKLOG GROWING"
        } else {
            ""
        },
    );
    for problem in [&reads.first_problem, &writes.first_problem]
        .into_iter()
        .flatten()
    {
        eprintln!("e2ebench: {problem}");
    }
    if let Err(problem) = &verified {
        eprintln!("e2ebench: {problem}");
    }

    let metrics = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&mut setup_secs),
        },
        Metric {
            name: "read_p50_ms",
            unit: "ms",
            value: read_p50.value,
        },
        Metric {
            name: "read_p90_ms",
            unit: "ms",
            value: read_p90.value,
        },
        Metric {
            name: "read_per_s",
            unit: "1/s",
            value: read_per_s,
        },
        Metric {
            name: "ingest_p50_ms",
            unit: "ms",
            value: ingest_p50.value,
        },
        Metric {
            name: "ingest_p90_ms",
            unit: "ms",
            value: ingest_p90.value,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: peak_rss_mb()?,
        },
    ];
    Ok(Report {
        correct: reads.mismatches == 0 && writes.mismatches == 0 && verified.is_ok(),
        attempted: reads.attempted + writes.attempted,
        failed: reads.failed + writes.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!(
                "e2ebench: {problem}\nusage: e2ebench --workload <serve_read|serve_mixed> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", host());
    let report = if args.trace {
        trace::run(&args)
    } else {
        run(&args)
    };
    let _ = std::fs::remove_dir_all(state_dir(args.workload));
    match report {
        Ok(report) => {
            println!(
                "{}",
                result_line(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("e2ebench: wrong answers; the run fails");
                ExitCode::FAILURE
            }
        }
        Err(problem) => {
            eprintln!("e2ebench: {problem}");
            ExitCode::FAILURE
        }
    }
}
