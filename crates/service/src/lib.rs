//! The live materialisation service: a long-lived front door over an
//! incrementally maintained instance.
//!
//! The paper's system is a *service*: facts arrive continuously and
//! certain-answer queries are served against the maintained
//! materialisation. This crate provides that front door on top of
//! [`vadalog_datalog::IncrementalEngine`] (re-exported here): a
//! line-oriented TCP protocol served by [`LiveServer`], with ingestion and
//! query serving decoupled through epoch snapshots
//! ([`vadalog_model::InstanceSnapshot`]) so reads run concurrently with
//! writes.
//!
//! # Protocol reference
//!
//! One request per line; every response is one or more `\n`-terminated
//! lines. The first response token is always `OK` or `ERR`.
//!
//! | Request | Response |
//! |---|---|
//! | `FACT <fact>.` | `OK inserted=<n> duplicate=<n> derived=<n> strata_skipped=<n> rounds=<n> epoch=<e>` |
//! | `BATCH <fact>. <fact>. …` | same as `FACT` (one evaluation for the whole batch) |
//! | `QUERY [MODE=<MAGIC\|FULL\|AUTO>] [TIMEOUT_MS=<ms>] [MAX_ROWS=<n>] ?(X, …) :- body.` | `OK answers=<n> epoch=<e>`, then **exactly `n`** tuple lines (whitespace-separated constants, sorted; constants containing whitespace, quotes or control characters come back `"`-quoted with `\"`/`\\`/`\n` escapes), then `END` — or `ERR deadline timeout_ms=<ms>` / `ERR row-limit max_rows=<n>` when a budget trips |
//! | `EXPLAIN [MODE=<MAGIC\|FULL\|AUTO>] ?(X, …) :- body.` | `OK explain=<n> epoch=<e> magic=<bool>`, then **exactly `n`** plan lines, then `END`. Returns the plan *without evaluating*: the query's adornment, the magic-vs-full decision (with the fallback reason when the rewrite does not apply), and per-rule join plans — build/probe order, index kind and estimated fan-out per step. Consults (and warms) the specialised-program cache, so the header is truthful about what a subsequent `QUERY` would do. `TIMEOUT_MS`/`MAX_ROWS` are rejected — nothing runs |
//! | `PROFILE [MODE=…] [TIMEOUT_MS=<ms>] [MAX_ROWS=<n>] ?(X, …) :- body.` | `OK profile=<n> answers=<a> epoch=<e> path=<magic\|full> [cache=<hit\|miss>]`, then **exactly `n`** phase lines (`phase=rewrite`, `phase=seed`, one `phase=stratum stratum=<s> round=<r> wall_micros=… delta_rows=… derived_rows=… join_probes=… rows_prededuped=…` per fixpoint round, `phase=answer`, and a final `totals …` line), then `END`. Evaluates the query exactly like `QUERY` (same budgets, same answers) but returns the per-phase breakdown instead of the tuples |
//! | `VALIDATE <rules>` | `OK diagnostics=<n> errors=<e> warnings=<w> admissible=<bool>`, then **exactly `n`** diagnostic lines (`VLG0xx <severity> [tgd=<i>] [atom=body[j]\|head[j]] [var=<V>] [pred=<p>] :: <message>`, parseable back via [`protocol::parse_diagnostic_line`]), then `END`. The candidate is analysed against the serving schema ([`vadalog_analysis::diagnostics`]); nothing is loaded. Under the default fail-closed [`AdmissionPolicy`], error-severity findings make the verdict `admissible=false` |
//! | `STATS` | `OK` followed by one JSON object on the same line (see **STATS schema** below). Never shed under overload |
//! | `STATS SLOW=<n>` | `OK slow=<k> threshold_micros=<t\|disabled>`, then **exactly `k`** slow-query lines (newest first, `wall_micros=… verb=… <summary> query=…`), then `END`. Reads the bounded slow-query ring (capacity 64) |
//! | `METRICS` | `OK metrics=<n>`, then **exactly `n`** Prometheus text-exposition lines (`# HELP`/`# TYPE` comments and `name{labels} value` samples — see **METRICS exposition** below), then `END`. Never shed under overload |
//! | `SNAPSHOT` | `OK snapshot epoch=<e>` after durably snapshotting the instance and truncating the WAL (a no-op `OK` on a volatile server) |
//! | `SHUTDOWN` | `OK bye`; the server stops accepting connections, answers queued-but-unstarted requests `ERR shutting-down`, completes in-flight work, flushes the WAL and appends the clean-shutdown marker. Never shed under overload |
//!
//! Two structured errors come from the transport rather than the handler:
//! `ERR overloaded retry_ms=<hint>` (admission control shed the connection
//! or request — retry after the hinted backoff) and `ERR shutting-down`
//! (the request arrived during drain).
//!
//! Clients must frame query answers by the header's `answers=<n>` count —
//! read exactly `n` tuple lines, then the `END` line — rather than scanning
//! for `END`: the count makes the framing independent of tuple *content*
//! (a constant named `END` is a legal answer). Every multi-line response
//! frames the same way, by its own label: `diagnostics=<n>`, `explain=<n>`,
//! `profile=<n>`, `metrics=<n>`, `slow=<n>`.
//!
//! # STATS schema
//!
//! The `STATS` JSON object is versioned: its first field is
//! `"schema_version"` ([`STATS_SCHEMA_VERSION`], currently `1`). New fields
//! are additive and do *not* bump the version; removals or renames do.
//! Fields, in order:
//!
//! | Field | Meaning |
//! |---|---|
//! | `schema_version` | STATS schema version (this table describes `1`) |
//! | `epoch` | Published snapshot epoch (bumps on every applied ingest) |
//! | `atoms` | Rows in the live materialisation |
//! | `derived_atoms` / `peak_atoms` / `iterations` | Engine totals: rows ever derived, high-water mark, fixpoint rounds |
//! | `joins_evaluated` / `join_probes` / `composite_probes` / `probe_misses_filtered` / `rows_prededuped` | Join-kernel counters: join evaluations, index probes (composite-key subset broken out), probes skipped by the existence filter, rows deduplicated before insert |
//! | `strata_skipped` / `rounds_incremental` | Incremental-maintenance savings: strata proven unaffected, delta-only rounds |
//! | `index_bytes` | Approximate index memory footprint |
//! | `wal_records` / `wal_bytes` | Write-ahead-log length (records, bytes) since the last truncation |
//! | `snapshots_written` / `snapshot_failures` | Durable snapshot attempts (`SNAPSHOT` verb + cadence) |
//! | `programs_rejected` / `diagnostics_emitted` | Admission outcomes: `VALIDATE` verdicts refused fail-closed, total diagnostics produced |
//! | `magic_queries` / `magic_cache_hits` / `demanded_tuples` / `full_materialised_tuples` | Demand-driven split: queries that took the magic path, specialised-program cache hits, scratch tuples derived on demand, size of the full materialisation |
//! | `slow_queries` | Records currently retained in the slow-query ring |
//! | `transport` | `connections_accepted` / `connections_rejected` / `connections_closed` / `requests_received` / `requests_served` / `requests_failed` / `queries_shed` / `queue_depth_max`. At quiescence `requests_received == requests_served + queries_shed + requests_failed` |
//! | `latency` | One object per verb (`query`, `fact`, `batch`, `explain`, `profile`, `validate`, `stats`, `metrics`, `snapshot`, `shutdown`), each `count`/`total_micros`/`max_micros`/`p50_micros`/`p95_micros`/`p99_micros`. `count`/`total`/`max` are exact; percentiles are log-bucketed (≤ 25% relative error). The per-verb counts sum to `requests_served` at quiescence |
//! | `degraded` | `true` while admission control is shedding |
//!
//! # METRICS exposition
//!
//! `METRICS` renders the same counters in Prometheus text format, all
//! names prefixed `vadalog_`. Monotone engine/service totals are
//! `counter`s (`vadalog_iterations_total`, `vadalog_join_probes_total`,
//! `vadalog_snapshots_written_total`, `vadalog_magic_queries_total`,
//! `vadalog_requests_served_total`, …); point-in-time values are `gauge`s
//! (`vadalog_epoch`, `vadalog_atoms`, `vadalog_index_bytes`,
//! `vadalog_wal_bytes`, `vadalog_queue_depth_max`, `vadalog_slow_queries`,
//! `vadalog_degraded`); and per-verb request latency is one `histogram`
//! family, `vadalog_request_duration_micros` with a `verb` label —
//! cumulative `_bucket{le=…}` series (empty buckets elided, `+Inf`
//! mandatory) plus `_sum` and `_count` per verb. The suite's
//! exposition-format validator test parses every emitted line.
//!
//! # Tracing
//!
//! The request lifecycle is instrumented with [`vadalog_obs`] spans —
//! `service.request`, the WAL's `wal.append`/`wal.fsync`,
//! `snapshot.write`, `recovery.replay`, and the engine-side spans beneath
//! them. Tracing is **off by default** and near-zero-cost while disabled;
//! enabling it never changes answers or counters (bit-identity is
//! property-tested). Queries whose wall time crosses
//! [`ServerConfig::slow_query_micros`] additionally record a compact
//! profile summary into the slow-query ring served by `STATS SLOW=<n>`.
//!
//! # Demand-driven queries
//!
//! `MODE=` selects the query path. `FULL` answers from the served
//! materialisation. `MAGIC` prefers the demand-driven path
//! ([`vadalog_datalog::DemandEngine`]): the query is rewritten with magic
//! sets, the specialised program is compiled once per binding-pattern
//! signature and cached, and evaluation runs in a scratch instance layered
//! over the published snapshot — deriving only the tuples the bound
//! constants demand. `AUTO` (the default) takes the magic path whenever the
//! query has at least one bound column and the rewrite applies, and the
//! full path otherwise; `MODE=MAGIC` is a preference, not a correctness
//! switch — unspecialisable queries silently fall back, and answers are
//! identical on either path. `STATS` exposes the split: `magic_queries`,
//! `magic_cache_hits` and cumulative `demanded_tuples` versus
//! `full_materialised_tuples` (the size of the live materialisation).
//!
//! # Admission
//!
//! The server is **fail-closed** by default ([`AdmissionPolicy::FailClosed`]):
//! `VALIDATE` verdicts with error-severity diagnostics answer
//! `admissible=false` and bump the `programs_rejected` counter, and `FACT` /
//! `BATCH` requests targeting a *derived* predicate of the serving program
//! are refused with `ERR` — rules own those relations, and asserting into
//! them would silently mix asserted and derived tuples. Warnings are
//! admitted but counted in `diagnostics_emitted`.
//! [`AdmissionPolicy::WarnOnly`] restores the legacy permissive behaviour
//! while keeping the counters. A fail-closed server also refuses to *start*
//! over a serving program that itself fails validation.
//!
//! Facts and queries use the crate's surface syntax
//! ([`vadalog_model::parser`]): `edge(a, b).`, `?(X) :- t(a, X).` and so
//! on. Errors — parse errors, arity conflicts, dictionary overflow
//! ([`vadalog_model::ModelError::PackOverflow`]) and the per-relation row
//! budget ([`vadalog_model::ModelError::CapacityExceeded`]) — come back as
//! a single `ERR <message>` line. A rejected batch leaves the live instance
//! untouched (the engine validates before applying), so the connection and
//! the service remain fully usable afterwards.
//!
//! # Concurrency model
//!
//! * Ingests serialise on a mutex around the [`IncrementalEngine`]; each
//!   successful ingest publishes a fresh epoch snapshot. A snapshot shares
//!   the live instance's relations (O(relations) to take); the next ingest
//!   copies a relation on its first write to it, and the superseded
//!   snapshot is released after the publish, with no lock held.
//! * Queries clone the published snapshot handle (an `Arc` bump under a
//!   briefly-held read lock) and evaluate against the frozen instance with
//!   **no lock held** — a long query never blocks an ingest and vice versa.
//! * The transport is a **readiness-based reactor** (see below): requests
//!   are handled by a fixed worker pool, so concurrency is bounded by
//!   [`ServerConfig`], not by how many sockets are open.
//!
//! # Transport architecture
//!
//! The front door is one epoll **reactor thread** (over the offline
//! `epoll` shim crate — thin safe wrappers on `epoll(7)`/`eventfd(2)`; the
//! service crate itself forbids `unsafe`) plus a fixed **worker pool**:
//!
//! * The reactor owns the nonblocking listener and every connection's
//!   read/write buffers, reassembles request lines, and keeps per-request
//!   FIFO ordering by queueing parse errors alongside parsed requests.
//!   Requests are dispatched (at most one in flight per connection) to a
//!   bounded job queue; workers run the transport-free request handler
//!   under `catch_unwind` and post replies back through an eventfd waker.
//! * **Admission policy knobs** ([`ServerConfig`]): `max_connections`
//!   (accept-time cap), `max_queue_depth` (request-time cap),
//!   `worker_threads` (in-flight cap), `overload_retry_ms` (the backoff
//!   hint carried by `ERR overloaded`), `idle_timeout` (optional reaper).
//! * **Degradation ladder** under rising load: (1) requests queue, up to
//!   `max_queue_depth`; (2) further requests are shed with
//!   `ERR overloaded retry_ms=<hint>` — connections survive, `STATS`,
//!   `METRICS` and `SHUTDOWN` stay exempt; (3) accepts beyond `max_connections` are
//!   rejected with the same error and closed; (4) misbehaving peers
//!   (slow-loris writers, stalled readers, over-`max_line_bytes` lines)
//!   are cut individually by the reactor's timer wheel. Shedding never
//!   corrupts state: a shed request performed no engine work at all.
//!
//! # Durability model
//!
//! A [`LiveServer`] can serve a [`DurableEngine`]
//! ([`LiveServer::start_with`]), which enforces **WAL-before-mutate**:
//! every batch is appended to a checksummed, length-prefixed write-ahead
//! log ([`wal`]) — and fsynced, under the default [`SyncPolicy::Always`] —
//! *before* the engine applies it. Snapshots ([`snapshot`]) serialise the
//! packed instance atomically (tmp + rename) and truncate the log, either
//! on a cadence ([`DurabilityConfig::snapshot_every`]) or on demand (the
//! `SNAPSHOT` verb). [`DurableEngine::recover`] restores the snapshot,
//! replays the WAL tail — skipping records the snapshot already covers and
//! dropping (not fataling on) a torn or corrupt tail — and yields a state
//! **bit-identical** to the uncrashed engine's, as enforced by the
//! fault-injection suite and the `recovery` bench harness. Acknowledged
//! batches are never lost; a batch logged but unacknowledged at the crash
//! may be replayed (the usual at-least-once window).
//!
//! # Robustness
//!
//! Query budgets default to [`ServerConfig`]'s `default_timeout` /
//! `default_max_rows` (both unlimited unless set) and can be overridden
//! per request with `TIMEOUT_MS=` / `MAX_ROWS=`; exceeded budgets answer
//! structured `ERR deadline …` / `ERR row-limit …` lines and the kernels
//! stop cooperatively (a cancellation flag polled every
//! [`vadalog_model::BUDGET_POLL_INTERVAL`] probes). The transport caps
//! request lines at `max_line_bytes`, cuts off stalled partial lines after
//! `line_timeout` (slow-loris defence), and survives malformed, non-UTF-8
//! and half-written input — each answers a single `ERR` line or a clean
//! close, never a dead server. A handler that panics mid-write poisons the
//! engine mutex: subsequent writes answer `ERR engine-unavailable` while
//! queries keep serving the last published snapshot, and a restart
//! recovers from the WAL. Fault-injection sites ([`failpoints`], debug
//! builds only) let tests kill the durability pipeline at every seam.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durability;
pub mod failpoints;
mod histogram;
mod metrics;
pub mod protocol;
mod reactor;
pub mod server;
pub mod snapshot;
pub mod wal;

pub use durability::{DurabilityConfig, DurableEngine, RecoveryReport, ServiceError};
pub use protocol::{parse_diagnostic_line, parse_request, Request, Response};
pub use server::{AdmissionPolicy, LiveServer, ServerConfig, STATS_SCHEMA_VERSION};
pub use vadalog_analysis::{Diagnostic, DiagnosticCode, Severity};
pub use vadalog_datalog::{IncrementalEngine, IngestOutcome};
pub use wal::SyncPolicy;
