// Package repro is the root of the PARINDA reproduction (EDBT 2010):
// an interactive physical designer — what-if indexes, what-if
// partition tables, join-method control, the AutoPart vertical
// partitioner, and an ILP index advisor priced by the INUM cache-based
// cost model — built over a PostgreSQL-style cost-based optimizer and
// storage engine implemented from scratch in this module.
//
// Package map (each internal package carries its own doc comment):
//
//	internal/sql        SQL lexer, parser, AST, printer
//	internal/catalog    schema, statistics, Equation-1 sizing
//	internal/storage    heap/B-Tree storage engine, ANALYZE
//	internal/optimizer  cost-based planner (access paths, DP join order)
//	internal/whatif     what-if sessions: hypothetical indexes/tables
//	internal/inum       INUM scenario cache (single-session core)
//	internal/design     the one physical-design value sessions edit and
//	                    advisors recommend: fragment naming, validation,
//	                    persisted keys, Diff — every design transition
//	                    as one atomic what-if delta — and Held, a what-if
//	                    session that remembers its design and moves
//	                    only by those deltas
//	internal/intern     interning: canonical strings → dense uint32
//	                    ids behind lock-free reads (Table), and a
//	                    sharded insert-once map, one mutex and one
//	                    CLOCK ring per shard, optionally capped with
//	                    in-place eviction (Bounded) —
//	                    the hot-path keying under costlab's memo, the
//	                    SharedMemo and the ingest window, so steady-state
//	                    pricing hashes ids instead of printed SQL
//	internal/flight     the memoised-singleflight pricing primitive:
//	                    Cache = bounded CLOCK-sharded table + per-key
//	                    leader election + one set of counters, and
//	                    Resolve, the only copy of the two-phase batch
//	                    protocol (price led keys, publish, then wait on
//	                    foreign keys; failed leaders hand over) — both
//	                    memo tiers are Caches, so concurrent tenants
//	                    needing the same missing state plan it once
//	internal/costlab    unified concurrent cost-estimation layer: one
//	                    CostEstimator interface, the INUM backend, and
//	                    Full, the one design-positioned pricer — pooled
//	                    sessions that hold the design they last priced
//	                    and move by diff, serving batches one design at
//	                    a time — plus EvaluateDelta, the one memoised
//	                    batch entry for every design an advisor prices
//	                    (jobs carry indexes and partitions; a
//	                    partitioned job plans rewritten onto its
//	                    fragments), and its cost Memo: one pricing
//	                    identity, (statement, projected design,
//	                    backend), interned to two uint32s over a
//	                    flight.Cache, reading session states through on
//	                    a full-optimizer miss
//	internal/ilp        exact branch-and-bound ILP solver
//	internal/recommend  the automatic components as one pipeline —
//	                    index suggestion, AutoPart partition
//	                    suggestion and the joint search: candidate
//	                    generators (index mining, atomic fragments),
//	                    shared pruning/compression, one greedy loop
//	                    (budgeted anytime with best-so-far results;
//	                    "greedy" is the same loop unbudgeted),
//	                    AutoPart's refinement loop, the exact ILP
//	                    strategy, one evaluation core, and the lazy
//	                    candidate scorer (lazy.go) — per-candidate
//	                    gain caching over the queries that name the
//	                    candidate's leading column, invalidated by the
//	                    same rule, plus a CELF-style stale-bound heap —
//	                    that the loop's index sweep prices through
//	internal/rewrite    workload rewriting onto partition fragments
//	internal/workload   SDSS-like schema, 30-query workload, generator
//	internal/session    incremental design sessions: delta re-pricing,
//	                    per-(query, design) cost memoization, undo and
//	                    redo, cross-session SharedMemo (a state tier and
//	                    the cost tier that reads it through, both keyed
//	                    by projected design; local misses resolve
//	                    through one Resolve call per edit, and its
//	                    misses plan in turn on the session's own
//	                    what-if session, which holds the design),
//	                    explains planned on read (one optimizer call
//	                    each, never stored) — the engine behind the
//	                    `parinda session` REPL — and the what-if vs.
//	                    materialized accuracy check
//	                    (MaterializeAndCompare)
//	internal/serve      multi-tenant design-session service: N named
//	                    sessions over one catalog + one shared memo,
//	                    HTTP/JSON API, per-session serialization, LRU
//	                    and idle-TTL eviction, asynchronous cancellable
//	                    recommend jobs (one-shot and continuous),
//	                    per-session streaming ingest endpoints,
//	                    read-header/idle connection timeouts,
//	                    graceful shutdown, and opt-in snapshot + WAL
//	                    durability with history restore on boot — the
//	                    `parinda serve` subcommand
//	internal/durable    crash-safety kit under the serve tier: CRC32C-
//	                    framed append-only WAL segments with batched
//	                    group-commit fsync (always/interval/off),
//	                    atomic write-temp + fsync + rename snapshots,
//	                    torn-tail-tolerant recovery — behind `parinda
//	                    serve -data-dir`
//	internal/ingest     streaming workload capture + continuous tuning:
//	                    concurrency-safe rolling window (dedup by
//	                    canonical SQL, exponential time-decay weights,
//	                    bounded entries), weighted-footprint drift
//	                    detector, drift-gated tuner step re-running the
//	                    search over the window — behind `parinda
//	                    ingest` and the continuous recommend jobs, which
//	                    own the loop and warm-start from the shared memo
//	internal/obs        zero-dependency observability kit: metrics
//	                    registry (atomic counters/gauges, lock-free
//	                    sharded log-bucketed latency histograms),
//	                    Prometheus text exposition, request-scoped
//	                    spans attributing plan calls and memo outcomes,
//	                    log/slog construction helpers — behind GET
//	                    /metrics and the serve middleware
//
// See README.md for the layout and the session REPL commands, and
// bench_test.go for the experiment harness: one benchmark per paper
// claim E1–E8, each failing when its claim flips (REPRODUCTION.md is
// the ledger).
package repro
