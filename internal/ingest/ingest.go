// Package ingest is PARINDA's streaming workload-capture and
// continuous-tuning subsystem: the piece that turns the one-shot
// advisor stack (costlab → session → recommend → serve) into the
// interactive designer the paper describes — one that watches the
// workload the DBA *actually runs* and keeps its recommendations
// current, instead of tuning a frozen query file once at startup.
//
// Three parts compose:
//
//   - Window is a concurrency-safe rolling workload window. Queries
//     stream in one at a time or in batches, are deduplicated by
//     canonical SQL, and carry exponentially time-decayed weights, so
//     the window is a weighted picture of *recent* traffic. The entry
//     count is bounded: past the capacity the lightest (most decayed)
//     entry is evicted, keeping memory O(window) under millions of
//     submissions.
//
//   - Drift (Distance) measures how far the window has moved from the
//     workload the current design was tuned for, as the total-variation
//     distance between the two workloads' weighted footprint vectors
//     (which tables and columns the traffic touches, and how hard).
//     0 means the same shape, 1 means disjoint footprints.
//
//   - Tuner is one drift-gated retune step: every Check compares the
//     queries it is given (a window's snapshot) against its baseline,
//     and when the drift crosses the threshold it re-runs the search
//     from internal/recommend over them, with the options the caller
//     passes — serve's warm-start from the shared cost memo, so work
//     any session already priced is never repeated — and returns the
//     retune. The caller owns the loop.
//
// Degenerate-weight safety: a window whose decayed weights underflow to
// zero (a long idle gap against a short half-life) falls back to raw
// submission counts, and every speedup/benefit accessor guards zero
// base costs, so weighted-window evaluation can never produce NaN.
//
// internal/serve exposes the window per session (POST
// /sessions/{name}/ingest, GET /sessions/{name}/window) and ticks the
// tuner over the window in a continuous recommendation job, which
// publishes each retune as the job's result; `parinda ingest` streams a
// query log into a served session, and the session REPL grows
// ingest/window commands.
package ingest
