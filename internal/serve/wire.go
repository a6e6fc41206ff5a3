package serve

import (
	"repro/internal/design"
	"repro/internal/ingest"
	"repro/internal/session"
)

// Wire types of the HTTP/JSON API. Designs and partitions marshal
// through design.Design / design.Partition — the same JSON form as
// `design -json` and the write-ahead log's edit records — and
// InteractiveReport through its session-package form; the types here
// are the envelopes around them.
//
// CostsResponse is deliberately deterministic: given the same
// workload and design it marshals to identical bytes regardless of
// which tenant priced the work first or how often the session has
// been used (BenchmarkServeConcurrentTenants asserts this). Lifetime
// counters (memo hits, optimizer calls) live in the stats responses;
// EditResponse carries the per-edit accounting, whose Repriced field
// legitimately varies with shared-memo warmth.

// CreateSessionRequest opens a session. An empty workload means the
// server's default; Workers 0 means the server's default.
type CreateSessionRequest struct {
	Name     string   `json:"name"`
	Workload []string `json:"workload,omitempty"`
	Workers  int      `json:"workers,omitempty"`
}

// NestLoopRequest toggles the what-if join method.
type NestLoopRequest struct {
	Enabled bool `json:"enabled"`
}

// SuggestRequest runs the greedy advisor, warm-started from the
// shared memo. BudgetMB 0 means unlimited.
type SuggestRequest struct {
	BudgetMB int `json:"budgetMB,omitempty"`
}

// EditResponse is the outcome of a design mutation (create/drop
// index, partition, nestloop, apply-design, undo, redo).
type EditResponse struct {
	Design     design.Design `json:"design"`
	Signature  string        `json:"signature"`
	BaseCost   float64       `json:"baseCost"`
	NewCost    float64       `json:"newCost"`
	BenefitPct float64       `json:"benefitPct"`
	Speedup    float64       `json:"speedup"`
	// Per-edit incremental accounting. Invalidated is fixed by the
	// transition; Repriced additionally depends on memo warmth — a
	// tenant repeating an already-priced edit sees 0.
	Invalidated int  `json:"invalidated"`
	Repriced    int  `json:"repriced"`
	CanUndo     bool `json:"canUndo"`
	CanRedo     bool `json:"canRedo"`
}

// QueryCost is one workload query's pricing under the design.
type QueryCost struct {
	Query       int      `json:"query"` // 1-based workload position
	SQL         string   `json:"sql"`
	BaseCost    float64  `json:"baseCost"`
	NewCost     float64  `json:"newCost"`
	BenefitPct  float64  `json:"benefitPct"`
	IndexesUsed []string `json:"indexesUsed,omitempty"` // design-index keys, sorted
	Rewritten   string   `json:"rewritten,omitempty"`   // set when partitions rewrote the query
}

// CostsResponse is the interactive costs panel: per-query and total
// costs under the session's current design.
type CostsResponse struct {
	Signature  string      `json:"signature"`
	Queries    []QueryCost `json:"queries"`
	BaseCost   float64     `json:"baseCost"`
	NewCost    float64     `json:"newCost"`
	BenefitPct float64     `json:"benefitPct"`
	Speedup    float64     `json:"speedup"`
}

// SessionInfo is one session's full description.
type SessionInfo struct {
	Name      string        `json:"name"`
	Queries   int           `json:"queries"`
	Design    design.Design `json:"design"`
	Signature string        `json:"signature"`
	NestLoop  bool          `json:"nestLoop"`
	CanUndo   bool          `json:"canUndo"`
	CanRedo   bool          `json:"canRedo"`
	// UndoDepth/RedoDepth are the session history's depths — the durability
	// crash tests assert they survive a restart bit-identically.
	UndoDepth int           `json:"undoDepth"`
	RedoDepth int           `json:"redoDepth"`
	Stats     session.Stats `json:"stats"`
}

// SuggestedIndex is one advisor pick.
type SuggestedIndex struct {
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
	SQL     string   `json:"sql"` // CREATE INDEX statement
}

// SuggestResponse is the greedy advisor's result.
type SuggestResponse struct {
	Indexes    []SuggestedIndex `json:"indexes"`
	BenefitPct float64          `json:"benefitPct"`
	Speedup    float64          `json:"speedup"`
	SizeBytes  int64            `json:"sizeBytes"`
	Candidates int              `json:"candidates"`
	MemoHits   int64            `json:"memoHits"` // priced jobs reused from the shared memo
}

// RecommendJobRequest starts an asynchronous joint recommendation
// job. All fields are optional: the default is an unbudgeted anytime
// joint search with the server's worker count.
type RecommendJobRequest struct {
	// Objects: "indexes", "partitions" or "joint" (default).
	Objects string `json:"objects,omitempty"`
	// Strategy: "greedy", "ilp" (indexes only) or "anytime" (default).
	Strategy string `json:"strategy,omitempty"`
	// BudgetMB bounds storage (index bytes + partition replication).
	BudgetMB int `json:"budgetMB,omitempty"`
	// MaxEvaluations / MaxMillis bound the anytime search; the best
	// design found inside the budget is returned.
	MaxEvaluations int64 `json:"maxEvaluations,omitempty"`
	MaxMillis      int64 `json:"maxMillis,omitempty"`
	// CompressQueries / MaxCandidates tune the pruning stage.
	CompressQueries int `json:"compressQueries,omitempty"`
	MaxCandidates   int `json:"maxCandidates,omitempty"`
	Workers         int `json:"workers,omitempty"`

	// Continuous turns the job into a continuous tuner: instead of one
	// search over the session's static workload, the job watches the
	// session's streaming window and re-runs the (budgeted) search
	// whenever the workload drifts past DriftThreshold, publishing each
	// new best design in Result. The job stays running until cancelled
	// (DELETE), until MaxRetunes retunes have been published, or until
	// the session disappears (a dropped-and-recreated session's fresh
	// window is followed transparently; a session that stays gone ends
	// the job).
	Continuous bool `json:"continuous,omitempty"`
	// DriftThreshold triggers a retune (0 = ingest.DefaultDriftThreshold;
	// negative retunes on every check).
	DriftThreshold float64 `json:"driftThreshold,omitempty"`
	// IntervalMillis is the drift-check cadence (0 = 500ms).
	IntervalMillis int64 `json:"intervalMillis,omitempty"`
	// MaxRetunes finishes the job after that many retunes (0 = run
	// until cancelled).
	MaxRetunes int `json:"maxRetunes,omitempty"`
}

// RecommendResult is a finished job's recommendation.
type RecommendResult struct {
	Indexes          []SuggestedIndex   `json:"indexes,omitempty"`
	Partitions       []design.Partition `json:"partitions,omitempty"`
	BenefitPct       float64            `json:"benefitPct"`
	Speedup          float64            `json:"speedup"`
	SizeBytes        int64              `json:"sizeBytes"`
	ReplicationBytes int64              `json:"replicationBytes"`
	Rounds           int                `json:"rounds"`
	Evaluations      int64              `json:"evaluations"`
	PlanCalls        int64              `json:"planCalls"`
	MemoHits         int64              `json:"memoHits"`
	// EvalsSkipped / JobsPruned account the lazy sweep's savings:
	// candidate evaluations served from the gain cache and pricing
	// jobs never built (vs an eager full rebuild every round).
	EvalsSkipped int64 `json:"evalsSkipped"`
	JobsPruned   int64 `json:"jobsPruned"`
	// Truncated marks a budget-capped (or cancelled) search: the
	// result is the best design found so far, not the converged one.
	Truncated bool `json:"truncated,omitempty"`
	// CostTrace is the workload cost after each search round, starting
	// at the strategy's initial design cost — monotonically
	// non-increasing.
	CostTrace []float64 `json:"costTrace,omitempty"`

	// Continuous-tuner retunes additionally report the drift that
	// triggered them and the previous design's cost on the new window.
	Drift     float64 `json:"drift,omitempty"`
	StaleCost float64 `json:"staleCost,omitempty"`
}

// RecommendJobStatus reports a job's anytime progress: while the
// search runs, Rounds/Evaluations/BestCost advance after every round;
// once terminal, Result (for done and cancelled-with-best-so-far jobs)
// or Error is set.
type RecommendJobStatus struct {
	ID      string `json:"id"`
	Session string `json:"session"`
	// RequestID is the X-Request-ID of the request that started the
	// job — the correlation key between a job's lifetime and the
	// request-scoped trace that spawned it.
	RequestID   string `json:"requestId,omitempty"`
	State       string `json:"state"` // running, done, failed, cancelled
	Objects     string `json:"objects"`
	Strategy    string `json:"strategy"`
	Rounds      int    `json:"rounds"`
	Evaluations int64  `json:"evaluations"`
	PlanCalls   int64  `json:"planCalls"`
	// EvalsSkipped / JobsPruned surface the lazy sweep's savings live,
	// advancing with every completed round.
	EvalsSkipped int64            `json:"evalsSkipped"`
	JobsPruned   int64            `json:"jobsPruned"`
	BaseCost     float64          `json:"baseCost"`
	BestCost     float64          `json:"bestCost"`
	BestSpeedup  float64          `json:"bestSpeedup"`
	ElapsedMS    int64            `json:"elapsedMS"`
	Result       *RecommendResult `json:"result,omitempty"`
	Error        string           `json:"error,omitempty"`

	// Continuous-tuner jobs report their loop state: how many retunes
	// have been published and the drift the last check measured.
	Continuous bool    `json:"continuous,omitempty"`
	Retunes    int     `json:"retunes,omitempty"`
	Drift      float64 `json:"drift,omitempty"`
}

// RecommendJobList enumerates one session's jobs.
type RecommendJobList struct {
	Jobs []*RecommendJobStatus `json:"jobs"`
}

// IngestRequest streams queries into a session's workload window:
// one statement in SQL, a batch in Queries, or both.
type IngestRequest struct {
	SQL     string   `json:"sql,omitempty"`
	Queries []string `json:"queries,omitempty"`
}

// IngestResponse reports one ingest call's outcome plus the window's
// counters after it.
type IngestResponse struct {
	Accepted int                `json:"accepted"`
	Rejected int                `json:"rejected"` // statements that failed to parse
	Window   ingest.WindowStats `json:"window"`
}

// WindowResponse is a session's streaming-workload window: entries
// heaviest-first with decayed weights, the window counters, and the
// drift of the window against the session's tuned workload.
type WindowResponse struct {
	Entries []ingest.Entry     `json:"entries"`
	Stats   ingest.WindowStats `json:"stats"`
	// Drift is Distance(window, session workload) in [0,1].
	Drift float64 `json:"drift"`
}

// ListResponse enumerates resident sessions.
type ListResponse struct {
	Sessions []SessionEntry `json:"sessions"`
}

// HealthResponse is the liveness probe body.
type HealthResponse struct {
	OK       bool `json:"ok"`
	Sessions int  `json:"sessions"`
}

// ErrorResponse carries any non-2xx outcome.
type ErrorResponse struct {
	Error string `json:"error"`
}

// editResponse assembles the deterministic edit envelope from a
// session (which the caller holds locked) and its report.
func editResponse(s *session.DesignSession, rep *session.InteractiveReport) *EditResponse {
	return &EditResponse{
		Design:      s.Design(),
		Signature:   s.Signature(),
		BaseCost:    rep.BaseCost,
		NewCost:     rep.NewCost,
		BenefitPct:  100 * rep.AvgBenefit(),
		Speedup:     rep.Speedup(),
		Invalidated: rep.Invalidated,
		Repriced:    rep.Repriced,
		CanUndo:     s.CanUndo(),
		CanRedo:     s.CanRedo(),
	}
}

// costsResponse assembles the costs panel from a locked session.
func costsResponse(s *session.DesignSession) *CostsResponse {
	rep := s.Report()
	hasParts := len(s.Design().Partitions) > 0
	out := &CostsResponse{
		Signature:  s.Signature(),
		BaseCost:   rep.BaseCost,
		NewCost:    rep.NewCost,
		BenefitPct: 100 * rep.AvgBenefit(),
		Speedup:    rep.Speedup(),
	}
	for i, pq := range rep.PerQuery {
		qc := QueryCost{
			Query:       i + 1,
			SQL:         pq.SQL,
			BaseCost:    pq.BaseCost,
			NewCost:     pq.NewCost,
			IndexesUsed: pq.IndexesUsed,
		}
		if pq.BaseCost > 0 {
			qc.BenefitPct = 100 * (1 - pq.NewCost/pq.BaseCost)
		}
		if hasParts && len(rep.Rewritten) > i {
			qc.Rewritten = rep.Rewritten[i]
		}
		out.Queries = append(out.Queries, qc)
	}
	return out
}
