// Package session is PARINDA's incremental design-session engine: the
// stateful core behind the paper's interactive one-change-at-a-time
// workflow (§4, Figure 1). A DesignSession parses the workload once,
// owns the current physical design, and re-prices an edit's *delta*
// only — queries whose referenced tables intersect the edited object
// (decided from the shared query-footprint analysis in internal/sql)
// are re-planned, every other query's cost and rewrite are served from
// a memo keyed by (query identity, projected design key —
// design.ProjectedKey). Every design transition reaches the
// planner as one whatif.Session.ApplyDelta of design.Diff instead of a
// full rebuild, and an undo stack replays earlier designs almost
// entirely from the memo. Plan explains are not memoized: Explain
// plans one query on the session's own what-if session per read.
//
// A one-shot evaluation is New(…).ApplyDesign(d) on a throwaway
// DesignSession; `parinda session` drives a long-lived one.
// MaterializeAndCompare checks a design's what-if plans against the
// same design built in a storage.Database.
package session

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/recommend"
	"repro/internal/rewrite"
	"repro/internal/sql"
)

// EditRecord kinds: a committed user edit, an undo, a redo.
const (
	RecordEdit = "edit"
	RecordUndo = "undo"
	RecordRedo = "redo"
)

// EditRecord is one committed session mutation in serializable form —
// the unit the serve tier journals to its write-ahead log. An edit
// record carries the full target state (design + nest-loop flag)
// rather than a delta: replaying the sequence through ApplyRecord
// re-derives each delta against the session's then-current design,
// which reproduces the original transitions exactly — including the
// what-if session's generated index names, the projected design
// signatures (so shared-memo replays hit without planning), and the
// undo/redo stacks. Undo and redo are recorded as markers, not
// states: replay walks the same history the user did.
type EditRecord struct {
	Kind     string         `json:"kind"`
	Design   *design.Design `json:"design,omitempty"`   // RecordEdit only
	NestLoop bool           `json:"nestLoop,omitempty"` // RecordEdit only
}

// InteractiveReport is the interactive component's output — the
// numbers Figure 3's right panel displays, plus the incremental
// pricing counters that make the session's savings observable.
type InteractiveReport struct {
	PerQuery   []recommend.QueryBenefit `json:"perQuery"`
	BaseCost   float64                  `json:"baseCost"`
	NewCost    float64                  `json:"newCost"`
	Rewritten  []string                 `json:"rewritten,omitempty"`  // workload rewritten for the partitions, in order
	IndexNames []string                 `json:"indexNames,omitempty"` // what-if index names, aligned with Design.Indexes

	// Incremental-pricing observability (see Stats for meanings).
	Invalidated int   `json:"invalidated"` // queries the last edit invalidated
	Repriced    int   `json:"repriced"`    // of those, how many needed an optimizer call
	MemoHits    int64 `json:"memoHits"`    // session-lifetime memo hits
	MemoMisses  int64 `json:"memoMisses"`  // session-lifetime memo misses
	PlanCalls   int64 `json:"planCalls"`   // session-lifetime full optimizer invocations
}

// AvgBenefit returns 1 - new/base.
func (r *InteractiveReport) AvgBenefit() float64 {
	if r.BaseCost <= 0 {
		return 0
	}
	return 1 - r.NewCost/r.BaseCost
}

// Speedup returns base/new.
func (r *InteractiveReport) Speedup() float64 {
	if r.NewCost <= 0 {
		return 1
	}
	return r.BaseCost / r.NewCost
}

// Stats reports a session's incremental-pricing counters.
type Stats struct {
	MemoHits    int64 // repricings served from a memo, no optimizer call
	SharedHits  int64 // of those, served from the SharedMemo (all of them: it is the session's memo)
	MemoMisses  int64 // repricings that planned with the optimizer
	MemoEntries int   // (query, design-signature) states in the session's SharedMemo
	PlanCalls   int64 // full optimizer invocations, session lifetime
	Invalidated int   // queries invalidated by the last edit
	Repriced    int   // of those, queries that needed an optimizer call
}

// Options configure a session.
type Options struct {
	// Workers caps the parallelism of batch pricing (initial base
	// costs and large invalidation sets). 0 means GOMAXPROCS; 1
	// forces sequential pricing through the session's own planner.
	Workers int

	// Shared, when non-nil, plugs the session into a cross-session
	// pricing memo: repricings are served from states any session over
	// the same catalog already priced, and every state this session
	// prices is published to it.
	// The serve layer hands every tenant the same SharedMemo, so an
	// edit one tenant priced costs every other tenant zero optimizer
	// calls. Nil gives the session a private SharedMemo.
	Shared *SharedMemo
}

// queryState is the memoized pricing of one query under one projected
// design: everything the report needs, so a memo hit re-plans nothing.
// States live in the SharedMemo's state tier for the process's lifetime
// (or until its cap evicts them), so they hold only flat strings — no
// ASTs — and name indexes by design key, never by a session's what-if
// name: every session reading a state shares its pointer.
type queryState struct {
	rewrittenSQL string
	cost         float64
	indexesUsed  []string // design-index keys, sorted
}

// snapshot captures everything an undo (or a failed edit's rollback)
// must restore besides the memo, which only ever grows.
type snapshot struct {
	design   design.Design
	nestLoop bool
}

// DesignSession is a stateful interactive design session over one
// workload. It is not safe for concurrent use; batch pricing inside
// an edit parallelizes internally.
type DesignSession struct {
	cat  *catalog.Catalog
	opts Options
	wl   *Workload // shared and read-only

	held       *design.Held      // the current design and What-If Join flag, installed
	fragParent map[string]string // fragment table → parent table
	rw         *rewrite.Rewriter // nil when the design has no partitions
	// pricer fans large re-pricings out over pooled sessions that keep
	// the design they last priced; created on first use.
	pricer *costlab.Full
	// rewrites caches, per query touching a partitioned table, its
	// rewrite under the current partitioning; applyDesign drops the
	// cache whenever the partition set changes.
	rewrites []*rewritten

	states    []*queryState // current pricing, one per query
	baseCosts []float64     // empty-design costs, fixed at creation
	shared    *SharedMemo   // opts.Shared, or the session's own: the session's one memo
	stmtIDs   []uint32      // query identities interned in shared's cost tier, for state keys

	memoHits, memoMisses, planCalls int64
	sharedHits                      int64
	lastInvalidated, lastRepriced   int

	// span, when non-nil, receives per-edit attribution (plan calls and
	// memo outcomes) at reprice commit. Set by the serve layer for the
	// duration of one request; never owned by the session.
	span *obs.Span

	// onRecord, when non-nil, observes every committed mutation as an
	// EditRecord — the serve tier's journaling hook. Fired after the
	// mutation fully commits (design, pricing and history stacks all
	// updated), synchronously on the caller's goroutine, so a journal
	// that fsyncs before returning makes the edit durable before the
	// request is acknowledged. ApplyRecord suppresses it: replay must
	// not re-journal.
	onRecord func(EditRecord)

	undo []snapshot
	redo []snapshot
}

// Workload is a parsed, footprint-analyzed workload ready to open
// sessions over. Planning and rewriting never mutate the parsed ASTs
// (costlab.EvaluateAll fans the same statements to concurrent
// sessions, and the rewriter clones before editing), so one Workload
// is safe to share across any number of concurrent sessions — the
// serve layer parses its default workload once and opens every tenant
// from it instead of re-parsing per create.
type Workload struct {
	queries  []recommend.Query
	foot     []*sql.Footprint
	stmtKeys []string // canonical printed identities, interned at session birth
	// class is each query's footprint class (design.Classes): a class
	// shares one projected key per design.
	class []int
}

// ParseWorkload parses and footprint-analyzes a workload once, for
// sharing across sessions via NewFromWorkload.
func ParseWorkload(workloadSQL []string) (*Workload, error) {
	queries, err := recommend.ParseWorkload(workloadSQL)
	if err != nil {
		return nil, err
	}
	wl := &Workload{
		queries:  queries,
		foot:     make([]*sql.Footprint, len(queries)),
		stmtKeys: make([]string, len(queries)),
	}
	for i, q := range queries {
		wl.foot[i] = sql.FootprintOf(q.Stmt)
		wl.stmtKeys[i] = sql.PrintSelect(q.Stmt)
	}
	wl.class = design.Classes(wl.foot)
	return wl, nil
}

// New opens a session: the workload is parsed once, base costs price
// as one parallel batch, and the design starts empty.
func New(cat *catalog.Catalog, workloadSQL []string, opts Options) (*DesignSession, error) {
	wl, err := ParseWorkload(workloadSQL)
	if err != nil {
		return nil, err
	}
	return NewFromWorkload(cat, wl, opts)
}

// NewFromWorkload opens a session over an already-parsed workload,
// skipping the per-session parse/footprint/print work. The session
// reads wl but never mutates it; callers may share one Workload across
// concurrent sessions.
func NewFromWorkload(cat *catalog.Catalog, wl *Workload, opts Options) (*DesignSession, error) {
	s := &DesignSession{
		cat:        cat,
		opts:       opts,
		wl:         wl,
		held:       design.NewHeld(cat),
		fragParent: map[string]string{},
		rewrites:   make([]*rewritten, len(wl.queries)),
		states:     make([]*queryState, len(wl.queries)),
		shared:     opts.Shared,
	}
	if s.shared == nil {
		s.shared = NewSharedMemo()
	}
	// Intern the query identities once, at session birth; every state
	// probe afterwards is by dense id. Ids are memo-specific, so they
	// are interned into the memo this session shares.
	s.stmtIDs = make([]uint32, len(wl.stmtKeys))
	for i, key := range wl.stmtKeys {
		s.stmtIDs[i] = s.shared.costs.InternStmtKey(key)
	}
	// Price the empty design: every query is "invalidated" once.
	all := make(map[int]bool, len(wl.queries))
	for qi := range wl.queries {
		all[qi] = true
	}
	if err := s.reprice(all); err != nil {
		return nil, err
	}
	s.baseCosts = make([]float64, len(wl.queries))
	for qi, st := range s.states {
		s.baseCosts[qi] = st.cost
	}
	return s, nil
}

// Queries returns the parsed workload.
func (s *DesignSession) Queries() []recommend.Query { return s.wl.queries }

// Design returns a copy of the current design.
func (s *DesignSession) Design() design.Design { return s.held.Design().Clone() }

// NestLoopEnabled reports the current What-If Join flag.
func (s *DesignSession) NestLoopEnabled() bool { return s.held.NestLoop() }

// Signature returns the what-if session's canonical design signature.
func (s *DesignSession) Signature() string { return s.held.Session().Signature() }

// Stats returns the session's incremental-pricing counters.
func (s *DesignSession) Stats() Stats {
	return Stats{
		MemoHits:    s.memoHits,
		SharedHits:  s.sharedHits,
		MemoMisses:  s.memoMisses,
		MemoEntries: s.shared.states.Len(),
		PlanCalls:   s.planCalls,
		Invalidated: s.lastInvalidated,
		Repriced:    s.lastRepriced,
	}
}

// PlanCalls reports full optimizer invocations consumed so far.
func (s *DesignSession) PlanCalls() int64 { return s.planCalls }

// SetSpan attaches (nil detaches) a request span: until the next call,
// reprice commits add their plan-call and memo-outcome deltas to it.
// The caller owns the span; the session never outlives its use of it.
func (s *DesignSession) SetSpan(sp *obs.Span) { s.span = sp }

// Memo exposes the session's cost memo, the SharedMemo's cost tier: it
// reads every state this session (or any session sharing its memo)
// priced through, so advisors warm-start from it.
func (s *DesignSession) Memo() *costlab.Memo { return s.shared.costs }

// Recommend runs the unified recommender over the session's workload,
// warm-started from the session's cost memo: (query, projected design)
// pairs the DBA already priced interactively are never re-planned. It
// is the one route behind the serve layer's /suggest and asynchronous
// recommend jobs and the REPL's `suggest`. The backend is forced to
// "full": the default search is the full-optimizer one, and only its
// misses read the session states through. ctx cancels (or
// budget-bounds) the search, which returns its best-so-far design.
func (s *DesignSession) Recommend(ctx context.Context, opts recommend.Options) (*recommend.Result, error) {
	opts.Backend = costlab.BackendFull
	opts.Memo = s.shared.costs
	if opts.Workers == 0 {
		opts.Workers = s.opts.Workers
	}
	return recommend.Recommend(ctx, s.cat, s.wl.queries, opts)
}

// AddIndex adds a what-if index and re-prices only the queries that
// reference its table.
func (s *DesignSession) AddIndex(spec inum.IndexSpec) (*InteractiveReport, error) {
	key := spec.Key()
	if s.held.Name(key) != "" {
		return nil, fmt.Errorf("session: index %s is already in the design", key)
	}
	target := s.Design()
	// Copy the caller's column slice: the design (and its undo
	// snapshots) must not alias caller-owned memory.
	spec.Columns = append([]string(nil), spec.Columns...)
	target.Indexes = append(target.Indexes, spec)
	return s.userEdit(target, s.held.NestLoop())
}

// DropIndex removes the design index with spec's identity.
func (s *DesignSession) DropIndex(spec inum.IndexSpec) (*InteractiveReport, error) {
	return s.DropIndexKey(spec.Key())
}

// DropIndexKey removes a design index by its key ("table(col,col)").
func (s *DesignSession) DropIndexKey(key string) (*InteractiveReport, error) {
	target := s.Design()
	kept := target.Indexes[:0]
	found := false
	for _, have := range target.Indexes {
		if have.Key() == key {
			found = true
			continue
		}
		kept = append(kept, have)
	}
	if !found {
		return nil, fmt.Errorf("session: no design index %s", key)
	}
	target.Indexes = kept
	return s.userEdit(target, s.held.NestLoop())
}

// AddPartition installs (or replaces — "repartition") the vertical
// partitioning of def.Table. Replacing drops the old fragments and
// any design indexes on them.
func (s *DesignSession) AddPartition(def design.Partition) (*InteractiveReport, error) {
	target := removePartition(s.Design(), def.Table)
	// Copy the caller's fragment slices: the design (and its undo
	// snapshots) must not alias caller-owned memory.
	cp := design.Partition{Table: def.Table}
	for _, cols := range def.Fragments {
		cp.Fragments = append(cp.Fragments, append([]string(nil), cols...))
	}
	target.Partitions = append(target.Partitions, cp)
	return s.userEdit(target, s.held.NestLoop())
}

// DropPartition removes def.Table's partitioning and any design
// indexes on its fragments.
func (s *DesignSession) DropPartition(table string) (*InteractiveReport, error) {
	if !slices.ContainsFunc(s.held.Design().Partitions, func(p design.Partition) bool { return p.Table == table }) {
		return nil, fmt.Errorf("session: table %q is not partitioned in the design", table)
	}
	return s.userEdit(removePartition(s.Design(), table), s.held.NestLoop())
}

// removePartition drops table's partition def and cascades to design
// indexes on its fragments.
func removePartition(d design.Design, table string) design.Design {
	frags := map[string]bool{}
	keptParts := d.Partitions[:0]
	for _, def := range d.Partitions {
		if def.Table != table {
			keptParts = append(keptParts, def)
			continue
		}
		for i := range def.Fragments {
			frags[design.FragName(def.Table, i)] = true
		}
	}
	d.Partitions = keptParts
	keptIx := d.Indexes[:0]
	for _, spec := range d.Indexes {
		if !frags[spec.Table] {
			keptIx = append(keptIx, spec)
		}
	}
	d.Indexes = keptIx
	return d
}

// SetNestLoop toggles the What-If Join component and re-prices the
// queries whose plans can contain a join.
func (s *DesignSession) SetNestLoop(enabled bool) (*InteractiveReport, error) {
	if enabled == s.held.NestLoop() {
		return s.Report(), nil
	}
	return s.userEdit(s.Design(), enabled)
}

// ApplyDesign replaces the whole design in one edit — the one-shot
// evaluation `parinda interactive` runs on a fresh session, and a bulk
// "load design" for the REPL. Only the diff against the current design is re-priced.
func (s *DesignSession) ApplyDesign(d design.Design) (*InteractiveReport, error) {
	return s.userEdit(d.Clone(), s.held.NestLoop())
}

// Undo reverts the last successful edit and makes it available to
// Redo. Re-pricing is served from the memo, so undoing costs no
// optimizer calls.
func (s *DesignSession) Undo() (*InteractiveReport, error) {
	if len(s.undo) == 0 {
		return nil, errors.New("session: nothing to undo")
	}
	prev := s.undo[len(s.undo)-1]
	cur := snapshot{design: s.Design(), nestLoop: s.held.NestLoop()}
	rep, err := s.edit(prev.design, prev.nestLoop)
	if err != nil {
		return nil, err
	}
	// edit pushed the pre-undo state; drop both frames so undo walks
	// backwards instead of toggling, and park the undone state on the
	// redo stack.
	s.undo = s.undo[:len(s.undo)-2]
	s.redo = append(s.redo, cur)
	if s.onRecord != nil {
		s.onRecord(EditRecord{Kind: RecordUndo})
	}
	return rep, nil
}

// Redo re-applies the most recently undone edit — the inverse of
// Undo. The redone design's states are already memoized (Undo walked
// away from them), so redoing costs no optimizer calls. Any fresh
// edit clears the redo stack.
func (s *DesignSession) Redo() (*InteractiveReport, error) {
	if len(s.redo) == 0 {
		return nil, errors.New("session: nothing to redo")
	}
	next := s.redo[len(s.redo)-1]
	// edit pushes the pre-redo state onto the undo stack, which is
	// exactly what lets a later Undo revert this Redo.
	rep, err := s.edit(next.design, next.nestLoop)
	if err != nil {
		return nil, err
	}
	s.redo = s.redo[:len(s.redo)-1]
	if s.onRecord != nil {
		s.onRecord(EditRecord{Kind: RecordRedo})
	}
	return rep, nil
}

// CanUndo reports whether an edit is available to revert.
func (s *DesignSession) CanUndo() bool { return len(s.undo) > 0 }

// CanRedo reports whether an undone edit is available to re-apply.
func (s *DesignSession) CanRedo() bool { return len(s.redo) > 0 }

// UndoDepth reports how many edits are available to revert.
func (s *DesignSession) UndoDepth() int { return len(s.undo) }

// RedoDepth reports how many undone edits are available to re-apply.
func (s *DesignSession) RedoDepth() int { return len(s.redo) }

// SetOnRecord installs (or, with nil, removes) the committed-mutation
// observer. Must be set before the session sees traffic; the session
// is single-threaded, so there is no registration race beyond that.
func (s *DesignSession) SetOnRecord(fn func(EditRecord)) { s.onRecord = fn }

// ApplyRecord replays one journaled mutation. Replaying a session's
// records in order against a fresh session over the same workload
// reconstructs it exactly: design, pricing, generated what-if names,
// and undo/redo depth. The onRecord hook is suppressed for the
// duration — replay must never re-journal itself.
func (s *DesignSession) ApplyRecord(rec EditRecord) (*InteractiveReport, error) {
	saved := s.onRecord
	s.onRecord = nil
	defer func() { s.onRecord = saved }()
	switch rec.Kind {
	case RecordEdit:
		if rec.Design == nil {
			return nil, errors.New("session: edit record carries no design")
		}
		return s.userEdit(rec.Design.Clone(), rec.NestLoop)
	case RecordUndo:
		return s.Undo()
	case RecordRedo:
		return s.Redo()
	}
	return nil, fmt.Errorf("session: unknown edit-record kind %q", rec.Kind)
}

// Report assembles the interactive report for the current design.
func (s *DesignSession) Report() *InteractiveReport {
	rep := &InteractiveReport{
		Invalidated: s.lastInvalidated,
		Repriced:    s.lastRepriced,
		MemoHits:    s.memoHits,
		MemoMisses:  s.memoMisses,
		PlanCalls:   s.planCalls,
	}
	if ixs := s.held.Design().Indexes; len(ixs) > 0 {
		rep.IndexNames = make([]string, 0, len(ixs))
		for _, spec := range ixs {
			rep.IndexNames = append(rep.IndexNames, s.held.Name(spec.Key()))
		}
	}
	rep.PerQuery = make([]recommend.QueryBenefit, 0, len(s.wl.queries))
	rep.Rewritten = make([]string, 0, len(s.wl.queries))
	// One arena backs every per-query IndexesUsed copy: the report owns
	// its slices (memoized states must not alias caller-visible memory),
	// but a report is built per edit, so this is one allocation instead
	// of one per query.
	nUsed := 0
	for _, st := range s.states {
		nUsed += len(st.indexesUsed)
	}
	arena := make([]string, 0, nUsed)
	for qi, q := range s.wl.queries {
		st := s.states[qi]
		var used []string
		if n := len(st.indexesUsed); n > 0 {
			start := len(arena)
			arena = append(arena, st.indexesUsed...)
			used = arena[start : start+n : start+n]
		}
		rep.PerQuery = append(rep.PerQuery, recommend.QueryBenefit{
			SQL:         q.SQL,
			BaseCost:    s.baseCosts[qi],
			NewCost:     st.cost,
			IndexesUsed: used,
		})
		rep.Rewritten = append(rep.Rewritten, st.rewrittenSQL)
		rep.BaseCost += s.baseCosts[qi]
		rep.NewCost += st.cost
	}
	return rep
}

// Explain plans query qi under the current design on the session's own
// what-if session and renders the plan, naming the live what-if indexes
// IndexNames reports. Explains are not memoized: each read costs one
// optimizer call, counted like any other.
func (s *DesignSession) Explain(qi int) (string, error) {
	if qi < 0 || qi >= len(s.states) {
		return "", fmt.Errorf("session: no query %d (workload has %d)", qi+1, len(s.states))
	}
	target, _, err := s.target(qi)
	if err != nil {
		return "", err
	}
	plan, err := s.held.Session().Plan(target)
	s.planCalls++
	s.span.AddPlanCalls(1)
	if err != nil {
		return "", fmt.Errorf("session: what-if plan of %q: %w", s.wl.queries[qi].SQL, err)
	}
	return optimizer.Explain(plan), nil
}

// ---------------------------------------------------------------------
// Edit machinery
// ---------------------------------------------------------------------

// userEdit is edit for user-initiated mutations: a successful one
// forks history, so the redo stack is discarded. Structural no-ops
// (re-applying the current design) push no frame and keep the redo
// stack, detected by the undo depth. Undo and Redo call edit directly
// to keep the stack they are walking.
func (s *DesignSession) userEdit(target design.Design, targetNL bool) (*InteractiveReport, error) {
	depth := len(s.undo)
	rep, err := s.edit(target, targetNL)
	if err != nil {
		return nil, err
	}
	if len(s.undo) != depth {
		s.redo = s.redo[:0]
		if s.onRecord != nil {
			// Only real edits (frame pushed) are journaled: a structural
			// no-op changed nothing, so replaying without it is identical.
			d := s.Design()
			s.onRecord(EditRecord{Kind: RecordEdit, Design: &d, NestLoop: s.held.NestLoop()})
		}
	}
	return rep, nil
}

// edit transitions the session to (target, targetNL): it validates the
// target, applies the diff to the what-if session, re-prices the
// invalidated queries (memo first), and pushes an undo frame. On any
// error the session is left exactly as it was.
func (s *DesignSession) edit(target design.Design, targetNL bool) (*InteractiveReport, error) {
	prev := snapshot{design: s.Design(), nestLoop: s.held.NestLoop()}
	inval, changed, err := s.applyDesign(target, targetNL)
	if err != nil {
		return nil, err
	}
	if !changed {
		// Structural no-op (e.g. re-applying the current design):
		// nothing re-priced and no history frame, so an undo after this
		// still reverts the last real edit.
		return s.Report(), nil
	}
	if err := s.reprice(inval); err != nil {
		// Re-pricing failed (e.g. a fragment set no query rewrite can
		// cover): revert the design mutation. The target validated
		// structurally, so the inverse transition cannot fail.
		if _, _, rerr := s.applyDesign(prev.design, prev.nestLoop); rerr != nil {
			return nil, fmt.Errorf("session: rollback after %v failed: %w", err, rerr)
		}
		return nil, err
	}
	s.undo = append(s.undo, prev)
	return s.Report(), nil
}

// applyDesign mutates the what-if session, rewriter and bookkeeping
// from the current design to (target, targetNL) and returns the
// indices of the queries the transition invalidates, plus whether the
// transition changed anything structurally. The mutation is atomic:
// validation runs before anything changes, and the transition is one
// ApplyDelta, which either lands whole or not at all.
func (s *DesignSession) applyDesign(target design.Design, targetNL bool) (map[int]bool, bool, error) {
	frags, err := design.Validate(s.cat, target)
	if err != nil {
		return nil, false, fmt.Errorf("session: %w", err)
	}
	delta, affected, err := s.held.Move(target, targetNL)
	if err != nil {
		return nil, false, fmt.Errorf("session: %w", err)
	}
	if delta.Empty() {
		// No structural change (e.g. ApplyDesign of the current design).
		return map[int]bool{}, false, nil
	}
	nlChanged := delta.NestLoop != nil
	s.fragParent = frags
	if len(delta.CreateTables) > 0 || len(delta.DropTables) > 0 {
		s.rw = design.Rewriter(s.cat, target)
		clear(s.rewrites)
	}

	// Invalidate: queries touching an affected table, plus — on a
	// join-flag change — every query whose plan can contain a join
	// (multi-relation, or touching a partitioned table in either
	// design, since fragment rewrites introduce joins).
	inval := map[int]bool{}
	for qi, fp := range s.wl.foot {
		for _, table := range affected {
			if fp.TouchesTable(table) {
				inval[qi] = true
			}
		}
		if nlChanged && (fp.Relations >= 2 || s.touchesPartition(qi)) {
			inval[qi] = true
		}
	}
	return inval, true, nil
}

// touchesPartition reports whether query qi touches a table the
// current design partitions.
func (s *DesignSession) touchesPartition(qi int) bool {
	return slices.ContainsFunc(s.held.Design().Partitions, func(p design.Partition) bool {
		return s.wl.foot[qi].TouchesTable(p.Table)
	})
}

// rewritten is one query rewritten onto the current fragments: the AST
// to plan and its printed form.
type rewritten struct {
	sel *sql.Select
	sql string
}

// target returns query qi as it plans under the current design, with
// its printed form. A query touching no partitioned table plans as
// written; the others are rewritten onto the fragments once per
// partitioning.
func (s *DesignSession) target(qi int) (*sql.Select, string, error) {
	if !s.touchesPartition(qi) {
		return s.wl.queries[qi].Stmt, s.wl.stmtKeys[qi], nil
	}
	if r := s.rewrites[qi]; r != nil {
		return r.sel, r.sql, nil
	}
	sel, err := s.rw.Rewrite(s.wl.queries[qi].Stmt)
	if err != nil {
		return nil, "", fmt.Errorf("session: rewrite of %q: %w", s.wl.queries[qi].SQL, err)
	}
	r := &rewritten{sel: sel, sql: sql.PrintSelect(sel)}
	s.rewrites[qi] = r
	return r.sel, r.sql, nil
}

// parallelRepriceThreshold is the invalidation-set size above which
// re-pricing fans out over pooled sessions instead of planning
// sequentially on the session's own planner.
const parallelRepriceThreshold = 4

// reprice refreshes the states of the invalidated queries: memo hits
// restore the full state without planning; misses re-plan (in
// parallel when the miss set is large). All-or-nothing — on error no
// state or edit counter changes; the memo keeps only valid states.
//
// Every invalidated query resolves through the SharedMemo's state tier
// (flight.Cache.Resolve), the session's one memo: states any session
// already published are served, states another session is planning
// right now are waited on, and this session plans only the states it
// leads.
func (s *DesignSession) reprice(inval map[int]bool) error {
	if len(inval) == 0 {
		s.lastInvalidated, s.lastRepriced = 0, 0
		return nil
	}
	idxs := make([]int, 0, len(inval))
	for qi := range inval {
		idxs = append(idxs, qi)
	}
	sort.Ints(idxs)

	// design.ProjectedKey reads only a footprint's class, so each class
	// invalidated by this edit computes its key once.
	sigs := map[int]string{}
	for _, qi := range idxs {
		if _, ok := sigs[s.wl.class[qi]]; !ok {
			sigs[s.wl.class[qi]] = design.ProjectedKey(s.held.Design(), s.fragParent, s.wl.foot[qi], s.held.NestLoop())
		}
	}

	// The memoized state carries its own rewritten form; only misses
	// pay for a rewrite.
	price := func(led []int) ([]*queryState, error) {
		misses := make([]pendingPrice, len(led))
		for j, m := range led {
			target, printed, err := s.target(idxs[m])
			if err != nil {
				return nil, err
			}
			misses[j] = pendingPrice{qi: idxs[m], target: target, sql: printed}
		}
		return s.plan(misses)
	}
	keys := make([]stateKey, len(idxs))
	for j, qi := range idxs {
		keys[j] = stateKey{s.stmtIDs[qi], sigs[s.wl.class[qi]]}
	}
	pc0 := s.planCalls
	got, b, err := s.shared.states.Resolve(context.Background(), keys, price)
	if err != nil {
		return err
	}
	// Commit — nothing above this point mutated session state (the
	// state tier only ever gains valid priced states), so a failed edit
	// leaves states and counters describing the last successful one.
	for j, qi := range idxs {
		s.states[qi] = got[j]
	}
	hits := b.Hits + b.Coalesced
	s.memoHits += int64(hits)
	s.sharedHits += int64(hits)
	s.memoMisses += int64(b.Led)
	s.lastInvalidated = len(inval)
	s.lastRepriced = b.Led
	s.span.AddSharedHits(int64(hits))
	s.span.AddCoalesced(int64(b.Coalesced))
	s.span.AddLed(int64(b.Led))
	s.span.AddPlanCalls(s.planCalls - pc0)
	return nil
}

// pendingPrice is one memo miss awaiting an optimizer call: the query
// as it plans under the design and its printed form.
type pendingPrice struct {
	qi     int
	target *sql.Select
	sql    string
}

// plan prices the missed queries under the current design and returns
// their states. Small miss sets (or Workers == 1) plan sequentially on
// the session's own what-if session; larger ones fan out over the
// session's pricer, whose pooled sessions move to the design by diff.
// Either way a plan's what-if names map back to design-index keys
// through the names of the session that planned it.
func (s *DesignSession) plan(misses []pendingPrice) ([]*queryState, error) {
	states := make([]*queryState, len(misses))
	if len(misses) < parallelRepriceThreshold || s.opts.Workers == 1 {
		for i, p := range misses {
			plan, err := s.held.Session().Plan(p.target)
			s.planCalls++
			if err != nil {
				return nil, fmt.Errorf("session: what-if plan of %q: %w", s.wl.queries[p.qi].SQL, err)
			}
			states[i] = &queryState{rewrittenSQL: p.sql, cost: plan.TotalCost, indexesUsed: s.held.UsedKeys(plan)}
		}
		return states, nil
	}
	if s.pricer == nil {
		s.pricer = costlab.NewFull(s.cat)
	}
	targets := make([]*sql.Select, len(misses))
	for i, p := range misses {
		targets[i] = p.target
	}
	calls := s.pricer.PlanCalls()
	costs, used, err := s.pricer.PriceAll(context.Background(), costlab.Target{Design: s.held.Design(), NestLoop: s.held.NestLoop()}, targets, s.opts.Workers)
	s.planCalls += s.pricer.PlanCalls() - calls
	if err != nil {
		var je *costlab.JobError
		if errors.As(err, &je) && je.Index >= 0 && je.Index < len(misses) {
			return nil, fmt.Errorf("session: what-if plan of %q: %w", s.wl.queries[misses[je.Index].qi].SQL, je.Err)
		}
		return nil, fmt.Errorf("session: what-if plan: %w", err)
	}
	for i, p := range misses {
		states[i] = &queryState{rewrittenSQL: p.sql, cost: costs[i], indexesUsed: used[i]}
	}
	return states, nil
}
