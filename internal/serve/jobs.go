package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/costlab"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/recommend"
	"repro/internal/session"
)

// Asynchronous recommendation jobs: POST /sessions/{name}/recommend
// starts a joint physical-design search in the background and returns
// a job id immediately; GET polls anytime progress (rounds completed,
// evaluations spent, best cost/speedup so far); DELETE cancels a
// running search mid-flight — the in-flight pricing batch aborts via
// context cancellation, and the anytime strategy still surfaces the
// best design found before the cancel.
//
// Jobs snapshot the session's workload at start and then run
// independently: session edits, eviction, even dropping the session do
// not disturb a running search, and every (query, projected design)
// any tenant priced warm-starts the job through the shared cost tier's
// read-through.

// maxRecommendJobs caps the job registry; finished jobs are evicted
// oldest-first to make room.
const maxRecommendJobs = 128

// Job lifecycle states.
const (
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// recommendJob is one background search plus its observable state.
type recommendJob struct {
	id         string
	session    string
	requestID  string // X-Request-ID of the request that started it
	objects    string
	strategy   string
	continuous bool
	cancel     context.CancelFunc
	started    time.Time

	mu              sync.Mutex
	state           string
	cancelRequested bool
	progress        recommend.Progress
	finished        time.Time // zero while running
	result          *RecommendResult
	errMsg          string

	// Continuous-tuner state (see runContinuousJob).
	retunes int
	drift   float64

	// High-water marks of the job's cumulative lazy-sweep counters,
	// used to fold deltas into the manager-wide metrics. Continuous
	// jobs run each retune on a fresh Evaluator, so the cumulative
	// values reset between retunes (see Manager.foldSweepSavings).
	seenSkipped int64
	seenPruned  int64

	// frozen, when non-nil, is a job recovered from the journal after a
	// restart: the search goroutine is gone, so the status is a fixed
	// terminal record (a job journaled as running freezes as cancelled
	// with its best-so-far progress). cancel is nil on frozen jobs.
	frozen *RecommendJobStatus
	// durG is the global WAL sequence of the job's newest journaled
	// record (0 = never journaled); snapshots stamp it so replay can
	// order snapshot state against WAL-suffix job records.
	durG uint64
}

// foldSweepSavings folds a job's cumulative lazy-sweep savings into
// the manager-wide counters, adding only what is new since the last
// fold. A value below the high-water mark means the job switched to a
// fresh Evaluator (continuous retune), so the mark restarts from zero.
// Requires job.mu held.
func (m *Manager) foldSweepSavings(job *recommendJob, skipped, pruned int64) {
	if skipped < job.seenSkipped || pruned < job.seenPruned {
		job.seenSkipped, job.seenPruned = 0, 0
	}
	if d := skipped - job.seenSkipped; d > 0 {
		m.met.evalsSkipped.Add(d)
	}
	if d := pruned - job.seenPruned; d > 0 {
		m.met.jobsPruned.Add(d)
	}
	job.seenSkipped, job.seenPruned = skipped, pruned
}

// status snapshots the job for the wire.
func (j *recommendJob) status(now time.Time) *RecommendJobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.frozen != nil {
		cp := *j.frozen
		return &cp
	}
	end := j.finished
	if end.IsZero() {
		end = now
	}
	return &RecommendJobStatus{
		ID:           j.id,
		Session:      j.session,
		RequestID:    j.requestID,
		State:        j.state,
		Objects:      j.objects,
		Strategy:     j.strategy,
		Rounds:       j.progress.Round,
		Evaluations:  j.progress.Evaluations,
		PlanCalls:    j.progress.PlanCalls,
		EvalsSkipped: j.progress.EvalsSkipped,
		JobsPruned:   j.progress.JobsPruned,
		BaseCost:     j.progress.BaseCost,
		BestCost:     j.progress.BestCost,
		BestSpeedup:  j.progress.BestSpeedup(),
		ElapsedMS:    end.Sub(j.started).Milliseconds(),
		Result:       j.result,
		Error:        j.errMsg,
		Continuous:   j.continuous,
		Retunes:      j.retunes,
		Drift:        j.drift,
	}
}

func (j *recommendJob) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.frozen != nil || j.state != JobRunning
}

// StartRecommend launches a recommendation job over session name's
// workload, warm-started from the shared memo, and returns its initial
// status. The search runs on its own goroutine with its own context;
// DeleteRecommendJob (or process exit) stops it. requestID, when
// non-empty, is stamped on the job's status so polls correlate with
// the starting request's trace ("" is fine for non-HTTP callers).
func (m *Manager) StartRecommend(name string, req RecommendJobRequest, requestID string) (*RecommendJobStatus, error) {
	// Reject malformed searches synchronously (400) instead of
	// accepting a job that can only ever fail.
	if err := recommend.ValidateSearch(req.Objects, req.Strategy); err != nil {
		return nil, err
	}
	// Snapshot the workload under the session lock; the search itself
	// runs outside it, so the tenant stays editable (and evictable)
	// while the job prices candidates.
	var queries []recommend.Query
	if err := m.Do(name, func(s *session.DesignSession) error {
		queries = s.Queries()
		return nil
	}); err != nil {
		return nil, err
	}

	opts := recommend.Options{
		Objects:         req.Objects,
		Strategy:        req.Strategy,
		StorageBudget:   int64(req.BudgetMB) << 20,
		CompressQueries: req.CompressQueries,
		MaxCandidates:   req.MaxCandidates,
		Workers:         req.Workers,
		// Memo keys carry their backend, so any backend could share the
		// memo; the pin is the default search (same as
		// session.Recommend) until INUM-scored searches are verified
		// against the optimizer. Only full-optimizer misses read the
		// tenants' states through.
		Backend: costlab.BackendFull,
		Memo:    m.shared.Costs(),
		Budget: recommend.Budget{
			MaxEvaluations: req.MaxEvaluations,
			MaxDuration:    time.Duration(req.MaxMillis) * time.Millisecond,
		},
	}
	if opts.Objects == "" {
		opts.Objects = recommend.ObjectsJoint
	}
	if opts.Strategy == "" {
		// Jobs default to the anytime strategy: progress is observable
		// and cancellation returns the best design found so far.
		opts.Strategy = recommend.StrategyAnytime
	}
	if opts.Workers == 0 {
		opts.Workers = m.opts.Workers
	}

	ctx, cancel := context.WithCancel(context.Background())
	job := &recommendJob{
		session:    name,
		requestID:  requestID,
		objects:    opts.Objects,
		strategy:   opts.Strategy,
		continuous: req.Continuous,
		cancel:     cancel,
		started:    m.now(),
		state:      JobRunning,
	}
	opts.Progress = func(p recommend.Progress) {
		job.mu.Lock()
		job.progress = p
		m.foldSweepSavings(job, p.EvalsSkipped, p.JobsPruned)
		job.mu.Unlock()
	}

	if req.Continuous {
		// The continuous variant needs the session's live window; grab
		// it before registering so a bad request never occupies a slot.
		win, err := m.Window(name)
		if err != nil {
			cancel()
			return nil, err
		}
		tuner := ingest.NewTuner(win, ingest.TunerOptions{
			Catalog:        m.cat,
			Baseline:       queries,
			DriftThreshold: req.DriftThreshold,
			Recommend:      opts,
			Memo:           m.shared.Costs(),
		})
		interval := time.Duration(req.IntervalMillis) * time.Millisecond
		if interval <= 0 {
			interval = 500 * time.Millisecond
		}
		if err := m.registerJob(job); err != nil {
			cancel()
			return nil, err
		}
		m.jobStarted(job)
		go m.runContinuousJob(ctx, job, tuner, interval, req.MaxRetunes)
		return job.status(m.now()), nil
	}

	if err := m.registerJob(job); err != nil {
		cancel()
		return nil, err
	}
	m.jobStarted(job)
	go m.runRecommendJob(ctx, job, queries, opts)
	return job.status(m.now()), nil
}

// jobStarted and jobEnded fold a job's lifecycle into the metrics
// registry, the structured log and the durability journal in one
// place. Neither may run with job.mu held (journalJob snapshots the
// job's status, which takes it).
func (m *Manager) jobStarted(job *recommendJob) {
	m.met.jobsStarted.Inc()
	m.log.Info("recommend job started",
		"job", job.id, "session", job.session, "requestId", job.requestID,
		"objects", job.objects, "strategy", job.strategy, "continuous", job.continuous)
	m.journalJob(job)
}

func (m *Manager) jobEnded(job *recommendJob, state string) {
	m.met.jobFinished(state)
	m.log.Info("recommend job finished",
		"job", job.id, "session", job.session, "requestId", job.requestID, "state", state)
	m.journalJob(job)
}

// runContinuousJob is the continuous-tuner loop: on every tick it asks
// the tuner to check drift against the session's streaming window and,
// when a retune fires, publishes the new best design as the job's
// result. The job stays running until cancelled (DELETE) or until
// maxRetunes retunes have been published; a failed re-search is
// recorded and the loop keeps watching — a transient pricing error
// must not kill the tuner.
func (m *Manager) runContinuousJob(ctx context.Context, job *recommendJob, tuner *ingest.Tuner, interval time.Duration, maxRetunes int) {
	finish := func(state string) {
		job.mu.Lock()
		job.state = state
		job.finished = m.now()
		job.mu.Unlock()
		m.jobEnded(job, state)
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			finish(JobCancelled)
			return
		case <-tick.C:
		}
		// Re-resolve the session's window every tick: a dropped (or
		// evicted) and re-created session gets a fresh window object,
		// and a tuner left watching the detached one would report
		// frozen drift forever. A session that is gone entirely ends
		// the job — there is nothing left to tune. A dormant durable
		// session is NOT gone: it only left memory, and a background
		// poll must not force it resident (windowPeek deliberately
		// skips rehydration) — skip the tick until traffic revives it.
		win, ok := m.windowPeek(job.session)
		if !ok {
			if m.dur != nil && m.dur.hasDormant(job.session) {
				continue
			}
			job.mu.Lock()
			job.errMsg = fmt.Sprintf("serve: session %q dropped or evicted; continuous tuner stopped", job.session)
			job.state = JobCancelled
			job.finished = m.now()
			job.mu.Unlock()
			m.jobEnded(job, JobCancelled)
			return
		}
		if win != tuner.Window() {
			tuner.Retarget(win)
		}
		ret, err := tuner.Check(ctx)
		drift := tuner.Stats().LastDrift
		job.mu.Lock()
		job.drift = drift
		if err != nil {
			if job.cancelRequested || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				job.state = JobCancelled
				job.finished = m.now()
				job.mu.Unlock()
				m.jobEnded(job, JobCancelled)
				return
			}
			job.errMsg = err.Error()
			job.mu.Unlock()
			m.met.tunerErrors.Inc()
			m.log.Warn("tuner check failed",
				"job", job.id, "session", job.session, "drift", drift, "error", err.Error())
			continue
		}
		if ret != nil {
			job.errMsg = ""
			job.retunes++
			m.met.tunerRetunes.Inc()
			m.log.Info("tuner retuned",
				"job", job.id, "session", job.session, "retunes", job.retunes,
				"drift", ret.Drift, "planCalls", ret.Result.PlanCalls)
			res := ret.Result
			job.result = recommendResult(res)
			job.result.Drift = ret.Drift
			job.result.StaleCost = ret.StaleCost
			job.progress = recommend.Progress{
				Round:        res.Rounds,
				Evaluations:  res.Evaluations,
				PlanCalls:    res.PlanCalls,
				EvalsSkipped: res.EvalsSkipped,
				JobsPruned:   res.JobsPruned,
				BaseCost:     ret.StaleCost,
				BestCost:     res.NewCost,
			}
			m.foldSweepSavings(job, res.EvalsSkipped, res.JobsPruned)
			if maxRetunes > 0 && job.retunes >= maxRetunes {
				job.state = JobDone
				job.finished = m.now()
				job.mu.Unlock()
				m.jobEnded(job, JobDone)
				return
			}
		}
		job.mu.Unlock()
		if ret != nil {
			// Each published retune is journaled (jobEnded covers the
			// terminal paths above), so a restart keeps the newest design.
			m.journalJob(job)
		}
	}
}

// registerJob adds the job under a fresh id, evicting the oldest
// finished job when the registry is full. Requires no locks held.
func (m *Manager) registerJob(job *recommendJob) error {
	m.jobMu.Lock()
	defer m.jobMu.Unlock()
	if len(m.jobs) >= maxRecommendJobs {
		victim := ""
		var victimEnd time.Time
		for id, j := range m.jobs {
			j.mu.Lock()
			end, running := j.finished, j.state == JobRunning
			j.mu.Unlock()
			if running {
				continue
			}
			if victim == "" || end.Before(victimEnd) {
				victim, victimEnd = id, end
			}
		}
		if victim == "" {
			return fmt.Errorf("%w: %d recommendation jobs already running", ErrCapacity, len(m.jobs))
		}
		delete(m.jobs, victim)
		m.journalJobDel(victim)
	}
	m.jobSeq++
	job.id = fmt.Sprintf("job-%d", m.jobSeq)
	m.jobs[job.id] = job
	return nil
}

// runRecommendJob executes the search and records its terminal state.
func (m *Manager) runRecommendJob(ctx context.Context, job *recommendJob, queries []recommend.Query, opts recommend.Options) {
	res, err := recommend.Recommend(ctx, m.cat, queries, opts)

	job.mu.Lock()
	defer func() {
		state := job.state
		job.mu.Unlock()
		m.jobEnded(job, state)
	}()
	job.finished = m.now()
	switch {
	case err == nil:
		job.state = JobDone
		if job.cancelRequested {
			// The anytime strategy absorbed the cancel and returned its
			// best-so-far design.
			job.state = JobCancelled
		}
		job.result = recommendResult(res)
		job.progress = recommend.Progress{
			Round:        res.Rounds,
			Evaluations:  res.Evaluations,
			PlanCalls:    res.PlanCalls,
			EvalsSkipped: res.EvalsSkipped,
			JobsPruned:   res.JobsPruned,
			BaseCost:     res.BaseCost,
			BestCost:     res.NewCost,
		}
		// The search's final (no-move) sweep lands after the last
		// Progress callback; fold what it saved.
		m.foldSweepSavings(job, res.EvalsSkipped, res.JobsPruned)
	case job.cancelRequested || errors.Is(err, context.Canceled):
		job.state = JobCancelled
		job.errMsg = err.Error()
	default:
		job.state = JobFailed
		job.errMsg = err.Error()
	}
}

// recommendResult converts a pipeline result to wire form.
func recommendResult(res *recommend.Result) *RecommendResult {
	out := &RecommendResult{
		BenefitPct:       100 * res.AvgBenefit(),
		Speedup:          res.Speedup(),
		SizeBytes:        res.SizeBytes,
		ReplicationBytes: res.ReplicationBytes,
		Rounds:           res.Rounds,
		Evaluations:      res.Evaluations,
		PlanCalls:        res.PlanCalls,
		EvalsSkipped:     res.EvalsSkipped,
		JobsPruned:       res.JobsPruned,
		MemoHits:         res.MemoHits,
		Truncated:        res.Truncated,
		CostTrace:        res.CostTrace,
		Partitions:       res.Design.Partitions,
	}
	stmts := recommend.MaterializeStatements(res.Design.Indexes)
	for i, spec := range res.Design.Indexes {
		out.Indexes = append(out.Indexes, SuggestedIndex{
			Table:   spec.Table,
			Columns: spec.Columns,
			SQL:     stmts[i],
		})
	}
	return out
}

// RecommendJob returns the status of one job belonging to session
// name.
func (m *Manager) RecommendJob(name, id string) (*RecommendJobStatus, error) {
	m.jobMu.Lock()
	job, ok := m.jobs[id]
	m.jobMu.Unlock()
	if !ok || job.session != name {
		return nil, fmt.Errorf("%w: recommendation job %q", ErrNotFound, id)
	}
	return job.status(m.now()), nil
}

// RecommendJobs lists session name's jobs, oldest first.
func (m *Manager) RecommendJobs(name string) []*RecommendJobStatus {
	m.jobMu.Lock()
	jobs := make([]*recommendJob, 0, len(m.jobs))
	for _, j := range m.jobs {
		if j.session == name {
			jobs = append(jobs, j)
		}
	}
	m.jobMu.Unlock()
	// Oldest first by start time; ids ("job-<seq>") tie-break by
	// numeric sequence, which length-then-lexicographic order gives.
	sort.Slice(jobs, func(i, k int) bool {
		a, b := jobs[i], jobs[k]
		if !a.started.Equal(b.started) {
			return a.started.Before(b.started)
		}
		if len(a.id) != len(b.id) {
			return len(a.id) < len(b.id)
		}
		return a.id < b.id
	})
	now := m.now()
	out := make([]*RecommendJobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status(now)
	}
	return out
}

// DeleteRecommendJob cancels a running job (the search's context is
// cancelled, aborting any in-flight pricing batch; the job transitions
// to "cancelled" once the search unwinds) or removes a finished one.
// removed reports whether the job left the registry.
func (m *Manager) DeleteRecommendJob(name, id string) (status *RecommendJobStatus, removed bool, err error) {
	m.jobMu.Lock()
	job, ok := m.jobs[id]
	if ok && job.session == name && job.terminal() {
		delete(m.jobs, id)
		m.jobMu.Unlock()
		m.journalJobDel(id)
		return nil, true, nil
	}
	m.jobMu.Unlock()
	if !ok || job.session != name {
		return nil, false, fmt.Errorf("%w: recommendation job %q", ErrNotFound, id)
	}
	job.mu.Lock()
	job.cancelRequested = true
	job.mu.Unlock()
	job.cancel()
	return job.status(m.now()), false, nil
}

// recommendJobCount reports resident jobs (for stats).
func (m *Manager) recommendJobCount() int {
	m.jobMu.Lock()
	defer m.jobMu.Unlock()
	return len(m.jobs)
}

// --- HTTP handlers ----------------------------------------------------

func (m *Manager) handleRecommendStart(w http.ResponseWriter, r *http.Request) {
	var req RecommendJobRequest
	if err := decodeBody(r, &req, true); err != nil {
		writeError(w, err)
		return
	}
	requestID := ""
	if sp := obs.SpanFromContext(r.Context()); sp != nil {
		requestID = sp.ID
	}
	st, err := m.StartRecommend(r.PathValue("name"), req, requestID)
	if err == nil {
		err = m.writable() // journaling the start failed under -fsync always
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (m *Manager) handleRecommendList(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	jobs := m.RecommendJobs(name)
	if len(jobs) == 0 {
		// Jobs outlive their session (eviction, drop), so the list
		// stays reachable as long as any job exists under the name;
		// only a name with neither jobs nor a session is a 404.
		if err := m.Do(name, func(*session.DesignSession) error { return nil }); err != nil {
			writeError(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, RecommendJobList{Jobs: jobs})
}

func (m *Manager) handleRecommendStatus(w http.ResponseWriter, r *http.Request) {
	st, err := m.RecommendJob(r.PathValue("name"), r.PathValue("job"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (m *Manager) handleRecommendDelete(w http.ResponseWriter, r *http.Request) {
	st, removed, err := m.DeleteRecommendJob(r.PathValue("name"), r.PathValue("job"))
	if err == nil {
		err = m.writable() // journaling the deletion failed under -fsync always
	}
	if err != nil {
		writeError(w, err)
		return
	}
	if removed {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}
