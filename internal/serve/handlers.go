package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"

	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/obs"
	"repro/internal/recommend"
	"repro/internal/session"
)

// Handler returns the manager's HTTP/JSON API:
//
//	GET    /healthz                              liveness + session count
//	GET    /stats                                manager + shared-memo counters
//	GET    /sessions                             list resident sessions
//	POST   /sessions                             create (CreateSessionRequest)
//	GET    /sessions/{name}                      design, signature, stats
//	DELETE /sessions/{name}                      drop
//	GET    /sessions/{name}/costs                per-query costs (CostsResponse)
//	GET    /sessions/{name}/design               the design alone (design.Design)
//	POST   /sessions/{name}/design               replace the design (design.Design)
//	POST   /sessions/{name}/indexes              add index (inum.IndexSpec)
//	DELETE /sessions/{name}/indexes?key=t(c,c)   drop index (or inum.IndexSpec body)
//	POST   /sessions/{name}/partitions           set partitioning (design.Partition)
//	DELETE /sessions/{name}/partitions/{table}   drop partitioning
//	POST   /sessions/{name}/nestloop             toggle join method (NestLoopRequest)
//	POST   /sessions/{name}/undo                 revert the last edit
//	POST   /sessions/{name}/redo                 re-apply the last undone edit
//	GET    /sessions/{name}/explain/{q}          text/plain plan of query q (1-based)
//	POST   /sessions/{name}/suggest              greedy advisor (SuggestRequest)
//	POST   /sessions/{name}/ingest               stream queries into the window
//	GET    /sessions/{name}/window               window entries, stats, drift
//	POST   /sessions/{name}/recommend            start async recommend job (202);
//	                                             continuous:true → continuous tuner
//	GET    /sessions/{name}/recommend            list the session's jobs
//	GET    /sessions/{name}/recommend/{job}      job status + anytime progress
//	DELETE /sessions/{name}/recommend/{job}      cancel (running) / remove (done)
//	GET    /sessions/{name}/stats                session pricing counters
//
// Mutations respond with EditResponse. Errors are ErrorResponse with
// 400 (malformed request), 404 (no such session/query), 409 (exists,
// nothing to undo/redo, domain conflicts) or 503 (capacity, or a
// journal that failed under -fsync always).
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	// A degraded node (see durability.go) refuses every mutation before
	// it touches a tenant; reads are never wrapped.
	mutation := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if err := m.writable(); err != nil {
				writeError(w, err)
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("GET /healthz", m.handleHealth)
	mux.HandleFunc("GET /stats", m.handleStats)
	if !m.opts.DisableMetrics {
		mux.HandleFunc("GET /metrics", m.handleMetrics)
	}
	mux.HandleFunc("GET /sessions", m.handleList)
	mux.HandleFunc("POST /sessions", mutation(m.handleCreate))
	mux.HandleFunc("GET /sessions/{name}", m.handleInfo)
	mux.HandleFunc("DELETE /sessions/{name}", mutation(m.handleDrop))
	mux.HandleFunc("GET /sessions/{name}/costs", m.handleCosts)
	mux.HandleFunc("GET /sessions/{name}/design", m.handleGetDesign)
	mux.HandleFunc("POST /sessions/{name}/design", mutation(m.handleApplyDesign))
	mux.HandleFunc("POST /sessions/{name}/indexes", mutation(m.handleAddIndex))
	mux.HandleFunc("DELETE /sessions/{name}/indexes", mutation(m.handleDropIndex))
	mux.HandleFunc("POST /sessions/{name}/partitions", mutation(m.handleAddPartition))
	mux.HandleFunc("DELETE /sessions/{name}/partitions/{table}", mutation(m.handleDropPartition))
	mux.HandleFunc("POST /sessions/{name}/nestloop", mutation(m.handleNestLoop))
	mux.HandleFunc("POST /sessions/{name}/undo", mutation(m.handleUndo))
	mux.HandleFunc("POST /sessions/{name}/redo", mutation(m.handleRedo))
	mux.HandleFunc("GET /sessions/{name}/explain/{q}", m.handleExplain)
	mux.HandleFunc("POST /sessions/{name}/suggest", m.handleSuggest)
	mux.HandleFunc("POST /sessions/{name}/ingest", mutation(m.handleIngest))
	mux.HandleFunc("GET /sessions/{name}/window", m.handleWindow)
	mux.HandleFunc("POST /sessions/{name}/recommend", mutation(m.handleRecommendStart))
	mux.HandleFunc("GET /sessions/{name}/recommend", m.handleRecommendList)
	mux.HandleFunc("GET /sessions/{name}/recommend/{job}", m.handleRecommendStatus)
	mux.HandleFunc("DELETE /sessions/{name}/recommend/{job}", mutation(m.handleRecommendDelete))
	mux.HandleFunc("GET /sessions/{name}/stats", m.handleSessionStats)
	if m.opts.Pprof {
		// Mounted explicitly (not via the package's DefaultServeMux
		// side effect) so the endpoints exist only when asked for.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// Every route — pprof and 404s included — passes through the
	// observability middleware: request id, span, latency histogram,
	// slow-request log (see middleware.go).
	return m.instrument(mux)
}

// doReq is Do plus span attribution: while fn runs, the session
// records its pricing deltas (plan calls, memo outcomes) into the
// request's span, which the middleware folds into the per-tenant and
// memo-outcome metric families.
func (m *Manager) doReq(r *http.Request, name string, fn func(*session.DesignSession) error) error {
	sp := obs.SpanFromContext(r.Context())
	if sp == nil {
		return m.Do(name, fn)
	}
	return m.Do(name, func(s *session.DesignSession) error {
		s.SetSpan(sp)
		defer s.SetSpan(nil)
		return fn(s)
	})
}

// bufPool recycles encode/decode buffers across requests, so the
// steady-state request path allocates no per-response scratch.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON marshals v with a stable layout (the bytes are identical
// to json.Marshal plus a trailing newline) through a pooled buffer.
// Marshal errors are impossible for the wire types (no
// channels/funcs), so they panic; write errors are ordinary client
// disconnects and are ignored.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		panic(fmt.Sprintf("serve: encode response: %v", err))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
	bufPool.Put(buf)
}

// writeJSONBytes writes an already-marshaled (newline-terminated) JSON
// body, the cached-response fast path.
func writeJSONBytes(w http.ResponseWriter, status int, blob []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(blob)
}

// marshalBody renders v exactly as writeJSON would, returning the
// bytes for caching.
func marshalBody(v any) ([]byte, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// writeError maps err to a status code and an ErrorResponse body. A
// session.ErrConflict — an edit that is already applied, one that
// targets a design object that is not there, or nothing to undo/redo —
// is a 409; every other session error is a 400 (invalid design against
// the catalog).
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, session.ErrConflict):
		status = http.StatusConflict
	case errors.Is(err, ErrCapacity), errors.Is(err, ErrDegraded):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// decodeBody strictly decodes the request body into v. An empty body
// is allowed when allowEmpty (endpoints whose request is optional).
// The body is read into a pooled buffer and decoded in place — no
// string conversions of the raw bytes (json.Decode copies what it
// keeps).
func decodeBody(r *http.Request, v any, allowEmpty bool) error {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, 1<<20)); err != nil {
		return fmt.Errorf("serve: read request body: %w", err)
	}
	if len(bytes.TrimSpace(buf.Bytes())) == 0 {
		if allowEmpty {
			return nil
		}
		return fmt.Errorf("serve: request body required")
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("serve: bad request body: trailing data after the JSON value")
	}
	return nil
}

func (m *Manager) handleHealth(w http.ResponseWriter, r *http.Request) {
	if m.writable() != nil {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{OK: false, Sessions: m.Len()})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{OK: true, Sessions: m.Len()})
}

func (m *Manager) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.Stats())
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ListResponse{Sessions: m.List()})
}

func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := decodeBody(r, &req, false); err != nil {
		writeError(w, err)
		return
	}
	if err := m.Create(req.Name, req.Workload, req.Workers); err != nil {
		writeError(w, err)
		return
	}
	var info *SessionInfo
	if err := m.Do(req.Name, func(s *session.DesignSession) error {
		info = sessionInfo(req.Name, s)
		// Creation pricing ran before the span could be attached to the
		// session; a fresh session's lifetime counters ARE its creation
		// cost, so attribute them here.
		if sp := obs.SpanFromContext(r.Context()); sp != nil {
			st := s.Stats()
			sp.AddPlanCalls(st.PlanCalls)
			sp.AddSharedHits(st.SharedHits)
			sp.AddLed(st.MemoMisses)
		}
		return nil
	}); err != nil {
		// Created but evicted before we could describe it — report
		// the create as successful anyway.
		writeJSON(w, http.StatusCreated, SessionInfo{Name: req.Name})
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func sessionInfo(name string, s *session.DesignSession) *SessionInfo {
	return &SessionInfo{
		Name:      name,
		Queries:   len(s.Queries()),
		Design:    s.Design(),
		Signature: s.Signature(),
		NestLoop:  s.NestLoopEnabled(),
		CanUndo:   s.CanUndo(),
		CanRedo:   s.CanRedo(),
		UndoDepth: s.UndoDepth(),
		RedoDepth: s.RedoDepth(),
		Stats:     s.Stats(),
	}
}

func (m *Manager) handleInfo(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var info *SessionInfo
	if err := m.doReq(r, name, func(s *session.DesignSession) error {
		info = sessionInfo(name, s)
		return nil
	}); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (m *Manager) handleDrop(w http.ResponseWriter, r *http.Request) {
	if err := m.Drop(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// edit runs a design mutation under the session lock (span-attributed
// via doReq) and writes the EditResponse — unless journaling the edit
// failed under -fsync always, which answers 503 instead.
func (m *Manager) edit(w http.ResponseWriter, r *http.Request, name string, fn func(*session.DesignSession) (*session.InteractiveReport, error)) {
	var resp *EditResponse
	if err := m.doReq(r, name, func(s *session.DesignSession) error {
		rep, err := fn(s)
		if err != nil {
			return err
		}
		resp = editResponse(s, rep)
		return m.writable()
	}); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (m *Manager) handleAddIndex(w http.ResponseWriter, r *http.Request) {
	var req inum.IndexSpec
	if err := decodeBody(r, &req, false); err != nil {
		writeError(w, err)
		return
	}
	m.edit(w, r, r.PathValue("name"), func(s *session.DesignSession) (*session.InteractiveReport, error) {
		return s.AddIndex(req)
	})
}

func (m *Manager) handleDropIndex(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		var req inum.IndexSpec
		if err := decodeBody(r, &req, false); err != nil {
			writeError(w, fmt.Errorf("serve: drop index wants ?key=table(col,col) or a body: %w", err))
			return
		}
		key = req.Key()
	}
	m.edit(w, r, r.PathValue("name"), func(s *session.DesignSession) (*session.InteractiveReport, error) {
		return s.DropIndexKey(key)
	})
}

func (m *Manager) handleAddPartition(w http.ResponseWriter, r *http.Request) {
	var req design.Partition
	if err := decodeBody(r, &req, false); err != nil {
		writeError(w, err)
		return
	}
	m.edit(w, r, r.PathValue("name"), func(s *session.DesignSession) (*session.InteractiveReport, error) {
		return s.AddPartition(req)
	})
}

func (m *Manager) handleDropPartition(w http.ResponseWriter, r *http.Request) {
	table := r.PathValue("table")
	m.edit(w, r, r.PathValue("name"), func(s *session.DesignSession) (*session.InteractiveReport, error) {
		return s.DropPartition(table)
	})
}

func (m *Manager) handleNestLoop(w http.ResponseWriter, r *http.Request) {
	var req NestLoopRequest
	if err := decodeBody(r, &req, false); err != nil {
		writeError(w, err)
		return
	}
	m.edit(w, r, r.PathValue("name"), func(s *session.DesignSession) (*session.InteractiveReport, error) {
		return s.SetNestLoop(req.Enabled)
	})
}

func (m *Manager) handleUndo(w http.ResponseWriter, r *http.Request) {
	m.edit(w, r, r.PathValue("name"), func(s *session.DesignSession) (*session.InteractiveReport, error) {
		return s.Undo()
	})
}

func (m *Manager) handleRedo(w http.ResponseWriter, r *http.Request) {
	m.edit(w, r, r.PathValue("name"), func(s *session.DesignSession) (*session.InteractiveReport, error) {
		return s.Redo()
	})
}

func (m *Manager) handleApplyDesign(w http.ResponseWriter, r *http.Request) {
	var d design.Design
	if err := decodeBody(r, &d, false); err != nil {
		writeError(w, err)
		return
	}
	m.edit(w, r, r.PathValue("name"), func(s *session.DesignSession) (*session.InteractiveReport, error) {
		return s.ApplyDesign(d)
	})
}

func (m *Manager) handleGetDesign(w http.ResponseWriter, r *http.Request) {
	var d design.Design
	if err := m.doReq(r, r.PathValue("name"), func(s *session.DesignSession) error {
		d = s.Design()
		return nil
	}); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

func (m *Manager) handleCosts(w http.ResponseWriter, r *http.Request) {
	blob, err := m.CostsJSON(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSONBytes(w, http.StatusOK, blob)
}

func (m *Manager) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, err := strconv.Atoi(r.PathValue("q"))
	if err != nil {
		writeError(w, fmt.Errorf("serve: query number %q is not an integer", r.PathValue("q")))
		return
	}
	var text string
	if err := m.doReq(r, r.PathValue("name"), func(s *session.DesignSession) error {
		var err error
		text, err = s.Explain(q - 1)
		return err
	}); err != nil {
		if strings.Contains(err.Error(), "no query") {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
			return
		}
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, text)
}

func (m *Manager) handleSuggest(w http.ResponseWriter, r *http.Request) {
	var req SuggestRequest
	if err := decodeBody(r, &req, true); err != nil {
		writeError(w, err)
		return
	}
	opts := recommend.Options{Objects: recommend.ObjectsIndexes, Strategy: recommend.StrategyGreedy}
	if req.BudgetMB > 0 {
		opts.StorageBudget = int64(req.BudgetMB) << 20
	}
	var resp *SuggestResponse
	if err := m.doReq(r, r.PathValue("name"), func(s *session.DesignSession) error {
		// The request context threads into the pricing batches, so a
		// disconnected client aborts the in-flight advisor run.
		res, err := s.Recommend(r.Context(), opts)
		if err != nil {
			return err
		}
		rr := recommendResult(res)
		resp = &SuggestResponse{
			Indexes:    rr.Indexes,
			BenefitPct: rr.BenefitPct,
			Speedup:    rr.Speedup,
			SizeBytes:  rr.SizeBytes,
			Candidates: res.Candidates,
			MemoHits:   rr.MemoHits,
		}
		return nil
	}); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (m *Manager) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	var st session.Stats
	if err := m.doReq(r, r.PathValue("name"), func(s *session.DesignSession) error {
		st = s.Stats()
		return nil
	}); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
