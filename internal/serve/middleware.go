package serve

// HTTP observability: the middleware every request passes through
// (request id, tracing span, latency histogram, slow-request log,
// response headers), the bounded route/tenant labeling that keeps
// metric cardinality finite, and the GET /metrics exporter. The
// metric families registered here plus the CounterFunc/GaugeFunc
// views in views.go are the service's whole metric surface; /stats
// reads the same underlying counters, so the two endpoints cannot
// disagree.

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// metrics holds the serve layer's pre-resolved metric handles; the
// per-request path touches only these and the get-or-create calls for
// labeled series.
type metrics struct {
	reg *obs.Registry

	httpSeconds  *obs.Histogram
	httpInflight *obs.Gauge
	slowRequests *obs.Counter

	// Memo-outcome attribution aggregated from request spans: how the
	// states each request needed were satisfied.
	pricingShared, pricingLed, pricingCoalesced *obs.Counter

	ingestAccepted, ingestRejected *obs.Counter
	tunerRetunes, tunerErrors      *obs.Counter
	jobsStarted                    *obs.Counter
	// Lazy-sweep savings aggregated across recommend jobs (see
	// internal/recommend/lazy.go): evaluations served from the gain
	// cache and pricing jobs never built.
	evalsSkipped, jobsPruned *obs.Counter

	// Tenant label admission: past maxTenantSeries distinct names,
	// per-tenant series fold into tenant="other" so a tenant-churning
	// workload cannot grow /metrics without bound.
	mu      sync.Mutex
	tenants map[string]bool
}

// maxTenantSeries bounds distinct tenant label values (strictly more
// than the session cap, so steady-state fleets are always attributed
// by name).
const maxTenantSeries = 512

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		reg:          reg,
		httpSeconds:  reg.Histogram("parinda_http_request_seconds", "HTTP request latency."),
		httpInflight: reg.Gauge("parinda_http_inflight_requests", "Requests currently being served."),
		slowRequests: reg.Counter("parinda_http_slow_requests_total", "Requests slower than the -slow-ms threshold."),
		pricingShared: reg.Counter("parinda_pricing_states_total",
			"Query states requests needed, by how each was satisfied.", "outcome", "shared_hit"),
		pricingLed: reg.Counter("parinda_pricing_states_total",
			"Query states requests needed, by how each was satisfied.", "outcome", "led"),
		pricingCoalesced: reg.Counter("parinda_pricing_states_total",
			"Query states requests needed, by how each was satisfied.", "outcome", "coalesced"),
		ingestAccepted: reg.Counter("parinda_ingest_accepted_total", "Streamed queries accepted into a window."),
		ingestRejected: reg.Counter("parinda_ingest_rejected_total", "Streamed queries that failed to parse."),
		tunerRetunes:   reg.Counter("parinda_tuner_retunes_total", "Continuous-tuner retunes published."),
		tunerErrors:    reg.Counter("parinda_tuner_check_errors_total", "Continuous-tuner checks that failed."),
		jobsStarted:    reg.Counter("parinda_recommend_jobs_started_total", "Recommend jobs ever started."),
		evalsSkipped: reg.Counter("parinda_recommend_evals_skipped_total",
			"Candidate evaluations recommend jobs served from the lazy gain cache."),
		jobsPruned: reg.Counter("parinda_recommend_jobs_pruned_total",
			"Pricing jobs recommend jobs never built thanks to footprint pruning."),
		tenants: map[string]bool{},
	}
}

// tenantLabel admits name as a tenant label value, or folds it into
// "other" once the admission set is full.
func (mt *metrics) tenantLabel(name string) string {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if mt.tenants[name] {
		return name
	}
	if len(mt.tenants) >= maxTenantSeries {
		return "other"
	}
	mt.tenants[name] = true
	return name
}

// jobFinished bumps the terminal-state counter for a recommend job.
func (mt *metrics) jobFinished(state string) {
	mt.reg.Counter("parinda_recommend_jobs_finished_total",
		"Recommend jobs reaching a terminal state.", "state", state).Inc()
}

// recordSpan folds one finished request's span into the aggregate
// memo-outcome and per-tenant counters.
func (mt *metrics) recordSpan(sp *obs.Span) {
	mt.pricingShared.Add(sp.SharedHits())
	mt.pricingLed.Add(sp.Led())
	mt.pricingCoalesced.Add(sp.Coalesced())
	if sp.Tenant == "" {
		return
	}
	tenant := mt.tenantLabel(sp.Tenant)
	mt.reg.Counter("parinda_tenant_requests_total",
		"Requests addressed to a session, by tenant.", "tenant", tenant).Inc()
	if pc := sp.PlanCalls(); pc > 0 {
		mt.reg.Counter("parinda_tenant_plan_calls_total",
			"Full optimizer invocations attributed to a tenant's requests.", "tenant", tenant).Add(pc)
	}
}

// routePattern maps a request path to a bounded route label (path
// parameters collapsed to placeholders) plus the tenant name when the
// path addresses a session. Unknown shapes collapse to "other" so
// probe traffic cannot mint series.
func routePattern(path string) (route, tenant string) {
	p := strings.TrimPrefix(path, "/")
	switch {
	case p == "healthz", p == "stats", p == "metrics", p == "sessions":
		return "/" + p, ""
	case strings.HasPrefix(p, "debug/pprof"):
		return "/debug/pprof", ""
	case strings.HasPrefix(p, "sessions/"):
		rest := p[len("sessions/"):]
		name, sub, _ := strings.Cut(rest, "/")
		if name == "" {
			return "/sessions", ""
		}
		if sub == "" {
			return "/sessions/{name}", name
		}
		head, _, hasTail := strings.Cut(sub, "/")
		switch head {
		case "costs", "design", "indexes", "nestloop", "undo", "redo",
			"suggest", "ingest", "window", "stats":
			if !hasTail {
				return "/sessions/{name}/" + head, name
			}
		case "explain":
			return "/sessions/{name}/explain/{q}", name
		case "partitions":
			if !hasTail {
				return "/sessions/{name}/partitions", name
			}
			return "/sessions/{name}/partitions/{table}", name
		case "recommend":
			if !hasTail {
				return "/sessions/{name}/recommend", name
			}
			return "/sessions/{name}/recommend/{job}", name
		}
		return "/sessions/{name}/other", name
	}
	return "other", ""
}

// respWriter stamps the per-request accounting headers on the first
// write: by then every handler has finished its session work, so the
// span totals are final.
type respWriter struct {
	http.ResponseWriter
	sp     *obs.Span
	status int
}

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		h := w.Header()
		h.Set("X-Plan-Calls", strconv.FormatInt(w.sp.PlanCalls(), 10))
		h.Set("X-Wall-Micros", strconv.FormatInt(time.Since(w.sp.Start).Microseconds(), 10))
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// instrument is the observability middleware: request id + span into
// the context (X-Request-ID out), latency histogram, per-route and
// per-tenant counters, and the structured slow-request log.
func (m *Manager) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, tenant := routePattern(r.URL.Path)
		sp := obs.NewSpan(obs.NewRequestID(), tenant, r.Method+" "+route)
		r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		w.Header().Set("X-Request-ID", sp.ID)
		rw := &respWriter{ResponseWriter: w, sp: sp}

		m.met.httpInflight.Add(1)
		next.ServeHTTP(rw, r)
		m.met.httpInflight.Add(-1)

		dur := time.Since(sp.Start)
		code := rw.status
		if code == 0 {
			code = http.StatusOK
		}
		m.met.reg.Counter("parinda_http_requests_total", "HTTP requests served.",
			"method", r.Method, "route", route, "code", strconv.Itoa(code)).Inc()
		m.met.httpSeconds.Observe(dur)
		m.met.recordSpan(sp)

		slow := m.opts.SlowRequest
		isSlow := slow > 0 && dur >= slow
		if isSlow {
			m.met.slowRequests.Inc()
		}
		if isSlow || m.log.Enabled(r.Context(), slog.LevelDebug) {
			attrs := []any{
				"requestId", sp.ID,
				"method", r.Method,
				"route", route,
				"tenant", tenant,
				"status", code,
				"elapsedMs", float64(dur.Microseconds()) / 1e3,
				"planCalls", sp.PlanCalls(),
				"sharedHits", sp.SharedHits(),
				"led", sp.Led(),
				"coalesced", sp.Coalesced(),
			}
			if isSlow {
				m.log.Warn("slow request", attrs...)
			} else {
				m.log.Debug("request", attrs...)
			}
		}
	})
}

// handleMetrics serves the Prometheus text exposition: the manager's
// registry (HTTP, sessions, memo, flight, ingest, jobs) followed by
// the process-wide obs.Default (costlab backend latency). Family
// names are disjoint by construction, so concatenation is a valid
// exposition.
func (m *Manager) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	if err := m.reg.WriteText(w); err != nil {
		return // client went away mid-scrape
	}
	if obs.Default != m.reg {
		_ = obs.Default.WriteText(w)
	}
}
