package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/durable"
	"repro/internal/ingest"
	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/session"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	ErrNotFound = errors.New("serve: no such session")
	ErrExists   = errors.New("serve: session already exists")
	// ErrCapacity means the manager is full and every resident
	// session is currently serving a request, so none can be evicted.
	ErrCapacity = errors.New("serve: session capacity exhausted")
	// ErrDegraded means a journal append failed under -fsync always:
	// the node refuses mutations until restart.
	ErrDegraded = errors.New("serve: journal append failed; read-only until restart")
)

// Options configure a Manager.
type Options struct {
	// MaxSessions caps resident sessions. Creating one past the cap
	// evicts the least-recently-used idle session; if every session
	// is busy the create fails with ErrCapacity. 0 means
	// DefaultMaxSessions.
	MaxSessions int
	// IdleTTL evicts sessions idle this long (0 = never). The Server
	// sweeps on a timer; Create also sweeps opportunistically.
	IdleTTL time.Duration
	// Workers is the default per-session recommend pricing
	// parallelism (session.Options.Workers) for sessions created
	// without an explicit worker count.
	Workers int
	// DrainTimeout bounds graceful shutdown: in-flight requests get
	// this long to finish before the listener is torn down. 0 means
	// DefaultDrainTimeout.
	DrainTimeout time.Duration
	// WindowCapacity bounds each session's streaming-workload window
	// (distinct canonical queries). 0 means ingest.DefaultCapacity.
	WindowCapacity int
	// WindowHalfLife is the exponential-decay half-life of each
	// session window's query weights. 0 means ingest.DefaultHalfLife;
	// negative disables decay.
	WindowHalfLife time.Duration
	// Pprof mounts net/http/pprof's handlers under /debug/pprof/ on
	// the service mux, so hot-path CPU and allocation profiles can be
	// captured from a live service. Off by default: the profile
	// endpoints are unauthenticated and can pause the process.
	Pprof bool
	// MemoCap bounds the shared pricing memo: each of its tiers
	// (priced query states, plain costs) keeps at most roughly this
	// many entries, CLOCK-evicting the coldest when full (see
	// session.NewSharedMemoBounded). 0 — the default — leaves the memo
	// unbounded: every state ever priced stays resident for the
	// manager's lifetime.
	MemoCap int
	// Logger receives structured lifecycle events (session create/
	// evict, job start/finish, tuner retunes) and the slow-request
	// log. nil disables logging entirely (obs.NopLogger).
	Logger *slog.Logger
	// SlowRequest is the slow-request threshold: requests slower than
	// this emit a warn-level structured log with the span's plan-call
	// and memo-outcome accounting. 0 disables the slow log.
	SlowRequest time.Duration
	// Metrics is the registry the manager instruments into; nil gets a
	// private fresh registry (so concurrent managers in tests never
	// share counters). GET /metrics exports it followed by obs.Default
	// (package-level costlab instrumentation).
	Metrics *obs.Registry
	// DisableMetrics removes the GET /metrics endpoint (the registry
	// still populates — /stats reads through it either way).
	DisableMetrics bool

	// DataDir, when non-empty, makes the manager durable: every
	// acknowledged state change is journaled to a WAL under the
	// directory, snapshots fold it up, and NewManagerDurable recovers
	// the whole service state on boot (see durability.go). Empty — the
	// default — keeps the manager purely in-memory.
	DataDir string
	// Fsync is the WAL group-commit policy (durable.SyncAlways — the
	// zero value — waits for fsync before acknowledging each journaled
	// record; see durable.Policy).
	Fsync durable.Policy
	// FsyncInterval is the flush cadence under durable.SyncInterval
	// (0 = durable.DefaultInterval).
	FsyncInterval time.Duration
	// WalSegmentBytes rotates WAL segments past this size
	// (0 = durable.DefaultSegmentBytes).
	WalSegmentBytes int64
	// SnapshotInterval is the Server's periodic-snapshot cadence
	// (0 disables the timer; a final snapshot is still written on
	// graceful drain via Manager.Close).
	SnapshotInterval time.Duration
}

// DefaultMaxSessions is the session cap when Options.MaxSessions is 0.
const DefaultMaxSessions = 64

// DefaultDrainTimeout is the graceful-shutdown bound when
// Options.DrainTimeout is 0.
const DefaultDrainTimeout = 10 * time.Second

// Manager owns N named design sessions over one shared read-only
// catalog and one shared cross-session pricing memo. Requests to one
// session serialize on that session's lock (DesignSession is
// single-threaded by design); requests to different sessions run in
// parallel. The shared memo means pricing work is pooled: an edit one
// tenant priced is memo-served to every tenant that repeats it, and a
// fresh session over the default workload boots without a single
// optimizer call once any session has priced the base design.
//
// Eviction (capacity LRU and idle TTL) only ever removes sessions
// with no request in flight or queued: a request registers itself
// under the manager lock before touching the session, so eviction can
// never race an in-flight edit.
type Manager struct {
	cat       *catalog.Catalog
	defaultWL []string
	shared    *session.SharedMemo
	opts      Options
	now       func() time.Time // test seam

	// Observability: the metric registry, the pre-resolved handles the
	// request path uses, and the structured logger (never nil).
	reg *obs.Registry
	met *metrics
	log *slog.Logger

	// The default workload is parsed at most once; every tenant created
	// without an explicit workload shares the parsed form (sessions
	// never mutate it), so a create skips the per-query
	// parse/footprint/print work entirely.
	defWLOnce sync.Once
	defWL     *session.Workload
	defWLErr  error

	// winSyms is the canonical-SQL interning table shared by every
	// tenant's ingest window: one copy of each distinct streamed query
	// process-wide.
	winSyms *intern.Table

	costsCacheHits atomic.Int64 // costs responses served from tenant byte caches

	mu          sync.Mutex
	tenants     map[string]*tenant
	clock       uint64 // LRU tick, bumped on every touch
	evictions   int64  // capacity (LRU) evictions
	expirations int64  // idle-TTL evictions
	created     int64  // sessions ever created

	// Asynchronous recommendation jobs (see jobs.go). Guarded by their
	// own lock: job polling must never contend with session traffic.
	jobMu  sync.Mutex
	jobs   map[string]*recommendJob
	jobSeq int64

	// dur is the persistence sidecar (nil without Options.DataDir; see
	// durability.go).
	dur *durability
}

// tenant is one named session plus the bookkeeping the manager needs
// to serialize and evict it.
type tenant struct {
	name string
	mu   sync.Mutex // serializes every use of s

	// s is set (under mu) once creation finishes; a waiter that
	// acquires mu and finds it nil raced a failed creation.
	s *session.DesignSession

	// win is the session's streaming-workload window. It is itself
	// concurrency-safe, so the ingest hot path never takes tenant.mu
	// — millions of submissions must not serialize with pricing.
	win *ingest.Window

	// Cached marshaled /costs response and the design signature it was
	// built under (the response is byte-deterministic given workload
	// and signature, see CostsResponse). Guarded by tenant.mu.
	costsSig  string
	costsJSON []byte

	// Guarded by Manager.mu, NOT tenant.mu:
	inflight int       // requests holding or queued on tenant.mu
	lastUsed time.Time // completion time of the last request
	tick     uint64    // LRU ordinal of that completion
}

// NewManager returns a manager whose sessions plan against cat and
// default to defaultWorkload when a create names no queries. It panics
// if Options.DataDir is set and recovery fails — durable callers
// should use NewManagerDurable and handle the error.
func NewManager(cat *catalog.Catalog, defaultWorkload []string, opts Options) *Manager {
	m, err := NewManagerDurable(cat, defaultWorkload, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// NewManagerDurable is NewManager with the error surfaced: with
// Options.DataDir set it opens (or creates) the data directory,
// recovers every persisted session, shared-memo state and job record,
// and journals all future changes (see durability.go).
func NewManagerDurable(cat *catalog.Catalog, defaultWorkload []string, opts Options) (*Manager, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	lg := opts.Logger
	if lg == nil {
		lg = obs.NopLogger()
	}
	m := &Manager{
		cat:       cat,
		defaultWL: defaultWorkload,
		shared:    session.NewSharedMemoBounded(opts.MemoCap),
		opts:      opts,
		now:       time.Now,
		reg:       reg,
		met:       newMetrics(reg),
		log:       lg,
		winSyms:   intern.NewTable(),
		tenants:   map[string]*tenant{},
		jobs:      map[string]*recommendJob{},
	}
	m.registerViews()
	if opts.DataDir != "" {
		if err := m.openDurable(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Metrics exposes the manager's registry (tests, embedding servers).
func (m *Manager) Metrics() *obs.Registry { return m.reg }

// defaultWorkload parses the manager's default workload once and
// caches the shared parsed form.
func (m *Manager) defaultWorkload() (*session.Workload, error) {
	m.defWLOnce.Do(func() {
		m.defWL, m.defWLErr = session.ParseWorkload(m.defaultWL)
	})
	return m.defWL, m.defWLErr
}

// Shared exposes the cross-session pricing memo (for stats).
func (m *Manager) Shared() *session.SharedMemo { return m.shared }

func (m *Manager) maxSessions() int {
	if m.opts.MaxSessions <= 0 {
		return DefaultMaxSessions
	}
	return m.opts.MaxSessions
}

// Create opens session name. workloadSQL nil means the manager's
// default workload; workers 0 means the manager's default. The
// expensive part — base pricing — runs outside the manager lock, so
// concurrent creates of different sessions proceed in parallel (and
// after the first create over a given workload, the shared memo makes
// the pricing free anyway).
func (m *Manager) Create(name string, workloadSQL []string, workers int) error {
	start := time.Now()
	if err := validateSessionName(name); err != nil {
		return err
	}
	m.mu.Lock()
	m.sweepLocked(m.now())
	if _, ok := m.tenants[name]; ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	if m.dur != nil && m.dur.hasDormant(name) {
		// The name exists durably but was evicted: a re-create restores
		// the persisted session instead of starting empty — eviction is
		// a residency decision, not a drop (Drop deletes durable state).
		m.mu.Unlock()
		return m.rehydrate(name)
	}
	var ds *durSession
	var createRec *walRecord
	t, err := m.installLocked(name, "create", workloadSQL, workers, session.History{}, func() error {
		m.created++
		if m.dur != nil {
			// Register the durable session while m.mu is still held, so
			// a Drop racing this create always finds it to tombstone;
			// the record itself is appended outside the lock.
			ds, createRec = m.journalCreateLocked(name, workloadSQL, workers)
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer t.mu.Unlock()
	var appendErr error
	if createRec != nil {
		appendErr = m.walAppend(createRec, true)
		m.attachJournal(name, ds, t.s)
	}
	// Stats are safe to read here: t.mu is still held, so no other
	// request has touched the fresh session. A create served wholly
	// by the shared memo logs planCalls=0 — the pooled-pricing win.
	st := t.s.Stats()
	m.log.Info("session created",
		"session", name, "queries", len(t.s.Queries()),
		"elapsedMs", float64(time.Since(start).Microseconds())/1e3,
		"planCalls", st.PlanCalls, "sharedHits", st.SharedHits)
	return appendErr
}

// installLocked is the one way a tenant comes to life, for a create (of
// the empty history) and a rehydrate alike. Called with m.mu held and
// name absent, it makes room, registers a placeholder whose lock it
// holds and whose inflight counts the build (requests queue on it;
// eviction passes it by), and releases m.mu. The session is built and
// Restored to hist outside the lock, then commit runs under it. On
// success the tenant comes back with its session set and still locked,
// so the caller journals before any queued request runs; on failure
// only OUR placeholder goes, as a Drop + re-Create may own the name.
func (m *Manager) installLocked(name, verb string, workloadSQL []string, workers int, hist session.History, commit func() error) (*tenant, error) {
	if len(m.tenants) >= m.maxSessions() && !m.evictLRULocked() {
		n := len(m.tenants)
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d sessions, all busy)", ErrCapacity, n)
	}
	t := &tenant{
		name: name,
		win: ingest.NewWindow(ingest.Options{
			Capacity: m.opts.WindowCapacity,
			HalfLife: m.opts.WindowHalfLife,
			Symbols:  m.winSyms,
		}),
	}
	m.touchLocked(t)
	t.inflight++
	t.mu.Lock()
	m.tenants[name] = t
	m.mu.Unlock()

	s, err := m.buildSession(workloadSQL, workers)
	if err == nil {
		err = s.Restore(hist)
	}

	m.mu.Lock()
	t.inflight--
	if err == nil {
		err = commit()
	}
	if err == nil {
		t.s = s
		m.touchLocked(t)
	} else if m.tenants[name] == t {
		delete(m.tenants, name)
	}
	m.mu.Unlock()
	if err != nil {
		t.mu.Unlock()
		m.log.Warn("session "+verb+" failed", "session", name, "error", err.Error())
		return nil, fmt.Errorf("serve: %s session %q: %w", verb, name, err)
	}
	return t, nil
}

// touchLocked stamps t as just used, for LRU and idle TTL. Requires m.mu.
func (m *Manager) touchLocked(t *tenant) {
	t.lastUsed = m.now()
	t.tick = m.clock
	m.clock++
}

// validateSessionName rejects names that don't round-trip through a
// URL path segment: every per-session route embeds the name as one
// segment, so a name containing '/', '%', '?', '#' or whitespace would
// parse as a different route (or a different session) than the one the
// create named — a silent mis-route, or worse, a spoofed one. The name
// must be byte-identical to its own path-segment escaping, and must
// also survive URL path cleaning: "." and ".." escape to themselves
// but are collapsed by ServeMux's redirect-cleaning, which would route
// a session named "." onto a sibling's namespace.
func validateSessionName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: session name must not be empty")
	}
	if name == "." || name == ".." {
		return fmt.Errorf("serve: session name %q does not survive URL path cleaning", name)
	}
	if url.PathEscape(name) != name {
		return fmt.Errorf("serve: session name %q is not a clean URL path segment (no '/', '%%', '?', '#' or whitespace)", name)
	}
	return nil
}

// enter registers a request on tenant name, the one lookup every
// request path shares: until leave runs, inflight > 0 keeps the tenant
// unevictable, and leave counts as a touch. A dormant durable session
// (evicted, not dropped) is rehydrated once on the way in — eviction
// reclaims memory, never state.
func (m *Manager) enter(name string) (*tenant, func(), error) {
	for retried := false; ; retried = true {
		m.mu.Lock()
		if t, ok := m.tenants[name]; ok {
			t.inflight++
			m.mu.Unlock()
			return t, func() {
				m.mu.Lock()
				t.inflight--
				m.touchLocked(t)
				m.mu.Unlock()
			}, nil
		}
		m.mu.Unlock()
		if retried || m.dur == nil || !m.dur.hasDormant(name) {
			return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		if err := m.rehydrate(name); err != nil {
			return nil, nil, err
		}
	}
}

// WindowAcquire returns session name's streaming-workload window. The
// window is concurrency-safe, so callers ingest into it without the
// session lock — ingest runs concurrently with pricing. Until release
// is called the tenant stays unevictable, so a capacity or idle-TTL
// eviction can never detach the window mid-batch and silently swallow
// acknowledged queries; release counts as a touch. (An explicit Drop
// mid-request orphans the window, exactly as Do's contract orphans the
// session.)
func (m *Manager) WindowAcquire(name string) (win *ingest.Window, release func(), err error) {
	t, release, err := m.enter(name)
	if err != nil {
		return nil, nil, err
	}
	return t.win, release, nil
}

// windowPeek returns session name's window WITHOUT counting as a
// touch — the continuous tuner polls through it, and a background
// poll must not keep an otherwise-idle session resident forever.
func (m *Manager) windowPeek(name string) (*ingest.Window, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[name]
	if !ok {
		return nil, false
	}
	return t.win, true
}

// acquire is enter plus the session lock, taken after registering. A
// request that queued behind a failed build finds no session there.
func (m *Manager) acquire(name string) (*tenant, func(), error) {
	t, leave, err := m.enter(name)
	if err != nil {
		return nil, nil, err
	}
	t.mu.Lock()
	release := func() {
		t.mu.Unlock()
		leave()
	}
	if t.s == nil {
		release()
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return t, release, nil
}

// Do runs fn with exclusive access to session name. Calls against one
// session are serialized in arrival order (sync.Mutex queueing);
// calls against different sessions run concurrently. fn must not
// retain the session past its return.
func (m *Manager) Do(name string, fn func(*session.DesignSession) error) error {
	t, release, err := m.acquire(name)
	if err != nil {
		return err
	}
	defer release()
	return fn(t.s)
}

// CostsJSON returns the session's marshaled /costs response (with
// trailing newline), serving a cached copy whenever the design
// signature still matches the one the cache was built under.
// CostsResponse is byte-deterministic given workload and signature,
// so the cached bytes are exactly what a rebuild would produce — but
// without re-walking 30 query states and re-encoding them on every
// poll of an unchanged design. The returned slice is shared; callers
// must not modify it.
func (m *Manager) CostsJSON(name string) ([]byte, error) {
	t, release, err := m.acquire(name)
	if err != nil {
		return nil, err
	}
	defer release()
	sig := t.s.Signature()
	if t.costsJSON != nil && t.costsSig == sig {
		m.costsCacheHits.Add(1)
		return t.costsJSON, nil
	}
	blob, err := marshalBody(costsResponse(t.s))
	if err != nil {
		return nil, err
	}
	t.costsSig, t.costsJSON = sig, blob
	return blob, nil
}

// Drop removes session name immediately — including its durable
// state: unlike eviction, which only reclaims memory and leaves the
// session rehydratable, a drop is the client saying the session is
// gone for good. A request already in flight on it finishes against
// the orphaned session object. Dormant (evicted-but-durable) sessions
// are droppable too.
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	_, live := m.tenants[name]
	delete(m.tenants, name)
	m.mu.Unlock()
	persisted := false
	if m.dur != nil {
		// Journaled outside m.mu: the drop record's fsync must not
		// serialize the whole manager.
		var err error
		if persisted, err = m.journalDrop(name); err != nil {
			return err
		}
	}
	if !live && !persisted {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	m.log.Info("session dropped", "session", name)
	return nil
}

// evictLRULocked removes the least-recently-used idle session.
// Requires m.mu. Reports whether a session was evicted.
func (m *Manager) evictLRULocked() bool {
	var victim *tenant
	for _, t := range m.tenants {
		if t.inflight > 0 {
			continue // never evict a session with a request in flight
		}
		if victim == nil || t.tick < victim.tick {
			victim = t
		}
	}
	if victim == nil {
		return false
	}
	m.evictLocked(victim, "lru")
	m.evictions++
	return true
}

// sweepLocked evicts idle-TTL-expired sessions. Requires m.mu.
func (m *Manager) sweepLocked(now time.Time) int {
	if m.opts.IdleTTL <= 0 {
		return 0
	}
	n := 0
	for _, t := range m.tenants {
		if t.inflight == 0 && now.Sub(t.lastUsed) >= m.opts.IdleTTL {
			m.evictLocked(t, "ttl")
			m.expirations++
			n++
		}
	}
	return n
}

// Sweep evicts idle-TTL-expired sessions and reports how many.
func (m *Manager) Sweep() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweepLocked(m.now())
}

// Len reports the resident session count.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tenants)
}

// SessionEntry is one resident session's manager-level metadata.
// Session internals (design, costs) are behind the per-session lock
// and served by the per-session endpoints instead.
type SessionEntry struct {
	Name     string  `json:"name"`
	Inflight int     `json:"inflight"`           // requests holding or queued
	IdleSecs float64 `json:"idleSeconds"`        // since the last completed request
	Creating bool    `json:"creating,omitempty"` // base pricing still running
}

// List returns the resident sessions sorted by name.
func (m *Manager) List() []SessionEntry {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SessionEntry, 0, len(m.tenants))
	for _, t := range m.tenants {
		out = append(out, SessionEntry{
			Name:     t.name,
			Inflight: t.inflight,
			IdleSecs: now.Sub(t.lastUsed).Seconds(),
			Creating: t.s == nil,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ManagerStats is the service-wide observability snapshot.
type ManagerStats struct {
	Sessions    int   `json:"sessions"`
	MaxSessions int   `json:"maxSessions"`
	Created     int64 `json:"created"`     // sessions ever created
	Evictions   int64 `json:"evictions"`   // capacity (LRU) evictions
	Expirations int64 `json:"expirations"` // idle-TTL evictions
	// RecommendJobs counts resident recommendation jobs (running or
	// finished but not yet deleted).
	RecommendJobs int `json:"recommendJobs"`

	// Shared is the cross-session memo: Hits are repricings some
	// tenant got for free, DupStores is pricing work tenants
	// duplicated by racing (the singleflight tier pins it at zero —
	// concurrent demand shows up as InflightWaits/CoalescedPlanCalls
	// instead), Evictions/ShardSizes watch the -memo-cap bound.
	Shared session.SharedStats `json:"shared"`
	// SharedCostEntries is the cost tier's size (advisor warm-start
	// pool); SharedCostEvictions its -memo-cap eviction count.
	SharedCostEntries   int   `json:"sharedCostEntries"`
	SharedCostEvictions int64 `json:"sharedCostEvictions"`
	// CostsCacheHits counts /costs responses served from a tenant's
	// cached bytes instead of a rebuild.
	CostsCacheHits int64 `json:"costsCacheHits"`
	// RecommendEvalsSkipped / RecommendJobsPruned total the lazy-sweep
	// savings across all recommend jobs: candidate evaluations served
	// from the gain cache and pricing jobs never built (footprint
	// pruning). Mirrors parinda_recommend_evals_skipped_total /
	// parinda_recommend_jobs_pruned_total on /metrics.
	RecommendEvalsSkipped int64 `json:"recommendEvalsSkipped"`
	RecommendJobsPruned   int64 `json:"recommendJobsPruned"`
	// Durability is the WAL/snapshot/recovery block (nil without
	// -data-dir; see durability.go).
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// Stats returns the manager-wide counters.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	n := len(m.tenants)
	created, ev, exp := m.created, m.evictions, m.expirations
	m.mu.Unlock()
	sh := m.shared.Stats()
	return ManagerStats{
		Sessions:              n,
		MaxSessions:           m.maxSessions(),
		Created:               created,
		Evictions:             ev,
		Expirations:           exp,
		RecommendJobs:         m.recommendJobCount(),
		Shared:                sh,
		SharedCostEntries:     sh.Costs.Entries,
		SharedCostEvictions:   sh.Costs.Evictions,
		CostsCacheHits:        m.costsCacheHits.Load(),
		RecommendEvalsSkipped: m.met.evalsSkipped.Value(),
		RecommendJobsPruned:   m.met.jobsPruned.Value(),
		Durability:            m.durabilityStats(),
	}
}
