package serve

// Durability: the serve tier's crash-safety layer over internal/durable.
//
// Every state change a client was acknowledged for is journaled to an
// append-only WAL as a JSON record — session create/drop, every
// committed design edit (including undo/redo markers), shared-memo
// state publications, and recommend-job lifecycle transitions — and
// the whole service state is periodically folded into an atomic
// snapshot (on a timer and on graceful drain). Recovery loads the
// newest valid snapshot and replays the WAL suffix on top of it.
//
// Sessions are persisted as the workload + worker count that opened
// them plus their session.History, which the journal hook keeps as the
// session's own value (never changed once handed out, so a snapshot
// marshals it as is) and WAL replay advances with History.Apply. A
// rebuild Restores it into a fresh session — one move to the current
// state, priced from the restored shared memo, so zero optimizer plan
// calls when warm. Only explains may number the what-if indexes
// differently than before the restart.
//
// Records are deduplicated on replay rather than strictly ordered on
// disk: appends from different requests may land in the WAL out of
// global-sequence order (each record carries its sequence G, assigned
// under the durability lock, but the file write happens outside it).
// Session records carry an incarnation id (the create record's G) and
// a per-incarnation edit sequence; a create applies only when no drop
// tombstone with an equal-or-newer incarnation exists, an edit only to
// its own incarnation with a strictly advancing sequence, and job
// records are last-writer-wins by G. Shared-state records are
// idempotent (first key wins). Applying a record twice — which the
// snapshot-cut protocol allows by design — is therefore always safe.
//
// Ingest windows are persisted in snapshots only, not the WAL: the
// ingest hot path must not pay a journal write per query, and a
// decayed sliding window losing its post-snapshot suffix is benign.
//
// Under -fsync=always the happy path is durable-before-ack: the
// session's onRecord hook fires synchronously inside the edit, before
// the HTTP response. A failed append there (disk full, store closed)
// is never acknowledged: the request answers 503 and the node turns
// read-only (degraded) until restart — every later mutation answers
// 503 before touching its tenant, reads keep working, /healthz
// answers 503 and parinda_wal_degraded reads 1. Under interval and
// off, where an ack never promised durability, a failed append
// degrades to a counter (parinda_wal_errors_total) and a log line.
//
// Lock order: Manager.mu, jobMu or a tenant's mu may be held when
// taking durability.mu — never the reverse — and durability.mu is
// never held across a WAL file write.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/session"
)

// WAL record types.
const (
	walCreate = "create"
	walEdit   = "edit"
	walDrop   = "drop"
	walState  = "state"
	walJob    = "job"
	walJobDel = "jobdel"
)

// walRecord is one journaled state change (JSON payload of one WAL
// frame). Exactly the fields for its type are set.
type walRecord struct {
	T string `json:"t"`
	// G is the record's global sequence, assigned under durability.mu.
	// File order may diverge from G order; replay dedups by G (see the
	// package comment). Shared-state records carry no G — they are
	// idempotent.
	G       uint64 `json:"g,omitempty"`
	Session string `json:"session,omitempty"`
	// Inc is the session incarnation (the create record's G): edits and
	// drops bind to the incarnation they were journaled against, so a
	// drop-then-recreate never mixes eras.
	Inc      uint64              `json:"inc,omitempty"`
	Seq      uint64              `json:"seq,omitempty"` // per-incarnation edit sequence
	Workload []string            `json:"workload,omitempty"`
	Workers  int                 `json:"workers,omitempty"`
	Edit     *session.EditRecord `json:"edit,omitempty"`

	State *session.SharedState `json:"state,omitempty"`

	Job         *RecommendJobStatus `json:"job,omitempty"`
	JobStarted  int64               `json:"jobStarted,omitempty"`  // unix ms
	JobFinished int64               `json:"jobFinished,omitempty"` // unix ms
	JobID       string              `json:"jobId,omitempty"`       // jobdel target
}

// snapshotFile is the atomic snapshot's JSON payload: the whole
// service state at one (weakly consistent) instant, safe to combine
// with any WAL suffix from the snapshot's cut onward.
type snapshotFile struct {
	Version  int                   `json:"version"`
	WalSeq   uint64                `json:"walSeq"`
	Sessions []durSession          `json:"sessions,omitempty"`
	States   []session.SharedState `json:"states,omitempty"`
	Jobs     []durJobRecord        `json:"jobs,omitempty"`
	JobSeq   int64                 `json:"jobSeq,omitempty"`
}

// snapshotVersion 2 stores each session's history; version 1 stored
// the op log (Ops), which a boot folds into a history.
const snapshotVersion = 2

// durSession is one session's durable state — its opening parameters
// plus the history that rebuilds it — in memory and, copied, in a
// snapshot. In memory Name, Inc, Workload and Workers are immutable
// after construction and the rest is guarded by durability.mu.
type durSession struct {
	Name     string               `json:"name"`
	Inc      uint64               `json:"inc"`
	Seq      uint64               `json:"seq,omitempty"`
	Workload []string             `json:"workload,omitempty"` // nil = the server default
	Workers  int                  `json:"workers,omitempty"`
	Hist     session.History      `json:"history"`
	Ops      []session.EditRecord `json:"ops,omitempty"`    // version 1 snapshots only; folded into Hist on boot
	Window   []ingest.Entry       `json:"window,omitempty"` // stashed at eviction; nil while live
	Dormant  bool                 `json:"dormant,omitempty"`
}

// durJobRecord is one recommend job's durable form.
type durJobRecord struct {
	G          uint64              `json:"g"`
	Status     *RecommendJobStatus `json:"status"`
	StartedMs  int64               `json:"startedMs,omitempty"`
	FinishedMs int64               `json:"finishedMs,omitempty"`
}

// durability is the Manager's persistence sidecar.
type durability struct {
	store     *durable.Store
	fsyncHist *obs.Histogram

	mu       sync.Mutex
	walSeq   uint64 // G high-water mark
	sessions map[string]*durSession

	// snapMu serializes snapshot writers (timer vs drain).
	snapMu         sync.Mutex
	lastSnapWalSeq uint64
	snapped        bool // a snapshot has been written this run

	walErrors      atomic.Int64
	degraded       atomic.Bool // a failed append under -fsync always
	recoverRecords atomic.Int64
	recoverSeconds float64 // written once during recovery, read-only after
}

// noSnapshotYet is the lastSnapWalSeq sentinel forcing the first
// Snapshot of a run to write even when no record has been journaled.
const noSnapshotYet = ^uint64(0)

// nextG assigns the next global record sequence.
func (d *durability) nextG() uint64 {
	d.mu.Lock()
	d.walSeq++
	g := d.walSeq
	d.mu.Unlock()
	return g
}

// dormantCount counts the durable sessions that are not resident.
func (d *durability) dormantCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, ds := range d.sessions {
		if ds.Dormant {
			n++
		}
	}
	return n
}

// hasDormant reports whether name exists durably but is not resident.
func (d *durability) hasDormant(name string) bool {
	d.mu.Lock()
	ds := d.sessions[name]
	ok := ds != nil && ds.Dormant
	d.mu.Unlock()
	return ok
}

// walAppend marshals and appends one record. sync selects the
// group-commit wait (policy permitting). A failure is counted and
// logged; under -fsync always it also turns the node read-only and is
// returned wrapped in ErrDegraded, so the request it belongs to is not
// acknowledged. Under interval and off it returns nil.
func (m *Manager) walAppend(rec *walRecord, sync bool) error {
	blob, err := json.Marshal(rec)
	if err == nil {
		if sync {
			err = m.dur.store.Append(blob)
		} else {
			err = m.dur.store.AppendNoSync(blob)
		}
	}
	if err == nil {
		return nil
	}
	m.dur.walErrors.Add(1)
	m.log.Warn("wal append failed", "type", rec.T, "error", err.Error())
	if m.opts.Fsync != durable.SyncAlways {
		return nil
	}
	m.dur.degraded.Store(true)
	return fmt.Errorf("%w: %v", ErrDegraded, err)
}

// writable answers ErrDegraded once a journal append has failed under
// -fsync always.
func (m *Manager) writable() error {
	if m.dur != nil && m.dur.degraded.Load() {
		return ErrDegraded
	}
	return nil
}

// journalCreateLocked registers a fresh durable session and returns
// it plus the create record to append. Requires m.mu (the registration
// must be atomic with the tenant becoming visible, so a concurrent
// Drop always finds the durSession to tombstone); the caller appends
// the record after releasing m.mu.
func (m *Manager) journalCreateLocked(name string, workload []string, workers int) (*durSession, *walRecord) {
	d := m.dur
	d.mu.Lock()
	d.walSeq++
	g := d.walSeq
	ds := &durSession{Name: name, Inc: g, Workload: append([]string(nil), workload...), Workers: workers}
	d.sessions[name] = ds
	d.mu.Unlock()
	return ds, &walRecord{T: walCreate, G: g, Session: name, Inc: g, Workload: workload, Workers: workers}
}

// attachJournal installs the session's committed-edit observer. Must
// run while the tenant's mu is held (before any other request can
// edit), so no committed edit escapes the journal.
func (m *Manager) attachJournal(name string, ds *durSession, s *session.DesignSession) {
	s.SetOnRecord(func(rec session.EditRecord) {
		d := m.dur
		d.mu.Lock()
		d.walSeq++
		g := d.walSeq
		ds.Seq++
		seq := ds.Seq
		ds.Hist = s.History()
		d.mu.Unlock()
		// A failure turns the node read-only; the edit's handler reads
		// that back through writable before it answers.
		m.walAppend(&walRecord{T: walEdit, G: g, Session: name, Inc: ds.Inc, Seq: seq, Edit: &rec}, true)
	})
}

// journalDrop removes name's durable state and journals the drop.
// Reports whether a durable session existed, and the append's error.
func (m *Manager) journalDrop(name string) (bool, error) {
	d := m.dur
	d.mu.Lock()
	ds := d.sessions[name]
	if ds == nil {
		d.mu.Unlock()
		return false, nil
	}
	delete(d.sessions, name)
	d.walSeq++
	g := d.walSeq
	inc := ds.Inc
	d.mu.Unlock()
	return true, m.walAppend(&walRecord{T: walDrop, G: g, Session: name, Inc: inc}, true)
}

// evictLocked takes idle tenant t out of memory. Its durable session
// turns dormant, stashing the window so a rehydrate restores the
// streamed workload too. Requires m.mu; takes durability.mu inside.
func (m *Manager) evictLocked(t *tenant, reason string) {
	delete(m.tenants, t.name)
	m.log.Info("session evicted", "session", t.name, "reason", reason)
	if d := m.dur; d != nil {
		entries := t.win.Snapshot()
		d.mu.Lock()
		if ds := d.sessions[t.name]; ds != nil {
			ds.Dormant, ds.Window = true, entries
		}
		d.mu.Unlock()
	}
}

// journalJob journals a job's current status (start, terminal
// transition, continuous retune). Callers must not hold job.mu.
func (m *Manager) journalJob(job *recommendJob) {
	if m.dur == nil {
		return
	}
	st := job.status(m.now())
	g := m.dur.nextG()
	job.mu.Lock()
	job.durG = g
	fin := job.finished
	job.mu.Unlock()
	rec := &walRecord{T: walJob, G: g, Job: st, JobStarted: job.started.UnixMilli()}
	if !fin.IsZero() {
		rec.JobFinished = fin.UnixMilli()
	}
	m.walAppend(rec, true)
}

// journalJobDel journals a job deletion tombstone. Appended without a
// group-commit wait: losing a tombstone to a crash merely resurrects
// an already-terminal job as a frozen record, which a client can
// delete again.
func (m *Manager) journalJobDel(id string) {
	if m.dur == nil {
		return
	}
	m.walAppend(&walRecord{T: walJobDel, G: m.dur.nextG(), JobID: id}, false)
}

// buildSession opens a session from its durable parameters, applying
// the same defaulting Create does (workers 0 = server default,
// workload nil = server default).
func (m *Manager) buildSession(workloadSQL []string, workers int) (*session.DesignSession, error) {
	if workers == 0 {
		workers = m.opts.Workers
	}
	sopts := session.Options{Workers: workers, Shared: m.shared}
	if len(workloadSQL) == 0 {
		wl, err := m.defaultWorkload()
		if err != nil {
			return nil, err
		}
		return session.NewFromWorkload(m.cat, wl, sopts)
	}
	return session.New(m.cat, workloadSQL, sopts)
}

// fold advances a recovered history by rec, logging and skipping a
// record that does not apply.
func (m *Manager) fold(name string, h session.History, rec session.EditRecord) session.History {
	next, err := h.Apply(rec)
	if err != nil {
		m.log.Warn("journaled edit does not apply; skipped", "session", name, "error", err.Error())
	}
	return next
}

// rehydrate rebuilds one durable session into a live tenant: a fresh
// session Restored to its history (served by the restored shared memo,
// so a warm rebuild plans nothing) plus its stashed window, installed
// the way Create installs, so concurrent requests queue on the tenant
// lock instead of racing the rebuild.
func (m *Manager) rehydrate(name string) error {
	start := time.Now()
	d := m.dur
	d.mu.Lock()
	ds := d.sessions[name]
	if ds == nil {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	hist, window := ds.Hist, ds.Window
	d.mu.Unlock()

	m.mu.Lock()
	if _, ok := m.tenants[name]; ok {
		// Raced another rehydrate (or a re-create); queue on theirs.
		m.mu.Unlock()
		return nil
	}
	t, err := m.installLocked(name, "rehydrate", ds.Workload, ds.Workers, hist, func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.sessions[name] != ds {
			// Dropped (or dropped and re-created) while we were rebuilding:
			// this incarnation must not resurrect.
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		ds.Dormant, ds.Window = false, nil
		return nil
	})
	if err != nil {
		return err
	}
	defer t.mu.Unlock()
	if len(window) > 0 {
		t.win.Restore(window)
	}
	m.attachJournal(name, ds, t.s)
	st := t.s.Stats()
	m.log.Info("session rehydrated",
		"session", name, "undoDepth", hist.UndoDepth(), "redoDepth", hist.RedoDepth(),
		"elapsedMs", float64(time.Since(start).Microseconds())/1e3,
		"planCalls", st.PlanCalls, "sharedHits", st.SharedHits)
	return nil
}

// Snapshot folds the whole service state into one atomic snapshot and
// prunes the WAL behind it. No-op without -data-dir, and skipped when
// nothing was journaled since the last snapshot of this run. Safe to
// call concurrently with live traffic: the WAL is rotated FIRST, so
// every record racing the state capture is both (possibly) inside the
// snapshot and inside the retained WAL suffix — replay dedups the
// overlap.
func (m *Manager) Snapshot() error {
	if m.dur == nil {
		return nil
	}
	d := m.dur
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	d.mu.Lock()
	unchanged := d.snapped && d.walSeq == d.lastSnapWalSeq
	d.mu.Unlock()
	if unchanged {
		return nil
	}
	cut, err := d.store.Rotate()
	if err != nil {
		return fmt.Errorf("serve: snapshot rotate: %w", err)
	}
	snap := m.buildSnapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("serve: snapshot marshal: %w", err)
	}
	if err := d.store.WriteSnapshot(cut, blob); err != nil {
		return fmt.Errorf("serve: snapshot write: %w", err)
	}
	d.mu.Lock()
	d.lastSnapWalSeq = snap.WalSeq
	d.snapped = true
	d.mu.Unlock()
	m.log.Info("snapshot written",
		"cut", cut, "walSeq", snap.WalSeq,
		"sessions", len(snap.Sessions), "states", len(snap.States),
		"jobs", len(snap.Jobs), "bytes", len(blob))
	return nil
}

// buildSnapshot captures the durable view of the whole service. Locks
// are taken one at a time (durability.mu, then Manager.mu, then each
// job's mu under jobMu) — the snapshot is weakly consistent, which the
// replay dedup rules make sufficient.
func (m *Manager) buildSnapshot() *snapshotFile {
	d := m.dur
	snap := &snapshotFile{Version: snapshotVersion}

	d.mu.Lock()
	snap.WalSeq = d.walSeq
	for _, ds := range d.sessions {
		r := *ds
		r.Window = append([]ingest.Entry(nil), ds.Window...)
		snap.Sessions = append(snap.Sessions, r)
	}
	d.mu.Unlock()
	sort.Slice(snap.Sessions, func(i, k int) bool { return snap.Sessions[i].Name < snap.Sessions[k].Name })

	// Live sessions' windows are captured from the live object (dormant
	// ones carry their eviction-time stash).
	m.mu.Lock()
	wins := make(map[string]*ingest.Window, len(m.tenants))
	for name, t := range m.tenants {
		wins[name] = t.win
	}
	m.mu.Unlock()
	for i, r := range snap.Sessions {
		if w, ok := wins[r.Name]; ok {
			snap.Sessions[i].Window = w.Snapshot()
		}
	}

	snap.States = m.shared.ExportStates()

	m.jobMu.Lock()
	snap.JobSeq = m.jobSeq
	jobs := make([]*recommendJob, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.jobMu.Unlock()
	now := m.now()
	for _, j := range jobs {
		st := j.status(now)
		j.mu.Lock()
		g := j.durG
		fin := j.finished
		j.mu.Unlock()
		jr := durJobRecord{G: g, Status: st, StartedMs: j.started.UnixMilli()}
		if !fin.IsZero() {
			jr.FinishedMs = fin.UnixMilli()
		}
		snap.Jobs = append(snap.Jobs, jr)
	}
	sort.Slice(snap.Jobs, func(i, k int) bool { return snap.Jobs[i].G < snap.Jobs[k].G })
	return snap
}

// Close writes a final snapshot and closes the WAL. Call after the
// listener has drained; the manager must not serve requests after.
func (m *Manager) Close() error {
	if m.dur == nil {
		return nil
	}
	err := m.Snapshot()
	if cerr := m.dur.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// openDurable opens (or creates) the data dir, recovers the persisted
// state into the freshly built manager, and wires the journaling
// hooks. Called from NewManagerDurable before the manager is visible
// to any other goroutine, so recovery runs single-threaded.
func (m *Manager) openDurable() error {
	hist := m.reg.Histogram("parinda_wal_fsync_seconds",
		"WAL group-commit fsync latency in seconds.")
	store, err := durable.Open(m.opts.DataDir, durable.Options{
		SegmentBytes: m.opts.WalSegmentBytes,
		Policy:       m.opts.Fsync,
		Interval:     m.opts.FsyncInterval,
		OnFsync:      func(d time.Duration) { hist.Observe(d) },
	})
	if err != nil {
		return fmt.Errorf("serve: open data dir: %w", err)
	}
	rec, err := store.Recover()
	if err != nil {
		store.Close()
		return fmt.Errorf("serve: recover: %w", err)
	}
	d := &durability{
		store:          store,
		fsyncHist:      hist,
		sessions:       map[string]*durSession{},
		lastSnapWalSeq: noSnapshotYet,
	}
	m.dur = d

	start := time.Now()
	records := int64(0)

	// 1. Snapshot: durable sessions, shared memo, jobs.
	var snap snapshotFile
	if len(rec.Snapshot) > 0 {
		if uerr := json.Unmarshal(rec.Snapshot, &snap); uerr != nil {
			// A corrupt-but-CRC-valid snapshot should be impossible;
			// degrade to WAL-only recovery rather than refuse to boot.
			m.log.Warn("snapshot unmarshal failed; recovering from WAL only", "error", uerr.Error())
			snap = snapshotFile{}
		}
	}
	d.walSeq = snap.WalSeq
	for _, ds := range snap.Sessions {
		for _, op := range ds.Ops {
			ds.Hist = m.fold(ds.Name, ds.Hist, op)
		}
		ds.Ops = nil
		ds.Dormant = true // everything starts dormant; the eager pass below revives
		d.sessions[ds.Name] = &ds
		records += 1 + int64(ds.Hist.UndoDepth()+ds.Hist.RedoDepth())
	}
	for _, st := range snap.States {
		m.shared.RestoreState(st)
	}
	records += int64(len(snap.States))
	jobRecs := make(map[string]durJobRecord, len(snap.Jobs))
	for _, jr := range snap.Jobs {
		if jr.Status != nil {
			jobRecs[jr.Status.ID] = jr
			records++
		}
	}

	// 2. WAL suffix, dedup-replayed (see the package comment's rules).
	dropTomb := map[string]uint64{} // session -> newest dropped incarnation
	jobTomb := map[string]uint64{}  // job id -> newest deletion G
	for _, blob := range rec.Records {
		var r walRecord
		if uerr := json.Unmarshal(blob, &r); uerr != nil {
			m.log.Warn("wal record unmarshal failed; skipped", "error", uerr.Error())
			continue
		}
		if r.G > d.walSeq {
			d.walSeq = r.G
		}
		records++
		switch r.T {
		case walCreate:
			if dropTomb[r.Session] >= r.Inc {
				continue // this incarnation was dropped later
			}
			if ds := d.sessions[r.Session]; ds == nil || ds.Inc < r.Inc {
				d.sessions[r.Session] = &durSession{Name: r.Session, Inc: r.Inc, Workload: r.Workload, Workers: r.Workers, Dormant: true}
			}
		case walEdit:
			if ds := d.sessions[r.Session]; ds != nil && ds.Inc == r.Inc && r.Seq > ds.Seq && r.Edit != nil {
				ds.Seq = r.Seq
				ds.Hist = m.fold(r.Session, ds.Hist, *r.Edit)
			}
		case walDrop:
			if r.Inc > dropTomb[r.Session] {
				dropTomb[r.Session] = r.Inc
			}
			if ds := d.sessions[r.Session]; ds != nil && ds.Inc == r.Inc {
				delete(d.sessions, r.Session)
			}
		case walState:
			if r.State != nil {
				m.shared.RestoreState(*r.State)
			}
		case walJob:
			if r.Job == nil {
				continue
			}
			if prev, ok := jobRecs[r.Job.ID]; !ok || r.G > prev.G {
				jobRecs[r.Job.ID] = durJobRecord{
					G: r.G, Status: r.Job,
					StartedMs: r.JobStarted, FinishedMs: r.JobFinished,
				}
			}
		case walJobDel:
			if r.G > jobTomb[r.JobID] {
				jobTomb[r.JobID] = r.G
			}
		default:
			m.log.Warn("unknown wal record type; skipped", "type", r.T)
		}
	}

	// 3. Rebuild the job registry as frozen records: a job that was
	// running when the process died restarts as cancelled with its
	// best-so-far progress — the search itself cannot resume.
	jobSeq := snap.JobSeq
	for id, jr := range jobRecs {
		if g, ok := jobTomb[id]; ok && g > jr.G {
			continue
		}
		st := *jr.Status
		if st.State == JobRunning {
			st.State = JobCancelled
			st.Error = "serve: job interrupted by restart; best-so-far result retained"
		}
		started := time.UnixMilli(jr.StartedMs)
		if !started.IsZero() && !time.UnixMilli(jr.FinishedMs).IsZero() && jr.FinishedMs >= jr.StartedMs {
			st.ElapsedMS = jr.FinishedMs - jr.StartedMs
		}
		m.jobs[id] = &recommendJob{
			id:         id,
			session:    st.Session,
			requestID:  st.RequestID,
			objects:    st.Objects,
			strategy:   st.Strategy,
			continuous: st.Continuous,
			started:    started,
			state:      st.State,
			frozen:     &st,
			durG:       jr.G,
		}
		if n, perr := strconv.ParseInt(strings.TrimPrefix(id, "job-"), 10, 64); perr == nil && n > jobSeq {
			jobSeq = n
		}
	}
	m.jobSeq = jobSeq

	// 4. Eagerly rebuild sessions up to the residency cap,
	// deterministically by name; the remainder stay dormant and
	// rehydrate lazily on first touch.
	names := make([]string, 0, len(d.sessions))
	for name := range d.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	built := 0
	for _, name := range names {
		if built >= m.maxSessions() {
			break
		}
		if err := m.rehydrate(name); err == nil {
			built++
		}
	}

	d.recoverRecords.Store(records)
	d.recoverSeconds = time.Since(start).Seconds()
	if records > 0 || rec.SnapshotSeq > 0 {
		m.log.Info("recovered",
			"records", records, "sessions", len(d.sessions), "rebuilt", built,
			"jobs", len(m.jobs), "truncatedBytes", rec.TruncatedBytes,
			"elapsedMs", float64(time.Since(start).Microseconds())/1e3)
	}

	// 5. Journaling hooks attach only now: nothing recovery restored
	// above re-journaled itself.
	m.shared.SetOnPublish(func(st session.SharedState) {
		// State publications are idempotent re-derivable caches: journal
		// without the group-commit wait so the pricing path never blocks
		// on an fsync it does not need.
		m.walAppend(&walRecord{T: walState, State: &st}, false)
	})

	m.registerDurabilityViews()
	return nil
}

// DurabilityStats is the /stats durability block.
type DurabilityStats struct {
	Dir             string        `json:"dir"`
	FsyncPolicy     string        `json:"fsyncPolicy"`
	WalSeq          uint64        `json:"walSeq"`
	DurableSessions int           `json:"durableSessions"`
	DormantSessions int           `json:"dormantSessions"`
	WalErrors       int64         `json:"walErrors"`
	RecoverRecords  int64         `json:"recoverRecords"`
	RecoverSeconds  float64       `json:"recoverSeconds"`
	Store           durable.Stats `json:"store"`
}

// durabilityStats snapshots the durability block (nil without
// -data-dir).
func (m *Manager) durabilityStats() *DurabilityStats {
	d := m.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	walSeq, total := d.walSeq, len(d.sessions)
	d.mu.Unlock()
	return &DurabilityStats{
		Dir:             m.opts.DataDir,
		FsyncPolicy:     m.opts.Fsync.String(),
		WalSeq:          walSeq,
		DurableSessions: total,
		DormantSessions: d.dormantCount(),
		WalErrors:       d.walErrors.Load(),
		RecoverRecords:  d.recoverRecords.Load(),
		RecoverSeconds:  d.recoverSeconds,
		Store:           d.store.Stats(),
	}
}

// registerDurabilityViews wires the WAL/recovery families into the
// registry (parinda_wal_fsync_seconds is registered at open, before
// the store exists).
func (m *Manager) registerDurabilityViews() {
	d := m.dur
	reg := m.reg
	reg.CounterFunc("parinda_wal_appends_total", "WAL records appended this run.",
		func() float64 { return float64(d.store.Stats().Appends) })
	reg.CounterFunc("parinda_wal_bytes_total", "Framed WAL bytes appended this run.",
		func() float64 { return float64(d.store.Stats().AppendedBytes) })
	reg.CounterFunc("parinda_wal_errors_total", "Journal appends that failed (degraded durability).",
		func() float64 { return float64(d.walErrors.Load()) })
	reg.GaugeFunc("parinda_wal_degraded", "1 once a journal append failed under -fsync always: mutations answer 503 until restart.",
		func() float64 {
			if d.degraded.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("parinda_wal_segments", "Resident WAL segment files.",
		func() float64 { return float64(d.store.Stats().Segments) })
	reg.CounterFunc("parinda_snapshots_total", "Snapshots written this run.",
		func() float64 { return float64(d.store.Stats().Snapshots) })
	reg.GaugeFunc("parinda_recover_seconds", "Wall-clock seconds the boot recovery took.",
		func() float64 { return d.recoverSeconds })
	reg.CounterFunc("parinda_recover_records_total", "Records restored by the boot recovery (snapshot entries + WAL replay).",
		func() float64 { return float64(d.recoverRecords.Load()) })
	reg.GaugeFunc("parinda_dormant_sessions", "Durable sessions resident on disk but not in memory.",
		func() float64 { return float64(d.dormantCount()) })
}
