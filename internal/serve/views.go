package serve

// CounterFunc/GaugeFunc views: the registry entries that read counters
// which already live elsewhere — the session manager, the shared memo,
// its two singleflight tiers, the ingest windows and the job registry
// — so /metrics and /stats are two renderings of one set of numbers.

import (
	"repro/internal/flight"
	"repro/internal/ingest"
)

// registerViews wires the callback-backed families into m's registry.
// Called once from NewManager; every callback is safe to invoke from
// any goroutine (each takes the locks its source requires).
func (m *Manager) registerViews() {
	reg := m.reg

	reg.GaugeFunc("parinda_sessions", "Resident design sessions.",
		func() float64 { return float64(m.Len()) })
	reg.GaugeFunc("parinda_sessions_max", "Resident session cap.",
		func() float64 { return float64(m.maxSessions()) })
	reg.CounterFunc("parinda_sessions_created_total", "Sessions ever created.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.created)
		})
	reg.CounterFunc("parinda_session_evictions_total", "Sessions evicted, by reason.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.evictions)
		}, "reason", "lru")
	reg.CounterFunc("parinda_session_evictions_total", "Sessions evicted, by reason.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.expirations)
		}, "reason", "ttl")
	reg.CounterFunc("parinda_costs_cache_hits_total",
		"/costs responses served from cached bytes.",
		func() float64 { return float64(m.costsCacheHits.Load()) })

	// Shared memo, state tier: the cross-session (query, design) states.
	states := m.shared.StateStats
	reg.CounterFunc("parinda_shared_memo_hits_total",
		"State lookups served by the shared memo (in-flight waits included).",
		func() float64 { return float64(states().Hits) })
	reg.CounterFunc("parinda_shared_memo_misses_total",
		"State acquisitions that had to plan.",
		func() float64 { return float64(states().Misses) })
	reg.GaugeFunc("parinda_shared_memo_states",
		"Published (query, design) states resident in the shared memo.",
		func() float64 { return float64(states().Entries) })
	reg.CounterFunc("parinda_shared_memo_stores_total",
		"State publications, duplicates included.",
		func() float64 { return float64(states().Stores) })
	reg.CounterFunc("parinda_shared_memo_dup_stores_total",
		"Publications that lost the race to an identical one.",
		func() float64 { return float64(states().DupStores) })

	// Shared memo, cost tier: the advisor warm-start pool.
	costs := func() flight.Stats { return m.shared.Costs().Stats().Stats }
	reg.GaugeFunc("parinda_shared_cost_entries",
		"Recorded (query, configuration) costs in the shared cost tier.",
		func() float64 { return float64(costs().Entries) })
	reg.CounterFunc("parinda_shared_cost_hits_total",
		"Cost-tier lookups served from the memo.",
		func() float64 { return float64(costs().Hits) })
	reg.CounterFunc("parinda_shared_cost_misses_total",
		"Cost-tier lookups that found nothing.",
		func() float64 { return float64(costs().Misses) })

	// Both tiers are flight.Caches: the same eviction and singleflight
	// families, one series per tier.
	for _, tier := range []struct {
		name  string
		stats func() flight.Stats
	}{{"states", states}, {"costs", costs}} {
		counter := func(name, help string, field func(flight.Stats) int64) {
			reg.CounterFunc(name, help, func() float64 { return float64(field(tier.stats())) }, "tier", tier.name)
		}
		counter("parinda_shared_memo_evictions_total", "Entries dropped by the -memo-cap bound, by tier.",
			func(s flight.Stats) int64 { return s.Evictions })
		counter("parinda_flight_leads_total", "Singleflight calls led (work executed), by memo tier.",
			func(s flight.Stats) int64 { return s.Leads })
		counter("parinda_flight_waits_total", "Waits begun on another caller's in-flight pricing, by memo tier.",
			func(s flight.Stats) int64 { return s.Waits })
		counter("parinda_flight_coalesced_total", "Waits served a result — whole pricing batches saved, by memo tier.",
			func(s flight.Stats) int64 { return s.Coalesced })
		counter("parinda_flight_handovers_total", "Waits that outlived an abandoned leader, by memo tier.",
			func(s flight.Stats) int64 { return s.Handovers })
	}

	// Ingest windows: aggregate size across resident sessions (the
	// accept/reject counters are real counters bumped on the ingest
	// path, see metrics).
	reg.GaugeFunc("parinda_ingest_window_entries",
		"Distinct queries resident across every session's window.",
		func() float64 {
			m.mu.Lock()
			wins := make([]*ingest.Window, 0, len(m.tenants))
			for _, t := range m.tenants {
				wins = append(wins, t.win)
			}
			m.mu.Unlock()
			total := 0
			for _, w := range wins {
				total += w.Stats().Distinct
			}
			return float64(total)
		})

	reg.GaugeFunc("parinda_recommend_jobs",
		"Resident recommend jobs (running or finished, not yet deleted).",
		func() float64 { return float64(m.recommendJobCount()) })
}
