package costlab

import (
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/sql"
	"repro/internal/whatif"
)

// INUM prices statements through the INUM scenario cache. The cache
// itself is single-threaded (one what-if session, one entry map), so
// the estimator shards: one mutex-guarded inum.Cache per potential
// worker, with statements routed to shards by query identity. All
// scenarios of one query warm a single shard — maximum cache reuse —
// while distinct queries price in parallel on distinct shards.
// Estimated costs are deterministic and independent of the sharding.
type INUM struct {
	shards []*inumShard
	// shardOf memoizes statement → shard by pointer identity, so the
	// warm-cache hot path skips re-printing the SQL on every call
	// (advisor sweeps price the same parsed statements repeatedly).
	shardOf sync.Map // *sql.Select → *inumShard

	sizeMu  sync.Mutex
	sizeSes *whatif.Session
}

type inumShard struct {
	mu    sync.Mutex
	cache *inum.Cache
}

// NewINUM returns an INUM estimator over cat with one cache shard per
// GOMAXPROCS.
func NewINUM(cat *catalog.Catalog) *INUM {
	return NewINUMShards(cat, runtime.GOMAXPROCS(0))
}

// NewINUMShards returns an INUM estimator with an explicit shard
// count (minimum 1).
func NewINUMShards(cat *catalog.Catalog, shards int) *INUM {
	if shards < 1 {
		shards = 1
	}
	e := &INUM{sizeSes: whatif.NewSession(cat)}
	for i := 0; i < shards; i++ {
		e.shards = append(e.shards, &inumShard{cache: inum.New(cat)})
	}
	return e
}

// shardFor routes a statement to its cache shard by query identity
// (textual, so re-parsed duplicates of one query share a shard).
func (e *INUM) shardFor(stmt *sql.Select) *inumShard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	if sh, ok := e.shardOf.Load(stmt); ok {
		return sh.(*inumShard)
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(sql.PrintSelect(stmt)))
	sh := e.shards[h.Sum32()%uint32(len(e.shards))]
	e.shardOf.Store(stmt, sh)
	return sh
}

// Cost estimates the cost of stmt under cfg from the scenario cache,
// running the optimizer only on the first sight of a (query, scenario)
// pair.
func (e *INUM) Cost(stmt *sql.Select, cfg Config) (float64, error) {
	sh := e.shardFor(stmt)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	start := time.Now()
	cost, err := sh.cache.Cost(stmt, cfg)
	observeINUM(start)
	return cost, err
}

// SpecSizeBytes returns the Equation-1 size of a candidate index.
func (e *INUM) SpecSizeBytes(spec inum.IndexSpec) (int64, error) {
	e.sizeMu.Lock()
	defer e.sizeMu.Unlock()
	return e.sizeSes.IndexSizeBytes(spec.Table, spec.Columns)
}

// Shards reports the number of cache shards.
func (e *INUM) Shards() int { return len(e.shards) }

// PlanCalls reports full optimizer invocations across every shard.
func (e *INUM) PlanCalls() int64 {
	var total int64
	for _, sh := range e.shards {
		sh.mu.Lock()
		total += sh.cache.PlanerCalls
		sh.mu.Unlock()
	}
	return total
}

// Stats aggregates cache statistics across shards: cost calls served
// from cache, cost calls that ran the optimizer, and cached (query,
// scenario) entries.
func (e *INUM) Stats() (hits, misses int64, scenarios int) {
	for _, sh := range e.shards {
		sh.mu.Lock()
		hits += sh.cache.Hits
		misses += sh.cache.Misses
		scenarios += sh.cache.CachedScenarios()
		sh.mu.Unlock()
	}
	return hits, misses, scenarios
}
