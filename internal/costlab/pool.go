package costlab

import (
	"sync"

	"repro/internal/catalog"
	"repro/internal/design"
)

// held is a pooled what-if session with the Target key of the design
// it holds.
type held struct {
	*design.Held
	key string
}

// sessionPool hands out what-if sessions so that no two goroutines
// ever share a planner. Idle sessions keep their design.
type sessionPool struct {
	cat *catalog.Catalog

	mu      sync.Mutex
	free    []*held
	created int
}

// get returns an idle session — one already holding (key, nestLoop) if
// any does, else the most recently returned — or a fresh one.
func (p *sessionPool) get(key string, nestLoop bool) *held {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		p.created++
		return &held{Held: design.NewHeld(p.cat)}
	}
	pick := n - 1
	for i, h := range p.free {
		if h.key == key && h.NestLoop() == nestLoop {
			pick = i
		}
	}
	h := p.free[pick]
	p.free[pick] = p.free[n-1]
	p.free = p.free[:n-1]
	return h
}

// put returns a session to the free list.
func (p *sessionPool) put(h *held) {
	p.mu.Lock()
	p.free = append(p.free, h)
	p.mu.Unlock()
}

// sessions reports how many sessions the pool has created.
func (p *sessionPool) sessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}
