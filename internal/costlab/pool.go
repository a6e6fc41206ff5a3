package costlab

import (
	"sync"

	"repro/internal/catalog"
	"repro/internal/whatif"
)

// sessionPool hands out what-if sessions so that no two goroutines
// ever share a planner. It is a sync.Pool-style free list, except
// that construction can fail (the setup hook installs a design).
type sessionPool struct {
	cat *catalog.Catalog
	// setup, when set, is run once on every freshly created session to
	// install a whole design (design.Setup). Fresh sessions are
	// deterministic, so every pooled session ends up with identical
	// hypothetical objects (and identical generated names).
	setup func(*whatif.Session) error

	mu      sync.Mutex
	free    []*whatif.Session
	created int
}

func newSessionPool(cat *catalog.Catalog, setup func(*whatif.Session) error) *sessionPool {
	return &sessionPool{cat: cat, setup: setup}
}

// get returns an idle session, creating (and setting up) a new one
// when the free list is empty.
func (p *sessionPool) get() (*whatif.Session, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s, nil
	}
	p.mu.Unlock()

	s := whatif.NewSession(p.cat)
	if p.setup != nil {
		if err := p.setup(s); err != nil {
			return nil, err
		}
	}
	p.mu.Lock()
	p.created++
	p.mu.Unlock()
	return s, nil
}

// put returns a session to the free list. Callers must have removed
// any hypothetical objects they added beyond the setup hook's.
func (p *sessionPool) put(s *whatif.Session) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// sessions reports how many sessions the pool has created.
func (p *sessionPool) sessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}
