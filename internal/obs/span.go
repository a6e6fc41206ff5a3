package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// Span is the request-scoped trace record: who asked (tenant,
// endpoint, request id) and what the pricing layers did on its behalf
// — optimizer invocations and how each needed state was satisfied
// (memo hit, led a singleflight, coalesced onto another leader's
// flight). The HTTP middleware creates one per
// request and threads it via context (costlab.EvaluateDelta) and
// DesignSession.SetSpan (session edits); the counters are atomic, so
// parallel pricing workers record into one span safely.
//
// A nil *Span no-ops on every method — callers instrument
// unconditionally.
type Span struct {
	ID       string
	Tenant   string
	Endpoint string
	Start    time.Time

	planCalls  atomic.Int64
	sharedHits atomic.Int64
	led        atomic.Int64
	coalesced  atomic.Int64
}

// NewSpan starts a span for one request.
func NewSpan(id, tenant, endpoint string) *Span {
	return &Span{ID: id, Tenant: tenant, Endpoint: endpoint, Start: time.Now()}
}

// AddPlanCalls records n full-optimizer invocations attributed to this
// request.
func (sp *Span) AddPlanCalls(n int64) {
	if sp != nil && n != 0 {
		sp.planCalls.Add(n)
	}
}

// AddSharedHits records n states served from a cross-session memo.
func (sp *Span) AddSharedHits(n int64) {
	if sp != nil && n != 0 {
		sp.sharedHits.Add(n)
	}
}

// AddLed records n states this request priced itself (leading the
// singleflight or missing outright).
func (sp *Span) AddLed(n int64) {
	if sp != nil && n != 0 {
		sp.led.Add(n)
	}
}

// AddCoalesced records n states served by waiting on another
// request's in-flight pricing.
func (sp *Span) AddCoalesced(n int64) {
	if sp != nil && n != 0 {
		sp.coalesced.Add(n)
	}
}

func (sp *Span) PlanCalls() int64 {
	if sp == nil {
		return 0
	}
	return sp.planCalls.Load()
}

func (sp *Span) SharedHits() int64 {
	if sp == nil {
		return 0
	}
	return sp.sharedHits.Load()
}

func (sp *Span) Led() int64 {
	if sp == nil {
		return 0
	}
	return sp.led.Load()
}

func (sp *Span) Coalesced() int64 {
	if sp == nil {
		return 0
	}
	return sp.coalesced.Load()
}

type spanKey struct{}

// ContextWithSpan attaches sp to ctx.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the span attached to ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Request ids: a random per-process prefix plus an atomic sequence —
// unique within the process by construction, unique across processes
// with 2^32 confidence, and cheap enough for the per-request path.
var (
	reqPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand failing is effectively impossible on the
			// supported platforms; fall back to a fixed prefix rather
			// than refusing to serve.
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	reqSeq atomic.Int64
)

// NewRequestID returns a fresh correlation id ("a1b2c3d4-42").
func NewRequestID() string {
	return fmt.Sprintf("%s-%d", reqPrefix, reqSeq.Add(1))
}
