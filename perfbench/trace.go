package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
)

// The traced run records spans from the benchmark's own code: a root
// span per store operation, a child span around each call the traced
// driver makes into a module (core, cipherx, sdds), and a grandchild
// span per wire request, recorded by spanTransport beneath the sdds
// client. Spans live in memory until the run ends.

// span is one timed interval of one operation.
type span struct {
	name       string
	parent     int32 // index of the parent span in opTrace.spans; -1 for the root
	start, end int64 // ns since the recorder's base
	// Wire spans only: the request's opcode and payload sizes.
	wire      bool
	wireOp    uint8
	reqBytes  int
	respBytes int
}

func (s span) dur() int64 { return s.end - s.start }

// opTrace holds the spans of one operation. Fan-out sends add wire
// spans from several goroutines at once, hence the mutex.
type opTrace struct {
	kind  opKind
	rec   *recorder
	mu    sync.Mutex
	spans []span
	// Work counts of the client transform, set by the op's goroutine.
	indexRecords, indexBytes, queryPatterns int
}

// countInsert records an insert's index work.
func (t *opTrace) countInsert(records, bytes int) {
	if t != nil {
		t.indexRecords, t.indexBytes = records, bytes
	}
}

// countSearch records a search's query patterns.
func (t *opTrace) countSearch(patterns int) {
	if t != nil {
		t.queryPatterns = patterns
	}
}

// recorder collects operation traces. Only operations issued under a
// context marked by withTracing are recorded.
type recorder struct {
	base time.Time

	mu  sync.Mutex
	ops []*opTrace
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

type spanKey struct{}

// spanRef names the span a context belongs to.
type spanRef struct {
	t   *opTrace
	idx int32
}

// beginOp opens the root span of an operation. It returns a nil trace
// when r is nil or ctx is not marked for tracing; every opTrace method
// is a no-op on a nil trace.
func (r *recorder) beginOp(ctx context.Context, kind opKind, name string) (context.Context, *opTrace) {
	if r == nil || !tracingOn(ctx) {
		return ctx, nil
	}
	t := &opTrace{kind: kind, rec: r, spans: make([]span, 1, 12)}
	t.spans[0] = span{name: name, parent: -1, start: r.now()}
	return context.WithValue(ctx, spanKey{}, spanRef{t: t, idx: 0}), t
}

// endOp closes the root span and files the trace.
func (t *opTrace) endOp() {
	if t == nil {
		return
	}
	t.end(0)
	t.rec.mu.Lock()
	t.rec.ops = append(t.rec.ops, t)
	t.rec.mu.Unlock()
}

// start opens a child span of the operation's root.
func (t *opTrace) start(name string) int32 {
	if t == nil {
		return -1
	}
	return t.open(span{name: name, parent: 0})
}

// startCtx opens a child span of the root and returns a context under
// which wire requests become children of that span.
func (t *opTrace) startCtx(ctx context.Context, name string) (context.Context, int32) {
	if t == nil {
		return ctx, -1
	}
	idx := t.start(name)
	return context.WithValue(ctx, spanKey{}, spanRef{t: t, idx: idx}), idx
}

func (t *opTrace) open(s span) int32 {
	s.start = t.rec.now()
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return idx
}

func (t *opTrace) end(idx int32) {
	if t == nil {
		return
	}
	now := t.rec.now()
	t.mu.Lock()
	t.spans[idx].end = now
	t.mu.Unlock()
}

// take returns the traces recorded so far.
func (r *recorder) take() []*opTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops
}

// spanTransport records a wire span around every request sent under a
// traced context and passes every other request straight through.
type spanTransport struct {
	inner transport.Transport
}

func (s *spanTransport) Send(ctx context.Context, node transport.NodeID, op uint8, payload []byte) ([]byte, error) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return s.inner.Send(ctx, node, op, payload)
	}
	idx := ref.t.open(span{name: "transport", parent: ref.idx, wire: true, wireOp: op, reqBytes: len(payload)})
	resp, err := s.inner.Send(ctx, node, op, payload)
	now := ref.t.rec.now()
	ref.t.mu.Lock()
	sp := &ref.t.spans[idx]
	sp.end, sp.respBytes = now, len(resp)
	ref.t.mu.Unlock()
	return resp, err
}

func (s *spanTransport) Nodes() []transport.NodeID { return s.inner.Nodes() }

func (s *spanTransport) Close() error { return s.inner.Close() }

// SendsWithContext forwards the inner transport's marker, so fan-out
// over the wrapper takes the same path as over the bare transport.
func (s *spanTransport) SendsWithContext() bool {
	cs, ok := s.inner.(transport.CtxSender)
	return ok && cs.SendsWithContext()
}

// SendsInline forwards the in-memory transport's serial fan-out marker.
func (s *spanTransport) SendsInline() bool {
	is, ok := s.inner.(transport.InlineSender)
	return ok && is.SendsInline()
}

// selfTime is a span's duration minus the part of [start, end) that its
// children cover. Fan-out children overlap, so their union is measured,
// not their sum.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, c := range iv {
		if i == 0 || c[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = c[0], c[1]
		} else if c[1] > curHi {
			curHi = c[1]
		}
	}
	covered += curHi - curLo
	return end - start - covered
}
