package main

import (
	"context"
	"testing"

	"repro/internal/sdds"
	"repro/internal/transport"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	cases := []struct {
		name       string
		start, end int64
		children   [][2]int64
		want       int64
	}{
		{"no children", 0, 100, nil, 100},
		{"one child", 0, 100, [][2]int64{{10, 40}}, 70},
		// Three fan-out legs overlapping in [20,30) and [50,60): their
		// union is [10,70), not the 80 a plain sum gives.
		{"overlapping fan-out", 0, 100, [][2]int64{{10, 30}, {20, 60}, {50, 70}}, 40},
		{"nested and unsorted", 0, 100, [][2]int64{{60, 90}, {10, 50}, {20, 30}}, 30},
		{"disjoint", 0, 100, [][2]int64{{0, 10}, {90, 100}}, 80},
		{"clipped to the parent", 50, 100, [][2]int64{{0, 60}, {95, 120}}, 35},
		{"outside the parent", 50, 100, [][2]int64{{0, 40}, {110, 120}}, 50},
		{"fully covered", 0, 100, [][2]int64{{0, 100}, {10, 20}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.start, c.end, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSummarizeAttributesFanOut(t *testing.T) {
	// A search whose sdds span fans out to three nodes at once.
	tr := &opTrace{kind: opSearch, queryPatterns: 8, spans: []span{
		{name: "esdds.search", parent: -1, start: 0, end: 1000},
		{name: "core.build_query", parent: 0, start: 10, end: 60},
		{name: "sdds.search", parent: 0, start: 70, end: 990},
		{name: "transport", parent: 2, start: 100, end: 700, wire: true, wireOp: wireOpSearch(t), reqBytes: 10, respBytes: 100},
		{name: "transport", parent: 2, start: 120, end: 800, wire: true, wireOp: wireOpSearch(t), reqBytes: 10, respBytes: 200},
		{name: "transport", parent: 2, start: 150, end: 600, wire: true, wireOp: wireOpSearch(t), reqBytes: 10, respBytes: 300},
	}}
	s := summarize([]*opTrace{tr})
	if got := s.span("sdds.search").self; got != 920-700 {
		t.Errorf("sdds.search self = %d, want %d", got, 920-700)
	}
	if got := s.span("esdds.search").self; got != 1000-50-920 {
		t.Errorf("root self = %d, want %d", got, 1000-50-920)
	}
	if s.rpcs[opSearch] != 3 || s.wire["search"].n != 3 || s.wire["search"].respBytes != 600 {
		t.Errorf("wire accounting: rpcs %d, %+v", s.rpcs[opSearch], *s.wire["search"])
	}
	if s.queryPatterns != 8 || s.ops[opSearch] != 1 {
		t.Errorf("counts: patterns %d, searches %d", s.queryPatterns, s.ops[opSearch])
	}
}

func wireOpSearch(t *testing.T) uint8 {
	t.Helper()
	for op := 0; op < 256; op++ {
		if wireClass(sdds.OpName(uint8(op))) == "search" {
			return uint8(op)
		}
	}
	t.Fatal("no search opcode")
	return 0
}

func TestSpanTransportForwardsMarkers(t *testing.T) {
	tcp := transport.NewTCP(map[transport.NodeID]string{0: "127.0.0.1:1"})
	defer tcp.Close()
	var tr transport.Transport = &spanTransport{inner: tcp}
	if cs, ok := tr.(transport.CtxSender); !ok || !cs.SendsWithContext() {
		t.Error("wrapper over TCP does not report SendsWithContext")
	}
	if is, ok := tr.(transport.InlineSender); ok && is.SendsInline() {
		t.Error("wrapper over TCP reports SendsInline")
	}
	mem := &spanTransport{inner: transport.NewMemory()}
	if !mem.SendsInline() || mem.SendsWithContext() {
		t.Error("wrapper over memory: want SendsInline only")
	}
	// The retry layer keeps the marker only if its inner transport has
	// it, so fan-out over retry→wrapper→TCP stays on the direct path.
	if !transport.NewRetry(tr, transport.DefaultRetryPolicy(), 1).SendsWithContext() {
		t.Error("retry over the wrapper lost SendsWithContext")
	}
}

func TestSpanTransportRecordsOnlyTracedOps(t *testing.T) {
	mem := transport.NewMemory()
	mem.Register(0, func(_ context.Context, _ uint8, p []byte) ([]byte, error) { return append(p, p...), nil })
	tr := &spanTransport{inner: mem}
	rec := newRecorder()

	ctx, ot := rec.beginOp(context.Background(), opGet, "esdds.get")
	if ot != nil {
		t.Fatal("op recorded without a tracing context")
	}
	if _, err := tr.Send(ctx, 0, 3, []byte("abc")); err != nil {
		t.Fatal(err)
	}

	ctx, ot = rec.beginOp(withTracing(context.Background()), opGet, "esdds.get")
	cctx, sp := ot.startCtx(ctx, "sdds.get")
	if _, err := tr.Send(cctx, 0, 3, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	ot.end(sp)
	ot.endOp()
	traces := rec.take()
	if len(traces) != 1 || len(traces[0].spans) != 3 {
		t.Fatalf("want one trace of 3 spans, got %d traces", len(traces))
	}
	w := traces[0].spans[2]
	if !w.wire || w.parent != 1 || w.reqBytes != 3 || w.respBytes != 6 || w.end < w.start {
		t.Fatalf("wire span %+v", w)
	}
}
