package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseProcStatCPU(t *testing.T) {
	b, err := os.ReadFile("testdata/proc_stat.txt")
	if err != nil {
		t.Fatal(err)
	}
	// utime 1234 + stime 566 ticks at 100 Hz; the command name holds
	// spaces and parentheses.
	got, err := parseProcStatCPU(string(b))
	if err != nil {
		t.Fatal(err)
	}
	if want := 18 * time.Second; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "42 (x) S 1 2", "42 (x) S 1 2 3 4 5 6 7 8 9 10 y 12 13"} {
		if _, err := parseProcStatCPU(bad); err == nil {
			t.Errorf("parseProcStatCPU(%q): no error", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	f, err := os.Open("testdata/proc_status.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseVmHWM(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(204800 * 1024); got != want {
		t.Fatalf("VmHWM = %d, want %d", got, want)
	}
	if _, err := parseVmHWM(strings.NewReader("Name:\tx\nVmRSS:\t1 kB\n")); err == nil {
		t.Error("status without VmHWM: no error")
	}
	if _, err := parseVmHWM(strings.NewReader("VmHWM:\t12 MB\n")); err == nil {
		t.Error("VmHWM in MB: no error")
	}
}

func TestSelfCPUAdvances(t *testing.T) {
	c0, err := selfCPU()
	if err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
		x += math.Sqrt(x + 1)
	}
	c1, err := selfCPU()
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= c0 {
		t.Fatalf("getrusage CPU did not advance: %v then %v (%v)", c0, c1, x)
	}
}

func TestDirBytes(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "node-0"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"a": 10, "node-0/wal.log": 300, "node-0/checkpoint": 4096} {
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, n), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dirBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4406 {
		t.Fatalf("dirBytes = %d, want 4406", got)
	}
}

// serveFixture serves a /metrics fixture the way esdds-node does.
func serveFixture(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(b) //nolint:errcheck // test server
	}))
	t.Cleanup(srv.Close)
	return srv.URL + "/metrics"
}

func TestScrapeDeltas(t *testing.T) {
	ctx := context.Background()
	before, err := scrapeAll(ctx, []string{serveFixture(t, "testdata/metrics_before.txt")})
	if err != nil {
		t.Fatal(err)
	}
	after, err := scrapeAll(ctx, []string{serveFixture(t, "testdata/metrics_after.txt")})
	if err != nil {
		t.Fatal(err)
	}
	// Two daemons exposing the same series are summed.
	summed, err := scrapeAll(ctx, []string{serveFixture(t, "testdata/metrics_after.txt"), serveFixture(t, "testdata/metrics_after.txt")})
	if err != nil {
		t.Fatal(err)
	}
	if got := summed["node_ops_total"]; got != 2*3908 {
		t.Fatalf("summed node_ops_total = %v, want %v", got, 2*3908)
	}
	d := delta(before, after)
	checks := []struct {
		name      string
		got, want float64
	}{
		{"get handler µs", d.handlerMeanUS("get"), 30},        // 60 ms over 2000 requests
		{"search handler µs", d.handlerMeanUS("search"), 100}, // 60 ms over 600
		{"migrate handler µs", d.handlerMeanUS("migrate"), 1250},
		{"put handler µs (none)", d.handlerMeanUS("put"), 0},
		{"handler ns", d.handlerNS(), 60e6 + 60e6 + 5e6},
		{"wal append µs", d.meanUS("wal_append_ns"), 100},
		{"fsync µs (absent)", d.meanUS("wal_fsync_ns"), 0},
		{"candidates", d["node_posting_candidates_total"], 12000},
		{"tombstones", d["node_index_tombstones_total"], 300},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if _, err := scrapeAll(ctx, []string{"http://127.0.0.1:1/metrics"}); err == nil {
		t.Error("scrape of a closed port: no error")
	}
}

func TestWireClass(t *testing.T) {
	for name, want := range map[string]string{
		"put": "put", "put_batch": "put_batch", "search": "search",
		"migrate_prepare": "migrate", "migrate_commit": "migrate", "split_extract": "migrate",
		"bucket_create": "migrate", "merge_close": "migrate", "stats": "other", "ping": "other",
	} {
		if got := wireClass(name); got != want {
			t.Errorf("wireClass(%q) = %q, want %q", name, got, want)
		}
	}
}
