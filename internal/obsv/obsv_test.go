package obsv

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cascade/internal/vclock"
)

// A nil Observer must be fully usable: every method no-ops, every
// constructor returns a usable nil metric.
func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	o.Emit(EvHotSwap, "root.x", "sw->hw")
	o.EmitAt(123, EvFault, "", "boom")
	o.SetVirtualNow(func() uint64 { return 1 })
	if got := o.Trace(10); got != nil {
		t.Fatalf("nil trace = %v", got)
	}
	if o.WallNow().IsZero() {
		t.Fatal("nil WallNow returned zero time")
	}
	if o.MetricsText() != "" {
		t.Fatal("nil metrics text non-empty")
	}
	if o.Handler() != nil {
		t.Fatal("nil observer has a handler")
	}
	if err := o.StartHTTP(); err != nil {
		t.Fatal(err)
	}
	if o.HTTPAddr() != "" {
		t.Fatal("nil HTTPAddr non-empty")
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	c := o.NewCounter("x", "")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := o.NewGauge("y", "")
	g.Set(7)
	if g.Value() != 0 {
		t.Fatal("nil gauge stored")
	}
	h := o.NewHistogram("z", "", []uint64{1, 2}, 1)
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded")
	}
}

func TestEmitStampsAndOrder(t *testing.T) {
	wall := time.Unix(1_000, 0)
	o := New(Options{TraceCap: 8, WallClock: func() time.Time { return wall }})
	vps := uint64(0)
	o.SetVirtualNow(func() uint64 { return vps })

	vps = 5 * vclock.Ms
	o.Emit(EvCompileSubmit, "root.f", "job=1")
	vps = 9 * vclock.Ms
	o.Emit(EvBitstreamReady, "root.f", "job=1")
	o.EmitAt(0, EvTransportError, "root.g", "conn reset")

	evs := o.Trace(0)
	if len(evs) != 3 {
		t.Fatalf("trace len = %d, want 3", len(evs))
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 || evs[2].Seq != 3 {
		t.Fatalf("bad seqs: %+v", evs)
	}
	if evs[0].VPs != 5*vclock.Ms || evs[1].VPs != 9*vclock.Ms || evs[2].VPs != 0 {
		t.Fatalf("bad virtual stamps: %+v", evs)
	}
	for _, ev := range evs {
		if ev.WallNs != wall.UnixNano() {
			t.Fatalf("wall stamp %d, want pinned %d", ev.WallNs, wall.UnixNano())
		}
	}
	if o.Events.Value() != 3 {
		t.Fatalf("events counter = %d", o.Events.Value())
	}
}

func TestRingWrapsAndCountsDrops(t *testing.T) {
	o := New(Options{TraceCap: 4})
	for i := 0; i < 10; i++ {
		o.EmitAt(uint64(i), EvEval, "", fmt.Sprintf("n=%d", i))
	}
	evs := o.Trace(0)
	if len(evs) != 4 {
		t.Fatalf("trace len = %d, want 4", len(evs))
	}
	// Oldest-first: events 7, 8, 9, 10 (seq) survive.
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if o.TraceDropped.Value() != 6 {
		t.Fatalf("dropped = %d, want 6", o.TraceDropped.Value())
	}
	// A bounded tail of the ring.
	tail := o.Trace(2)
	if len(tail) != 2 || tail[0].Seq != 9 || tail[1].Seq != 10 {
		t.Fatalf("tail = %+v", tail)
	}
}

func TestTraceJSONL(t *testing.T) {
	o := New(Options{TraceCap: 8, WallClock: func() time.Time { return time.Unix(0, 42) }})
	o.EmitAt(7, EvCacheHit, "root.m", `key="a\b"`)
	rec := httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	got := rec.Body.String()
	want := `{"seq":1,"wall_ns":42,"vps":7,"kind":"cache-hit","path":"root.m","detail":"key=\"a\\b\""}` + "\n"
	if got != want {
		t.Fatalf("jsonl:\n got %q\nwant %q", got, want)
	}
}

func TestMetricsPromFormat(t *testing.T) {
	o := New(Options{})
	o.CacheHits.Add(3)
	o.CacheMisses.Inc()
	o.Phase.Set(3)
	o.CompileLatency.Observe(2 * vclock.Ms) // 0.002 s virtual
	o.CompileLatency.Observe(10 * vclock.S)
	text := o.MetricsText()

	for _, want := range []string{
		"# TYPE cascade_compile_cache_hits_total counter",
		"cascade_compile_cache_hits_total 3",
		"cascade_compile_cache_misses_total 1",
		"# TYPE cascade_phase gauge",
		"cascade_phase 3",
		"# TYPE cascade_compile_latency_virtual_seconds histogram",
		`cascade_compile_latency_virtual_seconds_bucket{le="+Inf"} 2`,
		"cascade_compile_latency_virtual_seconds_count 2",
		"cascade_compile_latency_virtual_seconds_sum 10.002",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
}

// A Tally moves its owner's figure and its series together; with no
// series it counts the figure alone.
func TestTallyKeepsOneSetOfBooks(t *testing.T) {
	o := New(Options{})
	books := Tally{Series: o.Checkpoints}
	books.Inc()
	books.Add(2)
	if books.N != 3 || o.Checkpoints.Value() != 3 {
		t.Fatalf("figure %d, series %d, want 3 and 3", books.N, o.Checkpoints.Value())
	}
	var bare Tally
	bare.Inc()
	bare.Add(4)
	if bare.N != 5 {
		t.Fatalf("seriesless tally counted %d, want 5", bare.N)
	}
}

func TestHistogramBuckets(t *testing.T) {
	o := New(Options{})
	h := o.NewHistogram("t_units", "", []uint64{10, 100}, 1)
	for _, v := range []uint64{1, 10, 11, 100, 101} {
		h.Observe(v)
	}
	text := o.MetricsText()
	for _, want := range []string{
		`t_units_bucket{le="10"} 2`,
		`t_units_bucket{le="100"} 4`,
		`t_units_bucket{le="+Inf"} 5`,
		"t_units_sum 223",
		"t_units_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(10, 10, 3)
	want := []uint64{10, 100, 1000}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestHTTPEndpoint(t *testing.T) {
	o := New(Options{Addr: "127.0.0.1:0", TraceCap: 8})
	if err := o.StartHTTP(); err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	// Idempotent: a second call keeps the first server.
	addr := o.HTTPAddr()
	if err := o.StartHTTP(); err != nil {
		t.Fatal(err)
	}
	if o.HTTPAddr() != addr {
		t.Fatal("second StartHTTP rebound")
	}

	o.Promotions.Inc()
	o.EmitAt(1*vclock.S, EvHotSwap, "root.clk", "sw->hw")

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(b)
	}
	if m := get("/metrics"); !strings.Contains(m, "cascade_promotions_total 1") {
		t.Fatalf("/metrics missing promotions:\n%s", m)
	}
	if tr := get("/trace?n=1"); !strings.Contains(tr, `"kind":"hot-swap"`) {
		t.Fatalf("/trace missing event: %s", tr)
	}
	if pp := get("/debug/pprof/cmdline"); pp == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

// Concurrent EmitAt + Observe + scrape must be race-clean (run under
// -race in CI).
func TestConcurrentEmitScrape(t *testing.T) {
	o := New(Options{TraceCap: 64})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				o.EmitAt(uint64(i), EvFault, "root.x", "w")
				o.Faults.Inc()
				o.TransportRTT.Observe(uint64(i))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			o.MetricsText()
			o.Trace(0)
		}
	}()
	wg.Wait()
	<-done
	if o.Events.Value() != 2000 {
		t.Fatalf("events = %d", o.Events.Value())
	}
	if o.Faults.Value() != 2000 || o.TransportRTT.Count() != 2000 {
		t.Fatal("metric counts off under concurrency")
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Seq: 12, VPs: 1500 * vclock.Ms, Kind: EvEviction, Path: "root.f", Detail: "hw fault"}
	s := ev.String()
	for _, want := range []string{"12", "1.500000s", "eviction", "root.f", "hw fault"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
	if !strings.Contains(Event{Kind: EvPhase}.String(), " - ") {
		t.Fatalf("global event should render path placeholder: %q", Event{Kind: EvPhase}.String())
	}
}
