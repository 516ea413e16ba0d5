package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/dacapo"
	"repro/internal/obs"
	"repro/internal/trace"
)

// corpusRequest renders a corpus /schedule payload.
func corpusRequest(t *testing.T, fields map[string]any) []byte {
	t.Helper()
	b, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postOK posts body and fails the test unless it answers 200.
func postOK(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	status, _, b := post(t, url, body)
	if status != http.StatusOK {
		t.Fatalf("status %d for %s: %s", status, body, b)
	}
	return b
}

// TestMemoSingleFlightOneBuild: concurrent requests with distinct
// fingerprints for one (bench, scale) build the trace once.
func TestMemoSingleFlightOneBuild(t *testing.T) {
	m := &obs.Metrics{}
	_, ts := newTestServer(t, Options{Metrics: m})
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, b := post(t, ts.URL, corpusRequest(t, map[string]any{
				"algo": "iar", "bench": "luindex", "scale": 0.05, "tenant": fmt.Sprintf("t%d", i)}))
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, b)
			}
		}(i)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.ServeMemoMisses != 1 || s.ServeMemoHits != n-1 {
		t.Errorf("memo misses=%d hits=%d, want 1 and %d", s.ServeMemoMisses, s.ServeMemoHits, n-1)
	}
	b, _ := dacapo.ByName("luindex")
	calls, _ := b.TraceLength(0.05)
	if want := int64(calls) * 4; s.ServeMemoBytes != want {
		t.Errorf("memo bytes = %d, want %d", s.ServeMemoBytes, want)
	}
	if s.ServeCacheHits+s.ServeCoalesced != 0 {
		t.Errorf("distinct fingerprints shared a response: %+v", s)
	}
}

// TestMemoMaxCallsKeepsSharedTraceIntact: a max_calls request serves a
// prefix view; the same bench and scale without max_calls, and with it,
// still answer exactly what a fresh server answers.
func TestMemoMaxCallsKeepsSharedTraceIntact(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	prefix := corpusRequest(t, map[string]any{"algo": "iar", "bench": "fop", "scale": 0.05, "max_calls": 700})
	full := corpusRequest(t, map[string]any{"algo": "jikes", "bench": "fop", "scale": 0.05})
	gotPrefix := postOK(t, ts.URL, prefix)
	gotFull := postOK(t, ts.URL, full)

	_, fresh := newTestServer(t, Options{})
	if want := postOK(t, fresh.URL, full); !bytes.Equal(gotFull, want) {
		t.Errorf("full-trace answer after a max_calls request differs from a fresh server's:\n got %s\nwant %s", gotFull, want)
	}
	_, fresh2 := newTestServer(t, Options{})
	if want := postOK(t, fresh2.URL, prefix); !bytes.Equal(gotPrefix, want) {
		t.Errorf("max_calls answer differs from a fresh server's:\n got %s\nwant %s", gotPrefix, want)
	}
	if r := decodeResponse(t, gotPrefix); r.Calls != 700 {
		t.Errorf("max_calls answer reports %d calls, want 700", r.Calls)
	}
}

// TestMemoScalesShareEntry: scale 0 means 1, and scales that resolve to one
// trace length share one memo entry.
func TestMemoScalesShareEntry(t *testing.T) {
	m := &obs.Metrics{}
	_, ts := newTestServer(t, Options{Metrics: m})
	postOK(t, ts.URL, corpusRequest(t, map[string]any{"algo": "iar", "bench": "luindex", "max_calls": 500}))
	postOK(t, ts.URL, corpusRequest(t, map[string]any{"algo": "iar", "bench": "luindex", "scale": 1, "max_calls": 500}))
	if s := m.Snapshot(); s.ServeMemoMisses != 1 || s.ServeMemoHits != 1 {
		t.Errorf("scale 0 then 1: memo misses=%d hits=%d, want 1 and 1", s.ServeMemoMisses, s.ServeMemoHits)
	}

	b, _ := dacapo.ByName("luindex")
	n1, _ := b.TraceLength(0.001)
	n2, _ := b.TraceLength(0.0010001)
	if n1 != n2 {
		t.Fatalf("test scales resolve to %d and %d calls; pick scales with one length", n1, n2)
	}
	first := postOK(t, ts.URL, corpusRequest(t, map[string]any{"algo": "iar", "bench": "luindex", "scale": 0.001}))
	second := postOK(t, ts.URL, corpusRequest(t, map[string]any{"algo": "iar", "bench": "luindex", "scale": 0.0010001}))
	if s := m.Snapshot(); s.ServeMemoMisses != 2 || s.ServeMemoHits != 2 {
		t.Errorf("two scales of one length: memo misses=%d hits=%d, want 2 and 2", s.ServeMemoMisses, s.ServeMemoHits)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("scales of one length answer differently:\n%s\n%s", first, second)
	}
}

// fakeTraces is a memo build function that makes n-call traces and counts
// its builds.
type fakeTraces struct {
	mu     sync.Mutex
	builds map[int]int
}

func (f *fakeTraces) build(b dacapo.Benchmark, n int) (*trace.Trace, error) {
	f.mu.Lock()
	f.builds[n]++
	f.mu.Unlock()
	return trace.New(b.Name, make([]trace.FuncID, n)), nil
}

// retained lists the call counts of the memo's retained traces, most
// recently used first.
func (t *traceMemo) retained() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns []int
	for e := t.lru.Front(); e != nil; e = e.Next() {
		ns = append(ns, e.Value.(*memoEntry).key.calls)
	}
	return ns
}

// TestMemoEvictsLRUByBytes: with a 40-byte budget (ten calls), retained
// traces are evicted least recently used first until the rest fit, and a
// trace over the whole budget is answered but never retained.
func TestMemoEvictsLRUByBytes(t *testing.T) {
	m := &obs.Metrics{}
	memo := newTraceMemo(40, m)
	fake := &fakeTraces{builds: map[int]int{}}
	memo.build = fake.build
	b, _ := dacapo.ByName("pmd")
	get := func(n int) {
		t.Helper()
		tr, err := memo.trace(context.Background(), b, n)
		if err != nil || tr.Len() != n {
			t.Fatalf("trace(%d): %v", n, err)
		}
	}
	check := func(step string, want []int, bytes int64) {
		t.Helper()
		if got := memo.retained(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: retained %v, want %v", step, got, want)
		}
		if g := m.Snapshot().ServeMemoBytes; g != bytes || memo.bytes != bytes {
			t.Errorf("%s: memo holds %d B (gauge %d), want %d", step, memo.bytes, g, bytes)
		}
	}
	get(4) // 16 B
	get(3) // 12 B
	get(4) // a hit: 3 is now the least recently used
	check("after the touch", []int{4, 3}, 28)
	get(5) // 20 B: 48 B is over budget, so 3 goes
	check("after the eviction", []int{5, 4}, 36)

	get(11) // 44 B: over the whole budget
	get(11)
	check("after the oversize trace", []int{5, 4}, 36)
	get(3) // rebuilt: 48 B, so 4 goes
	check("after the rebuild", []int{3, 5}, 32)
	fake.mu.Lock()
	if fake.builds[11] != 2 || fake.builds[3] != 2 || fake.builds[4] != 1 || fake.builds[5] != 1 {
		t.Errorf("builds per length = %v, want 11:2 3:2 4:1 5:1", fake.builds)
	}
	fake.mu.Unlock()

	memo.release()
	check("after release", nil, 0)
	if len(memo.entries) != 0 {
		t.Errorf("after release: %d entries, want 0", len(memo.entries))
	}
}

// TestMemoOversizeTraceAnsweredNotRetained: through the service, a trace
// over the memo's budget still answers exactly what a fresh server answers,
// and is built again on the next request.
func TestMemoOversizeTraceAnsweredNotRetained(t *testing.T) {
	m := &obs.Metrics{}
	srv, ts := newTestServer(t, Options{Metrics: m})
	srv.memo = newTraceMemo(100, m)
	req := map[string]any{"algo": "iar", "bench": "antlr", "scale": 0.01}
	got := postOK(t, ts.URL, corpusRequest(t, req))
	req["model"] = "oracle"
	postOK(t, ts.URL, corpusRequest(t, req))
	if s := m.Snapshot(); s.ServeMemoMisses != 2 || s.ServeMemoBytes != 0 {
		t.Errorf("memo misses=%d bytes=%d, want 2 and 0", s.ServeMemoMisses, s.ServeMemoBytes)
	}
	delete(req, "model")
	_, fresh := newTestServer(t, Options{})
	if want := postOK(t, fresh.URL, corpusRequest(t, req)); !bytes.Equal(got, want) {
		t.Errorf("oversize-trace answer differs from a fresh server's:\n got %s\nwant %s", got, want)
	}
}

// TestMemoFollowerDeadline: a request waiting on another request's build of
// its trace answers 504 by its own deadline, while the build is still
// running; the leader then answers normally.
func TestMemoFollowerDeadline(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	started, unblock := make(chan struct{}), make(chan struct{})
	srv.memo.build = func(b dacapo.Benchmark, n int) (*trace.Trace, error) {
		close(started)
		<-unblock
		return b.LoadTrace(n)
	}
	// The build is held until the follower has answered, or for 10s should
	// the follower wrongly wait for it.
	release := sync.OnceFunc(func() { close(unblock) })
	defer time.AfterFunc(10*time.Second, release).Stop()
	leader := make(chan int, 1)
	go func() {
		status, _, _ := post(t, ts.URL, corpusRequest(t, map[string]any{"algo": "iar", "bench": "luindex", "scale": 0.01}))
		leader <- status
	}()
	<-started
	begin := time.Now()
	status, _, b := post(t, ts.URL, corpusRequest(t, map[string]any{
		"algo": "jikes", "bench": "luindex", "scale": 0.01, "timeout_ms": 100}))
	elapsed := time.Since(begin)
	release()
	if status != http.StatusGatewayTimeout {
		t.Errorf("follower status = %d (%s), want 504", status, b)
	}
	if elapsed > 5*time.Second {
		t.Errorf("follower answered after %v; it must not wait for the build", elapsed)
	}
	select {
	case status := <-leader:
		if status != http.StatusOK {
			t.Errorf("leader status = %d, want 200", status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("leader never answered")
	}
}

// TestMemoHitNilSinkAllocs: a warm memo hit with a nil metrics sink
// allocates nothing.
func TestMemoHitNilSinkAllocs(t *testing.T) {
	memo := newTraceMemo(traceMemoBudget, nil)
	memo.build = (&fakeTraces{builds: map[int]int{}}).build
	b, _ := dacapo.ByName("pmd")
	ctx := context.Background()
	if _, err := memo.trace(ctx, b, 64); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := memo.trace(ctx, b, 64); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm memo hit allocates %v times, want 0", allocs)
	}
}
