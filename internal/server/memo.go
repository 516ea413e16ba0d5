package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/astar"
	"repro/internal/dacapo"
	"repro/internal/obs"
	"repro/internal/trace"
)

// traceMemoBudget bounds the bytes of trace calls one Server's memo retains.
// The nine benchmarks at scales 0.25, 0.5 and 1 take about 17 MB.
const traceMemoBudget = 32 << 20

// memoKey identifies a corpus trace: the benchmark and the length its scale
// resolves to, so scales that resolve to one length share an entry.
type memoKey struct {
	bench string
	calls int
}

// memoEntry is one trace, in flight until done is closed. tr and err are
// written once, before the close.
type memoEntry struct {
	key   memoKey
	done  chan struct{}
	tr    *trace.Trace
	err   error
	bytes int64
	// elem is the entry's place in the LRU list; nil while in flight or when
	// the entry was not retained.
	elem *list.Element
}

// traceMemo is a per-Server single-flight memo of corpus traces, bounded by
// the bytes of their calls. The first request for a key builds the trace;
// concurrent requests for it wait, each by its own deadline. Finished traces
// are kept least-recently-used within the budget; a trace larger than the
// whole budget is handed to its waiters and dropped, and an in-flight entry
// is never evicted. Traces are shared and must be treated as immutable:
// callers take prefixes with trace.Slice, never by editing Calls.
type traceMemo struct {
	budget int64
	build  func(b dacapo.Benchmark, n int) (*trace.Trace, error)
	m      *obs.Metrics

	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	lru     list.List // retained entries, most recently used at the front
	bytes   int64
}

func newTraceMemo(budget int64, m *obs.Metrics) *traceMemo {
	return &traceMemo{
		budget:  budget,
		build:   dacapo.Benchmark.LoadTrace,
		m:       m,
		entries: make(map[memoKey]*memoEntry),
	}
}

// trace returns b's trace of n calls. A wait for another request's build
// that outlives ctx returns astar.ErrCancelled wrapped with ctx's cause; the
// build itself runs to completion for whoever still needs it.
func (t *traceMemo) trace(ctx context.Context, b dacapo.Benchmark, n int) (*trace.Trace, error) {
	k := memoKey{b.Name, n}
	t.mu.Lock()
	if e, ok := t.entries[k]; ok {
		if e.elem != nil {
			t.lru.MoveToFront(e.elem)
		}
		t.mu.Unlock()
		t.m.ServeMemoHit()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: waiting for the %s trace: %w", astar.ErrCancelled, b.Name, context.Cause(ctx))
		}
		return e.tr, e.err
	}
	e := &memoEntry{key: k, done: make(chan struct{})}
	t.entries[k] = e
	t.mu.Unlock()
	t.m.ServeMemoMiss()

	e.tr, e.err = t.build(b, n)
	t.mu.Lock()
	t.settle(e)
	t.mu.Unlock()
	close(e.done)
	return e.tr, e.err
}

// settle retains a finished entry within the budget, evicting from the cold
// end, or forgets it: a failed build is retried by the next request, and an
// oversize trace is never retained. t.mu must be held.
func (t *traceMemo) settle(e *memoEntry) {
	if e.err == nil {
		e.bytes = int64(len(e.tr.Calls)) * int64(unsafe.Sizeof(trace.FuncID(0)))
	}
	if e.err != nil || e.bytes > t.budget {
		delete(t.entries, e.key)
		return
	}
	e.elem = t.lru.PushFront(e)
	t.add(e.bytes)
	for t.bytes > t.budget {
		t.drop(t.lru.Back().Value.(*memoEntry))
	}
}

// drop removes a retained entry. t.mu must be held.
func (t *traceMemo) drop(e *memoEntry) {
	t.lru.Remove(e.elem)
	e.elem = nil
	delete(t.entries, e.key)
	t.add(-e.bytes)
}

func (t *traceMemo) add(delta int64) {
	t.bytes += delta
	t.m.ServeMemoBytes(delta)
}

// release drops every retained trace. Shutdown calls it once the workers
// are joined, so no build is in flight.
func (t *traceMemo) release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.lru.Len() > 0 {
		t.drop(t.lru.Back().Value.(*memoEntry))
	}
}
