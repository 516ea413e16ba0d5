package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.JobStarted(time.Second)
	m.JobCompleted(time.Second, true, true)
	m.CacheHit(3)
	m.Deduped(2)
	m.SimRun(100)
	m.ServeCoalesced()
	m.ServeClientGone()
	m.ServeQueueWait(time.Second)
	m.ServeBatch(3)
	m.ServeTenant("t")
	m.ServeTenantRejected("t")
	m.ServeShardHit(1)
	m.ServeMemoHit()
	m.ServeMemoMiss()
	m.ServeMemoBytes(64)
	if s := m.Snapshot(); !reflect.DeepEqual(s, Snapshot{}) {
		t.Errorf("nil metrics snapshot = %+v, want zero", s)
	}
}

// TestMetricsServeLabeled: the per-tenant and per-shard maps count without
// cross-talk and snapshot as independent copies.
func TestMetricsServeLabeled(t *testing.T) {
	var m Metrics
	m.ServeTenant("a")
	m.ServeTenant("a")
	m.ServeTenant("b")
	m.ServeTenantRejected("b")
	m.ServeShardHit(0)
	m.ServeShardHit(3)
	m.ServeShardHit(3)
	m.ServeShardHit(-1) // caching disabled: dropped
	s := m.Snapshot()
	if s.ServeTenantRequests["a"] != 2 || s.ServeTenantRequests["b"] != 1 {
		t.Errorf("tenant requests = %v", s.ServeTenantRequests)
	}
	if s.ServeTenantRejects["b"] != 1 || len(s.ServeTenantRejects) != 1 {
		t.Errorf("tenant rejects = %v", s.ServeTenantRejects)
	}
	if s.ServeShardHits[0] != 1 || s.ServeShardHits[3] != 2 || len(s.ServeShardHits) != 2 {
		t.Errorf("shard hits = %v", s.ServeShardHits)
	}
	// The snapshot is a copy: mutating it must not leak back.
	s.ServeTenantRequests["a"] = 99
	if got := m.Snapshot().ServeTenantRequests["a"]; got != 2 {
		t.Errorf("snapshot aliases the live map: %d", got)
	}
}

// TestMetricsServeOutcomes: client-gone is its own outcome, not a timeout.
func TestMetricsServeOutcomes(t *testing.T) {
	var m Metrics
	m.ServeDone(true, false)
	m.ServeDone(false, true)
	m.ServeDone(false, false)
	m.ServeClientGone()
	m.ServeCacheHit()
	m.ServeCoalesced()
	s := m.Snapshot()
	if s.ServeOK != 1 || s.ServeCancelled != 1 || s.ServeErrors != 1 || s.ServeClientGone != 1 {
		t.Errorf("outcomes = ok %d cancelled %d errors %d client-gone %d", s.ServeOK, s.ServeCancelled, s.ServeErrors, s.ServeClientGone)
	}
	if s.ServeCacheHits != 1 || s.ServeCoalesced != 1 {
		t.Errorf("cache split = hits %d coalesced %d, want 1/1", s.ServeCacheHits, s.ServeCoalesced)
	}
}

func TestMetricsCounts(t *testing.T) {
	var m Metrics
	m.JobStarted(10 * time.Millisecond)
	m.JobStarted(30 * time.Millisecond)
	m.JobCompleted(50*time.Millisecond, false, false)
	m.JobCompleted(70*time.Millisecond, true, true)
	m.CacheHit(4)
	m.Deduped(1)
	m.SimRun(500)
	m.SimRun(700)

	s := m.Snapshot()
	if s.JobsStarted != 2 || s.JobsCompleted != 2 || s.JobsFailed != 1 || s.JobsPanicked != 1 {
		t.Errorf("job counters wrong: %+v", s)
	}
	if s.QueueWait != 40*time.Millisecond {
		t.Errorf("queue wait = %v, want 40ms", s.QueueWait)
	}
	if s.JobWall != 120*time.Millisecond || s.MaxJobWall != 70*time.Millisecond {
		t.Errorf("wall = %v max %v, want 120ms/70ms", s.JobWall, s.MaxJobWall)
	}
	if s.CacheHits != 4 || s.Deduped != 1 {
		t.Errorf("cache counters wrong: %+v", s)
	}
	if s.SimRuns != 2 || s.SimTicks != 1200 {
		t.Errorf("sim counters wrong: %+v", s)
	}
	line := s.String()
	for _, want := range []string{"2 jobs started", "1 failed", "1 panicked", "4 cache hits", "2 sims"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary %q missing %q", line, want)
		}
	}
}

func TestMetricsConcurrent(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.JobStarted(time.Microsecond)
				m.JobCompleted(time.Duration(j), false, false)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.JobsStarted != 8000 || s.JobsCompleted != 8000 {
		t.Errorf("lost updates: %+v", s)
	}
	if s.MaxJobWall != 999 {
		t.Errorf("max job wall = %v, want 999ns", s.MaxJobWall)
	}
}

func TestDefaultIsStable(t *testing.T) {
	if Default() != Default() {
		t.Error("Default returned different instances")
	}
}
