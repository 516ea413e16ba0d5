package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/dacapo"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/trace"
)

// validator checks response bodies against the benchmark's own reading of
// the request. It materialises each corpus workload once per (bench, scale)
// and is safe for concurrent use.
type validator struct {
	mu    sync.Mutex
	loads map[loadKey]*loaded
}

type loadKey struct {
	bench string
	scale float64
}

type loaded struct {
	once sync.Once
	w    *dacapo.Workload
	err  error
}

func newValidator() *validator { return &validator{loads: map[loadKey]*loaded{}} }

// instance returns the calls and true profile the request describes.
func (v *validator) instance(r *request) ([]trace.FuncID, *profile.Profile, error) {
	if r.inline != nil {
		return r.inline.tr.Calls, r.inline.p, nil
	}
	k := loadKey{r.wire.Bench, r.wire.Scale}
	v.mu.Lock()
	l := v.loads[k]
	if l == nil {
		l = &loaded{}
		v.loads[k] = l
	}
	v.mu.Unlock()
	l.once.Do(func() {
		b, err := dacapo.ByName(k.bench)
		if err == nil {
			l.w, err = b.Load(k.scale)
		}
		l.err = err
	})
	if l.err != nil {
		return nil, nil, l.err
	}
	calls := l.w.Trace.Calls
	if m := r.wire.MaxCalls; m > 0 && m < len(calls) {
		calls = calls[:m]
	}
	return calls, l.w.Profile, nil
}

// check validates one 200 body for r and returns the decoded response.
func (v *validator) check(r *request, body []byte) (*server.ScheduleResponse, error) {
	var resp server.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	calls, p, err := v.instance(r)
	if err != nil {
		return nil, err
	}
	if r.wire.Algo == "v8" {
		// The V8 scheme runs on the two lowest levels.
		if p, err = p.Restrict(0, 1); err != nil {
			return nil, err
		}
	}
	bench := r.wire.Bench
	if r.inline != nil {
		bench = r.inline.tr.Name
	}
	switch {
	case resp.Algo != r.wire.Algo || resp.Bench != bench:
		return nil, fmt.Errorf("response is for %s/%s, want %s/%s", resp.Algo, resp.Bench, r.wire.Algo, bench)
	case resp.Calls != len(calls):
		return nil, fmt.Errorf("calls = %d, want %d", resp.Calls, len(calls))
	case resp.UniqueFuncs != distinct(calls):
		return nil, fmt.Errorf("unique_funcs = %d, want %d", resp.UniqueFuncs, distinct(calls))
	}
	lb, err := refLowerBound(calls, p)
	if err != nil {
		return nil, err
	}
	if resp.LowerBound != lb {
		return nil, fmt.Errorf("lower_bound = %d, want %d", resp.LowerBound, lb)
	}
	if resp.MakeSpan < resp.LowerBound {
		return nil, fmt.Errorf("make_span %d below lower_bound %d", resp.MakeSpan, resp.LowerBound)
	}
	wantGap := 1.0
	if lb > 0 {
		wantGap = float64(resp.MakeSpan) / float64(lb)
	}
	if math.Abs(resp.Gap-wantGap) > 1e-9*wantGap {
		return nil, fmt.Errorf("gap = %g, want make_span/lower_bound = %g", resp.Gap, wantGap)
	}
	sched := make([]refEvent, len(resp.Schedule))
	for i, ev := range resp.Schedule {
		if ev.Func < 0 || int(ev.Func) >= len(p.Funcs) || ev.Level < 0 || ev.Level >= p.Levels {
			return nil, fmt.Errorf("schedule event %d (func %d, level %d) names no function/level of the %d×%d profile",
				i, ev.Func, ev.Level, len(p.Funcs), p.Levels)
		}
		if ev.Name != p.Funcs[ev.Func].Name {
			return nil, fmt.Errorf("schedule event %d names %q, function %d is %q", i, ev.Name, ev.Func, p.Funcs[ev.Func].Name)
		}
		sched[i] = refEvent{Func: ev.Func, Level: ev.Level}
	}
	if r.static() {
		ms, err := refMakeSpan(calls, p, sched)
		if err != nil {
			return nil, fmt.Errorf("reference replay: %w", err)
		}
		if ms != resp.MakeSpan {
			return nil, fmt.Errorf("make_span = %d, reference replay gives %d", resp.MakeSpan, ms)
		}
	}
	if r.wire.Algo == "exact" {
		if resp.Search == nil || !resp.Search.Complete {
			return nil, fmt.Errorf("exact answer carries no completed search")
		}
		for _, level := range []int{0, p.Levels - 1} {
			ms, err := refMakeSpan(calls, p, firstCallSchedule(calls, level))
			if err != nil {
				return nil, err
			}
			if resp.MakeSpan > ms {
				return nil, fmt.Errorf("certified make_span %d exceeds the all-level-%d schedule's %d", resp.MakeSpan, level, ms)
			}
		}
	}
	return &resp, nil
}

func distinct(calls []trace.FuncID) int {
	seen := map[trace.FuncID]bool{}
	for _, c := range calls {
		seen[c] = true
	}
	return len(seen)
}

// digestPrefix is how many leading script positions the response digest
// covers: every run answers them, however fast the machine, so two runs of
// one seed digest the same set.
func digestPrefix(workload string) int {
	if workload == "oracle" {
		return 64
	}
	return 256
}

// digest hashes the bodies of script positions [0, n) in order.
func digest(bodyHash map[int][32]byte, n int) (string, error) {
	h := sha256.New()
	for i := 0; i < n; i++ {
		bh, ok := bodyHash[i]
		if !ok {
			return "", fmt.Errorf("no answer for script position %d", i)
		}
		h.Write(bh[:])
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)), nil
}
