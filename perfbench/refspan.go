package main

import (
	"fmt"
	"math"

	"repro/internal/profile"
)

// refEvent is one entry of a static compilation schedule as the benchmark
// reads it off a response: compile Func at Level.
type refEvent struct {
	Func  int32
	Level int
}

// refVersion is one finished compilation of a function.
type refVersion struct {
	done  int64
	level int
}

// refMakeSpan is the benchmark's own make-span reference. It replays a
// static schedule under the shared simulator contract of DESIGN.md
// ("Simulator semantics") for one compile worker, written from the contract
// alone so that it shares no code with the simulators it checks:
//
//   - compile events run back to back in schedule order from tick 0;
//   - one execution worker runs the calls in order; a call of f starts at
//     max(end of the previous call, first finished compilation of f);
//   - it runs the version of f whose compilation finished last at or before
//     its start, taking that level's execution time;
//   - the make-span is the end of the last call.
//
// Any tick sum that leaves int64 is an error, never a wrapped number.
func refMakeSpan[F ~int32](calls []F, p *profile.Profile, sched []refEvent) (int64, error) {
	vers := make([][]refVersion, len(p.Funcs))
	var t int64
	for i, ev := range sched {
		if ev.Func < 0 || int(ev.Func) >= len(p.Funcs) {
			return 0, fmt.Errorf("schedule event %d compiles unknown function %d", i, ev.Func)
		}
		if ev.Level < 0 || ev.Level >= p.Levels {
			return 0, fmt.Errorf("schedule event %d uses level %d outside [0,%d)", i, ev.Level, p.Levels)
		}
		var err error
		if t, err = addTicks(t, p.Funcs[ev.Func].Compile[ev.Level]); err != nil {
			return 0, err
		}
		vers[ev.Func] = append(vers[ev.Func], refVersion{done: t, level: ev.Level})
	}
	// One worker finishes compilations in schedule order, so each function's
	// versions are sorted by finish time, and call starts never decrease:
	// a per-function cursor only moves forward.
	cur := make([]int, len(p.Funcs))
	var end int64
	for k, c := range calls {
		f := int(c)
		if f < 0 || f >= len(vers) || len(vers[f]) == 0 {
			return 0, fmt.Errorf("call %d invokes function %d, which the schedule never compiles", k, f)
		}
		vs := vers[f]
		start := max(end, vs[0].done)
		j := cur[f]
		for j+1 < len(vs) && vs[j+1].done <= start {
			j++
		}
		cur[f] = j
		var err error
		if end, err = addTicks(start, p.Funcs[f].Exec[vs[j].level]); err != nil {
			return 0, err
		}
	}
	return end, nil
}

// firstCallSchedule compiles every called function once, at level, in
// first-call order: the trivial all-low / all-high schedules.
func firstCallSchedule[F ~int32](calls []F, level int) []refEvent {
	seen := map[F]bool{}
	var s []refEvent
	for _, c := range calls {
		if !seen[c] {
			seen[c] = true
			s = append(s, refEvent{Func: int32(c), Level: level})
		}
	}
	return s
}

// refLowerBound is the §5.2 bound written out independently: every call at
// its function's fastest execution time.
func refLowerBound[F ~int32](calls []F, p *profile.Profile) (int64, error) {
	var sum int64
	for _, c := range calls {
		best := int64(math.MaxInt64)
		for _, e := range p.Funcs[c].Exec {
			best = min(best, e)
		}
		var err error
		if sum, err = addTicks(sum, best); err != nil {
			return 0, err
		}
	}
	return sum, nil
}

func addTicks(a, b int64) (int64, error) {
	if b < 0 || a > math.MaxInt64-b {
		return 0, fmt.Errorf("tick sum %d + %d leaves int64", a, b)
	}
	return a + b, nil
}
