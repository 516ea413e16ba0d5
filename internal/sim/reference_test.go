package sim

// The frozen reference simulator: sim.Run and its call loop as they stood
// before the simulator entry points were unified on the kernel (kernel.go),
// with their own version lists, worker pool and schedule validation. The
// differential tests compare every kernel user against it, so the kernel is
// never only compared with itself. Do not edit it to track kernel changes:
// a difference is a finding.

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// refValidate checks that every event references a valid function and level and
// that, if tr is non-nil, every called function is compiled at least once.
func refValidate(s Schedule, tr *trace.Trace, p *profile.Profile) error {
	compiled := make([]bool, p.NumFuncs())
	for i, ev := range s {
		if ev.Func < 0 || int(ev.Func) >= p.NumFuncs() {
			return fmt.Errorf("sim: schedule event %d references unknown function %d", i, ev.Func)
		}
		if ev.Level < 0 || int(ev.Level) >= p.Levels {
			return fmt.Errorf("sim: schedule event %d uses level %d outside [0,%d)", i, ev.Level, p.Levels)
		}
		compiled[ev.Func] = true
	}
	if tr != nil {
		for i, f := range tr.Calls {
			if int(f) >= len(compiled) || !compiled[f] {
				return fmt.Errorf("sim: call %d invokes function %d which the schedule never compiles", i, f)
			}
		}
	}
	return nil
}

// refVersionList tracks one function's finished compilations ordered by finish
// time, for "latest finished at or before t" lookups. Per-function lists stay
// tiny (one entry per compilation of that function), so linear operations are
// fine.
type refVersionList struct {
	done   []int64
	levels []profile.Level
}

func (v *refVersionList) insert(done int64, l profile.Level) {
	i := len(v.done)
	for i > 0 && v.done[i-1] > done {
		i--
	}
	v.done = append(v.done, 0)
	v.levels = append(v.levels, 0)
	copy(v.done[i+1:], v.done[i:])
	copy(v.levels[i+1:], v.levels[i:])
	v.done[i] = done
	v.levels[i] = l
}

// latestAt returns the level of the latest compilation finished at or before
// t, and whether any such version exists. Callers turn ok == false into a
// structured *ErrNoReadyVersion instead of crashing the run.
func (v *refVersionList) latestAt(t int64) (profile.Level, bool) {
	for i := len(v.done) - 1; i >= 0; i-- {
		if v.done[i] <= t {
			return v.levels[i], true
		}
	}
	return 0, false
}

func (v *refVersionList) firstReady() int64 {
	if len(v.done) == 0 {
		return -1
	}
	return v.done[0]
}

// refWorkerPool assigns jobs to the earliest-free of w workers.
type refWorkerPool struct {
	free []int64 // free[i] is when worker i becomes idle
}

func newRefWorkerPool(w int) *refWorkerPool { return &refWorkerPool{free: make([]int64, w)} }

// assign runs a job of the given duration arriving at the given time on the
// earliest-free worker and returns (worker, start, done).
func (p *refWorkerPool) assign(arrival, duration int64) (int, int64, int64) {
	best, free := p.earliest()
	start := free
	if arrival > start {
		start = arrival
	}
	done := start + duration
	p.free[best] = done
	return best, start, done
}

// earliest returns the earliest-free worker and its free time.
func (p *refWorkerPool) earliest() (worker int, free int64) {
	best := 0
	for i, f := range p.free {
		if f < p.free[best] {
			best = i
		}
	}
	return best, p.free[best]
}

// refRun replays a static compilation schedule against the trace and returns the
// resulting make-span. All compile events are available at time 0; this is
// the mode in which the paper evaluates IAR, the single-level schemes, and
// any precomputed schedule.
func refRun(tr *trace.Trace, p *profile.Profile, sched Schedule, cfg Config, opts Options) (*Result, error) {
	if cfg.CompileWorkers < 1 {
		return nil, fmt.Errorf("sim: Config.CompileWorkers must be >= 1, got %d", cfg.CompileWorkers)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := refValidate(sched, tr, p); err != nil {
		return nil, err
	}

	res := &Result{
		Compiles:   make([]CompileRecord, 0, len(sched)),
		FirstReady: make([]int64, p.NumFuncs()),
	}
	versions := make([]refVersionList, p.NumFuncs())
	pool := newRefWorkerPool(cfg.CompileWorkers)
	rec := opts.Recorder
	for si, ev := range sched {
		w, start, done := pool.assign(0, p.CompileTime(ev.Func, ev.Level))
		res.Compiles = append(res.Compiles, CompileRecord{Event: ev, Start: start, Done: done, Worker: w})
		rec.CompileStart(start, int32(ev.Func), int32(ev.Level), int32(w), int32(si))
		rec.CompileEnd(done, int32(ev.Func), int32(ev.Level), int32(w), int32(si))
		versions[ev.Func].insert(done, ev.Level)
		res.CompileBusy += done - start
		if done > res.CompileEnd {
			res.CompileEnd = done
		}
	}
	for f := range versions {
		res.FirstReady[f] = versions[f].firstReady()
	}

	if err := refRunCalls(tr, p, versions, res, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// refRunCalls executes the trace against the prepared version lists, filling the
// execution-side fields of res. A call reached before any version of its
// function exists yields a *ErrNoReadyVersion.
func refRunCalls(tr *trace.Trace, p *profile.Profile, versions []refVersionList, res *Result, opts Options) error {
	if opts.RecordCalls {
		res.CallStarts = make([]int64, 0, tr.Len())
		res.CallLevels = make([]profile.Level, 0, tr.Len())
	}
	rec := opts.Recorder
	intr := opts.Interrupt
	var execT int64
	for i, f := range tr.Calls {
		if intr != nil && i%interruptStride == 0 && interrupted(intr) {
			return ErrInterrupted
		}
		start := execT
		if ready := versions[f].firstReady(); ready > start {
			start = ready
		}
		if start > execT {
			res.TotalBubble += start - execT
			res.BubbleCount++
			rec.Stall(execT, start-execT, int32(f), int32(i))
		}
		level, ok := versions[f].latestAt(start)
		if !ok {
			return &ErrNoReadyVersion{Func: f, Time: start}
		}
		dur := p.ExecTime(f, level)
		if opts.ExecVariation > 0 {
			dur = scaleDuration(dur, CallFactor(opts.ExecVariationSeed, i, opts.ExecVariation))
		}
		if opts.RecordCalls {
			res.CallStarts = append(res.CallStarts, start)
			res.CallLevels = append(res.CallLevels, level)
		}
		rec.ExecStart(start, int32(f), int32(level), int32(i))
		rec.ExecEnd(start+dur, int32(f), int32(level), int32(i))
		res.TotalExec += dur
		execT = start + dur
	}
	res.MakeSpan = execT
	return nil
}
