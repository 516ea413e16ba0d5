package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/profile"
	"repro/internal/trace"
)

// The make-span kernel: the §6.1 semantics (see the package comment) written
// once. It holds the validated, flattened profile tables, the per-function
// version lists and the compile worker pool, and has exactly one compile step
// (compileStep) and one call step (the body of runCalls). Run and
// Evaluator.Run replay a static schedule on it; the evaluator's delta path
// resumes the call loop on a second kernel holding the edited compile side;
// PrefixSim drives one kernel in append mode; RunPolicy and RunPolicyMT keep
// their queue/drain engine and drive the call step one call at a time.

// version is one finished compilation of a function.
type version struct {
	done  int64
	level profile.Level
}

// versionList is one function's finished compilations ordered by finish
// time, for "latest finished at or before t" lookups. Per-function lists stay
// tiny (one entry per compilation of that function), so linear operations are
// fine.
type versionList []version

func (v *versionList) insert(done int64, l profile.Level) {
	i := len(*v)
	for i > 0 && (*v)[i-1].done > done {
		i--
	}
	*v = append(*v, version{})
	copy((*v)[i+1:], (*v)[i:])
	(*v)[i] = version{done, l}
}

// latestAt returns the level of the latest compilation finished at or before
// t, and whether any such version exists. Callers turn ok == false into a
// structured *ErrNoReadyVersion instead of crashing the run.
func (v versionList) latestAt(t int64) (profile.Level, bool) {
	for i := len(v) - 1; i >= 0; i-- {
		if v[i].done <= t {
			return v[i].level, true
		}
	}
	return 0, false
}

func (v versionList) firstReady() int64 {
	if len(v) == 0 {
		return -1
	}
	return v[0].done
}

// workerPool assigns jobs to the earliest-free of w workers.
type workerPool struct {
	free []int64 // free[i] is when worker i becomes idle
}

// reset sizes the pool to w idle workers, reusing its storage.
func (p *workerPool) reset(w int) {
	p.free = growN(p.free, w)
	clear(p.free)
}

// assign runs a job of the given duration arriving at the given time on the
// earliest-free worker and returns (worker, start, done).
func (p *workerPool) assign(arrival, duration int64) (int, int64, int64) {
	best, start := p.earliest()
	if arrival > start {
		start = arrival
	}
	done := start + duration
	p.free[best] = done
	return best, start, done
}

// earliest returns the earliest-free worker and its free time.
func (p *workerPool) earliest() (worker int, free int64) {
	best := 0
	for i, f := range p.free {
		if f < p.free[best] {
			best = i
		}
	}
	return best, p.free[best]
}

// growN resizes a scratch slice to n elements, reusing the backing array when
// it is large enough, and never returns nil. Callers overwrite (or clear) the
// contents themselves. A slice that outgrows its array gets headroom: a
// kernel following a growing prefix re-sizes the same arenas many times.
func growN[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// lane is one execution worker: its clock and what the call step has
// accumulated on it.
type lane struct {
	t       int64 // end of the last call: the execution clock
	exec    int64 // summed call durations
	bubble  int64 // summed waits for a first version
	bubbles int   // calls that waited
}

// kernel is the shared simulation state; see the comment at the top of the
// file. Its zero value is unbound; bind attaches a profile.
type kernel struct {
	nf, levels int
	// compile[f*levels+l] and exec[f*levels+l] flatten the profile tables
	// (kept apart: the call step reads only exec).
	compile, exec []int64

	versions []versionList
	vbuf     []version // backing store carved among versions by replay
	pool     workerPool

	// Static-replay scratch and outputs.
	nEvents    []int32 // per-function schedule event counts
	res        Result
	compiles   []CompileRecord
	firstReady []int64
	starts     []int64
	lvls       []profile.Level
	// recLvls makes a recording runCalls append levels to lvls too; replay
	// sets it only under Options.RecordCalls.
	recLvls bool
	// execBound and budget are the two halves of the last replay's
	// worst-case check.
	execBound, budget int64
}

// bind validates p and flattens it into the kernel, reusing every buffer
// whose capacity suffices. On error the kernel is unusable until a
// successful bind.
func (k *kernel) bind(p *profile.Profile) error {
	nf, levels := p.NumFuncs(), p.Levels
	if levels <= 0 {
		return fmt.Errorf("sim: evaluator needs a profile with positive Levels, got %d", levels)
	}
	for f := range p.Funcs {
		ft := &p.Funcs[f]
		if len(ft.Compile) != levels || len(ft.Exec) != levels {
			return fmt.Errorf("sim: evaluator: function %d has %d compile / %d exec levels, want %d",
				f, len(ft.Compile), len(ft.Exec), levels)
		}
	}
	k.nf, k.levels = nf, levels
	k.compile, k.exec = growN(k.compile, nf*levels), growN(k.exec, nf*levels)
	for f := 0; f < nf; f++ {
		ft := &p.Funcs[f]
		for l := 0; l < levels; l++ {
			k.compile[f*levels+l], k.exec[f*levels+l] = ft.Compile[l], ft.Exec[l]
		}
	}
	k.versions = growN(k.versions, nf)
	return nil
}

// carve gives each function's version list a window of one shared buffer,
// sized by its schedule event count n[f] (plus one for extra, the function
// of an appended event, or -1), so a static schedule's inserts never
// allocate.
func (k *kernel) carve(n []int32, total int, extra trace.FuncID) {
	k.vbuf = growN(k.vbuf, total+1)
	off := 0
	for f := range k.versions {
		c := off + int(n[f])
		if trace.FuncID(f) == extra {
			c++
		}
		k.versions[f] = k.vbuf[off:off:c]
		off = c
	}
}

// compileStep is the compile step: it runs ev on the earliest-free worker, no
// earlier than arrival, and records the version it produces. With res
// non-nil the event is also booked into res and emitted to opts' recorder.
func (k *kernel) compileStep(ev CompileEvent, arrival int64, res *Result, opts *Options) int64 {
	w, start, done := k.pool.assign(arrival, k.compile[int(ev.Func)*k.levels+int(ev.Level)])
	k.versions[ev.Func].insert(done, ev.Level)
	if res != nil {
		seq := int32(len(res.Compiles))
		res.Compiles = append(res.Compiles, CompileRecord{Event: ev, Start: start, Done: done, Worker: w})
		opts.Recorder.CompileStart(start, int32(ev.Func), int32(ev.Level), int32(w), seq)
		opts.Recorder.CompileEnd(done, int32(ev.Func), int32(ev.Level), int32(w), seq)
		res.CompileBusy += done - start
		res.CompileEnd = max(res.CompileEnd, done)
	}
	return done
}

// readyAt is when a call to f can start on a lane whose clock is t: once
// f's first version is ready, and not before t.
func (k *kernel) readyAt(f trace.FuncID, t int64) int64 {
	return max(t, k.versions[f].firstReady())
}

// runCalls executes calls[from:to] through the call step: the start at
// readyAt, the bubble accounting, the latest-version lookup and, when any
// option is set, observe's Interrupt poll, variation scaling and recorder
// events. The policy engines drive it one call at a time, after
// materializing every compilation that can start by the call's readyAt.
// With record set, each call's start is appended to k.starts and, if
// k.recLvls is set, its level to k.lvls. It returns the last call's start and
// level.
func (k *kernel) runCalls(calls []trace.FuncID, from, to int, ln *lane, opts *Options, record bool) (start int64, level profile.Level, err error) {
	// The options' work sits behind one branch and one call, so a run
	// without options keeps its loop state in registers.
	observed := opts.Interrupt != nil || opts.Recorder != nil || opts.ExecVariation > 0
	t, t0, bubble0 := ln.t, ln.t, ln.bubble
	for i := from; i < to; i++ {
		f := calls[i]
		if uint(f) >= uint(len(k.versions)) {
			return 0, 0, fmt.Errorf("sim: call %d invokes unknown function %d", i, f)
		}
		start = k.readyAt(f, t)
		var ok bool
		if level, ok = k.versions[f].latestAt(start); !ok {
			return 0, 0, &ErrNoReadyVersion{Func: f, Time: start}
		}
		dur := k.exec[int(f)*k.levels+int(level)]
		if observed {
			if dur, err = observe(opts, i, f, t, start, level, dur); err != nil {
				return 0, 0, err
			}
		}
		if start > t {
			ln.bubble += start - t
			ln.bubbles++
		}
		t = start + dur
		if record {
			k.starts = append(k.starts, start)
			if k.recLvls {
				k.lvls = append(k.lvls, level)
			}
		}
	}
	// Every tick the clock advanced was either a bubble or a call's run.
	ln.t, ln.exec = t, ln.exec+(t-t0)-(ln.bubble-bubble0)
	return start, level, nil
}

// observe is the options' part of the call step for call i (to f, at level,
// starting at start on a lane whose clock was t): it polls Interrupt every
// interruptStride calls, scales dur by the call's variation factor, and
// emits the stall and exec events. It returns the call's duration.
func observe(opts *Options, i int, f trace.FuncID, t, start int64, level profile.Level, dur int64) (int64, error) {
	if opts.Interrupt != nil && i%interruptStride == 0 && interrupted(opts.Interrupt) {
		return 0, ErrInterrupted
	}
	if opts.ExecVariation > 0 {
		dur = scaleDuration(dur, CallFactor(opts.ExecVariationSeed, i, opts.ExecVariation))
	}
	if start > t {
		opts.Recorder.Stall(t, start-t, int32(f), int32(i))
	}
	opts.Recorder.ExecStart(start, int32(f), int32(level), int32(i))
	opts.Recorder.ExecEnd(start+dur, int32(f), int32(level), int32(i))
	return dur, nil
}

// replay simulates a static schedule over tr from time zero: all events are
// available at time 0. The Result aliases the kernel's buffers. With record
// set, every call's start stays in k.starts; levels are kept in k.lvls only
// under Options.RecordCalls, where both appear on the Result.
func (k *kernel) replay(tr *trace.Trace, sched Schedule, cfg Config, opts *Options, record bool) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	k.nEvents = growN(k.nEvents, k.nf)
	if err := validateSchedule(sched, tr.Calls, k.levels, k.nEvents); err != nil {
		return nil, err
	}
	k.budget = 0
	for _, ev := range sched {
		k.budget = addSat(k.budget, max(k.compile[int(ev.Func)*k.levels+int(ev.Level)], 0))
	}
	k.execBound = k.worstExec(tr.Counts(), opts.ExecVariation)
	if err := checkTimeBounds(k.execBound, k.budget); err != nil {
		return nil, err
	}

	res := &k.res
	if cap(k.compiles) < len(sched) {
		k.compiles = make([]CompileRecord, 0, len(sched))
	}
	k.firstReady = growN(k.firstReady, k.nf)
	*res = Result{Compiles: k.compiles[:0], FirstReady: k.firstReady}
	k.pool.reset(cfg.CompileWorkers)
	k.carve(k.nEvents, len(sched), -1)
	for _, ev := range sched {
		k.compileStep(ev, 0, res, opts)
	}
	k.compiles = res.Compiles
	k.fillFirstReady(res.FirstReady)

	k.recLvls = record && opts.RecordCalls
	if record {
		k.starts = growN(k.starts, tr.Len())[:0]
	}
	if k.recLvls {
		k.lvls = growN(k.lvls, tr.Len())[:0]
	}
	var ln lane
	if _, _, err := k.runCalls(tr.Calls, 0, len(tr.Calls), &ln, opts, record); err != nil {
		return nil, err
	}
	res.MakeSpan, res.TotalExec, res.TotalBubble, res.BubbleCount = ln.t, ln.exec, ln.bubble, ln.bubbles
	if opts.RecordCalls {
		res.CallStarts, res.CallLevels = k.starts, k.lvls
	}
	return res, nil
}

// fillFirstReady writes each function's earliest version finish (or -1).
func (k *kernel) fillFirstReady(dst []int64) {
	for f := range k.versions {
		dst[f] = k.versions[f].firstReady()
	}
}

// validateSchedule checks that every event references a function in
// [0,len(n)) and a level in [0,levels), counting each function's events into
// n, and that every call in calls invokes a compiled function.
func validateSchedule(s Schedule, calls []trace.FuncID, levels int, n []int32) error {
	clear(n)
	for i, ev := range s {
		if uint(ev.Func) >= uint(len(n)) {
			return fmt.Errorf("sim: schedule event %d references unknown function %d", i, ev.Func)
		}
		if ev.Level < 0 || int(ev.Level) >= levels {
			return fmt.Errorf("sim: schedule event %d uses level %d outside [0,%d)", i, ev.Level, levels)
		}
		n[ev.Func]++
	}
	for i, f := range calls {
		if uint(f) >= uint(len(n)) || n[f] == 0 {
			return fmt.Errorf("sim: call %d invokes function %d which the schedule never compiles", i, f)
		}
	}
	return nil
}

// timeInf is the kernel's time sentinel: every instance the simulators
// accept has a worst-case make-span below it, so "no time" markers at
// timeInf never collide with a real tick and no tick overflows int64.
const timeInf = int64(1)<<62 - 1

// worstExec bounds the summed execution time of a run with the given
// per-function call counts: Σ_f counts[f]·(f's slowest exec time), each call
// scaled by the largest factor ExecVariation can produce. Saturates at
// timeInf.
func (k *kernel) worstExec(counts []int64, variation float64) int64 {
	var sum int64
	for f, n := range counts {
		if f >= k.nf {
			break
		}
		if n > 0 {
			slowest := slices.Max(k.exec[f*k.levels : (f+1)*k.levels])
			sum = addSat(sum, mulSat(n, worstCall(slowest, variation)))
		}
	}
	return sum
}

// compileBudget is the summed compile time of every (function, level) pair:
// the compile work of any policy run, which compiles each pair at most once.
// Saturates at timeInf.
func (k *kernel) compileBudget() int64 {
	var sum int64
	for _, c := range k.compile {
		sum = addSat(sum, max(c, 0))
	}
	return sum
}

// worstCall bounds one call's duration for a function whose slowest level
// takes e ticks: scaleDuration never exceeds max(e, 1, e·(1+variation))
// evaluated in the same float64 operations it performs.
func worstCall(e int64, variation float64) int64 {
	e = max(e, 1)
	if f := float64(e) * (1 + variation); f > float64(e) {
		return int64(min(f, float64(timeInf)))
	}
	return e
}

// checkTimeBounds is the kernel's one overflow check: a run whose summed
// execution time is at most exec and whose compile work is at most compile
// finishes by exec+compile (every bubble waits on some busy compile worker),
// which must stay below timeInf.
func checkTimeBounds(exec, compile int64) error {
	if addSat(exec, compile) >= timeInf {
		return &TimeOverflowError{Exec: exec, Compile: compile}
	}
	return nil
}

// CheckTimeBounds reports a *TimeOverflowError when a policy run over tr
// and p without execution-time variation — one that compiles each (function,
// level) pair at most once — could leave the simulator's time range. It
// costs O(functions × levels).
func CheckTimeBounds(tr *trace.Trace, p *profile.Profile) error {
	var k kernel
	if err := k.bind(p); err != nil {
		return err
	}
	return checkTimeBounds(k.worstExec(tr.Counts(), 0), k.compileBudget())
}

// addSat and mulSat are non-negative int64 arithmetic saturating at timeInf.
func addSat(a, b int64) int64 {
	if s := a + b; s >= 0 && s < timeInf {
		return s
	}
	return timeInf
}

func mulSat(a, b int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo >= uint64(timeInf) {
		return timeInf
	}
	return int64(lo)
}
