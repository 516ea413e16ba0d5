package sim

import (
	"fmt"
	"slices"

	"repro/internal/profile"
	"repro/internal/trace"
)

// Request is a compilation request issued by an online policy during the
// simulated run.
type Request struct {
	Func  trace.FuncID
	Level profile.Level
}

// QueueDiscipline selects how compilation workers pick the next request
// from the pending queue.
type QueueDiscipline int

const (
	// FIFO serves requests strictly in arrival order — the discipline of
	// the runtime systems the paper evaluates (Jikes RVM enqueues
	// compilation tasks and processes them in order, §2).
	FIFO QueueDiscipline = iota
	// FirstCompileFirst lets first-time compilations overtake queued
	// recompilations. This implements the §7 insight: "the first-time
	// compilation of a method should generally get a higher priority than
	// recompilations of other methods", because execution blocks on first
	// compilations but merely slows down waiting for recompilations.
	FirstCompileFirst
)

// String implements fmt.Stringer.
func (d QueueDiscipline) String() string {
	switch d {
	case FIFO:
		return "fifo"
	case FirstCompileFirst:
		return "first-compile-first"
	default:
		return fmt.Sprintf("QueueDiscipline(%d)", int(d))
	}
}

// Policy is an online compilation scheduler: the decision logic of a real
// runtime system (Jikes RVM's sampling-driven recompiler, V8's
// second-invocation promotion, plain on-demand compilation). Unlike a static
// Schedule, a Policy reacts to the execution as it unfolds, and its requests
// join the compile queue at the simulated time they are made.
//
// A Policy is single-use: the engine feeds one run through it. Implementations
// keep per-run state (hotness counters, invocation counts) internally.
// Requested levels must lie within the profile's level range.
type Policy interface {
	// FirstCall is invoked when execution reaches a function that has never
	// been requested. The returned level is compiled as a blocking request:
	// the call waits until the function is ready. now is the request time.
	FirstCall(f trace.FuncID, now int64) profile.Level

	// BeforeCall is invoked before every call, with nth the 1-based count of
	// this function's invocations so far (including this one). Returned
	// requests are enqueued at time now without blocking the call.
	BeforeCall(f trace.FuncID, nth int64, now int64) []Request

	// Sample is invoked at every sampling tick that lands during the
	// execution of a call, identifying the function on the (simulated) call
	// stack, as Jikes RVM's timer-based sampler does. Returned requests are
	// enqueued at time now.
	Sample(f trace.FuncID, now int64) []Request

	// SamplePeriod returns the wall-clock distance between sampling ticks in
	// ticks, or 0 to disable sampling.
	SamplePeriod() int64
}

// pendingReq is a compilation request waiting for a worker.
type pendingReq struct {
	f       trace.FuncID
	level   profile.Level
	arrival int64
	first   bool // a first-time compilation (execution blocks on it)
	seq     int  // arrival order tie-break
}

// compileQueue serves pending requests to workers under a discipline. The
// queue is resolved lazily: because policies only emit requests while
// execution progresses, all future arrivals are unknown until the execution
// side advances, so assignments are materialized on demand, never past the
// currently known arrivals.
type compileQueue struct {
	discipline QueueDiscipline
	pending    []pendingReq
}

// push adds a request. Arrivals are nondecreasing by construction.
func (q *compileQueue) push(r pendingReq) { q.pending = append(q.pending, r) }

// next picks the index of the request a worker idle at time t should take:
// among requests with arrival <= t, the highest-priority one; if none has
// arrived yet, the earliest-arriving (the worker waits for it). Returns -1
// if the queue is empty.
func (q *compileQueue) next(t int64) int {
	if len(q.pending) == 0 {
		return -1
	}
	best := -1
	for i, r := range q.pending {
		if r.arrival > t {
			continue
		}
		if best < 0 || q.higherPriority(r, q.pending[best]) {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	// Nothing has arrived yet: the worker idles until the earliest arrival.
	for i, r := range q.pending {
		if best < 0 || r.arrival < q.pending[best].arrival ||
			(r.arrival == q.pending[best].arrival && q.higherPriority(r, q.pending[best])) {
			best = i
		}
	}
	return best
}

// higherPriority reports whether a should be served before b when both are
// available. FIFO order is by arrival time (insertion order breaks ties);
// with one execution thread the two coincide, and with several they can
// differ because call events are processed at their start times while their
// sampling requests arrive mid-span.
func (q *compileQueue) higherPriority(a, b pendingReq) bool {
	if q.discipline == FirstCompileFirst && a.first != b.first {
		return a.first
	}
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.seq < b.seq
}

// nextAssignTime returns when the next assignment would commit (the chosen
// worker's free time or the chosen request's arrival, whichever is later),
// or ok=false if nothing is pending.
func (e *engine) nextAssignTime() (int64, bool) {
	_, free := e.pool.earliest()
	i := e.queue.next(free)
	if i < 0 {
		return 0, false
	}
	return max(free, e.queue.pending[i].arrival), true
}

func (q *compileQueue) remove(i int) pendingReq {
	r := q.pending[i]
	q.pending = append(q.pending[:i], q.pending[i+1:]...)
	return r
}

// engine couples the compile queue to a kernel: drained requests go through
// the kernel's compile step, calls through its call step. It also holds the
// per-run request bookkeeping the policy runners share.
type engine struct {
	kernel
	queue compileQueue
	res   *Result
	opts  *Options

	requested    []bool
	maxRequested []profile.Level
	seq          int
}

// newEngine validates the run's configuration, options and policy, binds p,
// and checks that no run over threads (with the policy compiling each
// (function, level) pair at most once) leaves the simulator's time range.
// The runner's name appears in the nil-policy error.
func newEngine(runner string, threads []*trace.Trace, p *profile.Profile, pol Policy, cfg Config, opts *Options) (*engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Discipline != FIFO && cfg.Discipline != FirstCompileFirst {
		return nil, fmt.Errorf("sim: unknown queue discipline %d", cfg.Discipline)
	}
	if pol == nil {
		return nil, fmt.Errorf("sim: %s needs a non-nil policy", runner)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	e := &engine{
		queue: compileQueue{discipline: cfg.Discipline},
		res:   &Result{FirstReady: make([]int64, p.NumFuncs())},
		opts:  opts,
	}
	if err := e.bind(p); err != nil {
		return nil, err
	}
	var exec int64
	for _, tr := range threads {
		if err := tr.Validate(e.nf); err != nil {
			return nil, err
		}
		exec = addSat(exec, e.worstExec(tr.Counts(), opts.ExecVariation))
	}
	if err := checkTimeBounds(exec, e.compileBudget()); err != nil {
		return nil, err
	}
	e.pool.reset(cfg.CompileWorkers)
	e.requested = make([]bool, e.nf)
	e.maxRequested = make([]profile.Level, e.nf)
	return e, nil
}

// enqueue adds a policy request arriving at the given time. Requests at a
// level not above the highest one already requested for the function are
// dropped (a JIT never downgrades, and duplicates coalesce in the queue).
// With settle set, everything startable by the arrival is materialized
// first, so the pressure stats reflect what is genuinely still waiting.
func (e *engine) enqueue(f trace.FuncID, l profile.Level, arrival int64, settle bool) error {
	if l < 0 || int(l) >= e.levels {
		return fmt.Errorf("sim: policy requested level %d for function %d outside [0,%d)", l, f, e.levels)
	}
	if e.requested[f] && l <= e.maxRequested[f] {
		return nil
	}
	if settle {
		e.drainArrived(arrival)
	}
	first := !e.requested[f]
	e.requested[f] = true
	e.maxRequested[f] = l
	e.seq++
	if first && slices.ContainsFunc(e.queue.pending, func(r pendingReq) bool { return !r.first }) {
		e.res.FirstBehindRecompiles++
	}
	e.queue.push(pendingReq{f: f, level: l, arrival: arrival, first: first, seq: e.seq})
	e.res.MaxPending = max(e.res.MaxPending, len(e.queue.pending))
	return nil
}

// drainOne materializes the next assignment, through the kernel's compile
// step, if any request is pending. Returns false when the queue is empty.
func (e *engine) drainOne() bool {
	_, free := e.pool.earliest()
	i := e.queue.next(free)
	if i < 0 {
		return false
	}
	r := e.queue.remove(i)
	e.compileStep(CompileEvent{Func: r.f, Level: r.level}, r.arrival, e.res, e.opts)
	return true
}

// drainUntilReady materializes assignments until function f has at least one
// finished-or-in-flight version, i.e. a known ready time. Sound while the
// execution side is blocked on f: a blocked executor generates no further
// arrivals, so the pending set is complete. If the queue runs dry before f
// has a version the simulated machine would hang forever; that inconsistency
// is reported as a *DeadlockError naming the blocked function and the queue
// state instead of crashing the worker.
func (e *engine) drainUntilReady(f trace.FuncID, now int64) error {
	for e.versions[f].firstReady() < 0 {
		if !e.drainOne() {
			return &DeadlockError{Func: f, Time: now, Pending: e.pendingRequests()}
		}
	}
	return nil
}

// pendingRequests snapshots the queue's outstanding requests for error
// reports.
func (e *engine) pendingRequests() []Request {
	if len(e.queue.pending) == 0 {
		return nil
	}
	out := make([]Request, len(e.queue.pending))
	for i, r := range e.queue.pending {
		out[i] = Request{Func: r.f, Level: r.level}
	}
	return out
}

// drainArrived materializes every assignment that can start at or before t,
// so that version lookups at time t see all relevant completions.
func (e *engine) drainArrived(t int64) {
	for {
		_, free := e.pool.earliest()
		if free > t {
			return
		}
		if i := e.queue.next(free); i < 0 || e.queue.pending[i].arrival > t {
			return
		}
		e.drainOne()
	}
}

// drainAll materializes every remaining assignment (end of run).
func (e *engine) drainAll() {
	for e.drainOne() {
	}
}

// RunPolicy drives the trace through an online policy and returns the
// resulting make-span together with the compilation sequence the policy
// produced (available as Result.Compiles, in compilation-start order).
//
// Engine-side rules, matching the runtime systems the paper describes:
//
//   - Requests for a function at a level not above the highest level already
//     requested for it are dropped (a JIT never downgrades, and duplicate
//     requests coalesce in the queue).
//   - cfg.CompileWorkers workers serve the queue under cfg.Discipline; a
//     request may not start before its arrival time.
func RunPolicy(tr *trace.Trace, p *profile.Profile, pol Policy, cfg Config, opts Options) (*Result, error) {
	eng, err := newEngine("RunPolicy", []*trace.Trace{tr}, p, pol, cfg, &opts)
	if err != nil {
		return nil, err
	}
	res := eng.res
	if opts.RecordCalls {
		res.CallStarts = make([]int64, 0, tr.Len())
		res.CallLevels = make([]profile.Level, 0, tr.Len())
	}

	period := pol.SamplePeriod()
	if period < 0 {
		return nil, fmt.Errorf("sim: policy sample period must be >= 0, got %d", period)
	}
	nextSample := period // first sampling tick fires at t = period

	callNum := make([]int64, eng.nf)
	var ln lane
	for i, f := range tr.Calls {
		callNum[f]++
		for _, r := range pol.BeforeCall(f, callNum[f], ln.t) {
			if err := eng.enqueue(r.Func, r.Level, ln.t, true); err != nil {
				return nil, err
			}
		}
		if !eng.requested[f] {
			if err := eng.enqueue(f, pol.FirstCall(f, ln.t), ln.t, true); err != nil {
				return nil, err
			}
		}
		if eng.versions[f].firstReady() < 0 {
			if err := eng.drainUntilReady(f, ln.t); err != nil {
				return nil, err
			}
		}
		// Materialize every compilation that can start by the call's start,
		// so the call step's version lookup sees all that finished by then.
		eng.drainArrived(eng.readyAt(f, ln.t))
		start, level, err := eng.runCalls(tr.Calls, i, i+1, &ln, &opts, false)
		if err != nil {
			return nil, err
		}
		if period > 0 {
			// Sampling ticks that land during this call observe f on the
			// stack; ticks that land in a bubble observe nothing and pass.
			for nextSample < start {
				nextSample += period
			}
			for nextSample < ln.t {
				for _, r := range pol.Sample(f, nextSample) {
					if err := eng.enqueue(r.Func, r.Level, nextSample, true); err != nil {
						return nil, err
					}
				}
				nextSample += period
			}
		}
		if opts.RecordCalls {
			res.CallStarts = append(res.CallStarts, start)
			res.CallLevels = append(res.CallLevels, level)
		}
	}
	eng.drainAll()
	eng.fillFirstReady(res.FirstReady)
	res.MakeSpan, res.TotalExec, res.TotalBubble, res.BubbleCount = ln.t, ln.exec, ln.bubble, ln.bubbles
	return res, nil
}

// ScheduleOf extracts the compilation sequence a run produced, in the order
// the events started compiling. Replaying it with Run generally gives a
// different (usually better) make-span, because replay makes all events
// available at time zero; the paper's comparison of scheduling schemes is
// about exactly this gap.
func (r *Result) ScheduleOf() Schedule {
	s := make(Schedule, len(r.Compiles))
	for i, c := range r.Compiles {
		s[i] = c.Event
	}
	return s
}
