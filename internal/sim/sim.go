// Package sim is the make-span measurement framework of §6.1 of the paper:
// given a call sequence, the per-level compile/execute times of the involved
// functions, a compilation schedule, and the number of cores used for
// compilation, it computes the make-span of the execution.
//
// # Timing model
//
// Time is int64 ticks and starts at 0 with the first compilation event.
// One execution worker processes the trace's calls in order. W >= 1
// compilation workers process compile events in queue order (an event may not
// start before it is enqueued, and with several workers each event goes to
// the earliest-free worker). A call to function f:
//
//   - cannot start before some compilation of f has finished (the wait, if
//     any, is a "bubble" in the paper's terms);
//   - runs with the code version of the latest compilation of f that finished
//     at or before the call's start, taking e[f][level] ticks.
//
// The make-span is the finish time of the last call. Compilations still in
// flight at that point do not extend it (they could no longer help anyone),
// which matches the paper's Tgap reasoning in the IAR algorithm's step 4.
//
// These semantics reproduce the worked examples of Figs. 1 and 2 of the paper
// tick for tick; see TestPaperFigure1 and TestPaperFigure2.
package sim

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
)

// CompileEvent is one entry of a compilation schedule: compile Func at Level.
type CompileEvent struct {
	Func  trace.FuncID
	Level profile.Level
}

// Schedule is an ordered compilation sequence — the object OCSP optimizes.
type Schedule []CompileEvent

// Clone returns a copy of the schedule.
func (s Schedule) Clone() Schedule { return append(Schedule(nil), s...) }

// TotalCompileTime sums the schedule's compile times under p.
func (s Schedule) TotalCompileTime(p *profile.Profile) int64 {
	var total int64
	for _, ev := range s {
		total += p.CompileTime(ev.Func, ev.Level)
	}
	return total
}

// Validate checks that every event references a valid function and level and
// that, if tr is non-nil, every called function is compiled at least once.
func (s Schedule) Validate(tr *trace.Trace, p *profile.Profile) error {
	var calls []trace.FuncID
	if tr != nil {
		calls = tr.Calls
	}
	return validateSchedule(s, calls, p.Levels, make([]int32, p.NumFuncs()))
}

// Config selects the machine configuration.
type Config struct {
	// CompileWorkers is the number of compilation threads/cores (>= 1).
	// The execution side is always one worker: the paper flattens even its
	// multithreaded benchmarks into a single call sequence.
	CompileWorkers int
	// Discipline selects how workers pick pending requests in RunPolicy
	// (static Run replays a fixed order and ignores it). The zero value is
	// FIFO, the behaviour of the systems the paper measures.
	Discipline QueueDiscipline
}

// DefaultConfig is the paper's base setting: execution on one core,
// compilation on one other core.
func DefaultConfig() Config { return Config{CompileWorkers: 1} }

// validate reports a worker count below one.
func (c Config) validate() error {
	if c.CompileWorkers < 1 {
		return fmt.Errorf("sim: Config.CompileWorkers must be >= 1, got %d", c.CompileWorkers)
	}
	return nil
}

// Options toggles optional result detail and per-call effects.
type Options struct {
	// RecordCalls captures per-call start times and code levels.
	RecordCalls bool
	// ExecVariation, when non-zero, scales each call's execution time by a
	// deterministic mean-preserving per-call factor of that magnitude
	// (see CallFactor), modeling the §8 observation that execution times
	// differ across calls. Must lie in [0, 1).
	ExecVariation float64
	// ExecVariationSeed selects the variation realization.
	ExecVariationSeed int64
	// Recorder, when non-nil, receives every compile-start/compile-end/
	// exec-start/exec-end/stall event of the run as a typed span event
	// (see internal/obs). A nil recorder costs nothing: the emit path is
	// allocation-free, held to by BenchmarkRunCallsRecorderOff and
	// TestRecorderDisabledZeroAlloc.
	Recorder *obs.Recorder
	// Interrupt, when non-nil, makes Run, Evaluator.Run and MakeSpanOf,
	// RunPolicy and RunPolicyMT abandon the simulation once the channel is
	// closed (or receives): the kernel's call step polls it every
	// interruptStride calls (per thread in RunPolicyMT) and returns
	// ErrInterrupted. UpgradedMakeSpan and AppendedMakeSpan poll the
	// baseline run's channel.
	// This is how a serving layer cancels a long replay — typically wired
	// to a context's Done channel. A nil channel costs nothing; polling
	// never changes the numbers of a run that finishes.
	Interrupt <-chan struct{}
}

// interruptStride is how many calls the call step commits between
// Interrupt polls. Interruption only ever aborts a run, so the stride trades
// promptness against per-call overhead without affecting surviving runs.
const interruptStride = 1024

// interrupted is the non-blocking Interrupt poll (a nil channel is never
// ready).
func interrupted(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// validate reports the first Options error, or nil.
func (o Options) validate() error {
	if o.ExecVariation < 0 || o.ExecVariation >= 1 {
		return fmt.Errorf("sim: Options.ExecVariation must be in [0,1), got %g", o.ExecVariation)
	}
	return nil
}

// CompileRecord reports when one schedule event ran.
type CompileRecord struct {
	Event  CompileEvent
	Start  int64
	Done   int64
	Worker int
}

// Result reports a simulated execution.
type Result struct {
	// MakeSpan is the finish time of the last call (0 for an empty trace).
	MakeSpan int64
	// TotalExec is the sum of the executed calls' durations.
	TotalExec int64
	// TotalBubble is the total time the execution worker spent waiting for
	// compilations, including the initial wait before the first call.
	// MakeSpan == TotalExec + TotalBubble always holds.
	TotalBubble int64
	// BubbleCount is the number of calls that had to wait (plus one if the
	// first call waited at time zero, which it almost always does).
	BubbleCount int
	// CompileEnd is when the last compilation event finished; it may exceed
	// MakeSpan if compilations outlive the program.
	CompileEnd int64
	// CompileBusy is the summed busy time of all compilation workers.
	CompileBusy int64
	// Compiles records each schedule event's execution window, in schedule
	// order.
	Compiles []CompileRecord
	// FirstReady[f] is the earliest time any compilation of f finished, or -1
	// if f was never compiled.
	FirstReady []int64
	// CallStarts[i] and CallLevels[i] are per-call detail (only with
	// Options.RecordCalls).
	CallStarts []int64
	CallLevels []profile.Level
	// MaxPending is the largest number of requests simultaneously waiting
	// for a worker (online runs only); FirstBehindRecompiles counts
	// first-time compilation requests that arrived while at least one
	// recompilation was still waiting — the situations where the §7
	// first-compile-first discipline can act.
	MaxPending            int
	FirstBehindRecompiles int
}

// Run replays a static compilation schedule against the trace and returns the
// resulting make-span. All compile events are available at time 0; this is
// the mode in which the paper evaluates IAR, the single-level schemes, and
// any precomputed schedule.
func Run(tr *trace.Trace, p *profile.Profile, sched Schedule, cfg Config, opts Options) (*Result, error) {
	k := kernels.Get().(*kernel)
	defer func() {
		// Drop the caller's buffers before the kernel goes back to the pool.
		k.res, k.compiles, k.firstReady, k.starts, k.lvls = Result{}, nil, nil, nil, nil
		kernels.Put(k)
	}()
	if err := k.bind(p); err != nil {
		return nil, err
	}
	res, err := k.replay(tr, sched, cfg, &opts, opts.RecordCalls)
	if err != nil {
		return nil, err
	}
	out := *res
	return &out, nil
}

// kernels recycles Run's private kernel scratch (tables, version lists,
// worker pool). The buffers a Result exposes are never recycled: Run hands
// the kernel back without them, so replay allocates them afresh.
var kernels = sync.Pool{New: func() any { return new(kernel) }}
