package sim

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/profile"
	"repro/internal/trace"
)

// Evaluator is the allocation-free fast path for repeated static-schedule
// simulation over one (trace, profile) pair — the inner loop behind IAR's
// passes, the beam/A* searches, and the experiment harnesses, all of which
// evaluate thousands of schedules against the same workload.
//
// Construction precomputes everything derivable from the trace and profile
// alone: the flattened per-function/per-level compile and exec time tables
// (one slice index instead of two pointer hops), and the trace's memoized
// indices. Run then reuses zeroed scratch buffers — version lists, the
// compile worker pool, the per-call records, the Result itself — so that
// after the first call (the warm-up that sizes the arenas) a Run performs no
// heap allocation at all. TestEvaluatorZeroAlloc holds it to that.
//
// # Identical-results contract
//
// Evaluator.Run and sim.Run are the same kernel replay (kernel.go): same
// Result fields, same error values, same Recorder event stream, tick for
// tick. The evaluator only keeps the kernel's arenas across runs. The
// differential tests in evaluator_test.go pin both against the frozen
// reference simulator in reference_test.go across the fuzz seed corpus.
//
// # Delta evaluation
//
// After a successful Run (the baseline), the two schedule edits the search
// algorithms actually make — upgrade one event's level in place, append one
// event at the tail — can be scored without replaying the whole run:
// UpgradedMakeSpan and AppendedMakeSpan rebuild only the compile side (O(M)
// for M events) and resume the execution loop at the first call the edit can
// possibly affect, found by binary search over the baseline call starts.
// MakeSpanOf is the transparent entry point: it diffs a candidate schedule
// against the baseline and takes the incremental path when the candidate is
// one supported edit away, falling back to a full (still allocation-free)
// simulation otherwise.
//
// An Evaluator is not safe for concurrent use; parallel harnesses use one
// evaluator per worker. Results returned by Run alias the evaluator's arena
// and are valid only until the next Run/MakeSpanOf call.
type Evaluator struct {
	kernel
	tr *trace.Trace

	// Baseline of the last successful Run, for delta evaluation. The
	// baseline's per-call starts and levels are the kernel's call records.
	baseValid bool
	baseSched Schedule
	baseCfg   Config
	baseOpts  Options
	baseSpan  int64

	// delta holds an edited schedule's compile side over the same tables, so
	// the baseline's version lists stay untouched.
	delta kernel

	runs int64
}

// NewEvaluator builds an evaluator for the trace/profile pair. The trace is
// treated as immutable from here on (its derived indices are memoized).
func NewEvaluator(tr *trace.Trace, p *profile.Profile) (*Evaluator, error) {
	e := &Evaluator{}
	if err := e.Reset(tr, p); err != nil {
		return nil, err
	}
	evalCounters.evaluators.Add(1)
	return e, nil
}

// Reset rebinds the evaluator to a new (trace, profile) pair, reusing every
// arena whose capacity already suffices — the flattened time tables, the
// version lists, the per-call records, and the worker pools. It performs the
// same validation, with the same error strings, as NewEvaluator; on error the
// evaluator is left unusable until a successful Reset. Any delta baseline is
// discarded. This is what lets a long-lived arena (e.g. core's IAR arena, the
// online replanner) follow a growing visible prefix without reallocating its
// buffers each rebind.
func (e *Evaluator) Reset(tr *trace.Trace, p *profile.Profile) error {
	e.baseValid = false
	if err := e.bind(p); err != nil {
		return err
	}
	e.tr = tr
	e.delta.nf, e.delta.levels, e.delta.compile, e.delta.exec = e.nf, e.levels, e.compile, e.exec
	e.delta.versions = growN(e.delta.versions, e.nf)
	return nil
}

// Run replays a static compilation schedule exactly as sim.Run does,
// reusing the evaluator's arenas. The returned Result is valid until the
// next call on this evaluator.
func (e *Evaluator) Run(sched Schedule, cfg Config, opts Options) (*Result, error) {
	e.baseValid = false
	res, err := e.replay(e.tr, sched, cfg, &opts, true)
	if err != nil {
		return nil, err
	}
	e.runs++
	evalCounters.runs.Add(1)
	if e.runs > 1 {
		evalCounters.warmRuns.Add(1)
	}
	if opts.Recorder == nil {
		// A recorded run cannot serve as a delta baseline: the incremental
		// path emits no span events, so it would silently drop them.
		e.baseValid = true
		e.baseSched = append(e.baseSched[:0], sched...)
		e.baseCfg = cfg
		e.baseOpts = opts
		e.baseSpan = res.MakeSpan
	}
	return res, nil
}

// CallStarts returns the start time of every call of the last successful
// Run, in trace order, whether or not that run set Options.RecordCalls:
// the evaluator always keeps them as its delta baseline. It mirrors
// PrefixSim.CallStarts. The slice aliases the evaluator and is valid
// (read-only) until the next Run, MakeSpanOf or Reset.
func (e *Evaluator) CallStarts() []int64 { return e.starts }

// EditKind selects one of the two schedule edits with an incremental path.
type EditKind int

const (
	// EditUpgrade changes the level of one existing event in place.
	EditUpgrade EditKind = iota
	// EditAppend adds one event at the tail of the schedule.
	EditAppend
)

// Edit describes a single-event schedule edit relative to the baseline.
type Edit struct {
	Kind EditKind
	// Pos is the edited event's index (EditUpgrade only).
	Pos int
	// Event is the new event: for EditUpgrade its Func must match the
	// baseline event at Pos.
	Event CompileEvent
}

// MakeSpanOf evaluates a candidate schedule's make-span, taking the
// incremental delta path when the candidate differs from the last Run's
// schedule by exactly one supported edit (one in-place level change, or one
// appended tail event) under the same configuration, and transparently
// falling back to a full — still allocation-free — simulation otherwise.
// The fallback replaces the baseline with the candidate run.
func (e *Evaluator) MakeSpanOf(sched Schedule, cfg Config, opts Options) (int64, error) {
	if e.baseValid && cfg == e.baseCfg && opts.Recorder == nil &&
		opts.ExecVariation == e.baseOpts.ExecVariation &&
		opts.ExecVariationSeed == e.baseOpts.ExecVariationSeed {
		if ed, kind := e.diff(sched); kind != diffFar {
			evalCounters.deltaFast.Add(1)
			if kind == diffSame {
				return e.baseSpan, nil
			}
			return e.editedMakeSpan(ed, &opts)
		}
	}
	evalCounters.deltaFull.Add(1)
	res, err := e.Run(sched, cfg, opts)
	if err != nil {
		return 0, err
	}
	return res.MakeSpan, nil
}

const (
	diffSame = iota // identical to the baseline schedule
	diffEdit        // exactly one supported edit away
	diffFar         // anything else: full simulation required
)

// diff classifies a candidate schedule against the baseline.
func (e *Evaluator) diff(sched Schedule) (Edit, int) {
	base := e.baseSched
	switch {
	case len(sched) == len(base):
		pos := -1
		for i := range sched {
			if sched[i] != base[i] {
				if pos >= 0 || sched[i].Func != base[i].Func {
					return Edit{}, diffFar
				}
				pos = i
			}
		}
		if pos < 0 {
			return Edit{}, diffSame
		}
		if sched[pos].Level < 0 || int(sched[pos].Level) >= e.levels {
			return Edit{}, diffFar
		}
		return Edit{Kind: EditUpgrade, Pos: pos, Event: sched[pos]}, diffEdit
	case len(sched) == len(base)+1:
		for i := range base {
			if sched[i] != base[i] {
				return Edit{}, diffFar
			}
		}
		ev := sched[len(base)]
		if ev.Func < 0 || int(ev.Func) >= e.nf || ev.Level < 0 || int(ev.Level) >= e.levels {
			return Edit{}, diffFar
		}
		return Edit{Kind: EditAppend, Event: ev}, diffEdit
	}
	return Edit{}, diffFar
}

// UpgradedMakeSpan returns the make-span of the baseline schedule with event
// pos's level changed to level, computed incrementally. It requires a prior
// successful Run on this evaluator.
func (e *Evaluator) UpgradedMakeSpan(pos int, level profile.Level) (int64, error) {
	if !e.baseValid {
		return 0, fmt.Errorf("sim: evaluator has no baseline run for delta evaluation")
	}
	if pos < 0 || pos >= len(e.baseSched) {
		return 0, fmt.Errorf("sim: delta upgrade position %d outside schedule of %d events", pos, len(e.baseSched))
	}
	if level < 0 || int(level) >= e.levels {
		return 0, fmt.Errorf("sim: delta upgrade level %d outside [0,%d)", level, e.levels)
	}
	evalCounters.deltaFast.Add(1)
	return e.editedMakeSpan(Edit{Kind: EditUpgrade, Pos: pos,
		Event: CompileEvent{Func: e.baseSched[pos].Func, Level: level}}, &e.baseOpts)
}

// AppendedMakeSpan returns the make-span of the baseline schedule with ev
// appended at the tail, computed incrementally. It requires a prior
// successful Run on this evaluator.
func (e *Evaluator) AppendedMakeSpan(ev CompileEvent) (int64, error) {
	if !e.baseValid {
		return 0, fmt.Errorf("sim: evaluator has no baseline run for delta evaluation")
	}
	if ev.Func < 0 || int(ev.Func) >= e.nf {
		return 0, fmt.Errorf("sim: delta append references unknown function %d", ev.Func)
	}
	if ev.Level < 0 || int(ev.Level) >= e.levels {
		return 0, fmt.Errorf("sim: delta append uses level %d outside [0,%d)", ev.Level, e.levels)
	}
	evalCounters.deltaFast.Add(1)
	return e.editedMakeSpan(Edit{Kind: EditAppend, Event: ev}, &e.baseOpts)
}

// editedMakeSpan computes the edited schedule's make-span by rebuilding the
// compile side in the delta kernel and resuming the call loop at the first
// call the edit can affect. opts supplies the variation (equal to the
// baseline's) and the Interrupt channel.
//
// Correctness: let tAffect be the minimum over all events whose finished
// version changed of min(old finish, new finish). Every recorded call start
// is >= its function's first-ready time, so a call with start < tAffect saw
// only versions finishing at or before its start — all unchanged — and its
// start, level, and end are identical in the edited run. The loop therefore
// resumes at the first baseline call start >= tAffect (binary search; starts
// are non-decreasing) with the predecessor's end as the exec clock, obtained
// by replaying the (unaffected) predecessor from its recorded start.
func (e *Evaluator) editedMakeSpan(ed Edit, opts *Options) (int64, error) {
	cell := func(ev CompileEvent) int64 { return max(e.compile[int(ev.Func)*e.levels+int(ev.Level)], 0) }
	budget := e.budget
	if ed.Kind == EditUpgrade {
		budget -= cell(e.baseSched[ed.Pos])
	}
	if err := checkTimeBounds(e.execBound, addSat(budget, cell(ed.Event))); err != nil {
		return 0, err
	}

	d := &e.delta
	extra := trace.FuncID(-1)
	if ed.Kind == EditAppend {
		extra = ed.Event.Func
	}
	d.pool.reset(e.baseCfg.CompileWorkers)
	d.carve(e.nEvents, len(e.baseSched), extra)
	tAffect := timeInf
	for j, ev := range e.baseSched {
		edited := ev
		if ed.Kind == EditUpgrade && j == ed.Pos {
			edited = ed.Event
		}
		done := d.compileStep(edited, 0, nil, nil)
		// A shifted finish time affects calls from min(old, new) on; a level
		// change with an unshifted finish still swaps the version visible
		// from that finish time on.
		if old := e.compiles[j].Done; done != old || edited.Level != ev.Level {
			tAffect = min(tAffect, done, old)
		}
	}
	if ed.Kind == EditAppend {
		tAffect = min(tAffect, d.compileStep(ed.Event, 0, nil, nil))
	}
	if tAffect == timeInf {
		return e.baseSpan, nil
	}

	calls := e.tr.Calls
	idx, _ := slices.BinarySearch(e.starts, tAffect)
	if idx == len(calls) {
		return e.baseSpan, nil
	}
	// Resume one call early, from its recorded start: that call is
	// unaffected, so replaying it restores the exec clock at idx.
	var ln lane
	if idx > 0 {
		idx--
		ln.t = e.starts[idx]
	}
	if _, _, err := d.runCalls(calls, idx, len(calls), &ln, opts, false); err != nil {
		return 0, err
	}
	return ln.t, nil
}

// evalCounters aggregates evaluator activity process-wide; `jitsched exp
// -stats` reports them next to the runner's counters.
var evalCounters struct {
	evaluators atomic.Int64
	runs       atomic.Int64
	warmRuns   atomic.Int64
	deltaFast  atomic.Int64
	deltaFull  atomic.Int64
}

// EvalStats is a snapshot of the process-wide evaluator counters.
type EvalStats struct {
	// Evaluators counts NewEvaluator calls; Runs counts Evaluator.Run calls,
	// of which WarmRuns hit fully warmed arenas (every run after an
	// evaluator's first).
	Evaluators int64
	Runs       int64
	WarmRuns   int64
	// DeltaFast counts schedule evaluations answered by the incremental
	// delta path; DeltaFull counts MakeSpanOf calls that fell back to a full
	// simulation.
	DeltaFast int64
	DeltaFull int64
}

// ReadEvalStats snapshots the process-wide evaluator counters.
func ReadEvalStats() EvalStats {
	return EvalStats{
		Evaluators: evalCounters.evaluators.Load(),
		Runs:       evalCounters.runs.Load(),
		WarmRuns:   evalCounters.warmRuns.Load(),
		DeltaFast:  evalCounters.deltaFast.Load(),
		DeltaFull:  evalCounters.deltaFull.Load(),
	}
}

// Summary renders the stats as one line.
func (s EvalStats) Summary() string {
	return fmt.Sprintf("sim: %d evaluators, %d runs (%d warm), delta evals %d fast / %d full-fallback",
		s.Evaluators, s.Runs, s.WarmRuns, s.DeltaFast, s.DeltaFull)
}
