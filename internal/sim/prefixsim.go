package sim

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// PrefixSim is a resumable simulation of a growing instance: compile events
// may be appended to the schedule tail and calls appended to the executed
// trace, in any interleaving, and the simulation advances by exactly the new
// work instead of replaying from time zero. It exists for the online
// replanner, whose per-stride state — the init schedule following a growing
// visible prefix, the step-2/step-3 schedules re-evaluated over ever more
// calls — is append-only between plan rebuilds, so each replan costs O(new
// calls) rather than O(prefix).
//
// # Exactness contract
//
// A PrefixSim that has appended compile events e1..eM (in that order) and
// executed calls c1..cN reports exactly what Evaluator.Run / sim.Run report
// for the static schedule [e1..eM] over the trace [c1..cN] (no arrival
// times, no variation, no recorder): the same call starts, the same
// make-span, the same compile-finish times, tick for tick. It is the same
// kernel (kernel.go) driven in append mode: AppendCompile is the compile
// step, ExecCalls the call step. The differential tests in prefixsim_test.go
// pin it against the frozen reference simulator in reference_test.go.
//
// The contract holds because appending never rewrites history: calls execute
// sequentially, so earlier starts cannot depend on later calls; and a
// compile event appended after some calls have executed is only admitted
// when no executed call could have used it — its function has never executed
// (the replanner's case: a function newly revealed by the stream), or its
// finish time is at or past the execution clock. AppendCompile rejects the
// one shape that would diverge (an already-executed function's event
// finishing in the past) instead of silently producing a non-replayable
// state.
//
// A PrefixSim is not safe for concurrent use. On any returned error other
// than AppendCompile's (which leaves the state untouched) the simulation is
// mid-step and must be Reset before reuse.
type PrefixSim struct {
	kernel
	workers    int
	dones      []int64
	compileEnd int64
	ln         lane
	called     []bool
}

// NewPrefixSim builds a resumable simulator for the profile under the given
// machine configuration, with an empty schedule and no executed calls. The
// profile is validated exactly as sim.NewEvaluator validates it.
func NewPrefixSim(p *profile.Profile, cfg Config) (*PrefixSim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &PrefixSim{workers: cfg.CompileWorkers}
	if err := s.bind(p); err != nil {
		return nil, err
	}
	s.called = make([]bool, s.nf)
	s.Reset()
	return s, nil
}

// Reset discards the schedule and all executed calls, keeping the arenas, so
// the simulator can replay a different schedule from time zero without
// reallocating.
func (s *PrefixSim) Reset() {
	for f := range s.versions {
		s.versions[f] = s.versions[f][:0]
	}
	s.pool.reset(s.workers)
	clear(s.called)
	s.dones = s.dones[:0]
	s.starts = s.starts[:0]
	s.compileEnd = 0
	s.ln = lane{}
}

// AppendCompile appends one compile event at the schedule tail, assigning it
// to the earliest-free worker with arrival time zero, exactly as the static
// simulators do. It rejects out-of-range events and — see the exactness
// contract — an event for an already-executed function that would have
// finished before the current execution clock. On error the state is
// unchanged.
func (s *PrefixSim) AppendCompile(ev CompileEvent) error {
	if ev.Func < 0 || int(ev.Func) >= s.nf {
		return fmt.Errorf("sim: prefix schedule event references unknown function %d", ev.Func)
	}
	if ev.Level < 0 || int(ev.Level) >= s.levels {
		return fmt.Errorf("sim: prefix schedule event uses level %d outside [0,%d)", ev.Level, s.levels)
	}
	_, free := s.pool.earliest()
	if done := free + s.compile[int(ev.Func)*s.levels+int(ev.Level)]; s.called[ev.Func] && done < s.ln.t {
		return fmt.Errorf("sim: prefix append of function %d finishing at %d would rewrite history before exec clock %d",
			ev.Func, done, s.ln.t)
	}
	done := s.compileStep(ev, 0, nil, nil)
	s.dones = append(s.dones, done)
	s.compileEnd = max(s.compileEnd, done)
	return nil
}

// ExecCalls executes the given calls in order, advancing the simulation
// clock. A call to a function with no appended compilation fails with
// *ErrNoReadyVersion, as in the static simulators.
func (s *PrefixSim) ExecCalls(calls []trace.FuncID) error {
	if _, _, err := s.runCalls(calls, 0, len(calls), &s.ln, &Options{}, true); err != nil {
		return err
	}
	for _, f := range calls {
		s.called[f] = true
	}
	return nil
}

// MakeSpan returns the execution clock: the end of the last executed call,
// or 0 before any call.
func (s *PrefixSim) MakeSpan() int64 { return s.ln.t }

// CompileEnd returns the finish time of the latest-finishing appended
// compile event, or 0 before any event.
func (s *PrefixSim) CompileEnd() int64 { return s.compileEnd }

// CallStarts returns the start time of every executed call, in execution
// order. The slice aliases the simulator and is valid (read-only) until the
// next ExecCalls or Reset.
func (s *PrefixSim) CallStarts() []int64 { return s.starts }

// CompileDones returns the finish time of every appended compile event, in
// append order. The slice aliases the simulator and is valid (read-only)
// until the next AppendCompile or Reset.
func (s *PrefixSim) CompileDones() []int64 { return s.dones }

// NumCalls returns how many calls have been executed.
func (s *PrefixSim) NumCalls() int { return len(s.starts) }

// NumCompiles returns how many compile events have been appended.
func (s *PrefixSim) NumCompiles() int { return len(s.dones) }
