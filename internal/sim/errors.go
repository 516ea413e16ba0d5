package sim

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/trace"
)

// ErrInterrupted reports that a run was abandoned because Options.Interrupt
// fired. The simulated numbers accumulated so far are meaningless and are
// never returned — every entry point yields a nil Result (and RunPolicyMT
// nil thread results) alongside this error.
var ErrInterrupted = errors.New("sim: run interrupted")

// ErrNoReadyVersion reports that execution reached a call at a time when no
// compiled version of the function existed — a schedule that executes before
// any compile finishes. The simulator's entry points validate their inputs,
// so seeing this error from Run or RunPolicy means the run's internal
// bookkeeping was handed an inconsistent state; it is returned (never
// panicked) so batch sweeps degrade to one failed job instead of crashing.
type ErrNoReadyVersion struct {
	// Func is the function the call needed.
	Func trace.FuncID
	// Time is the simulated tick at which the call tried to start.
	Time int64
}

// Error implements the error interface.
func (e *ErrNoReadyVersion) Error() string {
	return fmt.Sprintf("sim: no compiled version of function %d was ready at time %d", e.Func, e.Time)
}

// TimeOverflowError reports an instance whose worst-case make-span does not
// stay below the simulator's time range, 2^62 - 1 ticks, so some tick of a
// run could overflow. Every entry point checks before simulating.
type TimeOverflowError struct {
	// Exec bounds the summed execution time (Σ_f calls(f)·max exec(f),
	// scaled by 1+ExecVariation) and Compile the compile work (a static
	// schedule's events, or every (function, level) pair for a policy run);
	// both saturate at 2^62 - 1.
	Exec, Compile int64
}

// Error implements the error interface.
func (e *TimeOverflowError) Error() string {
	return fmt.Sprintf("sim: worst-case make-span out of range: execution bound %d + compile budget %d reaches %d ticks",
		e.Exec, e.Compile, timeInf)
}

// DeadlockError reports that the execution worker blocked waiting for a
// function while no pending compilation could ever produce a version of it:
// the simulated machine would hang forever. It carries the queue state at
// the moment of the deadlock for debugging.
type DeadlockError struct {
	// Func is the function the executor blocked on.
	Func trace.FuncID
	// Time is the simulated tick at which the executor blocked.
	Time int64
	// Pending is the compile queue's remaining requests (typically empty:
	// a non-empty queue can always drain).
	Pending []Request
}

// Error implements the error interface.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: executor blocked on function %d at time %d with no pending compilation of it", e.Func, e.Time)
	if len(e.Pending) == 0 {
		b.WriteString(" (compile queue empty)")
	} else {
		fmt.Fprintf(&b, " (%d queued:", len(e.Pending))
		for i, r := range e.Pending {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, " C%d(f%d)", r.Level, r.Func)
		}
		b.WriteByte(')')
	}
	return b.String()
}
