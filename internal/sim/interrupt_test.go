package sim

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// closedChan returns an already-fired interrupt signal.
func closedChan() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// TestRunInterrupted: a fired Options.Interrupt aborts a static replay with
// ErrInterrupted and no partial Result.
func TestRunInterrupted(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("fig1", []trace.FuncID{0, 1, 2, 1})
	sched := Schedule{{0, 0}, {1, 0}, {2, 0}}
	res, err := Run(tr, p, sched, DefaultConfig(), Options{Interrupt: closedChan()})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res != nil {
		t.Fatalf("interrupted Run returned a Result: %+v", res)
	}
}

// TestRunPolicyInterrupted: same contract for the online-policy engine.
func TestRunPolicyInterrupted(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("fig1", []trace.FuncID{0, 1, 2, 1})
	res, err := RunPolicy(tr, p, levelZero{}, DefaultConfig(), Options{Interrupt: closedChan()})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res != nil {
		t.Fatalf("interrupted RunPolicy returned a Result: %+v", res)
	}
}

// TestEvaluatorRunInterrupted: the evaluator's full run honours a fired
// Options.Interrupt exactly as Run does, and a fired interrupt passed to
// MakeSpanOf stops its delta path too (the edit below resumes the call loop
// at call 0, a poll point).
func TestEvaluatorRunInterrupted(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("fig1", []trace.FuncID{0, 1, 2, 1})
	sched := Schedule{{0, 0}, {1, 0}, {2, 0}}
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eval.Run(sched, DefaultConfig(), Options{Interrupt: closedChan()})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res != nil {
		t.Fatalf("interrupted Evaluator.Run returned a Result: %+v", res)
	}
	if _, err := eval.Run(sched, DefaultConfig(), Options{}); err != nil {
		t.Fatal(err)
	}
	upgraded := Schedule{{0, 1}, {1, 0}, {2, 0}}
	if _, err := eval.MakeSpanOf(upgraded, DefaultConfig(), Options{Interrupt: closedChan()}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("MakeSpanOf delta err = %v, want ErrInterrupted", err)
	}
}

// TestRunPolicyMTInterrupted: same contract for the multi-threaded engine.
func TestRunPolicyMTInterrupted(t *testing.T) {
	p := figure1Profile()
	threads := []*trace.Trace{
		trace.New("t0", []trace.FuncID{0, 1, 2, 1}),
		trace.New("t1", []trace.FuncID{2, 0}),
	}
	res, per, err := RunPolicyMT(threads, p, levelZero{}, DefaultConfig(), Options{Interrupt: closedChan()})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res != nil || per != nil {
		t.Fatalf("interrupted RunPolicyMT returned results: %+v %+v", res, per)
	}
}

// TestRunNilInterruptIdentical: the zero Options (nil Interrupt) path is
// bit-identical to a run with a live, never-fired interrupt channel.
func TestRunNilInterruptIdentical(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("fig1", []trace.FuncID{0, 1, 2, 1})
	sched := Schedule{{0, 0}, {1, 0}, {2, 0}, {1, 1}}
	want, err1 := Run(tr, p, sched, DefaultConfig(), Options{})
	live := make(chan struct{})
	defer close(live)
	got, err2 := Run(tr, p, sched, DefaultConfig(), Options{Interrupt: live})
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: plain=%v interruptible=%v", err1, err2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("interruptible run differs from plain:\n got %+v\nwant %+v", got, want)
	}
}
