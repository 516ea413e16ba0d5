package sim

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
)

// hugeProfile is one function whose calls take exec ticks at either level,
// compiled in one tick at level 0 and in compile1 ticks at level 1.
func hugeProfile(exec, compile1 int64) *profile.Profile {
	return &profile.Profile{Levels: 2, Funcs: []profile.FuncTimes{
		{Name: "f0", Size: 1, Compile: []int64{1, compile1}, Exec: []int64{exec, exec}},
	}}
}

func wantOverflow(t *testing.T, what string, err error) {
	t.Helper()
	var oe *TimeOverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("%s: err = %v, want *TimeOverflowError", what, err)
	}
}

// TestTimeOverflowRejected: one function with exec time 2^62 called four
// times overflows int64 (the reference simulator returns a negative
// make-span); every entry point rejects it with the typed error instead.
func TestTimeOverflowRejected(t *testing.T) {
	p := hugeProfile(1<<62, 1)
	tr := trace.New("huge", []trace.FuncID{0, 0, 0, 0})
	sched := Schedule{{Func: 0, Level: 0}}
	if ref, err := refRun(tr, p, sched, DefaultConfig(), Options{}); err != nil || ref.MakeSpan >= 0 {
		t.Fatalf("reference run = %+v, %v; the instance no longer overflows it", ref, err)
	}
	_, err := Run(tr, p, sched, DefaultConfig(), Options{})
	wantOverflow(t, "Run", err)
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eval.Run(sched, DefaultConfig(), Options{})
	wantOverflow(t, "Evaluator.Run", err)
	_, err = RunPolicy(tr, p, levelZero{}, DefaultConfig(), Options{})
	wantOverflow(t, "RunPolicy", err)
	_, _, err = RunPolicyMT([]*trace.Trace{tr}, p, levelZero{}, DefaultConfig(), Options{})
	wantOverflow(t, "RunPolicyMT", err)
	wantOverflow(t, "CheckTimeBounds", CheckTimeBounds(tr, p))
}

// TestTimeBoundEdge: an instance whose worst case is one tick below the
// sentinel runs and reports it exactly; one tick more is rejected.
func TestTimeBoundEdge(t *testing.T) {
	tr := trace.New("edge", []trace.FuncID{0, 0})
	const exec = int64(1)<<61 - 2
	fits := &profile.Profile{Levels: 1, Funcs: []profile.FuncTimes{{Compile: []int64{2}, Exec: []int64{exec}}}}
	res, err := Run(tr, fits, Schedule{{Func: 0}}, DefaultConfig(), Options{})
	if err != nil {
		t.Fatalf("worst case timeInf-1 rejected: %v", err)
	}
	if res.MakeSpan != timeInf-1 {
		t.Fatalf("MakeSpan = %d, want %d", res.MakeSpan, timeInf-1)
	}
	over := &profile.Profile{Levels: 1, Funcs: []profile.FuncTimes{{Compile: []int64{3}, Exec: []int64{exec}}}}
	_, err = Run(tr, over, Schedule{{Func: 0}}, DefaultConfig(), Options{})
	wantOverflow(t, "worst case timeInf", err)
}

// TestTimeOverflowVariation: execution-time variation scales the bound, so an
// instance that fits without it can overflow with it.
func TestTimeOverflowVariation(t *testing.T) {
	p := hugeProfile(1<<60, 1)
	tr := trace.New("vary", []trace.FuncID{0, 0, 0})
	sched := Schedule{{Func: 0, Level: 0}}
	if _, err := Run(tr, p, sched, DefaultConfig(), Options{}); err != nil {
		t.Fatalf("3·2^60 rejected without variation: %v", err)
	}
	_, err := Run(tr, p, sched, DefaultConfig(), Options{ExecVariation: 0.5})
	wantOverflow(t, "Run with variation", err)
}

// TestDeltaTimeOverflow: a delta edit that raises the compile budget past the
// bound is rejected by the incremental path as a full run would be.
func TestDeltaTimeOverflow(t *testing.T) {
	p := hugeProfile(10, timeInf-5)
	tr := trace.New("delta", []trace.FuncID{0, 0})
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{{Func: 0, Level: 0}}
	if _, err := eval.Run(sched, DefaultConfig(), Options{}); err != nil {
		t.Fatal(err)
	}
	_, err = eval.UpgradedMakeSpan(0, 1)
	wantOverflow(t, "UpgradedMakeSpan", err)
	_, err = eval.AppendedMakeSpan(CompileEvent{Func: 0, Level: 1})
	wantOverflow(t, "AppendedMakeSpan", err)
	_, err = eval.MakeSpanOf(Schedule{{Func: 0, Level: 1}}, DefaultConfig(), Options{})
	wantOverflow(t, "MakeSpanOf", err)
	_, err = Run(tr, p, Schedule{{Func: 0, Level: 1}}, DefaultConfig(), Options{})
	wantOverflow(t, "Run", err)
}

// TestWorstCallBoundsScaledDuration: worstCall is an upper bound on every
// duration scaleDuration can produce, including magnitudes past 2^53 where
// float64 rounding matters.
func TestWorstCallBoundsScaledDuration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20000; trial++ {
		e := rng.Int63n(1 << uint(1+rng.Intn(61)))
		v := rng.Float64() * 0.999
		if trial%5 == 0 {
			v = 0
		}
		bound := worstCall(e, v)
		if d := scaleDuration(e, CallFactor(rng.Int63(), rng.Intn(1<<20), v)); d > bound {
			t.Fatalf("scaleDuration(%d, variation %g) = %d > worstCall %d", e, v, d, bound)
		}
	}
}
