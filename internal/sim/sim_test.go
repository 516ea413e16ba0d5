package sim

import (
	"testing"

	"repro/internal/profile"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// figure1Profile encodes the example of Figs. 1-2 of the paper:
// three functions, with f1 and f2 having a meaningful level-1 version.
//
//	          compile        exec
//	f0:  c00=1            e00=1
//	f1:  c10=1, c11=3     e10=3, e11=2
//	f2:  c20=3, c21=5     e20=3, e21=1
func figure1Profile() *profile.Profile {
	return &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			{Name: "f0", Size: 1, Compile: []int64{1, 1}, Exec: []int64{1, 1}},
			{Name: "f1", Size: 1, Compile: []int64{1, 3}, Exec: []int64{3, 2}},
			{Name: "f2", Size: 1, Compile: []int64{3, 5}, Exec: []int64{3, 1}},
		},
	}
}

// mustRun runs sim.Run and checks every Result field against the frozen
// reference simulator, so the paper-figure tests pin both.
func mustRun(t *testing.T, tr *trace.Trace, p *profile.Profile, s Schedule, cfg Config) *Result {
	t.Helper()
	res, err := Run(tr, p, s, cfg, Options{RecordCalls: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want, err := refRun(tr, p, s, cfg, Options{RecordCalls: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	diffResults(t, tr.Name, want, res)
	return res
}

// TestPaperFigure1 replays the three schedules of Fig. 1 ("f0 f1 f2 f1") and
// checks the make-spans the paper's timelines show: 11, 12, and 10.
func TestPaperFigure1(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("fig1", []trace.FuncID{0, 1, 2, 1})
	cfg := DefaultConfig()

	s1 := Schedule{{0, 0}, {1, 0}, {2, 0}}
	s2 := Schedule{{0, 0}, {1, 1}, {2, 0}}
	s3 := Schedule{{0, 0}, {1, 0}, {2, 0}, {1, 1}}

	cases := []struct {
		name string
		s    Schedule
		want int64
	}{
		{"s1 all level0", s1, 11},
		{"s2 f1 at level1", s2, 12},
		{"s3 f1 twice", s3, 10},
	}
	for _, c := range cases {
		res := mustRun(t, tr, p, c.s, cfg)
		if res.MakeSpan != c.want {
			t.Errorf("%s: make-span = %d, want %d", c.name, res.MakeSpan, c.want)
		}
		if res.MakeSpan != res.TotalExec+res.TotalBubble {
			t.Errorf("%s: make-span %d != exec %d + bubble %d",
				c.name, res.MakeSpan, res.TotalExec, res.TotalBubble)
		}
	}
}

// TestPaperFigure1Detail checks the tick-level timeline of schedule s3 of
// Fig. 1: call starts 1, 2, 5, 8 and the second f1 call running at level 1.
func TestPaperFigure1Detail(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("fig1", []trace.FuncID{0, 1, 2, 1})
	res := mustRun(t, tr, p, Schedule{{0, 0}, {1, 0}, {2, 0}, {1, 1}}, DefaultConfig())

	wantStarts := []int64{1, 2, 5, 8}
	wantLevels := []profile.Level{0, 0, 0, 1}
	for i := range wantStarts {
		if res.CallStarts[i] != wantStarts[i] {
			t.Errorf("call %d starts at %d, want %d", i, res.CallStarts[i], wantStarts[i])
		}
		if res.CallLevels[i] != wantLevels[i] {
			t.Errorf("call %d runs at level %d, want %d", i, res.CallLevels[i], wantLevels[i])
		}
	}
	// The initial wait for c00 is the only bubble: compile of f1/f2 hides
	// behind execution.
	if res.TotalBubble != 1 || res.BubbleCount != 1 {
		t.Errorf("bubbles = %d over %d calls, want 1 over 1", res.TotalBubble, res.BubbleCount)
	}
}

// TestPaperFigure2 extends the sequence with a second call to f2 and checks
// the paper's conclusion: appending c21 makes the previously-best schedule s3
// the worst (13) and the previously-worst s1 the best (12).
func TestPaperFigure2(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("fig2", []trace.FuncID{0, 1, 2, 1, 2})
	cfg := DefaultConfig()

	cases := []struct {
		name string
		s    Schedule
		want int64
	}{
		{"s1 + c21", Schedule{{0, 0}, {1, 0}, {2, 0}, {2, 1}}, 12},
		{"s2 + c21", Schedule{{0, 0}, {1, 1}, {2, 0}, {2, 1}}, 13},
		{"s3 unchanged", Schedule{{0, 0}, {1, 0}, {2, 0}, {1, 1}}, 13},
	}
	for _, c := range cases {
		res := mustRun(t, tr, p, c.s, cfg)
		if res.MakeSpan != c.want {
			t.Errorf("%s: make-span = %d, want %d", c.name, res.MakeSpan, c.want)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("t", []trace.FuncID{0, 1})

	if err := (Schedule{{0, 0}}).Validate(tr, p); err == nil {
		t.Error("want error for schedule missing a called function")
	}
	if err := (Schedule{{0, 0}, {1, 5}}).Validate(tr, p); err == nil {
		t.Error("want error for out-of-range level")
	}
	if err := (Schedule{{7, 0}}).Validate(nil, p); err == nil {
		t.Error("want error for out-of-range function")
	}
	if err := (Schedule{{0, 0}, {1, 1}}).Validate(tr, p); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("t", []trace.FuncID{0})
	if _, err := Run(tr, p, Schedule{{0, 0}}, Config{CompileWorkers: 0}, Options{}); err == nil {
		t.Error("want error for zero compile workers")
	}
}

func TestEmptyTrace(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("empty", nil)
	res := mustRun(t, tr, p, Schedule{{0, 0}}, DefaultConfig())
	if res.MakeSpan != 0 {
		t.Errorf("empty trace make-span = %d, want 0", res.MakeSpan)
	}
	if res.CompileEnd != 1 {
		t.Errorf("compile end = %d, want 1", res.CompileEnd)
	}
}

// TestLatestCompilationWins verifies the "code produced by the latest
// compilation is used" rule: a call starting exactly when a recompilation
// finishes uses the new version.
func TestLatestCompilationWins(t *testing.T) {
	p := figure1Profile()
	// Compiles: c00 done t=1, c20 done t=4, c21 done t=9. A call sequence
	// that busies the executor until exactly t=9 must run f2 at level 1.
	tr := trace.New("t", []trace.FuncID{0, 0, 0, 0, 0, 0, 0, 0, 2}) // 8 calls of e00 after start 1 → exec reaches 9
	s := Schedule{{0, 0}, {2, 0}, {2, 1}}
	res := mustRun(t, tr, p, s, DefaultConfig())
	last := len(tr.Calls) - 1
	if res.CallStarts[last] != 9 {
		t.Fatalf("last call starts at %d, want 9", res.CallStarts[last])
	}
	if res.CallLevels[last] != 1 {
		t.Errorf("last call level = %d, want 1 (recompile finished exactly at start)", res.CallLevels[last])
	}
}

// TestConcurrentCompileWorkers checks that two workers compile in parallel:
// with one worker c10 finishes at 2 (queued after c00); with two, at 1.
func TestConcurrentCompileWorkers(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("t", []trace.FuncID{1})
	s := Schedule{{0, 0}, {1, 0}}

	res1 := mustRun(t, tr, p, s, Config{CompileWorkers: 1})
	if res1.MakeSpan != 2+3 {
		t.Errorf("1 worker: make-span = %d, want 5", res1.MakeSpan)
	}
	res2 := mustRun(t, tr, p, s, Config{CompileWorkers: 2})
	if res2.MakeSpan != 1+3 {
		t.Errorf("2 workers: make-span = %d, want 4", res2.MakeSpan)
	}
	if res2.Compiles[1].Worker == res2.Compiles[0].Worker {
		t.Error("2 workers: both events ran on the same worker")
	}
}

// TestMakeSpanIdentity fuzzes random schedules and checks the accounting
// identity MakeSpan == TotalExec + TotalBubble and that versions only come
// from finished compilations.
func TestMakeSpanIdentity(t *testing.T) {
	tr := testkit.Gen(trace.GenConfig{
		Name: "fuzz", NumFuncs: 40, Length: 3000, Seed: 7,
		ZipfS: 1.6, Phases: 3, CoreFuncs: 8, CoreShare: 0.4, BurstMean: 3,
	})
	p := testkit.Synth(40, profile.DefaultTiming(4, 11))

	// Build a haphazard but valid schedule: all functions at level 0 in
	// first-call order, then a few recompiles.
	var s Schedule
	for _, f := range tr.FirstCallOrder() {
		s = append(s, CompileEvent{f, 0})
	}
	for i, f := range tr.FirstCallOrder() {
		if i%3 == 0 {
			s = append(s, CompileEvent{f, profile.Level(1 + i%3)})
		}
	}
	for _, workers := range []int{1, 2, 4, 16} {
		res := mustRun(t, tr, p, s, Config{CompileWorkers: workers})
		if res.MakeSpan != res.TotalExec+res.TotalBubble {
			t.Errorf("%d workers: make-span %d != exec %d + bubble %d",
				workers, res.MakeSpan, res.TotalExec, res.TotalBubble)
		}
		if workers > 1 {
			ref := mustRun(t, tr, p, s, Config{CompileWorkers: 1})
			if res.MakeSpan > ref.MakeSpan {
				t.Errorf("%d workers made make-span worse: %d > %d", workers, res.MakeSpan, ref.MakeSpan)
			}
		}
	}
}
