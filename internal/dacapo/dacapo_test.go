package dacapo

import (
	"reflect"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
)

func lv(l int) profile.Level { return profile.Level(l) }

// Table 1 ground truth from the paper.
var table1 = map[string]struct {
	parallel bool
	funcs    int
	fullLen  int
	seconds  float64
}{
	"antlr":    {false, 1187, 2403584, 1.6},
	"bloat":    {false, 1581, 9423445, 5.0},
	"eclipse":  {false, 2194, 467372, 28.4},
	"fop":      {false, 1927, 1323119, 1.5},
	"hsqldb":   {true, 1006, 8022794, 2.9},
	"jython":   {false, 2128, 23655473, 6.7},
	"luindex":  {false, 641, 20582610, 6.1},
	"lusearch": {true, 543, 43573214, 3.2},
	"pmd":      {false, 1876, 12543579, 3.5},
}

func TestSuiteMatchesTable1(t *testing.T) {
	suite := Suite()
	if len(suite) != 9 {
		t.Fatalf("suite has %d benchmarks, want 9", len(suite))
	}
	for _, b := range suite {
		want, ok := table1[b.Name]
		if !ok {
			t.Errorf("unexpected benchmark %q", b.Name)
			continue
		}
		if b.Parallel != want.parallel || b.Funcs != want.funcs ||
			b.FullLength != want.fullLen || b.DefaultSeconds != want.seconds {
			t.Errorf("%s: fields %+v do not match Table 1 %+v", b.Name, b, want)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("jython")
	if err != nil {
		t.Fatal(err)
	}
	if b.Funcs != 2128 {
		t.Errorf("jython funcs = %d, want 2128", b.Funcs)
	}
	if _, err := ByName("chart"); err == nil {
		t.Error("want error for chart (excluded by the paper)")
	}
}

func TestLoadDeterministic(t *testing.T) {
	b, err := ByName("antlr")
	if err != nil {
		t.Fatal(err)
	}
	w1, err := b.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := b.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w1.Trace.Calls, w2.Trace.Calls) {
		t.Error("loading twice produced different traces")
	}
	if !reflect.DeepEqual(w1.Profile.Funcs[0], w2.Profile.Funcs[0]) {
		t.Error("loading twice produced different profiles")
	}
}

func TestLoadValidWorkloads(t *testing.T) {
	for _, b := range Suite() {
		w, err := b.Load(1)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := w.Profile.Validate(); err != nil {
			t.Errorf("%s: profile invalid: %v", b.Name, err)
		}
		if err := w.Trace.Validate(b.Funcs); err != nil {
			t.Errorf("%s: trace invalid: %v", b.Name, err)
		}
		if w.Trace.Len() != b.ScaledLength {
			t.Errorf("%s: trace length %d, want %d", b.Name, w.Trace.Len(), b.ScaledLength)
		}
		if w.Profile.Levels != 4 {
			t.Errorf("%s: %d levels, want 4 (Jikes RVM)", b.Name, w.Profile.Levels)
		}
		st := trace.ComputeStats(w.Trace)
		if st.UniqueFuncs < b.Funcs*3/4 {
			t.Errorf("%s: only %d of %d functions appear", b.Name, st.UniqueFuncs, b.Funcs)
		}
		if st.Top10Share < 0.3 {
			t.Errorf("%s: top-10 share %.2f; workload not hot enough", b.Name, st.Top10Share)
		}
	}
}

func TestLoadScaling(t *testing.T) {
	b, err := ByName("eclipse")
	if err != nil {
		t.Fatal(err)
	}
	small, err := b.Load(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if small.Trace.Len() != b.ScaledLength/4 {
		t.Errorf("scaled length %d, want %d", small.Trace.Len(), b.ScaledLength/4)
	}
	// Scaling beyond the paper's full length is clamped.
	big, err := b.Load(1e9)
	if err != nil {
		t.Fatal(err)
	}
	if big.Trace.Len() != b.FullLength {
		t.Errorf("oversized scale gave %d calls, want clamp to %d", big.Trace.Len(), b.FullLength)
	}
	if _, err := b.Load(0); err == nil {
		t.Error("want error for zero scale")
	}
}

// TestLoadComposesSteps: Load is TraceLength, LoadTrace and LoadProfile in
// sequence, so a caller that builds the trace and the profile separately
// (the scheduling service memoizes the trace) gets the identical workload.
func TestLoadComposesSteps(t *testing.T) {
	for _, name := range []string{"fop", "lusearch"} { // sequential, parallel
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := b.Load(0.02)
		if err != nil {
			t.Fatal(err)
		}
		n, err := b.TraceLength(0.02)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := b.LoadTrace(n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.LoadProfile()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr.Calls, w.Trace.Calls) || tr.Name != w.Trace.Name {
			t.Errorf("%s: LoadTrace(%d) differs from Load's trace", name, n)
		}
		if !reflect.DeepEqual(p, w.Profile) {
			t.Errorf("%s: LoadProfile differs from Load's profile", name)
		}
	}
}

// TestTraceLength: scale resolves to ScaledLength×scale clamped to
// [1, FullLength]; LoadTrace rejects lengths outside that range.
func TestTraceLength(t *testing.T) {
	b, err := ByName("eclipse")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		scale float64
		want  int
	}{{1, b.ScaledLength}, {0.5, b.ScaledLength / 2}, {1e-9, 1}, {1e9, b.FullLength}} {
		if n, err := b.TraceLength(c.scale); err != nil || n != c.want {
			t.Errorf("TraceLength(%g) = %d, %v; want %d", c.scale, n, err, c.want)
		}
	}
	if _, err := b.TraceLength(0); err == nil {
		t.Error("TraceLength(0): want error")
	}
	for _, n := range []int{0, b.FullLength + 1} {
		if _, err := b.LoadTrace(n); err == nil {
			t.Errorf("LoadTrace(%d): want error", n)
		}
	}
}

func TestModels(t *testing.T) {
	b, err := ByName("fop")
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.Load(0.2)
	if err != nil {
		t.Fatal(err)
	}
	def := w.DefaultModel()
	ora := w.Oracle()
	if def.Levels() != 4 || ora.Levels() != 4 {
		t.Fatal("models must expose 4 levels")
	}
	diff := false
	for f := 0; f < 50 && !diff; f++ {
		for l := 0; l < 4; l++ {
			if def.ExecTime(trace.FuncID(f), lv(l)) != ora.ExecTime(trace.FuncID(f), lv(l)) {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("default model equals oracle; estimation error missing")
	}
}

func TestLoadThreads(t *testing.T) {
	b, err := ByName("hsqldb")
	if err != nil {
		t.Fatal(err)
	}
	per, p, err := b.LoadThreads(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 4 {
		t.Fatalf("%d threads, want 4", len(per))
	}
	total := 0
	for i, tr := range per {
		if err := tr.Validate(p.NumFuncs()); err != nil {
			t.Errorf("thread %d invalid: %v", i, err)
		}
		total += tr.Len()
	}
	if total != b.ScaledLength {
		t.Errorf("threads total %d calls, want %d", total, b.ScaledLength)
	}
	if _, _, err := b.LoadThreads(0, 4); err == nil {
		t.Error("want error for zero scale")
	}
	if _, _, err := b.LoadThreads(1, 0); err == nil {
		t.Error("want error for zero threads")
	}
}

func TestLoadRunSharesStructure(t *testing.T) {
	b, err := ByName("jython")
	if err != nil {
		t.Fatal(err)
	}
	w0, err := b.Load(0.3)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := b.LoadRun(0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(w0.Trace.Calls, w1.Trace.Calls) {
		t.Fatal("different runs produced identical traces")
	}
	// Same program: identical timing profiles and overlapping hot sets.
	if !reflect.DeepEqual(w0.Profile.Funcs[0], w1.Profile.Funcs[0]) {
		t.Error("runs have different timing profiles")
	}
	hot0, err := trace.HotSet(w0.Trace, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	hot1, err := trace.HotSet(w1.Trace, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	in1 := map[trace.FuncID]bool{}
	for _, f := range hot1 {
		in1[f] = true
	}
	overlap := 0
	for _, f := range hot0 {
		if in1[f] {
			overlap++
		}
	}
	if overlap*2 < len(hot0) {
		t.Errorf("hot sets overlap only %d of %d; runs do not share structure", overlap, len(hot0))
	}
	if _, err := b.LoadRun(1, -1); err == nil {
		t.Error("want error for negative run")
	}
	// Run 0 equals Load.
	w00, err := b.LoadRun(0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w00.Trace.Calls, w0.Trace.Calls) {
		t.Error("run 0 differs from Load")
	}
}
