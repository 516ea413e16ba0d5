package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/profile"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// corpusTraces decodes the trace fuzz seed corpus (both codecs) into traces
// usable as differential-test inputs, skipping entries the codecs reject.
func corpusTraces(t testing.TB) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, dir := range []string{"FuzzReadBinary", "FuzzReadText"} {
		root := filepath.Join("..", "trace", "testdata", "fuzz", dir)
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatalf("reading fuzz corpus %s: %v", root, err)
		}
		for _, ent := range entries {
			if ent.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(root, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			payload, ok := decodeCorpusEntry(string(data))
			if !ok {
				t.Fatalf("unparseable corpus file %s/%s", dir, ent.Name())
			}
			var tr *trace.Trace
			if dir == "FuzzReadBinary" {
				tr, err = trace.ReadBinary(bytes.NewReader([]byte(payload)))
			} else {
				tr, err = trace.ReadText(bytes.NewReader([]byte(payload)))
			}
			if err != nil || tr.Len() == 0 || tr.Len() > 1<<16 {
				continue
			}
			tr.Name = dir + "/" + ent.Name()
			out = append(out, tr)
		}
	}
	if len(out) == 0 {
		t.Fatal("fuzz corpus produced no decodable traces")
	}
	return out
}

// decodeCorpusEntry extracts the single []byte("...") or string("...")
// argument of a "go test fuzz v1" corpus file.
func decodeCorpusEntry(data string) (string, bool) {
	lines := strings.Split(strings.TrimSpace(data), "\n")
	if len(lines) < 2 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		return "", false
	}
	arg := strings.TrimSpace(lines[1])
	open := strings.Index(arg, "(")
	if open < 0 || !strings.HasSuffix(arg, ")") {
		return "", false
	}
	s, err := strconv.Unquote(arg[open+1 : len(arg)-1])
	if err != nil {
		return "", false
	}
	return s, true
}

// corpusSchedule builds a deterministic valid schedule for the trace: every
// called function at a pseudo-random level in first-call order, plus a few
// recompilations, mimicking the shapes IAR and the searches produce.
func corpusSchedule(tr *trace.Trace, p *profile.Profile, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	order := tr.FirstCallOrder()
	sched := make(Schedule, 0, len(order)*2)
	for _, f := range order {
		sched = append(sched, CompileEvent{Func: f, Level: profile.Level(rng.Intn(p.Levels))})
	}
	for _, f := range order {
		if rng.Intn(3) == 0 {
			sched = append(sched, CompileEvent{Func: f, Level: profile.Level(rng.Intn(p.Levels))})
		}
	}
	return sched
}

// diffResults compares every field of two results, reporting the first
// mismatching field by name.
func diffResults(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	wv, gv := reflect.ValueOf(*want), reflect.ValueOf(*got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("%s: Result.%s differs: reference=%v got=%v",
				tag, wv.Type().Field(i).Name, wv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}
}

// TestEvaluatorMatchesRunOnCorpus pins the identical-results contract: over
// the whole fuzz seed corpus, every Result field sim.Run and the evaluator
// produce is bit-identical to the frozen reference simulator's, across worker
// counts, options, and repeated (warm) runs.
func TestEvaluatorMatchesRunOnCorpus(t *testing.T) {
	for _, tr := range corpusTraces(t) {
		nf := tr.NumFuncs()
		p, err := profile.Synthesize(nf, profile.DefaultTiming(4, 11))
		if err != nil {
			t.Fatalf("%s: synthesize: %v", tr.Name, err)
		}
		sched := corpusSchedule(tr, p, 5)
		eval, err := NewEvaluator(tr, p)
		if err != nil {
			t.Fatalf("%s: NewEvaluator: %v", tr.Name, err)
		}
		for _, cfg := range []Config{{CompileWorkers: 1}, {CompileWorkers: 2}, {CompileWorkers: 3}} {
			for _, opts := range []Options{
				{},
				{RecordCalls: true},
				{RecordCalls: true, ExecVariation: 0.3, ExecVariationSeed: 42},
			} {
				want, err := refRun(tr, p, sched, cfg, opts)
				if err != nil {
					t.Fatalf("%s: reference run: %v", tr.Name, err)
				}
				got, err := Run(tr, p, sched, cfg, opts)
				if err != nil {
					t.Fatalf("%s: sim.Run: %v", tr.Name, err)
				}
				diffResults(t, tr.Name+" sim.Run", want, got)
				for pass := 0; pass < 2; pass++ { // second pass runs warm
					got, err := eval.Run(sched, cfg, opts)
					if err != nil {
						t.Fatalf("%s: evaluator.Run: %v", tr.Name, err)
					}
					diffResults(t, tr.Name, want, got)
				}
			}
		}
	}
}

// TestEvaluatorRunKeepsNoLevels: a run without Options.RecordCalls reports
// no per-call detail and never sizes the level buffer, though the evaluator
// still keeps the call starts its delta path resumes from.
func TestEvaluatorRunKeepsNoLevels(t *testing.T) {
	tr, p, sched := deltaWorkload(t, 29)
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {ExecVariation: 0.2, ExecVariationSeed: 3}} {
		res, err := eval.Run(sched, DefaultConfig(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.CallLevels != nil || res.CallStarts != nil {
			t.Errorf("opts %+v: CallLevels/CallStarts = %d/%d entries, want nil", opts, len(res.CallLevels), len(res.CallStarts))
		}
		if cap(eval.lvls) != 0 {
			t.Errorf("opts %+v: level buffer grew to cap %d, want 0", opts, cap(eval.lvls))
		}
		if len(eval.CallStarts()) != tr.Len() {
			t.Errorf("opts %+v: CallStarts has %d entries, want %d", opts, len(eval.CallStarts()), tr.Len())
		}
	}
}

// TestEvaluatorCallStartsMatchRecorded: over the fuzz seed corpus, the starts
// an unrecorded run leaves in Evaluator.CallStarts equal the CallStarts of
// the same run under RecordCalls, and the frozen reference's.
func TestEvaluatorCallStartsMatchRecorded(t *testing.T) {
	for _, tr := range corpusTraces(t) {
		p, err := profile.Synthesize(tr.NumFuncs(), profile.DefaultTiming(4, 11))
		if err != nil {
			t.Fatalf("%s: synthesize: %v", tr.Name, err)
		}
		sched := corpusSchedule(tr, p, 5)
		eval, err := NewEvaluator(tr, p)
		if err != nil {
			t.Fatalf("%s: NewEvaluator: %v", tr.Name, err)
		}
		for _, cfg := range []Config{{CompileWorkers: 1}, {CompileWorkers: 3}} {
			for _, opts := range []Options{{}, {ExecVariation: 0.3, ExecVariationSeed: 42}} {
				if _, err := eval.Run(sched, cfg, opts); err != nil {
					t.Fatalf("%s: evaluator.Run: %v", tr.Name, err)
				}
				got := append([]int64(nil), eval.CallStarts()...)
				rec := opts
				rec.RecordCalls = true
				want, err := eval.Run(sched, cfg, rec)
				if err != nil {
					t.Fatalf("%s: recorded evaluator.Run: %v", tr.Name, err)
				}
				ref, err := refRun(tr, p, sched, cfg, rec)
				if err != nil {
					t.Fatalf("%s: reference run: %v", tr.Name, err)
				}
				if !slices.Equal(got, want.CallStarts) || !slices.Equal(got, ref.CallStarts) {
					t.Errorf("%s %+v %+v: CallStarts differ from the recorded run's", tr.Name, cfg, opts)
				}
			}
		}
	}
}

// TestEvaluatorMatchesRunErrors checks the failure paths of sim.Run and the
// evaluator return the same errors as the frozen reference simulator.
func TestEvaluatorMatchesRunErrors(t *testing.T) {
	tr := trace.New("err", []trace.FuncID{0, 1, 0})
	p := testkit.Synth(2, profile.DefaultTiming(3, 7))
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		sched Schedule
		cfg   Config
		opts  Options
	}{
		{"uncompiled call", Schedule{{Func: 0, Level: 0}}, DefaultConfig(), Options{}},
		{"unknown func", Schedule{{Func: 5, Level: 0}}, DefaultConfig(), Options{}},
		{"bad level", Schedule{{Func: 0, Level: 9}}, DefaultConfig(), Options{}},
		{"bad workers", Schedule{{Func: 0, Level: 0}, {Func: 1, Level: 0}}, Config{}, Options{}},
		{"bad variation", Schedule{{Func: 0, Level: 0}, {Func: 1, Level: 0}}, DefaultConfig(), Options{ExecVariation: 2}},
	}
	for _, tc := range cases {
		_, wantErr := refRun(tr, p, tc.sched, tc.cfg, tc.opts)
		_, runErr := Run(tr, p, tc.sched, tc.cfg, tc.opts)
		_, evalErr := eval.Run(tc.sched, tc.cfg, tc.opts)
		if wantErr == nil || runErr == nil || evalErr == nil {
			t.Fatalf("%s: expected every path to fail, got reference=%v sim.Run=%v evaluator=%v", tc.name, wantErr, runErr, evalErr)
		}
		for _, gotErr := range []error{runErr, evalErr} {
			if wantErr.Error() != gotErr.Error() {
				t.Errorf("%s: error mismatch:\n  reference: %v\n  got:       %v", tc.name, wantErr, gotErr)
			}
		}
	}
}

// deltaWorkload builds a generated trace with phases and bursts, its
// profile, and a baseline schedule for the delta property tests.
func deltaWorkload(t testing.TB, seed int64) (*trace.Trace, *profile.Profile, Schedule) {
	t.Helper()
	tr := testkit.Gen(trace.GenConfig{
		Name: "delta", NumFuncs: 30, Length: 2000, Seed: seed,
		ZipfS: 1.5, Phases: 3, CoreFuncs: 6, CoreShare: 0.4, BurstMean: 3,
	})
	p := testkit.Synth(30, profile.DefaultTiming(4, seed+1))
	return tr, p, corpusSchedule(tr, p, seed+2)
}

// TestEvaluatorDeltaMatchesResim is the delta-equals-resimulation property
// test: for randomized single-event edits (in-place level changes at any
// position, appends of any event), the incremental make-span equals a full
// re-simulation of the edited schedule, across worker counts and with
// execution-time variation on.
func TestEvaluatorDeltaMatchesResim(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		tr, p, sched := deltaWorkload(t, seed)
		rng := rand.New(rand.NewSource(seed * 101))
		for _, cfg := range []Config{{CompileWorkers: 1}, {CompileWorkers: 2}} {
			for _, opts := range []Options{{}, {ExecVariation: 0.25, ExecVariationSeed: 9}} {
				eval, err := NewEvaluator(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eval.Run(sched, cfg, opts); err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 60; trial++ {
					pos := rng.Intn(len(sched))
					level := profile.Level(rng.Intn(p.Levels))
					edited := sched.Clone()
					edited[pos].Level = level
					want, err := refRun(tr, p, edited, cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := eval.UpgradedMakeSpan(pos, level)
					if err != nil {
						t.Fatal(err)
					}
					if got != want.MakeSpan {
						t.Fatalf("seed %d workers %d var %g: upgrade pos=%d level=%d: delta %d != resim %d",
							seed, cfg.CompileWorkers, opts.ExecVariation, pos, level, got, want.MakeSpan)
					}
				}
				for trial := 0; trial < 40; trial++ {
					ev := CompileEvent{
						Func:  trace.FuncID(rng.Intn(p.NumFuncs())),
						Level: profile.Level(rng.Intn(p.Levels)),
					}
					edited := append(sched.Clone(), ev)
					want, err := refRun(tr, p, edited, cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := eval.AppendedMakeSpan(ev)
					if err != nil {
						t.Fatal(err)
					}
					if got != want.MakeSpan {
						t.Fatalf("seed %d workers %d var %g: append %+v: delta %d != resim %d",
							seed, cfg.CompileWorkers, opts.ExecVariation, ev, got, want.MakeSpan)
					}
				}
			}
		}
	}
}

// TestMakeSpanOfFallback checks the transparent entry point: one-edit
// candidates ride the fast path, anything else falls back to a full run, and
// both agree with the frozen reference simulator in every case.
func TestMakeSpanOfFallback(t *testing.T) {
	tr, p, sched := deltaWorkload(t, 29)
	cfg := DefaultConfig()
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval.Run(sched, cfg, Options{}); err != nil {
		t.Fatal(err)
	}

	check := func(name string, cand Schedule, cfg Config, opts Options) {
		t.Helper()
		want, err := refRun(tr, p, cand, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eval.MakeSpanOf(cand, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.MakeSpan {
			t.Errorf("%s: MakeSpanOf %d != reference %d", name, got, want.MakeSpan)
		}
	}

	// bump changes a level for sure, whatever the original was.
	bump := func(l profile.Level) profile.Level { return profile.Level((int(l) + 1) % p.Levels) }

	before := ReadEvalStats()
	check("identical", sched.Clone(), cfg, Options{})
	oneUp := sched.Clone()
	oneUp[4].Level = bump(oneUp[4].Level)
	check("single upgrade", oneUp, cfg, Options{})
	check("single append", append(sched.Clone(), CompileEvent{Func: 2, Level: 1}), cfg, Options{})
	if fast := ReadEvalStats().DeltaFast - before.DeltaFast; fast != 3 {
		t.Errorf("expected 3 fast delta evaluations, counted %d", fast)
	}

	// Two edits at once: must transparently fall back to a full simulation
	// (which then becomes the new baseline).
	twoUp := sched.Clone()
	twoUp[1].Level = bump(twoUp[1].Level)
	twoUp[5].Level = bump(twoUp[5].Level)
	before = ReadEvalStats()
	check("two upgrades", twoUp, cfg, Options{})
	// Different worker count than the baseline: also a fallback.
	check("other config", twoUp, Config{CompileWorkers: 2}, Options{})
	if full := ReadEvalStats().DeltaFull - before.DeltaFull; full != 2 {
		t.Errorf("expected 2 full fallbacks, counted %d", full)
	}
	// The fallback re-established a baseline; a single edit from it must be
	// fast again and still correct.
	oneMore := twoUp.Clone()
	oneMore[8].Level = bump(oneMore[8].Level)
	check("single upgrade after fallback", oneMore, Config{CompileWorkers: 2}, Options{})
}

// TestEvaluatorZeroAlloc is the arena contract: warm evaluator runs and
// delta evaluations perform no heap allocation at all. Wired into the
// bench-guard Makefile target next to the recorder's zero-alloc guard.
func TestEvaluatorZeroAlloc(t *testing.T) {
	tr, p, sched := deltaWorkload(t, 47)
	cfg := DefaultConfig()
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // warm the arenas
		if _, err := eval.Run(sched, cfg, Options{RecordCalls: true}); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := eval.Run(sched, cfg, Options{RecordCalls: true}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Evaluator.Run allocates %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := eval.UpgradedMakeSpan(3, profile.Level(p.Levels-1)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("UpgradedMakeSpan allocates %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := eval.AppendedMakeSpan(CompileEvent{Func: 1, Level: 2}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendedMakeSpan allocates %v times per run, want 0", allocs)
	}
	edited := sched.Clone()
	edited[2].Level = profile.Level(p.Levels - 1)
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := eval.MakeSpanOf(edited, cfg, Options{}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("MakeSpanOf fast path allocates %v times per run, want 0", allocs)
	}
}

// TestEvalStats sanity-checks the process-wide counters and their summary.
func TestEvalStats(t *testing.T) {
	before := ReadEvalStats()
	tr, p, sched := deltaWorkload(t, 61)
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eval.Run(sched, DefaultConfig(), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	after := ReadEvalStats()
	if after.Evaluators-before.Evaluators < 1 || after.Runs-before.Runs < 3 || after.WarmRuns-before.WarmRuns < 2 {
		t.Errorf("counters did not advance as expected: before %+v after %+v", before, after)
	}
	if s := after.Summary(); !strings.Contains(s, "evaluators") || !strings.Contains(s, "delta evals") {
		t.Errorf("unexpected summary %q", s)
	}
}

// benchWorkload is a larger workload for the fast-path benchmarks.
func evalBenchWorkload(b *testing.B) (*trace.Trace, *profile.Profile, Schedule) {
	b.Helper()
	tr := testkit.Gen(trace.GenConfig{
		Name: "bench", NumFuncs: 200, Length: 40000, Seed: 5,
		ZipfS: 1.6, Phases: 4, CoreFuncs: 30, CoreShare: 0.4, BurstMean: 4,
	})
	p := testkit.Synth(200, profile.DefaultTiming(4, 6))
	return tr, p, corpusSchedule(tr, p, 7)
}

// BenchmarkSimRun is the slow-path baseline for BenchmarkEvaluatorRun.
func BenchmarkSimRun(b *testing.B) {
	tr, p, sched := evalBenchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tr, p, sched, DefaultConfig(), Options{RecordCalls: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorRun measures the warm allocation-free full evaluation.
func BenchmarkEvaluatorRun(b *testing.B) {
	tr, p, sched := evalBenchWorkload(b)
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eval.Run(sched, DefaultConfig(), Options{RecordCalls: true}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Run(sched, DefaultConfig(), Options{RecordCalls: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorDelta measures incremental single-edit scoring against
// the warm baseline.
func BenchmarkEvaluatorDelta(b *testing.B) {
	tr, p, sched := evalBenchWorkload(b)
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eval.Run(sched, DefaultConfig(), Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.UpgradedMakeSpan(i%len(sched), profile.Level(i%p.Levels)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunConcurrent: Run recycles its kernel scratch through a pool, so
// concurrent runs must neither share state nor hand out recycled buffers.
func TestRunConcurrent(t *testing.T) {
	tr, p, sched := deltaWorkload(t, 53)
	want, err := refRun(tr, p, sched, DefaultConfig(), Options{RecordCalls: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := Run(tr, p, sched, DefaultConfig(), Options{RecordCalls: true})
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = res
			}
		}()
	}
	wg.Wait()
	for g, res := range results {
		if res != nil {
			diffResults(t, fmt.Sprintf("goroutine %d", g), want, res)
		}
	}
}
