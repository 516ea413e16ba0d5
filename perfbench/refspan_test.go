package main

import (
	"testing"

	"repro/internal/profile"
)

// figureProfile is the three-function, two-level instance of the paper's
// Figs. 1 and 2.
func figureProfile() *profile.Profile {
	return &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			{Name: "f0", Compile: []int64{1, 1}, Exec: []int64{1, 1}},
			{Name: "f1", Compile: []int64{1, 3}, Exec: []int64{3, 2}},
			{Name: "f2", Compile: []int64{3, 5}, Exec: []int64{3, 1}},
		},
	}
}

func TestRefMakeSpanPaperFigures(t *testing.T) {
	s1 := []refEvent{{0, 0}, {1, 0}, {2, 0}}
	s2 := []refEvent{{0, 0}, {1, 1}, {2, 0}}
	s3 := []refEvent{{0, 0}, {1, 0}, {2, 0}, {1, 1}}
	fig1 := []int32{0, 1, 2, 1}
	fig2 := []int32{0, 1, 2, 1, 2}
	cases := []struct {
		name  string
		calls []int32
		s     []refEvent
		want  int64
	}{
		// Fig. 1: "f0 f1 f2 f1" under its three schedules.
		{"fig1 s1 all level0", fig1, s1, 11},
		{"fig1 s2 f1 at level1", fig1, s2, 12},
		{"fig1 s3 f1 twice", fig1, s3, 10},
		// Fig. 2: a second f2 call reverses the ranking.
		{"fig2 s1 + c21", fig2, append(s1[:3:3], refEvent{2, 1}), 12},
		{"fig2 s2 + c21", fig2, append(s2[:3:3], refEvent{2, 1}), 13},
		{"fig2 s3 unchanged", fig2, s3, 13},
	}
	p := figureProfile()
	for _, c := range cases {
		got, err := refMakeSpan(c.calls, p, c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: make-span %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRefTrivialSchedulesAndBound(t *testing.T) {
	p := figureProfile()
	calls := []int32{0, 1, 2, 1}
	low, err := refMakeSpan(calls, p, firstCallSchedule(calls, 0))
	if err != nil || low != 11 {
		t.Errorf("all-low make-span %d (%v), want 11", low, err)
	}
	// All-high: compiles finish at 1, 4, 9; calls start 1, 4, 9, 10.
	high, err := refMakeSpan(calls, p, firstCallSchedule(calls, 1))
	if err != nil || high != 12 {
		t.Errorf("all-high make-span %d (%v), want 12", high, err)
	}
	lb, err := refLowerBound(calls, p)
	if err != nil || lb != 1+2+1+2 {
		t.Errorf("lower bound %d (%v), want 6", lb, err)
	}
}

func TestRefMakeSpanRejects(t *testing.T) {
	p := figureProfile()
	bad := []struct {
		name  string
		calls []int32
		s     []refEvent
	}{
		{"uncompiled call", []int32{0, 1}, []refEvent{{0, 0}}},
		{"unknown function", []int32{0}, []refEvent{{0, 0}, {3, 0}}},
		{"level out of range", []int32{0}, []refEvent{{0, 2}}},
	}
	for _, c := range bad {
		if _, err := refMakeSpan(c.calls, p, c.s); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	huge := &profile.Profile{Levels: 1, Funcs: []profile.FuncTimes{{Compile: []int64{1}, Exec: []int64{1 << 62}}}}
	if _, err := refMakeSpan([]int32{0, 0, 0, 0}, huge, []refEvent{{0, 0}}); err == nil {
		t.Error("overflowing make-span accepted")
	}
}
