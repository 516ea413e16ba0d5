package sim

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// Multi-threaded execution. The paper's model — and RunPolicy — drive one
// execution worker, flattening even multithreaded benchmarks into a single
// call sequence (§6.1). RunPolicyMT lifts that restriction: each thread
// executes its own call sequence on its own core while all threads share
// the code cache, the policy (hotness is global), and the compilation
// workers. The §7 queue-discipline question only becomes substantive here:
// with several execution threads the compile queue has several request
// sources and genuinely backs up.

// ThreadResult reports one execution thread's outcome.
type ThreadResult struct {
	// Finish is when the thread's last call completed.
	Finish int64
	// Exec and Bubble split the thread's timeline into running and waiting.
	Exec, Bubble int64
	// Calls is the thread's call count.
	Calls int
}

// mtThread is one execution thread's engine state.
type mtThread struct {
	calls      []trace.FuncID
	idx        int
	ln         lane // the thread's clock and totals
	issued     bool // the current call's requests have been emitted
	nextSample int64
	opts       Options // with the thread id mixed into the variation seed
}

// RunPolicyMT drives per-thread call sequences through an online policy on
// len(threads) execution cores and cfg.CompileWorkers compilation cores.
// Policy state (invocation counts, sampler hotness) is shared across
// threads, as it is in a JVM. Each thread carries its own sampling clock.
//
// The returned Result aggregates across threads: MakeSpan is the latest
// thread finish, TotalExec/TotalBubble are summed, and Compiles lists the
// shared compilation stream. Per-thread detail comes second.
func RunPolicyMT(threads []*trace.Trace, p *profile.Profile, pol Policy, cfg Config, opts Options) (*Result, []ThreadResult, error) {
	if len(threads) == 0 {
		return nil, nil, fmt.Errorf("sim: RunPolicyMT needs at least one thread")
	}
	if opts.RecordCalls {
		return nil, nil, fmt.Errorf("sim: RecordCalls is not supported for multi-threaded runs")
	}
	if opts.Recorder != nil {
		// Event recording assumes a single execution lane; the MT engine's
		// interleaved threads would produce overlapping exec spans.
		return nil, nil, fmt.Errorf("sim: Options.Recorder is not supported for multi-threaded runs")
	}
	eng, err := newEngine("RunPolicyMT", threads, p, pol, cfg, &opts)
	if err != nil {
		return nil, nil, err
	}
	res := eng.res
	period := pol.SamplePeriod()
	if period < 0 {
		return nil, nil, fmt.Errorf("sim: policy sample period must be >= 0, got %d", period)
	}

	ts := make([]*mtThread, len(threads))
	callNum := make([]int64, eng.nf) // global invocation counts, shared
	for i, tr := range threads {
		ts[i] = &mtThread{calls: tr.Calls, nextSample: period, opts: opts}
		ts[i].opts.ExecVariationSeed += int64(i) * 1_000_003
	}

	for {
		// Candidate events: the next compile assignment and each thread's
		// next step (issue its call's requests, or start executing once a
		// version is ready). Assignments commit first on ties: they unblock.
		na, havePending := eng.nextAssignTime()
		bestThread := -1
		bestTime := timeInf
		bestIsIssue := false
		for i, t := range ts {
			if t.idx >= len(t.calls) {
				continue
			}
			f := t.calls[t.idx]
			switch {
			case !t.issued:
				if t.ln.t < bestTime {
					bestTime, bestThread, bestIsIssue = t.ln.t, i, true
				}
			case eng.versions[f].firstReady() >= 0:
				if start := eng.readyAt(f, t.ln.t); start < bestTime {
					bestTime, bestThread, bestIsIssue = start, i, false
				}
			}
			// Threads whose function is requested but unassigned wait for
			// an assignment event.
		}

		if havePending && (bestThread < 0 || na <= bestTime) {
			if !eng.drainOne() {
				return nil, nil, fmt.Errorf("sim: internal error: pending queue did not drain")
			}
			continue
		}
		if bestThread < 0 {
			break // every thread finished (blocked threads imply pending work)
		}
		t := ts[bestThread]
		f := t.calls[t.idx]
		if bestIsIssue {
			callNum[f]++
			for _, r := range pol.BeforeCall(f, callNum[f], t.ln.t) {
				if err := eng.enqueue(r.Func, r.Level, t.ln.t, false); err != nil {
					return nil, nil, err
				}
			}
			if !eng.requested[f] {
				if err := eng.enqueue(f, pol.FirstCall(f, t.ln.t), t.ln.t, false); err != nil {
					return nil, nil, err
				}
			}
			t.issued = true
			continue
		}

		// Execute the call, which starts at the bestTime just selected.
		eng.drainArrived(bestTime)
		start, _, err := eng.runCalls(t.calls, t.idx, t.idx+1, &t.ln, &t.opts, false)
		if err != nil {
			return nil, nil, err
		}
		if period > 0 {
			for t.nextSample < start {
				t.nextSample += period
			}
			for t.nextSample < t.ln.t {
				for _, r := range pol.Sample(f, t.nextSample) {
					if err := eng.enqueue(r.Func, r.Level, t.nextSample, false); err != nil {
						return nil, nil, err
					}
				}
				t.nextSample += period
			}
		}
		t.idx++
		t.issued = false
	}

	eng.drainAll()
	eng.fillFirstReady(res.FirstReady)
	perThread := make([]ThreadResult, len(ts))
	for i, t := range ts {
		perThread[i] = ThreadResult{Finish: t.ln.t, Exec: t.ln.exec, Bubble: t.ln.bubble, Calls: t.idx}
		res.TotalExec += t.ln.exec
		res.TotalBubble += t.ln.bubble
		res.MakeSpan = max(res.MakeSpan, t.ln.t)
	}
	return res, perThread, nil
}
