package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/exact"
	"repro/internal/online"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
)

// span is one timed call into a layer, or a request's root (parent 0).
// Times are nanoseconds since the run's tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	RID    int    `json:"rid"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Work is the span's unit count: calls for trace-walking layers, nodes
	// for the exact solver, bytes for the encoder.
	Work int64 `json:"work,omitempty"`
}

type tracer struct {
	epoch time.Time
	ids   atomic.Int64
}

// recorder keeps one goroutine's spans in memory; a nil recorder records
// nothing and costs one branch per span.
type recorder struct {
	t     *tracer
	rid   int
	spans []span
}

type openSpan struct {
	id, parent int64
	name       string
	start      time.Time
}

func (r *recorder) begin(name string, parent int64) openSpan {
	if r == nil {
		return openSpan{}
	}
	return openSpan{id: r.t.ids.Add(1), parent: parent, name: name, start: time.Now()}
}

func (r *recorder) end(o openSpan, work int64) {
	if r == nil {
		return
	}
	end := time.Now()
	r.spans = append(r.spans, span{ID: o.id, Parent: o.parent, RID: r.rid, Name: o.name,
		Start: o.start.Sub(r.t.epoch).Nanoseconds(), End: end.Sub(r.t.epoch).Nanoseconds(), Work: work})
}

// inlineSamplePeriod is the Jikes sampler period the service assumes for
// inline workloads.
const inlineSamplePeriod = 400000

// replayed is one request's replay: the response body the layers produce
// and the online scheduler's own accounting.
type replayed struct {
	body  []byte
	sched online.SchedStats
}

// replay runs r through each layer's public entry points in the order the
// service does, recording one span per call under a root span for the
// request: materialisation (dacapo.Load), the cost model, the lower bound,
// the scheduler (core.IAR, online.Run, exact.Solve, or a policy run), the
// static replay (sim.Run), and the response encoding.
func replay(rec *recorder, r *request, arena *core.IARArena) (*replayed, error) {
	root := rec.begin("request", 0)
	in := root.id
	var w *dacapo.Workload
	if r.inline != nil {
		p := r.inline.p
		w = &dacapo.Workload{
			Bench:   dacapo.Benchmark{Name: r.inline.tr.Name, Funcs: p.NumFuncs(), SamplePeriod: inlineSamplePeriod},
			Trace:   trace.New(r.inline.tr.Name, r.inline.tr.Calls),
			Profile: p,
		}
	} else {
		sp := rec.begin("dacapo.Load", in)
		b, err := dacapo.ByName(r.wire.Bench)
		if err == nil {
			w, err = b.Load(r.wire.Scale)
		}
		if err != nil {
			return nil, err
		}
		rec.end(sp, int64(w.Trace.Len()))
	}
	if m := r.wire.MaxCalls; m > 0 && m < w.Trace.Len() {
		w.Trace = w.Trace.Slice(0, m)
	}
	tr, p := w.Trace, w.Profile
	calls := int64(tr.Len())

	sp := rec.begin("profile.model", in)
	var model profile.CostModel
	if r.wire.Model == "oracle" {
		model = w.Oracle()
	} else {
		model = w.DefaultModel()
	}
	rec.end(sp, 0)

	sp = rec.begin("core.LowerBound", in)
	resp := &server.ScheduleResponse{Algo: r.wire.Algo, Bench: w.Bench.Name, Calls: tr.Len(), UniqueFuncs: tr.UniqueFuncs(),
		LowerBound: core.LowerBound(tr, p)}
	rec.end(sp, calls)

	out := &replayed{}
	cfg := sim.Config{CompileWorkers: 1}
	var (
		sched  sim.Schedule
		simRes *sim.Result
		err    error
	)
	switch r.wire.Algo {
	case "iar":
		sp = rec.begin("core.IAR", in)
		sched, err = arena.IAR(tr, p, core.IAROptions{Model: model})
		rec.end(sp, calls)
	case "online-iar":
		sp = rec.begin("online.Run", in)
		s := online.NewIAR(p, core.IAROptions{Model: model}, 0)
		var res *online.Result
		if res, err = online.Run(tr, p, s, online.Options{Window: r.wire.Window, Config: cfg}); err == nil {
			sched, simRes, out.sched = res.Schedule, res.Sim, s.SchedStats()
		}
		rec.end(sp, calls)
	case "exact":
		sp = rec.begin("exact.Solve", in)
		var er *exact.Result
		if er, err = exact.Solve(tr, p, exact.Options{}); err == nil {
			sched = er.Schedule
			resp.Search = &server.SearchStats{NodesExpanded: er.NodesExpanded, NodesAllocated: er.NodesAllocated,
				TableHits: er.TableHits, BoundPruned: er.BoundPruned, Complete: er.Complete}
			rec.end(sp, int64(er.NodesAllocated))
		}
	case "jikes":
		sp = rec.begin("policy.run", in)
		var pol *policy.Jikes
		if pol, err = policy.NewJikes(model, p.NumFuncs(), w.Bench.SamplePeriod); err == nil {
			simRes, err = sim.RunPolicy(tr, p, pol, cfg, sim.Options{})
		}
		rec.end(sp, calls)
	case "v8":
		sp = rec.begin("policy.run", in)
		var pol *policy.V8
		if p, err = p.Restrict(0, 1); err == nil {
			if pol, err = policy.NewV8(1); err == nil {
				simRes, err = sim.RunPolicy(tr, p, pol, cfg, sim.Options{})
			}
		}
		rec.end(sp, calls)
		if err == nil {
			sp = rec.begin("core.LowerBound", in)
			resp.LowerBound = core.LowerBound(tr, p)
			rec.end(sp, calls)
		}
	default:
		err = fmt.Errorf("no replay for algorithm %q", r.wire.Algo)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.wire.Algo, err)
	}
	if simRes == nil {
		sp = rec.begin("sim.Run", in)
		if simRes, err = sim.Run(tr, p, sched, cfg, sim.Options{}); err != nil {
			return nil, err
		}
		rec.end(sp, calls)
	}
	resp.MakeSpan, resp.Bubbles, resp.Gap = simRes.MakeSpan, simRes.TotalBubble, 1
	if resp.LowerBound > 0 {
		resp.Gap = float64(resp.MakeSpan) / float64(resp.LowerBound)
	}
	if sched == nil {
		for _, c := range simRes.Compiles {
			sched = append(sched, c.Event)
		}
	}
	resp.Schedule = make([]server.ScheduleEvent, len(sched))
	for i, ev := range sched {
		resp.Schedule[i] = server.ScheduleEvent{Func: int32(ev.Func), Level: int(ev.Level), Name: p.Funcs[ev.Func].Name}
	}

	sp = rec.begin("server.encode", in)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, err
	}
	rec.end(sp, int64(buf.Len()))
	rec.end(root, calls)
	out.body = buf.Bytes()
	return out, nil
}

// serveInProcess calls the service's handler directly on one request and
// checks that it answered want from its cache.
func serveInProcess(srv *server.Server, r *request, want []byte) error {
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(r.body)))
	switch {
	case rw.Code != http.StatusOK:
		return fmt.Errorf("in-process status %d", rw.Code)
	case rw.Header().Get("X-Cache") != "hit":
		return fmt.Errorf("in-process answer was a cache %s, want hit", rw.Header().Get("X-Cache"))
	case !bytes.Equal(rw.Body.Bytes(), want):
		return fmt.Errorf("in-process body differs from the served one")
	}
	return nil
}

// serveSnapshot is the part of GET /metrics the traced run reads.
type serveSnapshot struct {
	QueueWaitNS int64 `json:"serve_queue_wait_ns"`
	CacheHits   int64 `json:"serve_cache_hits"`
}

func fetchMetrics(url string) (serveSnapshot, error) {
	var s serveSnapshot
	r, err := http.Get(url + "/metrics")
	if err != nil {
		return s, fmt.Errorf("GET /metrics: %w", err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("decoding /metrics: %w", err)
	}
	return s, nil
}

// procStats is the process-wide allocation and GC CPU accounting.
type procStats struct {
	totalAlloc    uint64
	gcCPU, allCPU float64
}

func readProcStats() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	ps := procStats{totalAlloc: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		ps.gcCPU, ps.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return ps
}

// runTraced is the -trace 1 run. Phase A drives the service untraced for
// half the time, as the end-to-end run does, and reads the serve-side
// counters; phase B replays the same script from its start through the
// layers with spans on, from the same number of goroutines.
func runTraced(cfg config, w *workload, cs []*client, ls *liveServer, sk *sink, v *validator, half time.Duration, out io.Writer) (*report, error) {
	m0, err := fetchMetrics(ls.url)
	if err != nil {
		return nil, err
	}
	p0 := readProcStats()
	lr, err := closedLoop(cs, ls.url, w.script, sk, half)
	if err != nil {
		return nil, err
	}
	p1 := readProcStats()
	m1, err := fetchMetrics(ls.url)
	if err != nil {
		return nil, err
	}
	// The in-process hit probe: ServeHTTP on fingerprints the cache holds,
	// before anything else can evict them.
	var hitDur []time.Duration
	var probeErrs []string
	if w.hot == nil {
		for _, s := range lr.lastOK(8) {
			want, err := sk.body(s.ci, s.o)
			if err != nil {
				return nil, err
			}
			r := w.script.get(int(s.o.idx))
			for rep := 0; rep < 32; rep++ {
				t0 := time.Now()
				err := serveInProcess(ls.srv, r, want)
				hitDur = append(hitDur, time.Since(t0))
				if err != nil {
					probeErrs = append(probeErrs, fmt.Sprintf("hit probe at script position %d: %v", s.o.idx, err))
					break
				}
			}
		}
	}

	chk, err := checkPhase(cfg, w, cs[0], ls, sk, v, lr)
	if err != nil {
		return nil, err
	}
	if m1.CacheHits-m0.CacheHits != int64(chk.hits) {
		chk.problem("/metrics counted %d cache hits, X-Cache reported %d", m1.CacheHits-m0.CacheHits, chk.hits)
	}
	for _, p := range probeErrs {
		chk.problem("%s", p)
	}

	rp := replayPhase(w, ls, chk, half)
	spans := rp.spans
	if err := writeSpans(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)), spans); err != nil {
		return nil, err
	}

	st := aggregate(spans)
	if w.hot != nil {
		hitDur = st.durations("server.ServeHTTP")
	}
	encode := st.durations("server.encode")
	if w.hot != nil {
		// No hit encodes; measure encoding the hot set's answers instead.
		for _, r := range w.hot {
			var resp server.ScheduleResponse
			if err := json.Unmarshal(w.hotBody[r], &resp); err != nil {
				return nil, err
			}
			for rep := 0; rep < 4; rep++ {
				var buf bytes.Buffer
				t0 := time.Now()
				if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
					return nil, err
				}
				encode = append(encode, time.Since(t0))
			}
		}
	}
	var nodes, tableHits int64
	for _, a := range chk.answers {
		nodes += a.nodes
		tableHits += a.tableHits
	}
	untracedMean := meanMS(chk.okLatencies)
	untracedP50 := quantileMS(chk.okLatencies, 0.5)
	attributed := st.attributedPerRequest()
	// What the spans cost a request: the time to record one, times the
	// spans a request records.
	overheadUS := spanCostNS() * ratio(float64(len(spans)), float64(st.roots)) / 1e3
	ms := map[string]metric{
		"server.hit_us":            {quantileMS(hitDur, 0.5) * 1e3, "us"},
		"server.queue_wait_ms":     {ratio(float64(m1.QueueWaitNS-m0.QueueWaitNS)/1e6, float64(chk.misses)), "ms"},
		"server.hit_ratio":         {ratio(float64(chk.hits), float64(len(chk.okLatencies))), "ratio"},
		"server.encode_us":         {quantileMS(encode, 0.5) * 1e3, "us"},
		"server.resp_kb":           {ratio(float64(chk.okBytes)/1024, float64(len(chk.okLatencies))), "KiB"},
		"dacapo.load_ms":           {st.meanMS("dacapo.Load"), "ms"},
		"dacapo.load_share":        {ratio(st.self["dacapo.Load"], st.total["request"]), "ratio"},
		"profile.model_ms":         {st.meanMS("profile.model"), "ms"},
		"core.iar_ms":              {st.meanMS("core.IAR"), "ms"},
		"core.iar_ns_per_call":     {st.perWork("core.IAR"), "ns"},
		"policy.run_ms":            {st.meanMS("policy.run"), "ms"},
		"sim.run_ms":               {st.meanMS("sim.Run"), "ms"},
		"sim.ns_per_call":          {st.perWork("sim.Run"), "ns"},
		"online.run_ms":            {st.meanMS("online.Run"), "ms"},
		"online.sched_ns_per_call": {ratio(float64(rp.sched.SchedNanos), st.work["online.Run"]), "ns"},
		"online.replans":           {ratio(float64(rp.sched.Replans), float64(rp.online)), "count"},
		"online.fast_replan_ratio": {ratio(float64(rp.sched.DirtySkips), float64(rp.sched.Replans)), "ratio"},
		"exact.solve_ms":           {st.meanMS("exact.Solve"), "ms"},
		"exact.nodes":              {float64(nodes), "count"},
		"exact.ns_per_node":        {st.perWork("exact.Solve"), "ns"},
		"exact.table_hit_ratio":    {ratio(float64(tableHits), float64(nodes)), "ratio"},
		"go.alloc_kb_per_req":      {ratio(float64(p1.totalAlloc-p0.totalAlloc)/1024, float64(chk.attempted)), "KiB"},
		"go.gc_cpu_fraction":       {ratio(p1.gcCPU-p0.gcCPU, p1.allCPU-p0.allCPU), "fraction"},
		"bench.unattributed_share": {ratio(untracedMean-attributed, untracedMean), "ratio"},
		"bench.trace_overhead_us":  {overheadUS, "us"},
		"bench.replay_identical":   {ratio(float64(rp.identical), float64(rp.compared)), "ratio"},
	}
	chk.print(out)
	st.printTable(out, untracedP50, untracedMean, overheadUS)
	fmt.Fprintf(out, "replays=%d (bodies identical to the served ones: %d of %d compared); spans=%d\n", rp.replays, rp.identical, rp.compared, len(spans))
	printMetrics(out, ms)
	return &report{
		Correct:   chk.correct(),
		Attempted: chk.attempted + rp.replays,
		Failed:    chk.failed,
		Metrics:   ms,
	}, nil
}

// replayResult is the traced replay phase.
type replayResult struct {
	spans []span
	// replays counts requests replayed; compared those with a served body
	// to compare against, of which identical matched it byte for byte.
	replays, compared, identical int
	// sched sums the online scheduler's accounting over online requests.
	sched  online.SchedStats
	online int
}

// replayPhase replays the script from its start for dur, from as many
// goroutines as the closed loop has clients, each with its own IAR arena
// as each service worker has. serve-hit replays are in-process ServeHTTP
// calls on the filled cache; the other workloads replay the layers.
// Replay failures are counted into chk.
func replayPhase(w *workload, ls *liveServer, chk *phaseCheck, dur time.Duration) *replayResult {
	tc := &tracer{epoch: time.Now()}
	res := &replayResult{}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(dur)
	recs := make([]*recorder, clients)
	for g := range recs {
		recs[g] = &recorder{t: tc}
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			arena := core.NewIARArena()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				r := w.script.get(i)
				rec.rid = i
				var err error
				var rp *replayed
				if w.hot != nil {
					root := rec.begin("request", 0)
					sp := rec.begin("server.ServeHTTP", root.id)
					err = serveInProcess(ls.srv, r, w.hotBody[r])
					rec.end(sp, 0)
					rec.end(root, 0)
				} else {
					rp, err = replay(rec, r, arena)
				}
				mu.Lock()
				res.replays++
				switch {
				case err != nil:
					chk.failed++
					chk.problem("replay of script position %d: %v", i, err)
				case rp == nil:
					// serveInProcess compared the body with the hot answer.
					res.compared++
					res.identical++
				default:
					if r.wire.Algo == "online-iar" {
						res.online++
						res.sched.Replans += rp.sched.Replans
						res.sched.DirtySkips += rp.sched.DirtySkips
						res.sched.SchedNanos += rp.sched.SchedNanos
					}
					if h, ok := chk.hashes[i]; ok {
						res.compared++
						if h == sha256.Sum256(rp.body) {
							res.identical++
						} else {
							// The replay no longer follows the service, so
							// its per-layer figures do not describe it.
							chk.failed++
							chk.problem("replay of script position %d: body differs from the served one", i)
						}
					}
				}
				mu.Unlock()
			}
		}(recs[g])
	}
	wg.Wait()
	for _, rec := range recs {
		res.spans = append(res.spans, rec.spans...)
	}
	return res
}

// spanStats aggregates spans by name.
type spanStats struct {
	byName map[string][]span
	self   map[string]float64 // summed self time, ms
	total  map[string]float64 // summed duration, ms
	work   map[string]float64
	roots  int
}

func aggregate(spans []span) *spanStats {
	st := &spanStats{byName: map[string][]span{}, self: map[string]float64{}, total: map[string]float64{}, work: map[string]float64{}}
	child := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range spans {
		d := s.End - s.Start
		st.byName[s.Name] = append(st.byName[s.Name], s)
		st.total[s.Name] += float64(d) / 1e6
		st.self[s.Name] += float64(d-child[s.ID]) / 1e6
		st.work[s.Name] += float64(s.Work)
		if s.Parent == 0 {
			st.roots++
		}
	}
	return st
}

func (st *spanStats) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range st.byName[name] {
		ds = append(ds, time.Duration(s.End-s.Start))
	}
	return ds
}

func (st *spanStats) meanMS(name string) float64 {
	return ratio(st.total[name], float64(len(st.byName[name])))
}

// perWork is the span's nanoseconds per unit of work.
func (st *spanStats) perWork(name string) float64 {
	return ratio(st.total[name]*1e6, st.work[name])
}

// attributedPerRequest is the mean per-request self time of every named
// layer, the replay's own glue (the root's self time) excluded.
func (st *spanStats) attributedPerRequest() float64 {
	var sum float64
	for name, self := range st.self {
		if name != "request" {
			sum += self
		}
	}
	return ratio(sum, float64(st.roots))
}

// printTable shows each layer's per-request self time against the
// untraced latency, and what no layer span covers.
func (st *spanStats) printTable(out io.Writer, untracedP50, untracedMean, overheadUS float64) {
	names := make([]string, 0, len(st.self))
	for n := range st.self {
		if n != "request" {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return st.self[names[i]] > st.self[names[j]] })
	fmt.Fprintf(out, "%-20s %8s %14s %12s %12s\n", "layer", "spans", "self ms/req", "% of p50", "% of mean")
	row := func(name string, n int, perReq float64) {
		fmt.Fprintf(out, "%-20s %8d %14.4f %11.1f%% %11.1f%%\n", name, n, perReq, 100*ratio(perReq, untracedP50), 100*ratio(perReq, untracedMean))
	}
	for _, n := range names {
		row(n, len(st.byName[n]), ratio(st.self[n], float64(st.roots)))
	}
	attributed := st.attributedPerRequest()
	row("(unattributed)", st.roots, untracedMean-attributed)
	tracedP50 := quantileMS(st.durations("request"), 0.5)
	fmt.Fprintf(out, "untraced run: latency p50 %.4f ms, mean %.4f ms (over HTTP)\n", untracedP50, untracedMean)
	fmt.Fprintf(out, "traced run:   replay p50 %.4f ms over %d requests; difference %+.4f ms, of which spans cost %.3f us/request\n",
		tracedP50, st.roots, tracedP50-untracedP50, overheadUS)
}

// spanCostNS times recording one span into a throwaway recorder.
func spanCostNS() float64 {
	const n = 1 << 16
	rec := &recorder{t: &tracer{epoch: time.Now()}, spans: make([]span, 0, n)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rec.end(rec.begin("probe", 0), 0)
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func meanMS(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ratio(float64(sum)/1e6, float64(len(ds)))
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
