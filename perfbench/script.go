package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/dacapo"
	"repro/internal/profile"
	"repro/internal/trace"
)

// request is one scripted POST /schedule: its body and what validating the
// answer needs to know about it.
type request struct {
	body []byte
	wire wireRequest
	// inline is the oracle workload's instance (nil for corpus requests).
	inline *inlineInstance
}

// wireRequest is the subset of the request contract the workloads use. The
// benchmark keeps its own copy of the wire format, so that its request
// bytes stay the same whatever the server's types become.
type wireRequest struct {
	Algo     string         `json:"algo"`
	Bench    string         `json:"bench,omitempty"`
	Scale    float64        `json:"scale,omitempty"`
	Model    string         `json:"model,omitempty"`
	MaxCalls int            `json:"max_calls,omitempty"`
	Window   int            `json:"window,omitempty"`
	Tenant   string         `json:"tenant,omitempty"`
	Trace    *inlineTrace   `json:"trace,omitempty"`
	Profile  *inlineProfile `json:"profile,omitempty"`
}

type inlineTrace struct {
	Name  string         `json:"name"`
	Calls []trace.FuncID `json:"calls"`
}

type inlineFunc struct {
	Compile []int64 `json:"compile"`
	Exec    []int64 `json:"exec"`
	Size    int64   `json:"size"`
}

type inlineProfile struct {
	Levels int          `json:"levels"`
	Funcs  []inlineFunc `json:"funcs"`
}

// inlineInstance is a generated two-level OCSP instance.
type inlineInstance struct {
	tr *trace.Trace
	p  *profile.Profile
}

// static reports whether the answer is a static schedule whose make-span
// the reference replay must reproduce: iar, exact, and online-iar with an
// unbounded window (which reproduces offline IAR).
func (r *request) static() bool {
	switch r.wire.Algo {
	case "iar", "exact":
		return true
	case "online-iar":
		return r.wire.Window == 0
	}
	return false
}

func newRequest(w wireRequest, inst *inlineInstance) *request {
	body, err := json.Marshal(w)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return &request{body: body, wire: w, inline: inst}
}

// script is a workload's request sequence. Request i depends only on the
// seed and i: the generator is consumed strictly in index order, and the
// sequence grows on demand so a fast machine never runs out of it.
type script struct {
	mu   sync.Mutex
	reqs []*request
	next func() *request
}

// get returns request i, generating up to it if needed.
func (s *script) get(i int) *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		s.reqs = append(s.reqs, s.next())
	}
	return s.reqs[i]
}

// workload is one named traffic mix.
type workload struct {
	name string
	// hot is the serve-hit set filled during set-up; nil for the other
	// workloads, whose warm-up requests are fixed and seed-independent.
	hot    []*request
	warmup []*request
	script *script
	// warmBodies are the set-up's answers to warmRequests; hotBody and
	// hotHash index serve-hit's by request.
	warmBodies [][]byte
	hotBody    map[*request][]byte
	hotHash    map[*request][32]byte
}

// warmRequests is what set-up sends: the hot set, or the warm-up requests.
func (w *workload) warmRequests() []*request {
	if w.hot != nil {
		return w.hot
	}
	return w.warmup
}

var (
	missScales   = []float64{0.25, 0.5, 1}
	missAlgos    = []string{"iar", "jikes", "v8", "online-iar"}
	models       = []string{"default", "oracle"}
	replanScales = []float64{0.05, 0.1, 0.2}
)

// warmupTenant keeps warm-up fingerprints apart from timed ones: tenants
// never share cache entries.
const warmupTenant = "warmup"

// warmups is how many fixed, seed-independent requests warm a server in
// set-up (serve-hit fills its hot set instead): enough work that setup_s
// is not at the mercy of one slow request.
const warmups = 24

// scriptPrefix is how many requests each workload generates before the
// timed phase, so that generation stays out of it on any plausible machine.
const scriptPrefix = 4096

// newWorkload builds the named workload's inputs from seed.
func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name}
	names := dacapo.Names()
	var next func() *request
	switch name {
	case "serve-miss":
		next = missGenerator(rng)
		for k := 0; k < warmups; k++ {
			w.warmup = append(w.warmup, newRequest(wireRequest{Algo: missAlgos[k%len(missAlgos)], Bench: names[k%len(names)],
				Scale: 1, Model: models[k/len(missAlgos)%len(models)], Tenant: warmupTenant}, nil))
		}
	case "serve-hit":
		w.hot = hotSet(rng, 64)
		next = func() *request { return w.hot[rng.Intn(len(w.hot))] }
	case "oracle":
		next = oracleGenerator(rng, "oracle", []int{7})
		warm := oracleGenerator(rand.New(rand.NewSource(1)), "oracle-warmup", []int{6})
		for k := 0; k < warmups; k++ {
			r := warm()
			r.wire.Tenant = warmupTenant
			w.warmup = append(w.warmup, newRequest(r.wire, r.inline))
		}
	case "replan":
		next = replanGenerator(rng)
		for k := 0; k < warmups; k++ {
			w.warmup = append(w.warmup, newRequest(wireRequest{Algo: "online-iar", Bench: names[k%len(names)], Scale: 0.2,
				Model: "default", Window: 64 << (k % 7), Tenant: warmupTenant}, nil))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want serve-miss, serve-hit, oracle or replan)", name)
	}
	w.script = &script{next: next}
	w.script.get(scriptPrefix - 1)
	return w, nil
}

// scaledLength mirrors dacapo.Benchmark.Load's trace length at scale.
func scaledLength(b dacapo.Benchmark, scale float64) int {
	n := int(float64(b.ScaledLength) * scale)
	return max(1, min(n, b.FullLength))
}

// permuted cycles through n combinations in seeded random order, drawing a
// fresh permutation for every pass, so every stretch of n requests covers
// each combination once.
func permuted(rng *rand.Rand, n int) func() int {
	var perm []int
	return func() int {
		if len(perm) == 0 {
			perm = rng.Perm(n)
		}
		k := perm[0]
		perm = perm[1:]
		return k
	}
}

// missGenerator yields distinct corpus fingerprints over bench × scale ×
// algo × model, each with a seeded max_calls, so the response cache only
// ever inserts and evicts.
func missGenerator(rng *rand.Rand) func() *request {
	suite := dacapo.Suite()
	n := len(suite) * len(missScales) * len(missAlgos) * len(models)
	pick := permuted(rng, n)
	seen := map[wireRequest]bool{}
	return func() *request {
		k := pick()
		b := suite[k%len(suite)]
		k /= len(suite)
		scale := missScales[k%len(missScales)]
		k /= len(missScales)
		algo := missAlgos[k%len(missAlgos)]
		model := models[k/len(missAlgos)]
		l := scaledLength(b, scale)
		for {
			w := wireRequest{Algo: algo, Bench: b.Name, Scale: scale, Model: model, MaxCalls: l/4 + rng.Intn(l-l/4)}
			if !seen[w] {
				seen[w] = true
				return newRequest(w, nil)
			}
		}
	}
}

// hotSet draws n distinct scale-1 fingerprints over bench × algo × model.
func hotSet(rng *rand.Rand, n int) []*request {
	names := dacapo.Names()
	var all []wireRequest
	for _, b := range names {
		for _, algo := range missAlgos {
			for _, model := range models {
				all = append(all, wireRequest{Algo: algo, Bench: b, Scale: 1, Model: model})
			}
		}
	}
	hot := make([]*request, n)
	for i, k := range rng.Perm(len(all))[:n] {
		hot[i] = newRequest(all[k], nil)
	}
	return hot
}

// replanGenerator yields distinct windowed online-iar requests at small
// scales, where replanning rather than materialisation dominates; windows
// are log-uniform in [64, 4096].
func replanGenerator(rng *rand.Rand) func() *request {
	suite := dacapo.Suite()
	n := len(suite) * len(replanScales) * len(models)
	pick := permuted(rng, n)
	seen := map[wireRequest]bool{}
	return func() *request {
		k := pick()
		b := suite[k%len(suite)]
		k /= len(suite)
		scale := replanScales[k%len(replanScales)]
		model := models[k/len(replanScales)]
		for {
			win := int(64 * math.Pow(2, 6*rng.Float64()))
			w := wireRequest{Algo: "online-iar", Bench: b.Name, Scale: scale, Model: model, Window: win}
			if !seen[w] {
				seen[w] = true
				return newRequest(w, nil)
			}
		}
	}
}

// oracleCalls is the call count of every oracle instance.
const oracleCalls = 50

// oracleGenerator yields inline exact-solver requests: two-level instances
// in the style of the paper's §6.2.5 study, with unique-function counts
// drawn from sizes in equal shares. Each carries a distinct trace name, so
// no two share a fingerprint.
func oracleGenerator(rng *rand.Rand, label string, sizes []int) func() *request {
	size := permuted(rng, len(sizes))
	i := 0
	return func() *request {
		inst := newInstance(rng, sizes[size()], oracleCalls, fmt.Sprintf("%s-%d", label, i))
		i++
		funcs := make([]inlineFunc, len(inst.p.Funcs))
		for j, f := range inst.p.Funcs {
			funcs[j] = inlineFunc{Compile: f.Compile, Exec: f.Exec, Size: f.Size}
		}
		return newRequest(wireRequest{
			Algo:    "exact",
			Trace:   &inlineTrace{Name: inst.tr.Name, Calls: inst.tr.Calls},
			Profile: &inlineProfile{Levels: inst.p.Levels, Funcs: funcs},
		}, inst)
	}
}

// newInstance draws nf functions whose low level compiles fast and runs
// slow and whose high level does the opposite, and a Zipf-skewed call
// sequence (function j has weight 1/(j+1)) that calls every function.
func newInstance(rng *rand.Rand, nf, calls int, name string) *inlineInstance {
	p := &profile.Profile{Levels: 2, Funcs: make([]profile.FuncTimes, nf)}
	for i := range p.Funcs {
		cl := int64(1 + rng.Intn(3))
		ch := cl + 1 + int64(rng.Intn(10))
		eh := int64(1 + rng.Intn(3))
		el := eh + 1 + int64(rng.Intn(10))
		p.Funcs[i] = profile.FuncTimes{Compile: []int64{cl, ch}, Exec: []int64{el, eh}, Size: 1}
	}
	var total float64
	for j := 0; j < nf; j++ {
		total += 1 / float64(j+1)
	}
	seq := make([]trace.FuncID, calls)
	for i := range seq {
		r := rng.Float64() * total
		id := nf - 1
		var acc float64
		for j := 0; j < nf; j++ {
			acc += 1 / float64(j+1)
			if r <= acc {
				id = j
				break
			}
		}
		seq[i] = trace.FuncID(id)
	}
	for j := 0; j < nf; j++ {
		seq[j*calls/nf] = trace.FuncID(j)
	}
	return &inlineInstance{tr: trace.New(name, seq), p: p}
}
