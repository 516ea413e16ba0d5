// Command perfbench is the repository benchmark: it drives an in-process
// scheduling service (server.New with default options, on loopback) from
// two closed-loop clients over keep-alive connections, validates every
// answer, and prints the end-to-end metrics of one workload. With -trace 1
// it instead measures the per-layer metrics: a shorter untraced phase
// against the same service, then a traced replay of the same seeded script
// through each layer's public entry points.
//
// Build and run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// clients is the closed loop's caller count: one per core of the 2-core
// machines the baseline was measured on.
const clients = 2

// setupReps is how many times a run builds and warms a server; setup_s is
// the median.
const setupReps = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-miss, serve-hit, oracle or replan")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured phase in seconds")
	flag.IntVar(&traced, "trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench-out", "directory for the response spool and span dumps")
	flag.Parse()
	cfg.trace = traced == 1
	if flag.NArg() > 0 || (traced != 0 && traced != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload and writes the human-readable summary to out.
func run(cfg config, out io.Writer) (*report, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	cs := newClients(clients)
	defer closeClients(cs)
	ls, setups, err := setUp(w, cs)
	if err != nil {
		return nil, err
	}
	setup := median(setups)
	defer ls.stop()
	// Validation materialises workloads of its own; it waits until the
	// timed phase is over, so that peak_rss_mb is the service's and the
	// load generator's.
	v := newValidator()

	sk := &sink{}
	if w.hot != nil {
		sk.expect = func(idx int) []byte { return w.hotBody[w.script.get(idx)] }
	} else if sk, err = newSpool(cfg.out, clients); err != nil {
		return nil, err
	}
	defer sk.close()

	// peak_rss_mb covers the live server and the timed phase, not the
	// discarded set-up builds.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	dur := time.Duration(cfg.seconds * float64(time.Second))
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%v clients=%d\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, clients)
	fmt.Fprintf(out, "set-up builds %.4g s, median %.4g s\n", setups, setup)
	if cfg.trace {
		return runTraced(cfg, w, cs, ls, sk, v, dur/2, out)
	}
	lr, err := closedLoop(cs, ls.url, w.script, sk, dur)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	chk, err := checkPhase(cfg, w, cs[0], ls, sk, v, lr)
	if err != nil {
		return nil, err
	}
	chk.print(out)
	lat := chk.okLatencies
	rep := &report{
		Correct:   chk.correct(),
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics: map[string]metric{
			"throughput_rps": {float64(len(lat)) / lr.elapsed.Seconds(), "1/s"},
			"latency_p50_ms": {quantileMS(lat, 0.50), "ms"},
			"latency_p90_ms": {quantileMS(lat, 0.90), "ms"},
			"setup_s":        {setup, "s"},
			"peak_rss_mb":    {rss, "MB"},
		},
	}
	// p99 is reported but not a metric: on a shared host it follows the
	// host's stalls more than the service (see README.md).
	fmt.Fprintf(out, "latency p99 %.6g ms over %d answers\n", quantileMS(lat, 0.99), len(lat))
	printMetrics(out, rep.Metrics)
	return rep, nil
}

// setUp builds and warms a server setupReps times, keeps the last one, and
// returns each build's time.
// Every build must answer the warm-up with the same bytes, which are kept
// for validation after the timed phase. serve-hit's warm-up is its hot
// set, whose bodies become the expected bytes of every timed hit.
func setUp(w *workload, cs []*client) (*liveServer, []float64, error) {
	warm := w.warmRequests()
	var secs []float64
	var first [][]byte
	for rep := 0; ; rep++ {
		// Every build starts from the same state as the first: no garbage
		// of an earlier build to collect, and no memory of one to reuse.
		debug.FreeOSMemory()
		t0 := time.Now()
		ls, err := startServer()
		if err != nil {
			return nil, nil, err
		}
		bodies, err := sendAll(cs, ls.url, warm)
		secs = append(secs, time.Since(t0).Seconds())
		if rep == 0 {
			first = bodies
		}
		for i := range bodies {
			if err == nil && !bytes.Equal(bodies[i], first[i]) {
				err = fmt.Errorf("warm-up answer %d differs between server builds", i)
			}
		}
		if err != nil {
			ls.stop()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if rep == setupReps-1 {
			w.warmBodies = first
			if w.hot != nil {
				w.hotBody = map[*request][]byte{}
				w.hotHash = map[*request][32]byte{}
				for i, r := range w.hot {
					w.hotBody[r] = first[i]
					w.hotHash[r] = sha256.Sum256(first[i])
				}
			}
			return ls, secs, nil
		}
		if err := ls.stop(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return nil, nil, fmt.Errorf("stopping a set-up server: %w", err)
		}
		closeClients(cs)
	}
}

// phaseCheck is the validation of one closed-loop phase.
type phaseCheck struct {
	attempted, failed int
	okLatencies       []time.Duration
	okBytes           int64
	hits, misses      int
	digest            string
	// hashes and answers cover the digest prefix: body hashes, and the
	// search counters read off each response.
	hashes   map[int][32]byte
	answers  map[int]answer
	problems []string
}

// answer is what later measurements read off a validated response.
type answer struct{ nodes, tableHits int64 }

func (c *phaseCheck) correct() bool { return c.failed == 0 && len(c.problems) == 0 }

func (c *phaseCheck) problem(format string, args ...any) {
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *phaseCheck) print(out io.Writer) {
	fmt.Fprintf(out, "requests attempted=%d succeeded=%d failed=%d (x-cache: hit=%d miss=%d)\n",
		c.attempted, len(c.okLatencies), c.failed, c.hits, c.misses)
	fmt.Fprintf(out, "digest %s\n", c.digest)
	for _, p := range c.problems {
		fmt.Fprintf(out, "problem: %s\n", p)
	}
}

// checkPhase validates every answer of a closed-loop phase after it ended,
// first answering any position of the digest prefix the phase did not
// reach (untimed, and not counted as attempted).
func checkPhase(cfg config, w *workload, c *client, ls *liveServer, sk *sink, v *validator, lr *loopResult) (*phaseCheck, error) {
	type item struct {
		ci    int
		o     outcome
		timed bool
	}
	var items []item
	done := map[int]bool{}
	lr.each(func(ci int, o outcome) {
		items = append(items, item{ci, o, true})
		if o.status == http.StatusOK {
			done[int(o.idx)] = true
		}
	})
	k := digestPrefix(cfg.workload)
	for i := 0; i < k; i++ {
		if done[i] {
			continue
		}
		o := outcome{idx: int32(i)}
		status, cache, body, err := c.post(ls.url, w.script.get(i).body)
		if err != nil {
			return nil, fmt.Errorf("answering script position %d for the digest: %w", i, err)
		}
		o.status, o.cache = int32(status), cache
		if err := sk.take(0, &o, body); err != nil {
			return nil, err
		}
		items = append(items, item{0, o, false})
	}

	chk := &phaseCheck{hashes: map[int][32]byte{}, answers: map[int]answer{}}
	// A hot answer that fails validation fails every timed hit on it.
	badHot := map[*request]bool{}
	for i, r := range w.warmRequests() {
		if _, err := v.check(r, w.warmBodies[i]); err != nil {
			chk.problem("warm-up answer %d: %v", i, err)
			badHot[r] = true
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var ioErr error
	work := make(chan item)
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				var err error
				switch it.o.status {
				case http.StatusOK:
				case 0:
					err = fmt.Errorf("transport: %v", lr.transport)
				default:
					err = fmt.Errorf("status %d", it.o.status)
				}
				idx := int(it.o.idx)
				var sum [32]byte
				var ans answer
				r := w.script.get(idx)
				if err == nil && sk.expect != nil {
					if !it.o.match {
						err = fmt.Errorf("body differs from the hot entry's answer")
					} else if badHot[r] {
						err = fmt.Errorf("the hot entry's answer failed validation")
					}
					sum = w.hotHash[r]
				} else if err == nil {
					body, rerr := sk.body(it.ci, it.o)
					if rerr != nil {
						mu.Lock()
						ioErr = rerr
						mu.Unlock()
						continue
					}
					resp, cerr := v.check(r, body)
					err = cerr
					if cerr == nil {
						sum = sha256.Sum256(body)
						if resp.Search != nil {
							ans = answer{int64(resp.Search.NodesAllocated), int64(resp.Search.TableHits)}
						}
					}
				}
				mu.Lock()
				if it.timed {
					chk.attempted++
				}
				switch {
				case err != nil:
					if it.timed {
						chk.failed++
					}
					chk.problem("script position %d: %v", idx, err)
				default:
					if idx < k {
						chk.hashes[idx] = sum
						chk.answers[idx] = ans
					}
					if it.timed {
						chk.okLatencies = append(chk.okLatencies, it.o.lat)
						chk.okBytes += int64(it.o.size)
						switch it.o.cache {
						case cacheHit:
							chk.hits++
						case cacheMiss:
							chk.misses++
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, it := range items {
		work <- it
	}
	close(work)
	wg.Wait()
	if ioErr != nil {
		return nil, fmt.Errorf("reading the response spool: %w", ioErr)
	}
	d, err := digest(chk.hashes, k)
	if err != nil {
		chk.problem("digest: %v", err)
		d = "incomplete"
	}
	chk.digest = d
	return chk, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// quantileMS is the nearest-rank q-quantile of ds, in milliseconds.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	return float64(s[max(0, min(i, len(s)-1))]) / 1e6
}

// resetPeakRSS returns freed heap to the system and resets the process's
// peak resident set (VmHWM) to its current resident set.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
