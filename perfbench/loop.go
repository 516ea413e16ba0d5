package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// liveServer is an in-process scheduling service with default options on a
// loopback listener.
type liveServer struct {
	srv    *server.Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

func startServer() (*liveServer, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ls := &liveServer{srv: server.New(server.Options{}), cancel: cancel, done: make(chan error, 1)}
	ready := make(chan net.Addr, 1)
	go func() { ls.done <- ls.srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { ready <- a }) }()
	select {
	case a := <-ready:
		ls.url = "http://" + a.String()
		return ls, nil
	case err := <-ls.done:
		cancel()
		return nil, fmt.Errorf("starting server: %w", err)
	}
}

// stop drains the service and waits for its listener goroutine to return.
func (ls *liveServer) stop() error {
	ls.cancel()
	return <-ls.done
}

// client is one closed-loop caller over a keep-alive connection.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClients(n int) []*client {
	tr := &http.Transport{MaxIdleConnsPerHost: n, DisableCompression: true}
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{hc: &http.Client{Transport: tr}}
	}
	return cs
}

func closeClients(cs []*client) {
	if len(cs) > 0 {
		cs[0].hc.Transport.(*http.Transport).CloseIdleConnections()
	}
}

// post sends one request; the returned body aliases the client's buffer
// until its next call.
func (c *client) post(url string, body []byte) (status int, cache cacheState, resp []byte, err error) {
	r, err := c.hc.Post(url+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, cacheOther, nil, err
	}
	defer r.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(r.Body); err != nil {
		return 0, cacheOther, nil, err
	}
	return r.StatusCode, parseCache(r.Header.Get("X-Cache")), c.buf.Bytes(), nil
}

// outcome is one timed request as the closed loop saw it, kept compact:
// serve-hit runs record hundreds of thousands of them.
type outcome struct {
	idx    int32
	status int32 // 0: the request failed in transport
	cache  cacheState
	// hit mode: whether the body equalled the hot entry's expected body;
	// spool mode: where the body lies in the client's spool file.
	match bool
	size  int32
	off   int64
	lat   time.Duration
}

// cacheState is the X-Cache header of an answer.
type cacheState uint8

const (
	cacheOther cacheState = iota
	cacheHit
	cacheMiss
)

func parseCache(h string) cacheState {
	switch h {
	case "hit":
		return cacheHit
	case "miss":
		return cacheMiss
	}
	return cacheOther
}

// sink takes each response body as it arrives, outside the latency
// measurement: either it compares against the expected bytes (serve-hit,
// whose bodies are large and whose timed requests are repeats), or it
// appends to a spool file for validation after the timed phase.
type sink struct {
	expect func(idx int) []byte
	files  []*os.File
	offs   []int64
}

func newSpool(dir string, n int) (*sink, error) {
	s := &sink{}
	for i := 0; i < n; i++ {
		f, err := os.CreateTemp(dir, "spool-*")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("creating response spool: %w", err)
		}
		s.files = append(s.files, f)
		s.offs = append(s.offs, 0)
	}
	return s, nil
}

// take records body for client ci into o.
func (s *sink) take(ci int, o *outcome, body []byte) error {
	o.size = int32(len(body))
	if s.expect != nil {
		o.match = bytes.Equal(body, s.expect(int(o.idx)))
		return nil
	}
	o.off = s.offs[ci]
	n, err := s.files[ci].Write(body)
	s.offs[ci] += int64(n)
	return err
}

// body reads an outcome's spooled body back.
func (s *sink) body(ci int, o outcome) ([]byte, error) {
	b := make([]byte, o.size)
	_, err := s.files[ci].ReadAt(b, o.off)
	return b, err
}

func (s *sink) close() {
	for _, f := range s.files {
		f.Close()
		os.Remove(f.Name())
	}
}

// loopResult is one closed-loop phase: per-client outcomes, the wall time
// from the first send to the last completion, and the first transport
// error, if any.
type loopResult struct {
	outs      [][]outcome
	elapsed   time.Duration
	transport error
}

func (lr *loopResult) each(fn func(ci int, o outcome)) {
	for ci, outs := range lr.outs {
		for _, o := range outs {
			fn(ci, o)
		}
	}
}

// spooled locates one answer: its client's spool and its outcome.
type spooled struct {
	ci int
	o  outcome
}

// lastOK returns the 200s among each client's last n answers: the
// freshest cache entries.
func (lr *loopResult) lastOK(n int) []spooled {
	var last []spooled
	for ci, outs := range lr.outs {
		for j := len(outs) - 1; j >= 0 && j >= len(outs)-n; j-- {
			if outs[j].status == http.StatusOK {
				last = append(last, spooled{ci, outs[j]})
			}
		}
	}
	return last
}

// closedLoop runs the clients against url, each sending its next scripted
// request only when the previous one has been answered, until dur has
// passed; requests in flight at that point complete and count. Requests
// are drawn from the script in index order, starting at 0.
func closedLoop(cs []*client, url string, sc *script, sk *sink, dur time.Duration) (*loopResult, error) {
	var next atomic.Int64
	lr := &loopResult{outs: make([][]outcome, len(cs))}
	errs := make([]error, len(cs))
	transport := make([]error, len(cs))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				r := sc.get(i)
				t0 := time.Now()
				status, cache, body, err := c.post(url, r.body)
				o := outcome{idx: int32(i), status: int32(status), cache: cache, lat: time.Since(t0)}
				if err != nil {
					o.status = 0
					if transport[ci] == nil {
						transport[ci] = err
					}
				} else if err := sk.take(ci, &o, body); err != nil {
					errs[ci] = err
					return
				}
				lr.outs[ci] = append(lr.outs[ci], o)
			}
		}(ci, c)
	}
	wg.Wait()
	lr.elapsed = time.Since(start)
	for ci, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("spooling a response: %w", err)
		}
		if lr.transport == nil {
			lr.transport = transport[ci]
		}
	}
	return lr, nil
}

// sendAll posts reqs over the clients concurrently and fails on any answer
// other than a 200; it returns the bodies in order.
func sendAll(cs []*client, url string, reqs []*request) ([][]byte, error) {
	bodies := make([][]byte, len(reqs))
	errs := make([]error, len(cs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				status, _, body, err := c.post(url, reqs[i].body)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
				}
				if err != nil {
					errs[ci] = fmt.Errorf("request %s: %w", reqs[i].body[:min(len(reqs[i].body), 120)], err)
					return
				}
				bodies[i] = bytes.Clone(body)
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}
