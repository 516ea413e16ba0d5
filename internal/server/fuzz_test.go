package server

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// FuzzScheduleRequest drives the request decode/validate/materialize path
// with arbitrary bytes. The invariants under test:
//
//   - decodeScheduleRequest never panics and never returns (nil, nil);
//   - an accepted request has a deterministic fingerprint;
//   - an accepted request's workload either materializes into validated
//     library types or fails with a client-fault error — it never panics,
//     whatever the payload's numbers are;
//   - an accepted inline workload's worst-case make-span fits the
//     simulator's time range (the magnitude seeds probe its edge).
//
// Seeds come from testdata/requests, which doubles as documentation of the
// wire format.
func FuzzScheduleRequest(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "requests", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed corpus: %v (%d files)", err, len(seeds))
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// One memo across iterations, so corpus requests run the shared-trace
	// path the server takes.
	memo := newTraceMemo(traceMemoBudget, nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeScheduleRequest(bytes.NewReader(data))
		if err != nil {
			if req != nil {
				t.Fatal("decode returned both a request and an error")
			}
			return
		}
		if req == nil {
			t.Fatal("decode returned neither a request nor an error")
		}
		fp1, fp2 := req.fingerprint(), req.fingerprint()
		if fp1 != fp2 || fp1 == "" {
			t.Fatalf("fingerprint not deterministic: %q vs %q", fp1, fp2)
		}
		// Materializing a corpus workload at a large scale is legitimate but
		// too slow for a fuzz iteration; the validation path above is the
		// target, trace synthesis is covered elsewhere.
		if req.Bench != "" && req.Scale > 2 {
			return
		}
		w, err := req.workload(context.Background(), memo)
		if err != nil {
			var rerr *requestError
			if !errors.As(err, &rerr) {
				t.Fatalf("workload() failed with a non-client error: %v", err)
			}
			return
		}
		if w.Trace == nil || w.Profile == nil {
			t.Fatal("workload() returned nil trace or profile without an error")
		}
		if err := w.Profile.Validate(); err != nil {
			t.Fatalf("materialized profile does not validate: %v", err)
		}
		if err := w.Trace.Validate(w.Profile.NumFuncs()); err != nil {
			t.Fatalf("materialized trace does not validate: %v", err)
		}
		if req.Bench == "" {
			if err := sim.CheckTimeBounds(w.Trace, w.Profile); err != nil {
				t.Fatalf("accepted inline workload leaves the time range: %v", err)
			}
		}
	})
}

// FuzzBatchRequest drives the batch-envelope decode path plus per-item
// decode/validate with arbitrary bytes. Invariants:
//
//   - decodeBatchRequest never panics and never returns (nil, nil);
//   - an accepted envelope is non-empty and within the item limit;
//   - every item either decodes into a request with a deterministic
//     fingerprint or fails with a client-fault error — item handling is
//     isolated, so one bad item must not prevent classifying the others.
func FuzzBatchRequest(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "batch", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed corpus: %v (%d files)", err, len(seeds))
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	const maxItems = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodeBatchRequest(bytes.NewReader(data), maxItems)
		if err != nil {
			if env != nil {
				t.Fatal("decode returned both an envelope and an error")
			}
			var rerr *requestError
			if !errors.As(err, &rerr) {
				t.Fatalf("envelope rejected with a non-client error: %v", err)
			}
			return
		}
		if env == nil {
			t.Fatal("decode returned neither an envelope nor an error")
		}
		if len(env.Items) == 0 || len(env.Items) > maxItems {
			t.Fatalf("accepted envelope with %d items, limit %d", len(env.Items), maxItems)
		}
		for i, raw := range env.Items {
			req, err := decodeScheduleRequest(bytes.NewReader(raw))
			if err != nil {
				var rerr *requestError
				if !errors.As(err, &rerr) {
					t.Fatalf("item %d rejected with a non-client error: %v", i, err)
				}
				continue
			}
			if fp1, fp2 := req.fingerprint(), req.fingerprint(); fp1 != fp2 || fp1 == "" {
				t.Fatalf("item %d: fingerprint not deterministic: %q vs %q", i, fp1, fp2)
			}
		}
	})
}
