package core

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/featcache"
	"repro/internal/langgen"
	"repro/internal/metrics"
)

// TestFlightCoalescesConcurrentMisses is the per-file coalescing contract:
// N extractions racing the identical cache miss run the deep analysis
// exactly once; the followers adopt the leader's result byte-identically
// and report it as StatusCoalesced.
func TestFlightCoalescesConcurrentMisses(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 1
	tree := langgen.Generate(spec)

	flight := NewExtractFlight()
	const n = 4
	var analyses atomic.Int64
	setHook(t, func(f metrics.File) {
		analyses.Add(1)
		// Hold the leader's analysis open until every follower has parked
		// on the flight, so the race is deterministic.
		deadline := time.Now().Add(10 * time.Second)
		for flight.Coalesced() < n-1 {
			if time.Now().After(deadline) {
				t.Error("followers never coalesced")
				return
			}
			time.Sleep(time.Millisecond)
		}
	})

	cfg := ExtractConfig{Jobs: 1, Cache: featcache.NewMemory(), Flight: flight}
	type run struct {
		fv   metrics.FeatureVector
		diag *AnalysisDiagnostics
	}
	runs := make([]run, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fv, diag, err := ExtractFeaturesDiagnostics(context.Background(), tree, cfg)
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			runs[i] = run{fv, diag}
		}(i)
	}
	wg.Wait()

	if got := analyses.Load(); got != 1 {
		t.Fatalf("deep analysis ran %d times across %d concurrent extractions, want exactly 1", got, n)
	}

	want, err := json.Marshal(runs[0].fv)
	if err != nil {
		t.Fatal(err)
	}
	leaders, followers := 0, 0
	for i, r := range runs {
		got, err := json.Marshal(r.fv)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("run %d feature vector differs from run 0:\n%s\nvs\n%s", i, got, want)
		}
		switch st := r.diag.Files[0].Status; st {
		case StatusOK:
			leaders++
			if r.diag.Coalesced != 0 {
				t.Errorf("leader run %d reports Coalesced=%d, want 0", i, r.diag.Coalesced)
			}
		case StatusCoalesced:
			followers++
			if r.diag.Coalesced != 1 {
				t.Errorf("follower run %d reports Coalesced=%d, want 1", i, r.diag.Coalesced)
			}
		default:
			t.Errorf("run %d has status %q, want ok or coalesced", i, st)
		}
		if r.diag.CacheMisses != 1 || r.diag.CacheHits != 0 {
			t.Errorf("run %d cache traffic hits=%d misses=%d, want 0/1", i, r.diag.CacheHits, r.diag.CacheMisses)
		}
	}
	if leaders != 1 || followers != n-1 {
		t.Fatalf("%d leader(s), %d follower(s); want 1 and %d", leaders, followers, n-1)
	}
	if flight.Coalesced() != n-1 {
		t.Fatalf("flight.Coalesced() = %d, want %d", flight.Coalesced(), n-1)
	}

	// The leader's analysis landed in the cache: a later cold run is a
	// pure cache hit and runs nothing.
	fv, diag, err := ExtractFeaturesDiagnostics(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(fv); string(got) != string(want) {
		t.Fatalf("post-flight cache hit changed bytes:\n%s\nvs\n%s", got, want)
	}
	if diag.Files[0].Status != StatusCacheHit {
		t.Fatalf("post-flight status = %q, want cache-hit", diag.Files[0].Status)
	}
	if analyses.Load() != 1 {
		t.Fatalf("cache hit re-ran the analysis (%d total)", analyses.Load())
	}
}

// TestSessionApplyCountsCoalesced: a session changeset whose file adopts a
// concurrent batch extraction's analysis through the shared flight must
// count it in Diagnostics.Coalesced, exactly as the batch path does.
func TestSessionApplyCountsCoalesced(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 1
	tree := langgen.Generate(spec)

	flight := NewExtractFlight()
	started := make(chan struct{})
	var once sync.Once
	setHook(t, func(f metrics.File) {
		// The batch run leads: hold its analysis open until the session
		// has parked on the flight.
		once.Do(func() { close(started) })
		deadline := time.Now().Add(10 * time.Second)
		for flight.Coalesced() < 1 {
			if time.Now().After(deadline) {
				t.Error("session never coalesced")
				return
			}
			time.Sleep(time.Millisecond)
		}
	})

	cfg := ExtractConfig{Jobs: 1, Flight: flight}
	batchErr := make(chan error, 1)
	go func() {
		_, _, err := ExtractFeaturesDiagnostics(context.Background(), tree, cfg)
		batchErr <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("batch extraction never reached the deep analysis")
	}
	res, err := NewSession("s", cfg).Apply(context.Background(), Changeset{Added: tree.Files})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-batchErr; err != nil {
		t.Fatal(err)
	}

	var coalesced uint64
	for _, f := range res.Diagnostics.Files {
		if f.Status == StatusCoalesced {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Fatalf("session files %+v: none coalesced onto the batch leader", res.Diagnostics.Files)
	}
	if res.Diagnostics.Coalesced != coalesced {
		t.Fatalf("Diagnostics.Coalesced = %d, want %d (one per coalesced file)", res.Diagnostics.Coalesced, coalesced)
	}
}

// TestFlightSharesDegradationHonestly: a follower adopting a leader whose
// analysis panicked must report panic-contained, not coalesced — an
// adopted zero enrichment is still a degradation and must stay visible.
func TestFlightSharesDegradationHonestly(t *testing.T) {
	spec := langgen.DefaultSpec()
	spec.Files = 1
	tree := langgen.Generate(spec)

	flight := NewExtractFlight()
	setHook(t, func(f metrics.File) {
		deadline := time.Now().Add(10 * time.Second)
		for flight.Coalesced() < 1 {
			if time.Now().After(deadline) {
				t.Error("follower never coalesced")
				break
			}
			time.Sleep(time.Millisecond)
		}
		panic("injected analyzer bug")
	})

	// No cache: the flight must work standalone, and a panic result must
	// not need cache plumbing to stay uncached.
	cfg := ExtractConfig{Jobs: 1, Flight: flight}
	diags := make([]*AnalysisDiagnostics, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, diag, err := ExtractFeaturesDiagnostics(context.Background(), tree, cfg)
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			diags[i] = diag
		}(i)
	}
	wg.Wait()

	for i, diag := range diags {
		if diag == nil {
			t.Fatalf("run %d produced no diagnostics", i)
		}
		if got := diag.Files[0].Status; got != StatusPanic {
			t.Errorf("run %d status = %q, want %q (degradation must not hide behind coalescing)", i, got, StatusPanic)
		}
		if deg := diag.Degraded(); len(deg) != 1 {
			t.Errorf("run %d Degraded() = %+v, want exactly the panicked file", i, deg)
		}
	}
}
