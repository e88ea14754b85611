package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/featcache"
	"repro/internal/metrics"
)

// TestConcurrentIdenticalMisses races batch extractions, a session seeding
// the same files, and one run that is canceled mid-analysis, all over one
// shared cache with a per-file deadline. Every racer misses the first file
// at once and runs its analysis; the cache takes the identical records
// without harm, the vectors match an uncached sequential run, and the
// canceled run returns while its analysis is still held.
func TestConcurrentIdenticalMisses(t *testing.T) {
	var files []metrics.File
	for i := 0; i < 3; i++ {
		files = append(files, metrics.File{
			Path:    fmt.Sprintf("f%d.mc", i),
			Content: fmt.Sprintf("int f%d(int x) { int d = read_input(); if (x > %d) { memmove(0, d, x); } return x; }\n", i, i),
		})
	}
	tree := metrics.NewTree("race", files...)
	ref, err := ExtractFeaturesWith(context.Background(), tree, ExtractConfig{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Each racer runs with one worker, so while the hook holds, each has
	// exactly one analysis open: its first file's.
	const batches = 3
	const racers = batches + 2 // plus the session and the canceled run
	var entered atomic.Int64
	release := make(chan struct{})
	setHook(t, func(metrics.File) {
		entered.Add(1)
		<-release
	})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()

	cache := featcache.NewMemory()
	cfg := ExtractConfig{Jobs: 1, Cache: cache, FileTimeout: time.Minute}
	type outcome struct {
		fv   metrics.FeatureVector
		diag *AnalysisDiagnostics
		err  error
	}
	outcomes := make([]outcome, batches+1)
	var wg sync.WaitGroup
	for i := 0; i < batches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fv, diag, err := ExtractFeaturesDiagnostics(context.Background(), tree, cfg)
			outcomes[i] = outcome{fv, diag, err}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := NewSession("s", cfg).Apply(context.Background(), Changeset{Added: tree.Files})
		if err != nil {
			outcomes[batches] = outcome{err: err}
			return
		}
		outcomes[batches] = outcome{res.Features, res.Diagnostics, nil}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceled := make(chan error, 1)
	go func() {
		_, _, err := ExtractFeaturesDiagnostics(ctx, tree, cfg)
		canceled <- err
	}()

	deadline := time.Now().Add(10 * time.Second)
	for entered.Load() < racers {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d racers reached their analysis", entered.Load(), racers)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-canceled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run: err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled run still waiting on its held analysis")
	}
	releaseAll()
	wg.Wait()

	for i, o := range outcomes {
		if o.err != nil {
			t.Fatalf("racer %d: %v", i, o.err)
		}
		got, err := json.Marshal(o.fv)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("racer %d vector differs from the uncached -jobs 1 run:\n%s\nvs\n%s", i, got, want)
		}
		for _, f := range o.diag.Files {
			if f.Status != StatusOK && f.Status != StatusCacheHit {
				t.Errorf("racer %d file %s status %q, want ok or cache-hit", i, f.Path, f.Status)
			}
		}
	}
	if entries, _ := cache.MemStats(); entries != len(tree.Files) {
		t.Fatalf("cache holds %d entries after the race, want one per file (%d)", entries, len(tree.Files))
	}
}
