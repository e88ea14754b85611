package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lexer"
	"repro/internal/lint"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/store/findex"
)

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink int

// kernelResult is one kernel's samples: ns and allocations per call.
type kernelResult struct {
	name       string
	ns, allocs []float64
}

// measureKernels runs the in-process kernels behind the serving layers on
// this seed's inputs, each timed by the benchmark's own span around the
// call: kernelSamples samples of at least kernelBudget each, after one
// untimed call. Each kernel maps to the workload whose latency it sits in
// (README.md).
func measureKernels(fx *fixtures) ([]kernelResult, error) {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "servebench-kernels")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	tree := toMetricsTree(genRepoKeyed(repoKey{}, fx.seed, fx.sc).tree(0, "kernel"))
	cold := toMetricsTree(coldTree(fx.seed, clients, 0, fx.sc)) // a tree no client sends
	sess := core.NewSession("kernel", core.ExtractConfig{Jobs: 1})
	if _, err := sess.Apply(ctx, core.Changeset{Added: tree.Files}); err != nil {
		return nil, fmt.Errorf("kernel session: %w", err)
	}
	kv, err := store.Open(filepath.Join(dir, "kv.db"), store.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	defer kv.Close()
	val := bytes.Repeat([]byte{0x5a}, bench.StoreValueBytes)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%06d", i%bench.StoreKeys)) }
	if err := kv.Update(func(tx *store.Tx) error {
		for i := 0; i < bench.StoreKeys; i++ {
			if err := tx.Put(key(i), val); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("seed kv: %w", err)
	}
	hdb, err := store.Open(filepath.Join(dir, "history.db"), store.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	hist := findex.OpenDB(hdb)
	defer hist.Close()
	if err := seedHistory(hist, nil, bench.StoreRuns, subSeed(fx.seed, 6)); err != nil {
		return nil, err
	}

	edits, puts := 0, 0
	kernels := []struct {
		name string
		fn   func() error
	}{
		{"tokenize_file", func() error {
			sink += len(lexer.Tokenize(tree.Files[1].Content, tree.Files[1].Language))
			return nil
		}},
		{"extract_base", func() error { sink += len(metrics.Extract(tree)); return nil }},
		{"lint_tree", func() error { sink += lint.Check(tree).Total(); return nil }},
		{"analyze_full", func() error {
			fv, err := core.ExtractFeaturesWith(ctx, cold, core.ExtractConfig{Jobs: 1})
			sink += len(fv)
			return err
		}},
		{"compare_incremental", func() error {
			// A one-file edit of unchanged structure against the warm,
			// uncached session: one file's full re-analysis plus the fold.
			edits++
			f := tree.Files[0]
			f.Content = fmt.Sprintf("%s\n// edit %d\n", f.Content, edits)
			_, err := sess.Apply(ctx, core.Changeset{Modified: []metrics.File{f}})
			return err
		}},
		{"model_load_bin", func() error {
			m, err := core.LoadModel(bytes.NewReader(fx.blob))
			if err == nil {
				sink += len(m.Hypotheses)
			}
			return err
		}},
		{"store_put", func() error {
			puts++
			return kv.Update(func(tx *store.Tx) error { return tx.Put(key(puts), val) })
		}},
		{"store_scan", func() error {
			snap, err := kv.Snapshot()
			if err != nil {
				return err
			}
			defer snap.Release()
			return snap.Scan(nil, nil, func(k, v []byte) (bool, error) {
				sink += len(v)
				return true, nil
			})
		}},
		{"query_indexed", func() error {
			runs, _, err := hist.QueryString("cwe121 > 0 AND severity >= high ORDER BY score DESC LIMIT 20", findex.Options{})
			sink += len(runs)
			return err
		}},
	}
	var out []kernelResult
	for _, k := range kernels {
		if err := k.fn(); err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		kr := kernelResult{name: k.name}
		for s := 0; s < fx.sc.kernelSamples; s++ {
			ns, allocs, err := sampleKernel(k.fn, fx.sc.kernelBudget)
			if err != nil {
				return nil, fmt.Errorf("kernel %s: %w", k.name, err)
			}
			kr.ns = append(kr.ns, ns)
			kr.allocs = append(kr.allocs, allocs)
		}
		out = append(out, kr)
	}
	return out, nil
}

// sampleKernel calls fn until budget has passed (at least once) and
// returns ns and heap allocations per call.
func sampleKernel(fn func() error, budget time.Duration) (ns, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < budget {
		if err := fn(); err != nil {
			return 0, 0, err
		}
		n++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}
