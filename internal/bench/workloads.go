package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/cwe"
	"repro/internal/findings"
	"repro/internal/funcrank"
	"repro/internal/lexer"
	"repro/internal/lint"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/singleflight"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/store/findex"
	"repro/internal/trace"
)

// sink defeats dead-code elimination of benchmark bodies. sinkMu guards
// it in the one workload whose body fans out goroutines.
var (
	sink   float64
	sinkMu sync.Mutex
)

// workload is one named benchmark body over shared fixtures.
type workload struct {
	name string
	fn   func()
}

// workloads holds the fixtures every benchmark body closes over. All of it
// is built once in setupWorkloads so the timed loops measure steady-state
// work only.
type workloads struct {
	src   string
	langs metrics.File
	tree  *metrics.Tree

	fitData *ml.Dataset
	serve   *ml.RandomForest
	rows    [][]float64

	model      *core.Model
	modelJSON  []byte
	modelBin   []byte
	scoreInput metrics.FeatureVector

	// sess is a session pre-seeded with the extraction tree; the
	// compare_incremental workload applies one-file changesets to it, the
	// warm path the /v1/delta endpoint serves.
	sess      *core.Session
	editCount int

	// Storage-engine fixtures: a KV store pre-seeded with StoreKeys rows
	// (store_put overwrites them in rotation, store_scan walks them all)
	// and a findings history of StoreRuns runs for query_indexed. Both run
	// with NoSync so the workloads measure engine CPU, not fsync latency —
	// the variance of a CI box's disk must not gate verification.
	storeDB   *store.DB
	storeKeys [][]byte
	storeVal  []byte
	putCount  int
	hist      *findex.Store
	tmpDir    string

	// flight is the singleflight group score_coalesced fans bursts
	// through; shared so the key bookkeeping is steady-state.
	flight singleflight.Group[float64]
}

// close releases the storage fixtures; Run defers it.
func (w *workloads) close() {
	if w.hist != nil {
		w.hist.Close()
	}
	if w.storeDB != nil {
		w.storeDB.Close()
	}
	if w.tmpDir != "" {
		os.RemoveAll(w.tmpDir)
	}
}

func setupWorkloads(dir string) (*workloads, error) {
	seedTree, err := metrics.LoadTree(dir)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if len(seedTree.Files) == 0 {
		return nil, fmt.Errorf("bench: no source files under %s", dir)
	}
	seed := seedTree.Files[0]
	w := &workloads{src: seed.Content, langs: seed}

	// The extraction tree: TreeFiles replicas of the example file, named
	// deterministically so the tree (and every derived feature) is stable.
	w.tree = &metrics.Tree{Name: "bench"}
	for i := 0; i < TreeFiles; i++ {
		w.tree.Files = append(w.tree.Files, metrics.File{
			Path:     fmt.Sprintf("f%02d%s", i, seed.Language.Extension()),
			Language: seed.Language,
			Content:  seed.Content,
		})
	}

	w.fitData = syntheticDataset(FitRows, FitCols, benchSeed)

	// The serving ensemble is round-tripped through its serialized form:
	// forest_batch measures inference with a loaded model — the state the
	// scoring daemon holds — not with a freshly fitted one.
	fitted := &ml.RandomForest{Trees: ServeTrees, MaxDepth: ServeDepth, Seed: benchSeed, Jobs: 1}
	if err := fitted.Fit(w.fitData); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	blob, err := ml.MarshalClassifier(fitted)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	loaded, err := ml.UnmarshalClassifier(blob)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	w.serve = loaded.(*ml.RandomForest)
	w.rows = syntheticRows(BatchRows, FitCols, benchSeed+1)

	w.model, err = syntheticModel()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := w.model.Save(&buf); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	w.modelJSON = buf.Bytes()
	var bin bytes.Buffer
	if err := w.model.SaveBinary(&bin); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	w.modelBin = bin.Bytes()
	w.scoreInput = metrics.Extract(w.tree)

	// The incremental session is seeded outside the timed loop; the
	// workload measures steady-state one-file applies only. Jobs is pinned
	// to one worker like every other concurrency knob, and no cache is
	// attached, so each apply pays the real re-analysis of its file.
	w.sess = core.NewSession("bench-inc", core.ExtractConfig{Jobs: 1})
	if _, err := w.sess.Apply(context.Background(), core.Changeset{Added: w.tree.Files}); err != nil {
		return nil, fmt.Errorf("bench: seed session: %w", err)
	}
	if err := w.setupStore(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// setupStore builds the storage-engine fixtures outside the timed loops:
// a KV store of StoreKeys rows and a findings history of StoreRuns
// deterministic runs across StoreRepos repos.
func (w *workloads) setupStore() error {
	dir, err := os.MkdirTemp("", "secmetric-bench-store")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	w.tmpDir = dir
	w.storeDB, err = store.Open(filepath.Join(dir, "kv.db"), store.Options{NoSync: true})
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	w.storeVal = make([]byte, StoreValueBytes)
	for i := range w.storeVal {
		w.storeVal[i] = byte(i*131 + 17)
	}
	w.storeKeys = make([][]byte, StoreKeys)
	for i := range w.storeKeys {
		w.storeKeys[i] = []byte(fmt.Sprintf("bench/k%06d", i))
	}
	const batch = 200
	for lo := 0; lo < StoreKeys; lo += batch {
		hi := lo + batch
		if hi > StoreKeys {
			hi = StoreKeys
		}
		if err := w.storeDB.Update(func(tx *store.Tx) error {
			for _, k := range w.storeKeys[lo:hi] {
				if err := tx.Put(k, w.storeVal); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("bench: seed store: %w", err)
		}
	}

	hdb, err := store.Open(filepath.Join(dir, "findings.db"), store.Options{NoSync: true})
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	w.hist = findex.OpenDB(hdb)
	rng := stats.NewRNG(benchSeed + 3)
	files := []string{"src/a.c", "src/b.c", "src/c.c", "lib/d.c"}
	cwes := []int{0, 78, 119, 121, 134, 369, 676}
	for i := 0; i < StoreRuns; i++ {
		rep := &findings.Report{}
		for j, nf := 0, rng.Intn(6); j < nf; j++ {
			rep.Findings = append(rep.Findings, findings.Finding{
				Rule:     "bench",
				CWE:      cwe.ID(cwes[rng.Intn(len(cwes))]),
				File:     files[rng.Intn(len(files))],
				Line:     j + 1,
				Severity: findings.Severity(rng.Intn(5)),
				Message:  "bench",
			})
		}
		run := findex.NewRun(fmt.Sprintf("bench-%d", i%StoreRepos), "bench", rep)
		run.Time = int64(1_700_000_000 + i*600)
		if rng.Bool(0.7) {
			run = run.WithScore(rng.Float64())
		}
		if _, err := w.hist.Append(run); err != nil {
			return fmt.Errorf("bench: seed history: %w", err)
		}
	}
	return nil
}

// syntheticDataset draws a two-class dataset with class-shifted Gaussian
// columns, so tree splits have real signal to find.
func syntheticDataset(n, p int, seed uint64) *ml.Dataset {
	rng := stats.NewRNG(seed)
	attrs := make([]string, p)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("a%02d", j)
	}
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		class := i % 2
		row := make([]float64, p)
		for j := range row {
			shift := 0.0
			if class == 1 && j%3 == 0 {
				shift = 1.5
			}
			row[j] = rng.Normal(shift, 1)
		}
		X[i] = row
		Y[i] = float64(class)
	}
	d, err := ml.NewDataset(attrs, []string{"no", "yes"}, X, Y)
	if err != nil {
		panic(err) // shapes are constructed consistent above
	}
	return d
}

// syntheticRows draws standalone prediction rows.
func syntheticRows(n, p int, seed uint64) [][]float64 {
	rng := stats.NewRNG(seed)
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, p)
		for j := range row {
			row[j] = rng.Normal(0, 1.5)
		}
		rows[i] = row
	}
	return rows
}

// syntheticModel builds a loadable, scoreable forest model without paying
// for corpus generation: one ModelTrees-tree forest per standard
// hypothesis over the full feature schema.
func syntheticModel() (*core.Model, error) {
	d := syntheticDataset(FitRows, len(metrics.FeatureNames), benchSeed+2)
	names := append([]string(nil), metrics.FeatureNames...)
	m := &core.Model{
		Config:      core.TrainConfig{Kind: core.KindForest},
		Transformer: core.DefaultTransformer(),
	}
	for i, h := range core.StandardHypotheses() {
		rf := &ml.RandomForest{Trees: ModelTrees, MaxDepth: FitDepth, Seed: benchSeed + uint64(i), Jobs: 1}
		if err := rf.Fit(d); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		m.Hypotheses = append(m.Hypotheses, &core.HypothesisModel{
			Hypothesis: h,
			Kind:       core.KindForest,
			Classifier: rf,
			Features:   names,
			BaseRate:   0.5,
		})
	}
	return m, nil
}

// list returns the workload battery in report order.
func (w *workloads) list() []workload {
	return []workload{
		{"tokenize_file", func() {
			toks := lexer.Tokenize(w.src, w.langs.Language)
			sink += float64(len(toks))
		}},
		{"extract_base", func() {
			fv := metrics.Extract(w.tree)
			sink += fv[metrics.FeatKLoC]
		}},
		{"lint_tree", func() {
			rep := lint.Check(w.tree)
			sink += float64(rep.Total())
		}},
		{"analyze_full", func() {
			fv := core.ExtractFeatures(w.tree)
			sink += fv[metrics.FeatKLoC]
		}},
		{"compare_incremental", func() {
			// One-file edit against the warm session: re-analyzes exactly
			// one of the TreeFiles files, then folds the aggregates. The
			// content is counter-unique so every op models a real edit.
			w.editCount++
			f := w.tree.Files[0]
			f.Content = fmt.Sprintf("%s\n// bench edit %d\n", w.tree.Files[0].Content, w.editCount)
			res, err := w.sess.Apply(context.Background(), core.Changeset{Modified: []metrics.File{f}})
			if err != nil {
				panic(err)
			}
			sink += res.Features[metrics.FeatKLoC]
		}},
		{"rank", func() {
			// Function-level feature extraction + LEOPARD binning over the
			// replica tree, single-worker like every other concurrency knob.
			r, err := funcrank.Rank(context.Background(), w.tree, funcrank.Config{Jobs: 1})
			if err != nil {
				panic(err)
			}
			sink += float64(r.Functions + r.Bins)
		}},
		{"forest_fit", func() {
			rf := &ml.RandomForest{Trees: FitTrees, MaxDepth: FitDepth, Seed: benchSeed, Jobs: 1}
			if err := rf.Fit(w.fitData); err != nil {
				panic(err)
			}
			sink += float64(rf.PredictClass(w.rows[0]))
		}},
		{"forest_batch", func() {
			sink += w.forestBatch()
		}},
		{"score", func() {
			rep := w.model.Score("bench", w.scoreInput)
			sink += rep.RiskScore
		}},
		{"score_coalesced", func() {
			// A CoalesceFanout-wide burst of identical scores through the
			// singleflight group: one leader runs the model, the rest
			// adopt its flight — the dedup hot path the daemon's per-file
			// extraction flight pays per burst (goroutine fan-out, channel
			// wait, key bookkeeping) on top of one execution.
			var wg sync.WaitGroup
			for i := 0; i < CoalesceFanout; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, _, _ := w.flight.Do(context.Background(), "score", func() float64 {
						return w.model.Score("bench", w.scoreInput).RiskScore
					})
					sinkMu.Lock()
					sink += v
					sinkMu.Unlock()
				}()
			}
			wg.Wait()
		}},
		{"model_load_json", func() {
			m, err := core.LoadModel(bytes.NewReader(w.modelJSON))
			if err != nil {
				panic(err)
			}
			sink += float64(len(m.Hypotheses))
		}},
		{"model_load_bin", func() {
			m, err := core.LoadModel(bytes.NewReader(w.modelBin))
			if err != nil {
				panic(err)
			}
			sink += float64(len(m.Hypotheses))
		}},
		{"store_put", func() {
			// One committed overwrite per op, rotating through the seeded
			// keys: the copy-on-write update path plus WAL encode/commit,
			// with the freelist recycling the shadowed pages.
			k := w.storeKeys[w.putCount%StoreKeys]
			w.putCount++
			w.storeVal[0] = byte(w.putCount)
			if err := w.storeDB.Update(func(tx *store.Tx) error {
				return tx.Put(k, w.storeVal)
			}); err != nil {
				panic(err)
			}
			sink++
		}},
		{"store_scan", func() {
			// Full in-order walk of the StoreKeys rows through an MVCC
			// snapshot — the read path /v1/query's full scan sits on.
			snap, err := w.storeDB.Snapshot()
			if err != nil {
				panic(err)
			}
			n := 0
			err = snap.Scan(nil, nil, func(k, v []byte) (bool, error) {
				n += len(v)
				return true, nil
			})
			snap.Release()
			if err != nil {
				panic(err)
			}
			sink += float64(n)
		}},
		{"query_indexed", func() {
			// The acceptance query over the seeded history: index-planned
			// candidate fetch, row filtering, sort, and LIMIT.
			runs, _, err := w.hist.QueryString(
				"cwe121 > 0 AND severity >= high ORDER BY score DESC LIMIT 20",
				findex.Options{})
			if err != nil {
				panic(err)
			}
			sink += float64(len(runs))
		}},
	}
}

// forestBatch predicts class probabilities for every benchmark row through
// the compiled batch path and folds them into one number for the sink.
func (w *workloads) forestBatch() float64 {
	s := 0.0
	for _, p := range w.serve.PredictProbaBatch(w.rows) {
		s += p[1]
	}
	return s
}

// phaseTotals runs one traced, single-worker full analysis over the tree
// and returns the per-phase busy totals.
func (w *workloads) phaseTotals() []PhaseTotal {
	tr := trace.New("bench")
	ctx := trace.ContextWithSpan(context.Background(), tr.Root())
	_, _, err := core.ExtractFeaturesDiagnostics(ctx, w.tree, core.ExtractConfig{Jobs: 1})
	tr.Finish()
	if err != nil {
		return nil
	}
	var out []PhaseTotal
	for _, p := range tr.PhaseTotals() {
		out = append(out, PhaseTotal{Phase: p.Phase, Seconds: p.Seconds, Count: p.Count})
	}
	return out
}
