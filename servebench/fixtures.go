package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/featcache"
	"repro/internal/lang"
	"repro/internal/langgen"
	"repro/internal/lexer"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/stats"
	"repro/pkg/api"
)

// scale fixes the size of every input. It is part of the benchmark's
// definition: numbers measured at different scales are not comparable.
type scale struct {
	treeFiles    int // files in a repository tree
	versions     int // versions of the edited file; trees and deltas cycle through them
	coldFiles    int // files in each score_cold tree
	stmtsPerFunc int // mean statements per generated function body
	fileTokens   int // target lexer tokens per repository file
	historyRuns  int // runs pre-seeded into each fleet shard's findings history
	warmupOps    int // operations per client after set-up and before the window
	setups       int // untraced set-ups per run; setup_s is their median

	kernelSamples int
	kernelBudget  time.Duration // minimum time of one kernel sample
}

var fullScale = scale{
	treeFiles:     16,
	versions:      8,
	coldFiles:     2,
	stmtsPerFunc:  6,
	fileTokens:    500,
	historyRuns:   2000,
	warmupOps:     8,
	setups:        3,
	kernelSamples: 5,
	kernelBudget:  20 * time.Millisecond,
}

// clients is the number of closed-loop callers, one per CPU of the machine
// the bounds were measured on; each holds one keep-alive connection.
const clients = 2

// modelSeed seeds the serving model's training set and forests, the
// value internal/bench fits its synthetic model with.
const modelSeed = 0xbe9c4

// subSeed derives an independent stream seed from the run seed and a path
// of small integers, so each input family can be regenerated on its own.
func subSeed(parts ...uint64) uint64 {
	var h uint64
	for _, p := range parts {
		h = stats.NewRNG(h ^ p).Uint64()
	}
	return h
}

// genSpec is the MiniC generator setting every tree is drawn from: small
// functions, so at full scale a 16-file tree is about 23 KB.
func genSpec(seed uint64, files int, vulnDensity float64, sc scale) langgen.Spec {
	s := langgen.DefaultSpec()
	s.Files = files
	s.FuncsPerFile = 3
	s.StmtsPerFunc = sc.stmtsPerFunc
	s.VulnDensity = vulnDensity
	s.Seed = seed
	return s
}

// repoTree is one repository's history: a base tree and the versions of
// its first file. Version k of the tree is the base with that file
// replaced by versions[k], the successive commits a CI gate scores.
type repoTree struct {
	base     []api.File
	versions []string
}

// genRepo draws a candidate pool from the generator and picks files whose
// token counts hit fixed targets, so that every seed yields trees of the
// same size and the spread between seeds measures the system, not the
// inputs: each version has the token count nearest fileTokens, and the base
// files sum to treeFiles*fileTokens as closely as single swaps allow.
func genRepo(seed uint64, vulnDensity float64, sc scale) repoTree {
	pool := langgen.Generate(genSpec(seed, 2*(sc.treeFiles+sc.versions), vulnDensity, sc)).Files
	toks := make([]int, len(pool))
	for i, f := range pool {
		toks[i] = len(lexer.Tokenize(f.Content, f.Language))
	}
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return absInt(toks[idx[a]]-sc.fileTokens) < absInt(toks[idx[b]]-sc.fileTokens)
	})
	var r repoTree
	for _, i := range idx[:sc.versions] {
		r.versions = append(r.versions, pool[i].Content)
	}
	in := append([]int(nil), idx[sc.versions:sc.versions+sc.treeFiles]...)
	out := append([]int(nil), idx[sc.versions+sc.treeFiles:]...)
	sum := 0
	for _, i := range in {
		sum += toks[i]
	}
	target := sc.treeFiles * sc.fileTokens
	for {
		best, bi, bo := absInt(sum-target), -1, -1
		for a := range in {
			for b := range out {
				if d := absInt(sum - toks[in[a]] + toks[out[b]] - target); d < best {
					best, bi, bo = d, a, b
				}
			}
		}
		if bi < 0 {
			break
		}
		sum += toks[out[bo]] - toks[in[bi]]
		in[bi], out[bo] = out[bo], in[bi]
	}
	sort.Ints(in) // pool order is path order
	for _, i := range in {
		r.base = append(r.base, api.File{Path: pool[i].Path, Content: pool[i].Content})
	}
	return r
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// tree returns version k of the repository under the given name.
func (r repoTree) tree(k int, name string) api.Tree {
	files := append([]api.File(nil), r.base...)
	files[0].Content = r.versions[k]
	return api.Tree{Name: name, Files: files}
}

// coldTree is a fresh tree for one score_cold request: its own generator
// seed, so no file content repeats across requests.
func coldTree(seed uint64, c, i int, sc scale) api.Tree {
	g := langgen.Generate(genSpec(subSeed(seed, 3, uint64(c), uint64(i)), sc.coldFiles, langgen.DefaultSpec().VulnDensity, sc))
	t := api.Tree{Name: fmt.Sprintf("cold-c%d-%d", c, i)}
	for _, f := range g.Files {
		t.Files = append(t.Files, api.File{Path: f.Path, Content: f.Content})
	}
	return t
}

// toMetricsTree converts a wire tree the way the daemon does for the
// benchmark's inputs (every path has a known extension and none repeats).
func toMetricsTree(t api.Tree) *metrics.Tree {
	out := &metrics.Tree{Name: t.Name}
	for _, f := range t.Files {
		out.Files = append(out.Files, metrics.File{Path: f.Path, Language: lang.FromPath(f.Path), Content: f.Content})
	}
	sort.Slice(out.Files, func(i, j int) bool { return out.Files[i].Path < out.Files[j].Path })
	return out
}

// repoKey names one seeded repository: the k-th of the vulnerable family
// the solo workloads send, or of the vulnerability-free family the fleet
// sends. The fleet's repositories are free of vulnerabilities so the runs
// their scores record never match the fleet query's cwe121 filter: the
// query then reads the same pre-seeded candidates all window long.
type repoKey struct {
	clean bool
	k     int
}

// genRepoKeyed generates the keyed repository of a seed.
func genRepoKeyed(key repoKey, seed uint64, sc scale) repoTree {
	if key.clean {
		return genRepo(subSeed(seed, 2, uint64(key.k)), 0, sc)
	}
	return genRepo(subSeed(seed, 1, uint64(key.k)), langgen.DefaultSpec().VulnDensity, sc)
}

// fixtures are the inputs of one run, all derived from the seed, plus the
// model every daemon serves and the reference answers checks compare to.
type fixtures struct {
	seed  uint64
	sc    scale
	blob  []byte      // the serving model, binary-encoded; daemons load it
	model *core.Model // decoded from blob; scores the references
	// repos holds the repositories the workloads to run send.
	repos map[repoKey]*seededRepo
}

// seededRepo is a repository with, for each version k, refs[k]: the
// canonical JSON of its report, with an empty Name.
type seededRepo struct {
	repoTree
	refs [][]byte
}

// newFixtures generates the repositories the given workloads send and
// their reference reports, computed in-process with the library pipeline
// (core extraction plus Model.Score). A private feature cache lets the
// versions share the base files' deep analysis; it is independent of every
// daemon's cache.
func newFixtures(seed uint64, sc scale, blob []byte, ws []*workload) (*fixtures, error) {
	fx := &fixtures{seed: seed, sc: sc, blob: blob, repos: map[repoKey]*seededRepo{}}
	var err error
	if fx.model, err = core.LoadModel(bytes.NewReader(blob)); err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	for _, w := range ws {
		for _, key := range w.repos {
			if fx.repos[key] != nil {
				continue
			}
			r := &seededRepo{repoTree: genRepoKeyed(key, seed, sc)}
			cache := featcache.NewMemory()
			for k := range r.versions {
				fv, err := core.ExtractFeaturesWith(context.Background(), toMetricsTree(r.tree(k, "")), core.ExtractConfig{Cache: cache})
				if err != nil {
					return nil, fmt.Errorf("reference of %+v version %d: %w", key, k, err)
				}
				ref, err := reportJSON(fx.model.Score("", fv), "")
				if err != nil {
					return nil, err
				}
				r.refs = append(r.refs, ref)
			}
			fx.repos[key] = r
		}
	}
	return fx, nil
}

// reportJSON is the canonical form answers are compared in: the report
// re-encoded with its subject name checked and blanked.
func reportJSON(rep *core.Report, wantName string) ([]byte, error) {
	if rep == nil {
		return nil, fmt.Errorf("no report")
	}
	if rep.Name != wantName {
		return nil, fmt.Errorf("report names %q, want %q", rep.Name, wantName)
	}
	r := *rep
	r.Name = ""
	return json.Marshal(&r)
}

// modelBlob fits the serving model with the given trees per hypothesis
// and encodes it in the binary format the daemons load at set-up.
func modelBlob(trees int) ([]byte, error) {
	d, err := syntheticDataset(bench.FitRows, len(metrics.FeatureNames), modelSeed+2)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), metrics.FeatureNames...)
	m := &core.Model{
		Config:      core.TrainConfig{Kind: core.KindForest},
		Transformer: core.DefaultTransformer(),
	}
	for i, h := range core.StandardHypotheses() {
		rf := &ml.RandomForest{Trees: trees, MaxDepth: bench.FitDepth, Seed: modelSeed + uint64(i), Jobs: 1}
		if err := rf.Fit(d); err != nil {
			return nil, fmt.Errorf("fit model: %w", err)
		}
		m.Hypotheses = append(m.Hypotheses, &core.HypothesisModel{
			Hypothesis: h,
			Kind:       core.KindForest,
			Classifier: rf,
			Features:   names,
			BaseRate:   0.5,
		})
	}
	var buf bytes.Buffer
	if err := m.SaveBinary(&buf); err != nil {
		return nil, fmt.Errorf("encode model: %w", err)
	}
	return buf.Bytes(), nil
}

// syntheticDataset draws a two-class dataset with class-shifted Gaussian
// columns, so tree splits have real signal to find.
func syntheticDataset(n, p int, seed uint64) (*ml.Dataset, error) {
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
	return ml.NewDataset(attrs, []string{"no", "yes"}, X, Y)
}

// median and iqr use the quartile definition of Python's
// statistics.quantiles(n=4), the one the benchmark's bounds are judged by.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// quantile interpolates the q-quantile of xs with the (n+1)q "exclusive"
// rank; ranks outside [1, n] clamp to the extremes.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := float64(len(s)+1) * q
	if h <= 1 {
		return s[0]
	}
	if h >= float64(len(s)) {
		return s[len(s)-1]
	}
	lo := int(h) - 1
	return s[lo] + (h-float64(int(h)))*(s[lo+1]-s[lo])
}
