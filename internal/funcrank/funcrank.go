// Package funcrank is the function-level risk-ranking engine: it answers
// "where do I look" where the rest of the pipeline answers "is this app
// risky". For every function in a tree it computes a feature vector from
// the artifacts the pipeline already produces — token-structural metrics
// and per-function Halstead/smell/API-call counts (metrics.ScanFunctions),
// CFG shape (cfgana), call-graph position (callgraph), interprocedural
// taint behavior (dataflow summaries), and synthetic process metrics
// (vcsgen) — then ranks LEOPARD-style: functions are binned by complexity,
// and within each bin ordered by vulnerability metrics, so a moderately
// complex function dense with sink reaches surfaces ahead of a merely
// gigantic one.
//
// The engine inherits the pipeline's two contracts:
//
//   - Determinism: the ranking is byte-identical at any worker-pool width.
//     Per-file results land in index-addressed slots, every map is folded
//     in sorted order, and all tie-breaks end at the qualified function
//     name.
//
//   - Per-function degradation: a panic inside one function's deep
//     analysis (CFG + summary attachment) degrades that function to base
//     metrics; a panic in a file's whole-program stage (parse, lowering,
//     taint) degrades that file's functions. Degraded functions stay in
//     the ranking, flagged, with their token-level features intact.
package funcrank

import (
	"context"
	"math"
	"sort"

	"repro/internal/callgraph"
	"repro/internal/cfgana"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/trace"
	"repro/internal/vcsgen"
)

// Config tunes one ranking run.
type Config struct {
	// Jobs bounds the per-file extraction pool; <= 0 uses every core. The
	// ranking bytes never depend on it.
	Jobs int
	// Top trims the ranking to its first N entries; <= 0 keeps every
	// function.
	Top int
	// VCS, when non-nil, joins synthetic per-function process metrics
	// (churn, authors, commit frequency) into the vulnerability score. Nil
	// leaves the process-metric features zero.
	VCS *vcsgen.Generator
}

// FuncFeatures is one function's feature vector. The token-level block is
// always populated; the CFG/call-graph/taint blocks stay zero for files
// that do not parse as MiniC and for degraded functions.
type FuncFeatures struct {
	// Token-structural base (always present).
	Cyclomatic     int     `json:"cyclomatic"`
	MaxNesting     int     `json:"max_nesting"`
	Params         int     `json:"params"`
	LengthTokens   int     `json:"length_tokens"`
	Lines          int     `json:"lines"`
	HalsteadVolume float64 `json:"halstead_volume"`
	UnsafeCalls    int     `json:"unsafe_calls"`
	FormatCalls    int     `json:"format_calls"`
	ProcessCalls   int     `json:"process_calls"`
	InputCalls     int     `json:"input_calls"`
	MagicNumbers   int     `json:"magic_numbers"`

	// Call-graph position and CFG shape (deep analysis).
	FanIn         int  `json:"fan_in"`
	FanOut        int  `json:"fan_out"`
	CallSites     int  `json:"call_sites"`
	SCCSize       int  `json:"scc_size"`
	Recursive     bool `json:"recursive"`
	Blocks        int  `json:"blocks"`
	Edges         int  `json:"edges"`
	Loops         int  `json:"loops"`
	MaxLoopDepth  int  `json:"max_loop_depth"`
	CyclomaticCFG int  `json:"cyclomatic_cfg"`

	// Interprocedural taint behavior (deep analysis).
	SinkReach     int  `json:"sink_reach"`
	TaintDepthMax int  `json:"taint_depth_max"`
	TaintedParams int  `json:"tainted_params"`
	ReturnTainted bool `json:"return_tainted"`

	// Synthetic process metrics (vcsgen; zero without Config.VCS).
	Churn           int     `json:"churn"`
	Authors         int     `json:"authors"`
	Commits         int     `json:"commits"`
	CommitsPerMonth float64 `json:"commits_per_month"`
}

// RankedFunction is one entry of the ranking.
type RankedFunction struct {
	Rank      int    `json:"rank"`
	Name      string `json:"name"`
	File      string `json:"file"`
	Line      int    `json:"line"`
	Qualified string `json:"qualified"`
	// Bin is the LEOPARD complexity bin (log2 buckets; higher = more
	// complex).
	Bin             int     `json:"bin"`
	ComplexityScore float64 `json:"complexity_score"`
	VulnScore       float64 `json:"vuln_score"`
	// Degraded marks a function whose deep analysis panicked; only its
	// token-level features are populated.
	Degraded bool         `json:"degraded,omitempty"`
	Features FuncFeatures `json:"features"`
	// Drivers lists the features contributing most to the vulnerability
	// score, largest contribution first.
	Drivers []string `json:"drivers,omitempty"`
}

// Ranking is the full result.
type Ranking struct {
	Tree string `json:"tree"`
	// Functions counts every function found, before Top trimming.
	Functions int              `json:"functions"`
	Bins      int              `json:"bins"`
	Ranked    []RankedFunction `json:"ranked"`
}

// deepTestHook, when non-nil, runs inside every function's per-function
// containment boundary. Tests use it to inject panics into one function's
// deep analysis; production code never sets it.
var deepTestHook func(file, fn string)

// candidate is one function mid-pipeline.
type candidate struct {
	scan     metrics.FunctionScan
	deep     deepFacts
	hasDeep  bool
	degraded bool
}

// deepFacts is the per-function outcome of a file's deep analysis.
type deepFacts struct {
	fanIn, fanOut, callSites int
	sccSize                  int
	recursive                bool
	flow                     cfgana.FlowFacts
	summary                  dataflow.Summary
	hasSummary               bool
	degraded                 bool
}

// Rank computes the function ranking of a tree. The tree's files must be
// path-sorted (metrics.LoadTree and the server's tree decoder both
// guarantee it); the ranking bytes are then independent of cfg.Jobs.
func Rank(ctx context.Context, tree *metrics.Tree, cfg Config) (*Ranking, error) {
	rk := trace.SpanFromContext(ctx).Child("rank")
	defer rk.End()

	perFile := make([][]candidate, len(tree.Files))
	err := ml.ParallelForCtx(ctx, len(tree.Files), cfg.Jobs, func(i int) error {
		fs := rk.ChildAt(i, trace.SpanNameFile)
		fs.SetLabel(tree.Files[i].Path)
		perFile[i] = analyzeFile(tree.Files[i])
		fs.End()
		return nil
	})
	if err != nil {
		return nil, err
	}

	var cands []candidate
	for _, fns := range perFile {
		cands = append(cands, fns...)
	}
	rk.Add("functions", int64(len(cands)))

	ranked := make([]RankedFunction, len(cands))
	for i, c := range cands {
		ranked[i] = build(c, cfg.VCS)
	}
	order(ranked)
	out := &Ranking{Tree: tree.Name, Functions: len(ranked)}
	for _, r := range ranked {
		if r.Bin+1 > out.Bins {
			out.Bins = r.Bin + 1
		}
	}
	if cfg.Top > 0 && len(ranked) > cfg.Top {
		ranked = ranked[:cfg.Top]
	}
	out.Ranked = ranked
	return out, nil
}

// analyzeFile extracts every function of one file: token-level scans for
// all of them, deep facts where the file parses as MiniC.
func analyzeFile(f metrics.File) []candidate {
	scans := metrics.ScanFunctions(f)
	if len(scans) == 0 {
		return nil
	}
	deep, fileDegraded := deepFile(f)
	return joinDeep(scans, deep, fileDegraded)
}

// joinDeep attaches per-function deep facts to the token-level scans. The
// join is by function name (the IR carries no positions), so a name the
// token scanner saw more than once in this file is ambiguous — those
// functions keep base metrics only rather than all inheriting one
// definition's deep facts.
func joinDeep(scans []metrics.FunctionScan, deep map[string]deepFacts, fileDegraded bool) []candidate {
	names := make(map[string]int, len(scans))
	for _, sc := range scans {
		names[sc.Name]++
	}
	out := make([]candidate, len(scans))
	for i, sc := range scans {
		c := candidate{scan: sc, degraded: fileDegraded}
		if df, ok := deep[sc.Name]; ok && names[sc.Name] == 1 {
			if df.degraded {
				c.degraded = true
			} else {
				c.deep = df
				c.hasDeep = true
			}
		}
		out[i] = c
	}
	return out
}

// deepFile runs the whole-program stages over one file (each file is one
// MiniC translation unit) and distributes the results per function. The
// outer recover contains a panic in parse/lowering/call-graph/taint — the
// whole file degrades; the inner recover contains a panic in one
// function's CFG analysis or summary attachment — only that function
// degrades. A file that simply does not parse as MiniC returns an empty
// map and no degradation: base metrics are the expected coverage there,
// matching the pipeline's parse-skip semantics.
func deepFile(f metrics.File) (facts map[string]deepFacts, fileDegraded bool) {
	if f.Language != lang.MiniC && f.Language != lang.C {
		return nil, false
	}
	defer func() {
		if r := recover(); r != nil {
			facts = nil
			fileDegraded = true
		}
	}()
	_, lowered, err := ir.Parse(f.Content)
	if err != nil {
		return nil, false
	}
	cg := callgraph.Build(lowered)
	sccSize := map[string]int{}
	inCycle := map[string]bool{}
	for _, comp := range cg.SCCs() {
		for _, fn := range comp {
			sccSize[fn] = len(comp)
			if len(comp) > 1 {
				inCycle[fn] = true
			}
		}
	}
	taint := dataflow.AnalyzeProgramTaint(lowered)
	dup := make(map[string]int, len(lowered.Funcs))
	for _, fn := range lowered.Funcs {
		dup[fn.Name]++
	}
	facts = make(map[string]deepFacts, len(lowered.Funcs))
	for _, fn := range lowered.Funcs {
		// A redefined name is ambiguous at join time (the map would keep
		// whichever definition lowered last); leave it out so the caller
		// falls back to base metrics instead of misattributed facts.
		if dup[fn.Name] > 1 {
			continue
		}
		facts[fn.Name] = deepFunc(f.Path, fn, cg, sccSize, inCycle, taint)
	}
	return facts, false
}

// deepFunc assembles one function's deep facts inside the per-function
// containment boundary.
func deepFunc(path string, fn *ir.Func, cg *callgraph.Graph, sccSize map[string]int, inCycle map[string]bool, taint *dataflow.InterResult) (df deepFacts) {
	defer func() {
		if r := recover(); r != nil {
			df = deepFacts{degraded: true}
		}
	}()
	if deepTestHook != nil {
		deepTestHook(path, fn.Name)
	}
	df.flow = cfgana.Analyze(fn)
	df.fanIn = cg.FanIn(fn.Name)
	df.fanOut = cg.FanOut(fn.Name)
	df.callSites = cg.CallSites[fn.Name]
	df.sccSize = sccSize[fn.Name]
	df.recursive = inCycle[fn.Name]
	for _, callee := range cg.Callees[fn.Name] {
		if callee == fn.Name {
			df.recursive = true
		}
	}
	if s, ok := taint.Summaries[fn.Name]; ok {
		df.summary = s
		df.hasSummary = true
	}
	return df
}

// build turns a candidate into its ranked form: features, scores, bin,
// drivers.
func build(c candidate, vcs *vcsgen.Generator) RankedFunction {
	sc := c.scan
	ft := FuncFeatures{
		Cyclomatic:     sc.Cyclomatic,
		MaxNesting:     sc.MaxNesting,
		Params:         sc.Params,
		LengthTokens:   sc.Length,
		Lines:          sc.Lines,
		HalsteadVolume: sc.Halstead.Volume,
		UnsafeCalls:    sc.UnsafeCalls,
		FormatCalls:    sc.FormatCalls,
		ProcessCalls:   sc.ProcessCalls,
		InputCalls:     sc.InputCalls,
		MagicNumbers:   sc.MagicNumbers,
	}
	if c.hasDeep {
		d := c.deep
		ft.FanIn, ft.FanOut, ft.CallSites = d.fanIn, d.fanOut, d.callSites
		ft.SCCSize, ft.Recursive = d.sccSize, d.recursive
		ft.Blocks, ft.Edges = d.flow.Blocks, d.flow.Edges
		ft.Loops, ft.MaxLoopDepth = d.flow.Loops, d.flow.MaxLoopDepth
		ft.CyclomaticCFG = d.flow.CyclomaticCFG
		if d.hasSummary {
			ft.SinkReach, ft.TaintDepthMax, ft.TaintedParams, ft.ReturnTainted = summarize(d.summary)
		}
	}
	qualified := sc.File + ":" + sc.Name
	if vcs != nil {
		h := vcs.ForFunction(qualified, ft.Lines)
		ft.Churn, ft.Authors, ft.Commits = h.Churn, h.Authors, h.Commits
		ft.CommitsPerMonth = h.CommitsPerMonth()
	}
	r := RankedFunction{
		Name:      sc.Name,
		File:      sc.File,
		Line:      sc.Line,
		Qualified: qualified,
		Degraded:  c.degraded,
		Features:  ft,
	}
	r.ComplexityScore = complexityScore(ft)
	r.Bin = bin(r.ComplexityScore)
	r.VulnScore, r.Drivers = vulnScore(ft)
	return r
}

// summarize flattens a taint summary into the four scalar features:
// distinct (sink, line) reaches, the deepest reach, the number of
// parameters whose taint fires a sink, and whether the return value
// carries taint.
func summarize(s dataflow.Summary) (reach, depthMax, taintedParams int, returnTainted bool) {
	type key struct {
		sink string
		line int
	}
	seen := map[key]bool{}
	note := func(srs []dataflow.SinkReach) {
		for _, sr := range srs {
			seen[key{sr.Sink, sr.Line}] = true
			if sr.Depth > depthMax {
				depthMax = sr.Depth
			}
		}
	}
	note(s.LocalSinks)
	for _, srs := range s.ParamSinks {
		note(srs)
	}
	for _, srs := range s.ParamSinks {
		if len(srs) > 0 {
			taintedParams++
		}
	}
	reach = len(seen)
	returnTainted = s.ReturnAlways || len(s.ReturnFromParams) > 0
	return reach, depthMax, taintedParams, returnTainted
}

// complexityScore is the LEOPARD binning key: the C-family complexity
// metrics folded into one number. The CFG cyclomatic number is preferred
// over the token-level one when deep analysis ran (it is exact); nesting,
// loop structure, parameters, and body size enter with small weights so
// two functions of equal branching still separate by shape.
func complexityScore(ft FuncFeatures) float64 {
	cyclo := ft.Cyclomatic
	if ft.CyclomaticCFG > cyclo {
		cyclo = ft.CyclomaticCFG
	}
	return float64(cyclo) +
		float64(ft.MaxNesting) +
		float64(ft.Loops) +
		float64(ft.MaxLoopDepth) +
		0.25*float64(ft.Params) +
		0.02*float64(ft.Lines)
}

// bin maps a complexity score to its LEOPARD bin: log2 buckets, so bin
// boundaries grow geometrically (1-2, 2-4, 4-8, ...) and a handful of bins
// covers any real spread. Higher bin = more complex.
func bin(score float64) int {
	if score < 1 {
		return 0
	}
	return int(math.Log2(score + 1))
}

// Vulnerability-score weights. Direct interprocedural evidence (sink
// reaches, taint) dominates; token-level API counts cover unparsed files;
// call-graph position and process metrics are mild multipliers, per the
// LEOPARD/Viszkok weighting ordering.
const (
	wSinkReach  = 4.0
	wTaintDepth = 2.0
	wTaintedPar = 2.0
	wReturnTnt  = 1.0
	wRiskyCall  = 1.5 // unsafe + format + process call sites
	wInputCall  = 1.0
	wFanIn      = 0.5
	wFanOut     = 0.25
	wHalstead   = 0.02 // per sqrt(volume): size-ish, heavily damped
	wChurn      = 0.01
	wAuthors    = 0.3
	wCommitFreq = 0.2
)

// vulnScore folds the vulnerability metrics into the within-bin ranking
// key and returns the driving features: every positive contribution,
// largest first (ties by feature name), formatted "name=value".
func vulnScore(ft FuncFeatures) (float64, []string) {
	type contrib struct {
		name  string
		value string
		score float64
	}
	itoa := func(n int) string { return fmtInt(n) }
	var cs []contrib
	add := func(name, value string, score float64) {
		if score > 0 {
			cs = append(cs, contrib{name, value, score})
		}
	}
	add("sink_reach", itoa(ft.SinkReach), wSinkReach*float64(ft.SinkReach))
	add("taint_depth_max", itoa(ft.TaintDepthMax), wTaintDepth*float64(ft.TaintDepthMax))
	add("tainted_params", itoa(ft.TaintedParams), wTaintedPar*float64(ft.TaintedParams))
	if ft.ReturnTainted {
		add("return_tainted", "true", wReturnTnt)
	}
	risky := ft.UnsafeCalls + ft.FormatCalls + ft.ProcessCalls
	add("risky_calls", itoa(risky), wRiskyCall*float64(risky))
	add("input_calls", itoa(ft.InputCalls), wInputCall*float64(ft.InputCalls))
	add("fan_in", itoa(ft.FanIn), wFanIn*float64(ft.FanIn))
	add("fan_out", itoa(ft.FanOut), wFanOut*float64(ft.FanOut))
	add("halstead_volume", fmtFloat(ft.HalsteadVolume), wHalstead*math.Sqrt(ft.HalsteadVolume))
	add("churn", itoa(ft.Churn), wChurn*float64(ft.Churn))
	add("authors", itoa(ft.Authors), wAuthors*float64(ft.Authors))
	add("commits_per_month", fmtFloat(ft.CommitsPerMonth), wCommitFreq*ft.CommitsPerMonth)
	total := 0.0
	for _, c := range cs {
		total += c.score
	}
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].score != cs[j].score {
			return cs[i].score > cs[j].score
		}
		return cs[i].name < cs[j].name
	})
	const maxDrivers = 4
	var drivers []string
	for i, c := range cs {
		if i == maxDrivers {
			break
		}
		drivers = append(drivers, c.name+"="+c.value)
	}
	return total, drivers
}

// order arranges the functions LEOPARD-style and assigns ranks: bins from
// most to least complex; emission proceeds in rounds, each round taking
// the next-best function (by vulnerability score) from every bin in bin
// order. All ties break on the qualified name, then the line, so the
// ranking is a total deterministic order.
func order(ranked []RankedFunction) {
	sort.SliceStable(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if a.Bin != b.Bin {
			return a.Bin > b.Bin
		}
		if a.VulnScore != b.VulnScore {
			return a.VulnScore > b.VulnScore
		}
		if a.ComplexityScore != b.ComplexityScore {
			return a.ComplexityScore > b.ComplexityScore
		}
		if a.Qualified != b.Qualified {
			return a.Qualified < b.Qualified
		}
		return a.Line < b.Line
	})
	// The slice is now grouped by bin (desc), best-first within each bin.
	// Interleave: round r takes the r-th entry of every bin group.
	starts := []int{0}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Bin != ranked[i-1].Bin {
			starts = append(starts, i)
		}
	}
	starts = append(starts, len(ranked))
	out := make([]RankedFunction, 0, len(ranked))
	for round := 0; len(out) < len(ranked); round++ {
		for g := 0; g+1 < len(starts); g++ {
			idx := starts[g] + round
			if idx < starts[g+1] {
				out = append(out, ranked[idx])
			}
		}
	}
	copy(ranked, out)
	for i := range ranked {
		ranked[i].Rank = i + 1
	}
}
