// Command secmetric is the developer-facing tool of §5.3: analyze a source
// tree, score it against a trained model, and compare two versions.
//
// Usage:
//
//	secmetric analyze  [-diag] [-json] [-trace f] [-slowest N] [-history db] <dir>  print the code-property vector
//	secmetric score    [-model m.json] [-json] <dir>  print the security report
//	secmetric compare  [-model m.json] [-incremental] <old> <new>  print the risk delta
//	secmetric focus    [-model m.json] [-budget N] <dir>  apportion deep analysis
//	secmetric rank     [-top N] [-json] [-explain] <dir>  rank functions by risk
//	secmetric findings [-min sev] [-json] [-history db] <dir>   print the CWE-tagged findings
//	secmetric query    [-db db] [-explain] [-full-scan] [-json] "<expr>"  query the findings history
//	secmetric image    [-model m.json] <manifest.json>  whole-image evaluation
//
// Every analyzing subcommand accepts -jobs N (worker-pool bound), -cache dir
// (incremental feature cache), and -file-timeout d (per-file deep-analysis
// deadline; files that exceed it degrade to base metrics). Interrupting the
// process (Ctrl-C) cancels the analysis pool cleanly.
//
// With -history db, findings and analyze append the run's CWE-tagged
// findings to the embedded time-series database at that path; `secmetric
// query` searches it with the internal/store query language, e.g.
//
//	secmetric query -db findings.db "cwe121 > 0 AND severity >= high ORDER BY score DESC LIMIT 20"
//
// Without -model, a model is trained on the built-in corpus first (slower,
// but zero-setup).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	secmetric "repro"
	"repro/internal/metrics"
	"repro/internal/store/findex"
	"repro/internal/system"
	"repro/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "secmetric:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return usage()
	}
	switch args[0] {
	case "analyze":
		return cmdAnalyze(ctx, args[1:])
	case "score":
		return cmdScore(ctx, args[1:])
	case "compare":
		return cmdCompare(ctx, args[1:])
	case "focus":
		return cmdFocus(args[1:])
	case "rank":
		return cmdRank(ctx, args[1:])
	case "findings":
		return cmdFindings(args[1:])
	case "query":
		return cmdQuery(args[1:])
	case "image":
		return cmdImage(ctx, args[1:])
	default:
		return usage()
	}
}

func usage() error {
	return fmt.Errorf("usage: secmetric {analyze [-diag] [-json] [-trace f] [-slowest N] [-history db] <dir> | score [-model m.json] [-json] <dir> | compare [-model m.json] [-incremental] <old> <new> | focus [-model m.json] [-budget N] <dir> | rank [-top N] [-json] [-explain] [-vcs-seed N] <dir> | findings [-min sev] [-json] [-history db] <dir> | query [-db db] [-explain] [-full-scan] [-json] \"<expr>\" | image [-model m.json] <manifest.json>} [-jobs N] [-cache dir] [-file-timeout d]")
}

// analyzeOpts registers the shared extraction flags (-jobs, -cache,
// -file-timeout) on a subcommand's flag set and returns the config they
// populate.
func analyzeOpts(fs *flag.FlagSet) *secmetric.AnalyzeConfig {
	cfg := &secmetric.AnalyzeConfig{}
	fs.IntVar(&cfg.Jobs, "jobs", 0, "deep-analysis worker pool size (0 = all cores)")
	fs.StringVar(&cfg.CacheDir, "cache", "", "persistent feature-cache directory (analyses skip unchanged files)")
	fs.DurationVar(&cfg.FileTimeout, "file-timeout", 0, "per-file deep-analysis deadline (0 = unbounded); files that exceed it degrade to base metrics")
	return cfg
}

func cmdRank(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("rank", flag.ContinueOnError)
	top := fs.Int("top", 10, "number of functions to list (0 = all)")
	asJSON := fs.Bool("json", false, "emit the ranking as JSON (for CI integration)")
	explain := fs.Bool("explain", false, "list the features driving each function's vulnerability score")
	jobs := fs.Int("jobs", 0, "per-file analysis worker pool size (0 = all cores)")
	vcsSeed := fs.Uint64("vcs-seed", 0, "seed for synthetic VCS process metrics (0 = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("rank needs exactly one directory")
	}
	cfg := secmetric.RankConfig{Jobs: *jobs, Top: *top}
	if *vcsSeed != 0 {
		cfg.VCS = secmetric.NewVCSGenerator(*vcsSeed)
	}
	ranking, err := secmetric.RankDir(ctx, fs.Arg(0), cfg)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(ranking)
	}
	fmt.Print(ranking.Format(*explain))
	return nil
}

// recordHistory appends one run to the findings history at dbPath. The
// full (unfiltered) report is recorded even when the printout is filtered,
// so the history stays complete.
func recordHistory(dbPath, repo, source string, rep *secmetric.FindingsReport) error {
	s, err := findex.Open(dbPath)
	if err != nil {
		return err
	}
	seq, err := s.Append(findex.NewRun(repo, source, rep))
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("record history: %w", err)
	}
	fmt.Fprintf(os.Stderr, "recorded run %s/%d in %s\n", repo, seq, dbPath)
	return nil
}

func cmdFindings(args []string) error {
	fs := flag.NewFlagSet("findings", flag.ContinueOnError)
	minSev := fs.String("min", "info", "lowest severity to report (info|low|medium|high|critical)")
	asJSON := fs.Bool("json", false, "emit the findings as JSON (for CI integration)")
	history := fs.String("history", "", "append this run to the findings-history database at `path`")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("findings needs exactly one directory")
	}
	sev, err := secmetric.ParseSeverity(*minSev)
	if err != nil {
		return err
	}
	rep, err := secmetric.CollectFindingsDir(fs.Arg(0))
	if err != nil {
		return err
	}
	if *history != "" {
		if err := recordHistory(*history, fs.Arg(0), "findings", rep); err != nil {
			return err
		}
	}
	rep = rep.MinSeverity(sev)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	if rep.Total() == 0 {
		fmt.Printf("no findings at or above severity %s in %s\n", sev, fs.Arg(0))
		return nil
	}
	fmt.Print(rep)
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	dbPath := fs.String("db", "findings.db", "findings-history database to search")
	explain := fs.Bool("explain", false, "print the planner's access-path decision before the results")
	fullScan := fs.Bool("full-scan", false, "disable the index planner and filter every run (parity check)")
	asJSON := fs.Bool("json", false, "emit the matching runs as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return fmt.Errorf("query takes one quoted expression (or none for all runs)")
	}
	src := ""
	if fs.NArg() == 1 {
		src = fs.Arg(0)
	}
	s, err := findex.Open(*dbPath)
	if err != nil {
		return err
	}
	defer s.Close()
	runs, ex, err := s.QueryString(src, findex.Options{ForceFullScan: *fullScan})
	if err != nil {
		return err
	}
	if *explain {
		fmt.Fprintln(os.Stderr, ex)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(runs)
	}
	if len(runs) == 0 {
		fmt.Printf("no runs match %q in %s\n", src, *dbPath)
		return nil
	}
	fmt.Printf("%-24s %5s  %-20s %-8s  %8s %6s  %s\n", "REPO", "SEQ", "TIME", "SOURCE", "SEVERITY", "TOTAL", "SCORE")
	for _, r := range runs {
		score := "-"
		if r.HasScore {
			score = fmt.Sprintf("%.3f", r.Score)
		}
		sev := "-"
		if r.Total > 0 {
			sev = r.MaxSeverity.String()
		}
		fmt.Printf("%-24s %5d  %-20s %-8s  %8s %6d  %s\n",
			r.Repo, r.Seq, time.Unix(r.Time, 0).UTC().Format("2006-01-02T15:04:05Z"),
			r.Source, sev, r.Total, score)
	}
	return nil
}

// imageManifest is the JSON deployment descriptor for whole-image
// evaluation.
type imageManifest struct {
	Name       string `json:"name"`
	Components []struct {
		Name       string   `json:"name"`
		Dir        string   `json:"dir"`
		Exposure   string   `json:"exposure"` // internet | internal | local
		Privileged bool     `json:"privileged"`
		DependsOn  []string `json:"depends_on"`
	} `json:"components"`
}

func cmdImage(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("image", flag.ContinueOnError)
	modelPath := fs.String("model", "", "trained model file (from trainctl)")
	acfg := analyzeOpts(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("image needs exactly one manifest file")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var man imageManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	if len(man.Components) == 0 {
		return fmt.Errorf("manifest has no components")
	}
	model, err := loadOrTrain(*modelPath)
	if err != nil {
		return err
	}
	img := &secmetric.SystemImage{Name: man.Name}
	for _, c := range man.Components {
		fv, err := secmetric.AnalyzeDirWith(ctx, c.Dir, *acfg)
		if err != nil {
			return fmt.Errorf("component %s: %w", c.Name, err)
		}
		exposure, err := parseExposure(c.Exposure)
		if err != nil {
			return fmt.Errorf("component %s: %w", c.Name, err)
		}
		img.Components = append(img.Components, secmetric.SystemComponent{
			Name:       c.Name,
			Report:     model.Score(c.Name, fv),
			Exposure:   exposure,
			Privileged: c.Privileged,
			DependsOn:  c.DependsOn,
		})
	}
	ev, err := secmetric.EvaluateImage(img)
	if err != nil {
		return err
	}
	fmt.Print(ev)
	return nil
}

func parseExposure(s string) (system.Exposure, error) {
	switch s {
	case "internet", "":
		return secmetric.ExposureInternet, nil
	case "internal":
		return secmetric.ExposureInternal, nil
	case "local":
		return secmetric.ExposureLocal, nil
	default:
		return 0, fmt.Errorf("unknown exposure %q", s)
	}
}

func cmdFocus(args []string) error {
	fs := flag.NewFlagSet("focus", flag.ContinueOnError)
	modelPath := fs.String("model", "", "trained model file (from trainctl)")
	budget := fs.Int("budget", 100, "deep-analysis budget units to apportion")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("focus needs exactly one directory")
	}
	tree, err := metrics.LoadTree(fs.Arg(0))
	if err != nil {
		return err
	}
	model, err := loadOrTrain(*modelPath)
	if err != nil {
		return err
	}
	plan, err := model.FocusFiles(tree, *budget)
	if err != nil {
		return err
	}
	fmt.Print(plan)
	return nil
}

func cmdAnalyze(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	diag := fs.Bool("diag", false, "print per-file analysis diagnostics after the vector")
	asJSON := fs.Bool("json", false, "emit the vector (and -diag diagnostics) as JSON")
	traceOut := fs.String("trace", "", "write a Chrome trace_event profile of the run to this file (open in Perfetto / chrome://tracing)")
	slowest := fs.Int("slowest", 0, "print the N slowest files with a per-phase time breakdown")
	history := fs.String("history", "", "append this run's CWE-tagged findings to the findings-history database at `path`")
	acfg := analyzeOpts(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("analyze needs exactly one directory")
	}

	// The tracer only exists when some output needs it; otherwise the
	// context carries no span and the pipeline takes its nil fast path.
	var tr *trace.Tracer
	if *traceOut != "" || *slowest > 0 {
		tr = trace.New("analyze")
		ctx = trace.ContextWithSpan(ctx, tr.Root())
	}
	fv, d, err := secmetric.AnalyzeDirWithDiagnostics(ctx, fs.Arg(0), *acfg)
	tr.Finish()
	if err != nil {
		return err
	}
	if *history != "" {
		rep, err := secmetric.CollectFindingsDir(fs.Arg(0))
		if err != nil {
			return err
		}
		if err := recordHistory(*history, fs.Arg(0), "analyze", rep); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			return ferr
		}
		if ferr := tr.WriteTraceEvents(f); ferr != nil {
			f.Close()
			return ferr
		}
		if ferr := f.Close(); ferr != nil {
			return ferr
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (load it in Perfetto or chrome://tracing)\n", *traceOut)
	}

	if *asJSON {
		out := struct {
			Features    secmetric.FeatureVector        `json:"features"`
			Diagnostics *secmetric.AnalysisDiagnostics `json:"diagnostics,omitempty"`
		}{Features: fv}
		if *diag {
			out.Diagnostics = d
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		names := append([]string(nil), metrics.FeatureNames...)
		sort.Strings(names)
		fmt.Printf("Code properties of %s:\n", fs.Arg(0))
		for _, n := range names {
			fmt.Printf("  %-22s %12.3f\n", n, fv[n])
		}
		if *diag {
			fmt.Print(d)
		}
	}
	if *slowest > 0 {
		fmt.Print(trace.RenderSlowest(tr.SlowestFiles(*slowest)))
	}
	return nil
}

// loadOrTrain loads a model file, or trains the default model when path is
// empty.
func loadOrTrain(path string) (*secmetric.Model, error) {
	if path != "" {
		return secmetric.LoadModel(path)
	}
	fmt.Fprintln(os.Stderr, "no -model given; training the default model on the built-in corpus...")
	c, err := secmetric.DefaultCorpus()
	if err != nil {
		return nil, err
	}
	return secmetric.TrainDefault(c)
}

func cmdScore(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("score", flag.ContinueOnError)
	modelPath := fs.String("model", "", "trained model file (from trainctl)")
	asJSON := fs.Bool("json", false, "emit the report as JSON (for CI integration)")
	acfg := analyzeOpts(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("score needs exactly one directory")
	}
	fv, err := secmetric.AnalyzeDirWith(ctx, fs.Arg(0), *acfg)
	if err != nil {
		return err
	}
	model, err := loadOrTrain(*modelPath)
	if err != nil {
		return err
	}
	rep := model.Score(fs.Arg(0), fv)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Print(rep)
	return nil
}

func cmdCompare(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	modelPath := fs.String("model", "", "trained model file (from trainctl)")
	incremental := fs.Bool("incremental", false, "analyze old fully, then apply the old→new diff as a changeset instead of re-analyzing new from scratch")
	acfg := analyzeOpts(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare needs exactly two directories")
	}
	var oldFV, newFV secmetric.FeatureVector
	var err error
	if *incremental {
		oldFV, newFV, err = compareIncremental(ctx, fs.Arg(0), fs.Arg(1), *acfg)
	} else {
		// With -cache, the two versions share one cache, so only the files
		// that changed between them are deep-analyzed twice.
		oldFV, err = secmetric.AnalyzeDirWith(ctx, fs.Arg(0), *acfg)
		if err == nil {
			newFV, err = secmetric.AnalyzeDirWith(ctx, fs.Arg(1), *acfg)
		}
	}
	if err != nil {
		return err
	}
	model, err := loadOrTrain(*modelPath)
	if err != nil {
		return err
	}
	fmt.Print(model.Compare(fs.Arg(0), oldFV, fs.Arg(1), newFV))
	return nil
}

// compareIncremental seeds a session with the old tree, then applies the
// old→new diff as one changeset, so only the files the change touched are
// re-analyzed. The session's parity contract makes both vectors — and
// therefore the printed comparison — byte-identical to the batch path's.
func compareIncremental(ctx context.Context, oldDir, newDir string, acfg secmetric.AnalyzeConfig) (oldFV, newFV secmetric.FeatureVector, err error) {
	oldTree, err := metrics.LoadTree(oldDir)
	if err != nil {
		return nil, nil, err
	}
	newTree, err := metrics.LoadTree(newDir)
	if err != nil {
		return nil, nil, err
	}
	if len(oldTree.Files) == 0 {
		return nil, nil, fmt.Errorf("no source files under %s", oldDir)
	}
	if len(newTree.Files) == 0 {
		return nil, nil, fmt.Errorf("no source files under %s", newDir)
	}
	sess, err := secmetric.NewSession(oldDir, acfg)
	if err != nil {
		return nil, nil, err
	}
	seed, err := sess.Apply(ctx, secmetric.SessionChangeset{Added: oldTree.Files})
	if err != nil {
		return nil, nil, err
	}
	cs := diffTrees(oldTree, newTree)
	if cs.Empty() {
		return seed.Features, seed.Features, nil
	}
	res, err := sess.Apply(ctx, cs)
	if err != nil {
		return nil, nil, err
	}
	return seed.Features, res.Features, nil
}

// diffTrees computes the changeset that edits old into new: paths only in
// new are additions, paths only in old are removals, and shared paths with
// different content are modifications.
func diffTrees(oldTree, newTree *metrics.Tree) secmetric.SessionChangeset {
	var cs secmetric.SessionChangeset
	prev := make(map[string]metrics.File, len(oldTree.Files))
	for _, f := range oldTree.Files {
		prev[f.Path] = f
	}
	next := make(map[string]bool, len(newTree.Files))
	for _, f := range newTree.Files {
		next[f.Path] = true
		if old, ok := prev[f.Path]; !ok {
			cs.Added = append(cs.Added, f)
		} else if old.Content != f.Content || old.Language != f.Language {
			cs.Modified = append(cs.Modified, f)
		}
	}
	for _, f := range oldTree.Files {
		if !next[f.Path] {
			cs.Removed = append(cs.Removed, f.Path)
		}
	}
	return cs
}
