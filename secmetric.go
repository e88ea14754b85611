// Package secmetric is the public facade of the clairvoyant
// security-evaluation library, a reproduction of Jain, Tsai, and Porter,
// "A Clairvoyant Approach to Evaluating Software (In)Security" (HotOS '17).
//
// The workflow mirrors the paper's Figure 4:
//
//	corpus, _ := secmetric.DefaultCorpus()          // CVE ground truth
//	model, _ := secmetric.TrainDefault(corpus)      // offline training, 10-fold CV
//	features, _ := secmetric.AnalyzeDir("./mycode") // the automated testbed
//	report := model.Score("mycode", features)       // hypothesis predictions
//	fmt.Println(report)
//
// and the CI-gate comparison of §5.3:
//
//	cmp := model.Compare("v1", oldFeatures, "v2", newFeatures)
//	fmt.Println(cmp.Verdict())
package secmetric

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/featcache"
	"repro/internal/findings"
	"repro/internal/funcrank"
	"repro/internal/metrics"
	"repro/internal/store/findex"
	"repro/internal/system"
	"repro/internal/system/durable"
	"repro/internal/trace"
	"repro/internal/vcsgen"
)

// Re-exported types: the facade's vocabulary.
type (
	// Model is a trained prediction model (one classifier per hypothesis
	// plus a vulnerability-count regressor).
	Model = core.Model
	// Report is the security evaluation of one codebase.
	Report = core.Report
	// Comparison is the risk delta between two versions of a codebase.
	Comparison = core.Comparison
	// FeatureVector is a named code-property vector.
	FeatureVector = metrics.FeatureVector
	// Corpus is the CVE training corpus.
	Corpus = corpus.Corpus
	// TrainConfig selects the classifier family, fold count, and feature
	// selection for training.
	TrainConfig = core.TrainConfig
	// Tree is an in-memory source tree.
	Tree = metrics.Tree
	// AnalysisDiagnostics is the per-file account of an analysis run:
	// which files completed, which were skipped, timed out, or had a
	// panicking deep analysis contained, plus feature-cache traffic.
	AnalysisDiagnostics = core.AnalysisDiagnostics
	// FileDiagnostic is one file's analysis outcome.
	FileDiagnostic = core.FileDiagnostic
	// FileStatus classifies a file's analysis outcome.
	FileStatus = core.FileStatus
)

// Per-file analysis statuses reported in AnalysisDiagnostics.
const (
	StatusOK        = core.StatusOK
	StatusParseSkip = core.StatusParseSkip
	StatusTimeout   = core.StatusTimeout
	StatusPanic     = core.StatusPanic
	StatusCacheHit  = core.StatusCacheHit
)

// Classifier kinds accepted by Train.
const (
	KindZeroR      = core.KindZeroR
	KindNaiveBayes = core.KindNaiveBayes
	KindLogistic   = core.KindLogistic
	KindTree       = core.KindTree
	KindForest     = core.KindForest
	KindKNN        = core.KindKNN
	KindBoost      = core.KindBoost
)

// AnalyzeConfig tunes AnalyzeDirWithDiagnostics /
// AnalyzeTreeWithDiagnostics.
type AnalyzeConfig struct {
	// Jobs bounds the per-file deep-analysis worker pool; <= 0 uses every
	// core. The extracted vector is identical for any value.
	Jobs int
	// CacheDir, when non-empty, persists per-file deep-analysis results
	// keyed by content hash under this directory, so repeated analyses
	// (per-commit CI runs) only pay for changed files.
	CacheDir string
	// FileTimeout bounds one file's deep analysis; <= 0 (the default)
	// disables the bound. A file that exceeds it degrades to base metrics
	// only and is recorded in the diagnostics as StatusTimeout.
	FileTimeout time.Duration
}

// DefaultCorpus generates the paper-calibrated synthetic CVE corpus:
// 164 applications (126 C, 20 C++, 6 Python, 12 Java), 5,975
// vulnerabilities, five-year histories, and Figure 2's regression
// statistics.
func DefaultCorpus() (*Corpus, error) {
	return corpus.Generate(corpus.DefaultParams())
}

// TrainDefault trains the default model (random forest, 10-fold cross
// validation) on the corpus.
func TrainDefault(c *Corpus) (*Model, error) {
	return Train(c, core.DefaultTrainConfig())
}

// Train trains a model with explicit configuration.
func Train(c *Corpus, cfg TrainConfig) (*Model, error) {
	return TrainContext(context.Background(), c, cfg)
}

// TrainContext is Train with cancellation: canceling ctx drains the
// training worker pools cleanly and returns ctx's error.
func TrainContext(ctx context.Context, c *Corpus, cfg TrainConfig) (*Model, error) {
	return core.Train(ctx, core.NewTestbed(c), cfg)
}

// AnalyzeDir loads a source tree from disk and runs the full testbed over
// it: line counts, cyclomatic complexity, Halstead measures, smells, attack
// surface, lint, taint analysis, and symbolic execution.
func AnalyzeDir(dir string) (FeatureVector, error) {
	fv, _, err := AnalyzeDirWithDiagnostics(context.Background(), dir, AnalyzeConfig{})
	return fv, err
}

// AnalyzeDirWithDiagnostics is AnalyzeDir with cancellation, an explicit
// worker-pool bound, an optional per-file deadline, and an optional
// persistent feature cache, plus the per-file account of the run: every
// file's status (ok / parse-skip / cache-hit / timeout / panic-contained)
// and the feature-cache traffic. Files whose deep analysis panicked or
// timed out degrade to base metrics instead of failing the run; the
// diagnostics name them.
func AnalyzeDirWithDiagnostics(ctx context.Context, dir string, cfg AnalyzeConfig) (FeatureVector, *AnalysisDiagnostics, error) {
	ls := trace.SpanFromContext(ctx).Child("load")
	tree, err := metrics.LoadTree(dir)
	ls.End()
	if err != nil {
		return nil, nil, fmt.Errorf("secmetric: %w", err)
	}
	if len(tree.Files) == 0 {
		return nil, nil, fmt.Errorf("secmetric: no source files under %s", dir)
	}
	return analyzeTree(ctx, tree, cfg)
}

// AnalyzeTree runs the testbed over an in-memory tree.
func AnalyzeTree(tree *Tree) FeatureVector {
	return core.ExtractFeatures(tree)
}

// AnalyzeTreeWithDiagnostics is AnalyzeDirWithDiagnostics over an
// in-memory tree. Unlike AnalyzeTree it rejects an empty tree, exactly as
// AnalyzeDirWithDiagnostics rejects a directory with no source files.
func AnalyzeTreeWithDiagnostics(ctx context.Context, tree *Tree, cfg AnalyzeConfig) (FeatureVector, *AnalysisDiagnostics, error) {
	if len(tree.Files) == 0 {
		return nil, nil, fmt.Errorf("secmetric: no source files in tree %q", tree.Name)
	}
	return analyzeTree(ctx, tree, cfg)
}

func analyzeTree(ctx context.Context, tree *Tree, cfg AnalyzeConfig) (FeatureVector, *AnalysisDiagnostics, error) {
	cache, err := cfg.cache()
	if err != nil {
		return nil, nil, err
	}
	return core.ExtractFeaturesDiagnostics(ctx, tree, core.ExtractConfig{Jobs: cfg.Jobs, Cache: cache, FileTimeout: cfg.FileTimeout})
}

// cache opens the feature cache CacheDir names, or returns nil when it
// names none.
func (cfg AnalyzeConfig) cache() (*featcache.Cache, error) {
	if cfg.CacheDir == "" {
		return nil, nil
	}
	cache, err := featcache.Open(cfg.CacheDir)
	if err != nil {
		return nil, fmt.Errorf("secmetric: %w", err)
	}
	return cache, nil
}

// ErrFeatureSchema marks a model file whose feature schema does not match
// this build's metrics.FeatureNames; LoadModel refuses such models rather
// than silently misaligning columns at score time.
var ErrFeatureSchema = core.ErrFeatureSchema

// ErrModelCorrupt marks a model file whose binary header or sections are
// truncated or inconsistent, or whose parts disagree on shape (a classifier
// that does not fit its hypothesis' features or the two classes, a feature
// the schema lacks, a count model of the wrong width); LoadModel refuses
// it, and the daemon's registry keeps serving its previous snapshot.
var ErrModelCorrupt = core.ErrModelCorrupt

// SaveModel writes a trained model to path as JSON. The write is atomic: the
// model is serialized to a temporary file in the same directory and renamed
// into place, so a crash mid-write can never leave a truncated model a later
// LoadModel (or a serving daemon's hot-reload) would choke on, and a reader
// racing the write sees either the old complete file or the new one.
func SaveModel(m *Model, path string) error {
	return saveModelAtomic(path, m.Save)
}

// SaveModelBinary writes a trained model to path in the compact binary
// container (tree ensembles as flat node arrays, everything else as embedded
// JSON). LoadModel sniffs the format, so binary and JSON models are
// interchangeable everywhere a model path is accepted. The write is atomic
// exactly like SaveModel's.
func SaveModelBinary(m *Model, path string) error {
	return saveModelAtomic(path, m.SaveBinary)
}

// saveModelAtomic delegates to the shared durable-write helper: the model
// is serialized to a temp file in the destination directory, fsynced,
// renamed into place, and the directory fsynced — the same discipline the
// feature cache and the storage engine use, so a crash right after train
// can never surface an empty or torn model file to a later LoadModel.
func saveModelAtomic(path string, write func(io.Writer) error) error {
	if err := durable.WriteFileTo(path, 0o644, write); err != nil {
		return fmt.Errorf("secmetric: %w", err)
	}
	return nil
}

// LoadModel reads a model written by SaveModel or SaveModelBinary (the
// format is sniffed). Loaded models score and compare codebases but cannot
// be retrained. A model whose feature schema does not match this build is
// refused with ErrFeatureSchema; a damaged binary file, or a model whose
// parts disagree on shape, with ErrModelCorrupt.
func LoadModel(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("secmetric: %w", err)
	}
	defer f.Close()
	return core.LoadModel(f)
}

// Findings-layer re-exports: the unified, CWE-mapped security-findings
// stream merging interprocedural taint, lint, and abstract interpretation.
type (
	// Finding is one piece of security evidence, tagged with the weakness
	// class (CWE) it evidences.
	Finding = findings.Finding
	// FindingsReport is the per-tree findings stream with per-CWE tallies.
	FindingsReport = findings.Report
	// FindingSeverity ranks findings for triage.
	FindingSeverity = findings.Severity
)

// Finding severity levels, lowest first.
const (
	SevInfo     = findings.SevInfo
	SevLow      = findings.SevLow
	SevMedium   = findings.SevMedium
	SevHigh     = findings.SevHigh
	SevCritical = findings.SevCritical
)

// ParseSeverity parses a severity level name ("info", "low", "medium",
// "high", "critical"); the empty string parses as SevInfo.
func ParseSeverity(name string) (FindingSeverity, error) {
	return findings.ParseSeverity(name)
}

// ErrFindingsDegraded marks a findings collection in which some file's
// analysis panicked or timed out; the collection returns it instead of a
// report that would be missing that file's findings.
var ErrFindingsDegraded = core.ErrFindingsDegraded

// CollectFindings runs every findings producer over an in-memory tree. A
// file whose analysis panics fails the collection with ErrFindingsDegraded
// instead of going missing from the report.
func CollectFindings(tree *Tree) (*FindingsReport, error) {
	return core.CollectFindings(context.Background(), tree, core.FindingsConfig{Jobs: 1})
}

// HistoryRun is one persisted analysis run in the findings history — the
// unit `secmetric findings -history` appends, secmetricd's -db records per
// scoring request, and `secmetric query`//v1/query return. See
// internal/store/findex for the storage layout.
type HistoryRun = findex.Run

// CollectFindingsDir loads a source tree from disk and collects its
// CWE-mapped findings stream.
func CollectFindingsDir(dir string) (*FindingsReport, error) {
	return CollectFindingsDirWith(context.Background(), dir, AnalyzeConfig{Jobs: 1})
}

// CollectFindingsDirWith is CollectFindingsDir under the configuration
// analysis takes: a per-file worker-pool bound, the persistent feature
// cache (each file's findings list is a record of its own there, so a
// repeated run only analyzes changed files), and the per-file deadline.
// The report is the same at every Jobs, cold or warm. A file whose
// analysis panics or times out fails the collection with
// ErrFindingsDegraded rather than going missing from the report;
// canceling ctx stops the pool and returns its error.
func CollectFindingsDirWith(ctx context.Context, dir string, cfg AnalyzeConfig) (*FindingsReport, error) {
	tree, err := metrics.LoadTree(dir)
	if err != nil {
		return nil, fmt.Errorf("secmetric: %w", err)
	}
	if len(tree.Files) == 0 {
		return nil, fmt.Errorf("secmetric: no source files under %s", dir)
	}
	cache, err := cfg.cache()
	if err != nil {
		return nil, err
	}
	rep, err := core.CollectFindings(ctx, tree, core.FindingsConfig{Jobs: cfg.Jobs, Cache: cache, FileTimeout: cfg.FileTimeout})
	if err != nil {
		return nil, fmt.Errorf("secmetric: %w", err)
	}
	return rep, nil
}

// Function-level ranking re-exports: the "where do I look" engine behind
// `secmetric rank` and POST /v1/rank.
type (
	// Ranking is a LEOPARD-style function risk ranking of one tree.
	Ranking = funcrank.Ranking
	// RankedFunction is one entry of a Ranking.
	RankedFunction = funcrank.RankedFunction
	// FuncFeatures is one function's feature vector.
	FuncFeatures = funcrank.FuncFeatures
	// RankConfig tunes RankDir / RankTree.
	RankConfig = funcrank.Config
	// VCSGenerator deterministically assigns synthetic per-function
	// process metrics (churn, authors, commit frequency).
	VCSGenerator = vcsgen.Generator
)

// NewVCSGenerator builds a seeded synthetic VCS-history generator for
// RankConfig.VCS.
func NewVCSGenerator(seed uint64) *VCSGenerator { return vcsgen.New(seed) }

// RankDir loads a source tree from disk and ranks its functions by risk:
// complexity bins, vulnerability metrics within bins. The ranking is
// byte-identical at any RankConfig.Jobs width.
func RankDir(ctx context.Context, dir string, cfg RankConfig) (*Ranking, error) {
	ls := trace.SpanFromContext(ctx).Child("load")
	tree, err := metrics.LoadTree(dir)
	ls.End()
	if err != nil {
		return nil, fmt.Errorf("secmetric: %w", err)
	}
	if len(tree.Files) == 0 {
		return nil, fmt.Errorf("secmetric: no source files under %s", dir)
	}
	return funcrank.Rank(ctx, tree, cfg)
}

// RankTree ranks the functions of an in-memory tree; see RankDir.
func RankTree(ctx context.Context, tree *Tree, cfg RankConfig) (*Ranking, error) {
	if len(tree.Files) == 0 {
		return nil, fmt.Errorf("secmetric: no source files in tree %q", tree.Name)
	}
	return funcrank.Rank(ctx, tree, cfg)
}

// Whole-system evaluation (§5.3 future work) re-exports.
type (
	// SystemImage is a whole system: the application plus its supporting
	// infrastructure, each component scored independently.
	SystemImage = system.Image
	// SystemComponent is one program in the image.
	SystemComponent = system.Component
	// SystemEvaluation is the weakest-link + containment verdict.
	SystemEvaluation = system.Evaluation
	// FocusPlan apportions a deep-analysis budget over files by risk.
	FocusPlan = core.FocusPlan
)

// Component exposure levels.
const (
	ExposureInternet = system.ExposureInternet
	ExposureInternal = system.ExposureInternal
	ExposureLocal    = system.ExposureLocal
)

// EvaluateImage aggregates per-component reports into a whole-system
// verdict: the weakest exposed link dominates, and an attack graph over
// the component dependencies bounds privilege escalation.
func EvaluateImage(img *SystemImage) (*SystemEvaluation, error) {
	return system.Evaluate(img)
}
