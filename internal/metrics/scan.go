package metrics

import (
	"strings"
	"sync"

	"repro/internal/lang"
	"repro/internal/lexer"
)

// This file is the single-pass extraction engine. The seed implementation
// tokenized every file once per metric family (lines, cyclomatic, smells,
// Halstead, attack surface — seven scans per file in a full Extract);
// scanTree tokenizes each file exactly once into pooled scratch buffers and
// feeds every family from the same token stream. Each public per-family
// function (SmellsOf, HalsteadTree, AttackSurfaceOf, CyclomaticTree) is a
// view over the same scan, so all of them — and Extract — emit values
// identical to the per-family originals.
//
// The per-file body lives in treeScan.scanFile so the batch extractor and
// the incremental per-file scanner (ScanFile, filescan.go) run the exact
// same code; only the lifetime of the vocabulary/duplicate-line maps
// differs (whole-tree shared vs. per-file).

// scanBuf is the pooled per-file scratch: the full token stream and its
// semantic (comment/newline-free) filtering. Buffers are reset, not freed,
// between files, so steady-state tokenization does not allocate.
type scanBuf struct {
	all  []lexer.Token
	code []lexer.Token
}

var scanPool = sync.Pool{New: func() any { return new(scanBuf) }}

// todoMarkers are the comment annotations counted as TODO debt.
var todoMarkers = []string{"TODO", "FIXME", "XXX", "HACK"}

// treeScan is everything Extract derives from token streams and line
// counts, computed in one pass over the tree. The raw-total fields
// (commentLines … fnCycloTotal) stay attached to the scan rather than
// living as scanTree locals so an incremental aggregator can maintain them
// by delta and re-derive the ratio/average fields with finishDerived.
type treeScan struct {
	total       LineCount
	codePerLang map[lang.Language]int
	fns         []FunctionMetrics
	cycloTotal  int
	smells      Smells
	halstead    Halstead
	surface     AttackSurface

	// Raw totals behind the derived smell fields.
	commentLines int
	codeLines    int
	fnLenTotal   int
	fnCycloTotal int
}

// scanFile folds one file into the scan. The lineSeen/operators/operands
// maps are caller-provided: the batch extractor shares one set across the
// whole tree (so distinct counts reflect cross-file reuse), while the
// per-file scanner passes fresh maps and merges them later.
func (sc *treeScan) scanFile(f File, buf *scanBuf, lineSeen, operators, operands map[string]int) {
	lines := splitLines(f.Content)
	lc := countLines(lines, lang.SyntaxOf(f.Language))
	sc.total.Add(lc)
	sc.codePerLang[f.Language] += lc.Code
	sc.commentLines += lc.Comment
	sc.codeLines += lc.Code
	if lc.Code > GodFileLines {
		sc.smells.GodFiles++
	}

	for _, line := range lines {
		if len(line) > LongLineChars {
			sc.smells.LongLines++
		}
		trimmed := strings.TrimSpace(line)
		if len(trimmed) > 10 && !strings.HasPrefix(trimmed, "//") && !strings.HasPrefix(trimmed, "#") {
			lineSeen[trimmed]++
		}
	}

	buf.all = lexer.TokenizeInto(buf.all[:0], f.Content, f.Language)
	buf.code = lexer.CodeInto(buf.code[:0], buf.all)

	// Smells over the full stream (comments carry TODO markers).
	for _, tok := range buf.all {
		switch tok.Kind {
		case lexer.Comment:
			up := strings.ToUpper(tok.Text())
			for _, marker := range todoMarkers {
				sc.smells.TodoCount += strings.Count(up, marker)
			}
		case lexer.Number:
			if txt := tok.Text(); txt != "0" && txt != "1" && txt != "2" {
				sc.smells.MagicNumbers++
			}
		}
	}

	// Halstead vocabulary over the semantic stream; the shared maps make
	// distinct counts reflect cross-file reuse exactly as pooling all
	// files' tokens did.
	countHalstead(buf.code, operators, operands)

	// Attack-surface call sites: a classified identifier followed by '('.
	for i, tok := range buf.code {
		if tok.Kind != lexer.Ident {
			continue
		}
		if i+1 >= len(buf.code) || buf.code[i+1].Text() != "(" {
			continue
		}
		name := tok.Text()
		switch {
		case networkAPIs[name]:
			sc.surface.NetworkEndpoints++
		case fileAPIs[name]:
			sc.surface.FileInputs++
		case envAPIs[name]:
			sc.surface.EnvInputs++
		case procAPIs[name]:
			sc.surface.ProcessSpawns++
		case privAPIs[name]:
			sc.surface.PrivilegeOps++
		case unsafeAPIs[name]:
			sc.surface.UnsafeAPIs++
		case formatAPIs[name]:
			sc.surface.FormatCalls++
		}
	}

	// Function structure, computed once and shared by the cyclomatic,
	// smell, and entry-point views.
	fns := cyclomaticTokens(f, buf.code, lines)
	for _, fn := range fns {
		sc.cycloTotal += fn.Cyclomatic
		sc.smells.FunctionCount++
		sc.fnLenTotal += fn.Length
		sc.fnCycloTotal += fn.Cyclomatic
		if fn.Length > LongFunctionTokens {
			sc.smells.LongFunctions++
		}
		if fn.MaxNesting > DeepNesting {
			sc.smells.DeeplyNested++
		}
		if fn.Params > ManyParamsLimit {
			sc.smells.ManyParams++
		}
		if fn.Length > sc.smells.MaxFunctionLen {
			sc.smells.MaxFunctionLen = fn.Length
		}
		if fn.Cyclomatic > sc.smells.MaxCyclomatic {
			sc.smells.MaxCyclomatic = fn.Cyclomatic
		}
		if fn.Name == "main" || hasPrefixAny(fn.Name, "handle", "serve", "on_") {
			sc.surface.EntryPoints++
		}
	}
	sc.fns = append(sc.fns, fns...)
}

// finishDerived computes every ratio/average/weighted field from the raw
// totals. DuplicateLines and halstead are set by the caller first (their
// inputs — the duplicate-line and vocabulary maps — live outside the scan).
func (sc *treeScan) finishDerived() {
	if sc.commentLines+sc.codeLines > 0 {
		sc.smells.CommentRatio = float64(sc.commentLines) / float64(sc.commentLines+sc.codeLines)
	}
	if sc.smells.FunctionCount > 0 {
		sc.smells.AvgFunctionLen = float64(sc.fnLenTotal) / float64(sc.smells.FunctionCount)
		sc.smells.AvgCyclomatic = float64(sc.fnCycloTotal) / float64(sc.smells.FunctionCount)
	}

	sc.surface.Quotient = rasqWeights.network*float64(sc.surface.NetworkEndpoints) +
		rasqWeights.file*float64(sc.surface.FileInputs) +
		rasqWeights.env*float64(sc.surface.EnvInputs) +
		rasqWeights.proc*float64(sc.surface.ProcessSpawns) +
		rasqWeights.priv*float64(sc.surface.PrivilegeOps) +
		rasqWeights.unsafe*float64(sc.surface.UnsafeAPIs) +
		rasqWeights.format*float64(sc.surface.FormatCalls) +
		rasqWeights.entry*float64(sc.surface.EntryPoints)
}

// scanTree runs the single-pass extractor over every file of the tree.
func scanTree(t *Tree) treeScan {
	sc := treeScan{codePerLang: make(map[lang.Language]int, 4)}
	lineSeen := map[string]int{}
	operators := map[string]int{}
	operands := map[string]int{}

	buf := scanPool.Get().(*scanBuf)
	defer scanPool.Put(buf)

	for _, f := range t.Files {
		sc.scanFile(f, buf, lineSeen, operators, operands)
	}

	for _, n := range lineSeen {
		if n > 3 {
			sc.smells.DuplicateLines += n
		}
	}
	sc.halstead = halsteadFromMaps(operators, operands)
	sc.finishDerived()
	return sc
}

// features assembles the feature vector of a finished scan. nfiles is the
// tree's file count, which the scan itself does not retain.
func (sc *treeScan) features(nfiles int) FeatureVector {
	fv := FeatureVector{}
	for _, name := range FeatureNames {
		fv[name] = 0
	}

	total := sc.total
	fv[FeatKLoC] = float64(total.Code) / 1000
	fv[FeatFiles] = float64(nfiles)

	primary := primaryFromCounts(sc.codePerLang)
	if primary == lang.C || primary == lang.CPP || primary == lang.MiniC {
		fv[FeatLanguageUnsafe] = 1
	}

	fv[FeatFunctions] = float64(sc.smells.FunctionCount)
	fv[FeatCyclomaticTotal] = float64(sc.cycloTotal)

	s := sc.smells
	fv[FeatCommentRatio] = s.CommentRatio
	fv[FeatAvgFunctionLen] = s.AvgFunctionLen
	fv[FeatMaxFunctionLen] = float64(s.MaxFunctionLen)
	fv[FeatCyclomaticAvg] = s.AvgCyclomatic
	fv[FeatCyclomaticMax] = float64(s.MaxCyclomatic)
	fv[FeatLongFunctions] = float64(s.LongFunctions)
	fv[FeatDeeplyNested] = float64(s.DeeplyNested)
	fv[FeatManyParams] = float64(s.ManyParams)
	fv[FeatGodFiles] = float64(s.GodFiles)
	fv[FeatMagicNumbers] = float64(s.MagicNumbers)
	if total.Code > 0 {
		fv[FeatTodoDensity] = float64(s.TodoCount) / (float64(total.Code) / 1000)
	}
	fv[FeatDupLines] = float64(s.DuplicateLines)

	h := sc.halstead
	fv[FeatHalsteadVolume] = h.Volume
	fv[FeatHalsteadEffort] = h.Effort
	fv[FeatHalsteadBugs] = h.EstimatedBugs

	as := sc.surface
	fv[FeatNetworkCalls] = float64(as.NetworkEndpoints)
	fv[FeatFileInputs] = float64(as.FileInputs)
	fv[FeatEnvInputs] = float64(as.EnvInputs)
	fv[FeatProcessSpawns] = float64(as.ProcessSpawns)
	fv[FeatPrivilegeOps] = float64(as.PrivilegeOps)
	fv[FeatUnsafeCalls] = float64(as.UnsafeAPIs)
	fv[FeatFormatCalls] = float64(as.FormatCalls)
	fv[FeatEntryPoints] = float64(as.EntryPoints)
	fv[FeatRASQ] = as.Quotient

	return fv
}

// primaryFromCounts picks the language with the most code lines, scanning
// lang.All() in order so ties resolve deterministically.
func primaryFromCounts(counts map[lang.Language]int) lang.Language {
	best := lang.Unknown
	bestN := -1
	for _, l := range lang.All() {
		if counts[l] > bestN {
			best, bestN = l, counts[l]
		}
	}
	if bestN <= 0 {
		return lang.Unknown
	}
	return best
}
