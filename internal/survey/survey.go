// Package survey reproduces Figure 1: a survey of papers in top systems
// proceedings (CCS, PLDI, SOSP, ASPLOS, EuroSys) classified by how they
// evaluate security — lines of code, CVE-report counts, or formal
// verification. The real survey was manual; here a synthetic proceedings
// corpus is generated with evaluation-style phrases planted in the
// abstracts, and a keyword classifier (the automated analogue of the
// authors' reading) recovers the published totals: 384 LoC papers, 116 CVE
// papers, 31 formally verified papers.
//
// The paper's stacked bar gives no numeric per-venue split, so the split
// used here is synthetic and documented in EXPERIMENTS.md.
package survey

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Venue is one surveyed conference.
type Venue string

// The surveyed venues, in Figure 1's legend order.
var Venues = []Venue{"CCS", "PLDI", "SOSP", "ASPLOS", "EuroSys"}

// Method is an evaluation methodology the classifier detects.
type Method int

// Methods, in Figure 1's row order.
const (
	MethodLoC Method = iota
	MethodCVECount
	MethodFormal
	MethodOther // papers with none of the three signals
)

// String names the method as the figure labels it.
func (m Method) String() string {
	switch m {
	case MethodLoC:
		return "Papers using Lines of Code"
	case MethodCVECount:
		return "Papers using # of CVE reports"
	case MethodFormal:
		return "Papers formally verified or proved"
	default:
		return "Other"
	}
}

// Paper is one synthetic proceedings entry.
type Paper struct {
	Venue    Venue
	Title    string
	Abstract string
}

// Totals from Figure 1.
const (
	TotalLoC    = 384
	TotalCVE    = 116
	TotalFormal = 31
)

// perVenue is the synthetic split of the published totals across venues.
// Each row sums to the corresponding total.
var perVenue = map[Method]map[Venue]int{
	MethodLoC:      {"CCS": 118, "PLDI": 44, "SOSP": 78, "ASPLOS": 71, "EuroSys": 73},
	MethodCVECount: {"CCS": 58, "PLDI": 7, "SOSP": 18, "ASPLOS": 14, "EuroSys": 19},
	MethodFormal:   {"CCS": 9, "PLDI": 8, "SOSP": 7, "ASPLOS": 3, "EuroSys": 4},
}

// otherPerVenue pads each venue with papers carrying none of the signals.
var otherPerVenue = map[Venue]int{"CCS": 120, "PLDI": 90, "SOSP": 40, "ASPLOS": 60, "EuroSys": 50}

// phrase banks: the classifier looks for these signal phrases.
var locPhrases = []string{
	"our trusted computing base is only %d lines of code",
	"we reduce the TCB to %d lines of code",
	"the kernel comprises %d lines of code, far smaller than alternatives",
	"attack surface shrinks to %d LoC",
}

var cvePhrases = []string{
	"we analyzed %d CVE reports against the target",
	"the module suffered %d CVEs over five years",
	"past CVE reports (%d in total) motivate the design",
	"an audit of %d CVE entries shows the risk",
}

var formalPhrases = []string{
	"we formally verified the implementation in Coq",
	"a machine-checked proof establishes functional correctness",
	"the protocol is mathematically proved secure",
	"we verify the kernel end to end with a proof assistant",
}

var fillerSentences = []string{
	"We present a new system design for modern datacenters.",
	"Our evaluation covers realistic workloads at scale.",
	"The implementation builds on a commodity operating system.",
	"Results show significant improvements over the state of the art.",
	"We discuss deployment considerations and limitations.",
}

var titleWords = []string{
	"Efficient", "Scalable", "Secure", "Verified", "Practical", "Fast",
	"Isolation", "Virtualization", "Storage", "Networking", "Memory",
	"Scheduling", "Sandboxing", "Enclaves", "Containers", "Kernels",
}

// GenerateCorpus builds the synthetic proceedings deterministically from a
// seed. Every paper that should be classified under a method carries one of
// its signal phrases; "other" papers carry only filler.
func GenerateCorpus(seed uint64) []Paper {
	rng := stats.NewRNG(seed)
	var papers []Paper
	emit := func(v Venue, m Method) {
		var sb strings.Builder
		sb.WriteString(fillerSentences[rng.Intn(len(fillerSentences))])
		sb.WriteString(" ")
		switch m {
		case MethodLoC:
			fmt.Fprintf(&sb, locPhrases[rng.Intn(len(locPhrases))], rng.IntRange(500, 500000))
		case MethodCVECount:
			fmt.Fprintf(&sb, cvePhrases[rng.Intn(len(cvePhrases))], rng.IntRange(3, 400))
		case MethodFormal:
			sb.WriteString(formalPhrases[rng.Intn(len(formalPhrases))])
		default:
			sb.WriteString(fillerSentences[rng.Intn(len(fillerSentences))])
		}
		sb.WriteString(". ")
		sb.WriteString(fillerSentences[rng.Intn(len(fillerSentences))])
		title := fmt.Sprintf("%s %s for %s",
			titleWords[rng.Intn(len(titleWords))],
			titleWords[rng.Intn(len(titleWords))],
			titleWords[rng.Intn(len(titleWords))])
		papers = append(papers, Paper{Venue: v, Title: title, Abstract: sb.String()})
	}
	for _, m := range []Method{MethodLoC, MethodCVECount, MethodFormal} {
		for _, v := range Venues {
			for i := 0; i < perVenue[m][v]; i++ {
				emit(v, m)
			}
		}
	}
	for _, v := range Venues {
		for i := 0; i < otherPerVenue[v]; i++ {
			emit(v, MethodOther)
		}
	}
	rng.Shuffle(len(papers), func(i, j int) { papers[i], papers[j] = papers[j], papers[i] })
	return papers
}

// Classify detects the evaluation method of one paper from its abstract.
// Formal verification dominates (a verified system that also counts LoC is
// classed as formal in the paper's mutually-exclusive bars... the figure
// actually reports non-exclusive rows; here phrases are planted exclusively
// so either reading matches).
func Classify(p Paper) Method {
	text := strings.ToLower(p.Abstract)
	switch {
	case strings.Contains(text, "formally verified") ||
		strings.Contains(text, "machine-checked proof") ||
		strings.Contains(text, "mathematically proved") ||
		strings.Contains(text, "proof assistant"):
		return MethodFormal
	case strings.Contains(text, "cve"):
		return MethodCVECount
	case strings.Contains(text, "lines of code") || strings.Contains(text, "loc"):
		return MethodLoC
	default:
		return MethodOther
	}
}

// Counts is the Figure 1 result: per-method, per-venue paper counts.
type Counts struct {
	ByMethod map[Method]map[Venue]int
}

// Run classifies the whole corpus.
func Run(papers []Paper) Counts {
	c := Counts{ByMethod: map[Method]map[Venue]int{}}
	for _, m := range []Method{MethodLoC, MethodCVECount, MethodFormal, MethodOther} {
		c.ByMethod[m] = map[Venue]int{}
	}
	for _, p := range papers {
		c.ByMethod[Classify(p)][p.Venue]++
	}
	return c
}

// Total sums one method's counts across venues.
func (c Counts) Total(m Method) int {
	t := 0
	for _, n := range c.ByMethod[m] {
		t += n
	}
	return t
}

// Render prints Figure 1 as an aligned text table.
func (c Counts) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-40s", "")
	for _, v := range Venues {
		fmt.Fprintf(&sb, "%9s", v)
	}
	fmt.Fprintf(&sb, "%9s\n", "TOTAL")
	for _, m := range []Method{MethodLoC, MethodCVECount, MethodFormal} {
		fmt.Fprintf(&sb, "%-40s", m)
		for _, v := range Venues {
			fmt.Fprintf(&sb, "%9d", c.ByMethod[m][v])
		}
		fmt.Fprintf(&sb, "%9d\n", c.Total(m))
	}
	return sb.String()
}
