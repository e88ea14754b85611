// Package core implements the paper's contribution: the unified security
// evaluation model. It wires the substrates together along Figure 4 — select
// applications, extract code properties, label hypotheses from the CVE
// ground truth, train classifiers with cross validation — and exposes the
// developer-facing metric of §5.3: score a codebase, explain which
// properties drive the risk, and compare two versions.
package core

import "repro/internal/cvedb"

// Hypothesis is one question the model answers about an application, with
// its labelling rule over the CVE ground truth (Figure 4's "CVE
// hypotheses": CVSS>7? AV=N? CWE=121?).
type Hypothesis struct {
	Name     string
	Question string
	// Label extracts the ground-truth answer from an application's CVE
	// statistics.
	Label func(s cvedb.Stats) bool
}

// The paper's three example hypotheses plus a vulnerability-count split.
var (
	// HypHighSeverity: "How many high-severity vulnerabilities exist in an
	// application (i.e., CVSS > 7)?" — binarized to "any".
	HypHighSeverity = Hypothesis{
		Name:     "cvss_gt7",
		Question: "Does the application contain high-severity vulnerabilities (CVSS > 7)?",
		Label:    func(s cvedb.Stats) bool { return s.HighSeverity > 0 },
	}
	// HypNetworkVector: "Does an application contain any vulnerabilities
	// that are accessible from the network (i.e., Attack Vectors = N)?"
	HypNetworkVector = Hypothesis{
		Name:     "av_network",
		Question: "Is the application attackable from the network (AV = N)?",
		Label:    func(s cvedb.Stats) bool { return s.NetworkVector > 0 },
	}
	// HypStackOverflow: "Does an application suffer any stack-based buffer
	// overflow (i.e., CWE = 121)?"
	HypStackOverflow = Hypothesis{
		Name:     "cwe_121",
		Question: "Does the application suffer stack-based buffer overflows (CWE-121)?",
		Label:    func(s cvedb.Stats) bool { return s.StackOverflow > 0 },
	}
	// HypMemorySafety broadens CWE-121 to the whole memory-safety class.
	HypMemorySafety = Hypothesis{
		Name:     "memory_safety",
		Question: "Does the application suffer memory-safety vulnerabilities?",
		Label:    func(s cvedb.Stats) bool { return s.MemorySafety > 0 },
	}
	// HypManyVulns asks whether the application is in the vulnerable upper
	// half of the corpus (threshold injected at dataset-build time).
	HypManyVulns = Hypothesis{
		Name:     "many_vulns",
		Question: "Is the application's vulnerability count above the corpus median?",
		// Label is bound against the corpus median when the dataset is
		// built; see Testbed.DatasetFor.
		Label: nil,
	}
)

// StandardHypotheses returns the fixed-label hypotheses of the paper.
func StandardHypotheses() []Hypothesis {
	return []Hypothesis{HypHighSeverity, HypNetworkVector, HypStackOverflow, HypMemorySafety}
}

// ClassNames are the nominal labels used for every hypothesis dataset.
var ClassNames = []string{"no", "yes"}
