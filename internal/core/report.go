package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/ml"
)

// HypothesisRisk is one hypothesis' prediction for a codebase.
type HypothesisRisk struct {
	Name        string
	Question    string
	Probability float64 // P(yes)
	Predicted   bool
	BaseRate    float64 // corpus frequency, for calibration context
	// TopFactors are the most informative features for this hypothesis.
	TopFactors []ml.FeatureWeight
}

// Report is the developer-facing security evaluation of §5.3.
type Report struct {
	Name     string
	Features metrics.FeatureVector
	Risks    []HypothesisRisk
	// ExpectedVulns is the regression estimate of total vulnerability
	// count (not log-space); ExpectedVulnsLo/Hi bound it with a ~90%
	// prediction band derived from the training residuals.
	ExpectedVulns   float64
	ExpectedVulnsLo float64
	ExpectedVulnsHi float64
	// RiskScore aggregates hypothesis probabilities into one [0, 100]
	// headline number.
	RiskScore       float64
	Recommendations []string
}

// Score evaluates a feature vector against the trained model.
func (m *Model) Score(name string, fv metrics.FeatureVector) *Report {
	row := m.Transformer.Transform(fv)
	rep := &Report{Name: name, Features: fv.Clone()}
	sum := 0.0
	for _, hm := range m.Hypotheses {
		projected := hm.projectRow(row)
		prob := hm.Classifier.PredictProba(projected)[1]
		top := hm.Importance
		if len(top) > 5 {
			top = top[:5]
		}
		rep.Risks = append(rep.Risks, HypothesisRisk{
			Name:        hm.Hypothesis.Name,
			Question:    hm.Hypothesis.Question,
			Probability: prob,
			Predicted:   prob >= 0.5,
			BaseRate:    hm.BaseRate,
			TopFactors:  append([]ml.FeatureWeight(nil), top...),
		})
		sum += prob
	}
	if len(rep.Risks) > 0 {
		rep.RiskScore = 100 * sum / float64(len(rep.Risks))
	}
	if m.CountModel != nil {
		pred := m.CountModel.Predict(row)
		// RegressionDataset trains on log10(1+count), so the inverse is
		// 10^x - 1, clamped at zero (counts are never negative).
		rep.ExpectedVulns = math.Max(0, math.Pow(10, pred)-1)
		// +-1.645 sigma in log space covers ~90% under normal residuals.
		band := 1.645 * m.CountResidualStd
		rep.ExpectedVulnsLo = math.Max(0, math.Pow(10, pred-band)-1)
		rep.ExpectedVulnsHi = math.Max(0, math.Pow(10, pred+band)-1)
	}
	rep.Recommendations = recommend(rep)
	return rep
}

// RiskFor returns one hypothesis' risk by name.
func (r *Report) RiskFor(name string) (HypothesisRisk, bool) {
	for _, h := range r.Risks {
		if h.Name == name {
			return h, true
		}
	}
	return HypothesisRisk{}, false
}

// String renders the report as the CLI prints it.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Security evaluation: %s\n", r.Name)
	fmt.Fprintf(&sb, "  Aggregate risk score: %.1f/100\n", r.RiskScore)
	if r.ExpectedVulnsHi > 0 {
		fmt.Fprintf(&sb, "  Expected vulnerability count: %.1f (90%% band %.1f..%.1f)\n",
			r.ExpectedVulns, r.ExpectedVulnsLo, r.ExpectedVulnsHi)
	} else {
		fmt.Fprintf(&sb, "  Expected vulnerability count: %.1f\n", r.ExpectedVulns)
	}
	for _, h := range r.Risks {
		verdict := "unlikely"
		if h.Predicted {
			verdict = "LIKELY"
		}
		fmt.Fprintf(&sb, "  [%-13s] p=%.2f (base %.2f) %-8s %s\n",
			h.Name, h.Probability, h.BaseRate, verdict, h.Question)
	}
	if len(r.Recommendations) > 0 {
		sb.WriteString("  Recommendations:\n")
		for _, rec := range r.Recommendations {
			fmt.Fprintf(&sb, "   - %s\n", rec)
		}
	}
	return sb.String()
}

// Comparison is the §5.3 CI-gate verdict between two versions.
type Comparison struct {
	OldName, NewName   string
	OldScore, NewScore float64
	// DeltaRisk is NewScore - OldScore; positive means riskier.
	DeltaRisk float64
	// PerHypothesis probability movements, largest magnitude first.
	Movements []RiskMovement
	// FeatureDeltas are the raw code-property changes behind the movement,
	// truncated to the largest few; DroppedDeltas counts the rest.
	FeatureDeltas []metrics.FeatureDelta
	DroppedDeltas int
}

// RiskMovement is one hypothesis' probability change.
type RiskMovement struct {
	Name     string
	Old, New float64
}

// Compare scores both versions and explains the delta.
func (m *Model) Compare(oldName string, oldFV metrics.FeatureVector, newName string, newFV metrics.FeatureVector) *Comparison {
	oldRep := m.Score(oldName, oldFV)
	newRep := m.Score(newName, newFV)
	cmp := &Comparison{
		OldName:  oldName,
		NewName:  newName,
		OldScore: oldRep.RiskScore,
		NewScore: newRep.RiskScore,
	}
	cmp.DeltaRisk = cmp.NewScore - cmp.OldScore
	for i, h := range oldRep.Risks {
		cmp.Movements = append(cmp.Movements, RiskMovement{
			Name: h.Name,
			Old:  h.Probability,
			New:  newRep.Risks[i].Probability,
		})
	}
	sort.SliceStable(cmp.Movements, func(i, j int) bool {
		return math.Abs(cmp.Movements[i].New-cmp.Movements[i].Old) >
			math.Abs(cmp.Movements[j].New-cmp.Movements[j].Old)
	})
	cmp.FeatureDeltas = oldFV.Diff(newFV, 1e-9)
	if len(cmp.FeatureDeltas) > 10 {
		cmp.DroppedDeltas = len(cmp.FeatureDeltas) - 10
		cmp.FeatureDeltas = cmp.FeatureDeltas[:10]
	}
	return cmp
}

// Verdict summarizes the comparison in one line.
func (c *Comparison) Verdict() string {
	switch {
	case c.DeltaRisk > 1:
		return fmt.Sprintf("RISK UP: %s scores %.1f vs %.1f for %s (+%.1f)",
			c.NewName, c.NewScore, c.OldScore, c.OldName, c.DeltaRisk)
	case c.DeltaRisk < -1:
		return fmt.Sprintf("RISK DOWN: %s scores %.1f vs %.1f for %s (%.1f)",
			c.NewName, c.NewScore, c.OldScore, c.OldName, c.DeltaRisk)
	default:
		return fmt.Sprintf("RISK UNCHANGED: %s scores %.1f vs %.1f for %s",
			c.NewName, c.NewScore, c.OldScore, c.OldName)
	}
}

// String renders the full comparison.
func (c *Comparison) String() string {
	var sb strings.Builder
	sb.WriteString(c.Verdict())
	sb.WriteString("\n")
	for _, mv := range c.Movements {
		fmt.Fprintf(&sb, "  %-13s p %.2f -> %.2f\n", mv.Name, mv.Old, mv.New)
	}
	if len(c.FeatureDeltas) > 0 {
		sb.WriteString("  Largest code-property changes:\n")
		for _, d := range c.FeatureDeltas {
			fmt.Fprintf(&sb, "   %-20s %.2f -> %.2f\n", d.Name, d.Old, d.New)
		}
		if c.DroppedDeltas > 0 {
			fmt.Fprintf(&sb, "   (+%d more)\n", c.DroppedDeltas)
		}
	}
	return sb.String()
}

// recommend maps predicted risks and feature evidence to the defensive
// actions §5.3 sketches ("applying bound checking if there is high risk of
// buffer overflow, or placing the application behind firewall or intrusion
// protection if a network attack is predicted").
func recommend(r *Report) []string {
	var out []string
	if h, ok := r.RiskFor(HypStackOverflow.Name); ok && h.Predicted {
		out = append(out, "High stack-overflow risk: apply bounds checking and replace unchecked copy APIs (strcpy/sprintf/gets).")
	}
	if h, ok := r.RiskFor(HypMemorySafety.Name); ok && h.Predicted {
		out = append(out, "Memory-safety risk: enable sanitizers in CI and consider memory-safe components for parsing paths.")
	}
	if h, ok := r.RiskFor(HypNetworkVector.Name); ok && h.Predicted {
		out = append(out, "Network attack predicted: deploy behind a firewall or intrusion-protection system and fuzz the network parsers.")
	}
	if h, ok := r.RiskFor(HypHighSeverity.Name); ok && h.Predicted {
		out = append(out, "High-severity vulnerabilities likely: prioritize a security audit before the next release.")
	}
	if r.Features[metrics.FeatUnsafeCalls] > 0 {
		out = append(out, fmt.Sprintf("%d unsafe API call sites detected: migrate to bounded variants.",
			int(r.Features[metrics.FeatUnsafeCalls])))
	}
	if r.Features[metrics.FeatTaintedSinks] > 0 {
		out = append(out, fmt.Sprintf("%d tainted data flows reach dangerous sinks: add input validation on those paths.",
			int(r.Features[metrics.FeatTaintedSinks])))
	}
	return out
}
