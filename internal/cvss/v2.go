package cvss

import (
	"fmt"
	"strings"
)

// V2 metric enumerations. CVSS v2.0 predates the PR/UI/S split; its base
// vector is AV/AC/Au/C/I/A. Older CVE entries in the corpus carry v2
// vectors; records read only their access vector, so no v2 score is
// computed.

// V2AccessVector is the v2 analogue of AttackVector.
type V2AccessVector int

// V2AccessVector values.
const (
	V2AVUnset V2AccessVector = iota
	V2AVNetwork
	V2AVAdjacent
	V2AVLocal
)

// V2AccessComplexity has three levels in v2.
type V2AccessComplexity int

// V2AccessComplexity values.
const (
	V2ACUnset V2AccessComplexity = iota
	V2ACLow
	V2ACMedium
	V2ACHigh
)

// V2Authentication counts required authentication events.
type V2Authentication int

// V2Authentication values.
const (
	V2AuUnset V2Authentication = iota
	V2AuNone
	V2AuSingle
	V2AuMultiple
)

// V2Impact is the v2 per-dimension impact (None/Partial/Complete).
type V2Impact int

// V2Impact values.
const (
	V2ImpactUnset V2Impact = iota
	V2ImpactNone
	V2ImpactPartial
	V2ImpactComplete
)

// V2 is a CVSS v2.0 base vector.
type V2 struct {
	AV V2AccessVector
	AC V2AccessComplexity
	Au V2Authentication
	C  V2Impact
	I  V2Impact
	A  V2Impact
}

// Validate reports whether every metric has been set.
func (v V2) Validate() error {
	switch {
	case v.AV == V2AVUnset:
		return fmt.Errorf("cvss: v2 vector missing AV")
	case v.AC == V2ACUnset:
		return fmt.Errorf("cvss: v2 vector missing AC")
	case v.Au == V2AuUnset:
		return fmt.Errorf("cvss: v2 vector missing Au")
	case v.C == V2ImpactUnset:
		return fmt.Errorf("cvss: v2 vector missing C")
	case v.I == V2ImpactUnset:
		return fmt.Errorf("cvss: v2 vector missing I")
	case v.A == V2ImpactUnset:
		return fmt.Errorf("cvss: v2 vector missing A")
	}
	return nil
}

// String renders the v2 vector in the standard "(AV:N/AC:L/Au:N/C:P/I:P/A:P)"
// form without the surrounding parentheses.
func (v V2) String() string {
	var b strings.Builder
	b.WriteString("AV:" + pick(int(v.AV), "", "N", "A", "L"))
	b.WriteString("/AC:" + pick(int(v.AC), "", "L", "M", "H"))
	b.WriteString("/Au:" + pick(int(v.Au), "", "N", "S", "M"))
	b.WriteString("/C:" + pick(int(v.C), "", "N", "P", "C"))
	b.WriteString("/I:" + pick(int(v.I), "", "N", "P", "C"))
	b.WriteString("/A:" + pick(int(v.A), "", "N", "P", "C"))
	return b.String()
}

// ParseV2 parses a v2 base vector such as "AV:N/AC:L/Au:N/C:P/I:P/A:P".
// Surrounding parentheses are tolerated.
func ParseV2(s string) (V2, error) {
	s = strings.TrimPrefix(strings.TrimSuffix(strings.TrimSpace(s), ")"), "(")
	var v V2
	seen := map[string]bool{}
	for _, part := range strings.Split(s, "/") {
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			return V2{}, fmt.Errorf("cvss: malformed v2 metric %q", part)
		}
		key, val := kv[0], kv[1]
		if seen[key] {
			return V2{}, fmt.Errorf("cvss: duplicate v2 metric %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "AV":
			v.AV, err = parseV2AV(val)
		case "AC":
			v.AC, err = parseV2AC(val)
		case "Au":
			v.Au, err = parseV2Au(val)
		case "C":
			v.C, err = parseV2Impact(val)
		case "I":
			v.I, err = parseV2Impact(val)
		case "A":
			v.A, err = parseV2Impact(val)
		default:
			return V2{}, fmt.Errorf("cvss: unknown v2 metric %q", key)
		}
		if err != nil {
			return V2{}, err
		}
	}
	if err := v.Validate(); err != nil {
		return V2{}, err
	}
	return v, nil
}

func parseV2AV(s string) (V2AccessVector, error) {
	switch s {
	case "N":
		return V2AVNetwork, nil
	case "A":
		return V2AVAdjacent, nil
	case "L":
		return V2AVLocal, nil
	}
	return V2AVUnset, fmt.Errorf("cvss: bad v2 AV value %q", s)
}

func parseV2AC(s string) (V2AccessComplexity, error) {
	switch s {
	case "L":
		return V2ACLow, nil
	case "M":
		return V2ACMedium, nil
	case "H":
		return V2ACHigh, nil
	}
	return V2ACUnset, fmt.Errorf("cvss: bad v2 AC value %q", s)
}

func parseV2Au(s string) (V2Authentication, error) {
	switch s {
	case "N":
		return V2AuNone, nil
	case "S":
		return V2AuSingle, nil
	case "M":
		return V2AuMultiple, nil
	}
	return V2AuUnset, fmt.Errorf("cvss: bad v2 Au value %q", s)
}

func parseV2Impact(s string) (V2Impact, error) {
	switch s {
	case "N":
		return V2ImpactNone, nil
	case "P":
		return V2ImpactPartial, nil
	case "C":
		return V2ImpactComplete, nil
	}
	return V2ImpactUnset, fmt.Errorf("cvss: bad v2 impact value %q", s)
}
