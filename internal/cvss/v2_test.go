package cvss

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestParseV2Parentheses(t *testing.T) {
	v, err := ParseV2("(AV:N/AC:L/Au:N/C:P/I:P/A:P)")
	if err != nil {
		t.Fatal(err)
	}
	if v.AV != V2AVNetwork {
		t.Fatalf("AV = %v", v.AV)
	}
}

func TestParseV2Errors(t *testing.T) {
	bad := []string{
		"",
		"AV:N/AC:L/Au:N/C:P/I:P",     // missing A
		"AV:N/AC:L/Au:N/C:P/I:P/A:X", // bad impact
		"AV:N/AV:N/AC:L/Au:N/C:P/I:P/A:P",
		"ZZ:Q",
	}
	for _, s := range bad {
		if _, err := ParseV2(s); err == nil {
			t.Errorf("ParseV2(%q) succeeded, want error", s)
		}
	}
}

func randomV2(r *stats.RNG) V2 {
	return V2{
		AV: V2AccessVector(1 + r.Intn(3)),
		AC: V2AccessComplexity(1 + r.Intn(3)),
		Au: V2Authentication(1 + r.Intn(3)),
		C:  V2Impact(1 + r.Intn(3)),
		I:  V2Impact(1 + r.Intn(3)),
		A:  V2Impact(1 + r.Intn(3)),
	}
}

// NVD-published v2 vectors; each must parse and render back unchanged.
var v2Published = []string{
	"AV:N/AC:L/Au:N/C:P/I:P/A:P",
	"AV:N/AC:L/Au:N/C:C/I:C/A:C",
	"AV:L/AC:L/Au:N/C:C/I:C/A:C",
	"AV:N/AC:L/Au:N/C:P/I:N/A:N",
	"AV:N/AC:M/Au:N/C:N/I:P/A:N", // classic XSS
	"AV:N/AC:L/Au:N/C:N/I:N/A:N",
}

func TestV2RoundTripProperty(t *testing.T) {
	for _, vec := range v2Published {
		v, err := ParseV2(vec)
		if err != nil {
			t.Fatalf("%s: %v", vec, err)
		}
		if got := v.String(); got != vec {
			t.Errorf("ParseV2(%q).String() = %q", vec, got)
		}
	}
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		v := randomV2(r)
		parsed, err := ParseV2(v.String())
		return err == nil && parsed == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestV2ValidateZero(t *testing.T) {
	var v V2
	if err := v.Validate(); err == nil {
		t.Fatal("zero v2 vector validated")
	}
}
