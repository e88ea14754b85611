package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// Child stream must not simply replay the parent stream.
	p := make([]uint64, 50)
	c := make([]uint64, 50)
	for i := range p {
		p[i] = parent.Uint64()
		c[i] = child.Uint64()
	}
	same := 0
	for i := range p {
		if p[i] == c[i] {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split stream mirrors parent (%d/50 equal)", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered %d values, want 7", len(seen))
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(-3, 3)
		if v < -3 || v > 3 {
			t.Fatalf("IntRange(-3,3) = %d", v)
		}
	}
	if got := r.IntRange(5, 5); got != 5 {
		t.Fatalf("IntRange(5,5) = %d, want 5", got)
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64MeanNearHalf(t *testing.T) {
	r := NewRNG(13)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(17)
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(10, 3)
	}
	if m := Mean(xs); math.Abs(m-10) > 0.1 {
		t.Fatalf("normal mean = %v, want ~10", m)
	}
	if s := StdDev(xs); math.Abs(s-3) > 0.1 {
		t.Fatalf("normal stddev = %v, want ~3", s)
	}
}

func TestGeometric(t *testing.T) {
	r := NewRNG(37)
	if v := r.Geometric(1); v != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", v)
	}
	sum := 0.0
	n := 50000
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(0.25))
	}
	// Mean failures before success = (1-p)/p = 3.
	got := sum / float64(n)
	if math.Abs(got-3) > 0.15 {
		t.Fatalf("Geometric(0.25) mean = %v, want ~3", got)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(41)
	counts := make([]int, 5)
	for i := 0; i < 20000; i++ {
		counts[r.Zipf(5, 1.5)]++
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("Zipf counts not monotone: %v", counts)
		}
	}
}

func TestChoiceWeights(t *testing.T) {
	r := NewRNG(43)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[r.Choice([]float64{1, 2, 7})]++
	}
	if !(counts[2] > counts[1] && counts[1] > counts[0]) {
		t.Fatalf("Choice ignored weights: %v", counts)
	}
	// Zero-weight entries must never be picked.
	for i := 0; i < 1000; i++ {
		if r.Choice([]float64{0, 1, 0}) != 1 {
			t.Fatal("Choice picked a zero-weight entry")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + int(seed%50)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(47)
	hits := 0
	n := 50000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency = %v", got)
	}
}
