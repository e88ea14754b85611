package symexec

import (
	"testing"

	"repro/internal/ir"
)

const benchSrc = `
int classify(int x, int y) {
	int score = 0;
	if (x < 32) { score = score + 1; }
	if (x < 64) { score = score + 2; }
	if (x < 128) { score = score + 4; }
	if (y < 32) { score = score + 8; }
	if (y < 64) { score = score + 16; }
	while (score > 20) { score = score - 5; }
	return score;
}`

func BenchmarkExplore(b *testing.B) {
	fn := ir.MustLowerSource(benchSrc).Funcs[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := Explore(fn, DefaultLoopBound)
		if res.FeasiblePaths == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkIntervalArithmetic(b *testing.B) {
	x := Interval{Lo: -100, Hi: 100}
	y := Interval{Lo: 3, Hi: 17}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Add(y).Mul(y).Sub(x).Div(y).Mod(y)
	}
}
