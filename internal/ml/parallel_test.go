package ml

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

func TestEffectiveJobs(t *testing.T) {
	if got := EffectiveJobs(4, 2); got != 2 {
		t.Fatalf("jobs capped at task count: got %d", got)
	}
	if got := EffectiveJobs(2, 10); got != 2 {
		t.Fatalf("explicit jobs honored: got %d", got)
	}
	if got := EffectiveJobs(0, 10); got < 1 {
		t.Fatalf("default jobs must be >= 1: got %d", got)
	}
	if got := EffectiveJobs(-3, 0); got != 1 {
		t.Fatalf("zero tasks still yields 1: got %d", got)
	}
}

func TestParallelForRunsEveryIndex(t *testing.T) {
	for _, jobs := range []int{1, 3, 16} {
		var ran [50]int32
		if err := ParallelFor(50, jobs, func(i int) error {
			atomic.AddInt32(&ran[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, n := range ran {
			if n != 1 {
				t.Fatalf("jobs=%d: index %d ran %d times", jobs, i, n)
			}
		}
	}
}

func TestParallelForFirstErrorWins(t *testing.T) {
	// Multiple failing indexes: the reported error must be the lowest
	// index, exactly as a sequential loop would report it.
	for _, jobs := range []int{1, 4} {
		err := ParallelFor(20, jobs, func(i int) error {
			if i == 7 || i == 3 || i == 15 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 3" {
			t.Fatalf("jobs=%d: err = %v, want fail at 3", jobs, err)
		}
	}
}

// TestRandomForestParallelByteIdentical is the tentpole determinism
// contract: fitting with a parallel worker pool must produce a forest
// byte-identical (through persistence) to the sequential Jobs=1 fit.
func TestRandomForestParallelByteIdentical(t *testing.T) {
	d := xorDataset(200, stats.NewRNG(21))
	seq := &RandomForest{Trees: 12, Seed: 42, Jobs: 1}
	par := &RandomForest{Trees: 12, Seed: 42, Jobs: 8}
	if err := seq.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := par.Fit(d); err != nil {
		t.Fatal(err)
	}
	a, err := MarshalClassifier(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalClassifier(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("parallel forest differs from sequential fit with the same seed")
	}
}

func TestCrossValidateJobsMatchesSequential(t *testing.T) {
	d := linearDataset(240, stats.NewRNG(33))
	mk := func() Classifier { return &RandomForest{Trees: 5, Seed: 7} }
	seq, err := CrossValidateJobs(mk, d, 10, stats.NewRNG(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CrossValidateJobs(mk, d, 10, stats.NewRNG(5), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel CV differs from sequential:\nseq=%+v\npar=%+v", seq, par)
	}
}

func TestCrossValidateJobsPropagatesFoldError(t *testing.T) {
	d := linearDataset(60, stats.NewRNG(3))
	// A classifier that always fails to fit surfaces the first fold's error.
	_, err := CrossValidateJobs(func() Classifier { return &failingClassifier{} },
		d, 5, stats.NewRNG(1), 4)
	if err == nil || err.Error() != "ml: fold 0: boom" {
		t.Fatalf("err = %v, want fold 0 error", err)
	}
}

func TestParallelForCtxPreCanceledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		var ran int32
		err := ParallelForCtx(ctx, 20, jobs, func(i int) error {
			atomic.AddInt32(&ran, 1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d: err = %v, want context.Canceled", jobs, err)
		}
		if n := atomic.LoadInt32(&ran); n != 0 {
			t.Fatalf("jobs=%d: %d indexes ran under a pre-canceled context", jobs, n)
		}
	}
}

func TestParallelForCtxCancelMidRunDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int32
	err := ParallelForCtx(ctx, 200, 4, func(i int) error {
		if atomic.AddInt32(&ran, 1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The pool drains without running the full range: only indexes already
	// in flight when cancel landed may still execute.
	if n := atomic.LoadInt32(&ran); n >= 200 {
		t.Fatalf("cancellation did not stop dispatch: %d of 200 ran", n)
	}
}

func TestParallelForCtxFirstErrorBeatsCancel(t *testing.T) {
	// A real error at the lowest failing index wins over the context error,
	// exactly as a sequential loop would have reported it first.
	for _, jobs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		err := ParallelForCtx(ctx, 20, jobs, func(i int) error {
			if i == 3 {
				cancel()
				return fmt.Errorf("boom at %d", i)
			}
			return nil
		})
		cancel()
		if err == nil || err.Error() != "boom at 3" {
			t.Fatalf("jobs=%d: err = %v, want boom at 3", jobs, err)
		}
	}
}

type failingClassifier struct{}

func (f *failingClassifier) Fit(d *Dataset) error               { return fmt.Errorf("boom") }
func (f *failingClassifier) PredictClass(x []float64) int       { return 0 }
func (f *failingClassifier) PredictProba(x []float64) []float64 { return []float64{1, 0} }
func (f *failingClassifier) Name() string                       { return "failing" }
