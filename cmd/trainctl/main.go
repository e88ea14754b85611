// Command trainctl trains the prediction model on the built-in corpus,
// reports per-hypothesis cross-validation quality, and writes the trained
// model to disk for the secmetric tool: a -out path ending in .bin gets the
// binary container, any other path JSON.
//
// Usage:
//
//	trainctl [-kind forest] [-folds 10] [-topk 0] [-seed 17] [-jobs 0] [-out model.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	secmetric "repro"
	"repro/internal/core"
	"repro/internal/ml"
)

func main() {
	// Ctrl-C / SIGTERM cancels the training pools cleanly instead of
	// killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "trainctl:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	kind := flag.String("kind", string(core.KindForest),
		"classifier kind: zeror|naivebayes|logistic|tree|forest|knn|boost")
	folds := flag.Int("folds", 10, "cross-validation folds")
	topk := flag.Int("topk", 0, "keep only the top-k features by information gain (0 = all)")
	seed := flag.Uint64("seed", 17, "training seed")
	jobs := flag.Int("jobs", 0, "training worker pool size (0 = all cores; the model is identical for any value)")
	out := flag.String("out", "model.json", "model output path (a .bin path is written in the binary format, any other as JSON)")
	arff := flag.String("arff", "", "also export the many_vulns training set as Weka ARFF")
	tune := flag.Bool("tune", false, "grid-search random-forest hyperparameters first")
	flag.Parse()

	save := secmetric.SaveModel
	if strings.HasSuffix(*out, ".bin") {
		save = secmetric.SaveModelBinary
	}
	if _, err := core.NewClassifier(core.ModelKind(*kind)); err != nil {
		return err
	}
	fmt.Println("generating corpus...")
	c, err := secmetric.DefaultCorpus()
	if err != nil {
		return err
	}
	tb := core.NewTestbed(c)
	if *arff != "" {
		ds, err := tb.DatasetFor(core.HypManyVulns)
		if err != nil {
			return err
		}
		f, err := os.Create(*arff)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := ml.WriteARFF(f, "secmetric-many-vulns", ds); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d instances, %d attributes)\n", *arff, ds.N(), ds.P())
	}
	if *tune {
		fmt.Println("tuning random-forest hyperparameters (10-fold CV on many_vulns)...")
		results, err := core.TuneForest(tb, core.HypManyVulns, nil, 10, *seed)
		if err != nil {
			return err
		}
		fmt.Print(core.RenderTuning(results))
	}
	cfg := secmetric.TrainConfig{
		Kind:        core.ModelKind(*kind),
		Folds:       *folds,
		TopFeatures: *topk,
		Seed:        *seed,
		Jobs:        *jobs,
	}
	fmt.Printf("training %s with %d-fold cross validation...\n", *kind, *folds)
	model, err := secmetric.TrainContext(ctx, c, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %6s | %s\n", "hypothesis", "base", "cross-validation")
	for _, hm := range model.Hypotheses {
		fmt.Printf("%-14s %6.2f | %s\n", hm.Hypothesis.Name, hm.BaseRate, hm.CV)
	}
	fmt.Printf("count regression: RMSE=%.3f MAE=%.3f R2=%.3f (log10 space)\n",
		model.CountEval.RMSE, model.CountEval.MAE, model.CountEval.R2)
	if err := save(model, *out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}
