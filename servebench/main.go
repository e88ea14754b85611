// Command servebench is the serving-path benchmark. Closed-loop clients
// send requests through pkg/client over loopback sockets into secmetricd's
// handler (and through the shard router for the fleet workload), measure
// what a caller waiting for each answer sees, and check every answer.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash servebench/run.sh --workload score_warm --seed 1 --seconds 20 --trace 0
//	bash servebench/run.sh --seed 1 --report r1.json            # every workload
//	bash servebench/run.sh --compare a1.json a2.json -- b1.json b2.json
//
// It prints each metric as "<workload> <metric> <value> <unit>" and ends
// each workload with one JSON line: correct, attempted, failed, metrics.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. It exits 1 if any answer was wrong or a measurement
// precondition failed. README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/bench"
)

// gcPercent is the GOGC every run measures at.
const gcPercent = 400

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 20, "length of the measured window")
		traced  = fs.Int("trace", 0, "0 measures end-to-end metrics, 1 the per-layer ones")
		report  = fs.String("report", "", "also write the results as JSON to this file")
		compare = fs.Bool("compare", false, "compare two sets of reports: A.json... -- B.json...")
		spec    = fs.String("spec", "BENCHMARK.json", "benchmark declaration holding the bounds, for -compare")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		return runCompare(os.Stdout, *spec, fs.Args())
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *traced)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := workloadByName(*name); w != nil {
		ws = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", *name)
	}

	// The clients and daemons share this process and its few MB of live
	// heap, so at the default GOGC a collection would start every few MB
	// allocated, far more often than in a daemon whose feature cache holds a
	// real working set, and when it starts would set much of the run-to-run
	// spread. GOGC 400 is still well below a production daemon's GC rate.
	debug.SetGCPercent(gcPercent)
	blob, err := modelBlob(bench.ModelTrees)
	if err != nil {
		return err
	}
	fx, err := newFixtures(*seed, fullScale, blob, ws)
	if err != nil {
		return err
	}
	ctx := context.Background()
	window := time.Duration(*seconds * float64(time.Second))
	var results []*result
	allCorrect := true
	for _, w := range ws {
		fmt.Fprintf(os.Stderr, "servebench: %s seed %d, request stream sha256 %s\n", w.name, *seed, streamDigest(w, fx, 64))
		measure := runEndToEnd
		if *traced == 1 {
			measure = runPerLayer
		}
		r, err := measure(ctx, w, fx, window)
		if err != nil {
			return err
		}
		if err := printResult(r); err != nil {
			return err
		}
		results = append(results, r)
		allCorrect = allCorrect && r.Correct
	}
	if *report != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*report, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allCorrect {
		return fmt.Errorf("a run was not correct; see its problems above")
	}
	return nil
}

// printResult writes one line per metric, then the JSON result line.
func printResult(r *result) error {
	for _, n := range r.sortedNames() {
		m := r.Metrics[n]
		fmt.Printf("%s %s %v %s\n", r.Workload, n, m.Value, m.Unit)
	}
	fmt.Printf("%s ops_attempted %d count\n%s ops_failed %d count\n", r.Workload, r.Attempted, r.Workload, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(os.Stderr, "servebench: %s: %s\n", r.Workload, p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_rps"):
		return "ops/s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.Contains(name, ".ns_per_op"):
		return "ns"
	case strings.HasSuffix(name, ".allocs_per_op"):
		return "allocs"
	case strings.HasSuffix(name, "_bytes"):
		return "bytes"
	}
	return "count"
}
