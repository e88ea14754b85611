package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	secmetric "repro"
	"repro/internal/store/findex"
	"repro/pkg/api"
	"repro/pkg/client"
)

// waitAddr polls for the address serveAndDrain writes to addrFile.
func waitAddr(t *testing.T, addrFile string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return string(data)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no address written to %s", addrFile)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeAndDrainAnswersInFlight cancels serveAndDrain's context while n
// requests are inside the handler. The listener must close at once (a new
// connection is refused), every held request must still be answered once
// its handler returns, and serveAndDrain must return nil after logging the
// clean drain.
func TestServeAndDrainAnswersInFlight(t *testing.T) {
	var logs bytes.Buffer
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	const n = 8
	entered := make(chan struct{}, n)
	release := make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	defer free()
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		fmt.Fprint(w, "answered")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrFile := filepath.Join(t.TempDir(), "addr")
	done := make(chan error, 1)
	go func() { done <- serveAndDrain(ctx, h, "127.0.0.1:0", addrFile, time.Minute) }()
	addr := waitAddr(t, addrFile)

	answers := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Get("http://" + addr + "/")
			if err != nil {
				answers <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && (resp.StatusCode != http.StatusOK || string(body) != "answered") {
				err = fmt.Errorf("status %d body %q", resp.StatusCode, body)
			}
			answers <- err
		}()
	}
	for i := 0; i < n; i++ {
		<-entered
	}
	cancel()
	for deadline := time.Now().Add(10 * time.Second); ; {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting connections after the drain began")
		}
		time.Sleep(5 * time.Millisecond)
	}
	free()
	for i := 0; i < n; i++ {
		if err := <-answers; err != nil {
			t.Errorf("request in flight at the drain: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("serveAndDrain: %v", err)
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Fatalf("no clean-drain log line:\n%s", logs.String())
	}
}

// TestRunDrainsWithRequestsInFlight boots a -db daemon with one worker and a
// router in front of it, both through run as main does, and cancels their
// shared context with requests admitted on the daemon: one running, the
// rest queued behind it. Every request must be answered through the router,
// both runs must return nil, and the reopened -db must hold a run for every
// answered score, since history closes only after the drain.
func TestRunDrainsWithRequestsInFlight(t *testing.T) {
	dir := t.TempDir()
	corpus, err := secmetric.DefaultCorpus()
	if err != nil {
		t.Fatal(err)
	}
	model, err := secmetric.Train(corpus, secmetric.TrainConfig{Kind: secmetric.KindLogistic, Folds: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	modelFile := filepath.Join(dir, "model.json")
	if err := secmetric.SaveModel(model, modelFile); err != nil {
		t.Fatal(err)
	}
	dbPath := filepath.Join(dir, "history.db")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exits := make(chan error, 2)
	start := func(name string, args ...string) string {
		addrFile := filepath.Join(dir, name+".addr")
		args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
		go func() { exits <- run(ctx, args) }()
		return waitAddr(t, addrFile)
	}
	daemonAddr := start("daemon", "-model", modelFile, "-db", dbPath, "-workers", "1", "-jobs", "1")
	routerAddr := start("router", "-route", "http://"+daemonAddr, "-health-interval", "1h")

	base, err := client.TreeFromDir("../../examples/vulnapp")
	if err != nil {
		t.Fatal(err)
	}
	// The first tree's distinct replicas keep the worker busy while the
	// others queue behind it.
	trees := []api.Tree{{Name: "drain-0"}}
	for i := 0; i < 200; i++ {
		for _, f := range base.Files {
			trees[0].Files = append(trees[0].Files, api.File{
				Path:    fmt.Sprintf("r%03d/%s", i, f.Path),
				Content: f.Content + fmt.Sprintf("\n// replica %d\n", i),
			})
		}
	}
	for i := 1; i < 4; i++ {
		trees = append(trees, api.Tree{Name: fmt.Sprintf("drain-%d", i), Files: base.Files})
	}

	daemon := client.New("http://" + daemonAddr)
	waitAdmitted := func(queued int64) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); ; {
			h, err := daemon.Health(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if h.InFlight == 1 && h.Queued == queued {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("never saw %d requests admitted with one running: %+v", queued, h)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	router := client.New("http://" + routerAddr)
	answers := make(chan error, len(trees))
	score := func(tree api.Tree) {
		go func() {
			_, err := router.Score(context.Background(), api.ScoreRequest{Tree: tree})
			answers <- err
		}()
	}
	score(trees[0])
	waitAdmitted(1)
	for _, tree := range trees[1:] {
		score(tree)
	}
	waitAdmitted(int64(len(trees)))
	cancel()

	for range trees {
		if err := <-answers; err != nil {
			t.Errorf("request in flight at the drain: %v", err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := <-exits; err != nil {
			t.Errorf("run: %v", err)
		}
	}
	if t.Failed() {
		return
	}

	hist, err := findex.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()
	runs, _, err := hist.QueryString("", findex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]int{}
	for _, r := range runs {
		recorded[r.Repo]++
	}
	for _, tree := range trees {
		if recorded[tree.Name] != 1 {
			t.Errorf("answered score of %s recorded %d times in the reopened -db, want 1", tree.Name, recorded[tree.Name])
		}
	}
}

// TestRunStopsTrainingOnCancel: a signal while -train-default trains ends
// run with the context's error instead of serving.
func TestRunStopsTrainingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-addr", "127.0.0.1:0", "-train-default"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run with a canceled context: %v, want context.Canceled", err)
	}
}
