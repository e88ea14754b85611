// Command daemonsmoke is the end-to-end drill verify.sh runs for what only
// real processes show. It boots secmetricd binaries itself and drives them
// over HTTP through pkg/client:
//
//	-mode drain:
//	  * a daemon that receives SIGTERM with requests in flight (one
//	    running, the rest queued behind it) answers every one of them
//	    with the same report, then exits 0 and logs "drained cleanly"
//
//	-mode fleet:
//	  * three -db backends behind the consistent-hash router answer every
//	    repository; SIGKILLing one mid-load leaves every repository
//	    answering its baseline bytes (its keys slide to the ring
//	    successor), and restarting it on its old address re-admits it
//
// Byte parity (CLI vs daemon, batch vs stream, delta vs cold, solo vs
// fleet), deadlines, and 429 backpressure are Go tests in cmd/secmetric,
// internal/server, and internal/router. Exit status 0 means every
// assertion held.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/pkg/api"
	"repro/pkg/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daemonsmoke: ")
	var (
		mode      = flag.String("mode", "drain", "drain | fleet")
		daemonBin = flag.String("daemon", "", "path to the secmetricd binary to boot")
		modelFile = flag.String("model", "", "model file every booted daemon serves")
		dir       = flag.String("dir", "examples/vulnapp", "source directory to score")
		requests  = flag.Int("requests", 8, "drain mode: requests in flight at SIGTERM")
		replicas  = flag.Int("replicas", 300, "drain mode: file replicas in the tree, sized so the first request is still running when the rest are queued")
	)
	flag.Parse()
	if *daemonBin == "" || *modelFile == "" {
		log.Fatal("-daemon and -model are required")
	}
	if err := run(*mode, *daemonBin, *modelFile, *dir, *requests, *replicas); err != nil {
		log.Fatal(err)
	}
	fmt.Println("daemonsmoke: OK (" + *mode + ")")
}

func run(mode, daemonBin, modelFile, dir string, requests, replicas int) error {
	tmp, err := os.MkdirTemp("", "daemonsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	ctx := context.Background()
	switch mode {
	case "drain":
		return runDrain(ctx, tmp, daemonBin, modelFile, dir, requests, replicas)
	case "fleet":
		return runFleet(ctx, tmp, daemonBin, modelFile, dir)
	default:
		return fmt.Errorf("unknown -mode %q", mode)
	}
}

// canon re-marshals any JSON-representable value with sorted keys and
// fixed indentation, so two values are byte-identical iff they are equal.
func canon(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var x any
	if err := json.Unmarshal(raw, &x); err != nil {
		return nil, err
	}
	return json.MarshalIndent(x, "", " ")
}

// daemonProc is one secmetricd this smoke booted.
type daemonProc struct {
	name string
	cmd  *exec.Cmd
	addr string
	args []string // the arguments after the address flags, for restarts
	logP string
	done chan error // receives the process's exit once
}

// startDaemon boots bin with extra plus addr bookkeeping and waits for the
// address file. addr == "" picks an ephemeral port.
func startDaemon(bin, tmp, name, addr string, extra ...string) (*daemonProc, error) {
	addrFile := filepath.Join(tmp, name+".addr")
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	logP := filepath.Join(tmp, name+".log")
	logf, err := os.Create(logP)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-addr-file", addrFile}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemonProc{name: name, cmd: cmd, args: extra, logP: logP, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			d.addr = string(data)
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			logData, _ := os.ReadFile(logP)
			return nil, fmt.Errorf("%s never wrote its address; log:\n%s", name, logData)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// wait waits for the process to exit, bounded by timeout.
func (d *daemonProc) wait(timeout time.Duration) error {
	select {
	case err := <-d.done:
		d.done <- err // keep the exit readable for later callers
		return err
	case <-time.After(timeout):
		return fmt.Errorf("%s did not exit within %v", d.name, timeout)
	}
}

// stop drains the process with SIGTERM, killing it if it hangs.
func (d *daemonProc) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	if d.wait(10*time.Second) != nil {
		d.kill()
	}
}

// kill SIGKILLs the process: a backend dying without a drain.
func (d *daemonProc) kill() {
	d.cmd.Process.Kill()
	d.wait(10 * time.Second)
}

// runDrain sends SIGTERM while one request runs and the rest wait for the
// single worker, and requires every one of them answered before a clean
// exit.
func runDrain(ctx context.Context, tmp, bin, modelFile, dir string, requests, replicas int) error {
	d, err := startDaemon(bin, tmp, "drain", "", "-model", modelFile,
		"-workers", "1", "-jobs", "1", "-queue", strconv.Itoa(requests))
	if err != nil {
		return err
	}
	defer d.stop()
	c := client.New("http://" + d.addr)

	// Distinct contents per replica, so the first request deep-analyzes
	// every file and the rest queue behind it.
	base, err := client.TreeFromDir(dir)
	if err != nil {
		return err
	}
	big := api.Tree{Name: "drain"}
	for i := 0; i < replicas; i++ {
		for _, f := range base.Files {
			big.Files = append(big.Files, api.File{
				Path:    fmt.Sprintf("r%04d/%s", i, f.Path),
				Content: f.Content + fmt.Sprintf("\n// replica %d\n", i),
			})
		}
	}
	reports := make([][]byte, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Score(ctx, api.ScoreRequest{Tree: big})
			if err == nil {
				reports[i], err = canon(resp.Report)
			}
			errs[i] = err
		}(i)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err != nil {
			return fmt.Errorf("healthz: %w", err)
		}
		if h.Queued == int64(requests) && h.InFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("never saw all %d requests admitted (last healthz: %+v); raise -replicas", requests, h)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	log.Printf("SIGTERM with %d requests admitted (1 running, %d queued)", requests, requests-1)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("request %d in flight at SIGTERM: %w", i, err)
		}
		if string(reports[i]) != string(reports[0]) {
			return fmt.Errorf("request %d answered different report bytes than request 0", i)
		}
	}
	if err := d.wait(30 * time.Second); err != nil {
		return fmt.Errorf("drain exit: %w", err)
	}
	logData, err := os.ReadFile(d.logP)
	if err != nil {
		return err
	}
	if !strings.Contains(string(logData), "drained cleanly") {
		return fmt.Errorf("no clean-drain log line:\n%s", logData)
	}
	log.Printf("all %d answered with the same report; exit 0, drained cleanly", requests)
	return nil
}

// routerHealthy polls the router's /healthz until want backends report
// healthy (or the deadline passes).
func routerHealthy(routerAddr string, want int, deadline time.Duration) error {
	end := time.Now().Add(deadline)
	for {
		var health api.RouterHealth
		resp, err := http.Get("http://" + routerAddr + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
		}
		if err == nil {
			healthy := 0
			for _, b := range health.Backends {
				if b.Healthy {
					healthy++
				}
			}
			if healthy == want {
				return nil
			}
		}
		if time.Now().After(end) {
			return fmt.Errorf("router never reached %d healthy backend(s): %+v", want, health.Backends)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// runFleet boots three -db backends and the router, baselines every repo,
// SIGKILLs one backend under load, and requires every repo to keep
// answering its baseline bytes through the outage and after the restart.
func runFleet(ctx context.Context, tmp, bin, modelFile, dir string) error {
	backends := make([]*daemonProc, 3)
	routeList := make([]string, len(backends))
	for i := range backends {
		name := fmt.Sprintf("b%d", i+1)
		b, err := startDaemon(bin, tmp, name, "", "-model", modelFile, "-workers", "2", "-queue", "64",
			"-db", filepath.Join(tmp, name+".db"))
		if err != nil {
			return err
		}
		defer b.stop()
		backends[i], routeList[i] = b, "http://"+b.addr
	}
	router, err := startDaemon(bin, tmp, "router", "", "-route", strings.Join(routeList, ","), "-health-interval", "100ms")
	if err != nil {
		return err
	}
	defer router.stop()
	log.Printf("fleet up: backends %v, router %s", routeList, router.addr)
	c := client.New("http://" + router.addr)

	base, err := client.TreeFromDir(dir)
	if err != nil {
		return err
	}
	const repos = 12
	score := func(i int) ([]byte, error) {
		name := fmt.Sprintf("fleet-%d", i)
		resp, err := c.Score(ctx, api.ScoreRequest{Tree: api.Tree{Name: name, Files: base.Files}})
		if err != nil {
			return nil, fmt.Errorf("score %s: %w", name, err)
		}
		return canon(resp.Report)
	}
	baseline := make([][]byte, repos)
	for i := range baseline {
		if baseline[i], err = score(i); err != nil {
			return err
		}
	}
	sweep := func(when string) error {
		for i, want := range baseline {
			got, err := score(i)
			if err != nil {
				return fmt.Errorf("%s: %w", when, err)
			}
			if string(got) != string(want) {
				return fmt.Errorf("%s: fleet-%d bytes differ from baseline", when, i)
			}
		}
		return nil
	}

	// Load from four callers while one backend dies. Requests in flight on
	// the victim at the kill instant may fail; the sweeps are the contract.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok, failed int
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := (w*31 + i) % repos
				got, err := score(r)
				mu.Lock()
				if err == nil && string(got) == string(baseline[r]) {
					ok++
				} else {
					failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(500 * time.Millisecond)
	victim := backends[1]
	victim.kill()
	log.Printf("killed backend %s (%s) under load", victim.name, victim.addr)
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if ok == 0 {
		return fmt.Errorf("kill drill: no request succeeded under load (%d failures)", failed)
	}
	log.Printf("kill drill load: %d correct responses, %d transient failures", ok, failed)

	if err := routerHealthy(router.addr, 2, 10*time.Second); err != nil {
		return fmt.Errorf("after kill: %w", err)
	}
	if err := sweep("post-kill"); err != nil {
		return err
	}
	log.Printf("post-kill: all %d repos answer baseline bytes through 2 surviving backends", repos)

	restarted, err := startDaemon(bin, tmp, victim.name+"-restart", victim.addr, victim.args...)
	if err != nil {
		return fmt.Errorf("restart %s: %w", victim.name, err)
	}
	defer restarted.stop()
	if err := routerHealthy(router.addr, 3, 15*time.Second); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	if err := sweep("post-restart"); err != nil {
		return err
	}
	log.Printf("recovery: backend re-admitted; all repos answer baseline bytes with the fleet whole")
	return nil
}
