package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	bootTimeout    = 10 * time.Second
	requestTimeout = 10 * time.Second
	pollInterval   = 500 * time.Microsecond
	stopGrace      = 5 * time.Second
)

// server is one paradigmd child process.
type server struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	dir    string        // its checkpoint directory, removed by stop
	exited chan struct{} // closed once the process has been waited for
	boot   time.Duration // exec to the listening line
}

// startServer launches paradigmd on a free port with a checkpoint
// directory of its own and waits for its "listening on" line.
func startServer(bin, tmp string, workers int) (*server, error) {
	dir, err := os.MkdirTemp(tmp, "ckpt-")
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers),
		"-queue", "256", "-machine", "cm5", "-checkpoint-dir", dir)
	cmd.Stderr = pw
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	pw.Close()
	s := &server{cmd: cmd, dir: dir, exited: make(chan struct{})}
	// The log reader finds the address, then keeps draining so the server
	// never blocks on a full pipe; the process is waited for only after
	// the pipe reached EOF.
	addr := make(chan string, 1)
	go func() {
		defer close(s.exited)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "paradigmd listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		pr.Close()
		_ = cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.base, s.boot = "http://"+a, time.Since(t0)
		return s, nil
	case <-s.exited:
		os.RemoveAll(dir)
		return nil, errors.New("paradigmd exited before listening")
	case <-time.After(bootTimeout):
		s.stop()
		return nil, fmt.Errorf("paradigmd did not listen within %v", bootTimeout)
	}
}

// stop ends the process — SIGTERM, then SIGKILL after a grace period —
// waits until it is gone and removes its checkpoint directory.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(stopGrace):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	os.RemoveAll(s.dir)
}

// procStatusKB reads one kB-valued field (VmHWM, VmRSS) of a process's
// /proc status; pid 0 is this process.
func procStatusKB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseFloat(strings.Fields(rest)[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s field", path, field)
}

// client is one load-generating connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// jobView is the part of paradigmd's job status the benchmark reads.
type jobView struct {
	ID        string  `json:"id"`
	Status    string  `json:"status"`
	Error     string  `json:"error"`
	Phi       float64 `json:"phi"`
	Actual    float64 `json:"actual"`
	Digest    string  `json:"digest"`
	Coalesced bool    `json:"coalesced"`
}

func (c *client) submit(sp spec) (string, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit %s: %s: %s", sp.key(), resp.Status, bytes.TrimSpace(data))
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &accepted); err != nil {
		return "", err
	}
	return accepted.ID, nil
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

func (c *client) poll(id string) (jobView, error) {
	var v jobView
	data, err := c.get("/jobs/" + id)
	if err != nil {
		return v, err
	}
	return v, json.Unmarshal(data, &v)
}

// scrape reads /metrics into name → value for the counters and gauges,
// whose lines read "<kind> <name> <value>" (labelled series keep their
// labels in the name).
func (c *client) scrape() (map[string]float64, error) {
	data, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && (f[0] == "counter" || f[0] == "gauge") {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				out[f[1]] = v
			}
		}
	}
	return out, nil
}

// jobResult is one job as its client saw it.
type jobResult struct {
	spec  spec
	view  jobView
	ms    float64 // submit sent → terminal status observed
	polls int
	err   error
}

// runJobs drives the bursts through the server in a closed loop: each
// client takes the next burst only after every job of its previous one
// reached a terminal state. It submits a burst's jobs back to back, then
// polls them in order. Each client submits under a tenant of its own:
// coalescing is scoped to a tenant, so two clients never join each
// other's jobs and only a burst coalesces. With a tracer, every job is a root span with its submit and
// its polls as children; the root's self time is the time spent asleep
// between polls or busy with the burst's other jobs.
func runJobs(ctx context.Context, clients []*client, bursts [][]spec, tr *tracer) ([]jobResult, time.Duration) {
	offsets := make([]int, len(bursts)+1)
	for i, b := range bursts {
		offsets[i+1] = offsets[i] + len(b)
	}
	results := make([]jobResult, offsets[len(bursts)])
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				bi := int(next.Add(1)) - 1
				if bi >= len(bursts) {
					return
				}
				c.runBurst(ctx, bursts[bi], results[offsets[bi]:offsets[bi+1]], offsets[bi], ci, tr)
			}
		}()
	}
	wg.Wait()
	return results, time.Since(t0)
}

func (c *client) runBurst(ctx context.Context, burst []spec, out []jobResult, firstOp, ci int, tr *tracer) {
	sent := make([]time.Time, len(burst))
	roots := make([]int, len(burst))
	for i, sp := range burst {
		sp.Tenant = "client-" + strconv.Itoa(ci)
		out[i].spec = sp
		sent[i] = time.Now()
		roots[i] = tr.begin(firstOp+i, 0, spanJob)
		child := tr.begin(firstOp+i, roots[i], spanSubmit)
		out[i].view.ID, out[i].err = c.submit(sp)
		tr.end(child, nil)
	}
	for i := range burst {
		r := &out[i]
		for r.err == nil {
			child := tr.begin(firstOp+i, roots[i], spanPoll)
			r.view, r.err = c.poll(r.view.ID)
			tr.end(child, nil)
			r.polls++
			if r.err != nil || r.view.Status == "done" || r.view.Status == "failed" {
				break
			}
			switch {
			case ctx.Err() != nil:
				r.err = ctx.Err()
			case time.Since(sent[i]) > opDeadline:
				r.err = fmt.Errorf("job %s not terminal after %v", r.view.ID, opDeadline)
			default:
				time.Sleep(pollInterval)
			}
		}
		r.ms = ms(time.Since(sent[i]))
		tr.end(roots[i], map[string]float64{"polls": float64(r.polls)})
	}
}

// Span names of the service client.
const (
	spanJob    = "job"
	spanSubmit = "paradigmd.submit"
	spanPoll   = "paradigmd.poll"
)

// single wraps each spec in a burst of its own.
func single(specs []spec) [][]spec {
	out := make([][]spec, len(specs))
	for i := range specs {
		out[i] = specs[i : i+1]
	}
	return out
}
