package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/rng"
)

// The service workload: wsanalyzed as a child process, driven by a
// closed loop of clients that each submit a job, poll it to
// completion, and only then submit the next — callers that wait for
// each reply.
const (
	serviceClients = 2 // capped at the CPU count
	serviceMaxJobs = 2 // wsanalyzed -max-jobs
	pollInterval   = 5 * time.Millisecond
	healthPoll     = time.Millisecond
	startTimeout   = 10 * time.Second
	jobTimeout     = 60 * time.Second
)

// serverProc is one running wsanalyzed.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	done   chan struct{}
	stderr bytes.Buffer
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer execs wsanalyzed and waits until /healthz answers 200,
// returning the time from exec to ready. A port lost between picking
// and binding makes the server exit; the start is then retried.
func startServer(ctx context.Context, bin string) (*serverProc, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		s := &serverProc{base: "http://" + addr, done: make(chan struct{})}
		s.cmd = exec.CommandContext(ctx, bin, "-addr", addr, "-max-jobs", strconv.Itoa(serviceMaxJobs))
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
		s.cmd.Stderr = &s.stderr
		start := clock.Now()
		if err := s.cmd.Start(); err != nil {
			return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
		}
		go func() {
			_ = s.cmd.Wait() // the exit status is read from ProcessState
			close(s.done)
		}()
		setup, err := s.waitHealthy(start)
		if err == nil {
			return s, setup, nil
		}
		lastErr = err
		s.stop()
	}
	return nil, 0, lastErr
}

// waitHealthy polls /healthz until it answers 200, returning the time
// since start, or fails once the server exits or startTimeout passes.
func (s *serverProc) waitHealthy(start time.Time) (time.Duration, error) {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for clock.Now().Sub(start) < startTimeout {
		if resp, err := hc.Get(s.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return clock.Now().Sub(start), nil
			}
		}
		select {
		case <-s.done:
			return 0, fmt.Errorf("wsanalyzed exited: %s", bytes.TrimSpace(s.stderr.Bytes()))
		case <-time.After(healthPoll):
		}
	}
	return 0, fmt.Errorf("wsanalyzed not ready after %v", startTimeout)
}

// stop drains the server with SIGTERM, as an operator would, and waits
// for it to exit; it kills a server that does not drain in time.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(jobTimeout):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// jobSample is one service job as its client saw it.
type jobSample struct {
	kind      int     // index of the request kind in the workload's jobs
	hostScale float64 // of the job's segment (see hostScale)
	err       error
	latency   time.Duration // submit to done
	submit    time.Duration // POST round trip
	queueWait time.Duration // accepted to first seen running
	polls     int
	resultLen int
}

// runJob submits one request and polls it to completion, checking the
// result against the committed digest.
func runJob(ctx context.Context, hc *http.Client, base string, j job) (s jobSample) {
	t0 := clock.Now()
	var accepted struct {
		ID string `json:"id"`
	}
	if s.err = call(ctx, hc, http.MethodPost, base+"/analyze", j.req, http.StatusAccepted, &accepted); s.err != nil {
		return s
	}
	tAccepted := clock.Now()
	s.submit = tAccepted.Sub(t0)
	var running time.Time
	for {
		select {
		case <-ctx.Done():
			s.err = ctx.Err()
			return s
		case <-time.After(pollInterval):
		}
		var state struct {
			Status string `json:"status"`
			Result string `json:"result"`
			Error  string `json:"error"`
		}
		s.polls++
		if s.err = call(ctx, hc, http.MethodGet, base+"/jobs/"+accepted.ID, "", http.StatusOK, &state); s.err != nil {
			return s
		}
		now := clock.Now()
		if state.Status != "queued" && running.IsZero() {
			running = now
			s.queueWait = running.Sub(tAccepted)
		}
		switch state.Status {
		case "failed":
			s.err = fmt.Errorf("%s failed: %s", j.key, state.Error)
			return s
		case "done":
			s.latency = now.Sub(t0)
			s.resultLen = len(state.Result)
			sum := sha256.Sum256([]byte(state.Result))
			if got := hex.EncodeToString(sum[:]); got != digests[j.key] {
				s.err = fmt.Errorf("%s: result digest %.12s, want %.12s", j.key, got, digests[j.key])
			}
			return s
		}
		if clock.Now().Sub(t0) > jobTimeout {
			s.err = fmt.Errorf("%s: not done after %v", j.key, jobTimeout)
			return s
		}
	}
}

func call(ctx context.Context, hc *http.Client, method, url, body string, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// heapStats reads the server's cumulative allocation and GC count from
// the MemStats footer of its pprof heap profile.
func heapStats(base string) (totalAlloc, numGC uint64, err error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " = "); ok {
			switch k {
			case "# TotalAlloc":
				totalAlloc, err = strconv.ParseUint(v, 10, 64)
			case "# NumGC":
				numGC, err = strconv.ParseUint(v, 10, 64)
			}
			if err != nil {
				return 0, 0, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if totalAlloc == 0 {
		return 0, 0, errors.New("no MemStats in heap profile")
	}
	return totalAlloc, numGC, nil
}

// serviceSegment is how long the clients run between calibrations.
// Each segment is a closed loop of its own: it ends once every client's
// last job is done.
const serviceSegment = 5 * time.Second

// runSegment runs the closed loop for dur. Client c takes its next
// request kind from order at position pos[c], which it advances.
func runSegment(ctx context.Context, base string, w *workloadDef, order, pos []int, dur time.Duration) ([]jobSample, time.Duration) {
	start := clock.Now()
	per := make([][]jobSample, len(pos))
	var wg sync.WaitGroup
	for c := range pos {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// One connection per client.
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			for clock.Now().Sub(start) < dur && ctx.Err() == nil {
				k := order[pos[c]%len(order)]
				pos[c]++
				s := runJob(ctx, hc, base, w.jobs[k])
				s.kind = k
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []jobSample
	for _, cs := range per {
		all = append(all, cs...)
	}
	return all, clock.Now().Sub(start)
}

// measureService starts wsanalyzed probes times to measure set-up, then
// once more to serve a closed loop of clients for budget, in segments
// bracketed by calibrations that scale the segment's times. Each client
// cycles through the workload's request kinds in a seed-drawn order,
// starting at its own offset.
func measureService(ctx context.Context, w *workloadDef, seed uint64, budget time.Duration, bin string, probes int, rec *runRecord) {
	var setups []float64
	cals := []float64{calibrate().Seconds()}
	for i := 0; i < probes; i++ {
		s, setup, err := startServer(ctx, bin)
		if err != nil {
			rec.Attempted++
			rec.fail("set-up probe: %v", err)
			continue
		}
		setups = append(setups, setup.Seconds())
		s.stop()
	}
	srv, setup, err := startServer(ctx, bin)
	if err != nil {
		rec.Attempted++
		rec.fail("%v", err)
		return
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	setups = append(setups, setup.Seconds())
	cals = append(cals, calibrate().Seconds())
	k := hostScale(cals[0], cals[1])
	for i := range setups {
		setups[i] *= k
	}

	order := rng.New(seed).Perm(len(w.jobs))
	pos := make([]int, min(serviceClients, runtime.NumCPU()))
	for c := range pos {
		pos[c] = c
	}
	var samples []jobSample
	var elapsed float64 // scaled seconds
	for start := clock.Now(); clock.Now().Sub(start) < budget && ctx.Err() == nil; {
		seg, d := runSegment(ctx, srv.base, w, order, pos, min(serviceSegment, budget-clock.Now().Sub(start)))
		cals = append(cals, calibrate().Seconds())
		k := hostScale(cals[len(cals)-2], cals[len(cals)-1])
		for i := range seg {
			seg[i].hostScale = k
		}
		samples = append(samples, seg...)
		elapsed += k * d.Seconds()
	}

	var lat, submit, wait []float64
	byKind := make([][]float64, len(w.jobs))
	rawByKind := make([][]float64, len(w.jobs))
	var polls, resultLen int
	for _, s := range samples {
		rec.Attempted++
		rec.Iterations++
		if s.err != nil {
			rec.fail("%v", s.err)
			continue
		}
		l := s.hostScale * s.latency.Seconds()
		lat = append(lat, l)
		byKind[s.kind] = append(byKind[s.kind], l)
		rawByKind[s.kind] = append(rawByKind[s.kind], s.latency.Seconds())
		submit = append(submit, float64(s.submit)/1e6)
		wait = append(wait, float64(s.queueWait)/1e6)
		polls += s.polls
		resultLen += s.resultLen
	}
	rss, rssErr := peakRSS(strconv.Itoa(srv.cmd.Process.Pid))
	totalAlloc, numGC, heapErr := heapStats(srv.base)
	srv.stop()
	ru, _ := srv.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	srv = nil
	for _, err := range []error{rssErr, heapErr} {
		if err != nil {
			rec.fail("server stats: %v", err)
		}
	}
	if len(lat) == 0 || ru == nil {
		return
	}
	n := float64(len(lat))
	rec.set("wall_s", kindMedian(byKind), nil)
	rec.set("setup_s", median(setups), setups)
	rec.set("peak_rss_mb", float64(rss)/1e6, nil)
	rec.set("jobs_per_s", n/elapsed, nil)
	rec.set("job_p90_ms", 1000*percentile(lat, 0.9), nil)
	rec.set("raw.wall_s", kindMedian(rawByKind), nil)
	rec.set("raw.calibration_s", median(cals), cals)
	rec.set("wsanalyzed.submit_p90_ms", percentile(submit, 0.9), submit)
	rec.set("wsanalyzed.queue_wait_p50_ms", median(wait), wait)
	rec.set("wsanalyzed.polls_per_job", float64(polls)/n, nil)
	rec.set("wsanalyzed.result_kb", float64(resultLen)/n/1e3, nil)
	rec.set("runtime.alloc_mb", float64(totalAlloc)/1e6, nil)
	rec.set("runtime.gc_cycles", float64(numGC), nil)
	rec.set("runtime.cpu_s", float64(syscall.TimevalToNsec(ru.Utime)+syscall.TimevalToNsec(ru.Stime))/1e9, nil)
}

// kindMedian is the typical job time of a mix: the mean over request
// kinds of each kind's median. The kinds' latencies form separate
// modes, so the median of the whole mix would jump between them as
// their counts shift by one.
func kindMedian(byKind [][]float64) float64 {
	var ms []float64
	for _, l := range byKind {
		if len(l) > 0 {
			ms = append(ms, median(l))
		}
	}
	return mean(ms)
}
