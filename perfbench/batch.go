package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/workload"
)

//go:embed testdata/digests.json
var digestsJSON []byte

// digests maps a job key to the SHA-256 of its rendered output at the
// workload's scale and the paper's inputs (seed 1).
var digests = func() map[string]string {
	m := make(map[string]string)
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("testdata/digests.json: " + err.Error())
	}
	return m
}()

// setupProbes is how many set-up-only children a batch run starts
// before its timed iterations, so setup_s is a median of several cold
// starts even when few iterations fit the run.
const setupProbes = 5

// childResult is what a child process reports on its standard output.
type childResult struct {
	ReadyUnixNano int64         `json:"ready_unix_nano"`
	RunNanos      int64         `json:"run_nanos"`
	Digests       []string      `json:"digests"`
	PeakRSS       uint64        `json:"peak_rss"` // bytes
	TotalAlloc    uint64        `json:"total_alloc"`
	NumGC         uint32        `json:"num_gc"`
	Traced        *tracedResult `json:"traced,omitempty"`
	Error         string        `json:"error,omitempty"`
}

// tracedResult is a traced child's per-layer measurement.
type tracedResult struct {
	Metrics    map[string]metric `json:"metrics"`
	TotalNanos int64             `json:"total_nanos"` // the root spans' time
	Spans      []span            `json:"spans"`
}

// Child modes.
const (
	modeRun    = "run"    // render every job through the harness defaults
	modeSerial = "serial" // the same with Workers 1 and one profile shard, on inputs drawn from the seed
	modeSetup  = "setup"  // exit once set up
	modeTraced = "traced" // the traced replay, on inputs drawn from the seed
)

// runChild is the child process: build every program the workload
// runs (its set-up), then run its jobs in the given mode, hashing the
// output. A child is a cold process, as every tables invocation is.
func runChild(w *workloadDef, mode string, seed uint64) error {
	var res childResult
	if err := buildPrograms(w); err != nil {
		return err
	}
	res.ReadyUnixNano = clock.Now().UnixNano()
	start := clock.Now()
	switch mode {
	case modeSetup:
		return json.NewEncoder(os.Stdout).Encode(res)
	case modeRun, modeSerial:
		cfg := harness.Config{Scale: w.scale, Fused: true}
		if mode == modeSerial {
			cfg.Workers, cfg.ProfileShards = 1, 1
			// The harness reads these input sets at call time; the traced
			// run's reference moves them as the replay does.
			workload.InputRef = reseed(workload.InputRef, seed)
			workload.InputA = reseed(workload.InputA, seed)
			workload.InputB = reseed(workload.InputB, seed)
		}
		for _, j := range w.jobs {
			h := sha256.New()
			if err := j.run(harness.NewSuite(cfg), h); err != nil {
				res.Error = fmt.Sprintf("%s: %v", j.key, err)
				break
			}
			res.Digests = append(res.Digests, hex.EncodeToString(h.Sum(nil)))
		}
	case modeTraced:
		r, got, err := replayJobs(w, seed)
		if err != nil {
			res.Error = err.Error()
			break
		}
		res.Digests = got
		rec := &runRecord{}
		setLayerMetrics(r, rec)
		_, _, total, _ := r.t.layers()
		res.Traced = &tracedResult{Metrics: rec.Metrics, TotalNanos: total.Nanoseconds(), Spans: r.t.spans}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	res.RunNanos = clock.Now().Sub(start).Nanoseconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.TotalAlloc, res.NumGC = ms.TotalAlloc, ms.NumGC
	var err error
	if res.PeakRSS, err = peakRSS("self"); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// childSample is one child process as the parent measured it.
type childSample struct {
	wall, setup, cpu time.Duration
	res              childResult
}

// peakRSS reads a process's peak resident set (VmHWM) from /proc. The
// rusage maxrss of a child is no substitute: Go starts children with
// vfork, and exec folds the parent's own peak into the child's.
func peakRSS(pid string) (uint64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// spawnChild runs this binary as a child for w (in mode run unless args
// say otherwise), with GOMAXPROCS set to the machine's CPU count.
func spawnChild(ctx context.Context, w *workloadDef, args ...string) (childSample, error) {
	self, err := os.Executable()
	if err != nil {
		return childSample{}, err
	}
	cmd := exec.CommandContext(ctx, self, append([]string{"-child", w.name}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := clock.Now()
	err = cmd.Run()
	s := childSample{wall: clock.Now().Sub(start)}
	if err != nil {
		return s, fmt.Errorf("child %s: %v: %s", w.name, err, bytes.TrimSpace(stderr.Bytes()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
	}
	if err := json.Unmarshal(stdout.Bytes(), &s.res); err != nil {
		return s, fmt.Errorf("child %s: bad report: %v", w.name, err)
	}
	s.setup = time.Duration(s.res.ReadyUnixNano - start.UnixNano())
	if s.res.Error != "" {
		return s, fmt.Errorf("child %s: %s", w.name, s.res.Error)
	}
	return s, nil
}

// checkDigests compares a child's (or the traced run's) job digests
// with the committed ones.
func checkDigests(w *workloadDef, got []string) error {
	if len(got) != len(w.jobs) {
		return fmt.Errorf("%d outputs for %d jobs", len(got), len(w.jobs))
	}
	for i, j := range w.jobs {
		if want := digests[j.key]; got[i] != want {
			return fmt.Errorf("%s: output digest %.12s, want %.12s", j.key, got[i], want)
		}
	}
	return nil
}

// measureBatch is the untraced run of a batch workload: setup probes,
// then cold child iterations for as long as another one fits in the
// run's time. A calibration before and after the probes and after
// every iteration scales the times between them to the reference host.
func measureBatch(ctx context.Context, w *workloadDef, budget time.Duration, rec *runRecord) {
	start := clock.Now()
	var probes, setups, walls, rawWalls, rss []float64
	cals := []float64{calibrate().Seconds()}
	for i := 0; i < setupProbes; i++ {
		rec.Attempted++
		s, err := spawnChild(ctx, w, "-mode", modeSetup)
		if err != nil {
			rec.fail("%v", err)
			continue
		}
		probes = append(probes, s.setup.Seconds())
	}
	cals = append(cals, calibrate().Seconds())
	k := hostScale(cals[0], cals[1])
	for _, v := range probes {
		setups = append(setups, k*v)
	}

	var last time.Duration
	for rec.Iterations == 0 || clock.Now().Sub(start)+last <= budget {
		rec.Iterations++
		rec.Attempted++
		s, err := spawnChild(ctx, w)
		cals = append(cals, calibrate().Seconds())
		last = s.wall
		if err == nil {
			err = checkDigests(w, s.res.Digests)
		}
		if err != nil {
			rec.fail("iteration %d: %v", rec.Iterations, err)
			if ctx.Err() != nil {
				break
			}
			continue
		}
		k := hostScale(cals[len(cals)-2], cals[len(cals)-1])
		setups = append(setups, k*s.setup.Seconds())
		walls = append(walls, k*s.wall.Seconds())
		rawWalls = append(rawWalls, s.wall.Seconds())
		rss = append(rss, float64(s.res.PeakRSS)/1e6)
	}
	if len(walls) == 0 {
		return
	}
	var total float64
	for _, v := range walls {
		total += v
	}
	rec.set("wall_s", median(walls), walls)
	rec.set("setup_s", median(setups), setups)
	rec.set("peak_rss_mb", median(rss), rss)
	rec.set("jobs_per_s", float64(len(walls))/total, nil)
	rec.set("job_p90_ms", 1000*percentile(walls, 0.9), nil)
	rec.set("raw.wall_s", median(rawWalls), rawWalls)
	rec.set("raw.calibration_s", median(cals), cals)
}
