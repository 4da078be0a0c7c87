package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"slices"
	"strings"
	"sync"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/progcheck"
	"repro/internal/program"
)

// analyzeRequest is the POST /analyze body: which experiment to run and
// the harness configuration to run it under. Zero values select the
// same defaults the cmd/tables CLI uses, so an empty request reproduces
// `tables` exactly.
type analyzeRequest struct {
	// Kind selects the experiment: "all" (default), "table", "figure",
	// "ablations", "extras", "static" (the profile-free
	// static-vs-profiled comparison), "zoo" (the predictor zoo:
	// allocated vs conventional indexing for PAg, gshare, TAGE, and the
	// hashed perceptron), "graphs" (the graph workloads: branchy vs
	// branch-avoiding BFS/CC/triangle kernels under the zoo), or
	// "charact" (the branch predictability characterization: bias,
	// entropy, history sensitivity), or "progcheck" (run the static
	// program verifier over the assembly source in Program). The query
	// parameter ?mode= is an alias for Kind, so `POST
	// /analyze?mode=static` with an empty body works too.
	Kind string `json:"kind"`
	// Table (1-4) and Figure (3-4) select the numbered experiment for
	// kind "table" / "figure".
	Table  int `json:"table,omitempty"`
	Figure int `json:"figure,omitempty"`
	// Predictor restricts kind "zoo" or "graphs" to a comma-separated
	// subset of the zoo members (pag, gshare, tage, perceptron); empty
	// runs them all. The query parameter ?predictor= is an alias,
	// mirroring ?mode=.
	Predictor string `json:"predictor,omitempty"`
	// Program is the assembly source for kind "progcheck". It is parsed
	// and verified before the job enqueues: a program with failing
	// (error or warn) findings never reaches the job queue — the submit
	// gets a 400 whose body carries the findings.
	Program string `json:"program,omitempty"`
	// ProgCheck turns on the harness verification gate
	// (harness.Config.ProgCheck) for the experiment kinds: every
	// compiled workload program is verified before it runs, and
	// error-severity findings fail the job.
	ProgCheck bool `json:"progcheck,omitempty"`

	Scale        float64 `json:"scale,omitempty"`
	Threshold    uint64  `json:"threshold,omitempty"`
	CliqueBudget int     `json:"clique_budget,omitempty"`
	Workers      int     `json:"workers,omitempty"`
	Markdown     bool    `json:"markdown,omitempty"`
	Check        bool    `json:"check,omitempty"`
}

// maxScale caps a request's scale. Scale multiplies every schedule
// length, so it sets a job's run time; 100 is five times the largest
// scale the graph benchmarks are measured at.
const maxScale = 100

// maxBodyBytes caps a POST /analyze body: a request is a few fields plus
// an optional assembly program, so 1 MiB is ample.
const maxBodyBytes = 1 << 20

func (r *analyzeRequest) validate() error {
	switch r.Kind {
	case "", "all", "ablations", "extras", "static":
	case "table":
		if r.Table < 1 || r.Table > 4 {
			return fmt.Errorf("kind %q needs table 1-4, got %d", r.Kind, r.Table)
		}
	case "figure":
		if r.Figure != 3 && r.Figure != 4 {
			return fmt.Errorf("kind %q needs figure 3 or 4, got %d", r.Kind, r.Figure)
		}
	case "zoo", "graphs":
		for _, k := range harness.SplitZooKinds(r.Predictor) {
			if !predict.ValidZooKind(k) {
				return fmt.Errorf("kind %q: unknown predictor %q (have %v)", r.Kind, k, predict.ZooKinds())
			}
		}
	case "charact":
	case "progcheck":
		if strings.TrimSpace(r.Program) == "" {
			return fmt.Errorf("kind %q needs assembly source in \"program\"", r.Kind)
		}
	default:
		return fmt.Errorf("unknown kind %q (have all, table, figure, ablations, extras, static, zoo, graphs, charact, progcheck)", r.Kind)
	}
	if r.Predictor != "" && r.Kind != "zoo" && r.Kind != "graphs" {
		return fmt.Errorf("predictor %q only applies to kinds \"zoo\" and \"graphs\", not %q", r.Predictor, r.Kind)
	}
	if r.Program != "" && r.Kind != "progcheck" {
		return fmt.Errorf("program source only applies to kind \"progcheck\", not %q", r.Kind)
	}
	if r.Scale < 0 || r.Scale > maxScale {
		return fmt.Errorf("scale %g out of range [0, %d]", r.Scale, maxScale)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"clique_budget", r.CliqueBudget}, {"workers", r.Workers}} {
		if f.v < 0 {
			return fmt.Errorf("%s %d is negative", f.name, f.v)
		}
	}
	return nil
}

// vetProgram parses and verifies the submitted assembly before the job
// enqueues, so a corrupt program never reaches the job queue. A parse
// failure or any failing (error or warn) finding rejects the program;
// the returned findings go into the 400 body.
func (r *analyzeRequest) vetProgram() ([]progcheck.Finding, error) {
	p, err := program.ParseString(r.Program)
	if err != nil {
		return nil, err
	}
	rep := progcheck.Check(p)
	if failing := progcheck.Failing(rep.Findings); len(failing) > 0 {
		return rep.Findings, fmt.Errorf("program %q rejected: %d findings fail verification", p.Name, len(failing))
	}
	return nil, nil
}

// config is the harness configuration a request runs under.
func (r *analyzeRequest) config() harness.Config {
	return harness.Config{
		Scale:        r.Scale,
		Threshold:    r.Threshold,
		CliqueBudget: r.CliqueBudget,
		Check:        r.Check,
		Workers:      r.Workers,
		ProgCheck:    r.ProgCheck,
	}
}

// executeJob runs one analysis request on suite, which jobs with the
// same configuration share (nil for kind progcheck, which needs none),
// and returns the rendered output: the same bytes the corresponding
// harness.Run* call writes on a new Suite, which the round-trip tests
// assert.
func executeJob(req analyzeRequest, suite *harness.Suite) (string, error) {
	var buf bytes.Buffer
	var err error
	switch req.Kind {
	case "", "all":
		err = harness.RunAll(suite, &buf, req.Markdown)
	case "table":
		err = harness.RunTable(suite, &buf, req.Table, req.Markdown)
	case "figure":
		err = harness.RunFigure(suite, &buf, req.Figure, req.Markdown)
	case "ablations":
		err = harness.RunAblations(suite, &buf, req.Markdown)
	case "extras":
		err = harness.RunExtras(suite, &buf, req.Markdown)
	case "static":
		err = harness.RunStatic(suite, &buf, req.Markdown)
	case "zoo":
		err = harness.RunZoo(suite, &buf, req.Markdown, harness.SplitZooKinds(req.Predictor)...)
	case "graphs":
		err = harness.RunGraphs(suite, &buf, req.Markdown, harness.SplitZooKinds(req.Predictor)...)
	case "charact":
		err = harness.RunCharact(suite, &buf, req.Markdown)
	case "progcheck":
		return runProgcheckJob(req.Program)
	default:
		err = fmt.Errorf("unknown kind %q", req.Kind)
	}
	if err != nil {
		return "", err
	}
	return buf.String(), nil
}

// runProgcheckJob renders the verifier report for an already-vetted
// program: one line per finding (only advisory findings survive the
// submit gate) and the cmd/progcheck-style summary line.
func runProgcheckJob(src string) (string, error) {
	p, err := program.ParseString(src)
	if err != nil {
		return "", err
	}
	r := progcheck.Check(p)
	var b bytes.Buffer
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%s: %s\n", p.Name, f)
	}
	fmt.Fprintln(&b, r.SummaryLine(p.Name))
	return b.String(), nil
}

// job is one submitted analysis. Fields past the ID are guarded by the
// owning server's mutex.
type job struct {
	ID     string         `json:"id"`
	Status string         `json:"status"` // queued, running, done, failed
	Req    analyzeRequest `json:"request"`
	Result string         `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// maxFinishedJobs caps the finished job records the server keeps, with
// their rendered results: past it, the record that finished first is
// evicted, and its GET /jobs/{id} answers 404. Queued and running jobs
// are never evicted.
const maxFinishedJobs = 256

// server is the wsanalyzed HTTP service: it accepts analysis jobs, runs
// them on the instrumented harness with bounded concurrency, and serves
// job state plus the metrics registry.
type server struct {
	reg    *obs.Registry
	suites *suiteCache
	sem    chan struct{} // bounds concurrently executing jobs

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	order    []string // retained jobs in submission order, for deterministic listings
	finished []string // retained finished jobs, first finished first
	nextID   int
	wg       sync.WaitGroup // tracks submitted-but-unfinished jobs

	// startHook, when non-nil, runs in the job goroutine after the job
	// enters "running" and before execution — a test seam that lets the
	// shutdown test hold a job in flight and the panic test fail one.
	startHook func(id string)

	submitted *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	rejected  *obs.Counter
	running   *obs.Gauge
	queued    *obs.Gauge
}

// newServer builds a server around reg running at most maxConcurrent
// jobs at once (minimum 1).
func newServer(reg *obs.Registry, maxConcurrent int) *server {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	return &server{
		reg:       reg,
		suites:    newSuiteCache(reg, obs.New(reg)),
		sem:       make(chan struct{}, maxConcurrent),
		jobs:      make(map[string]*job),
		submitted: reg.Counter("wsd_jobs_submitted_total"),
		completed: reg.Counter("wsd_jobs_completed_total"),
		failed:    reg.Counter("wsd_jobs_failed_total"),
		rejected:  reg.Counter("wsd_jobs_rejected_total"),
		running:   reg.Gauge("wsd_jobs_running"),
		queued:    reg.Gauge("wsd_jobs_queued"),
	}
}

// handler builds the service mux.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /analyze", s.handleAnalyze)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// beginDrain stops accepting new jobs. It does not wait; pair with
// waitIdle.
func (s *server) beginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// waitIdle blocks until every accepted job has finished.
func (s *server) waitIdle() { s.wg.Wait() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the structured rejection: every 400 carries the error
// text, and program rejections additionally carry the verifier
// findings that failed the submission.
type errorBody struct {
	Error    string              `json:"error"`
	Findings []progcheck.Finding `json:"findings,omitempty"`
}

func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil && err != io.EOF {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	// ?mode= is a body-free alias for Kind (e.g. POST /analyze?mode=static).
	if mode := r.URL.Query().Get("mode"); mode != "" {
		if req.Kind != "" && req.Kind != mode {
			writeJSON(w, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("kind %q in body conflicts with ?mode=%s", req.Kind, mode)})
			return
		}
		req.Kind = mode
	}
	// ?predictor= is the matching alias for the zoo's kind selection
	// (e.g. POST /analyze?mode=zoo&predictor=tage,perceptron).
	if sel := r.URL.Query().Get("predictor"); sel != "" {
		if req.Predictor != "" && req.Predictor != sel {
			writeJSON(w, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("predictor %q in body conflicts with ?predictor=%s", req.Predictor, sel)})
			return
		}
		req.Predictor = sel
	}
	if err := req.validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if req.Kind == "progcheck" {
		if findings, err := req.vetProgram(); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Findings: findings})
			return
		}
	}

	// The draining check, the job registration, and the WaitGroup add
	// happen under one lock so a drainer that has observed "draining set"
	// can rely on wg covering every accepted job.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.Inc()
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server is draining; not accepting jobs"})
		return
	}
	s.nextID++
	j := &job{ID: fmt.Sprintf("job-%d", s.nextID), Status: "queued", Req: req}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.wg.Add(1)
	s.mu.Unlock()

	s.submitted.Inc()
	s.queued.Add(1)
	go s.runJob(j)

	writeJSON(w, http.StatusAccepted, struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}{j.ID, "queued"})
}

func (s *server) runJob(j *job) {
	defer s.wg.Done()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	s.queued.Add(-1)
	s.running.Add(1)
	defer s.running.Add(-1)

	s.mu.Lock()
	j.Status = "running"
	req := j.Req
	s.mu.Unlock()

	out, err := s.execute(j.ID, req)

	s.mu.Lock()
	if err != nil {
		j.Status = "failed"
		j.Error = err.Error()
	} else {
		j.Status = "done"
		j.Result = out
	}
	s.retire(j.ID)
	s.mu.Unlock()
	if err != nil {
		s.failed.Inc()
	} else {
		s.completed.Inc()
	}
}

// execute runs one job on its configuration's shared suite, held from
// here until the job ends, and turns a panic in the start hook or the
// pipeline into the job's error, so that one bad job fails alone
// instead of taking the process down. The harness recovers a panic on
// any of its row goroutines into its caller, so every panic a job
// raises ends here or as a row's error.
func (s *server) execute(id string, req analyzeRequest) (out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	var suite *harness.Suite
	if req.Kind != "progcheck" {
		var release func()
		suite, release = s.suites.acquire(req.config())
		defer release()
	}
	if s.startHook != nil {
		s.startHook(id)
	}
	return executeJob(req, suite)
}

// retire records id as finished and evicts the first-finished records
// past maxFinishedJobs. Callers hold s.mu.
func (s *server) retire(id string) {
	s.finished = append(s.finished, id)
	if len(s.finished) > maxFinishedJobs {
		old := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, old)
		s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == old })
	}
}

func (s *server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	type summary struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Kind   string `json:"kind"`
	}
	list := make([]summary, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		kind := j.Req.Kind
		if kind == "" {
			kind = "all"
		}
		list = append(list, summary{j.ID, j.Status, kind})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []summary `json:"jobs"`
	}{list})
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var cp job
	if ok {
		cp = *j
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job " + id})
		return
	}
	writeJSON(w, http.StatusOK, cp)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	switch r.URL.Query().Get("format") {
	case "", "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = obs.WriteProm(w, snap)
	case "text":
		w.Header().Set("Content-Type", "text/plain")
		_ = obs.WriteText(w, snap)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteJSON(w, snap)
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "unknown format (have prom, text, json)"})
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}{"ok", draining})
}
