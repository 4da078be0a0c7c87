package main

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// sharedReq is the job the sharing tests repeat: Table 2 reads only the
// profiles, so a job that reuses them runs the VM not at all.
var sharedReq = analyzeRequest{Kind: "table", Table: 2, Scale: 0.02}

func counter(reg *obs.Registry, name string) uint64 { return reg.Counter(name).Value() }

// freshTable2 renders sharedReq on a new Suite.
func freshTable2(t *testing.T) string {
	t.Helper()
	var want bytes.Buffer
	if err := harness.RunTable(harness.NewSuite(harness.Config{Scale: 0.02, Workers: 1}), &want, 2, false); err != nil {
		t.Fatal(err)
	}
	return want.String()
}

// oneJobVMRuns is the VM run count of sharedReq on a server of its own.
func oneJobVMRuns(t *testing.T) uint64 {
	t.Helper()
	reg := obs.NewRegistry()
	ts := newTestService(t, newServer(reg, 1))
	if j := poll(t, ts, submit(t, ts, sharedReq)); j.Status != "done" {
		t.Fatalf("job failed: %s", j.Error)
	}
	return counter(reg, "wsd_vm_runs_total")
}

// TestRepeatedJobReusesSuite: a second identical job renders from the
// first job's suite, running the VM no more, and its bytes are those of
// a fresh harness run.
func TestRepeatedJobReusesSuite(t *testing.T) {
	reg := obs.NewRegistry()
	ts := newTestService(t, newServer(reg, 1))

	if j := poll(t, ts, submit(t, ts, sharedReq)); j.Status != "done" {
		t.Fatalf("first job failed: %s", j.Error)
	}
	runs := counter(reg, "wsd_vm_runs_total")
	if runs == 0 {
		t.Fatal("first job ran the VM 0 times")
	}
	j := poll(t, ts, submit(t, ts, sharedReq))
	if j.Status != "done" {
		t.Fatalf("second job failed: %s", j.Error)
	}
	if got := counter(reg, "wsd_vm_runs_total"); got != runs {
		t.Errorf("second identical job added %d VM runs, want 0", got-runs)
	}
	if j.Result != freshTable2(t) {
		t.Error("shared-suite result differs from a fresh harness run")
	}
	if c, r := counter(reg, "wsd_suites_created_total"), counter(reg, "wsd_suites_reused_total"); c != 1 || r != 1 {
		t.Errorf("suites created %d, reused %d; want 1 and 1", c, r)
	}
}

// TestConcurrentIdenticalJobsShareWork holds two identical jobs until
// both have acquired the suite, then lets them compute together: the
// suite's memo must run each benchmark once between them (CI runs this
// under -race).
func TestConcurrentIdenticalJobsShareWork(t *testing.T) {
	want := oneJobVMRuns(t)

	reg := obs.NewRegistry()
	srv := newServer(reg, 2)
	var arrived sync.WaitGroup
	arrived.Add(2)
	srv.startHook = func(string) {
		arrived.Done()
		arrived.Wait()
	}
	ts := newTestService(t, srv)

	a, b := submit(t, ts, sharedReq), submit(t, ts, sharedReq)
	ja, jb := poll(t, ts, a), poll(t, ts, b)
	if ja.Status != "done" || jb.Status != "done" {
		t.Fatalf("jobs: %q (%s) and %q (%s), want done", ja.Status, ja.Error, jb.Status, jb.Error)
	}
	if ja.Result != jb.Result || ja.Result != freshTable2(t) {
		t.Error("concurrent shared-suite results differ from a fresh harness run")
	}
	if got := counter(reg, "wsd_vm_runs_total"); got != want {
		t.Errorf("two concurrent identical jobs ran the VM %d times, want one job's %d", got, want)
	}
	if c, r := counter(reg, "wsd_suites_created_total"), counter(reg, "wsd_suites_reused_total"); c != 1 || r != 1 {
		t.Errorf("suites created %d, reused %d; want 1 and 1", c, r)
	}
}

// TestIdleSuitesCapped releases more distinct configurations than the
// one idle slot: suites in use are all kept, and of the idle ones only
// the most recently released stays.
func TestIdleSuitesCapped(t *testing.T) {
	reg := obs.NewRegistry()
	c := newSuiteCache(reg, obs.New(reg))
	const configs = 4
	releases := make([]func(), configs)
	for i := range releases {
		_, releases[i] = c.acquire(harness.Config{Scale: 0.02, Threshold: uint64(100 + i)})
	}
	if len(c.entries) != configs {
		t.Fatalf("%d suites held by jobs, cache keeps %d", configs, len(c.entries))
	}
	for i, release := range releases {
		release()
		if len(c.entries) != configs-i || c.idle == nil || c.idle.key.threshold != uint64(100+i) {
			t.Fatalf("after %d releases: %d cached, want %d with the last released idle", i+1, len(c.entries), configs-i)
		}
	}

	// Only the last released is kept: reacquiring in reverse order
	// reuses it and creates every other suite anew.
	for i := configs - 1; i >= 0; i-- {
		_, release := c.acquire(harness.Config{Scale: 0.02, Threshold: uint64(100 + i)})
		release()
		if len(c.entries) != 1 {
			t.Fatalf("%d suites cached with no job running, want 1", len(c.entries))
		}
	}
	if got := counter(reg, "wsd_suites_reused_total"); got != 1 {
		t.Errorf("reused %d suites, want only the most recently released", got)
	}

	// Jobs on overlapping configurations acquire and release from many
	// goroutines at once (CI runs this under -race): once all are done,
	// no suite is held and only the idle one is cached.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, release := c.acquire(harness.Config{Scale: 0.02, Threshold: uint64(100 + (g+i)%configs)})
				release()
			}
		}()
	}
	wg.Wait()
	if len(c.entries) != 1 || c.entries[c.idle.key] != c.idle || c.idle.users != 0 {
		t.Errorf("after concurrent use: %d cached, want only the idle suite", len(c.entries))
	}
}

// TestPanicKeepsSharedSuite panics a job through the start hook while
// it holds a suite another job filled: the suite is released, and the
// next identical job renders from it without running the VM.
func TestPanicKeepsSharedSuite(t *testing.T) {
	reg := obs.NewRegistry()
	srv := newServer(reg, 1)
	var fail atomic.Bool
	srv.startHook = func(id string) {
		if fail.Load() {
			panic("injected failure in " + id)
		}
	}
	ts := newTestService(t, srv)

	if j := poll(t, ts, submit(t, ts, sharedReq)); j.Status != "done" {
		t.Fatalf("first job failed: %s", j.Error)
	}
	runs := counter(reg, "wsd_vm_runs_total")

	fail.Store(true)
	if j := poll(t, ts, submit(t, ts, sharedReq)); j.Status != "failed" {
		t.Fatalf("panicking job: status %q, want failed", j.Status)
	}
	fail.Store(false)

	j := poll(t, ts, submit(t, ts, sharedReq))
	if j.Status != "done" {
		t.Fatalf("job after the panic failed: %s", j.Error)
	}
	if j.Result != freshTable2(t) {
		t.Error("result after the panic differs from a fresh harness run")
	}
	if got := counter(reg, "wsd_vm_runs_total"); got != runs {
		t.Errorf("job after the panic added %d VM runs, want 0", got-runs)
	}
	if c, r := counter(reg, "wsd_suites_created_total"), counter(reg, "wsd_suites_reused_total"); c != 1 || r != 2 {
		t.Errorf("suites created %d, reused %d; want 1 and 2", c, r)
	}
	srv.suites.mu.Lock()
	defer srv.suites.mu.Unlock()
	for k, e := range srv.suites.entries {
		if e.users != 0 {
			t.Errorf("suite %+v still held by %d jobs", k, e.users)
		}
	}
}

// TestFinishedJobsEvicted runs more jobs than the job table keeps, with
// one held running throughout: the first-finished records are evicted
// (404, gone from GET /jobs), the running job never is, and GET /jobs
// lists exactly the retained jobs in submission order.
func TestFinishedJobsEvicted(t *testing.T) {
	reg := obs.NewRegistry()
	srv := newServer(reg, 2)
	started, release := make(chan struct{}), make(chan struct{})
	srv.startHook = func(id string) {
		if id == "job-1" {
			close(started)
			<-release
		}
	}
	ts := newTestService(t, srv)
	const prog = ".name tiny\n\thalt\n"

	held := submit(t, ts, analyzeRequest{Kind: "progcheck", Program: prog})
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("held job never started")
	}
	const extra = 5
	ids := make([]string, maxFinishedJobs+extra)
	for i := range ids {
		// One run slot is free; stay under the queue cap while it drains.
		for reg.Gauge("wsd_jobs_queued").Value() >= maxQueuedJobs {
			time.Sleep(time.Millisecond)
		}
		ids[i] = submit(t, ts, analyzeRequest{Kind: "progcheck", Program: prog})
	}
	for deadline := time.Now().Add(60 * time.Second); counter(reg, "wsd_jobs_completed_total") < uint64(len(ids)); {
		if time.Now().After(deadline) {
			t.Fatal("the jobs beside the held one did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var j job
	if resp := getJSON(t, ts.URL+"/jobs/"+held, &j); resp.StatusCode != http.StatusOK || j.Status != "running" {
		t.Fatalf("held job: status %d, %q; want 200 and running", resp.StatusCode, j.Status)
	}

	close(release)
	srv.waitIdle()
	var list struct {
		Jobs []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		} `json:"jobs"`
	}
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list.Jobs) != maxFinishedJobs {
		t.Fatalf("GET /jobs lists %d jobs, want the %d retained", len(list.Jobs), maxFinishedJobs)
	}
	listed := map[string]bool{}
	for _, l := range list.Jobs {
		listed[l.ID] = true
		if l.Status != "done" {
			t.Errorf("job %s: status %q, want done", l.ID, l.Status)
		}
	}
	if !listed[held] {
		t.Errorf("held job %s, finished last, was evicted", held)
	}
	gone := 0
	for _, id := range ids {
		resp := getJSON(t, ts.URL+"/jobs/"+id, nil)
		switch {
		case resp.StatusCode == http.StatusNotFound && !listed[id]:
			gone++
		case resp.StatusCode == http.StatusOK && listed[id]:
		default:
			t.Errorf("job %s: status %d, listed %v", id, resp.StatusCode, listed[id])
		}
	}
	if gone != extra+1 {
		t.Errorf("%d job records evicted, want %d", gone, extra+1)
	}
	want := []string{held}
	for _, id := range ids {
		if listed[id] {
			want = append(want, id)
		}
	}
	for i, l := range list.Jobs {
		if l.ID != want[i] {
			t.Fatalf("GET /jobs entry %d is %s, want %s: not in submission order", i, l.ID, want[i])
		}
	}
}
