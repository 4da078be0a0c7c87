package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfilingWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiling(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{cpu, mem} {
		if fi, err := os.Stat(name); err != nil || fi.Size() == 0 {
			t.Fatalf("%s not written: %v", name, err)
		}
	}
}

func TestStartProfilingOff(t *testing.T) {
	stop, err := StartProfiling("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilingReportsBadPaths(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "p.pprof")
	if _, err := StartProfiling(missing, ""); err == nil {
		t.Fatal("CPU profile into a missing directory did not fail")
	}
	stop, err := StartProfiling("", missing)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Fatal("heap profile into a missing directory did not fail")
	}
}
