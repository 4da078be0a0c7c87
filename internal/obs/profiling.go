package obs

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiling serves the CLIs' -cpuprofile and -memprofile flags. It
// starts a CPU profile into cpuFile (none when empty) and returns the
// function to call once the run is done: it writes a heap profile to
// memFile (none when empty), then stops the CPU profile and closes its
// file. A run that exits early skips both, as a failed run needs no
// profile.
func StartProfiling(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			_ = cpu.Close() // the start failure is the error to report
			return nil, err
		}
	}
	return func() error {
		if memFile != "" {
			if err := writeHeapProfile(memFile); err != nil {
				return err
			}
		}
		if cpu == nil {
			return nil
		}
		pprof.StopCPUProfile()
		return cpu.Close()
	}, nil
}

// writeHeapProfile writes the heap profile to name after a GC, so it
// reflects what the run retains rather than its garbage.
func writeHeapProfile(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close() // the write failure is the error to report
		return err
	}
	return f.Close()
}
