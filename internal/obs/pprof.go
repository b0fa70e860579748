package obs

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts the pprof profiles a command-line tool asked for:
// a CPU profile written to cpuPath from now until stop, and, at stop, an
// allocation profile (every allocation since the process started, as
// `go test -memprofile` writes it) to memPath. An empty path skips that
// profile. The caller runs stop once, on every exit path.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if memPath != "" {
			if err := writeAllocProfile(memPath); err != nil {
				errs = append(errs, fmt.Errorf("memory profile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

// writeAllocProfile writes the allocation profile after a collection, so
// the profile's in-use figures are current.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
