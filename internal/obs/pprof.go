package obs

import (
	"os"
	"runtime/pprof"
)

// StartCPUProfile starts a runtime/pprof CPU profile written to path and
// returns the function that stops it and closes the file; read the
// result with `go tool pprof`. An empty path profiles nothing and
// returns a no-op stop, so command-line tools can call it
// unconditionally with their -cpuprofile flag value.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
