package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

// envInfo is stamped on every output, so two result files are comparable
// or visibly not.
type envInfo struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	DataRoot   string  `json:"data_root"`
	DataFS     string  `json:"data_fs"`
	Clients    int     `json:"clients"`
	// Op counts of the run's phases.
	WarmOps   int `json:"warm_ops"`
	WindowOps int `json:"window_ops"`
	TraceOps  int `json:"trace_ops"`
	// Canary readings (ns per iteration) before and after the workload.
	CanaryBeforeNs float64 `json:"canary_before_ns"`
	CanaryAfterNs  float64 `json:"canary_after_ns"`
}

func (e envInfo) String() string {
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d kernel=%s commit=%s seed=%d seconds=%g data_fs=%s clients=%d ops(warm/window/trace)=%d/%d/%d canary_ns=%.4f/%.4f",
		e.GoVersion, e.GOMAXPROCS, e.NProc, e.Kernel, e.Commit, e.Seed, e.Seconds, e.DataFS, e.Clients,
		e.WarmOps, e.WindowOps, e.TraceOps, e.CanaryBeforeNs, e.CanaryAfterNs)
}

func newEnv(seed int64, seconds float64, dataRoot string) envInfo {
	return envInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Kernel:     kernelRelease(),
		Commit:     commit(),
		Seed:       seed,
		Seconds:    seconds,
		DataRoot:   dataRoot,
		DataFS:     fsName(dataRoot),
		Clients:    loadClients(),
	}
}

func kernelRelease() string {
	var u syscall.Utsname
	if syscall.Uname(&u) != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// commit is the VCS revision the binary was built from, when the build
// stamped one (a plain `go build` inside a git checkout does).
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
	}
	return rev + dirty
}

// benchDir is the benchmark's own directory, whether the program runs
// from the repository root (run.sh) or from benchmark/ (go run -C, go test).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "main.go")); err == nil {
		return "benchmark"
	}
	return "."
}

// outDir holds what a run leaves behind (span files); .gitignore names it.
func outDir() string { return filepath.Join(benchDir(), "out") }

// dataRoot is where node data lives while a run lasts: /dev/shm when it is
// writable, else a directory under outDir. fsync on the sandbox's shared
// disk swings by tens of percent from run to run; on tmpfs the fsync
// syscalls and the group-commit path still run, but a flush costs the same
// every time. The stamp's data_fs says which it was.
func dataRoot() (string, error) {
	if dir, err := os.MkdirTemp("/dev/shm", "lobench-"); err == nil {
		return dir, nil
	}
	dir := filepath.Join(outDir(), "data")
	return dir, os.MkdirAll(dir, 0o755)
}

// fsName names the filesystem holding dir, by statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
