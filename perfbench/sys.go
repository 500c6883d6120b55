package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// resetPeakRSS returns freed memory to the OS and sets the kernel's
// peak-RSS mark (VmHWM) to the current RSS, so the peak reported afterwards
// belongs to the workload, not to input generation and the reference scan
// before it.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak-RSS mark: %w", err)
	}
	return nil
}

// peakRSSMiB reads VmHWM of this process in MiB.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTicks reads the host-wide CPU time counters of /proc/stat: the ticks
// stolen by the hypervisor for other guests, and all ticks.
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		n, _ := strconv.ParseInt(f[i], 10, 64)
		total += n
		if i == 8 {
			steal = n
		}
	}
	return steal, total
}

// stealSince is the share of host CPU time stolen since an earlier
// cpuTicks reading.
func stealSince(steal0, total0 int64) float64 {
	steal, total := cpuTicks()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fingerprint identifies the host and the code a result was measured on.
// Results are comparable only when every host field matches; Source and
// Seed legitimately differ between the two sides of a comparison.
type fingerprint struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Source is a digest of the Go sources and module files of the
	// checkout. It stands in for the commit, since the benchmark runs in
	// checkouts that are not git repositories.
	Source string `json:"source"`
	Seed   int64  `json:"seed"`
}

func hostFingerprint(seed int64) fingerprint {
	return fingerprint{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Source:     sourceDigest("."),
		Seed:       seed,
	}
}

// hostDiff names the first host field in which two fingerprints differ,
// or returns "" when they describe the same host.
func hostDiff(a, b fingerprint) string {
	switch {
	case a.GOOS != b.GOOS || a.GOARCH != b.GOARCH:
		return fmt.Sprintf("platform %s/%s vs %s/%s", a.GOOS, a.GOARCH, b.GOOS, b.GOARCH)
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("NumCPU %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("CPU %q vs %q", a.CPUModel, b.CPUModel)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion)
	}
	return ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go, go.mod and go.sum file under root in
// lexical path order, skipping hidden directories (build output, VCS).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// lines splits an NDJSON body into its non-empty lines.
func lines(body []byte) [][]byte {
	var out [][]byte
	for _, l := range bytes.Split(body, []byte("\n")) {
		if len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}
