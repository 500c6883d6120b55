package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"casoffinder/internal/genome"
	"casoffinder/internal/search"
)

// writeGenomeDir creates a genome directory carrying a perfect
// GATTACAGTA+CGG site at chr1:4.
func writeGenomeDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "toy")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	fasta := ">chr1\nTTTTGATTACAGTACGGTTTTTTTTTTTTTTT\n"
	if err := os.WriteFile(filepath.Join(dir, "chr1.fa"), []byte(fasta), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

const daemonSearchBody = `{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}]}`

// startDaemon runs the daemon on an ephemeral port and returns its base URL
// and a stop function that triggers graceful shutdown and waits for exit.
func startDaemon(t *testing.T, args ...string) (baseURL string, stop func() error) {
	t.Helper()
	var errOut bytes.Buffer
	d, err := setup(append([]string{"-listen", "127.0.0.1:0"}, args...), &errOut)
	if err != nil {
		t.Fatalf("setup: %v (stderr: %s)", err, errOut.String())
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.serve(ctx, &errOut) }()
	t.Cleanup(func() { cancel() })

	baseURL = "http://" + d.addr()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready (stderr: %s)", errOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return baseURL, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("daemon did not exit (stderr: %s)", errOut.String())
		}
	}
}

// TestDaemonEndToEnd boots the daemon on a FASTA genome, searches it over
// HTTP, checks the planted hit and the trailer, and shuts down cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	base, stop := startDaemon(t, "-genome", writeGenomeDir(t))
	resp, err := http.Post(base+"/search", "application/json", strings.NewReader(daemonSearchBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("response too short: %q", data)
	}
	var hit struct {
		Guide string `json:"guide"`
		Seq   string `json:"seq"`
		Pos   int    `json:"pos"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hit); err != nil {
		t.Fatal(err)
	}
	if hit.Guide != "GATTACAGTANNN" || hit.Seq != "chr1" || hit.Pos != 4 {
		t.Errorf("hit = %+v, want the planted chr1:4 site", hit)
	}
	var tr struct {
		Done bool  `json:"done"`
		Hits int64 `json:"hits"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Done || tr.Hits != int64(len(lines)-1) {
		t.Errorf("trailer = %+v with %d hit lines", tr, len(lines)-1)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mdata, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mdata), "casoffinderd_requests_total") {
		t.Errorf("/metrics missing request counter:\n%s", mdata)
	}

	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDaemonServesArtifact boots from a prebuilt .cart artifact (the
// zero-copy resident path) and checks the same planted hit.
func TestDaemonServesArtifact(t *testing.T) {
	dir := writeGenomeDir(t)
	asm, err := genome.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	art, err := search.BuildArtifact(asm, "NNNNNNNNNNNGG")
	if err != nil {
		t.Fatal(err)
	}
	cart := filepath.Join(t.TempDir(), "toy.cart")
	if err := art.WriteFile(cart); err != nil {
		t.Fatal(err)
	}

	base, stop := startDaemon(t, "-artifact", "toy="+cart)
	resp, err := http.Post(base+"/search", "application/json",
		strings.NewReader(`{"genome":"toy",`+daemonSearchBody[1:]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"pos":4`) {
		t.Errorf("artifact-backed search: status %d, body %q", resp.StatusCode, data)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDaemonSimEngineDegraded boots the daemon on the OpenCL simulator with
// a certain device-lost fault: the request must still complete with the
// planted hit and a degraded trailer.
func TestDaemonSimEngineDegraded(t *testing.T) {
	base, stop := startDaemon(t,
		"-genome", writeGenomeDir(t),
		"-engine", "opencl", "-variant", "base",
		"-fault-rate", "1", "-fault-seed", "42", "-fault-site", "opencl.device-lost")
	resp, err := http.Post(base+"/search", "application/json", strings.NewReader(daemonSearchBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (degraded, not failed); body %q", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), `"pos":4`) {
		t.Errorf("failover lost the planted hit: %q", data)
	}
	if !strings.Contains(string(data), `"degraded":true`) {
		t.Errorf("trailer does not report degradation: %q", data)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestSetupUsageErrors(t *testing.T) {
	dir := writeGenomeDir(t)
	tests := []struct {
		name string
		args []string
	}{
		{"no genomes", nil},
		{"positional arg", []string{"-genome", dir, "input.txt"}},
		{"bad flag", []string{"-no-such-flag"}},
		{"removed -packed flag", []string{"-genome", dir, "-packed"}},
		{"bad engine", []string{"-genome", dir, "-engine", "cuda"}},
		{"bad device", []string{"-genome", dir, "-engine", "sycl", "-device", "H100"}},
		{"bad variant", []string{"-genome", dir, "-variant", "opt9"}},
		{"fault flags on cpu", []string{"-genome", dir, "-fault-rate", "0.5"}},
		{"fault rate out of range", []string{"-genome", dir, "-engine", "opencl", "-fault-rate", "2"}},
		{"bad fault site", []string{"-genome", dir, "-engine", "opencl", "-fault-rate", "1", "-fault-site", "gpu.meltdown"}},
		{"duplicate genome name", []string{"-genome", dir, "-genome", dir}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var errOut bytes.Buffer
			_, err := setup(tt.args, &errOut)
			if err == nil {
				t.Fatal("expected error")
			}
			if got := exitCode(err); got != exitUsage {
				t.Errorf("exitCode = %d, want %d (err: %v)", got, exitUsage, err)
			}
		})
	}
}

func TestSetupRuntimeErrors(t *testing.T) {
	var errOut bytes.Buffer
	if _, err := setup([]string{"-genome", filepath.Join(t.TempDir(), "missing")}, &errOut); err == nil {
		t.Error("missing genome path accepted")
	}
	if _, err := setup([]string{"-artifact", filepath.Join(t.TempDir(), "missing.cart")}, &errOut); err == nil {
		t.Error("missing artifact path accepted")
	}
}

func TestSplitSpec(t *testing.T) {
	tests := []struct {
		spec, name, path string
	}{
		{"hg38=/data/hg38.cart", "hg38", "/data/hg38.cart"},
		{"/data/hg38.cart", "hg38", "/data/hg38.cart"},
		{"/data/genomes/toy/", "toy", "/data/genomes/toy/"},
		{"toy", "toy", "toy"},
	}
	for _, tt := range tests {
		name, path := splitSpec(tt.spec)
		if name != tt.name || path != tt.path {
			t.Errorf("splitSpec(%q) = (%q, %q), want (%q, %q)", tt.spec, name, path, tt.name, tt.path)
		}
	}
}

func TestExitCodes(t *testing.T) {
	tests := []struct {
		err  error
		want int
	}{
		{nil, exitOK},
		{flag.ErrHelp, exitOK},
		{errors.New("boom"), exitRuntime},
		{usageError{errors.New("bad")}, exitUsage},
	}
	for _, tt := range tests {
		if got := exitCode(tt.err); got != tt.want {
			t.Errorf("exitCode(%v) = %d, want %d", tt.err, got, tt.want)
		}
	}
}
