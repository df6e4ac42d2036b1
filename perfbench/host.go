package main

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint names the host and the code a run measured: CPU model,
// nproc, GOMAXPROCS, Go version, and the git commit — or, in a checkout
// without git metadata, a hash of the Go sources.
func fingerprint(work string) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(work))
}

// cpuTimes reads the busy and steal jiffies of all CPUs from /proc/stat.
// Steal is time the hypervisor ran someone else while this machine's CPUs
// were runnable; every timing of a run on a shared host moves with it.
func cpuTimes() (total, steal int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit(work string) string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	skip, _ := filepath.Abs(work)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if abs, _ := filepath.Abs(path); d.IsDir() && abs == skip {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("none (sources sha256:%x)", h.Sum(nil)[:8])
}
