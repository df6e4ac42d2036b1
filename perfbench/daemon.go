package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one crimsond process started by the benchmark. Its stderr goes
// to a file kept with the run; a watchdog goroutine reaps the process the
// moment it exits, so a crash is seen (and reported) while clients keep
// running against the dead address and count their calls as failed.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	url    string
	stderr string // path of the captured stderr
	dir    string // repository path

	done    chan struct{} // closed by the watchdog once the process exited
	exitErr error         // the process's exit status; valid after done
	stopped bool          // the benchmark itself asked it to stop
	rssKB   atomic.Int64  // highest VmHWM seen; sampled until exit, so a crash keeps it
}

// startDaemon runs `crimson serve` with its default settings on a
// loopback port the kernel picks, plus any extra flags (--follow), and
// waits until it listens. The repository goes in dir; stderr goes to
// logs+name+".stderr".
func startDaemon(ctx context.Context, bin, dir, logs, name string, extra ...string) (*daemon, error) {
	d := &daemon{
		name:   name,
		stderr: logs + name + ".stderr",
		dir:    filepath.Join(dir, name+".db"),
		done:   make(chan struct{}),
	}
	errf, err := os.Create(d.stderr)
	if err != nil {
		return nil, err
	}
	defer errf.Close()
	args := append([]string{"serve", "-repo", d.dir, "-addr", "127.0.0.1:0"}, extra...)
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = errf
	// Kill crimsond if the benchmark itself dies, so no server outlives it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		d.exitErr = d.cmd.Wait()
		close(d.done)
	}()
	go d.sampleRSS()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if addr := listenAddr(d.stderr); addr != "" {
			d.url = "http://" + addr
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("%s exited before listening (%v): %s", name, d.exitErr, d.firstPanic())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s did not listen within 30s", name)
		}
	}
}

// listenAddr finds crimsond's "crimsond listening on <addr> ..." line.
func listenAddr(stderrPath string) string {
	raw, err := os.ReadFile(stderrPath)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "crimsond listening on "); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return f[0]
			}
		}
	}
	return ""
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// stop asks crimsond to shut down gracefully and kills it if it has not
// exited within 10 s (a handler stuck on a leaked lock can block a
// graceful shutdown forever). It returns once the process has exited.
func (d *daemon) stop() {
	if !d.alive() {
		return
	}
	d.stopped = true
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// exitStatus describes how the process ended: "running", "stopped" when
// the benchmark shut it down, or the exit status of a crash.
func (d *daemon) exitStatus() string {
	switch {
	case d.alive():
		return "running"
	case d.stopped:
		return "stopped"
	case d.exitErr == nil:
		return "exited 0"
	default:
		return d.exitErr.Error()
	}
}

// firstPanic returns the first line of the captured stderr that reports a
// panic, whether fatal ("panic: ...") or recovered by net/http ("http:
// panic serving ..."), or "" when there is none.
func (d *daemon) firstPanic() string { return firstPanicLine(d.stderr) }

func firstPanicLine(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.Contains(line, "panic") {
			return strings.TrimSpace(line)
		}
	}
	return ""
}

// sampleRSS reads the process's resident-set high-water mark (VmHWM)
// from /proc every 100 ms until it exits. Reading /proc costs crimsond
// nothing and needs no connection.
func (d *daemon) sampleRSS() {
	path := fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		if kb, err := vmHWM(path); err == nil {
			d.noteRSS(kb)
		}
		select {
		case <-d.done:
			return
		case <-tick.C:
		}
	}
}

// peakRSSMB is the highest resident-set high-water mark sampled.
func (d *daemon) peakRSSMB() float64 {
	if d.alive() {
		if kb, err := vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)); err == nil {
			d.noteRSS(kb)
		}
	}
	return float64(d.rssKB.Load()) / 1024
}

// noteRSS raises the recorded high-water mark to kb.
func (d *daemon) noteRSS(kb int64) {
	for {
		cur := d.rssKB.Load()
		if kb <= cur || d.rssKB.CompareAndSwap(cur, kb) {
			return
		}
	}
}

func vmHWM(path string) (int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, errors.New("no VmHWM in " + path)
}

// diskBytes is the size of the repository's page file and of its WAL.
func (d *daemon) diskBytes() (page, wal int64) {
	if fi, err := os.Stat(d.dir); err == nil {
		page = fi.Size()
	}
	if fi, err := os.Stat(d.dir + ".wal"); err == nil {
		wal = fi.Size()
	}
	return page, wal
}
