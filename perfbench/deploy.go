package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/client"
)

// fixture is one workload's generated inputs and oracles for one seed.
type fixture interface {
	// setup stores the workload's data in a freshly started deployment;
	// it is part of the timed set-up.
	setup(ctx context.Context, d *deployment) error
	// clients returns one closed-loop body per client.
	clients(d *deployment) []clientFunc
	// liveBytes is the user data stored once the clients have finished.
	liveBytes() int64
	// describe states the data size and the query mix.
	describe() string
	// replay returns the in-process replay of the traced run, n
	// iterations long.
	replay(n int) replaySet
}

// clientFunc is one closed-loop client: it sends its next request only
// after the previous reply, until end.
type clientFunc func(ctx context.Context, end time.Time, rec *recorder)

// deployment is the crimsond processes of one set-up round and the HTTP
// connection pool the clients share.
type deployment struct {
	dir               string
	primary, follower *daemon
	hc                *http.Client
	loads             []loadSample // loads made during set-up
}

type loadSample struct {
	nodes int
	dur   time.Duration
}

// deploy starts a primary — and a follower replicating it when asked — in
// a fresh directory. Their stderr goes to logs+"<name>.stderr", which
// outlives the run.
func deploy(ctx context.Context, bin, dir, logs string, withFollower bool, maxConns int, traced bool) (*deployment, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(logs), 0o755); err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, hc: newHTTPClient(maxConns, traced)}
	var err error
	if d.primary, err = startDaemon(ctx, bin, dir, logs, "primary"); err != nil {
		return nil, err
	}
	if withFollower {
		if d.follower, err = startDaemon(ctx, bin, dir, logs, "follower", "-follow", d.primary.url); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

func (d *deployment) client(s *daemon) *client.Client { return client.New(s.url, d.hc) }

func (d *deployment) daemons() []*daemon {
	if d.follower != nil {
		return []*daemon{d.primary, d.follower}
	}
	return []*daemon{d.primary}
}

// stop shuts every process down and waits for each to exit.
func (d *deployment) stop() {
	for _, s := range []*daemon{d.follower, d.primary} {
		if s != nil {
			s.stop()
		}
	}
	d.hc.CloseIdleConnections()
}

// load stores a generated tree on the primary over HTTP.
func (d *deployment) load(ctx context.Context, name string, g *goldTree) error {
	c := d.client(d.primary)
	_, check, err := call(ctx, loadTimeout, func(ctx context.Context) (func() error, error) {
		start := time.Now()
		info, err := c.LoadNewickCtx(ctx, name, 0, strings.NewReader(g.text))
		if err == nil {
			d.loads = append(d.loads, loadSample{nodes: info.Nodes, dur: time.Since(start)})
		}
		return func() error { return checkInfo(g, info) }, err
	})
	if err != nil {
		return fmt.Errorf("loading %s: %w", name, err)
	}
	return check()
}

// awaitFollower waits until the follower has applied every shard up to
// the primary's published epoch.
func (d *deployment) awaitFollower(ctx context.Context) error {
	if d.follower == nil {
		return nil
	}
	pc, fc := d.client(d.primary), d.client(d.follower)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		ps, err := pc.ReplStatusCtx(ctx)
		if err != nil {
			return err
		}
		fs, err := fc.ReplStatusCtx(ctx)
		if err == nil && caughtUp(ps, fs) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return errors.New("follower did not catch up within 60s")
}

func caughtUp(p, f client.ReplStatus) bool {
	if len(f.Shards) != len(p.Shards) {
		return false
	}
	for i, sh := range f.Shards {
		if !sh.Synced || sh.Epoch < p.Shards[i].Epoch {
			return false
		}
	}
	return true
}

// copyRepo copies the stopped primary's page file and WAL to dst, so the
// traced run can open the same data in process.
func (d *deployment) copyRepo(dst string) error {
	for _, suffix := range []string{"", ".wal"} {
		raw, err := os.ReadFile(d.primary.dir + suffix)
		if errors.Is(err, os.ErrNotExist) && suffix != "" {
			continue
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(dst+suffix, raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runName names one run's scratch directory (removed when the run ends)
// and its log directory (kept).
func runName(workload string, seed int64) string {
	return fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())
}
