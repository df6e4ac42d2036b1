package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/client"
)

// spec names one workload and how it is deployed. Why each workload is
// run is recorded beside its name in BENCHMARK.json.
type spec struct {
	name     string
	maxConns int // connections per server: one per client that talks to it
	follower bool
	prepare  func(dir string, seed int64) (fixture, error)
}

var workloads = []spec{
	{name: "evaluate", maxConns: 2, prepare: prepareEvaluate},
	{name: "rerun", maxConns: 2, prepare: prepareRerun},
	{name: "curate", maxConns: 1, follower: true, prepare: prepareCurate},
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// An untraced run sets up at least minSetups times and for at least
// minSetupTime in all; setup_s is the median round.
const (
	minSetups    = 5
	minSetupTime = 3 * time.Second
)

// config is one invocation's settings.
type config struct {
	spec    spec
	seed    int64
	seconds time.Duration
	traced  bool
	bin     string // the crimson binary
	work    string // the benchmark's build and scratch directory
}

// outcome is everything one run measured.
type outcome struct {
	fx        fixture
	clients   int       // closed-loop clients in the timed phase
	setupS    []float64 // one per set-up round
	loads     []loadSample
	results   []result
	lags      []time.Duration
	elapsed   time.Duration // until the last client left its closed loop
	stealFrac float64       // share of CPU time the hypervisor stole during the timed phase
	daemons   []daemonReport
	rssRounds []float64 // the primary's peak RSS in each set-up round
	// Space amplification: the primary's page file + WAL, once its
	// checkpoints have drained, per byte of live user data — after set-up
	// (the stored format's cost) and at the end (history growth included).
	spaceAmp, endSpaceAmp float64
	setupPageBytes        int64    // the data size to compare with the 16 MiB buffer pool
	wrong                 []string // the first few oracle failures
	nWrong                int
	layers                map[string]float64 // traced run only
	unmeasured            []string           // per-layer metrics this workload cannot measure
}

type daemonReport struct {
	name, status, panic, stderr string
}

func runBench(ctx context.Context, cfg config) (*outcome, error) {
	fx, err := cfg.spec.prepare(inputDir(cfg.work, cfg.spec.name, cfg.seed), cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	name := runName(cfg.spec.name, cfg.seed)
	dir := filepath.Join(cfg.work, "runs", name)
	defer os.RemoveAll(dir)
	out := &outcome{fx: fx}

	// Set up several times — at least minSetups rounds and minSetupTime
	// in all, so a quick set-up gets more samples — and keep the last
	// deployment for the timed phase; setup_s is the median round.
	var d *deployment
	rounds, began := minSetups, time.Now()
	if cfg.traced {
		rounds = 1
	}
	var s0 scrapes
	var rss []float64 // each round's primary peak RSS
	for i := 0; i < rounds || !cfg.traced && time.Since(began) < minSetupTime; i++ {
		if d != nil {
			d.stop()
			rss = append(rss, d.primary.peakRSSMB())
			if err := os.RemoveAll(d.dir); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		logs := filepath.Join(cfg.work, "logs", name, fmt.Sprintf("setup%d-", i))
		if d, err = deploy(ctx, cfg.bin, filepath.Join(dir, fmt.Sprint(i)), logs, cfg.spec.follower, cfg.spec.maxConns, cfg.traced); err != nil {
			return nil, err
		}
		if cfg.traced {
			if s0, err = scrapeAll(ctx, d); err != nil {
				d.stop()
				return nil, err
			}
		}
		if err := fx.setup(ctx, d); err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up: %w (%s)", err, d.primary.firstPanic())
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
		out.loads = append(out.loads, d.loads...)
	}
	out.setupPageBytes = settledDiskBytes(ctx, d)
	out.spaceAmp = float64(out.setupPageBytes) / float64(fx.liveBytes())
	defer d.stop()

	var s1 scrapes
	if cfg.traced {
		if s1, err = scrapeAll(ctx, d); err != nil {
			return nil, err
		}
	}
	bodies := fx.clients(d)
	out.clients = len(bodies)
	recs := make([]*recorder, len(bodies))
	total0, steal0 := cpuTimes()
	start := time.Now()
	end := start.Add(cfg.seconds)
	var wg sync.WaitGroup
	for i, body := range bodies {
		recs[i] = &recorder{traced: cfg.traced, start: start}
		wg.Add(1)
		go func(body clientFunc, rec *recorder) {
			defer wg.Done()
			defer rec.close()
			body(ctx, end, rec)
		}(body, recs[i])
	}
	var gauges *gaugePoller
	if cfg.traced {
		gauges = pollGauges(ctx, d)
	}
	wg.Wait()
	total1, steal1 := cpuTimes()
	out.stealFrac = ratio(float64(steal1-steal0), float64(total1-total0))
	for _, rec := range recs {
		out.elapsed = max(out.elapsed, rec.closed.Sub(start))
	}
	if gauges != nil {
		gauges.stop()
	}
	for _, rec := range recs {
		out.results = append(out.results, rec.results...)
		out.lags = append(out.lags, rec.lags...)
	}
	for _, r := range out.results {
		if r.kind == "load" && r.err == nil {
			out.loads = append(out.loads, loadSample{nodes: r.nodes, dur: r.dur})
		}
	}

	out.rssRounds = append(rss, d.primary.peakRSSMB())
	if cfg.traced {
		// The history recorder commits at most once a second: let it
		// flush before the final scrape.
		time.Sleep(1200 * time.Millisecond)
		s2, err := scrapeAll(ctx, d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: final scrape: %v\n", err)
		} else {
			out.layers = serverLayers(out, s0, s1, s2, gauges)
		}
	}
	out.endSpaceAmp = float64(settledDiskBytes(ctx, d)) / float64(fx.liveBytes())
	d.stop()
	for _, s := range d.daemons() {
		out.daemons = append(out.daemons, daemonReport{name: s.name, status: s.exitStatus(), panic: s.firstPanic(), stderr: s.stderr})
	}
	if out.layers != nil && d.primary.stopped { // replay only a cleanly stopped primary's files
		if err := replayLayers(ctx, d, fx, out.layers); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: in-process replay: %v\n", err)
		}
	}

	for _, r := range out.results {
		if r.err != nil || r.check == nil {
			continue
		}
		if err := r.check(); err != nil {
			out.nWrong++
			if len(out.wrong) < 5 {
				out.wrong = append(out.wrong, err.Error())
			}
		}
	}
	return out, nil
}

// settledDiskBytes waits (up to 5 s) for the primary's checkpoints to
// drain its backlog and WAL, then measures its page file plus WAL.
func settledDiskBytes(ctx context.Context, d *deployment) int64 {
	c := d.client(d.primary)
	for i := 0; i < 100 && d.primary.alive(); i++ {
		st, err := c.StatsCtx(ctx)
		if err != nil || st.CheckpointBacklogBytes == 0 && st.WALBytes == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	page, wal := d.primary.diskBytes()
	return page + wal
}

// gaugePoller samples the gauges a delta cannot capture — checkpoint
// backlog, reclaim backlog and replica lag — while a traced run goes on.
type gaugePoller struct {
	quit         chan struct{}
	done         chan struct{}
	backlogMax   int64
	reclaimMax   int64
	lagEpochsMax uint64
}

func pollGauges(ctx context.Context, d *deployment) *gaugePoller {
	g := &gaugePoller{quit: make(chan struct{}), done: make(chan struct{})}
	pc := d.client(d.primary)
	var fc *client.Client
	if d.follower != nil {
		fc = d.client(d.follower)
	}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.quit:
				return
			case <-tick.C:
			}
			if st, err := pc.StatsCtx(ctx); err == nil {
				g.backlogMax = max(g.backlogMax, st.CheckpointBacklogBytes)
				g.reclaimMax = max(g.reclaimMax, int64(st.PendingReclaimPages))
			}
			if fc != nil {
				if rs, err := fc.ReplStatusCtx(ctx); err == nil {
					for _, sh := range rs.Shards {
						g.lagEpochsMax = max(g.lagEpochsMax, sh.LagEpochs)
					}
				}
			}
		}
	}()
	return g
}

// stop ends the poller and waits for it; its maxima are then safe to read.
func (g *gaugePoller) stop() {
	close(g.quit)
	<-g.done
}

// opLatencies groups successful ops' latencies by kind.
func opLatencies(results []result) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, r := range results {
		if r.err == nil {
			out[r.kind] = append(out[r.kind], r.dur)
		}
	}
	return out
}
