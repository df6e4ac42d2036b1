package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/client"
	"repro/internal/newick"
)

// The evaluate workload is the paper's evaluation loop: sample species
// from a large gold tree, project the tree over them, compare a
// reconstructed tree against the projection (pattern match), and look up
// LCAs and clades. Every species set is fresh, so the result cache misses
// and the work lands in treestore, relstore and storage.
//
// Each client's samples are uniform in its closed loop; once the loop
// ends, each draws one time-constrained sample, concurrently. That op costs
// ~5 s on this tree — its frontier scan makes one B+tree descent per node
// beyond the time bound, 200k on 100k leaves — so at the paper's share (one
// sample in four) it would fill the run, and how many of them fell inside
// the window would swing throughput from run to run. Outside the loop it
// is still timed (sample_time_p50_ms), checked and traced.
const (
	evalLeaves   = 100_000 // page file ≈ 35 MB, about 2× the 16 MiB buffer pool
	evalK        = 50
	evalSwaps    = 3 // label swaps that turn a projection into a "reconstruction"
	cladeMin     = 20
	cladeMax     = 400
	evalTreeName = "gold"
)

type evaluate struct {
	o      *oracle
	clades []int   // internal nodes whose clade spans cladeMin..cladeMax leaves
	height float64 // root-to-leaf distance of the ultrametric gold tree
	seed   int64
}

func prepareEvaluate(dir string, seed int64) (fixture, error) {
	g, err := loadGold(dir, "gold.nwk", evalLeaves, seed)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(g)
	if err != nil {
		return nil, err
	}
	e := &evaluate{o: o, seed: seed, height: g.dist[g.leaves[0].ID]}
	for _, n := range g.cladeNodes(cladeMin, cladeMax) {
		e.clades = append(e.clades, n.ID)
	}
	return e, nil
}

// evalIter is one iteration of a client's seeded op sequence. Only the
// draws live here; the sample's answer feeds the projection, and the
// projection's answer feeds the match.
type evalIter struct {
	sampleSeed  int64
	time        float64 // < 0: uniform sampling
	perturbSeed int64
	lca         [2][2]string
	clade       int // node whose clade the pair spans
	cladePair   [2]string
}

// next draws a client's next iteration; timed asks for a time-constrained
// sample.
func (e *evaluate) next(r *rand.Rand, timed bool) evalIter {
	it := evalIter{sampleSeed: r.Int63(), time: -1, perturbSeed: r.Int63()}
	if t := e.height * (0.2 + 0.6*r.Float64()); timed {
		it.time = t
	}
	for i := range it.lca {
		p := e.o.g.pickLeaves(r, 2)
		it.lca[i] = [2]string{p[0], p[1]}
	}
	it.clade = e.clades[r.Intn(len(e.clades))]
	it.cladePair[0], it.cladePair[1] = cladePair(r, e.o.g.tree.Nodes()[it.clade])
	return it
}

func (e *evaluate) setup(ctx context.Context, d *deployment) error {
	return d.load(ctx, evalTreeName, e.o.g)
}

func (e *evaluate) clients(d *deployment) []clientFunc {
	out := make([]clientFunc, 2)
	for i := range out {
		r := clientRand(e.seed, i)
		c := d.client(d.primary)
		out[i] = func(ctx context.Context, end time.Time, rec *recorder) {
			for time.Now().Before(end) {
				e.iterate(ctx, c, rec, e.next(r, false))
			}
			rec.close()
			e.iterate(ctx, c, rec, e.next(r, true))
		}
	}
	return out
}

func (e *evaluate) iterate(ctx context.Context, c *client.Client, rec *recorder, it evalIter) {
	var species []string
	kind, timeout := "sample", readTimeout
	if it.time >= 0 {
		kind, timeout = "sample_time", sampleTimeTimeout
	}
	res := rec.do(ctx, kind, true, timeout, func(ctx context.Context) (func() error, error) {
		var err error
		if it.time >= 0 {
			species, err = c.SampleWithTimeCtx(ctx, evalTreeName, it.time, evalK, it.sampleSeed)
		} else {
			species, err = c.SampleUniformCtx(ctx, evalTreeName, evalK, it.sampleSeed)
		}
		return func() error { return e.o.checkSample(evalK, it.time, species) }, err
	})
	if res.err == nil {
		var projected string
		res = rec.do(ctx, "project", true, readTimeout, func(ctx context.Context) (func() error, error) {
			resp, err := c.ProjectCtx(ctx, evalTreeName, species)
			projected = resp.Newick
			return func() error { return e.o.checkProject(species, resp.Newick) }, err
		})
		if res.err == nil {
			if t, err := newick.Parse(projected); err == nil { // unparsable: the project check fails it
				pattern := perturb(t, rand.New(rand.NewSource(it.perturbSeed)), evalSwaps)
				rec.do(ctx, "match", true, readTimeout, func(ctx context.Context) (func() error, error) {
					resp, err := c.MatchCtx(ctx, evalTreeName, pattern)
					return func() error { return e.o.checkMatch(pattern, resp) }, err
				})
			}
		}
	}
	for _, p := range it.lca {
		lca(ctx, c, rec, e.o, evalTreeName, p[0], p[1])
	}
	clade(ctx, c, rec, e.o, evalTreeName, it.clade, it.cladePair)
}

func lca(ctx context.Context, c *client.Client, rec *recorder, o *oracle, tree, a, b string) {
	rec.do(ctx, "lca", true, readTimeout, func(ctx context.Context) (func() error, error) {
		resp, err := c.LCACtx(ctx, tree, a, b)
		return func() error { return o.checkLCA(a, b, resp.Node) }, err
	})
}

func clade(ctx context.Context, c *client.Client, rec *recorder, o *oracle, tree string, v int, pair [2]string) {
	rec.do(ctx, "clade", true, readTimeout, func(ctx context.Context) (func() error, error) {
		resp, err := c.CladeCtx(ctx, tree, pair[:])
		return func() error { return o.checkClade(v, resp) }, err
	})
}

func (e *evaluate) liveBytes() int64 { return int64(len(e.o.g.text)) }

func (e *evaluate) describe() string {
	return fmt.Sprintf("gold tree %d leaves / %d nodes, Newick %.1f MB; k=%d, one time-constrained sample per client after the loop; %d clade roots spanning %d-%d leaves",
		len(e.o.g.leaves), len(e.o.g.size), float64(len(e.o.g.text))/1e6, evalK, len(e.clades), cladeMin, cladeMax)
}

// replay is the op sequence of client 0, resolved in process: the traced
// run calls treestore with the same draws the HTTP clients made.
func (e *evaluate) replay(n int) replaySet {
	r := clientRand(e.seed, 0)
	rs := replaySet{tree: evalTreeName, inputs: []string{e.o.g.text}}
	for i := 0; i < n; i++ {
		it := e.next(r, i == 0)
		rs.ops = append(rs.ops, replayOp{kind: "sample", k: evalK, seed: it.sampleSeed, time: it.time, project: true, perturbSeed: it.perturbSeed})
		for _, p := range it.lca {
			rs.ops = append(rs.ops, replayOp{kind: "lca", names: []string{p[0], p[1]}})
		}
		rs.ops = append(rs.ops, replayOp{kind: "clade", names: it.cladePair[:]})
	}
	return rs
}
