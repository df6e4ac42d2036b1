package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/client"
	"repro/internal/newick"
)

// The rerun workload replays experiments and dashboards: a skewed stream
// over a fixed pool of cacheable queries on a tree that fits every cache.
// Most requests hit the server's result cache, so the work lands in the
// server, HTTP/JSON and client layers rather than in storage.
const (
	rerunLeaves   = 10_000 // page file ≈ 3.5 MB: fits the pool and the read cache
	rerunPool     = 4096   // 4× the 1024-entry result cache
	rerunK        = 20
	rerunZipfS    = 1.1 // ~90% of requests go to the 1024 hottest queries
	rerunTreeName = "runs"
)

type rerunQuery struct {
	kind    string // project, lca, clade, match
	names   []string
	clade   int
	pattern string // match: Newick of the reconstructed tree
}

type rerun struct {
	o    *oracle
	pool []rerunQuery
	seed int64
}

func prepareRerun(dir string, seed int64) (fixture, error) {
	g, err := loadGold(dir, "gold.nwk", rerunLeaves, seed)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(g)
	if err != nil {
		return nil, err
	}
	return &rerun{o: o, seed: seed, pool: rerunQueries(o, rand.New(rand.NewSource(seed)))}, nil
}

// rerunQueries builds the query pool. Pool index i is popularity rank
// i+1; the four cacheable kinds take the ranks in turn, so each kind gets
// the same share of requests whatever the seed.
func rerunQueries(o *oracle, r *rand.Rand) []rerunQuery {
	clades := o.g.cladeNodes(cladeMin, cladeMax)
	pool := make([]rerunQuery, rerunPool)
	for i := range pool {
		q := rerunQuery{kind: [...]string{"project", "lca", "clade", "match"}[i%4]}
		switch q.kind {
		case "project":
			q.names = o.g.pickLeaves(r, rerunK)
		case "lca":
			q.names = o.g.pickLeaves(r, 2)
		case "clade":
			v := clades[r.Intn(len(clades))]
			a, b := cladePair(r, v)
			q.clade, q.names = v.ID, []string{a, b}
		case "match":
			t, err := o.planner.ProjectNames(o.g.pickLeaves(r, rerunK))
			if err != nil {
				panic(err) // the names were drawn from the tree itself
			}
			q.pattern = newick.String(perturb(t, r, 2))
		}
		pool[i] = q
	}
	return pool
}

func (w *rerun) setup(ctx context.Context, d *deployment) error {
	return d.load(ctx, rerunTreeName, w.o.g)
}

// zipf draws pool indices; index i has popularity rank i+1.
func zipf(r *rand.Rand) *rand.Zipf { return rand.NewZipf(r, rerunZipfS, 1, rerunPool-1) }

func (w *rerun) clients(d *deployment) []clientFunc {
	out := make([]clientFunc, 2)
	for i := range out {
		z := zipf(clientRand(w.seed, i))
		c := d.client(d.primary)
		out[i] = func(ctx context.Context, end time.Time, rec *recorder) {
			for time.Now().Before(end) {
				w.query(ctx, c, rec, w.pool[z.Uint64()])
			}
		}
	}
	return out
}

func (w *rerun) query(ctx context.Context, c *client.Client, rec *recorder, q rerunQuery) {
	switch q.kind {
	case "project":
		rec.do(ctx, "project", true, readTimeout, func(ctx context.Context) (func() error, error) {
			resp, err := c.ProjectCtx(ctx, rerunTreeName, q.names)
			return func() error { return w.o.checkProject(q.names, resp.Newick) }, err
		})
	case "lca":
		lca(ctx, c, rec, w.o, rerunTreeName, q.names[0], q.names[1])
	case "clade":
		clade(ctx, c, rec, w.o, rerunTreeName, q.clade, [2]string{q.names[0], q.names[1]})
	case "match":
		pattern, err := newick.Parse(q.pattern)
		if err != nil {
			panic(err) // generated by this benchmark
		}
		rec.do(ctx, "match", true, readTimeout, func(ctx context.Context) (func() error, error) {
			resp, err := c.MatchCtx(ctx, rerunTreeName, pattern)
			return func() error { return w.o.checkMatch(pattern, resp) }, err
		})
	}
}

func (w *rerun) liveBytes() int64 { return int64(len(w.o.g.text)) }

func (w *rerun) describe() string {
	return fmt.Sprintf("tree %d leaves / %d nodes, Newick %.2f MB; pool of %d project/lca/clade/match queries (k=%d), Zipf s=%.1f",
		len(w.o.g.leaves), len(w.o.g.size), float64(len(w.o.g.text))/1e6, rerunPool, rerunK, rerunZipfS)
}

func (w *rerun) replay(n int) replaySet {
	z := zipf(clientRand(w.seed, 0))
	rs := replaySet{tree: rerunTreeName, inputs: []string{w.o.g.text}}
	for i := 0; i < n; i++ {
		q := w.pool[z.Uint64()]
		op := replayOp{kind: q.kind, names: q.names}
		if q.kind == "match" {
			op.pattern, _ = newick.Parse(q.pattern)
		}
		rs.ops = append(rs.ops, op)
	}
	return rs
}
