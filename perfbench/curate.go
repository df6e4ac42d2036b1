package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/client"
)

// The curate workload writes beside reads, with replication: one client
// loads fresh trees, attaches sequence records and deletes old trees on
// the primary; the other reads each write back from a follower, fenced at
// the writer's epochs (read-your-writes). It drives the write path —
// Newick parse, ingest, copy-on-write, WAL, group commit, checkpoint,
// reclaim — and WAL shipping and apply, which no other workload touches.
const (
	curateLeaves  = 20_000
	curateInputs  = 6  // distinct generated trees, loaded in turn under fresh names
	curateLive    = 4  // each iteration deletes the tree loaded this many iterations earlier
	curatePuts    = 40 // species records per iteration
	curateSeqMin  = 100
	curateSeqMax  = 1500 // straddles the 1024 B inline-value limit: inline and overflow paths both run
	curateK       = 20
	curateAckRoom = 1 << 16 // writes a run can acknowledge: 60 s at ≥ 1 write/ms
)

type curate struct {
	inputs []*oracle
	seed   int64
	// live maps each stored tree to its user bytes (Newick plus species
	// data); newest is the last tree loaded. Only the writer touches them
	// during the run.
	live   map[string]int64
	newest int
}

func prepareCurate(dir string, seed int64) (fixture, error) {
	w := &curate{seed: seed, live: make(map[string]int64), newest: curateLive - 1}
	for i := 0; i < curateInputs; i++ {
		g, err := loadGold(dir, fmt.Sprintf("tree-%d.nwk", i), curateLeaves, seed*100+int64(i))
		if err != nil {
			return nil, err
		}
		o, err := newOracle(g)
		if err != nil {
			return nil, err
		}
		w.inputs = append(w.inputs, o)
	}
	return w, nil
}

func curateTree(i int) string { return fmt.Sprintf("c%05d", i) }

// setup stores the trees the first timed iteration's delete expects, then
// waits for the follower to catch up.
func (w *curate) setup(ctx context.Context, d *deployment) error {
	for i := 0; i < curateLive; i++ {
		g := w.inputs[i%curateInputs].g
		if err := d.load(ctx, curateTree(i), g); err != nil {
			return err
		}
		w.live[curateTree(i)] = int64(len(g.text))
	}
	return d.awaitFollower(ctx)
}

// ack is one acknowledged write the reader checks on the follower.
type ack struct {
	at     time.Time
	epochs []uint64
	o      *oracle
	tree   string
	// A load is read back with a projection and an LCA, a put with a GET.
	names  []string
	sp     string
	data   []byte
	isLoad bool
}

// putRecord is one species-data write of an iteration.
type putRecord struct {
	sp   string
	data []byte
}

// curateIter is one writer iteration's seeded draws.
type curateIter struct {
	input int
	puts  []putRecord
	reads []string // species of the read-back projection (first two: the LCA pair)
}

func (w *curate) next(r *rand.Rand, i int) curateIter {
	it := curateIter{input: i % curateInputs}
	g := w.inputs[it.input].g
	for _, sp := range g.pickLeaves(r, curatePuts) {
		it.puts = append(it.puts, putRecord{sp: sp, data: sequence(r, curateSeqMin+r.Intn(curateSeqMax-curateSeqMin+1))})
	}
	it.reads = g.pickLeaves(r, curateK)
	return it
}

func (w *curate) clients(d *deployment) []clientFunc {
	acks := make(chan ack, curateAckRoom)
	wc := d.client(d.primary)
	rc := d.client(d.follower)
	r := clientRand(w.seed, 0)
	writer := func(ctx context.Context, end time.Time, rec *recorder) {
		defer close(acks)
		send := func(a ack) {
			a.at, a.epochs = time.Now(), wc.LastEpochs()
			select {
			case acks <- a:
			default: // the reader is a full channel behind; leave this write unread
			}
		}
		for i := curateLive; time.Now().Before(end); i++ {
			it := w.next(r, i)
			name, o := curateTree(i), w.inputs[it.input]
			res := rec.do(ctx, "load", false, loadTimeout, func(ctx context.Context) (func() error, error) {
				info, err := wc.LoadNewickCtx(ctx, name, 0, strings.NewReader(o.g.text))
				return func() error { return checkInfo(o.g, info) }, err
			})
			if res.err == nil {
				res.nodes, res.written = len(o.g.size), int64(len(o.g.text))
				w.live[name] = int64(len(o.g.text))
				w.newest = i
				send(ack{o: o, tree: name, names: it.reads, isLoad: true})
				for _, p := range it.puts {
					if !time.Now().Before(end) {
						return // a hung shard makes each put wait out its deadline
					}
					p := p
					res := rec.do(ctx, "species_put", false, writeTimeout, func(ctx context.Context) (func() error, error) {
						return nil, wc.PutSpeciesDataCtx(ctx, name, p.sp, "seq", p.data)
					})
					if res.err == nil {
						res.written = int64(len(p.data))
						w.live[name] += res.written
						send(ack{o: o, tree: name, sp: p.sp, data: p.data})
					}
				}
			}
			old := curateTree(i - curateLive)
			res = rec.do(ctx, "delete", false, writeTimeout, func(ctx context.Context) (func() error, error) {
				return nil, wc.DeleteCtx(ctx, old)
			})
			if res.err == nil {
				delete(w.live, old)
			}
		}
	}
	reader := func(ctx context.Context, end time.Time, rec *recorder) {
		for a := range acks {
			if !time.Now().Before(end) {
				continue // drain what the writer acknowledged after the end
			}
			fenced := client.MinEpochContext(ctx, a.epochs)
			sent := time.Now()
			var res *result
			if a.isLoad {
				res = rec.do(fenced, "project", true, readTimeout, func(ctx context.Context) (func() error, error) {
					resp, err := rc.ProjectCtx(ctx, a.tree, a.names)
					return func() error { return a.o.checkProject(a.names, resp.Newick) }, err
				})
			} else {
				res = rec.do(fenced, "species_get", true, readTimeout, func(ctx context.Context) (func() error, error) {
					got, err := rc.SpeciesDataCtx(ctx, a.tree, a.sp, "seq")
					return func() error { return checkBytes(a.data, got) }, err
				})
			}
			if res.err == nil {
				from := a.at
				if sent.After(from) {
					from = sent
				}
				rec.lags = append(rec.lags, time.Since(from))
			}
			if a.isLoad {
				lca(fenced, rc, rec, a.o, a.tree, a.names[0], a.names[1])
			}
		}
	}
	return []clientFunc{writer, reader}
}

// checkInfo requires a load to report the generated tree's shape.
func checkInfo(g *goldTree, info client.TreeInfo) error {
	if info.Nodes != len(g.size) || info.Leaves != len(g.leaves) {
		return fmt.Errorf("load: stored %d nodes / %d leaves, want %d / %d",
			info.Nodes, info.Leaves, len(g.size), len(g.leaves))
	}
	return nil
}

func (w *curate) liveBytes() int64 {
	var n int64
	for _, b := range w.live {
		n += b
	}
	return n
}

func (w *curate) describe() string {
	return fmt.Sprintf("%d-leaf trees (Newick %.2f MB each) loaded under fresh names, %d live; %d species records of %d-%d B per tree; reads on a follower",
		curateLeaves, float64(len(w.inputs[0].g.text))/1e6, curateLive, curatePuts, curateSeqMin, curateSeqMax)
}

// replay runs the reader's queries in process against the newest stored
// tree the copy holds.
func (w *curate) replay(n int) replaySet {
	rs := replaySet{tree: curateTree(w.newest)}
	for _, o := range w.inputs {
		rs.inputs = append(rs.inputs, o.g.text)
	}
	g := w.inputs[w.newest%curateInputs].g
	r := clientRand(w.seed, 1)
	for i := 0; i < n; i++ {
		names := g.pickLeaves(r, curateK)
		rs.ops = append(rs.ops, replayOp{kind: "project", names: names}, replayOp{kind: "lca", names: names[:2]})
	}
	return rs
}
