package main

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/newick"
	"repro/internal/treecmp"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, // nearest rank 990: 9 samples beyond
		{1000, 0.99, true}, // nearest rank 990: 10 beyond
		{1009, 0.99, true},
		{20, 0.5, true}, // nearest rank 10: 10 beyond
		{19, 0.5, false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, ok := percentile(xs, tc.q)
		if ok != tc.want {
			t.Errorf("n=%d q=%g: ok=%v, want %v (value %g)", tc.n, tc.q, ok, tc.want, v)
		}
	}
	if v, _ := percentile([]float64{1, 2, 3, 4}, 0.5); v != 2 {
		t.Errorf("median of 1..4 by nearest rank = %g, want 2", v)
	}
}

// smallGold caches and parses a small seeded tree for the tests.
func smallGold(t *testing.T, leaves int, seed int64) *goldTree {
	t.Helper()
	g, err := loadGold(t.TempDir(), "gold.nwk", leaves, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOpSequenceIsSeeded(t *testing.T) {
	g := smallGold(t, 2000, 7)
	o, err := newOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	e := &evaluate{o: o, seed: 7, height: g.dist[g.leaves[0].ID]}
	for _, n := range g.cladeNodes(cladeMin, cladeMax) {
		e.clades = append(e.clades, n.ID)
	}
	draw := func(seed int64, client int) []evalIter {
		e.seed = seed
		r := clientRand(seed, client)
		var out []evalIter
		for i := 0; i < 50; i++ {
			out = append(out, e.next(r, i == 49))
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different evaluate sequences")
	}
	if reflect.DeepEqual(a, draw(8, 0)) || reflect.DeepEqual(a, draw(7, 1)) {
		t.Fatal("another seed or client drew the same evaluate sequence")
	}
	if a[0].time >= 0 || a[49].time < 0 {
		t.Fatalf("only the last sample should be time-constrained: %v, %v", a[0].time, a[49].time)
	}

	pool := func() []rerunQuery { return rerunQueries(o, rand.New(rand.NewSource(3))) }
	if !reflect.DeepEqual(pool(), pool()) {
		t.Fatal("the same seed built different rerun pools")
	}
	w := &rerun{o: o, seed: 3, pool: pool()}
	if !reflect.DeepEqual(w.replay(100), w.replay(100)) {
		t.Fatal("the same seed drew different rerun streams")
	}

	c := &curate{inputs: []*oracle{o}, seed: 5}
	if !reflect.DeepEqual(c.next(clientRand(5, 0), 0), c.next(clientRand(5, 0), 0)) {
		t.Fatal("the same seed drew different curate iterations")
	}

	// The cached input is the generated one: a second load reads it back.
	dir := t.TempDir()
	g1, err := loadGold(dir, "x.nwk", 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := loadGold(dir, "x.nwk", 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g1.text != g2.text || g1.text != newick.String(yule(500, rand.New(rand.NewSource(9)))) {
		t.Fatal("cached input differs from the generated tree")
	}
}

func TestOracleRejectsCorruptedAnswers(t *testing.T) {
	g := smallGold(t, 3000, 11)
	o, err := newOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))

	// LCA: the right node passes, a neighbour fails.
	ab := g.pickLeaves(r, 2)
	na, nb := g.tree.NodeByName(ab[0]), g.tree.NodeByName(ab[1])
	id := o.ix.LCA(na.ID, nb.ID)
	good := client.Node{ID: id, Size: g.size[id], Leaf: g.size[id] == 1}
	if err := o.checkLCA(ab[0], ab[1], good); err != nil {
		t.Fatalf("correct LCA rejected: %v", err)
	}
	bad := good
	bad.ID++
	if o.checkLCA(ab[0], ab[1], bad) == nil {
		t.Fatal("wrong LCA node accepted")
	}

	// Projection: the oracle's own answer passes, a relabelled one fails.
	names := g.pickLeaves(r, 30)
	p, err := o.planner.ProjectNames(names)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.checkProject(names, newick.String(p)); err != nil {
		t.Fatalf("correct projection rejected: %v", err)
	}
	swapped := perturb(p, rand.New(rand.NewSource(2)), 5)
	if o.checkProject(names, newick.String(swapped)) == nil {
		t.Fatal("projection with swapped leaves accepted")
	}
	if o.checkProject(names, "((a,b),c);") == nil {
		t.Fatal("projection over other leaves accepted")
	}

	// Match: the expected RF passes, another fails.
	want, err := o.planner.ProjectNames(swapped.LeafNames())
	if err != nil {
		t.Fatal(err)
	}
	rf, err := treecmp.RobinsonFoulds(want, swapped)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.checkMatch(swapped, client.MatchResponse{RF: rf, Exact: rf == 0}); err != nil {
		t.Fatalf("correct match rejected: %v", err)
	}
	if o.checkMatch(swapped, client.MatchResponse{RF: rf + 2}) == nil {
		t.Fatal("wrong RF accepted")
	}

	// Clade: the exact leaf set passes; one leaf missing fails.
	v := g.cladeNodes(cladeMin, cladeMax)[0]
	var species []string
	for _, l := range g.leaves {
		if l.ID >= v.ID && l.ID < v.ID+g.size[v.ID] {
			species = append(species, l.Name)
		}
	}
	sort.Strings(species)
	resp := client.CladeResponse{Root: client.Node{ID: v.ID, Size: g.size[v.ID]}, Nodes: g.size[v.ID], Leaves: len(species), Species: species}
	if err := o.checkClade(v.ID, resp); err != nil {
		t.Fatalf("correct clade rejected: %v", err)
	}
	resp.Species = species[1:]
	resp.Leaves--
	if o.checkClade(v.ID, resp) == nil {
		t.Fatal("clade missing a leaf accepted")
	}

	// Sample: k distinct leaves beyond the bound pass; a repeat, an
	// internal node or a short draw fails.
	height := g.dist[g.leaves[0].ID]
	draw := g.pickLeaves(r, 10)
	if err := o.checkSample(10, height/2, draw); err != nil {
		t.Fatalf("correct sample rejected: %v", err)
	}
	dup := append([]string(nil), draw...)
	dup[1] = dup[0]
	for _, got := range [][]string{dup, draw[:9], append(draw[:9:9], "")} {
		if o.checkSample(10, -1, got) == nil {
			t.Fatalf("bad sample %v accepted", got)
		}
	}
	if o.checkSample(10, height+1, draw) == nil {
		t.Fatal("sample below the time bound accepted")
	}

	if checkBytes([]byte("ACGT"), []byte("ACGA")) == nil || checkBytes([]byte("ACGT"), []byte("ACGT")) != nil {
		t.Fatal("species bytes check is wrong")
	}
}

func TestWatchdogFailsStalledCall(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // a handler stuck behind a leaked lock
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	c := client.New(srv.URL, newHTTPClient(2, false))
	rec := &recorder{start: time.Now()}
	const deadline = 200 * time.Millisecond
	start := time.Now()
	res := rec.do(context.Background(), "species_put", false, deadline, func(ctx context.Context) (func() error, error) {
		return nil, c.PutSpeciesDataCtx(ctx, "t", "s", "seq", []byte("ACGT"))
	})
	if res.err == nil {
		t.Fatal("a stalled call succeeded")
	}
	if took := time.Since(start); took > deadline+500*time.Millisecond {
		t.Fatalf("a stalled call took %v, deadline %v", took, deadline)
	}
	if len(rec.results) != 1 || rec.results[0].err == nil {
		t.Fatal("the stalled call was not recorded as a failed op")
	}
}

func TestWatchdogReportsServerExit(t *testing.T) {
	dir := t.TempDir()
	// A stand-in for a crimsond that listens, then dies of a panic.
	bin := filepath.Join(dir, "crimson")
	script := "#!/bin/sh\necho 'crimsond listening on 127.0.0.1:9 (1 shard(s), primary)' >&2\nsleep 0.5\n" +
		"echo 'panic: runtime error: slice bounds out of range [:4100] with length 4096' >&2\nexit 2\n"
	if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(context.Background(), bin, dir, filepath.Join(dir, "run-"), "primary")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the watchdog did not see the process exit")
	}
	if got := d.exitStatus(); got != "exit status 2" {
		t.Fatalf("status %q, want the crash's exit status", got)
	}
	if got := d.firstPanic(); !strings.HasPrefix(got, "panic: runtime error") {
		t.Fatalf("first panic line %q", got)
	}
	// Calls to the dead address fail fast instead of hanging the run.
	rec := &recorder{start: time.Now()}
	c := client.New(d.url, newHTTPClient(1, false))
	res := rec.do(context.Background(), "lca", true, readTimeout, func(ctx context.Context) (func() error, error) {
		_, err := c.LCACtx(ctx, "gold", "a", "b")
		return nil, err
	})
	if res.err == nil || res.dur > time.Second {
		t.Fatalf("call to a dead server: err %v after %v", res.err, res.dur)
	}
}

// describedFixture is a fixture that only describes itself, for report.
type describedFixture struct{ fixture }

func (describedFixture) describe() string { return "stub" }

func TestFailedOpMakesRunIncorrect(t *testing.T) {
	cfg := config{spec: workloads[0]}
	ok := result{kind: "lca", read: true, looped: true, dur: time.Millisecond}
	for _, tc := range []struct {
		name    string
		results []result
		nWrong  int
		failed  int
		correct bool
	}{
		{"all succeed", []result{ok, ok}, 0, 0, true},
		{"missed deadline", []result{ok, {kind: "lca", read: true, looped: true, err: context.DeadlineExceeded}}, 0, 1, false},
		{"wrong answer", []result{ok, ok}, 1, 1, false},
	} {
		out := &outcome{fx: describedFixture{}, results: tc.results, nWrong: tc.nWrong,
			elapsed: time.Second, setupS: []float64{1}}
		line, err := report(io.Discard, cfg, out)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var res resultLine
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Correct != tc.correct || res.Failed != tc.failed {
			t.Errorf("%s: correct=%v failed=%d, want correct=%v failed=%d", tc.name, res.Correct, res.Failed, tc.correct, tc.failed)
		}
	}
}
