// Repository demonstrates the disk-backed lifecycle of §2.1 and the §3
// demo script: load a tree with species data into the relational
// repository, run structure queries against the store (not main memory),
// append more species data, recall the query history, and reopen the page
// file to show durability.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	crimson "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "crimson-repo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "crimson.db")

	r := rand.New(rand.NewSource(99))
	gold, err := crimson.GenerateYule(5000, 1.0, r)
	if err != nil {
		log.Fatal(err)
	}
	aln, err := crimson.SimulateSequences(gold, crimson.SeqConfig{Length: 300, Model: crimson.K2P(2)}, r)
	if err != nil {
		log.Fatal(err)
	}

	repo, err := crimson.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== loading 5000-leaf gold tree into", path)
	stored, err := repo.LoadTree("gold", gold, crimson.DefaultFanout, func(msg string) {
		fmt.Println("  ", msg)
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := repo.Species.PutAlignment("gold", "seq:sim", aln); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree info: %+v\n", stored.Info())

	// Structure queries against the store, under a cancellable context —
	// the same ctx-first forms crimsond runs per request.
	ctx := context.Background()
	leaves := gold.LeafNames()
	a, _ := stored.NodeByNameCtx(ctx, leaves[10])
	b, _ := stored.NodeByNameCtx(ctx, leaves[4000])
	lca, err := stored.LCACtx(ctx, a.ID, b.ID)
	if err != nil {
		log.Fatal(err)
	}
	lrow, _ := stored.NodeCtx(ctx, lca)
	fmt.Printf("LCA(%s, %s) = node %d at depth %d, time %.3f\n", a.Name, b.Name, lca, lrow.Depth, lrow.Dist)
	repo.Queries.Record("lca", map[string]string{"a": a.Name, "b": b.Name}, fmt.Sprintf("node %d", lca))

	// Sample with respect to time and project — the §2.2 workload.
	picked, err := stored.SampleWithTimeCtx(ctx, lrow.Dist, 8, r)
	if err != nil {
		log.Fatal(err)
	}
	ids := make([]int, len(picked))
	for i, n := range picked {
		ids[i] = n.ID
	}
	projected, err := stored.ProjectCtx(ctx, ids)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprojected %d sampled species:\n%s", len(picked), crimson.ASCII(projected))
	repo.Queries.Record("project", map[string]any{"k": len(picked)}, crimson.FormatNewick(projected))

	// Species data retrieval for the sample.
	seq, err := repo.Species.Get("gold", picked[0].Name, "seq:sim")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s sequence (first 60 of %d): %s...\n", picked[0].Name, len(seq), seq[:60])

	// Append more species data later — the demo's third loading option.
	if err := repo.Species.Put("gold", picked[0].Name, "trait:eyecolor", []byte("brown")); err != nil {
		log.Fatal(err)
	}
	recs, _ := repo.Species.List("gold", picked[0].Name)
	fmt.Printf("%s now has %d data records\n", picked[0].Name, len(recs))

	if err := repo.Close(); err != nil {
		log.Fatal(err)
	}

	// Reopen: everything is durable.
	fmt.Println("\n== reopening repository")
	repo, err = crimson.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer repo.Close()
	infos, _ := repo.Trees.TreesCtx(ctx)
	fmt.Printf("trees: %+v\n", infos)
	history, _ := repo.Queries.HistoryCtx(ctx, 5)
	fmt.Println("query history (most recent first):")
	for _, e := range history {
		fmt.Printf("  #%d %-8s %s => %.60s\n", e.ID, e.Kind, e.Args, e.Summary)
	}
	st, _ := os.Stat(path)
	fmt.Printf("page file size: %d KiB\n", st.Size()/1024)
}
