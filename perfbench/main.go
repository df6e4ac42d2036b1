// Command perfbench is Crimson's end-to-end benchmark. It starts crimsond
// (the `crimson serve` binary) with its default settings on loopback,
// drives it through the typed client package with closed-loop clients —
// each sends its next request only after the previous reply — checks
// every answer against in-memory oracles, and prints one JSON result as
// the last line of standard output.
//
//	perfbench -crimson <binary> -work <dir> -workload evaluate -seed 1 -seconds 10 -trace 0
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer breakdown: server-side deltas scraped
// from /metrics and /v1/stats, span trees echoed by ?debug=trace, and an
// in-process replay of the op sequence against treestore, newick and
// treecmp. perfbench/run.py builds both binaries and runs this.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: evaluate, rerun or curate")
	seed := fs.Int64("seed", 1, "seed of the generated inputs and op sequences")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	bin := fs.String("crimson", "", "path of the crimson binary (crimsond is `crimson serve`)")
	work := fs.String("work", ".bench_build", "directory for the input cache and run scratch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := findSpec(*workload)
	if !ok || *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -crimson, a -workload of evaluate, rerun or curate, -seconds > 0 and -trace 0 or 1\n")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{spec: sp, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, bin: *bin, work: *work}
	fmt.Fprintf(stdout, "host: %s\n", fingerprint(*work))
	out, err := runBench(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	line, err := report(stdout, cfg, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the human-readable report and returns the JSON result
// line: the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one.
func report(w io.Writer, cfg config, out *outcome) (string, error) {
	failed := out.nWrong
	for _, r := range out.results {
		if r.err != nil {
			failed++
		}
	}
	fmt.Fprintf(w, "workload %s: %d closed-loop clients; %s\n", cfg.spec.name, out.clients, out.fx.describe())
	fmt.Fprintf(w, "repository after set-up: %.1f MB (buffer pool 16 MiB, read cache 64 MB)\n", float64(out.setupPageBytes)/1e6)
	for _, d := range out.daemons {
		fmt.Fprintf(w, "crimsond %s: %s; first panic line: %q; stderr kept at %s\n", d.name, d.status, d.panic, d.stderr)
	}
	fmt.Fprintf(w, "ops: attempted %d, failed %d (wrong answers %d) over %.2fs; CPU steal %.1f%%\n",
		len(out.results), failed, out.nWrong, out.elapsed.Seconds(), 100*out.stealFrac)
	for _, e := range firstErrors(out) {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}

	// Any failed op — an error status, a transport error, a missed
	// deadline or a wrong answer — makes the run incorrect: a healthy
	// server fails none, and a change that makes ops fail fast must not
	// pass as a speed-up.
	res := resultLine{Correct: failed == 0, Attempted: len(out.results), Failed: failed, Metrics: map[string]metric{}}
	if res.Attempted == 0 {
		return "", fmt.Errorf("no operation was attempted")
	}
	if cfg.traced {
		layers := out.layers
		if layers == nil {
			return "", fmt.Errorf("no per-layer metrics (the final scrape failed)")
		}
		for name, v := range traceOverhead(out.results) {
			layers[name] = v
		}
		for _, name := range slices.Sorted(maps.Keys(layers)) {
			unit := layerUnit(name)
			fmt.Fprintf(w, "layer %-44s %14.4f %s\n", name, layers[name], unit)
			res.Metrics[name] = metric{Value: layers[name], Unit: unit}
		}
		if len(out.unmeasured) > 0 {
			fmt.Fprintf(w, "not measured on this workload: %s\n", strings.Join(out.unmeasured, ", "))
		}
	} else {
		res.Metrics = endToEnd(w, out, failed)
	}
	raw, err := json.Marshal(res)
	return string(raw), err
}

// jsonKinds are the op kinds whose p50 goes into the JSON result: those
// both benchmarked workloads, evaluate and rerun, issue.
var jsonKinds = []string{"project", "lca", "clade", "match"}

// endToEnd computes and prints every end-to-end metric. The JSON result
// carries those the benchmarked workloads measure and that repeat from
// run to run on a shared host; the others — an op kind not every
// benchmarked workload issues, read throughput, the p99 and load
// throughput, which swing with CPU steal, and the peak RSS, which swings
// with GC timing — are printed only. A run whose server failed may lack
// samples for some; those are left out and say why.
func endToEnd(w io.Writer, out *outcome, failed int) map[string]metric {
	m := map[string]metric{}
	emit := func(name, unit string, v float64, n int, inJSON bool) {
		fmt.Fprintf(w, "metric %-20s %14.4f %-6s (n=%d)\n", name, v, unit, n)
		if inJSON {
			m[name] = metric{Value: v, Unit: unit}
		}
	}
	var readDur []time.Duration
	for _, r := range out.results {
		if r.err == nil && r.read && r.looped {
			readDur = append(readDur, r.dur)
		}
	}
	reads := msSorted(readDur)
	emit("setup_s", "s", medianOf(out.setupS), len(out.setupS), true)
	emit("read_ops_per_s", "1/s", float64(len(reads))/out.elapsed.Seconds(), len(reads), false)
	emit("read_p50_ms", "ms", median(reads), len(reads), true)
	fmt.Fprintf(w, "read ops/s by 5 s window: %s\n", windowRates(out.results, out.elapsed, 5*time.Second))
	if p99, ok := percentile(reads, 0.99); ok {
		emit("read_p99_ms", "ms", p99, len(reads), false)
	} else {
		fmt.Fprintf(w, "metric read_p99_ms not reported: %d reads leave fewer than %d beyond the 99th percentile\n", len(reads), minBeyond)
	}
	byKind := opLatencies(out.results)
	var thin []string
	for _, kind := range []string{"project", "lca", "clade", "match", "sample", "sample_time", "species_get", "species_put"} {
		xs := msSorted(byKind[kind])
		if len(xs) == 0 {
			continue
		}
		name := strings.Replace(kind, "species_put", "put", 1)
		emit(name+"_p50_ms", "ms", median(xs), len(xs), slices.Contains(jsonKinds, kind))
		if v, ok := percentile(xs, 0.99); ok {
			emit(name+"_p99_ms", "ms", v, len(xs), false)
		} else {
			thin = append(thin, name)
		}
	}
	if len(thin) > 0 {
		fmt.Fprintf(w, "p99 not reported (fewer than %d samples beyond it) for: %s\n", minBeyond, strings.Join(thin, ", "))
	}
	if len(out.lags) > 0 {
		emit("repl_lag_p50_ms", "ms", median(msSorted(out.lags)), len(out.lags), false)
	}
	var rates []float64
	for _, l := range out.loads {
		rates = append(rates, float64(l.nodes)/l.dur.Seconds())
	}
	if len(rates) > 0 {
		emit("load_nodes_per_s", "1/s", medianOf(rates), len(rates), false)
	}
	emit("failed_frac", "ratio", float64(failed)/float64(len(out.results)), len(out.results), false)
	emit("server_peak_rss_mb", "MB", medianOf(out.rssRounds), len(out.rssRounds), false)
	fmt.Fprintf(w, "peak RSS by set-up round (MB): %.1f\n", out.rssRounds)
	emit("space_amp", "ratio", out.spaceAmp, 1, true)
	emit("space_amp_end", "ratio", out.endSpaceAmp, 1, false)
	return m
}

// traceOverhead compares the traced run's untraced and traced time
// slices: traced minus untraced read median and read throughput.
func traceOverhead(results []result) map[string]float64 {
	var lat [2][]time.Duration
	for _, r := range results {
		if r.err == nil && r.read && r.looped {
			i := 0
			if r.traced {
				i = 1
			}
			lat[i] = append(lat[i], r.dur)
		}
	}
	// Alternating slices give each half the same wall time, so op counts
	// compare as throughputs.
	var p50 [2]float64
	for i := range lat {
		p50[i] = median(msSorted(lat[i]))
	}
	return map[string]float64{
		"trace_overhead.read_p50_ms":   p50[1] - p50[0],
		"trace_overhead.read_ops_frac": ratio(float64(len(lat[1])-len(lat[0])), float64(len(lat[0]))),
	}
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	tokens := strings.FieldsFunc(name, func(r rune) bool { return r == '.' || r == '_' })
	has := func(t string) bool { return slices.Contains(tokens, t) }
	switch {
	case has("us"):
		return "us"
	case has("ms"):
		return "ms"
	case has("ratio") || has("frac") || strings.HasSuffix(name, "_byte") || strings.HasSuffix(name, "_shipped"):
		return "ratio"
	case has("bytes"):
		return "bytes"
	default:
		return "count"
	}
}

// firstErrors lists the first failure of each kind.
func firstErrors(out *outcome) []string {
	seen := map[string]bool{}
	var lines []string
	for _, r := range out.results {
		if r.err != nil && !seen[r.kind] {
			seen[r.kind] = true
			lines = append(lines, fmt.Sprintf("%s: %v", r.kind, r.err))
		}
	}
	sort.Strings(lines)
	return append(lines, out.wrong...)
}

// windowRates lists the successful closed-loop reads per second in each
// whole window of the timed phase, to show how steady the run was.
func windowRates(results []result, elapsed, window time.Duration) string {
	counts := make([]int, elapsed/window)
	for _, r := range results {
		if i := int(r.at / window); r.err == nil && r.read && r.looped && i < len(counts) {
			counts[i]++
		}
	}
	var parts []string
	for _, n := range counts {
		parts = append(parts, fmt.Sprintf("%.0f", float64(n)/window.Seconds()))
	}
	return strings.Join(parts, " ")
}
