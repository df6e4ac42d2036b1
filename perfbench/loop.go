package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/client"
)

// Per-call deadlines. A call that outlives its deadline is a failed op —
// this is what keeps a request hung on the server (for example behind a
// leaked writer lock) from hanging the run.
const (
	readTimeout       = 5 * time.Second
	sampleTimeTimeout = 30 * time.Second // ~5 s on evaluate's tree
	writeTimeout      = 5 * time.Second
	loadTimeout       = 30 * time.Second
)

// result is one attempted operation.
type result struct {
	kind    string
	read    bool
	looped  bool          // sent from the closed loop, so counted in throughput
	at      time.Duration // when it was sent, from the start of the timed phase
	dur     time.Duration
	err     error        // error status, transport error or deadline
	check   func() error // oracle check, run after the timed phase
	traced  bool         // sent with ?debug=trace (traced run only)
	sink    *traceSink   // what the traced transport saw (traced run only)
	nodes   int          // nodes stored, for loads
	written int64        // user bytes a successful write stored
}

// recorder collects one client's results. Each client owns its own, so
// recording takes no lock.
type recorder struct {
	results []result
	lags    []time.Duration // write-acknowledged to replica-served (curate)
	traced  bool            // this is a traced run
	start   time.Time       // start of the timed phase
	// closed is when the client left its closed loop; throughput counts
	// only ops before it. A client may run a few ops after it (evaluate's
	// time-constrained samples); on a traced run those are all traced.
	closed time.Time
}

// close marks the end of the client's closed loop.
func (rec *recorder) close() {
	if rec.closed.IsZero() {
		rec.closed = time.Now()
	}
}

// sliceLen is the length of the alternating traced/untraced time slices
// of a traced run, traced first; comparing the two halves gives the
// tracing overhead.
const sliceLen = 250 * time.Millisecond

// do runs one operation under its deadline and records it. fn returns the
// oracle check for the answer it got (nil when there is nothing to check).
func (rec *recorder) do(ctx context.Context, kind string, read bool, timeout time.Duration, fn func(ctx context.Context) (func() error, error)) *result {
	r := result{kind: kind, read: read, looped: rec.closed.IsZero(), at: time.Since(rec.start)}
	if rec.traced {
		r.traced = !r.looped || (time.Since(rec.start)/sliceLen)%2 == 0
		r.sink = &traceSink{trace: r.traced}
		ctx = context.WithValue(ctx, sinkKey{}, r.sink)
	}
	r.dur, r.check, r.err = call(ctx, timeout, fn)
	rec.results = append(rec.results, r)
	return &rec.results[len(rec.results)-1]
}

// call runs fn under a per-call deadline and times it.
func call(parent context.Context, timeout time.Duration, fn func(ctx context.Context) (func() error, error)) (time.Duration, func() error, error) {
	ctx, cancel := context.WithTimeout(parent, timeout)
	defer cancel()
	start := time.Now()
	check, err := fn(ctx)
	return time.Since(start), check, err
}

// traceSink receives, for one request of a traced run, the span tree
// crimsond echoed and the response body size.
type traceSink struct {
	trace     bool // ask for ?debug=trace
	summary   *client.SpanSummary
	respBytes int64
}

type sinkKey struct{}

// tracingTransport adds ?debug=trace to the requests whose context carries
// a tracing sink, and reports the echoed span tree and body size to it.
// Untraced runs do not install it.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sink, _ := req.Context().Value(sinkKey{}).(*traceSink)
	if sink == nil {
		return t.base.RoundTrip(req)
	}
	if sink.trace {
		req = req.Clone(req.Context())
		q := req.URL.Query()
		q.Set("debug", "trace")
		req.URL.RawQuery = q.Encode()
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	sink.respBytes = int64(len(raw))
	if sink.trace && strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		var wire struct {
			Trace *client.SpanSummary `json:"trace"`
		}
		if json.Unmarshal(raw, &wire) == nil {
			sink.summary = wire.Trace
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp, nil
}

// newHTTPClient returns the HTTP client the benchmark's clients share: at
// most maxConns connections per server, and the tracing transport on
// traced runs.
func newHTTPClient(maxConns int, traced bool) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	if traced {
		rt = tracingTransport{base: rt}
	}
	return &http.Client{Transport: rt}
}
