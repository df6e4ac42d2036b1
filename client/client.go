// Package client is the typed Go client for crimsond, Crimson's HTTP
// server (repro/internal/server). It speaks the same wire types the
// server encodes, parses Newick payloads back into phylo trees, and is
// safe for concurrent use by many goroutines (it holds no mutable state
// beyond the underlying http.Client).
//
// The API is context-first: every operation takes a context and honors
// cancellation and deadlines end to end — cancelling the context aborts
// the request, and the server aborts the underlying scan and releases its
// snapshot. A default per-request timeout can be set with WithTimeout;
// large results stream: Export via ExportReader, and the tree/history
// listings via auto-paginating iterators (TreesIter, HistoryIter) over the
// server's cursor pagination.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchmark"
	"repro/internal/newick"
	"repro/internal/obs"
	"repro/internal/phylo"
	"repro/internal/server"
)

// Re-exported wire types, so callers need only this package.
type (
	// TreeInfo summarizes a stored tree.
	TreeInfo = server.TreeInfo
	// Node is one stored tree node.
	Node = server.Node
	// LCAResponse answers an LCA query.
	LCAResponse = server.LCAResponse
	// ProjectResponse answers a projection query.
	ProjectResponse = server.ProjectResponse
	// CladeResponse answers a minimal-spanning-clade query.
	CladeResponse = server.CladeResponse
	// MatchResponse answers a tree pattern match.
	MatchResponse = server.MatchResponse
	// SpeciesRecord is one species-data record.
	SpeciesRecord = server.SpeciesRecord
	// HistoryEntry is one recorded query.
	HistoryEntry = server.HistoryEntry
	// BenchRequest configures a server-side benchmark run.
	BenchRequest = server.BenchRequest
	// BenchReport is the benchmark result in machine-readable form.
	BenchReport = benchmark.ReportJSON
	// Stats is the server's counter snapshot.
	Stats = server.StatsSnapshot
	// ShardMVCC is one shard's MVCC state within Stats.Shards.
	ShardMVCC = server.ShardMVCC
	// OpLatency is one operation's latency summary within
	// Stats.OpLatencies.
	OpLatency = server.OpLatency
	// SpanSummary is a request's span tree as echoed by ?debug=trace.
	SpanSummary = obs.SpanSummary
)

// APIError is a non-2xx response from the server.
type APIError struct {
	Status  int    // HTTP status code
	Message string // server's error string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("crimsond: %s (HTTP %d)", e.Message, e.Status)
}

// Client talks to one crimsond deployment: a primary, optionally backed
// by read replicas (WithReplicas). Data reads round-robin across the
// replicas and fail over to the primary on a connection error or when a
// replica lags a requested epoch; writes always go to the primary. The
// client tracks the highest epoch vector it has seen (from the
// X-Crimson-Epoch response header), which WithReadYourWrites turns into
// an X-Crimson-Min-Epoch bound on replica reads.
type Client struct {
	base     string
	replicas []string
	rr       atomic.Uint32 // round-robin cursor over replicas
	hc       *http.Client
	timeout  time.Duration
	ryw      bool // attach last-seen epochs to replica reads

	epochMu    sync.Mutex
	lastEpochs []uint64 // pointwise max X-Crimson-Epoch seen, per shard
}

// Option tunes a Client at construction.
type Option func(*Client)

// WithTimeout sets a default per-request timeout, applied whenever the
// caller's context carries no deadline of its own (zero disables, the
// default). A caller-supplied deadline always wins.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// New returns a client for the server at base, e.g.
// "http://127.0.0.1:8321". A nil httpClient uses http.DefaultClient.
func New(base string, httpClient *http.Client, opts ...Option) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// BaseURL reports the server base URL the client was built with.
func (c *Client) BaseURL() string { return c.base }

// reqCtx applies the client's default timeout when ctx has no deadline.
// The returned cancel must be called once the response body is consumed.
func (c *Client) reqCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			return context.WithTimeout(ctx, c.timeout)
		}
	}
	return ctx, func() {}
}

// apiError decodes a non-2xx response body into an APIError.
func apiError(resp *http.Response) *APIError {
	var wire server.ErrorResponse
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if json.Unmarshal(raw, &wire) != nil || wire.Error == "" {
		wire.Error = strings.TrimSpace(string(raw))
	}
	return &APIError{Status: resp.StatusCode, Message: wire.Error}
}

func (c *Client) do(ctx context.Context, method, path string, query url.Values, body io.Reader, contentType string, out any) error {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	bases := c.endpoints(method, path, body)
	var lastErr error
	for i, base := range bases {
		err := c.doOnce(ctx, base, method, path, query, body, contentType, out)
		if err == nil {
			return nil
		}
		lastErr = err
		// Fail over to the next endpoint (the primary is always last)
		// only for errors a different server can fix: a connection
		// failure, or a replica refusing because it lags the requested
		// epoch (409) or is overloaded (503).
		if i == len(bases)-1 || ctx.Err() != nil || !failoverErr(err) {
			return err
		}
	}
	return lastErr
}

// failoverErr reports whether a replica's failure should be retried on
// the primary.
func failoverErr(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusConflict || ae.Status == http.StatusServiceUnavailable
	}
	return true // transport-level failure
}

// doOnce issues the request against one base URL and decodes the result.
func (c *Client) doOnce(ctx context.Context, base, method, path string, query url.Values, body io.Reader, contentType string, out any) error {
	u := base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if me := c.minEpochFor(ctx, base); me != "" {
		req.Header.Set("X-Crimson-Min-Epoch", me)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.noteEpochs(resp)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiError(resp)
	}
	switch v := out.(type) {
	case nil:
		io.Copy(io.Discard, resp.Body)
		return nil
	case *[]byte:
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		*v = raw
		return nil
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

func (c *Client) get(ctx context.Context, path string, query url.Values, out any) error {
	return c.do(ctx, http.MethodGet, path, query, nil, "", out)
}

// HealthCtx reports whether the server answers /healthz.
func (c *Client) HealthCtx(ctx context.Context) error {
	return c.get(ctx, "/healthz", nil, nil)
}

// StatsCtx fetches the server's counter snapshot.
func (c *Client) StatsCtx(ctx context.Context) (Stats, error) {
	var s Stats
	err := c.get(ctx, "/v1/stats", nil, &s)
	return s, err
}

// MetricsCtx fetches the raw Prometheus exposition text of /metrics.
func (c *Client) MetricsCtx(ctx context.Context) (string, error) {
	var raw []byte
	err := c.get(ctx, "/metrics", nil, &raw)
	return string(raw), err
}

// ProjectTracedCtx is ProjectCtx with ?debug=trace: the server collects a
// span tree for the request — stage timings plus the engine counters
// (pages read, rows scanned, pool hits/misses) the request incurred — and
// echoes it alongside the response.
func (c *Client) ProjectTracedCtx(ctx context.Context, name string, speciesNames []string) (ProjectResponse, *SpanSummary, error) {
	q := url.Values{"species": {strings.Join(speciesNames, ",")}, "debug": {"trace"}}
	var wire struct {
		ProjectResponse
		Trace *SpanSummary `json:"trace"`
	}
	err := c.get(ctx, "/v1/trees/"+url.PathEscape(name)+"/project", q, &wire)
	return wire.ProjectResponse, wire.Trace, err
}

// LCATracedCtx is LCACtx with ?debug=trace; see ProjectTracedCtx.
func (c *Client) LCATracedCtx(ctx context.Context, name, a, b string) (LCAResponse, *SpanSummary, error) {
	q := url.Values{"a": {a}, "b": {b}, "debug": {"trace"}}
	var wire struct {
		LCAResponse
		Trace *SpanSummary `json:"trace"`
	}
	err := c.get(ctx, "/v1/trees/"+url.PathEscape(name)+"/lca", q, &wire)
	return wire.LCAResponse, wire.Trace, err
}

// --- trees -----------------------------------------------------------------

// TreesCtx lists every stored tree in one response.
func (c *Client) TreesCtx(ctx context.Context) ([]TreeInfo, error) {
	var resp server.TreesResponse
	if err := c.get(ctx, "/v1/trees", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Trees, nil
}

// TreesPage fetches one page of the name-sorted tree listing: up to limit
// trees starting after cursor ("" = from the beginning). It returns the
// page and the cursor for the next one ("" once the listing is complete).
func (c *Client) TreesPage(ctx context.Context, cursor string, limit int) ([]TreeInfo, string, error) {
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	var resp server.TreesResponse
	if err := c.get(ctx, "/v1/trees", q, &resp); err != nil {
		return nil, "", err
	}
	return resp.Trees, resp.NextCursor, nil
}

// defaultPageSize bounds iterator pages when the caller does not choose.
const defaultPageSize = 100

// TreesIter iterates the full name-sorted tree listing, fetching pageSize
// trees per request (<= 0 uses a default) and following cursors until the
// listing is exhausted, the caller breaks, or ctx is cancelled. A request
// failure is yielded as the final pair's error with a zero TreeInfo.
func (c *Client) TreesIter(ctx context.Context, pageSize int) iter.Seq2[TreeInfo, error] {
	if pageSize <= 0 {
		pageSize = defaultPageSize
	}
	return func(yield func(TreeInfo, error) bool) {
		cursor := ""
		for {
			page, next, err := c.TreesPage(ctx, cursor, pageSize)
			if err != nil {
				yield(TreeInfo{}, err)
				return
			}
			for _, info := range page {
				if !yield(info, nil) {
					return
				}
			}
			if next == "" {
				return
			}
			cursor = next
		}
	}
}

// InfoCtx fetches one stored tree's summary.
func (c *Client) InfoCtx(ctx context.Context, name string) (TreeInfo, error) {
	var info TreeInfo
	err := c.get(ctx, "/v1/trees/"+url.PathEscape(name), nil, &info)
	return info, err
}

// LoadNewickCtx streams a Newick body into the repository under name with
// depth bound f (f <= 0 uses the server default).
func (c *Client) LoadNewickCtx(ctx context.Context, name string, f int, body io.Reader) (TreeInfo, error) {
	return c.load(ctx, name, f, "newick", body)
}

// LoadTreeCtx serializes an in-memory tree and loads it.
func (c *Client) LoadTreeCtx(ctx context.Context, name string, f int, t *phylo.Tree) (TreeInfo, error) {
	return c.LoadNewickCtx(ctx, name, f, strings.NewReader(newick.String(t)))
}

// LoadNexusCtx streams a NEXUS document (trees + sequences) into the
// repository under name.
func (c *Client) LoadNexusCtx(ctx context.Context, name string, f int, body io.Reader) (TreeInfo, error) {
	return c.load(ctx, name, f, "nexus", body)
}

func (c *Client) load(ctx context.Context, name string, f int, format string, body io.Reader) (TreeInfo, error) {
	q := url.Values{"format": {format}}
	if f > 0 {
		q.Set("f", strconv.Itoa(f))
	}
	var resp server.LoadResponse
	err := c.do(ctx, http.MethodPost, "/v1/trees/"+url.PathEscape(name), q, body, "text/plain", &resp)
	return resp.Tree, err
}

// DeleteCtx removes a stored tree and its species data.
func (c *Client) DeleteCtx(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/trees/"+url.PathEscape(name), nil, nil, "", nil)
}

// cancelReadCloser couples a response body to the request's cancel func so
// a default-timeout context is released exactly when the stream is closed.
type cancelReadCloser struct {
	rc     io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelReadCloser) Read(p []byte) (int, error) { return c.rc.Read(p) }

func (c *cancelReadCloser) Close() error {
	err := c.rc.Close()
	c.cancel()
	return err
}

// ExportReader streams the stored tree's Newick serialization as it leaves
// the server — constant client memory no matter the tree size. The caller
// must Close the reader; cancelling ctx aborts the download and makes the
// server abort its scan and release its snapshot. The stream ends with a
// trailing newline after the terminating ";".
func (c *Client) ExportReader(ctx context.Context, name string) (io.ReadCloser, error) {
	path := "/v1/trees/" + url.PathEscape(name) + "/export"
	ctx, cancel := c.reqCtx(ctx)
	bases := c.endpoints(http.MethodGet, path, nil)
	var lastErr error
	for i, base := range bases {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			cancel()
			return nil, err
		}
		if me := c.minEpochFor(ctx, base); me != "" {
			req.Header.Set("X-Crimson-Min-Epoch", me)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
		} else {
			c.noteEpochs(resp)
			if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
				return &cancelReadCloser{rc: resp.Body, cancel: cancel}, nil
			}
			lastErr = apiError(resp)
			resp.Body.Close()
		}
		if i == len(bases)-1 || ctx.Err() != nil || !failoverErr(lastErr) {
			break
		}
	}
	cancel()
	return nil, lastErr
}

// ExportCtx fetches the complete stored tree as an in-memory tree (the
// Newick grammar needs the whole text, so this materializes client-side;
// use ExportReader to process the serialization as a stream).
func (c *Client) ExportCtx(ctx context.Context, name string) (*phylo.Tree, error) {
	rc, err := c.ExportReader(ctx, name)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	raw, err := io.ReadAll(rc)
	if err != nil {
		return nil, err
	}
	return newick.Parse(string(raw))
}

// --- queries ---------------------------------------------------------------

// ProjectCtx projects the stored tree over the given species and returns
// the full response (Newick text plus cache flag).
func (c *Client) ProjectCtx(ctx context.Context, name string, speciesNames []string) (ProjectResponse, error) {
	var resp ProjectResponse
	err := c.get(ctx, "/v1/trees/"+url.PathEscape(name)+"/project",
		url.Values{"species": {strings.Join(speciesNames, ",")}}, &resp)
	return resp, err
}

// ProjectTreeCtx projects and parses the result into an in-memory tree.
func (c *Client) ProjectTreeCtx(ctx context.Context, name string, speciesNames []string) (*phylo.Tree, error) {
	resp, err := c.ProjectCtx(ctx, name, speciesNames)
	if err != nil {
		return nil, err
	}
	return newick.Parse(resp.Newick)
}

// LCACtx returns the least common ancestor of species a and b.
func (c *Client) LCACtx(ctx context.Context, name, a, b string) (LCAResponse, error) {
	var resp LCAResponse
	err := c.get(ctx, "/v1/trees/"+url.PathEscape(name)+"/lca",
		url.Values{"a": {a}, "b": {b}}, &resp)
	return resp, err
}

// SampleUniformCtx draws k distinct species uniformly (seeded, so a fixed
// seed reproduces the draw).
func (c *Client) SampleUniformCtx(ctx context.Context, name string, k int, seed int64) ([]string, error) {
	var resp server.SampleResponse
	err := c.get(ctx, "/v1/trees/"+url.PathEscape(name)+"/sample",
		url.Values{"k": {strconv.Itoa(k)}, "seed": {strconv.FormatInt(seed, 10)}}, &resp)
	return resp.Species, err
}

// SampleWithTimeCtx samples k species with respect to evolutionary time.
func (c *Client) SampleWithTimeCtx(ctx context.Context, name string, time float64, k int, seed int64) ([]string, error) {
	var resp server.SampleResponse
	err := c.get(ctx, "/v1/trees/"+url.PathEscape(name)+"/sample", url.Values{
		"k":    {strconv.Itoa(k)},
		"time": {strconv.FormatFloat(time, 'g', -1, 64)},
		"seed": {strconv.FormatInt(seed, 10)},
	}, &resp)
	return resp.Species, err
}

// CladeCtx returns the minimal spanning clade of the given species.
func (c *Client) CladeCtx(ctx context.Context, name string, speciesNames []string) (CladeResponse, error) {
	var resp CladeResponse
	err := c.get(ctx, "/v1/trees/"+url.PathEscape(name)+"/clade",
		url.Values{"species": {strings.Join(speciesNames, ",")}}, &resp)
	return resp, err
}

// MatchCtx runs the tree pattern match query against the stored tree.
func (c *Client) MatchCtx(ctx context.Context, name string, pattern *phylo.Tree) (MatchResponse, error) {
	var resp MatchResponse
	err := c.do(ctx, http.MethodPost, "/v1/trees/"+url.PathEscape(name)+"/match", nil,
		strings.NewReader(newick.String(pattern)), "text/plain", &resp)
	return resp, err
}

// BenchCtx runs the Benchmark Manager on the server against a stored gold
// tree and returns the machine-readable report. Benchmark runs can be
// long; pass a context with a deadline matched to the workload.
func (c *Client) BenchCtx(ctx context.Context, name string, req BenchRequest) (*BenchReport, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	err = c.do(ctx, http.MethodPost, "/v1/trees/"+url.PathEscape(name)+"/bench", nil,
		bytes.NewReader(payload), "application/json", &rep)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// --- species data ----------------------------------------------------------

func speciesPath(tree, sp, kind string) string {
	p := "/v1/trees/" + url.PathEscape(tree) + "/species/" + url.PathEscape(sp)
	if kind != "" {
		p += "/" + url.PathEscape(kind)
	}
	return p
}

// PutSpeciesDataCtx stores one species-data record.
func (c *Client) PutSpeciesDataCtx(ctx context.Context, tree, sp, kind string, data []byte) error {
	return c.do(ctx, http.MethodPut, speciesPath(tree, sp, kind), nil,
		bytes.NewReader(data), "application/octet-stream", nil)
}

// SpeciesDataCtx fetches one species-data record.
func (c *Client) SpeciesDataCtx(ctx context.Context, tree, sp, kind string) ([]byte, error) {
	var raw []byte
	err := c.get(ctx, speciesPath(tree, sp, kind), nil, &raw)
	return raw, err
}

// DeleteSpeciesDataCtx removes one species-data record.
func (c *Client) DeleteSpeciesDataCtx(ctx context.Context, tree, sp, kind string) error {
	return c.do(ctx, http.MethodDelete, speciesPath(tree, sp, kind), nil, nil, "", nil)
}

// ListSpeciesDataCtx lists all records stored for one species.
func (c *Client) ListSpeciesDataCtx(ctx context.Context, tree, sp string) ([]SpeciesRecord, error) {
	var resp server.SpeciesListResponse
	err := c.get(ctx, speciesPath(tree, sp, ""), nil, &resp)
	return resp.Records, err
}

// --- history ---------------------------------------------------------------

// HistoryCtx returns up to limit most recent query-history entries,
// newest first (limit <= 0 means the server default).
func (c *Client) HistoryCtx(ctx context.Context, limit int) ([]HistoryEntry, error) {
	entries, _, err := c.HistoryPage(ctx, "", limit)
	return entries, err
}

// HistoryPage fetches one page of the history, newest first: up to limit
// entries older than the cursor position ("" = from the newest). It
// returns the page and the cursor for the next (older) page — "" once the
// history is exhausted.
func (c *Client) HistoryPage(ctx context.Context, cursor string, limit int) ([]HistoryEntry, string, error) {
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	var resp server.HistoryResponse
	if err := c.get(ctx, "/v1/history", q, &resp); err != nil {
		return nil, "", err
	}
	return resp.Entries, resp.NextCursor, nil
}

// HistoryIter iterates the whole query history newest first, fetching
// pageSize entries per request (<= 0 uses a default) and following cursors
// until exhaustion, a break, or ctx cancellation. A request failure is
// yielded as the final pair's error.
func (c *Client) HistoryIter(ctx context.Context, pageSize int) iter.Seq2[HistoryEntry, error] {
	if pageSize <= 0 {
		pageSize = defaultPageSize
	}
	return func(yield func(HistoryEntry, error) bool) {
		cursor := ""
		for {
			page, next, err := c.HistoryPage(ctx, cursor, pageSize)
			if err != nil {
				yield(HistoryEntry{}, err)
				return
			}
			for _, e := range page {
				if !yield(e, nil) {
					return
				}
			}
			if next == "" {
				return
			}
			cursor = next
		}
	}
}

// HistoryByKindCtx returns all entries of one query kind, oldest first.
func (c *Client) HistoryByKindCtx(ctx context.Context, kind string) ([]HistoryEntry, error) {
	var resp server.HistoryResponse
	err := c.get(ctx, "/v1/history", url.Values{"kind": {kind}}, &resp)
	return resp.Entries, err
}

// HistoryEntryByIDCtx fetches one history entry.
func (c *Client) HistoryEntryByIDCtx(ctx context.Context, id int64) (HistoryEntry, error) {
	var e HistoryEntry
	err := c.get(ctx, "/v1/history/"+strconv.FormatInt(id, 10), nil, &e)
	return e, err
}
