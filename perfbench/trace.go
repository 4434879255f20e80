package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
)

// Span names, one per layer boundary the benchmark observes.
const (
	spanRouter      = "client->router"     // operator call into the federation Router
	spanAPI         = "router->shard"      // Router call into one shard's api.Client
	spanHandler     = "handler->service"   // shard HTTP handler into Server.Service()
	spanShip        = "journal.ship"       // one ShipSegment to a follower
	spanPush        = "vehicle.push->ack"  // push arrival until the ack is written
	spanECMServer   = "ecm.server_msg"     // ECM.HandleServerMessage
	spanECMEndpoint = "ecm.endpoint_frame" // ECM.HandleEndpointFrame
	spanSimCmd      = "sim.step.cmd"       // engine stepping until the actuator shows a command
	spanSimInstall  = "sim.step.install"   // engine stepping until the PIRTE lists a plug-in
	traceHeader     = "X-Perfbench-Trace"  // carries "trace-parent" across the loopback HTTP hop
	maxSpans        = 1 << 20              // memory cap; spans past it are counted, not kept
	spanFileSuffix  = ".spans.jsonl"       // span dump written at the end of a traced run
)

// span is one recorded interval. Spans of one operation or command
// share trace; parent names the span that caused this one.
type span struct {
	name       string
	trace, id  uint64
	parent     uint64
	start, end int64 // ns since the tracer's epoch
	bytes      int64
	opKind     string
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer keeps spans in memory while enabled. Disabled, every hook is
// a single atomic load.
type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// interval records a span measured by the caller.
func (t *tracer) interval(name string, trace uint64, from, to time.Time, bytes int64) {
	t.record(span{name: name, trace: trace, id: t.newID(),
		start: int64(from.Sub(t.epoch)), end: int64(to.Sub(t.epoch)), bytes: bytes})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// take returns and clears the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

type traceKey struct{}

type traceCtx struct{ trace, span uint64 }

func withTrace(ctx context.Context, trace, parent uint64) context.Context {
	return context.WithValue(ctx, traceKey{}, traceCtx{trace, parent})
}

func traceFrom(ctx context.Context) traceCtx {
	tc, _ := ctx.Value(traceKey{}).(traceCtx)
	return tc
}

// begin opens a child span of the one in ctx and returns the context
// carrying it plus the function that closes it.
func (t *tracer) begin(ctx context.Context, name, kind string) (context.Context, func()) {
	if !t.enabled() {
		return ctx, func() {}
	}
	tc := traceFrom(ctx)
	s := span{name: name, trace: tc.trace, parent: tc.span, id: t.newID(), start: t.now(), opKind: kind}
	return withTrace(ctx, tc.trace, s.id), func() {
		s.end = t.now()
		t.record(s)
	}
}

// spanService decorates a DeploymentService with one span per call of
// the methods the workloads use. The same decorator sits at three
// boundaries: operator→Router, Router→shard client and, inside each
// shard, HTTP handler→Server.Service().
type spanService struct {
	api.DeploymentService
	tr   *tracer
	name string
}

func (s spanService) Deploy(ctx context.Context, req api.DeployRequest) (api.Operation, error) {
	ctx, end := s.tr.begin(ctx, s.name, "create")
	defer end()
	return s.DeploymentService.Deploy(ctx, req)
}

func (s spanService) Uninstall(ctx context.Context, req api.UninstallRequest) (api.Operation, error) {
	ctx, end := s.tr.begin(ctx, s.name, "create")
	defer end()
	return s.DeploymentService.Uninstall(ctx, req)
}

func (s spanService) BatchDeploy(ctx context.Context, req api.BatchDeployRequest) (api.Operation, error) {
	ctx, end := s.tr.begin(ctx, s.name, "create")
	defer end()
	return s.DeploymentService.BatchDeploy(ctx, req)
}

func (s spanService) BatchUpgrade(ctx context.Context, req api.BatchUpgradeRequest) (api.Operation, error) {
	ctx, end := s.tr.begin(ctx, s.name, "create")
	defer end()
	return s.DeploymentService.BatchUpgrade(ctx, req)
}

func (s spanService) BatchUninstall(ctx context.Context, req api.BatchUninstallRequest) (api.Operation, error) {
	ctx, end := s.tr.begin(ctx, s.name, "create")
	defer end()
	return s.DeploymentService.BatchUninstall(ctx, req)
}

func (s spanService) GetVehicle(ctx context.Context, id core.VehicleID) (api.VehicleDetail, error) {
	ctx, end := s.tr.begin(ctx, s.name, "read")
	defer end()
	return s.DeploymentService.GetVehicle(ctx, id)
}

func (s spanService) Status(ctx context.Context, v core.VehicleID, app core.AppName) (api.OpStatus, error) {
	ctx, end := s.tr.begin(ctx, s.name, "read")
	defer end()
	return s.DeploymentService.Status(ctx, v, app)
}

func (s spanService) GetOperation(ctx context.Context, id string) (api.Operation, error) {
	ctx, end := s.tr.begin(ctx, s.name, "read")
	defer end()
	return s.DeploymentService.GetOperation(ctx, id)
}

// traceHeaderMW restores the caller's trace context from the request
// header, so the shard-side span nests under the Router→shard span.
// Only countingRT sets the header; a malformed one reads as no trace.
func traceHeaderMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := r.Header.Get(traceHeader); h != "" {
			a, b, _ := strings.Cut(h, "-")
			tr, _ := strconv.ParseUint(a, 10, 64)
			sp, _ := strconv.ParseUint(b, 10, 64)
			r = r.WithContext(withTrace(r.Context(), tr, sp))
		}
		next.ServeHTTP(w, r)
	})
}

// countingRT is the http.RoundTripper under every Router→shard
// api.Client in traced runs. While tracing is on it counts throttled
// answers and forwards the trace context in a header; while it is off
// it only hands the request on.
type countingRT struct {
	inner     http.RoundTripper
	tr        *tracer
	throttled atomic.Int64
}

func (c *countingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !c.tr.enabled() {
		return c.inner.RoundTrip(req)
	}
	if tc := traceFrom(req.Context()); tc.trace != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, fmt.Sprintf("%d-%d", tc.trace, tc.span))
	}
	resp, err := c.inner.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		c.throttled.Add(1)
	}
	return resp, err
}

// countingConn counts, while tracing is on, every byte the operator's
// connections to the shards write and read: the exact wire bytes of
// requests and answers, headers included.
type countingConn struct {
	net.Conn
	tr *tracer
	n  *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tr.enabled() {
		c.n.Add(int64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.tr.enabled() {
		c.n.Add(int64(n))
	}
	return n, err
}

// timedShip decorates a journal.ShipTransport: while tracing is on,
// every ShipSegment is counted and is a span with its chunk size.
type timedShip struct {
	journal.ShipTransport
	tr       *tracer
	segments atomic.Int64
	bytes    atomic.Int64
}

func (t *timedShip) ShipSegment(gen uint64, offset int64, chunk []byte, reset bool) error {
	if !t.tr.enabled() {
		return t.ShipTransport.ShipSegment(gen, offset, chunk, reset)
	}
	t.segments.Add(1)
	t.bytes.Add(int64(len(chunk)))
	s := span{name: spanShip, id: t.tr.newID(), start: t.tr.now(), bytes: int64(len(chunk))}
	err := t.ShipTransport.ShipSegment(gen, offset, chunk, reset)
	s.end = t.tr.now()
	t.tr.record(s)
	return err
}

// selfTimes returns, per span id, the span's duration minus the part
// of it its children cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		covered := int64(0)
		cur := s.start
		for _, c := range cs {
			lo, hi := max(c.start, cur), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.id] = time.Duration(s.end - s.start - covered)
	}
	return out
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"trace":%d,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"bytes":%d,"kind":%q}`+"\n",
			s.name, s.trace, s.id, s.parent, s.start, s.end, s.bytes, s.opKind)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
