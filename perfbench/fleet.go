package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/federation"
	"dynautosar/internal/fleetsim"
	"dynautosar/internal/journal"
	"dynautosar/internal/plugin"
	"dynautosar/internal/server"
	"dynautosar/internal/vehicle"
)

const (
	fleetUser  core.UserID = "perfbench"
	shardCount             = 3
)

// fleet is the federated control plane wired as production wires it:
// three shard leaders (server.New + OpenJournal + BecomeLeader), each
// serving Server.Handler() over loopback HTTP and replicating
// synchronously to a federation.FollowerNode through
// federation.NewHTTPTransport, an operator reaching the shards through
// api.NewRetryClient(federation.NewRouter(...)) over api.NewClient, and
// protocol-level vehicles attached to each leader's pusher through
// net.Pipe.
type fleet struct {
	cfg *config
	// tr also supplies the clock (tr.now) vehicles and workloads share.
	tr     *tracer
	dir    string
	shards []*shardNode
	byName map[string]*shardNode
	router *federation.Router
	// client is the operator's handle: the retrying client over the
	// Router (over a span decorator in traced runs).
	client    *api.Client
	transport *http.Transport
	rt        *countingRT  // nil in untraced runs
	apiBytes  atomic.Int64 // operator↔shard wire bytes while tracing is on
	retries   atomic.Int64
	vehicles  []*protoVehicle
	appVer    map[core.AppName]map[core.PluginName]string
	obs       *observer
	// widget records which vehicles hold Widget-1 as the fleet-ops
	// schedules generated so far leave them (every op succeeds, so the
	// generated state is the real one once the unit has settled).
	widget []bool
	// opSeq numbers operations across units for trace ids.
	opSeq atomic.Uint64
	wg    sync.WaitGroup // pusher and vehicle goroutines
}

// shardNode is one shard: its leader, the follower it replicates to,
// and the loopback HTTP servers in front of both.
type shardNode struct {
	idx          int
	name         string
	srv          *server.Server
	shipper      *journal.Shipper
	ship         *timedShip // nil in untraced runs
	follower     *federation.FollowerNode
	leaderHTTP   *httpServer
	followerHTTP *httpServer
	// replies counts acks and nacks written by this shard's vehicles;
	// the observer polls a batch parent once they are all in.
	replies atomic.Int64
}

type httpServer struct {
	srv  *http.Server
	l    net.Listener
	done chan struct{}
}

func serveHTTP(h http.Handler) (*httpServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, l: l, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(l) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *httpServer) url() string { return "http://" + s.l.Addr().String() }

func (s *httpServer) close() {
	_ = s.srv.Close() // the listener error is the one Serve already saw
	<-s.done
}

// handlerSwitch serves the production handler while tracing is off and
// the traced one (same /v1 surface and options, span decorator around
// the service) while it is on; only traced runs use it.
type handlerSwitch struct {
	tr            *tracer
	plain, traced http.Handler
}

func (h handlerSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tr.enabled() {
		h.traced.ServeHTTP(w, r)
		return
	}
	h.plain.ServeHTTP(w, r)
}

// newFleet builds the topology under dir and connects every vehicle.
func newFleet(cfg *config, tr *tracer, dir string) (_ *fleet, err error) {
	f := &fleet{cfg: cfg, tr: tr, dir: dir, byName: make(map[string]*shardNode)}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	apps, err := fleetsim.FleetApps()
	if err != nil {
		return nil, err
	}
	f.appVer = make(map[core.AppName]map[core.PluginName]string)
	for _, app := range apps {
		vers := make(map[core.PluginName]string)
		for _, b := range app.Binaries {
			vers[b.Manifest.Name] = b.Manifest.Version
		}
		f.appVer[app.Name] = vers
	}
	f.transport = &http.Transport{
		MaxConnsPerHost:     cfg.nproc,
		MaxIdleConnsPerHost: cfg.nproc,
		IdleConnTimeout:     time.Minute,
	}
	var base http.RoundTripper = f.transport
	if cfg.trace {
		var d net.Dialer
		f.transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, tr: tr, n: &f.apiBytes}, nil
		}
		f.rt = &countingRT{inner: f.transport, tr: tr}
		base = f.rt
	}
	hc := &http.Client{Transport: base}

	var shards []federation.Shard
	for i := 0; i < shardCount; i++ {
		sh, err := f.startShard(i)
		if err != nil {
			return nil, err
		}
		replicas := []federation.Replica{
			{Name: sh.name + "-leader", Svc: f.shardClient(sh.leaderHTTP.url(), hc)},
			{Name: sh.name + "-follower", Svc: f.shardClient(sh.followerHTTP.url(), hc)},
		}
		shards = append(shards, federation.Shard{Name: sh.name, Replicas: replicas})
	}
	f.router, err = federation.NewRouter(shards, federation.RouterOptions{
		Logf: func(string, ...any) { f.retries.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	var front api.DeploymentService = f.router
	if cfg.trace {
		front = spanService{DeploymentService: f.router, tr: tr, name: spanRouter}
	}
	f.client = api.NewRetryClient(front, api.RetryOptions{
		Logf: func(string, ...any) { f.retries.Add(1) },
	})

	// Accounts, catalogue and vehicle bindings go straight to each
	// shard's service: set-up, not the measured surface.
	ctx := context.Background()
	for _, sh := range f.shards {
		svc := sh.srv.Service()
		if _, err := svc.CreateUser(ctx, api.CreateUserRequest{ID: fleetUser}); err != nil {
			return nil, fmt.Errorf("shard %s: create user: %w", sh.name, err)
		}
		for _, app := range apps {
			if _, err := svc.UploadApp(ctx, app); err != nil {
				return nil, fmt.Errorf("shard %s: upload %s: %w", sh.name, app.Name, err)
			}
		}
	}
	ring := f.router.Ring()
	f.vehicles = make([]*protoVehicle, cfg.vehicles)
	f.widget = make([]bool, cfg.vehicles)
	for i := range f.vehicles {
		id := core.VehicleID(fmt.Sprintf("VIN-PB-%05d", i))
		f.vehicles[i] = &protoVehicle{f: f, idx: i, id: id, shard: f.byName[ring.Owner(id)],
			flash: make(map[plugKey]string)}
	}
	if cfg.fault != "" && len(f.vehicles) > 0 {
		f.vehicles[0].fault = cfg.fault
	}
	if err := f.bindAll(ctx); err != nil {
		return nil, err
	}
	for _, v := range f.vehicles {
		if err := v.connect(); err != nil {
			return nil, err
		}
	}
	if err := f.waitConnected(10 * time.Second); err != nil {
		return nil, err
	}
	f.obs = newObserver()
	return f, nil
}

// bindWorkers is how many binds run at once during set-up, so they
// share group commits the way a burst of registrations would.
const bindWorkers = 32

// bindAll binds every vehicle to its owning shard.
func (f *fleet) bindAll(ctx context.Context) error {
	var next atomic.Int64
	errs := make(chan error, bindWorkers)
	var wg sync.WaitGroup
	for w := 0; w < bindWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(f.vehicles) {
					return
				}
				v := f.vehicles[i]
				req := api.BindVehicleRequest{Owner: fleetUser, Conf: vehicleConf(v.id)}
				if _, err := v.shard.srv.Service().BindVehicle(ctx, req); err != nil {
					errs <- fmt.Errorf("bind %s: %w", v.id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (f *fleet) shardClient(url string, hc *http.Client) api.DeploymentService {
	var svc api.DeploymentService = api.NewClient(url, hc)
	if f.cfg.trace {
		svc = spanService{DeploymentService: svc, tr: f.tr, name: spanAPI}
	}
	return svc
}

// startShard brings up one follower and its leader.
func (f *fleet) startShard(i int) (*shardNode, error) {
	name := fmt.Sprintf("s%d", i)
	sh := &shardNode{idx: i, name: name}
	f.shards = append(f.shards, sh)
	f.byName[name] = sh
	leaderDir := filepath.Join(f.dir, name, "leader")
	followerDir := filepath.Join(f.dir, name, "follower")
	for _, d := range []string{leaderDir, followerDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	fn, err := federation.NewFollowerNode(federation.FollowerOptions{
		Shard: name, Name: name + "-follower", Dir: followerDir,
	})
	if err != nil {
		return nil, fmt.Errorf("shard %s follower: %w", name, err)
	}
	sh.follower = fn
	if sh.followerHTTP, err = serveHTTP(fn); err != nil {
		return nil, err
	}

	srv := server.New()
	srv.SetShard(name)
	if err := srv.OpenJournal(leaderDir); err != nil {
		return nil, fmt.Errorf("shard %s: %w", name, err)
	}
	sh.srv = srv
	if err := srv.BecomeLeader("boot"); err != nil {
		return nil, fmt.Errorf("shard %s: %w", name, err)
	}
	var t journal.ShipTransport = federation.NewHTTPTransport(sh.followerHTTP.url(), 0)
	if f.cfg.trace {
		sh.ship = &timedShip{ShipTransport: t, tr: f.tr}
		t = sh.ship
	}
	sh.shipper, err = srv.StartReplication(
		[]journal.Follower{{Name: name + "-follower", T: t}},
		journal.ShipperOptions{Synchronous: true},
	)
	if err != nil {
		return nil, fmt.Errorf("shard %s replication: %w", name, err)
	}
	var h http.Handler = srv.Handler()
	if f.cfg.trace {
		traced := api.NewHandler(spanService{DeploymentService: srv.Service(), tr: f.tr, name: spanHandler}, &api.HandlerOptions{})
		h = handlerSwitch{tr: f.tr, plain: h, traced: traceHeaderMW(traced)}
	}
	if sh.leaderHTTP, err = serveHTTP(h); err != nil {
		return nil, err
	}
	return sh, nil
}

func (f *fleet) waitConnected(limit time.Duration) error {
	want := make(map[*shardNode]int)
	for _, v := range f.vehicles {
		want[v.shard]++
	}
	deadline := time.Now().Add(limit)
	for {
		ok := true
		for sh, n := range want {
			if c, _ := sh.srv.Pusher().Stats(); c != n {
				ok = false
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("vehicles did not connect within %s", limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// close tears the topology down and waits for every goroutine it
// started.
func (f *fleet) close() {
	if f.obs != nil {
		f.obs.close()
	}
	for _, sh := range f.shards {
		if sh.leaderHTTP != nil {
			sh.leaderHTTP.close()
		}
		if sh.srv != nil {
			_ = sh.srv.Close() // tearing down; the audit already ran
		}
		if sh.followerHTTP != nil {
			sh.followerHTTP.close()
		}
		if sh.follower != nil {
			_ = sh.follower.Close()
		}
	}
	for _, v := range f.vehicles {
		if v != nil && v.conn != nil {
			v.conn.Close()
		}
	}
	f.wg.Wait()
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
}

// vehicleConf is the model-car configuration every protocol-level
// vehicle registers, the shape cmd/vehicle emits.
func vehicleConf(id core.VehicleID) core.VehicleConf {
	ecmCfg := vehicle.ECMConfig()
	swc2Cfg := vehicle.SWC2Config()
	return core.VehicleConf{
		Vehicle: id,
		Model:   "modelcar-v1",
		SWCs: []core.SWCConf{
			{ECU: vehicle.ECU1, SWC: vehicle.SWC1, MemoryQuota: ecmCfg.MemoryQuota,
				MaxPlugins: ecmCfg.MaxPlugins, ECM: true, VirtualPorts: ecmCfg.VirtualPorts},
			{ECU: vehicle.ECU2, SWC: vehicle.SWC2, MemoryQuota: swc2Cfg.MemoryQuota,
				MaxPlugins: swc2Cfg.MaxPlugins, VirtualPorts: swc2Cfg.VirtualPorts},
		},
	}
}

// splitOpID resolves a Router-qualified id ("s1/op-000042").
func (f *fleet) splitOpID(q string) (*shardNode, string, error) {
	name, id, ok := strings.Cut(q, "/")
	sh := f.byName[name]
	if !ok || sh == nil {
		return nil, "", fmt.Errorf("operation id %q is not shard-qualified", q)
	}
	return sh, id, nil
}

type plugKey struct {
	ECU    core.ECUID
	SWC    core.SWCID
	Plugin core.PluginName
}

// protoVehicle speaks the ECM wire protocol against a leader's pusher
// and acks each push as soon as plugin.Package.UnmarshalBinary accepts
// it. Its flash map is what it acknowledged.
type protoVehicle struct {
	f     *fleet
	idx   int
	id    core.VehicleID
	shard *shardNode
	conn  net.Conn

	// fault makes the vehicle misbehave on its first push: "nack"
	// answers with a nack, "drop" never answers. Used by the self-test.
	fault string

	mu    sync.Mutex
	flash map[plugKey]string

	replies     atomic.Int64 // acks and nacks written
	pushes      atomic.Int64 // frames received after hello
	bytes       atomic.Int64 // bytes of those frames
	lastArrival atomic.Int64 // tr.now() at the newest push
	lastAck     atomic.Int64 // tr.now() at the newest ack written
	trace       atomic.Uint64
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (v *protoVehicle) connect() error {
	vehicleSide, serverSide := net.Pipe()
	v.f.wg.Add(2)
	go func() {
		defer v.f.wg.Done()
		v.shard.srv.Pusher().ServeConn(serverSide)
	}()
	if err := core.WriteMessage(vehicleSide, core.Message{Type: core.MsgHello, Payload: []byte(v.id)}); err != nil {
		vehicleSide.Close()
		v.f.wg.Done()
		return fmt.Errorf("vehicle %s hello: %w", v.id, err)
	}
	v.conn = vehicleSide
	go func() {
		defer v.f.wg.Done()
		v.readLoop()
	}()
	return nil
}

func (v *protoVehicle) readLoop() {
	cr := &countingReader{r: v.conn}
	for {
		before := cr.n
		msg, err := core.ReadMessage(cr)
		if err != nil {
			return
		}
		arrival := v.f.tr.now()
		v.pushes.Add(1)
		v.bytes.Add(cr.n - before)
		v.lastArrival.Store(arrival)
		v.handle(msg, arrival)
	}
}

func (v *protoVehicle) handle(msg core.Message, arrival int64) {
	key := plugKey{ECU: msg.ECU, SWC: msg.SWC, Plugin: msg.Plugin}
	version := ""
	reply := msg.Ack()
	switch msg.Type {
	case core.MsgInstall, core.MsgUpgrade:
		var pkg plugin.Package
		if err := pkg.UnmarshalBinary(msg.Payload); err != nil {
			reply = msg.Nack("bad package: " + err.Error())
		}
		version = pkg.Binary.Manifest.Version
	case core.MsgUninstall:
	default:
		return
	}
	if v.fault != "" {
		fault := v.fault
		v.fault = ""
		if fault == "drop" {
			return
		}
		reply = msg.Nack("perfbench: injected nack")
	}
	if err := core.WriteMessage(v.conn, reply); err != nil {
		return
	}
	now := v.f.tr.now()
	v.lastAck.Store(now)
	if reply.Type == core.MsgAck {
		v.mu.Lock()
		if msg.Type == core.MsgUninstall {
			delete(v.flash, key)
		} else {
			v.flash[key] = version
		}
		v.mu.Unlock()
	}
	v.replies.Add(1)
	v.shard.replies.Add(1)
	if v.f.tr.enabled() {
		v.f.tr.record(span{name: spanPush, trace: v.trace.Load(), id: v.f.tr.newID(), start: arrival, end: now})
	}
}

func (v *protoVehicle) flashCopy() map[plugKey]string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[plugKey]string, len(v.flash))
	for k, ver := range v.flash {
		out[k] = ver
	}
	return out
}

// audit checks, outside any timed window, that each vehicle's acked
// flash equals its shard's installed rows and that every follower has
// acknowledged its leader's last commit.
func (f *fleet) audit() []string {
	var bad []string
	ctx := context.Background()
	for _, v := range f.vehicles {
		vd, err := v.shard.srv.Service().GetVehicle(ctx, v.id)
		if err != nil {
			bad = append(bad, fmt.Sprintf("audit: %s: %v", v.id, err))
			continue
		}
		want := make(map[plugKey]string)
		for _, row := range vd.Installed {
			for _, p := range row.Plugins {
				if !p.Acked {
					bad = append(bad, fmt.Sprintf("audit: %s: %s/%s not acked", v.id, row.App, p.Plugin))
				}
				want[plugKey{ECU: p.ECU, SWC: p.SWC, Plugin: p.Plugin}] = f.appVer[row.App][p.Plugin]
			}
		}
		have := v.flashCopy()
		if len(have) != len(want) {
			bad = append(bad, fmt.Sprintf("audit: %s: flash holds %d plug-ins, shard rows %d", v.id, len(have), len(want)))
			continue
		}
		for k, ver := range want {
			if have[k] != ver {
				bad = append(bad, fmt.Sprintf("audit: %s: %s flashed %q, shard row %q", v.id, k.Plugin, have[k], ver))
			}
		}
	}
	if err := f.waitReplicated(5 * time.Second); err != nil {
		bad = append(bad, "audit: "+err.Error())
	}
	if len(bad) > 10 {
		bad = append(bad[:10], fmt.Sprintf("audit: ... %d more", len(bad)-10))
	}
	return bad
}

// warm opens the operator's connections to every shard with one read
// per client slot, so the first timed request does not pay the TCP
// handshake.
func (f *fleet) warm() error {
	ctx := context.Background()
	for _, sh := range f.shards {
		for _, v := range f.vehicles {
			if v.shard != sh {
				continue
			}
			for i := 0; i < f.cfg.nproc; i++ {
				if _, err := f.client.GetVehicle(ctx, v.id); err != nil {
					return fmt.Errorf("warm-up read on shard %s: %w", sh.name, err)
				}
			}
			break
		}
	}
	return nil
}

// waitReplicated waits until every follower has acknowledged its
// leader's last commit (LagBytes == 0).
func (f *fleet) waitReplicated(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, sh := range f.shards {
		for {
			lagging := ""
			for _, st := range sh.shipper.Status() {
				if st.LagBytes != 0 {
					lagging = fmt.Sprintf("shard %s follower %s lags %d bytes", sh.name, st.Name, st.LagBytes)
				}
			}
			if lagging == "" {
				break
			}
			if time.Now().After(deadline) {
				return errors.New(lagging)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// quiesce gives every fleet unit the same starting state: each leader
// compacts its journal (so snapshots fall at the same point of every
// unit), followers catch up, and the collector starts a fresh cycle.
func (f *fleet) quiesce() error {
	for _, sh := range f.shards {
		if err := sh.srv.Journal().Snapshot(); err != nil {
			return fmt.Errorf("shard %s snapshot: %w", sh.name, err)
		}
	}
	if err := f.waitReplicated(5 * time.Second); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

// layerCounters is a snapshot of the counters per-layer metrics are
// deltas of.
type layerCounters struct {
	records, commits, gen, pushesSent uint64
	shipSegs, shipBytes               int64
	apiBytes, throttled               int64
	retries                           int64
	vehPushes, vehBytes               int64
}

func (f *fleet) counters() layerCounters {
	var c layerCounters
	for _, sh := range f.shards {
		st := sh.srv.Journal().Stats()
		c.records += st.Appended
		c.commits += st.Flushes
		c.gen += st.Gen
		_, pushed := sh.srv.Pusher().Stats()
		c.pushesSent += pushed
		if sh.ship != nil {
			c.shipSegs += sh.ship.segments.Load()
			c.shipBytes += sh.ship.bytes.Load()
		}
	}
	if f.rt != nil {
		c.throttled = f.rt.throttled.Load()
	}
	c.apiBytes = f.apiBytes.Load()
	c.retries = f.retries.Load()
	for _, v := range f.vehicles {
		c.vehPushes += v.pushes.Load()
		c.vehBytes += v.bytes.Load()
	}
	return c
}

func (c layerCounters) sub(o layerCounters) layerCounters { return c.combine(o, -1) }

func (c layerCounters) add(o layerCounters) layerCounters { return c.combine(o, 1) }

// combine is c + sign·o, field by field.
func (c layerCounters) combine(o layerCounters, sign int64) layerCounters {
	u := uint64(sign)
	return layerCounters{
		records: c.records + u*o.records, commits: c.commits + u*o.commits, gen: c.gen + u*o.gen,
		pushesSent: c.pushesSent + u*o.pushesSent,
		shipSegs:   c.shipSegs + sign*o.shipSegs, shipBytes: c.shipBytes + sign*o.shipBytes,
		apiBytes: c.apiBytes + sign*o.apiBytes, throttled: c.throttled + sign*o.throttled,
		retries:   c.retries + sign*o.retries,
		vehPushes: c.vehPushes + sign*o.vehPushes, vehBytes: c.vehBytes + sign*o.vehBytes,
	}
}
