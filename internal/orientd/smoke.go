package orientd

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netorient/internal/graph"
)

// SmokeConfig tunes the self-test run.
type SmokeConfig struct {
	Config
	// Clients is the number of parallel query clients. Defaults to 8
	// (the acceptance floor); values below 8 are raised to it.
	Clients int
	// Converge bounds each wait for (re-)convergence. Defaults to 60s.
	Converge time.Duration
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Client is a minimal JSON-line admin client for tests and the smoke
// harness.
type Client struct {
	conn net.Conn
	sc   *bufio.Scanner
	enc  *json.Encoder
}

// Dial connects to an orientd admin socket ("tcp"/"unix" + address).
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	return &Client{conn: conn, sc: sc, enc: json.NewEncoder(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and decodes the reply into data (may be nil).
// A transport failure or an ok:false reply is an error.
func (c *Client) Do(req Request, data any) error {
	if err := c.enc.Encode(req); err != nil {
		return err
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	raw := struct {
		OK   bool            `json:"ok"`
		Err  string          `json:"err"`
		Data json.RawMessage `json:"data"`
	}{}
	if err := json.Unmarshal(c.sc.Bytes(), &raw); err != nil {
		return err
	}
	if !raw.OK {
		return fmt.Errorf("orientd: %s: %s", req.Op, raw.Err)
	}
	if data != nil && len(raw.Data) > 0 {
		return json.Unmarshal(raw.Data, data)
	}
	return nil
}

// Smoke boots a server on cfg, drives it through the acceptance
// scenario — converge, serve parallel clients, inject an edge flap and
// a node corruption while they read, re-converge, snapshot metrics,
// graceful shutdown — and returns the first invariant violation, or
// nil. It is the substance behind `orientd -smoke` in CI.
func Smoke(cfg SmokeConfig) error {
	srv, err := New(cfg.Config)
	if err != nil {
		return err
	}
	return smoke(srv, cfg)
}

// smoke runs the Smoke scenario against a built, not yet serving
// server.
func smoke(srv *Server, cfg SmokeConfig) error {
	if cfg.Clients < 8 {
		cfg.Clients = 8
	}
	if cfg.Converge <= 0 {
		cfg.Converge = 60 * time.Second
	}
	logf := func(format string, a ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", a...)
		}
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(context.Background()) }()
	network := srv.Addr().Network()
	addr := srv.Addr().String()
	logf("orientd smoke: %s %s on %s %s", srv.fp.Name(), cfg.Config.GraphSpec, network, addr)

	// Serve drains open connections before it returns, so a failure
	// first stops the query clients and closes the admin connection.
	var (
		admin     *Client
		stop      = make(chan struct{})
		stopOnce  sync.Once
		wg        sync.WaitGroup
		stopReads = func() {
			stopOnce.Do(func() { close(stop) })
			wg.Wait()
		}
	)
	fail := func(err error) error {
		stopReads()
		if admin != nil {
			admin.Close()
		}
		srv.Close()
		<-serveErr
		return err
	}

	admin, err := Dial(network, addr)
	if err != nil {
		return fail(err)
	}
	defer admin.Close()

	waitLegit := func(phase string) error {
		deadline := time.Now().Add(cfg.Converge)
		for {
			var st Status
			if err := admin.Do(Request{Op: "status"}, &st); err != nil {
				return fmt.Errorf("%s: %w", phase, err)
			}
			if st.Error != "" {
				return fmt.Errorf("%s: engine stopped: %s", phase, st.Error)
			}
			if st.Legitimate {
				logf("orientd smoke: %s: legitimate after %d moves", phase, st.Moves)
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: not legitimate within %v (moves=%d enabled=%d)",
					phase, cfg.Converge, st.Moves, st.Enabled)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := waitLegit("initial convergence"); err != nil {
		return fail(err)
	}

	// Parallel query clients hammer the read verbs off the witness
	// counters while faults land underneath.
	var (
		reads atomic.Int64
		cerr  = make(chan error, cfg.Clients)
	)
	verbs := []string{"status", "legitimacy", "orientation", "enabled", "metrics"}
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(network, addr)
			if err != nil {
				cerr <- err
				return
			}
			defer cl.Close()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				op := verbs[(i+n)%len(verbs)]
				var leg Legitimacy
				var payload any
				if op == "legitimacy" {
					payload = &leg
				}
				if err := cl.Do(Request{Op: op}, payload); err != nil {
					cerr <- fmt.Errorf("client %d %s: %w", i, op, err)
					return
				}
				if op == "legitimacy" && leg.Legitimate && len(leg.Components) == 0 {
					cerr <- fmt.Errorf("client %d: legitimate with no components", i)
					return
				}
				reads.Add(1)
			}
		}(i)
	}

	// Fault injection: flap an edge, corrupt a mid node, re-converge
	// with the clients still reading.
	edges := srv.g.Edges()
	if len(edges) == 0 {
		return fail(fmt.Errorf("graph %s has no edges", cfg.Config.GraphSpec))
	}
	e := edges[len(edges)/2]
	if err := admin.Do(Request{Op: "flap", U: int(e.U), V: int(e.V)}, nil); err != nil {
		return fail(err)
	}
	victim := graph.NodeID(srv.g.N() / 2)
	if victim == srv.fp.Root() {
		victim++
	}
	if err := admin.Do(Request{Op: "corrupt", Node: int(victim)}, nil); err != nil {
		return fail(err)
	}
	logf("orientd smoke: injected flap %d-%d and corruption at node %d", e.U, e.V, victim)
	if err := waitLegit("re-convergence after faults"); err != nil {
		return fail(err)
	}

	stopReads()
	select {
	case err := <-cerr:
		return fail(err)
	default:
	}
	logf("orientd smoke: %d clients completed %d reads", cfg.Clients, reads.Load())

	var m Metrics
	if err := admin.Do(Request{Op: "metrics"}, &m); err != nil {
		return fail(err)
	}
	if pm := m.Parallel; pm != nil {
		// Parallel-stepper engine: the actor counters are zero;
		// plausibility lives in the work/span and shard accounting.
		if pm.Steps == 0 || pm.WorkUnits == 0 || pm.WorkUnits < pm.SpanUnits ||
			len(pm.ShardWork) != cfg.Workers || pm.LastError != "" {
			return fail(fmt.Errorf("parallel metrics implausible: %+v", pm))
		}
		logf("orientd smoke: parallel metrics steps=%d work=%d span=%d frontier=%d waves=%d reshards=%d admin_requests=%d",
			pm.Steps, pm.WorkUnits, pm.SpanUnits, pm.Frontier, pm.WaveSets, pm.Reshards, m.Requests)
	} else {
		if m.Moves == 0 || m.Sent == 0 || !m.Legitimate {
			return fail(fmt.Errorf("metrics implausible: moves=%d sent=%d legitimate=%v",
				m.Moves, m.Sent, m.Legitimate))
		}
		logf("orientd smoke: metrics moves=%d sent=%d delivered=%d convergences=%d admin_requests=%d",
			m.Moves, m.Sent, m.Delivered, m.Convergences, m.Requests)
	}

	if err := admin.Do(Request{Op: "shutdown"}, nil); err != nil {
		return fail(err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			return fmt.Errorf("serve exit: %w", err)
		}
	case <-time.After(cfg.Converge):
		return fmt.Errorf("server did not shut down after the shutdown verb")
	}
	logf("orientd smoke: clean shutdown")
	return nil
}
