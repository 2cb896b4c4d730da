package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/compute"
	"repro/internal/datasets"
	"repro/internal/dlib"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
)

// dataset is a synthesized flow, resident or written to disk.
type dataset struct {
	u   *field.Unsteady // nil once written to disk
	dir string          // non-empty for a disk dataset

	synthS, writeS float64
}

// makeDataset synthesizes w's dataset and, for a disk workload, writes
// it under outDir and drops the in-memory copy.
func makeDataset(w *workload, outDir string) (*dataset, error) {
	t0 := time.Now()
	u, err := datasets.Analytic(w.data)
	if err != nil {
		return nil, fmt.Errorf("synthesize dataset: %w", err)
	}
	ds := &dataset{u: u, synthS: time.Since(t0).Seconds()}
	if !w.onDisk {
		return ds, nil
	}
	ds.dir = filepath.Join(outDir, fmt.Sprintf("data-%s-%d", w.name, os.Getpid()))
	t1 := time.Now()
	if err := store.WriteDataset(ds.dir, u); err != nil {
		return nil, err
	}
	ds.writeS = time.Since(t1).Seconds()
	ds.u = nil
	runtime.GC()
	return ds, nil
}

func (ds *dataset) remove() {
	if ds.dir != "" {
		os.RemoveAll(ds.dir)
	}
}

// stackOpts selects which build of the stack to stand up.
type stackOpts struct {
	// reference builds the trivially-correct comparison stack: scalar
	// engine, codec v1, no governor, no relays, no cache or prefetch.
	reference bool
	// budget, when non-zero, overrides governorBudget (the governed
	// probe).
	budget time.Duration
	// tr, when non-nil, wraps every pipe, the engine and the disk.
	tr *tracer
}

// stack is the real system stood up in-process: store, origin server,
// relay hops, workstations, all joined by unconstrained netsim pipes.
type stack struct {
	w    *workload
	opts stackOpts

	data    store.Store // the bare dataset store, under any decorator
	disk    *store.Disk // data when the workload serves from disk
	srv     *server.Server
	relays  []*relay.Relay // [mid, leaf] when hops == 2
	ws      []*client.Workstation
	clients []*dlib.Client
	wsConns []*netsim.Conn // workstation ends, for the upstream byte count
}

// pipeTo starts d serving a fresh pipe and returns the caller's end,
// wrapped when tracing, plus the bare end for its byte meter.
func (s *stack) pipeTo(node string, d *dlib.Server) (net.Conn, *netsim.Conn) {
	serverEnd, clientEnd := netsim.Pipe(netsim.Link{})
	var sc, cc net.Conn = serverEnd, clientEnd
	if s.opts.tr != nil {
		sc, cc = s.opts.tr.wrapPipe(node, serverEnd, clientEnd)
	}
	go d.ServeConn(sc)
	return cc, clientEnd
}

// head is the dlib server workstations attach to.
func (s *stack) head() (string, *dlib.Server) {
	if n := len(s.relays); n > 0 {
		return "leaf", s.relays[n-1].Dlib()
	}
	return "origin", s.srv.Dlib()
}

// dialHead opens a raw dlib client to the head of the topology.
func (s *stack) dialHead() *dlib.Client {
	node, d := s.head()
	conn, _ := s.pipeTo(node, d)
	return dlib.NewClient(conn)
}

func buildStack(w *workload, ds *dataset, opts stackOpts) (*stack, error) {
	s := &stack{w: w, opts: opts}
	cfg := server.Config{Budget: governorBudget}
	if opts.budget != 0 {
		cfg.Budget = opts.budget
	}
	if ds.dir != "" {
		disk, err := store.OpenDisk(ds.dir, store.DiskOptions{})
		if err != nil {
			return nil, err
		}
		s.disk, s.data = disk, disk
		cfg.Store = disk
		if opts.tr != nil {
			cfg.Store = &tracedStore{Disk: disk, t: opts.tr}
		}
		if !opts.reference {
			cfg.Prefetch = true
			cfg.CacheSteps = w.cacheSteps
		}
	} else {
		s.data = store.NewMemory(ds.u)
		cfg.Store = s.data
	}
	hops, codecs := w.hops, w.codecs
	if opts.reference {
		cfg.Engine = compute.Scalar{}
		cfg.MaxCodec = wire.CodecV1
		cfg.Budget = 0
		hops = 0
		codecs = make([]uint8, len(w.codecs))
		for i := range codecs {
			codecs[i] = wire.CodecV1
		}
	} else if opts.tr != nil {
		cfg.Engine = &tracedEngine{inner: compute.Parallel{}, t: opts.tr}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	s.srv = srv

	// Relay hops, origin outward: mid dials the origin, leaf dials mid.
	upNode, up := "origin", srv.Dlib()
	for _, node := range []string{"mid", "leaf"}[:hops] {
		dialNode, dialTo := upNode, up
		r, err := relay.New(relay.Config{Upstreams: []dlib.DialFunc{func() (net.Conn, error) {
			conn, _ := s.pipeTo(dialNode, dialTo)
			return conn, nil
		}}})
		if err != nil {
			s.close()
			return nil, err
		}
		s.relays = append(s.relays, r)
		upNode, up = node, r.Dlib()
	}

	for i, codec := range codecs {
		if opts.tr != nil {
			opts.tr.connecting.Store(int64(i))
		}
		node, d := s.head()
		conn, raw := s.pipeTo(node, d)
		c := dlib.NewClient(conn)
		s.clients = append(s.clients, c)
		s.wsConns = append(s.wsConns, raw)
		ws, err := client.New(c, client.Config{Codec: codec})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("workstation %d: %w", i, err)
		}
		if ws.Codec() != codec {
			s.close()
			return nil, fmt.Errorf("workstation %d negotiated codec %d, want %d", i, ws.Codec(), codec)
		}
		s.ws = append(s.ws, ws)
	}
	if opts.tr != nil {
		// Later sessions (probes, captures) must not land on a
		// workstation's chain.
		opts.tr.connecting.Store(int64(len(codecs)))
	}
	return s, nil
}

// step0 returns the grid and first timestep of the stack's dataset.
func (s *stack) step0() (*grid.Grid, *field.Field, error) {
	f, err := s.data.LoadStep(0)
	return s.data.Grid(), f, err
}

// close tears the stack down: closing the workstation connections
// cascades through the relays to the origin.
func (s *stack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	for _, r := range s.relays {
		r.Close()
		r.Dlib().Close()
	}
	if s.srv != nil {
		s.srv.Dlib().Close()
	}
}
