package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	keysearch "github.com/p2pkeyword/keysearch"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// tcpBasePort is the first of the consecutive loopback ports a TCP
// fleet listens on. A peer's ring position is the hash of its address,
// so pinned ports pin the vertex-to-peer layout: messages per op repeat
// exactly and timings do not move with the luck of the draw (over
// random ports the largest arc of an 8-peer ring ranges from 0.22 to
// 0.56). The range sits below Linux's ephemeral ports.
const tcpBasePort = 21020

// callers is the closed loop's width: one issuing goroutine per core of
// the 2-core box the bounds were sized on, each a Peer of the fleet.
const callers = 2

// fleet is one in-process deployment built through the public API.
type fleet struct {
	peers   []*keysearch.Peer
	network io.Closer
	dataDir string
	// pinned is false when a pinned port was taken and a peer listens on
	// a free one instead: the ring layout then differs from other runs'.
	pinned bool
}

// fleetOptions are the two things the traced run adds to a fleet.
type fleetOptions struct {
	reg *telemetry.Registry
	// wrap, when set, interposes on the transport the peers are built
	// over.
	wrap func(transport.Network) transport.Network
	// tmpRoot is where durable peers keep their data directories.
	tmpRoot string
}

// buildFleet builds the workload's fleet, converges the ring, drains
// migrations and publishes the corpus. The returned duration is
// setup_s: everything a later change could move work into.
func buildFleet(ctx context.Context, in *inputs, opt fleetOptions) (*fleet, time.Duration, error) {
	w := in.w
	start := time.Now()
	f := &fleet{pinned: true}
	var network transport.Network
	if w.tcp {
		keysearch.RegisterTypes()
		n, err := keysearch.NewTCPTransportConfig(keysearch.TCPConfig{Wire: keysearch.WireBinary})
		if err != nil {
			return nil, 0, err
		}
		n.SetTelemetry(opt.reg)
		network, f.network = n, n
	} else {
		n := keysearch.NewInMemoryTransport(1)
		n.SetTelemetry(opt.reg)
		network, f.network = n, n
	}
	if opt.wrap != nil {
		network = opt.wrap(network)
	}
	if w.durable {
		if err := os.MkdirAll(opt.tmpRoot, 0o755); err != nil {
			return nil, 0, err
		}
		dir, err := os.MkdirTemp(opt.tmpRoot, "data-")
		if err != nil {
			return nil, 0, err
		}
		f.dataDir = dir
	}

	cfg := keysearch.Config{
		Dim:                 w.dim,
		MaintenanceInterval: -1,
		Telemetry:           opt.reg,
		// ksload's admission defaults: never sheds at two callers, so
		// only its fast-path cost is in the numbers.
		Admission: &keysearch.AdmissionPolicy{MaxInflight: 64, MaxQueue: 64, QueueTimeout: 50 * time.Millisecond},
	}
	if w.hot {
		cfg.CacheCapacity = hotCacheCapacity
		cfg.HotReplicas = hotReplicas
		cfg.HotSpread = true
	}
	for i := 0; i < w.peers; i++ {
		addr := keysearch.Addr(fmt.Sprintf("peer-%d", i))
		if w.tcp {
			addr = keysearch.Addr(fmt.Sprintf("127.0.0.1:%d", tcpBasePort+i))
		}
		if w.durable {
			cfg.DataDir = filepath.Join(f.dataDir, fmt.Sprintf("peer-%d", i))
			cfg.FsyncPolicy = "interval"
		}
		p, err := keysearch.NewPeer(network, addr, cfg)
		if err != nil && w.tcp {
			// The pinned port is taken: any free port serves, but the run is
			// marked, because counts and timings move with the ring layout.
			fmt.Fprintf(os.Stderr, "ksperf: warning: %v; binding a free port, ring layout not pinned\n", err)
			f.pinned = false
			p, err = keysearch.NewPeer(network, "127.0.0.1:0", cfg)
		}
		if err != nil {
			f.close()
			return nil, 0, fmt.Errorf("peer %d: %w", i, err)
		}
		f.peers = append(f.peers, p)
		if i == 0 {
			p.Create()
		} else if err := p.Join(ctx, f.peers[0].Addr()); err != nil {
			f.close()
			return nil, 0, fmt.Errorf("join peer %d: %w", i, err)
		}
		for round := 0; round < 3*len(f.peers)+3; round++ {
			for _, q := range f.peers {
				_ = q.StabilizeOnce(ctx) // a round that fails is retried by the next
			}
		}
	}
	for _, p := range f.peers {
		if err := p.WaitMigrationsIdle(ctx); err != nil {
			f.close()
			return nil, 0, fmt.Errorf("migrations: %w", err)
		}
	}
	// Publishing is striped over as many goroutines as there are callers:
	// one goroutine's strictly sequential round trips time the box's
	// wake-up latency (set-up then swung 2x between runs), two keep both
	// cores awake. Record i is published by peer i mod peers either way.
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			for i := c; i < len(in.records); i += callers {
				if err := f.publish(ctx, i%len(f.peers), &in.records[i]); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	var failed error
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			failed = err
		}
	}
	if failed != nil {
		f.close()
		return nil, 0, failed
	}
	return f, time.Since(start), nil
}

func (f *fleet) publish(ctx context.Context, peer int, r *record) error {
	return f.peers[peer].Publish(ctx, keysearch.Object{ID: r.id, Keywords: r.set}, "/"+r.id)
}

func (f *fleet) unpublish(ctx context.Context, peer int, r *record) error {
	return f.peers[peer].Unpublish(ctx, keysearch.Object{ID: r.id, Keywords: r.set}, "/"+r.id)
}

// close stops every peer and the transport and removes durable state.
func (f *fleet) close() {
	for _, p := range f.peers {
		_ = p.Close() // shutting down: nothing to do about a close error
	}
	if f.network != nil {
		_ = f.network.Close()
	}
	if f.dataDir != "" {
		_ = os.RemoveAll(f.dataDir)
	}
}
