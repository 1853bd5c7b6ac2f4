package main

import (
	"context"
	"fmt"
	"io"
	"time"

	keysearch "github.com/p2pkeyword/keysearch"
	"github.com/p2pkeyword/keysearch/internal/corpus"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// fleet runs o.peers full keysearch peers in this process, built
// through the public API over one transport: Chord ring, index
// handoff, admission and (over tcp) the wire protocol on loopback
// sockets — the whole production stack minus process isolation.
type fleet struct {
	network io.Closer
	peers   []*keysearch.Peer
	thresh  int
	mix     prefixMixer
}

func buildFleet(o *options, c *corpus.Corpus, admissionOn bool) (*fleet, error) {
	cfg := keysearch.Config{Dim: o.r, MaintenanceInterval: -1}
	if admissionOn {
		cfg.Admission = o.policy()
	}
	f := &fleet{thresh: o.thresh, mix: prefixMixer{every: o.prefixEvery, plen: o.prefixLen}}
	var network transport.Network
	tcp := o.transport == "tcp"
	if tcp {
		keysearch.RegisterTypes()
		n := keysearch.NewTCPTransport()
		network, f.network = n, n
	} else {
		n := keysearch.NewInMemoryTransport(1)
		network, f.network = n, n
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < o.peers; i++ {
		addr := keysearch.Addr(fmt.Sprintf("peer-%d", i))
		if tcp {
			addr = "127.0.0.1:0"
		}
		p, err := keysearch.NewPeer(network, addr, cfg)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("peer %d: %w", i, err)
		}
		f.peers = append(f.peers, p)
		if i == 0 {
			p.Create()
		} else if err := p.Join(ctx, f.peers[0].Addr()); err != nil {
			f.close()
			return nil, fmt.Errorf("join peer %d: %w", i, err)
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
			return nil, fmt.Errorf("migrations: %w", err)
		}
	}

	// Index the corpus round-robin across the fleet (anonymous client
	// identity, so indexing is never fair-queued).
	for i, rec := range c.Records() {
		obj := keysearch.Object{ID: rec.ID, Keywords: rec.Keywords}
		if err := f.peers[i%len(f.peers)].Publish(ctx, obj, "/"+rec.ID); err != nil {
			f.close()
			return nil, fmt.Errorf("publish %s: %w", rec.ID, err)
		}
	}
	return f, nil
}

// do answers one query from the first peer: a prefix multicast when the
// mixer picks one, a superset search otherwise.
func (f *fleet) do(ctx context.Context, q corpus.Query, clientID string) error {
	opts := keysearch.SearchOptions{Order: keysearch.ParallelLevels, ClientID: clientID}
	if p := f.mix.pick(q); p != "" {
		_, err := f.peers[0].PrefixSearch(ctx, p, f.thresh, opts)
		return err
	}
	_, err := f.peers[0].Search(ctx, q.Keywords, f.thresh, opts)
	return err
}

func (f *fleet) close() {
	for _, p := range f.peers {
		_ = p.Close()
	}
	_ = f.network.Close()
}
