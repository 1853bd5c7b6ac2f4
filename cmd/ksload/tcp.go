package main

import (
	"context"
	"fmt"
	"time"

	keysearch "github.com/p2pkeyword/keysearch"
	"github.com/p2pkeyword/keysearch/internal/admission"
	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/corpus"
	"github.com/p2pkeyword/keysearch/internal/transport/tcpnet"
)

// tcpFleet runs o.peers full keysearch peers over real loopback
// sockets in this process: Chord ring, index handoff, the wire
// protocol — the whole production stack minus process isolation.
type tcpFleet struct {
	net     *tcpnet.Network
	peers   []*keysearch.Peer
	thresh  int
	cacheOn bool
	mix     prefixMixer
}

func newTCPFleet(o *options, c *corpus.Corpus, pol *admission.Policy) (*tcpFleet, error) {
	keysearch.RegisterTypes()
	net, err := keysearch.NewTCPTransportConfig(keysearch.TCPConfig{ListenWorkers: o.listenWorkers})
	if err != nil {
		return nil, err
	}
	cfg := keysearch.Config{
		Dim: o.r, MaintenanceInterval: -1, Admission: pol,
		CacheCapacity:       o.cacheUnits,
		CachePolicy:         o.cachePolicy,
		CacheTargetHit:      o.cacheTarget,
		HotReplicas:         o.hotReplicas,
		HotPromoteThreshold: o.hotThresh,
		HotSpread:           o.hotSpread,
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	f := &tcpFleet{
		net: net, thresh: o.thresh, cacheOn: o.cacheUnits > 0,
		mix: prefixMixer{every: o.prefixEvery, plen: o.prefixLen},
	}
	for i := 0; i < o.peers; i++ {
		p, err := keysearch.NewPeer(net, "127.0.0.1:0", cfg)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("peer %d: %w", i, err)
		}
		if i == 0 {
			p.Create()
		} else if err := p.Join(ctx, f.peers[0].Addr()); err != nil {
			p.Close()
			f.close()
			return nil, fmt.Errorf("join peer %d: %w", i, err)
		}
		f.peers = append(f.peers, p)
		for round := 0; round < 3*len(f.peers)+3; round++ {
			for _, q := range f.peers {
				_ = q.StabilizeOnce(ctx)
			}
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

func (f *tcpFleet) do(ctx context.Context, q corpus.Query, clientID string) error {
	opts := core.SearchOptions{Order: core.ParallelLevels, NoCache: !f.cacheOn, ClientID: clientID}
	if p := f.mix.pick(q); p != "" {
		_, err := f.peers[0].PrefixSearch(ctx, p, f.thresh, opts)
		return err
	}
	_, err := f.peers[0].Search(ctx, q.Keywords, f.thresh, opts)
	return err
}

func (f *tcpFleet) close() {
	for _, p := range f.peers {
		_ = p.Close()
	}
	_ = f.net.Close()
}
