package keysearch

import (
	"context"
	"fmt"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/dht"
)

// TestPublishSendsNoLookup: once a converged 8-peer ring has routed a
// few hundred references, publishing a new object takes at most two
// transport sends — the reference insert at L(o) and the index insert
// at F_h(K) — and no Chord routing step: the reference's owner comes
// from the peer's learned arcs, the index vertex's from the resolver
// cache.
func TestPublishSendsNoLookup(t *testing.T) {
	c, err := NewLocalCluster(8, Config{Dim: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	p := c.Peers[0]
	kw := NewKeywordSet("warm", "routes")
	for i := 0; i < 256; i++ {
		if err := p.Publish(ctx, Object{ID: fmt.Sprintf("warm-%d", i), Keywords: kw}, "/"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		before := c.Network().Stats()
		if err := p.Publish(ctx, Object{ID: fmt.Sprintf("fresh-%d", i), Keywords: kw}, "/"); err != nil {
			t.Fatal(err)
		}
		after := c.Network().Stats()
		if sends := after.Messages - before.Messages; sends > 2 {
			t.Errorf("publish fresh-%d made %d sends, want at most 2", i, sends)
		}
		const step = "chord.rpcFindClosest"
		if lookups := after.ByType[step] - before.ByType[step]; lookups != 0 {
			t.Errorf("publish fresh-%d made %d Chord routing steps, want 0", i, lookups)
		}
	}
}

// TestRouteSkipsDepartedOwner: a joiner J takes part of peer P's
// successor arc and leaves, and its depart to P is lost, so P's
// successor pointer and learned arcs still name J. P then routes a key
// of J's old arc (P, J] — a reference insert, an index entry insert, or
// a search wave's vertex — and each reaches J's successor, which took
// the arc over: the send J cannot take drops J from P's arcs, fingers
// and successor list before the one re-route. Without that, the
// re-route's lookup named J again, P's own successor, and the insert
// failed with "destination unreachable" (the search lost the subtree).
func TestRouteSkipsDepartedOwner(t *testing.T) {
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	// Each shape picks P and a key of P's successor arc (P, S) that its
	// operation will route; J then joins just past that key.
	type plan struct {
		p       *Peer
		key     dht.ID
		publish Object // published before J leaves, when set
		run     func(ctx context.Context, p *Peer) error
	}
	ownedBy := func(p *Peer, key dht.ID) bool {
		return dht.BetweenOpen(key, p.chord.ID(), p.chord.Successor().ID)
	}
	vertexKey := func(p *Peer, k Set) dht.ID { return core.VertexKey(p.cfg.Instance, p.Hasher().Vertex(k)) }
	elsewhere := func(p *Peer) string { // an object ID whose reference key is outside (P, S)
		for i := 0; ; i++ {
			if id := fmt.Sprintf("obj-%d", i); !ownedBy(p, dht.HashString(id)) {
				return id
			}
		}
	}
	shapes := map[string]func(c *Cluster) (plan, bool){
		"reference": func(c *Cluster) (plan, bool) {
			p := c.Peers[0]
			for i := 0; ; i++ {
				if id := fmt.Sprintf("obj-%d", i); ownedBy(p, dht.HashString(id)) {
					return plan{p: p, key: dht.HashString(id), run: func(ctx context.Context, p *Peer) error {
						if err := p.Publish(ctx, Object{ID: id, Keywords: NewKeywordSet("ref")}, "/"); err != nil {
							return err
						}
						refs, err := p.Fetch(ctx, id)
						if err == nil && len(refs) != 1 {
							err = fmt.Errorf("fetch %s: %d references, want 1", id, len(refs))
						}
						return err
					}}, true
				}
			}
		},
		"index entry": func(c *Cluster) (plan, bool) {
			p := c.Peers[0]
			for _, w := range vocab {
				if kw := NewKeywordSet(w); ownedBy(p, vertexKey(p, kw)) {
					obj := Object{ID: elsewhere(p), Keywords: kw}
					return plan{p: p, key: vertexKey(p, kw), run: func(ctx context.Context, p *Peer) error {
						if err := p.Publish(ctx, obj, "/"); err != nil {
							return err
						}
						return found(ctx, p, kw, obj.ID)
					}}, true
				}
			}
			return plan{}, false
		},
		"search wave": func(c *Cluster) (plan, bool) {
			// The query's root is P's own vertex; the object's vertex, in
			// the root's subcube, lies past P.
			for _, p := range c.Peers {
				pred := p.chord.Predecessor().ID
				for _, w := range vocab {
					q := NewKeywordSet(w)
					if !dht.Between(vertexKey(p, q), pred, p.chord.ID()) {
						continue
					}
					for _, x := range vocab {
						kw := NewKeywordSet(w, x)
						if p.Hasher().Vertex(kw) != p.Hasher().Vertex(q) && ownedBy(p, vertexKey(p, kw)) {
							obj := Object{ID: elsewhere(p), Keywords: kw}
							return plan{p: p, key: vertexKey(p, kw), publish: obj, run: func(ctx context.Context, p *Peer) error {
								return found(ctx, p, q, obj.ID)
							}}, true
						}
					}
				}
			}
			return plan{}, false
		},
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			c := newCluster(t, 4, Config{Dim: 6})
			pl, ok := shape(c)
			if !ok {
				t.Fatal("no key of the wanted shape in this ring")
			}
			p, succ := pl.p, pl.p.chord.Successor()
			j, err := NewPeer(c.Network(), joinerBetween(t, pl.key, succ.ID), Config{Dim: 6, MaintenanceInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Join(ctx, c.Peers[0].Addr()); err != nil {
				t.Fatal(err)
			}
			stabilizeRounds(ctx, append(append([]*Peer(nil), c.Peers...), j), 6)
			if got := p.chord.Successor(); got.Addr != j.Addr() {
				t.Fatalf("P's successor is %s, want the joiner %s", got.Addr, j.Addr())
			}
			if pl.publish.ID != "" {
				if err := p.Publish(ctx, pl.publish, "/"); err != nil {
					t.Fatal(err)
				}
			}
			c.Network().Block("", p.Addr(), true) // the depart to P is lost
			_, _ = j.Leave(ctx)
			c.Network().Block("", p.Addr(), false)
			if got := p.chord.Successor(); got.Addr != j.Addr() {
				t.Fatalf("P's successor is %s, want the departed joiner", got.Addr)
			}
			if err := pl.run(ctx, p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// joinerBetween returns an unused peer address whose ring ID lies in
// the open arc (from, to).
func joinerBetween(t *testing.T, from, to dht.ID) Addr {
	t.Helper()
	for i := 0; i < 1<<20; i++ {
		addr := fmt.Sprintf("joiner-%d", i)
		if dht.BetweenOpen(dht.HashString(addr), from, to) {
			return Addr(addr)
		}
	}
	t.Fatalf("no address hashes into (%d, %d)", from, to)
	return ""
}

// found checks that a superset search of k from p, which must lose no
// subtree, returns the object id.
func found(ctx context.Context, p *Peer, k Set, id string) error {
	res, err := p.Search(ctx, k, All, SearchOptions{NoCache: true})
	if err != nil {
		return err
	}
	if res.FailedSubtrees != 0 {
		return fmt.Errorf("search %v lost %d subtrees", k, res.FailedSubtrees)
	}
	for _, m := range res.Matches {
		if m.ObjectID == id {
			return nil
		}
	}
	return fmt.Errorf("search %v: %s missing from %d matches", k, id, len(res.Matches))
}
