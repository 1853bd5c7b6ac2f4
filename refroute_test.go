package keysearch

import (
	"context"
	"fmt"
	"testing"
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
