package keysearch

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/dht"
)

// retryCluster is a 4-peer inmem cluster and the object obj-4 = {k4, x},
// with the peer that owns the object's index vertex, the peer that
// owns its reference, and a third peer that publishes it.
func retryCluster(t *testing.T) (c *Cluster, obj Object, indexOwner, publisher *Peer) {
	t.Helper()
	c, err := NewLocalCluster(4, Config{Dim: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	obj = Object{ID: "obj-4", Keywords: NewKeywordSet("k4", "x")}
	owner := func(key dht.ID) *Peer {
		for _, p := range c.Peers {
			if dht.Between(key, p.chord.Predecessor().ID, p.chord.ID()) {
				return p
			}
		}
		t.Fatalf("no peer owns key %v", key)
		return nil
	}
	p0 := c.Peers[0]
	indexOwner = owner(core.VertexKey(p0.cfg.Instance, p0.Hasher().Vertex(obj.Keywords)))
	refOwner := owner(dht.HashString(obj.ID))
	if indexOwner == refOwner {
		t.Fatalf("%s owns both the index vertex and the reference of %s; the test needs them apart", indexOwner.Addr(), obj.ID)
	}
	for _, p := range c.Peers {
		if p != indexOwner && p != refOwner {
			publisher = p
			break
		}
	}
	return c, obj, indexOwner, publisher
}

// pinIDs is what a pin search for obj's keywords answers, asked at p.
func pinIDs(t *testing.T, p *Peer, obj Object) []string {
	t.Helper()
	ids, _, err := p.PinSearch(context.Background(), obj.Keywords)
	if err != nil {
		t.Fatalf("pin %v: %v", obj.Keywords, err)
	}
	return ids
}

// TestPublishRetryIndexes: a Publish whose reference insert succeeded
// but whose index insert failed (the index vertex's owner was down)
// returns the error; once the owner is back, retrying the same Publish
// indexes the object, although the reference is already there.
func TestPublishRetryIndexes(t *testing.T) {
	c, obj, indexOwner, publisher := retryCluster(t)
	ctx := context.Background()

	c.Network().SetDown(indexOwner.Addr(), true)
	if err := publisher.Publish(ctx, obj, "/"); err == nil {
		t.Fatal("publish with the index vertex's owner down succeeded")
	}
	c.Network().SetDown(indexOwner.Addr(), false)
	if err := publisher.Publish(ctx, obj, "/"); err != nil {
		t.Fatalf("retried publish: %v", err)
	}
	if got := pinIDs(t, publisher, obj); !reflect.DeepEqual(got, []string{obj.ID}) {
		t.Errorf("pin %v → %v after a retried publish, want [%s]", obj.Keywords, got, obj.ID)
	}
	if refs, err := publisher.Fetch(ctx, obj.ID); err != nil || len(refs) != 1 {
		t.Errorf("fetch %s = %v, %v; want its one reference", obj.ID, refs, err)
	}
}

// TestUnpublishRetryUnindexes is TestPublishRetryIndexes' twin: an
// Unpublish whose reference delete succeeded but whose index delete
// failed returns the error, and its retry removes the index entry.
func TestUnpublishRetryUnindexes(t *testing.T) {
	c, obj, indexOwner, publisher := retryCluster(t)
	ctx := context.Background()
	if err := publisher.Publish(ctx, obj, "/"); err != nil {
		t.Fatal(err)
	}

	c.Network().SetDown(indexOwner.Addr(), true)
	if err := publisher.Unpublish(ctx, obj, "/"); err == nil {
		t.Fatal("unpublish with the index vertex's owner down succeeded")
	}
	c.Network().SetDown(indexOwner.Addr(), false)
	if err := publisher.Unpublish(ctx, obj, "/"); err != nil {
		t.Fatalf("retried unpublish: %v", err)
	}
	if got := pinIDs(t, publisher, obj); len(got) != 0 {
		t.Errorf("pin %v → %v after a retried unpublish, want []", obj.Keywords, got)
	}
	if _, err := publisher.Fetch(ctx, obj.ID); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("fetch %s after unpublish: %v, want ErrNoSuchObject", obj.ID, err)
	}
}
