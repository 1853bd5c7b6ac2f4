package core

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/keyword"
)

func TestSearchEmptyIndex(t *testing.T) {
	d := newDeployment(t, 8, 2, 0)
	ctx := context.Background()
	res, err := d.client.SupersetSearch(ctx, keyword.NewSet("nothing"), All, SearchOptions{})
	if err != nil {
		t.Fatalf("search empty index: %v", err)
	}
	if len(res.Matches) != 0 || !res.Exhausted {
		t.Errorf("empty-index search = %d matches, exhausted=%v", len(res.Matches), res.Exhausted)
	}
}

func TestQueryLargerThanDimension(t *testing.T) {
	// More keywords than dimensions: every dimension may be occupied;
	// the subcube can shrink to a single vertex.
	d := newDeployment(t, 4, 2, 0)
	ctx := context.Background()
	words := make([]string, 12)
	for i := range words {
		words[i] = "w" + strconv.Itoa(i)
	}
	o := obj("dense", words...)
	if _, err := d.client.Insert(ctx, o); err != nil {
		t.Fatal(err)
	}
	res, err := d.client.SupersetSearch(ctx, o.Keywords, All, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Errorf("matches = %d", len(res.Matches))
	}
	// Pin search on the full set also works.
	ids, _, err := d.client.PinSearch(ctx, o.Keywords)
	if err != nil || len(ids) != 1 {
		t.Errorf("pin = %v, %v", ids, err)
	}
}

func TestSingleDimensionCube(t *testing.T) {
	// r = 1: two vertices, everything hashes to dimension 0.
	d := newDeployment(t, 1, 1, 0)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := d.client.Insert(ctx, obj("tiny-"+strconv.Itoa(i), "k"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.client.SupersetSearch(ctx, keyword.NewSet("k0"), All, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Errorf("matches = %d", len(res.Matches))
	}
	if res.Stats.NodesContacted > 2 {
		t.Errorf("contacted %d nodes in a 2-vertex cube", res.Stats.NodesContacted)
	}
}

func TestUnicodeKeywords(t *testing.T) {
	d := newDeployment(t, 8, 2, 0)
	ctx := context.Background()
	o := obj("taipei", "台北", "新聞", "網路")
	if _, err := d.client.Insert(ctx, o); err != nil {
		t.Fatal(err)
	}
	ids, _, err := d.client.PinSearch(ctx, keyword.NewSet("新聞", "台北", "網路"))
	if err != nil || len(ids) != 1 {
		t.Fatalf("unicode pin = %v, %v", ids, err)
	}
	res, err := d.client.SupersetSearch(ctx, keyword.NewSet("新聞"), All, SearchOptions{})
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("unicode superset = %d, %v", len(res.Matches), err)
	}
}

func TestManyObjectsSameKeywordSet(t *testing.T) {
	// One index entry aggregating many object IDs (the paper's
	// ⟨K, {σ1, …, σn}⟩ consolidation).
	d := newDeployment(t, 8, 2, 0)
	ctx := context.Background()
	k := keyword.NewSet("same", "set")
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := d.client.Insert(ctx, Object{ID: "dup-" + strconv.Itoa(i), Keywords: k}); err != nil {
			t.Fatal(err)
		}
	}
	// A single entry on the responsible server.
	srv := d.serverFor(d.hasher.Vertex(k))
	if st := srv.Stats(); st.Entries != 1 || st.Objects != n {
		t.Errorf("stats = %+v, want 1 entry / %d objects", st, n)
	}
	ids, _, err := d.client.PinSearch(ctx, k)
	if err != nil || len(ids) != n {
		t.Fatalf("pin = %d ids, %v", len(ids), err)
	}
	// Threshold slicing across one dense entry.
	res, err := d.client.SupersetSearch(ctx, k, 7, SearchOptions{})
	if err != nil || len(res.Matches) != 7 {
		t.Fatalf("threshold search = %d, %v", len(res.Matches), err)
	}
}

func TestVeryLongKeyword(t *testing.T) {
	d := newDeployment(t, 8, 1, 0)
	ctx := context.Background()
	long := strings.Repeat("long", 500)
	o := obj("long-obj", long, "short")
	if _, err := d.client.Insert(ctx, o); err != nil {
		t.Fatal(err)
	}
	ids, _, err := d.client.PinSearch(ctx, o.Keywords)
	if err != nil || len(ids) != 1 {
		t.Fatalf("long-keyword pin = %v, %v", ids, err)
	}
}

func TestCursorPageLargerThanResults(t *testing.T) {
	d := newDeployment(t, 8, 2, 0)
	ctx := context.Background()
	d.client.Insert(ctx, obj("only", "unique-kw"))
	cur, err := d.client.CumulativeSearch(keyword.NewSet("unique-kw"), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	page, _, err := cur.Next(ctx, 1000)
	if err != nil || len(page) != 1 {
		t.Fatalf("oversized page = %d, %v", len(page), err)
	}
	if !cur.Exhausted() {
		t.Error("cursor not exhausted after full page")
	}
}

func TestRepeatedInsertIsIdempotent(t *testing.T) {
	d := newDeployment(t, 8, 1, 0)
	ctx := context.Background()
	o := obj("idem", "a", "b")
	for i := 0; i < 3; i++ {
		if _, err := d.client.Insert(ctx, o); err != nil {
			t.Fatal(err)
		}
	}
	ids, _, err := d.client.PinSearch(ctx, o.Keywords)
	if err != nil || len(ids) != 1 {
		t.Fatalf("after repeated insert: %v, %v", ids, err)
	}
	if st := d.servers[0].Stats(); st.Objects != 1 {
		t.Errorf("objects = %d, want 1", st.Objects)
	}
}

// TestUnknownQueryClassRejected: a T_QUERY naming a class the root does
// not know is refused, the way an unknown traversal order is — not
// served as a superset search, and not cached under the superset key.
func TestUnknownQueryClassRejected(t *testing.T) {
	d := newDeployment(t, 8, 1, 64)
	ctx := context.Background()
	q := keyword.NewSet("alpha")
	if _, err := d.client.Insert(ctx, obj("a1", "alpha", "beta")); err != nil {
		t.Fatal(err)
	}
	msg := msgTQuery{Instance: DefaultInstance, Dim: 8, Threshold: All, QueryKey: q.Key(),
		Vertex: uint64(d.hasher.Vertex(q)), Class: 9}
	if resp, err := d.net.Send(ctx, d.addrs[0], msg); err == nil {
		t.Fatalf("class 9 answered %+v, want an error", resp)
	}
	res, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{})
	if err != nil || len(res.Matches) != 1 || res.Stats.CacheHit {
		t.Errorf("superset search after the rejected class: %d matches, cache hit %v, err %v",
			len(res.Matches), res.Stats.CacheHit, err)
	}
}
