package keysearch

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/leakcheck"
)

// TestMain fails the package when a test leaves one of the module's
// goroutines behind (leakcheck.Main).
func TestMain(m *testing.M) { leakcheck.Main(m) }

func newCluster(t *testing.T, n int, cfg Config) *Cluster {
	t.Helper()
	c, err := NewLocalCluster(n, cfg)
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterPublishAndPinSearch(t *testing.T) {
	c := newCluster(t, 5, Config{Dim: 8})
	ctx := context.Background()
	publisher := c.Peers[1]

	obj := Object{ID: "hinet", Keywords: NewKeywordSet("ISP", "telecommunication", "network", "download")}
	if err := publisher.Publish(ctx, obj, "/www/hinet"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	// Searchable from every peer.
	for _, p := range c.Peers {
		ids, _, err := p.PinSearch(ctx, obj.Keywords)
		if err != nil {
			t.Fatalf("PinSearch via %s: %v", p.Addr(), err)
		}
		if len(ids) != 1 || ids[0] != "hinet" {
			t.Fatalf("PinSearch via %s = %v", p.Addr(), ids)
		}
	}
	// Fetch resolves the replica reference.
	refs, err := c.Peers[4].Fetch(ctx, "hinet")
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if len(refs) != 1 || refs[0].Holder != publisher.Addr() || refs[0].Location != "/www/hinet" {
		t.Errorf("Fetch = %+v", refs)
	}
}

func TestPublishSecondCopyKeepsSingleIndexEntry(t *testing.T) {
	c := newCluster(t, 4, Config{Dim: 8})
	ctx := context.Background()
	obj := Object{ID: "song", Keywords: NewKeywordSet("mp3", "jazz")}

	if err := c.Peers[0].Publish(ctx, obj, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Peers[1].Publish(ctx, obj, "/b"); err != nil {
		t.Fatal(err)
	}
	refs, err := c.Peers[2].Fetch(ctx, "song")
	if err != nil || len(refs) != 2 {
		t.Fatalf("Fetch = %v, %v; want 2 replicas", refs, err)
	}
	ids, _, err := c.Peers[3].PinSearch(ctx, obj.Keywords)
	if err != nil || len(ids) != 1 {
		t.Fatalf("PinSearch = %v, %v; want single index entry", ids, err)
	}

	// Withdrawing one copy keeps the index entry; the last removal
	// drops it.
	if err := c.Peers[0].Unpublish(ctx, obj, "/a"); err != nil {
		t.Fatal(err)
	}
	ids, _, _ = c.Peers[3].PinSearch(ctx, obj.Keywords)
	if len(ids) != 1 {
		t.Fatalf("after first unpublish, PinSearch = %v", ids)
	}
	if err := c.Peers[1].Unpublish(ctx, obj, "/b"); err != nil {
		t.Fatal(err)
	}
	ids, _, _ = c.Peers[3].PinSearch(ctx, obj.Keywords)
	if len(ids) != 0 {
		t.Fatalf("after last unpublish, PinSearch = %v", ids)
	}
	if _, err := c.Peers[2].Fetch(ctx, "song"); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Fetch after unpublish: %v", err)
	}
}

func TestSupersetSearchAcrossCluster(t *testing.T) {
	c := newCluster(t, 6, Config{Dim: 9})
	ctx := context.Background()
	vocab := []string{"news", "sports", "tv", "music", "movie"}
	var wantNews []string
	for i := 0; i < 40; i++ {
		words := []string{vocab[i%len(vocab)], vocab[(i+1)%len(vocab)], "extra" + strconv.Itoa(i%3)}
		id := "obj-" + strconv.Itoa(i)
		obj := Object{ID: id, Keywords: NewKeywordSet(words...)}
		if err := c.Peers[i%len(c.Peers)].Publish(ctx, obj, "/"+id); err != nil {
			t.Fatalf("Publish %s: %v", id, err)
		}
		if obj.Keywords.Has("news") {
			wantNews = append(wantNews, id)
		}
	}
	res, err := c.Peers[5].Search(ctx, NewKeywordSet("news"), All, SearchOptions{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	var got []string
	for _, m := range res.Matches {
		got = append(got, m.ObjectID)
	}
	sort.Strings(got)
	sort.Strings(wantNews)
	if fmt.Sprint(got) != fmt.Sprint(wantNews) {
		t.Errorf("Search news: got %v, want %v", got, wantNews)
	}
	if !res.Exhausted {
		t.Error("exhaustive search not marked exhausted")
	}
}

func TestSearchCursorPagesThroughCluster(t *testing.T) {
	c := newCluster(t, 4, Config{Dim: 8})
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		id := "page-" + strconv.Itoa(i)
		obj := Object{ID: id, Keywords: NewKeywordSet("common", "tag"+strconv.Itoa(i))}
		if err := c.Peers[0].Publish(ctx, obj, "/"+id); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := c.Peers[2].SearchCursor(NewKeywordSet("common"), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for !cur.Exhausted() {
		page, _, err := cur.Next(ctx, 5)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		for _, m := range page {
			if seen[m.ObjectID] {
				t.Fatalf("duplicate %s", m.ObjectID)
			}
			seen[m.ObjectID] = true
		}
	}
	if len(seen) != 12 {
		t.Errorf("paged %d objects, want 12", len(seen))
	}
}

func TestRankingHelpersOnClusterResults(t *testing.T) {
	c := newCluster(t, 3, Config{Dim: 8})
	ctx := context.Background()
	objs := []Object{
		{ID: "exact", Keywords: NewKeywordSet("jazz")},
		{ID: "one-extra", Keywords: NewKeywordSet("jazz", "piano")},
		{ID: "two-extra", Keywords: NewKeywordSet("jazz", "piano", "live")},
	}
	for _, o := range objs {
		if err := c.Peers[0].Publish(ctx, o, "/x"); err != nil {
			t.Fatal(err)
		}
	}
	q := NewKeywordSet("jazz")
	res, err := c.Peers[1].Search(ctx, q, All, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("matches = %d", len(res.Matches))
	}
	cats := Categorize(q, res.Matches)
	if len(cats) != 3 {
		t.Errorf("categories = %d, want 3", len(cats))
	}
	SortSpecificFirst(res.Matches)
	if res.Matches[0].ObjectID != "two-extra" {
		t.Errorf("specific-first head = %s", res.Matches[0].ObjectID)
	}
	SortGeneralFirst(res.Matches)
	if res.Matches[0].ObjectID != "exact" {
		t.Errorf("general-first head = %s", res.Matches[0].ObjectID)
	}
}

func TestClusterSurvivesPeerFailure(t *testing.T) {
	c := newCluster(t, 8, Config{Dim: 8})
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		id := "robust-" + strconv.Itoa(i)
		obj := Object{ID: id, Keywords: NewKeywordSet("shared", "k"+strconv.Itoa(i))}
		if err := c.Peers[i%8].Publish(ctx, obj, "/"+id); err != nil {
			t.Fatal(err)
		}
	}
	// Fail one peer and heal the ring.
	victim := c.Peers[3]
	c.Network().SetDown(victim.Addr(), true)
	c.Heal(ctx)

	// Searches from the surviving peers still succeed and return
	// correct (surviving) matches.
	res, err := c.Peers[0].Search(ctx, NewKeywordSet("shared"), All, SearchOptions{})
	if err != nil {
		t.Fatalf("Search after failure: %v", err)
	}
	for _, m := range res.Matches {
		if !NewKeywordSet("shared").SubsetOf(m.Keywords()) {
			t.Errorf("false positive %s", m.ObjectID)
		}
	}
	if len(res.Matches) == 0 {
		t.Error("no matches survived single-node failure")
	}
}

func TestPeerPublishValidation(t *testing.T) {
	c := newCluster(t, 1, Config{Dim: 6})
	ctx := context.Background()
	if err := c.Peers[0].Publish(ctx, Object{}, "/"); !errors.Is(err, ErrBadObject) {
		t.Errorf("Publish empty: %v", err)
	}
	if err := c.Peers[0].Unpublish(ctx, Object{}, "/"); !errors.Is(err, ErrBadObject) {
		t.Errorf("Unpublish empty: %v", err)
	}
	if _, err := c.Peers[0].Search(ctx, Set{}, All, SearchOptions{}); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("Search empty: %v", err)
	}
}

func TestNewLocalClusterValidation(t *testing.T) {
	if _, err := NewLocalCluster(0, Config{}); err == nil {
		t.Error("0-peer cluster accepted")
	}
}

func TestPeerCacheStats(t *testing.T) {
	c := newCluster(t, 2, Config{Dim: 6, CacheCapacity: 100})
	ctx := context.Background()
	obj := Object{ID: "c1", Keywords: NewKeywordSet("cached", "thing")}
	if err := c.Peers[0].Publish(ctx, obj, "/"); err != nil {
		t.Fatal(err)
	}
	q := NewKeywordSet("cached")
	for i := 0; i < 3; i++ {
		if _, err := c.Peers[1].Search(ctx, q, 5, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	hits := uint64(0)
	for _, p := range c.Peers {
		h, _ := p.CacheStats()
		hits += h
	}
	if hits == 0 {
		t.Error("no cache hits recorded across cluster")
	}
}

func TestIndexStatsAccumulate(t *testing.T) {
	c := newCluster(t, 3, Config{Dim: 8})
	ctx := context.Background()
	const n = 20
	for i := 0; i < n; i++ {
		obj := Object{ID: "s" + strconv.Itoa(i), Keywords: NewKeywordSet("a"+strconv.Itoa(i), "b")}
		if err := c.Peers[0].Publish(ctx, obj, "/"); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, p := range c.Peers {
		total += p.IndexStats().Objects
	}
	if total != n {
		t.Errorf("indexed %d objects across cluster, want %d", total, n)
	}
}
