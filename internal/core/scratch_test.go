package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/resilience"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// TestWaveScratchNotRetained: nothing that outlives a traversal aliases
// the pooled scratch the traversal ran in. Run it under -race: the
// hedged half finds a Send body that came from the pool only as a race.
func TestWaveScratchNotRetained(t *testing.T) {
	t.Run("paged", testScratchPaged)
	t.Run("hedged", testScratchHedged)
}

// testScratchPaged pages a cumulative batched level search while, between
// every two pages, 60 other searches rooted on the same server recycle
// the pool. Page for page, the outcome — matches, exhaustion, every
// Stats counter, trace — equals an uninterrupted paging of an identical
// fleet, and matches the BatchOff reference the way every flattened
// search must; the pages together are the oracle's answer. A parked
// frontier that shared an array with the scratch would be overwritten
// by the searches in between.
func testScratchPaged(t *testing.T) {
	ctx := context.Background()
	opts := SearchOptions{Order: ParallelLevels, NoCache: true, Trace: true}
	hasher := keyword.MustNewHasher(8, 42)
	objects := goldenCorpus(400)
	busy := newGoldenFleet(t, hasher, 4, BatchOn, nil, objects)
	calm := newGoldenFleet(t, hasher, 4, BatchOn, nil, objects)
	off := newGoldenFleet(t, hasher, 4, BatchOff, nil, objects)

	q := keyword.NewSet("alpha")
	home := busy.root(hasher.Vertex(q))
	var others []keyword.Set
	for i, a := range goldenVocab {
		for _, b := range goldenVocab[i:] {
			if k := keyword.NewSet(a, b); k.Key() != q.Key() && busy.root(hasher.Vertex(k)) == home {
				others = append(others, k)
			}
		}
	}
	if len(others) < 4 {
		t.Fatalf("only %d other queries rooted on %s", len(others), home)
	}
	thresholds := []int{All, 1, 3, 10}

	var got []string
	var sBusy, sCalm, sOff uint64
	pages := 0
	for {
		pages++
		a, aErr := busy.client.search(ctx, q, 3, opts, true, sBusy)
		b, bErr := calm.client.search(ctx, q, 3, opts, true, sCalm)
		c, cErr := off.client.search(ctx, q, 3, opts, true, sOff)
		what := fmt.Sprintf("page %d", pages)
		if x, y := goldenOutcome(a, aErr), goldenOutcome(b, bErr); x != y {
			t.Fatalf("%s: paging with other searches in between differs from paging alone\n got: %s\nwant: %s", what, x, y)
		}
		checkFlattened(t, what, a, c, aErr, cErr)
		got = append(got, matchIDs(a.Matches)...)
		if aErr != nil || a.Exhausted {
			break
		}
		sBusy, sCalm, sOff = a.SessionID, b.SessionID, c.SessionID
		for j := 0; j < 60; j++ {
			k, th := others[j%len(others)], thresholds[j%len(thresholds)]
			if _, err := busy.client.search(ctx, k, th, opts, j%3 == 0, 0); err != nil {
				t.Fatalf("%s: search %v between pages: %v", what, k, err)
			}
		}
	}
	t.Logf("%d pages", pages)
	if pages < 3 {
		t.Fatalf("%d pages: the query no longer pages", pages)
	}
	sort.Strings(got)
	if want := bruteForce(objects, q); !equalStrings(got, want) {
		t.Errorf("pages hold %d matches, oracle %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
}

// testScratchHedged runs batched level searches through the resilience
// layer with hedging on over an inmem fleet whose every peer answers
// after a delay longer than the hedge delay, so most frames go out twice
// and the losing leg is still reading its request after Send returned.
// Two clients search at once, so scratches change hands between
// goroutines; every answer equals the oracle.
func testScratchHedged(t *testing.T) {
	ctx := context.Background()
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	pol := resilience.DefaultPolicy()
	pol.HedgeDelay = 20 * time.Microsecond
	mw := resilience.Wrap(net, pol)
	reg := telemetry.New(1)
	mw.SetTelemetry(reg)

	const servers = 4
	hasher := keyword.MustNewHasher(8, 42)
	addrs := make([]transport.Addr, servers)
	for i := range addrs {
		addrs[i] = transport.Addr("hedge-" + strconv.Itoa(i))
	}
	resolver := FuncResolver(func(v hypercube.Vertex) transport.Addr { return addrs[int(uint64(v)%servers)] })
	for _, addr := range addrs {
		srv, err := NewServer(ServerConfig{Hasher: hasher, Resolver: resolver, Sender: mw, BatchWaves: BatchOn})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		if _, err := net.Bind(addr, srv.Handler); err != nil {
			t.Fatalf("Bind: %v", err)
		}
	}
	client, err := NewClient(hasher, resolver, mw)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	objects := goldenCorpus(300)
	for _, o := range objects {
		if _, err := client.Insert(ctx, o); err != nil {
			t.Fatalf("Insert %s: %v", o.ID, err)
		}
	}
	for i, addr := range addrs {
		net.SetLatency(addr, time.Duration(200+100*i)*time.Microsecond)
	}

	opts := SearchOptions{Order: ParallelLevels, NoCache: true}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, word := range goldenVocab {
					q := keyword.NewSet(word)
					if (i+w)%2 == 1 {
						q = keyword.NewSet(word, goldenVocab[(i+round+1)%len(goldenVocab)])
					}
					res, err := client.SupersetSearch(ctx, q, All, opts)
					if err != nil {
						t.Errorf("hedged search %v: %v", q, err)
						return
					}
					if got, want := matchIDs(res.Matches), bruteForce(objects, q); !equalStrings(got, want) || !res.Exhausted {
						t.Errorf("hedged search %v: %d matches (exhausted %v), oracle %d", q, len(got), res.Exhausted, len(want))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	hedges := reg.Counter("resilience_hedges_total").Value()
	if hedges == 0 {
		t.Fatal("no send was hedged: the fleet answers faster than the hedge delay")
	}
	t.Logf("%d hedged sends", hedges)
}
