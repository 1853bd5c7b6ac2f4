package core

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
)

// randomWorkload builds a deployment with a random corpus and returns
// it with a random non-empty query drawn from the corpus vocabulary.
func randomWorkload(t *testing.T, rng *rand.Rand) (*deployment, []Object, keyword.Set) {
	t.Helper()
	r := 6 + rng.Intn(4)
	servers := 1 + rng.Intn(6)
	d := newDeployment(t, r, servers, 0)
	objects := corpus(t, d, 80+rng.Intn(120), rng.Int63())
	vocab := []string{"isp", "news", "mp3", "video", "game", "shop", "travel", "bank", "edu", "tv"}
	n := 1 + rng.Intn(2)
	words := make([]string, n)
	for i := range words {
		words[i] = vocab[rng.Intn(len(vocab))]
	}
	return d, objects, keyword.NewSet(words...)
}

// TestPropertyCumulativeEqualsOneShot: paging through a cumulative
// search with random page sizes yields exactly the one-shot exhaustive
// result set.
func TestPropertyCumulativeEqualsOneShot(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, _, q := randomWorkload(t, rng)
		ctx := context.Background()

		oneShot, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{})
		if err != nil {
			return false
		}
		cur, err := d.client.CumulativeSearch(q, SearchOptions{})
		if err != nil {
			return false
		}
		var paged []string
		for !cur.Exhausted() {
			page, _, err := cur.Next(ctx, 1+rng.Intn(7))
			if err != nil {
				return false
			}
			for _, m := range page {
				paged = append(paged, m.ObjectID+"|"+m.SetKey)
			}
		}
		var direct []string
		for _, m := range oneShot.Matches {
			direct = append(direct, m.ObjectID+"|"+m.SetKey)
		}
		sort.Strings(paged)
		sort.Strings(direct)
		if len(paged) != len(direct) {
			return false
		}
		for i := range paged {
			if paged[i] != direct[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestPropertyOrdersReturnSameSet: the three traversal orders agree on
// the exhaustive result set.
func TestPropertyOrdersReturnSameSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, _, q := randomWorkload(t, rng)
		ctx := context.Background()
		var sets [3][]string
		for i, order := range []TraversalOrder{TopDown, BottomUp, ParallelLevels} {
			res, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{Order: order})
			if err != nil {
				return false
			}
			sets[i] = matchIDs(res.Matches)
		}
		return equalStrings(sets[0], sets[1]) && equalStrings(sets[1], sets[2])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCachedEqualsUncached: a repeated query served from cache
// returns the same matches as a cache-bypassing query.
func TestPropertyCachedEqualsUncached(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 6 + rng.Intn(4)
		d := newDeployment(t, r, 1+rng.Intn(4), 100000)
		objects := corpus(t, d, 100, rng.Int63())
		_ = objects
		q := keyword.NewSet([]string{"isp", "news", "mp3"}[rng.Intn(3)])
		ctx := context.Background()
		threshold := 1 + rng.Intn(20)

		warm, err := d.client.SupersetSearch(ctx, q, threshold, SearchOptions{})
		if err != nil {
			return false
		}
		cached, err := d.client.SupersetSearch(ctx, q, threshold, SearchOptions{})
		if err != nil {
			return false
		}
		fresh, err := d.client.SupersetSearch(ctx, q, threshold, SearchOptions{NoCache: true})
		if err != nil {
			return false
		}
		if !cached.Stats.CacheHit {
			return false
		}
		return equalStrings(matchIDs(warm.Matches), matchIDs(cached.Matches)) &&
			equalStrings(matchIDs(cached.Matches), matchIDs(fresh.Matches))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDepthBoundsExtraKeywords: Lemma 3.2 end-to-end — every
// match has at least Depth keywords beyond the query.
func TestPropertyDepthBoundsExtraKeywords(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, _, q := randomWorkload(t, rng)
		ctx := context.Background()
		res, err := d.client.SupersetSearch(ctx, q, All, SearchOptions{})
		if err != nil {
			return false
		}
		for _, m := range res.Matches {
			extras := m.Keywords().Len() - q.Len()
			if extras < m.Depth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEngineCoversCandidatesExactlyOnce pins the one traversal
// engine to the paper rather than to the code it replaced. For a random
// (r ≤ 10, root, order, batch mode, prefix mask) and threshold All, the
// trace must show:
//
//   - Lemma 3.1: the SBT spans the induced subcube — the visited
//     vertices are exactly {v : v ⊇ root}, each once. For a prefix
//     query with mask M the exclusion-mask branches partition
//     {v : v ∧ M ≠ 0} the same way.
//   - Lemma 3.2: every match's Depth is the Hamming distance from its
//     tree's root to the vertex that indexed it (the number of extra
//     keyword dimensions).
//   - Section 3.5: the sequential orders take one round per node; the
//     level-synchronous order at most r − |root| + 1 rounds per tree,
//     and batched, a prefix multicast's branches go as one mega-wave:
//     one round.
func TestPropertyEngineCoversCandidatesExactlyOnce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 4 + rng.Intn(7)
		mode := []BatchMode{BatchOn, BatchOff}[rng.Intn(2)]
		d := newDeploymentMode(t, r, 1+rng.Intn(6), 0, mode)
		corpus(t, d, 60+rng.Intn(60), rng.Int63())
		order := []TraversalOrder{TopDown, BottomUp, ParallelLevels}[rng.Intn(3)]
		opts := SearchOptions{Order: order, NoCache: true, Trace: true}
		ctx := context.Background()
		full := hypercube.Vertex(1)<<uint(r) - 1

		var (
			res       Result
			err       error
			candidate func(v hypercube.Vertex) bool
			treeRoot  func(v hypercube.Vertex) hypercube.Vertex
			maxRounds int
		)
		if rng.Intn(2) == 0 {
			words := []string{"isp", "news", "mp3", "video", "game", "shop"}
			q := keyword.NewSet(words[rng.Intn(len(words))], words[rng.Intn(len(words))])
			root := d.hasher.Vertex(q)
			res, err = d.client.SupersetSearch(ctx, q, All, opts)
			candidate = func(v hypercube.Vertex) bool { return v&root == root }
			treeRoot = func(hypercube.Vertex) hypercube.Vertex { return root }
			maxRounds = r - root.OnesCount() + 1
		} else {
			mask := hypercube.Vertex(rng.Uint64()) & full
			if mask == 0 {
				mask = full
			}
			res, err = d.client.PrefixSearchMasked(ctx, "t", uint64(mask), All, opts)
			candidate = func(v hypercube.Vertex) bool { return v&mask != 0 }
			// A candidate belongs to the branch of its lowest masked bit.
			treeRoot = func(v hypercube.Vertex) hypercube.Vertex { return v & mask & -(v & mask) }
			maxRounds = mask.OnesCount() * r
			if mode == BatchOn {
				maxRounds = 1
			}
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}

		want := 0
		for v := hypercube.Vertex(0); v <= full; v++ {
			if candidate(v) {
				want++
			}
		}
		seen := make(map[uint64]bool, len(res.Trace))
		for _, st := range res.Trace {
			if st.Failed || seen[st.Vertex] || !candidate(hypercube.Vertex(st.Vertex)) {
				t.Logf("seed %d: step %+v is failed, repeated or outside the candidate set", seed, st)
				return false
			}
			seen[st.Vertex] = true
		}
		if len(seen) != want || res.Stats.NodesContacted != want || !res.Exhausted || res.Completeness != 1 {
			t.Logf("seed %d: visited %d of %d candidates, stats %+v, exhausted %v", seed, len(seen), want, res.Stats, res.Exhausted)
			return false
		}
		for _, m := range res.Matches {
			v := hypercube.Vertex(m.Vertex)
			if m.Depth != hypercube.Hamming(treeRoot(v), v) {
				t.Logf("seed %d: match %+v depth is not the Hamming distance from %d", seed, m, treeRoot(v))
				return false
			}
		}
		if order != ParallelLevels && res.Stats.Rounds != res.Stats.NodesContacted {
			t.Logf("seed %d: %v took %d rounds for %d nodes", seed, order, res.Stats.Rounds, res.Stats.NodesContacted)
			return false
		}
		if order == ParallelLevels && res.Stats.Rounds > maxRounds {
			t.Logf("seed %d: level waves took %d rounds, bound %d", seed, res.Stats.Rounds, maxRounds)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyInsertDeleteRoundTrip: after deleting everything that
// was inserted, every search comes back empty.
func TestPropertyInsertDeleteRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := newDeployment(t, 6+rng.Intn(4), 1+rng.Intn(4), 0)
		ctx := context.Background()
		var objects []Object
		for i := 0; i < 30; i++ {
			o := obj("rt-"+strconv.Itoa(i),
				"w"+strconv.Itoa(rng.Intn(6)), "v"+strconv.Itoa(rng.Intn(6)))
			objects = append(objects, o)
			if _, err := d.client.Insert(ctx, o); err != nil {
				return false
			}
		}
		for _, o := range objects {
			if _, _, err := d.client.Delete(ctx, o); err != nil {
				return false
			}
		}
		for i := 0; i < 6; i++ {
			res, err := d.client.SupersetSearch(ctx, keyword.NewSet("w"+strconv.Itoa(i)), All, SearchOptions{})
			if err != nil || len(res.Matches) != 0 {
				return false
			}
		}
		// All server tables are empty.
		for _, s := range d.servers {
			if s.Stats().Objects != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
