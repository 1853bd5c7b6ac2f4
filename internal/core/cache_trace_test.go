package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
)

var updateCacheTrace = flag.Bool("update-cache-trace", false, "rewrite testdata/cache_trace_golden.txt")

// TestCachePolicyTraceGolden replays one seeded schedule of cache
// operations against both policies at capacities 0, 3, 10 and 64, and
// compares what every operation returns and leaves behind with
// testdata/cache_trace_golden.txt. The file pins each policy's eviction
// order, admission decisions, invalidation and counters across changes
// to the cache's structure.
func TestCachePolicyTraceGolden(t *testing.T) {
	var b bytes.Buffer
	for _, policy := range []string{CachePolicyFIFO, CachePolicyHot} {
		for _, capacity := range []int{0, 3, 10, 64} {
			fmt.Fprintf(&b, "# policy=%s capacity=%d\n", policy, capacity)
			traceCache(&b, newResultCache(policy, capacity), rand.New(rand.NewSource(int64(capacity)+1)), 1250)
		}
	}
	path := filepath.Join("testdata", "cache_trace_golden.txt")
	if *updateCacheTrace {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (generate with -update-cache-trace): %v", err)
	}
	got := b.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<end of file>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("trace diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], w)
		}
	}
	t.Fatalf("trace ends at line %d, golden has %d lines", len(gl), len(wl))
}

// traceCache runs ops random operations on c over two instances and a
// six-word vocabulary, writing one line per operation: the operation,
// its outcome, and the cache's size and snapshot totals after it. A
// refinement source is recorded by its keyword count only, because
// equal-size ancestors tie and the cache may return either. Every
// superset entry holds at least one match, each ID led by its set's
// keyword count, so that count can be read off the returned slice.
func traceCache(b *bytes.Buffer, c *resultCache, rng *rand.Rand, ops int) {
	instances := []string{DefaultInstance, "aux"}
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	randSet := func(max int) keyword.Set {
		words := make([]string, 1+rng.Intn(max))
		for i := range words {
			words[i] = vocab[rng.Intn(len(vocab))]
		}
		return keyword.NewSet(words...)
	}
	// Queries are drawn Zipf-distributed over a shuffled list of every
	// one- to three-word set, so a few keys are hot and the tail is long.
	var sets []keyword.Set
	for m := 1; m < 1<<len(vocab); m++ {
		var words []string
		for i, w := range vocab {
			if m&(1<<i) != 0 {
				words = append(words, w)
			}
		}
		if len(words) <= 3 {
			sets = append(sets, keyword.NewSet(words...))
		}
	}
	rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(sets)-1))
	randPred := func() queryPred {
		s := sets[zipf.Uint64()]
		p := supersetPred(s.Key(), s)
		if rng.Intn(6) == 0 {
			p = predFor(ClassPin, s.Key())
			p.set = s
		}
		p.root = hypercube.Vertex(rng.Intn(4))
		return p
	}
	desc := func(p queryPred) string {
		class := "sup"
		if p.class == ClassPin {
			class = "pin"
		}
		return class + p.set.String()
	}
	ids := func(ms []Match) string {
		s := make([]string, len(ms))
		for i, m := range ms {
			s[i] = m.ObjectID
		}
		return strings.Join(s, ",")
	}
	for i := 0; i < ops; i++ {
		inst := instances[rng.Intn(len(instances))]
		switch r := rng.Intn(100); {
		case r < 38:
			p := randPred()
			n := 1 + rng.Intn(5)
			if p.class == ClassPin {
				n = rng.Intn(5)
			}
			ms := make([]Match, n)
			for j := range ms {
				ms[j].ObjectID = fmt.Sprintf("%d.%d.%d", p.set.Len(), i, j)
			}
			exhausted := rng.Intn(2) == 0
			c.put(inst, p, ms, exhausted)
			fmt.Fprintf(b, "put %s %s r=%d n=%d ex=%t", inst, desc(p), p.root, n, exhausted)
		case r < 78:
			p := randPred()
			threshold := []int{1, 3, All}[rng.Intn(3)]
			ms, exhausted, ok := c.get(inst, p, threshold)
			t := strconv.Itoa(threshold)
			if threshold == All {
				t = "all"
			}
			fmt.Fprintf(b, "get %s %s t=%s", inst, desc(p), t)
			if ok {
				fmt.Fprintf(b, " hit [%s] ex=%t", ids(ms), exhausted)
			} else {
				b.WriteString(" miss")
			}
		case r < 84:
			s := randSet(4)
			c.invalidateSubsetsOf(inst, s.Key())
			fmt.Fprintf(b, "inv %s %s", inst, s)
		case r < 88:
			root := hypercube.Vertex(rng.Intn(4))
			c.dropRoot(inst, root)
			fmt.Fprintf(b, "drop %s r=%d", inst, root)
		case r < 99:
			s := randSet(5)
			ms, ok := c.refineSource(inst, s)
			k := 0
			if ok {
				fmt.Sscanf(ms[0].ObjectID, "%d.", &k)
			}
			fmt.Fprintf(b, "refine %s %s ok=%t k=%d", inst, s, ok, k)
		default:
			c.reset()
			b.WriteString("reset")
		}
		snap := c.snapshot()
		fmt.Fprintf(b, " | len=%d units=%d snap=%d/%d/%d/%d\n", c.len(), c.unitCount(), snap.Hits, snap.Misses, snap.Entries, snap.Units)
	}
}
