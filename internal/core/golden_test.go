package core

import (
	"bytes"
	"context"
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
	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// updateGolden rewrites testdata/traverse_golden.txt from the engine
// under test. The committed file was written by the four engines the
// one frontier engine replaced (sequential, level-parallel, the prefix
// branch loop and the pin lookup); regenerate it only when the corpus
// or the line format below changes, never to make an engine change
// pass.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/traverse_golden.txt")

const goldenPath = "testdata/traverse_golden.txt"

// goldenVocab clusters word prefixes so one prefix query selects
// several keywords (and therefore several hypercube dimensions).
var goldenVocab = []string{
	"kw1", "kw12", "kw120", "kw2", "kw21", "alpha", "alto", "beta",
	"bet", "gamma", "delta", "echo",
}

func goldenCorpus(n int) []Object {
	rng := rand.New(rand.NewSource(20050610))
	objects := make([]Object, 0, n)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(4)
		perm := rng.Perm(len(goldenVocab))
		words := make([]string, k)
		for j := range words {
			words[j] = goldenVocab[perm[j]]
		}
		objects = append(objects, obj("g-"+strconv.Itoa(i), words...))
	}
	return objects
}

// goldenFleet is one seeded inmem deployment. With faults on, two
// interior vertices of the first query's subcube live alone on
// dedicated peers that are crashed after loading, so every traversal
// crossing them exercises failure accounting and local child
// regeneration without any query root going down.
type goldenFleet struct {
	client *Client
	net    *inmem.Network
	root   func(v hypercube.Vertex) transport.Addr
}

func newGoldenFleet(t *testing.T, r, nServers int, mode BatchMode, down []hypercube.Vertex) *goldenFleet {
	t.Helper()
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	hasher := keyword.MustNewHasher(r, 42)
	addrs := make([]transport.Addr, nServers+len(down))
	for i := range addrs {
		addrs[i] = transport.Addr("gold-" + strconv.Itoa(i))
	}
	route := func(v hypercube.Vertex) transport.Addr {
		for i, d := range down {
			if v == d {
				return addrs[nServers+i]
			}
		}
		return addrs[int(uint64(v)%uint64(nServers))]
	}
	resolver := FuncResolver(route)
	for _, addr := range addrs {
		srv, err := NewServer(ServerConfig{Hasher: hasher, Resolver: resolver, Sender: net, BatchWaves: mode})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		if _, err := net.Bind(addr, srv.Handler); err != nil {
			t.Fatalf("Bind: %v", err)
		}
	}
	client, err := NewClient(hasher, resolver, net)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	ctx := context.Background()
	for _, o := range goldenCorpus(160) {
		if _, err := client.Insert(ctx, o); err != nil {
			t.Fatalf("Insert %s: %v", o.ID, err)
		}
	}
	for i := range down {
		net.SetDown(addrs[nServers+i], true)
	}
	return &goldenFleet{client: client, net: net, root: route}
}

func goldenThreshold(th int) string {
	if th == All {
		return "all"
	}
	return strconv.Itoa(th)
}

// goldenOutcome renders everything the equivalence contract covers:
// matches in order (object@vertex/depth), exhaustion, the four cost
// counters, failed subtrees and the per-vertex trace.
func goldenOutcome(res Result, err error) string {
	if err != nil {
		return "err=" + err.Error()
	}
	var b strings.Builder
	b.WriteString("m=[")
	for i, m := range res.Matches {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s@%d/%d", m.ObjectID, m.Vertex, m.Depth)
	}
	fmt.Fprintf(&b, "] ex=%t stats=%d/%d/%d/%d failed=%d trace=[", res.Exhausted,
		res.Stats.NodesContacted, res.Stats.Messages, res.Stats.Rounds, res.Stats.PhysFrames,
		res.FailedSubtrees)
	for i, st := range res.Trace {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", st.Vertex, st.Matches)
		if st.Failed {
			b.WriteByte('!')
		}
	}
	b.WriteByte(']')
	return b.String()
}

// goldenPages drains a cumulative search pageSize matches at a time and
// renders every page's outcome.
func goldenPages(f *goldenFleet, q keyword.Set, pageSize int, opts SearchOptions) string {
	ctx := context.Background()
	var pages []string
	var session uint64
	for {
		res, err := f.client.search(ctx, q, pageSize, opts, true, session)
		pages = append(pages, goldenOutcome(res, err))
		if err != nil || res.Exhausted {
			return strings.Join(pages, " | ")
		}
		session = res.SessionID
	}
}

// TestTraverseGolden compares the traversal engine with history rather
// than with itself: for every order × batch mode × threshold ×
// one-shot/cumulative × healthy/faulty fleet × query class it renders
// the complete outcome of a seeded query mix and requires the bytes the
// pre-unification engines produced. The mode-versus-mode matrices
// elsewhere would not notice both sides moving together; this does.
// Prefix and pin queries have no cumulative form — the root rejects
// them — so those cells hold the rejection.
func TestTraverseGolden(t *testing.T) {
	var out bytes.Buffer
	ctx := context.Background()
	orders := []TraversalOrder{TopDown, BottomUp, ParallelLevels}
	thresholds := []int{1, 3, 10, All}
	for _, dim := range []struct{ r, servers int }{{6, 5}, {8, 7}} {
		hasher := keyword.MustNewHasher(dim.r, 42)
		cube, err := hypercube.New(dim.r)
		if err != nil {
			t.Fatal(err)
		}
		supersets := []keyword.Set{
			keyword.NewSet("alpha"),
			keyword.NewSet("kw1", "beta"),
			keyword.NewSet("gamma", "delta", "echo"),
		}
		pins := []keyword.Set{goldenCorpus(160)[0].Keywords, keyword.NewSet("beta", "nosuchword")}
		masks := []uint64{0, 0b1010}

		// Downed vertices: the largest-subtree child of the first query's
		// root, and a grandchild on the other side of its subcube.
		rootV := hasher.Vertex(supersets[0])
		var free []int
		for d := 0; d < cube.Dim(); d++ {
			if rootV&(1<<uint(d)) == 0 {
				free = append(free, d)
			}
		}
		down := []hypercube.Vertex{
			rootV | 1<<uint(free[len(free)-1]),
			rootV | 1<<uint(free[0]) | 1<<uint(free[1]),
		}
		for _, q := range append(append([]keyword.Set{}, supersets...), pins...) {
			for _, d := range down {
				if hasher.Vertex(q) == d {
					t.Fatalf("downed vertex %d is the root of %v", d, q)
				}
			}
		}

		for _, faulty := range []bool{false, true} {
			for _, mode := range []BatchMode{BatchOn, BatchOff} {
				var dead []hypercube.Vertex
				if faulty {
					dead = down
				}
				f := newGoldenFleet(t, dim.r, dim.servers, mode, dead)
				fleet := fmt.Sprintf("r=%d faults=%t batch=%t", dim.r, faulty, mode == BatchOn)
				for _, order := range orders {
					opts := SearchOptions{Order: order, NoCache: true, Trace: true}
					head := fleet + " order=" + order.String()
					for _, q := range supersets {
						for _, th := range thresholds {
							res, err := f.client.SupersetSearch(ctx, q, th, opts)
							fmt.Fprintf(&out, "%s superset %q th=%s :: %s\n", head, q.Key(), goldenThreshold(th), goldenOutcome(res, err))
						}
						for _, page := range []int{1, 7} {
							fmt.Fprintf(&out, "%s superset %q page=%d :: %s\n", head, q.Key(), page, goldenPages(f, q, page, opts))
						}
					}
					for _, mask := range masks {
						for _, prefix := range []string{"kw1", "al"} {
							for _, th := range thresholds {
								res, err := f.client.PrefixSearchMasked(ctx, prefix, mask, th, opts)
								fmt.Fprintf(&out, "%s prefix %q mask=%b th=%s :: %s\n", head, prefix, mask, goldenThreshold(th), goldenOutcome(res, err))
							}
						}
					}
					for _, k := range pins {
						ids, st, err := f.client.PinSearch(ctx, k)
						fmt.Fprintf(&out, "%s pin %q :: ids=%v stats=%d/%d/%d/%d err=%v\n", head, k.Key(), ids,
							st.NodesContacted, st.Messages, st.Rounds, st.PhysFrames, err)
					}
					// The cumulative cells of the two classes without sessions.
					for _, class := range []QueryClass{ClassPrefix, ClassPin} {
						msg := msgTQuery{Instance: DefaultInstance, Dim: dim.r, Threshold: 3, Order: order,
							Cumulative: true, NoCache: true, Class: class}
						if class == ClassPrefix {
							msg.QueryKey, msg.Vertex = "kw1", 1
						} else {
							msg.QueryKey, msg.Vertex = pins[0].Key(), uint64(hasher.Vertex(pins[0]))
						}
						_, err := f.net.Send(ctx, f.root(hypercube.Vertex(msg.Vertex)), msg)
						fmt.Fprintf(&out, "%s %s cumulative :: err=%v\n", head, class, err)
					}
				}
			}
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (generate with -update-golden): %v", err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	gotLines := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("golden has %d lines, engine produced %d", len(wantLines), len(gotLines))
	}
	shown := 0
	for i := 0; i < len(gotLines) && i < len(wantLines) && shown < 5; i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d differs\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			shown++
		}
	}
	t.Fatal("traversal outcome differs from the golden file")
}
