package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
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

// updateSchedule rewrites testdata/traverse_golden_schedule.txt: the
// lines of the engine under test that differ from history. Writing them
// proves nothing — the run still fails unless each one differs from its
// history line only in how the same answer was scheduled (see
// sameAnswerRescheduled).
var updateSchedule = flag.Bool("update-golden-schedule", false, "rewrite testdata/traverse_golden_schedule.txt")

const (
	goldenPath   = "testdata/traverse_golden.txt"
	schedulePath = "testdata/traverse_golden_schedule.txt"
)

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

// goldenFleet is one seeded inmem deployment holding the given objects.
// With faults on, two interior vertices of the first query's subcube
// live alone on dedicated peers that are crashed after loading, so every
// traversal crossing them exercises failure accounting and local child
// regeneration without any query root going down.
type goldenFleet struct {
	client *Client
	net    *inmem.Network
	root   func(v hypercube.Vertex) transport.Addr
}

func newGoldenFleet(t *testing.T, hasher keyword.Hasher, nServers int, mode BatchMode, down []hypercube.Vertex, objects []Object) *goldenFleet {
	t.Helper()
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
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
	for _, o := range objects {
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
				f := newGoldenFleet(t, hasher, dim.servers, mode, dead, goldenCorpus(160))
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
	gotLines := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, engine produced %d", len(wantLines), len(gotLines))
	}
	if *updateSchedule {
		var sched bytes.Buffer
		for i, line := range gotLines {
			if line != wantLines[i] {
				sched.WriteString(line + "\n")
			}
		}
		if err := os.WriteFile(schedulePath, sched.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The schedule file pins the wave schedule where it has moved on
	// from history's: cell head → the whole line.
	raw, err := os.ReadFile(schedulePath)
	if err != nil {
		t.Fatalf("read schedule file (generate with -update-golden-schedule): %v", err)
	}
	overrides := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		head, _, _ := strings.Cut(line, " :: ")
		overrides[head] = line
	}
	bad := 0
	for i, got := range gotLines {
		if got == wantLines[i] {
			continue
		}
		head, _, _ := strings.Cut(got, " :: ")
		override, pinned := overrides[head]
		delete(overrides, head)
		var why string
		switch {
		case !pinned:
			why = "differs from history and the schedule file has no line for it"
		case got != override:
			why = "differs from its schedule line\nsched: " + override
		default:
			if why = sameAnswerRescheduled(wantLines[i], got); why == "" {
				continue
			}
		}
		if bad++; bad <= 5 {
			t.Errorf("line %d %s\n got: %s\nwant: %s", i+1, why, got, wantLines[i])
		}
	}
	for head := range overrides {
		bad++
		t.Errorf("schedule line overrides nothing: %s", head)
	}
	if bad > 0 {
		t.Fatalf("traversal outcome differs from the golden files in %d lines", bad)
	}
}

// goldenPage picks one page of an outcome apart: the answer (matches
// and exhaustion), the logical cost, the schedule, the trace.
var goldenPage = regexp.MustCompile(`^(m=\[.*\] ex=\w+) stats=(\d+)/(\d+)/\d+/\d+ failed=(\d+) trace=\[(.*)\]$`)

// sameAnswerRescheduled explains why got is not history's outcome under
// a different wave schedule, or returns "" when it is: page for page the
// same matches in the same order and the same exhaustion, and either
// the same vertices at the same logical cost — only rounds and frames
// moved — or history's trace followed by over-contacted vertices that
// took nothing, each paid for in nodes and messages.
func sameAnswerRescheduled(history, got string) string {
	_, wantBody, _ := strings.Cut(history, " :: ")
	_, gotBody, _ := strings.Cut(got, " :: ")
	wantPages, gotPages := strings.Split(wantBody, " | "), strings.Split(gotBody, " | ")
	if len(wantPages) != len(gotPages) {
		return fmt.Sprintf("has %d pages, history %d", len(gotPages), len(wantPages))
	}
	for p := range wantPages {
		w, g := goldenPage.FindStringSubmatch(wantPages[p]), goldenPage.FindStringSubmatch(gotPages[p])
		if w == nil || g == nil {
			return fmt.Sprintf("page %d is not a search outcome", p+1)
		}
		if w[1] != g[1] {
			return fmt.Sprintf("page %d answers differently", p+1)
		}
		extra, ok := strings.CutPrefix(g[5], w[5])
		if !ok || (extra != "" && w[5] != "" && extra[0] != ' ') {
			return fmt.Sprintf("page %d visits vertices in another order", p+1)
		}
		over := strings.Fields(extra)
		for _, step := range over {
			if !strings.HasSuffix(strings.TrimSuffix(step, "!"), ":0") {
				return fmt.Sprintf("page %d takes matches from over-contacted vertex %s", p+1, step)
			}
		}
		delta := func(k int) int {
			a, _ := strconv.Atoi(w[k])
			b, _ := strconv.Atoi(g[k])
			return b - a
		}
		if delta(2) != len(over) || delta(3) != 2*len(over) || delta(4) != strings.Count(extra, "!") {
			return fmt.Sprintf("page %d: logical cost does not account for %d over-contacted vertices", p+1, len(over))
		}
	}
	return ""
}
