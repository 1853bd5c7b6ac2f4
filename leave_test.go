package keysearch

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p2pkeyword/keysearch/internal/transport"
	"github.com/p2pkeyword/keysearch/internal/transport/inmem"
)

// TestPeerLeavePreservesSearchability: a graceful departure keeps
// every published object findable — DHT references and index entries
// both move to the successor.
func TestPeerLeavePreservesSearchability(t *testing.T) {
	c := newCluster(t, 6, Config{Dim: 8})
	ctx := context.Background()

	const n = 40
	for i := 0; i < n; i++ {
		id := "stay-" + strconv.Itoa(i)
		obj := Object{ID: id, Keywords: NewKeywordSet("durable", "k"+strconv.Itoa(i))}
		// Publish from peer 0, which will NOT leave, so replica
		// references stay valid.
		if err := c.Peers[0].Publish(ctx, obj, "/"+id); err != nil {
			t.Fatal(err)
		}
	}

	// A non-publisher peer leaves gracefully.
	leaver := c.Peers[3]
	before := leaver.IndexStats().Objects
	transferred, err := leaver.Leave(ctx)
	if err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if before > 0 && transferred == 0 {
		t.Fatalf("Leave reported 0 entries transferred, leaver hosted %d objects", before)
	}
	c.Heal(ctx)

	// Every object remains pin- and superset-searchable from the
	// survivors, including the entries the leaver used to host.
	res, err := c.Peers[0].Search(ctx, NewKeywordSet("durable"), All, SearchOptions{NoCache: true})
	if err != nil {
		t.Fatalf("Search after leave: %v", err)
	}
	if len(res.Matches) != n {
		t.Fatalf("matches after leave = %d, want %d (leaver hosted %d entries)",
			len(res.Matches), n, before)
	}
	for i := 0; i < n; i += 7 {
		id := "stay-" + strconv.Itoa(i)
		refs, err := c.Peers[1].Fetch(ctx, id)
		if err != nil || len(refs) != 1 {
			t.Fatalf("Fetch %s after leave: %v %v", id, refs, err)
		}
	}
}

// TestPeerLeaveVersusCrash contrasts graceful leave with crash-stop:
// the crash loses the victim's index entries, the leave does not.
func TestPeerLeaveVersusCrash(t *testing.T) {
	run := func(graceful bool) int {
		c, err := NewLocalCluster(6, Config{Dim: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		const n = 40
		for i := 0; i < n; i++ {
			id := "vc-" + strconv.Itoa(i)
			obj := Object{ID: id, Keywords: NewKeywordSet("contrast", "x"+strconv.Itoa(i))}
			if err := c.Peers[0].Publish(ctx, obj, "/"+id); err != nil {
				t.Fatal(err)
			}
		}
		victim := c.Peers[3]
		if graceful {
			if _, err := victim.Leave(ctx); err != nil {
				t.Fatalf("Leave: %v", err)
			}
		} else {
			c.Network().SetDown(victim.Addr(), true)
		}
		c.Heal(ctx)
		res, err := c.Peers[0].Search(ctx, NewKeywordSet("contrast"), All, SearchOptions{NoCache: true})
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		return len(res.Matches)
	}
	if got := run(true); got != 40 {
		t.Errorf("graceful leave preserved %d/40 objects", got)
	}
	// The crash run typically loses the victim's share; assert only
	// that leave is at least as good (the victim may have hosted no
	// entries in an unlucky seed, making both equal).
	if crash, leave := run(false), run(true); crash > leave {
		t.Errorf("crash preserved more (%d) than leave (%d)?", crash, leave)
	}
}

// TestSearchDuringLeaveEquivalence: pin and superset answers issued
// while a graceful leave is in flight are byte-identical to a static
// fleet that never churned. The successor pulls the leaver's range one
// entry per throttled chunk and answers through a slow link, so the
// departure spans many queries; every one of them must double-read the
// leaver instead of missing the entries still there.
func TestSearchDuringLeaveEquivalence(t *testing.T) {
	ctx := context.Background()
	objs := churnCorpus(60)
	cfg := Config{Dim: 8}

	pinProbes := make([]Set, 0, 8)
	for i := 0; i < len(objs); i += 8 {
		pinProbes = append(pinProbes, objs[i].Keywords)
	}
	supProbes := []Set{NewKeywordSet("churn"), NewKeywordSet("b3")}
	type answers struct {
		pins    [][]string
		matches [][]Match
	}
	collect := func(p *Peer) (answers, error) {
		var a answers
		for _, k := range pinProbes {
			ids, _, err := p.PinSearch(ctx, k)
			if err != nil {
				return a, fmt.Errorf("pin %v: %w", k, err)
			}
			a.pins = append(a.pins, ids)
		}
		for _, k := range supProbes {
			res, err := p.Search(ctx, k, All, SearchOptions{NoCache: true})
			if err != nil {
				return a, fmt.Errorf("superset %v: %w", k, err)
			}
			if res.Completeness != 1 || res.FailedSubtrees != 0 {
				return a, fmt.Errorf("superset %v incomplete: %v, %d failed subtrees", k, res.Completeness, res.FailedSubtrees)
			}
			a.matches = append(a.matches, res.Matches)
		}
		return a, nil
	}

	static := newCluster(t, 5, cfg)
	publishAll(t, static.Peers[0], objs)
	want, err := collect(static.Peers[1])
	if err != nil {
		t.Fatal(err)
	}

	leaveCfg := cfg
	leaveCfg.MigrateChunkEntries = 1
	leaveCfg.MigrateThrottle = 60 * time.Millisecond
	c := newCluster(t, 6, leaveCfg)
	publishAll(t, c.Peers[0], objs)
	// The heaviest peer other than the publisher and the querier leaves.
	var leaver *Peer
	for _, p := range c.Peers[2:] {
		if leaver == nil || p.IndexStats().Objects > leaver.IndexStats().Objects {
			leaver = p
		}
	}
	if n := leaver.IndexStats().Entries; n < 3 {
		t.Fatalf("heaviest leaver hosts %d entries; the corpus is too small for a lasting leave", n)
	}
	succ := leaver.chord.Successor()
	c.Network().SetLatency(succ.Addr, 2*time.Millisecond)

	left := make(chan error, 1)
	go func() {
		_, err := leaver.Leave(ctx)
		left <- err
	}()
	rounds := 0
	for inFlight := true; inFlight; {
		select {
		case err := <-left:
			if err != nil {
				t.Fatalf("Leave: %v", err)
			}
			inFlight = false
		default:
		}
		got, err := collect(c.Peers[1])
		if err != nil {
			t.Fatalf("round %d (leave in flight: %v): %v", rounds, inFlight, err)
		}
		for i, k := range pinProbes {
			if !reflect.DeepEqual(got.pins[i], want.pins[i]) {
				t.Fatalf("round %d: pin %v = %v, static fleet %v", rounds, k, got.pins[i], want.pins[i])
			}
		}
		for i, k := range supProbes {
			if !reflect.DeepEqual(got.matches[i], want.matches[i]) {
				t.Fatalf("round %d: superset %v: %d matches, static fleet %d (or order/content differs)",
					rounds, k, len(got.matches[i]), len(want.matches[i]))
			}
		}
		if inFlight {
			rounds++
		}
	}
	if rounds < 2 {
		t.Errorf("only %d query rounds overlapped the leave; the throttle no longer holds it open", rounds)
	}
	for _, p := range c.Peers {
		if p.Addr() == succ.Addr {
			if st := p.MigrationStats(); st.Commits == 0 || st.DoubleReads == 0 {
				t.Errorf("successor stats %+v: want the leave committed after double-reads", st)
			}
		}
	}
}

// killOnDepartNet is one peer's view of a shared in-memory network. A
// cut view fails every send its peer makes. On the leaver's view,
// victim names its successor's: the splice message to the successor
// first cuts the successor's sends, is delivered, and then takes the
// successor off the network — a successor that accepts the departure
// and dies before it can pull or commit anything.
type killOnDepartNet struct {
	*inmem.Network
	cut        atomic.Bool
	victim     *killOnDepartNet
	victimAddr Addr
}

func (n *killOnDepartNet) Send(ctx context.Context, to transport.Addr, body any) (any, error) {
	if n.cut.Load() {
		return nil, fmt.Errorf("send to %q: %w", to, transport.ErrUnreachable)
	}
	if n.victim == nil || to != n.victimAddr || fmt.Sprintf("%T", body) != "chord.rpcDepart" {
		return n.Network.Send(ctx, to, body)
	}
	n.victim.cut.Store(true)
	resp, err := n.Network.Send(ctx, to, body)
	n.Network.SetDown(to, true)
	return resp, err
}

// TestLeaveToDeadSuccessorKeepsEntries: a durable leaver whose
// successor dies right after the splice drops nothing — Leave fails,
// and a restart from its DataDir recovers every entry it hosted.
func TestLeaveToDeadSuccessorKeepsEntries(t *testing.T) {
	ctx := context.Background()
	net := inmem.New(1)
	t.Cleanup(func() { net.Close() })
	dir := t.TempDir()
	views := make([]*killOnDepartNet, 4)
	peers := make([]*Peer, len(views))
	for i := range peers {
		cfg := Config{Dim: 8, MaintenanceInterval: -1}
		if i == len(peers)-1 {
			cfg.DataDir = dir
		}
		views[i] = &killOnDepartNet{Network: net}
		p, err := NewPeer(views[i], Addr("dl-"+strconv.Itoa(i)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		if i == 0 {
			p.Create()
		} else if err := p.Join(ctx, peers[0].Addr()); err != nil {
			t.Fatal(err)
		}
		peers[i] = p
		stabilizeRounds(ctx, peers[:i+1], 3*(i+1)+3)
		for _, q := range peers[:i+1] {
			if err := q.WaitMigrationsIdle(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	publishAll(t, peers[0], churnCorpus(60))
	leaver := peers[len(peers)-1]
	before := leaver.IndexStats()
	if before.Entries == 0 {
		t.Fatal("the durable leaver hosts no entries; the corpus is too small for the ring")
	}
	succ := leaver.chord.Successor()
	for i, p := range peers {
		if p.Addr() == succ.Addr {
			views[len(views)-1].victim, views[len(views)-1].victimAddr = views[i], succ.Addr
		}
	}

	lctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if _, err := leaver.Leave(lctx); err == nil {
		t.Fatal("Leave succeeded although its successor died before pulling")
	}
	restarted, err := NewPeer(net, leaver.Addr(), Config{Dim: 8, MaintenanceInterval: -1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if got := restarted.IndexStats(); got.Entries != before.Entries || got.Objects != before.Objects {
		t.Fatalf("restart from the leaver's DataDir holds %d entries / %d objects, want %d / %d",
			got.Entries, got.Objects, before.Entries, before.Objects)
	}
}
