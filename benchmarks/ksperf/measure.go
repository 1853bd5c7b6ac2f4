package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	keysearch "github.com/p2pkeyword/keysearch"
)

// costs sums the read ops' client-visible Stats.
type costs struct {
	Reads, Msgs, Nodes, Rounds, Frames, Matches int
}

func (c *costs) add(s keysearch.Stats, matches int) {
	c.Reads++
	c.Msgs += s.Messages
	c.Nodes += s.NodesContacted
	c.Rounds += s.Rounds
	c.Frames += s.PhysFrames
	c.Matches += matches
}

// caller is one closed-loop client: it issues its next op when the
// previous one has returned and been checked.
type caller struct {
	id    int
	in    *inputs
	f     *fleet
	ops   []op
	next  int
	check *checker
	// slack is the number of corpus records that may be missing from an
	// answer because some caller has them unpublished at the moment.
	slack  int
	lat    []int64 // ns, ops of the current window that passed the oracle
	labels []uint8 // labels[i] is the kind of op behind lat[i]: see label
	failed int
	// firstErr keeps the first failure for the report.
	firstErr error
	// prefix accumulates the first prefixOps read ops of the measured
	// phase; total everything since its start.
	prefix, total costs
	measuring     bool
	// cycleLen is the length of the workload's op cycle: a caller stops
	// and jumps only between rounds, when every record is published.
	cycleLen int
	// onOp, when set, brackets every op (the traced run's root span).
	onOp func(ctx context.Context, seq int, kind opKind) (context.Context, func())
}

func newCaller(id int, in *inputs, f *fleet) *caller {
	c := &caller{id: id, in: in, f: f, ops: in.stream(id, streamOps), check: newChecker(), cycleLen: 1}
	if n := len(in.w.cycle); n > 0 {
		c.cycleLen = n
	}
	for _, k := range in.w.cycle {
		if k == opUnpublish {
			c.slack += callers
		}
	}
	c.next = streamOps / 2 / c.cycleLen * c.cycleLen // the warm-up's ops
	return c
}

// startMeasured moves the caller from the warm-up's ops to op 0 of its
// stream, so the measured ops are the same on every run of a seed.
func (c *caller) startMeasured() {
	c.reset()
	c.next = 0
	c.measuring = true
}

// reset drops the samples of the interval just reported.
func (c *caller) reset() { c.lat, c.labels, c.failed = c.lat[:0], c.labels[:0], 0 }

// step runs one op and checks its answer; it reports the op's latency,
// or an error when the call failed or the oracle disagreed.
func (c *caller) step(ctx context.Context) (time.Duration, error) {
	o := c.ops[c.next%len(c.ops)]
	seq := c.next
	c.next++
	w := c.in.w
	opts := keysearch.SearchOptions{Order: keysearch.ParallelLevels, NoCache: !w.hot}
	if c.onOp != nil {
		var done func()
		ctx, done = c.onOp(ctx, seq, o.kind)
		defer done()
	}

	var (
		err     error
		elapsed time.Duration
	)
	peer := c.f.peers[c.id]
	start := time.Now()
	switch o.kind {
	case opSearch, opPrefix:
		var res keysearch.Result
		var want answer
		if o.kind == opSearch {
			t := &c.in.templates[o.arg]
			want = t.want
			res, err = peer.Search(ctx, t.set, w.threshold, opts)
		} else {
			want = c.in.prefixOK[o.arg]
			res, err = peer.PrefixSearch(ctx, c.in.prefixes[o.arg], w.threshold, opts)
		}
		elapsed = time.Since(start)
		if err == nil {
			err = c.check.checkResult(res, want, w.threshold, c.slack)
		}
		c.account(res.Stats, len(res.Matches))
	case opPin:
		ids, stats, perr := peer.PinSearch(ctx, c.in.records[o.arg].set)
		elapsed = time.Since(start)
		if err = perr; err == nil {
			err = c.check.checkPin(ids, c.in.pins[o.arg], c.slack)
		}
		c.account(stats, len(ids))
	case opUnpublish:
		err = c.f.unpublish(ctx, c.id, &c.in.records[o.arg])
		elapsed = time.Since(start)
	case opPublish:
		err = c.f.publish(ctx, c.id, &c.in.records[o.arg])
		elapsed = time.Since(start)
	}
	if err != nil {
		return elapsed, fmt.Errorf("%s #%d: %w", o.kind, o.arg, err)
	}
	return elapsed, nil
}

func (c *caller) account(s keysearch.Stats, matches int) {
	if !c.measuring {
		return
	}
	c.total.add(s, matches)
	if c.prefix.Reads < c.in.w.prefixOps {
		c.prefix.add(s, matches)
	}
}

// run issues ops until stop is set (checked between rounds of the op
// cycle) or, when count > 0, until count ops have been issued.
func (c *caller) run(ctx context.Context, stop *atomic.Bool, count int) {
	for i := 0; count <= 0 || i < count; i++ {
		if stop.Load() && c.next%c.cycleLen == 0 {
			break
		}
		d, err := c.step(ctx)
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
			continue
		}
		c.lat = append(c.lat, int64(d))
		c.labels = append(c.labels, c.in.label(c.ops[(c.next-1)%len(c.ops)]))
	}
}

// label numbers the kind of an op for the windows' breakdown: its op
// kind, or for superset searches the number of keywords after the kinds.
func (in *inputs) label(o op) uint8 {
	if o.kind == opSearch {
		return uint8(opPublish) + uint8(in.templates[o.arg].set.Len())
	}
	return uint8(o.kind)
}

func labelName(l uint8) string {
	if l > uint8(opPublish) {
		return fmt.Sprintf("search/%dkw", l-uint8(opPublish))
	}
	return opKind(l).String()
}

// window is one measured interval's client-side numbers.
type window struct {
	Seconds float64 `json:"seconds"`
	Ops     int     `json:"ops"`
	Failed  int     `json:"failed"`
	OpsPerS float64 `json:"ops_per_s"`
	P50us   float64 `json:"p50_us"`
	P90us   float64 `json:"p90_us"`
	P99us   float64 `json:"p99_us"`
	Maxus   float64 `json:"max_us"`
	// Kinds says where the window's percentiles fall: each op kind's
	// (for searches, each query size's) share of the ops and its own
	// median latency.
	Kinds    map[string]kindStat `json:"kinds"`
	allocB   uint64
	gcCycles uint32
	gcPause  uint64
	gorPeak  int
}

type kindStat struct {
	Share float64 `json:"share"`
	P50us float64 `json:"p50_us"`
}

// runWindow drives the callers for d and joins them. Failed ops
// contribute no latency sample.
func runWindow(ctx context.Context, cs []*caller, d time.Duration) window {
	var before, after runtime.MemStats
	for _, c := range cs {
		c.reset()
	}
	runtime.ReadMemStats(&before)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			c.run(ctx, &stop, 0)
		}(c)
	}
	// The sampler below is the only extra goroutine: it never issues ops.
	peak := runtime.NumGoroutine()
	tick := time.NewTicker(50 * time.Millisecond)
	deadline := time.After(d)
sampling:
	for {
		select {
		case <-tick.C:
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		case <-deadline:
			break sampling
		}
	}
	tick.Stop()
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	win := summarize(cs, elapsed)
	win.allocB = after.TotalAlloc - before.TotalAlloc
	win.gcCycles = after.NumGC - before.NumGC
	win.gcPause = after.PauseTotalNs - before.PauseTotalNs
	win.gorPeak = peak
	return win
}

// summarize merges the callers' samples of one interval.
func summarize(cs []*caller, elapsed time.Duration) window {
	var all []int64
	win := window{Seconds: elapsed.Seconds(), Kinds: make(map[string]kindStat)}
	byLabel := make(map[uint8][]int64)
	for _, c := range cs {
		all = append(all, c.lat...)
		win.Failed += c.failed
		for i, l := range c.labels {
			byLabel[l] = append(byLabel[l], c.lat[i])
		}
	}
	for l, lat := range byLabel {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		win.Kinds[labelName(l)] = kindStat{Share: float64(len(lat)) / float64(len(all)), P50us: quantile(lat, 0.50)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	win.Ops = len(all)
	win.OpsPerS = float64(win.Ops) / win.Seconds
	if len(all) > 0 {
		win.P50us = quantile(all, 0.50)
		win.P90us = quantile(all, 0.90)
		win.P99us = quantile(all, 0.99)
		win.Maxus = float64(all[len(all)-1]) / 1e3
	}
	return win
}

// quantile reads the q-quantile (nearest rank) of sorted ns samples, in
// microseconds.
func quantile(sorted []int64, q float64) float64 {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the distance between the first and third quartile of v as a
// share of its median, with the quartiles of Python's
// statistics.quantiles(v, n=4) (the exclusive method), which is how the
// benchmark's driver measures run-to-run spread. Of three values the
// quartiles are the smallest and the largest.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1) // 1-based rank
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (at(0.75) - at(0.25)) / m
}
