package main

import (
	"math/rand"
	"sort"

	keysearch "github.com/p2pkeyword/keysearch"
	"github.com/p2pkeyword/keysearch/internal/corpus"
)

// streamOps is the length of a caller's op stream; a run that outlasts
// it wraps around. The first half feeds the measured phase, the second
// the warm-up, so the measured phase starts at op 0 however far the
// warm-up got.
const streamOps = 128000

// record is one corpus object as the oracle sees it.
type record struct {
	id    string
	words []string // sorted
	set   keysearch.Set
}

// template is one distinct superset query of the log with its
// brute-force answer.
type template struct {
	set  keysearch.Set
	want answer
}

// op is one call of a caller's stream; arg indexes templates, records
// or prefixes according to kind.
type op struct {
	kind opKind
	arg  int32
}

// inputs is everything the program under test is fed.
type inputs struct {
	w         *workload
	seed      int64
	records   []record
	byID      map[string]*record
	templates []template // by popularity rank
	// queries is the query log in arrival order, as template indexes:
	// caller c's searches are queries[c*streamOps:(c+1)*streamOps].
	queries []int32

	pins     []answer // rw: pins[i] is the exact-set answer for records[i]
	prefixes []string
	prefixOK []answer
}

// rng returns one of the independent random streams derived from -seed.
func (in *inputs) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(in.seed*1_000_003 + stream))
}

// pinnedSeed seeds every workload's corpus and query log: the first
// seed, taken as it came.
const pinnedSeed = 1

// generate makes the workload's inputs with the repository's own
// paper-calibrated generators at their defaults: corpus.Generate (Zipf
// keyword popularity, Figure 5 set sizes) and corpus.GenerateQueryLog
// (templates projected from corpus records, 45/30/15/7/3 % of them with
// 1..5 keywords, at most 200 matches each, Zipf 1.3 popularity over
// ranks, so ten templates carry over 60 % of the volume).
//
// The corpus and the log depend on the workload alone (pinnedSeed). The
// seed decides the order in which the log's queries arrive and which
// caller issues which, and the arguments of the write, pin and prefix
// ops. Under Zipf 1.3 three templates carry half the volume, so a
// percentile is the cost of one of a handful of templates, and a log
// drawn per seed is another workload: over ten seeds the quartile spread
// was 52 % for p50_us and 28 % for msgs_per_op on deep_inmem, 41 % for
// p90_us on top10_tcp (README, "Inputs"), where the driver's contract
// allows a bound, and so a spread, of 25 % at most.
func generate(w *workload, seed int64) (*inputs, error) {
	in := &inputs{w: w, seed: seed}
	c, err := corpus.Generate(corpus.Config{Objects: w.objects, Seed: pinnedSeed})
	if err != nil {
		return nil, err
	}
	in.records = make([]record, 0, c.Len())
	for _, r := range c.Records() {
		in.records = append(in.records, record{id: r.ID, words: r.Keywords.Words(), set: r.Keywords})
	}
	in.byID = make(map[string]*record, len(in.records))
	for i := range in.records {
		in.byID[in.records[i].id] = &in.records[i]
	}

	log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{
		Templates: w.templates, Queries: callers * streamOps, Seed: pinnedSeed,
	})
	if err != nil {
		return nil, err
	}
	orc := oracle{in.records}
	for _, set := range log.Templates() {
		in.templates = append(in.templates, template{set: set, want: newAnswer(orc.superset(set.Words()))})
	}
	in.queries = make([]int32, log.Len())
	for i, q := range log.Queries() {
		in.queries[i] = int32(q.Template - 1)
	}
	in.rng(2).Shuffle(len(in.queries), func(i, j int) { in.queries[i], in.queries[j] = in.queries[j], in.queries[i] })

	if w.cycle != nil {
		in.makeReadArgs()
	}
	return in, nil
}

// makeReadArgs prepares the pin and prefix queries of the mixed
// workload: a pin query is a corpus record's exact set, a prefix is the
// first three characters of a template's first keyword.
func (in *inputs) makeReadArgs() {
	orc := oracle{in.records}
	in.pins = make([]answer, len(in.records))
	for i, r := range in.records {
		in.pins[i] = newAnswer(orc.pin(r.words))
	}
	seen := map[string]bool{}
	for _, t := range in.templates {
		p := t.set.Words()[0]
		if len(p) > 3 {
			p = p[:3]
		}
		if !seen[p] {
			seen[p] = true
			in.prefixes = append(in.prefixes, p)
		}
	}
	sort.Strings(in.prefixes)
	for _, p := range in.prefixes {
		in.prefixOK = append(in.prefixOK, newAnswer(orc.prefix(p)))
	}
}

// stripe returns the records caller c may unpublish and re-publish: the
// ones its own peer published at set-up (record i is published by peer
// i mod peers), so callers never touch each other's records.
func (in *inputs) stripe(c int) []int32 {
	var out []int32
	for i := c; i < len(in.records); i += in.w.peers {
		out = append(out, int32(i))
	}
	return out
}

// stream builds caller c's op sequence of n ops: the workload's cycle
// of op kinds, repeated, with the caller's share of the query log
// filling the searches in arrival order. Every round of the cycle
// re-publishes the records it unpublished, so the corpus is whole at
// every round boundary.
func (in *inputs) stream(c, n int) []op {
	rng := in.rng(100 + int64(c))
	cycle := in.w.cycle
	if cycle == nil {
		cycle = []opKind{opSearch}
	}
	queries := in.queries[c*streamOps : (c+1)*streamOps]
	searches := 0

	stripe := in.stripe(c)
	rng.Shuffle(len(stripe), func(i, j int) { stripe[i], stripe[j] = stripe[j], stripe[i] })
	writesPerCycle := 0
	for _, k := range cycle {
		if k == opUnpublish {
			writesPerCycle++
		}
	}

	out := make([]op, 0, n)
	for round := 0; len(out) < n; round++ {
		un, pub := 0, 0
		for _, kind := range cycle {
			o := op{kind: kind}
			switch kind {
			case opSearch:
				o.arg = queries[searches%len(queries)]
				searches++
			case opPin:
				o.arg = int32(rng.Intn(len(in.records)))
			case opPrefix:
				o.arg = int32(rng.Intn(len(in.prefixes)))
			case opUnpublish:
				o.arg = stripe[(round*writesPerCycle+un)%len(stripe)]
				un++
			case opPublish:
				o.arg = stripe[(round*writesPerCycle+pub)%len(stripe)]
				pub++
			}
			out = append(out, o)
		}
	}
	return out[:n]
}

// streamHash fingerprints the op sequences of both callers, so a test
// can assert that a seed fixes the inputs.
func (in *inputs) streamHash(n int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for c := 0; c < callers; c++ {
		for _, o := range in.stream(c, n) {
			mix(uint64(o.kind)<<32 | uint64(uint32(o.arg)))
		}
	}
	for _, t := range in.templates {
		for _, b := range []byte(t.set.Key()) {
			mix(uint64(b))
		}
	}
	return h
}
