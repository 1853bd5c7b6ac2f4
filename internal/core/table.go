package core

import (
	"math/bits"
	"slices"
	"strings"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
)

// table is Tbl_u for one logical vertex: its ⟨keyword set, object⟩
// entries, one per (set key, object ID) pair, sorted by that pair — so
// the canonical order every reader promises is the storage order. An
// entry is its key: the canonical set key is the only copy of the set,
// and the predicates read it in place (keyword.KeySubset,
// keyword.KeyHasPrefix). Beside the entries sits a dense column of
// 128-bit keyword-set signatures (keyword.KeySignature) that superset
// scans test before they touch a key. An entry costs its two string
// headers and a signature beside the strings themselves: 48 B, 53.3 B
// with the slack grown leaves on the deep_inmem corpus
// (TestTableBytesPerObject).
//
// The slices are mutated in place. A writer must exclude every reader
// (the shard write lock), a reader must exclude writers (the shard read
// lock), and nothing a reader is handed may be kept past
// that lock: scans and walks copy strings out. This file is the only
// code that knows the layout.
type table struct {
	ents []tableEntry
	sigs []keyword.Sig // sigs[i] == keyword.KeySignature(ents[i].key)
	keys int           // distinct set keys: the ⟨keyword set, objects⟩ count
	// ringKey is VertexKey of the (instance, vertex) an authoritative
	// table is hosted under, fixed when the table is created: ownership
	// tests and range transfers read it instead of hashing the pair
	// again.
	ringKey dht.ID
}

type tableEntry struct {
	key string // canonical set key; entries of one key share its string
	id  string
}

func compareEntries(a, b tableEntry) int {
	if c := strings.Compare(a.key, b.key); c != 0 {
		return c
	}
	return strings.Compare(a.id, b.id)
}

// find returns the position of setKey's first entry, or where it would
// go.
func (t *table) find(setKey string) (int, bool) {
	return slices.BinarySearchFunc(t.ents, setKey, func(e tableEntry, key string) int {
		return strings.Compare(e.key, key)
	})
}

// insert adds ⟨setKey, id⟩ under setKey's canonical spelling; a
// duplicate is a no-op.
func (t *table) insert(setKey, id string) {
	e := tableEntry{key: keyword.CanonicalKey(setKey), id: id}
	i, dup := slices.BinarySearchFunc(t.ents, e, compareEntries)
	if dup {
		return
	}
	switch {
	case i < len(t.ents) && t.ents[i].key == e.key:
		e.key = t.ents[i].key
	case i > 0 && t.ents[i-1].key == e.key:
		e.key = t.ents[i-1].key
	default:
		t.keys++
	}
	t.ents = slices.Insert(grown(t.ents), i, e)
	t.sigs = slices.Insert(grown(t.sigs), i, keyword.KeySignature(e.key))
}

// grown returns s with room for one more element. A full s grows by an
// eighth, at least four elements, rounded up to the allocator's size
// class, where append would double it: tables are small and grow one
// entry at a time, doubling left a third of a column as slack on the
// deep_inmem corpus, and steps of one element reallocated on nearly
// every insert into a small table.
func grown[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	g := append([]T(nil), make([]T, len(s)+max(4, len(s)/8))...)
	return g[:copy(g, s)]
}

// remove deletes ⟨setKey, id⟩ (either spelling of the set) and reports
// whether it was present.
func (t *table) remove(setKey, id string) bool {
	e := tableEntry{key: keyword.CanonicalKey(setKey), id: id}
	i, ok := slices.BinarySearchFunc(t.ents, e, compareEntries)
	if !ok {
		return false
	}
	if (i == 0 || t.ents[i-1].key != e.key) && (i+1 == len(t.ents) || t.ents[i+1].key != e.key) {
		t.keys--
	}
	t.ents = slices.Delete(t.ents, i, i+1)
	t.sigs = slices.Delete(t.sigs, i, i+1)
	return true
}

// entryCount is the number of ⟨keyword set, objects⟩ entries (distinct
// set keys); objectCount the number of ⟨set key, object ID⟩ pairs.
func (t *table) entryCount() int  { return t.keys }
func (t *table) objectCount() int { return len(t.ents) }

// walk calls fn for every ⟨setKey, id⟩ in canonical order until fn
// returns false, and reports whether it ran to the end.
func (t *table) walk(fn func(setKey, id string) bool) bool {
	for _, e := range t.ents {
		if !fn(e.key, e.id) {
			return false
		}
	}
	return true
}

// scan appends the entries matching pred to dst in canonical order: the
// window of limit matches (limit < 0: unlimited) after the first skip,
// plus the count of matches beyond the window. v is the table's vertex
// and root the query's; by Lemma 3.2 every match of one vertex sits at
// the same depth, pred.depth(root, v).
//
// A superset scan reads the signature column first: K ⊆ K' implies
// sig(K').Covers(sig(K)), so an entry failing the test cannot match
// and its key is never touched. The test only rejects — every survivor
// still goes through pred.matches — so a signature collision costs
// time, never an answer. A pin's matches are its key's run of entries;
// prefix queries carry a zero want, which every entry covers.
func (t *table) scan(dst []Match, v, root hypercube.Vertex, pred *queryPred, skip, limit int) ([]Match, int) {
	lo, hi := 0, len(t.ents)
	if pred.class == ClassPin {
		lo, _ = t.find(pred.key)
		hi = lo
		for hi < len(t.ents) && t.ents[hi].key == pred.key {
			hi++
		}
	}
	// Matching entries are remembered in a bitmap so the predicate runs
	// once per entry and dst grows at most once, by the window's size.
	// The bitmap lives on the stack for all but outsized tables.
	var small [8]uint64
	hits := small[:]
	if n := hi - lo; n > 64*len(small) {
		hits = make([]uint64, (n+63)/64)
	}
	total := 0
	want := pred.want
	for i := lo; i < hi; i++ {
		if !t.sigs[i].Covers(want) || !pred.matches(t.ents[i].key) {
			continue
		}
		hits[(i-lo)>>6] |= 1 << uint((i-lo)&63)
		total++
	}
	n, remaining := max(total-skip, 0), 0
	if limit >= 0 && n > limit {
		remaining, n = n-limit, limit
	}
	if n == 0 {
		return dst, remaining
	}
	out, end := slices.Grow(dst, n), len(dst)+n
	depth := pred.depth(root, v)
	for w, word := range hits {
		for ; word != 0 && len(out) < end; word &= word - 1 {
			if skip > 0 {
				skip--
				continue
			}
			e := &t.ents[lo+w<<6+bits.TrailingZeros64(word)]
			out = append(out, Match{ObjectID: e.id, SetKey: e.key, Vertex: uint64(v), Depth: depth})
		}
	}
	return out, remaining
}
