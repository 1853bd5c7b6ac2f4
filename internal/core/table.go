package core

import (
	"math/bits"
	"slices"
	"strings"

	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
)

// table is Tbl_u for one logical vertex: the ⟨keyword set, objects⟩
// entries, one row per set, sorted by set key, each row's object IDs
// sorted too — so the canonical (set key, object ID) order every reader
// promises is the storage order. Beside the rows sits a dense column of
// keyword-set signatures (keyword.Set.Signature) that superset scans
// test before they touch a row.
//
// The slices are mutated in place. A writer must exclude every reader
// (the shard write lock for the authoritative tables; a soft copy is
// only written before it goes live), a reader must exclude writers (the
// shard read lock), and nothing a reader is handed — no row, no id
// slice — may be kept past that lock: scans and walks copy strings
// out. This file is the only code that knows the layout.
type table struct {
	rows []tableRow
	sigs []uint64 // sigs[i] == rows[i].set.Signature()
	ids  int      // object IDs over all rows
	// ringKey is VertexKey of the (instance, vertex) an authoritative
	// table is hosted under, fixed when the table is created: ownership
	// tests and range transfers read it instead of hashing the pair
	// again. Soft copies leave it zero — nothing tests their ownership.
	ringKey dht.ID
}

type tableRow struct {
	key string // the set key as inserted; the sort key
	set keyword.Set
	ids []string // sorted, never empty
}

// find returns the position of setKey's row, or where it would go.
func (t *table) find(setKey string) (int, bool) {
	return slices.BinarySearchFunc(t.rows, setKey, func(r tableRow, key string) int {
		return strings.Compare(r.key, key)
	})
}

// insert adds ⟨setKey, id⟩ (a duplicate is a no-op) and returns the
// entry's keyword set.
func (t *table) insert(setKey, id string) keyword.Set {
	i, ok := t.find(setKey)
	if !ok {
		set := keyword.ParseKey(setKey)
		t.rows = slices.Insert(t.rows, i, tableRow{key: setKey, set: set})
		t.sigs = slices.Insert(t.sigs, i, set.Signature())
	}
	r := &t.rows[i]
	if j, dup := slices.BinarySearch(r.ids, id); !dup {
		r.ids = slices.Insert(r.ids, j, id)
		t.ids++
	}
	return r.set
}

// remove deletes ⟨setKey, id⟩, dropping the row with its last ID, and
// reports whether the entry was present (with its keyword set).
func (t *table) remove(setKey, id string) (keyword.Set, bool) {
	i, ok := t.find(setKey)
	if !ok {
		return keyword.Set{}, false
	}
	r := &t.rows[i]
	j, ok := slices.BinarySearch(r.ids, id)
	if !ok {
		return keyword.Set{}, false
	}
	set := r.set
	t.ids--
	if r.ids = slices.Delete(r.ids, j, j+1); len(r.ids) == 0 {
		t.rows = slices.Delete(t.rows, i, i+1)
		t.sigs = slices.Delete(t.sigs, i, i+1)
	}
	return set, true
}

// entryCount is the number of ⟨keyword set, objects⟩ entries (rows);
// objectCount the number of object IDs over all of them.
func (t *table) entryCount() int  { return len(t.rows) }
func (t *table) objectCount() int { return t.ids }

// walk calls fn for every ⟨setKey, id⟩ in canonical order until fn
// returns false, and reports whether it ran to the end.
func (t *table) walk(fn func(setKey, id string) bool) bool {
	for i := range t.rows {
		r := &t.rows[i]
		for _, id := range r.ids {
			if !fn(r.key, id) {
				return false
			}
		}
	}
	return true
}

// scan collects the entries matching pred in canonical order: the
// window of limit matches (limit < 0: unlimited) after the first skip,
// plus the count of matches beyond the window. v is the table's vertex
// and root the query's; by Lemma 3.2 every match of one vertex sits at
// the same depth, their Hamming distance.
//
// A superset scan reads the signature column first: K ⊆ K' implies
// sig(K) & sig(K') == sig(K), so a row failing the test cannot match
// and its strings are never touched. The test only rejects — every
// survivor still goes through pred.matches — so a signature collision
// costs time, never an answer. Pin queries binary-search their row;
// prefix queries carry want == 0 and consider every row.
func (t *table) scan(v, root hypercube.Vertex, pred queryPred, skip, limit int) ([]Match, int) {
	lo, hi := 0, len(t.rows)
	if pred.class == ClassPin {
		i, ok := t.find(pred.key)
		if !ok {
			return nil, 0
		}
		lo, hi = i, i+1
	}
	// Matching rows are remembered in a bitmap so the predicate runs
	// once per row and the result is allocated once, at its final size.
	// The bitmap lives on the stack for all but outsized tables.
	var small [8]uint64
	hits := small[:]
	if n := hi - lo; n > 64*len(small) {
		hits = make([]uint64, (n+63)/64)
	}
	total := 0
	want := pred.want
	for i := lo; i < hi; i++ {
		if t.sigs[i]&want != want || !pred.matches(t.rows[i].set) {
			continue
		}
		hits[(i-lo)>>6] |= 1 << uint((i-lo)&63)
		total += len(t.rows[i].ids)
	}
	n, remaining := max(total-skip, 0), 0
	if limit >= 0 && n > limit {
		remaining, n = n-limit, limit
	}
	if n == 0 {
		return nil, remaining
	}
	out := make([]Match, 0, n)
	depth := hypercube.Hamming(root, v)
	for w, word := range hits {
		for ; word != 0 && len(out) < n; word &= word - 1 {
			r := &t.rows[lo+w<<6+bits.TrailingZeros64(word)]
			ids := r.ids
			if skip >= len(ids) {
				skip -= len(ids)
				continue
			}
			ids, skip = ids[skip:], 0
			if len(ids) > n-len(out) {
				ids = ids[:n-len(out)]
			}
			for _, id := range ids {
				out = append(out, Match{ObjectID: id, SetKey: r.key, Vertex: uint64(v), Depth: depth})
			}
		}
	}
	return out, remaining
}
