package dht

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/transport"
)

// refModel is the nested-map layout RefStore replaced, kept as the
// reference implementation: object ID → (holder, location) → reference.
type refModel map[string]map[holderRef]Reference

func (m refModel) insert(ref Reference) (first bool) {
	hs, ok := m[ref.ObjectID]
	if !ok {
		hs = make(map[holderRef]Reference)
		m[ref.ObjectID] = hs
	}
	first = len(hs) == 0
	hs[holderRef{ref.Holder, ref.Location}] = ref
	return first
}

func (m refModel) delete(ref Reference) (found bool, remaining int) {
	hs := m[ref.ObjectID]
	key := holderRef{ref.Holder, ref.Location}
	if _, ok := hs[key]; !ok {
		return false, len(hs)
	}
	delete(hs, key)
	if len(hs) == 0 {
		delete(m, ref.ObjectID)
	}
	return true, len(hs)
}

func (m refModel) refs(objectID string) []Reference {
	var out []Reference
	for _, r := range m[objectID] {
		out = append(out, r)
	}
	sortRefs(out)
	return out
}

func (m refModel) extract(move func(string) bool) []Reference {
	var out []Reference
	for id := range m {
		if move(id) {
			out = append(out, m.refs(id)...)
			delete(m, id)
		}
	}
	sortRefs(out)
	return out
}

func sortRefs(refs []Reference) {
	slices.SortFunc(refs, func(a, b Reference) int {
		return cmp.Or(cmp.Compare(a.ObjectID, b.ObjectID),
			cmp.Compare(a.Holder, b.Holder), cmp.Compare(a.Location, b.Location))
	})
}

// checkShape asserts the store's own invariant: every holder slice is
// non-empty and strictly sorted by (Holder, Location).
func checkShape(s *RefStore) error {
	for id, hs := range s.objects {
		if len(hs) == 0 {
			return fmt.Errorf("object %q kept with no holders", id)
		}
		for i := 1; i < len(hs); i++ {
			if compareHolders(hs[i-1], hs[i]) >= 0 {
				return fmt.Errorf("object %q holders out of order: %+v", id, hs)
			}
		}
	}
	return nil
}

// runRefOps decodes ops four bytes at a time — operation, object,
// holder, location — over a small vocabulary so that duplicates,
// misses and multi-holder objects are common, and checks every result
// against the model.
func runRefOps(ops []byte) error {
	var s RefStore
	m := refModel{}
	for len(ops) >= 4 {
		op, a, b, c := ops[0], ops[1], ops[2], ops[3]
		ops = ops[4:]
		ref := Reference{
			ObjectID: "o" + strconv.Itoa(int(a%4)),
			Holder:   transport.Addr("h" + strconv.Itoa(int(b%3))),
			Location: []string{"", "/a"}[c%2],
		}
		switch op % 4 {
		case 0:
			if got, want := s.Insert(ref), m.insert(ref); got != want {
				return fmt.Errorf("Insert(%+v) first = %t, model %t", ref, got, want)
			}
		case 1:
			gf, gr := s.Delete(ref)
			wf, wr := m.delete(ref)
			if gf != wf || gr != wr {
				return fmt.Errorf("Delete(%+v) = %t, %d; model %t, %d", ref, gf, gr, wf, wr)
			}
		case 2:
			if got, want := s.Refs(ref.ObjectID), m.refs(ref.ObjectID); !slices.Equal(got, want) {
				return fmt.Errorf("Refs(%q) = %+v, model %+v", ref.ObjectID, got, want)
			}
		case 3:
			// b's low bits are a mask over the four object IDs.
			move := func(id string) bool { return b>>(id[1]-'0')&1 == 1 }
			got, want := s.Extract(move), m.extract(move)
			sortRefs(got)
			if !slices.Equal(got, want) {
				return fmt.Errorf("Extract(mask %04b) = %+v, model %+v", b&15, got, want)
			}
		}
		if s.Objects() != len(m) {
			return fmt.Errorf("Objects() = %d, model %d", s.Objects(), len(m))
		}
		if err := checkShape(&s); err != nil {
			return err
		}
	}
	return nil
}

// FuzzRefStoreOps runs arbitrary insert/delete/refs/extract sequences
// against the nested-map model: first, found, remaining, Objects() and
// every returned or extracted set must agree, and the store's holder
// slices must stay sorted and non-empty. The corpus under testdata runs
// in every `go test`; a short fuzzing run is wired into `make
// fuzz-smoke`.
func FuzzRefStoreOps(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 0, 1, 0, 2, 0, 1, 3, 1, 2, 1, 0, 0, 1, 1, 0, 2, 2, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 1, 0, 2, 2, 2, 3, 0, 5, 0, 2, 0, 0, 0, 3, 0, 255, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*512 {
			ops = ops[:4*512]
		}
		if err := runRefOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRefStoreBytesPerObject pins what one stored single-publisher
// object costs the heap: the live-heap delta after a GC, over 20 k
// objects whose ID, holder and location strings the caller already
// owns. The nested-map layout this store replaced cost about 780 B.
func TestRefStoreBytesPerObject(t *testing.T) {
	const n, budget = 20000, 128
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "object-" + strconv.Itoa(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var s RefStore
	for _, id := range ids {
		s.Insert(Reference{ObjectID: id, Holder: "10.0.0.1:7000", Location: "/files"})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perObject := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(&s)
	runtime.KeepAlive(ids)
	t.Logf("%.1f B per stored object", perObject)
	if perObject > budget {
		t.Errorf("%.1f B per stored object, budget %d", perObject, budget)
	}
}
