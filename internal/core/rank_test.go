package core

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"github.com/p2pkeyword/keysearch/internal/keyword"
)

func mkMatch(id string, depth int, words ...string) Match {
	return Match{ObjectID: id, SetKey: keyword.NewSet(words...).Key(), Depth: depth}
}

func TestGroupByDepth(t *testing.T) {
	ms := []Match{
		mkMatch("a", 0, "x"),
		mkMatch("b", 1, "x", "y"),
		mkMatch("c", 1, "x", "z"),
		mkMatch("d", 2, "x", "y", "z"),
	}
	groups := GroupByDepth(ms)
	if len(groups[0]) != 1 || len(groups[1]) != 2 || len(groups[2]) != 1 {
		t.Errorf("groups = %v", groups)
	}
}

func TestCategorize(t *testing.T) {
	q := keyword.NewSet("x")
	ms := []Match{
		mkMatch("exact", 0, "x"),
		mkMatch("b1", 1, "x", "y"),
		mkMatch("b2", 1, "x", "y"),
		mkMatch("c", 1, "x", "z"),
		mkMatch("d", 2, "x", "y", "z"),
	}
	cats := Categorize(q, ms)
	if len(cats) != 4 {
		t.Fatalf("categories = %d, want 4", len(cats))
	}
	// Ordered by extra-set size then lexicographically:
	// {}, {y}, {z}, {y,z}.
	if cats[0].Extra != "" || len(cats[0].Matches) != 1 {
		t.Errorf("cat0 = %+v", cats[0])
	}
	if got := cats[1].ExtraKeywords().Words(); len(got) != 1 || got[0] != "y" {
		t.Errorf("cat1 extra = %v", got)
	}
	if len(cats[1].Matches) != 2 {
		t.Errorf("cat1 size = %d", len(cats[1].Matches))
	}
	if got := cats[3].ExtraKeywords().Words(); len(got) != 2 {
		t.Errorf("cat3 extra = %v", got)
	}
}

func TestSample(t *testing.T) {
	q := keyword.NewSet("x")
	ms := []Match{
		mkMatch("b1", 1, "x", "y"),
		mkMatch("b2", 1, "x", "y"),
		mkMatch("b3", 1, "x", "y"),
	}
	s := Sample(q, ms, 2)
	if len(s) != 1 || len(s[0].Matches) != 2 {
		t.Errorf("Sample = %+v", s)
	}
	s = Sample(q, ms, 0) // clamps to 1
	if len(s[0].Matches) != 1 {
		t.Errorf("Sample perCategory 0 = %d matches", len(s[0].Matches))
	}
}

func TestSortGeneralAndSpecificFirst(t *testing.T) {
	ms := []Match{
		mkMatch("deep", 2, "x", "y", "z"),
		mkMatch("shallow", 0, "x"),
		mkMatch("mid", 1, "x", "y"),
	}
	SortGeneralFirst(ms)
	if ms[0].ObjectID != "shallow" || ms[2].ObjectID != "deep" {
		t.Errorf("general-first order: %v %v %v", ms[0].ObjectID, ms[1].ObjectID, ms[2].ObjectID)
	}
	SortSpecificFirst(ms)
	if ms[0].ObjectID != "deep" || ms[2].ObjectID != "shallow" {
		t.Errorf("specific-first order: %v %v %v", ms[0].ObjectID, ms[1].ObjectID, ms[2].ObjectID)
	}
}

// TestSortMatchesAllocatesNothing: the rank helpers count a match's
// keywords in place, so ordering a 64-match answer allocates nothing,
// and the order — ties included — is the one parsing every key gives.
func TestSortMatchesAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ms := make([]Match, 64)
	for i := range ms {
		words := []string{"q"}
		for j := rng.Intn(4); j > 0; j-- {
			words = append(words, "w"+strconv.Itoa(rng.Intn(9)))
		}
		ms[i] = mkMatch("o"+strconv.Itoa(rng.Intn(24)), rng.Intn(3), words...)
	}
	byParse := func(specific bool) func(a, b Match) bool {
		return func(a, b Match) bool {
			la, lb := a.Keywords().Len(), b.Keywords().Len()
			if specific {
				a.Depth, b.Depth, la, lb = b.Depth, a.Depth, lb, la
			}
			if a.Depth != b.Depth {
				return a.Depth < b.Depth
			}
			if la != lb {
				return la < lb
			}
			return a.ObjectID < b.ObjectID
		}
	}
	for _, tc := range []struct {
		name     string
		sort     func([]Match)
		specific bool
	}{{"SortGeneralFirst", SortGeneralFirst, false}, {"SortSpecificFirst", SortSpecificFirst, true}} {
		got, want := slices.Clone(ms), slices.Clone(ms)
		tc.sort(got)
		less := byParse(tc.specific)
		sort.Slice(want, func(i, j int) bool { return less(want[i], want[j]) })
		if !slices.Equal(got, want) {
			t.Errorf("%s order differs from the parsed-key order", tc.name)
		}
		if allocs := testing.AllocsPerRun(100, func() { copy(got, ms); tc.sort(got) }); allocs != 0 {
			t.Errorf("%s allocates %.0f times on a 64-match answer, want 0", tc.name, allocs)
		}
	}
}
