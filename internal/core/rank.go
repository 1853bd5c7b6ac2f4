package core

import (
	"cmp"
	"slices"
	"strings"

	"github.com/p2pkeyword/keysearch/internal/keyword"
)

// Ranking helpers exploiting Lemma 3.2: search results arrive tagged
// with the depth of the indexing node, i.e. a lower bound on the
// number of extra keywords beyond the query. Within a depth, matches
// can further be grouped by the exact extra keyword set, enabling the
// category sampling sketched in the paper's introduction (objects with
// extra keyword σ1, extra keyword σ2, extra keywords {σ1, σ2}, …).

// GroupByDepth buckets matches by indexing-node depth, ascending.
// Depth d groups hold objects with at least d keywords beyond the
// query.
func GroupByDepth(matches []Match) map[int][]Match {
	groups := make(map[int][]Match)
	for _, m := range matches {
		groups[m.Depth] = append(groups[m.Depth], m)
	}
	return groups
}

// Category identifies a refinement class: the exact set of keywords a
// group of matches has beyond the query.
type Category struct {
	// Extra is the canonical encoding of the extra keyword set
	// (keyword.Set.Key); empty for exact matches.
	Extra string
	// Matches holds the category's objects.
	Matches []Match
}

// ExtraKeywords decodes the category's extra keyword set.
func (c Category) ExtraKeywords() keyword.Set { return keyword.ParseKey(c.Extra) }

// Categorize groups matches by their exact extra keyword set relative
// to the query, ordered by (extra-set size, then lexicographically).
// Upper layers use this to present refinement choices to users.
func Categorize(query keyword.Set, matches []Match) []Category {
	byExtra := make(map[string][]Match)
	for _, m := range matches {
		extra := m.Keywords().Diff(query).Key()
		byExtra[extra] = append(byExtra[extra], m)
	}
	cats := make([]Category, 0, len(byExtra))
	for extra, ms := range byExtra {
		cats = append(cats, Category{Extra: extra, Matches: ms})
	}
	slices.SortFunc(cats, func(a, b Category) int {
		return cmp.Or(cmp.Compare(keyword.KeyLen(a.Extra), keyword.KeyLen(b.Extra)), strings.Compare(a.Extra, b.Extra))
	})
	return cats
}

// Sample returns up to perCategory matches from each category: the
// paper's refinement aid, giving users one example object per extra
// keyword combination together with the keywords that would narrow
// the query to it.
func Sample(query keyword.Set, matches []Match, perCategory int) []Category {
	if perCategory <= 0 {
		perCategory = 1
	}
	cats := Categorize(query, matches)
	out := make([]Category, len(cats))
	for i, c := range cats {
		n := perCategory
		if n > len(c.Matches) {
			n = len(c.Matches)
		}
		out[i] = Category{Extra: c.Extra, Matches: c.Matches[:n]}
	}
	return out
}

// SortGeneralFirst orders matches by ascending depth (fewest extra
// keywords first), breaking ties by keyword-set size, then object ID.
// TopDown traversal already yields this order; the helper re-imposes
// it after merging pages or categories. Set sizes are counted in place
// (keyword.KeyLen): sorting allocates nothing.
func SortGeneralFirst(matches []Match) {
	slices.SortFunc(matches, func(a, b Match) int {
		return cmp.Or(cmp.Compare(a.Depth, b.Depth), cmp.Compare(keyword.KeyLen(a.SetKey), keyword.KeyLen(b.SetKey)),
			strings.Compare(a.ObjectID, b.ObjectID))
	})
}

// SortSpecificFirst orders matches by descending depth (most extra
// keywords first).
func SortSpecificFirst(matches []Match) {
	slices.SortFunc(matches, func(a, b Match) int {
		return cmp.Or(cmp.Compare(b.Depth, a.Depth), cmp.Compare(keyword.KeyLen(b.SetKey), keyword.KeyLen(a.SetKey)),
			strings.Compare(a.ObjectID, b.ObjectID))
	})
}
