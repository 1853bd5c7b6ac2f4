package main

import (
	"fmt"
	"sort"
	"strings"

	keysearch "github.com/p2pkeyword/keysearch"
)

// oracle is the brute-force reference index: a flat slice of the
// corpus, filtered by predicate, IDs returned in sorted order. It shares
// no code with the index under test.
type oracle struct {
	records []record
}

func (o oracle) filter(pred func(words []string) bool) []string {
	var ids []string
	for i := range o.records {
		if pred(o.records[i].words) {
			ids = append(ids, o.records[i].id)
		}
	}
	sort.Strings(ids)
	return ids
}

// superset returns the objects whose keyword set contains every word of
// q (both sorted).
func (o oracle) superset(q []string) []string {
	return o.filter(func(words []string) bool { return containsAll(words, q) })
}

// pin returns the objects whose keyword set is exactly q.
func (o oracle) pin(q []string) []string {
	return o.filter(func(words []string) bool {
		return len(words) == len(q) && containsAll(words, q)
	})
}

// prefix returns the objects with at least one keyword starting with p.
func (o oracle) prefix(p string) []string {
	return o.filter(func(words []string) bool {
		for _, w := range words {
			if strings.HasPrefix(w, p) {
				return true
			}
		}
		return false
	})
}

func containsAll(words, q []string) bool {
	i := 0
	for _, w := range words {
		if i == len(q) {
			break
		}
		if w == q[i] {
			i++
		} else if w > q[i] {
			return false
		}
	}
	return i == len(q)
}

// answer is an oracle answer prepared for checking results.
type answer struct {
	ids map[string]struct{}
}

func newAnswer(ids []string) answer {
	a := answer{ids: make(map[string]struct{}, len(ids))}
	for _, id := range ids {
		a.ids[id] = struct{}{}
	}
	return a
}

func (a answer) size() int { return len(a.ids) }

// checker verifies answers for one caller; its scratch map makes the
// duplicate check allocation-free.
type checker struct {
	seen map[string]uint32
	seq  uint32
}

func newChecker() *checker { return &checker{seen: make(map[string]uint32)} }

// subset reports an error unless ids are distinct members of want.
func (c *checker) subset(ids func(i int) string, n int, want answer) error {
	c.seq++
	for i := 0; i < n; i++ {
		id := ids(i)
		if _, ok := want.ids[id]; !ok {
			return fmt.Errorf("object %q is not in the oracle's answer", id)
		}
		if c.seen[id] == c.seq {
			return fmt.Errorf("object %q returned twice", id)
		}
		c.seen[id] = c.seq
	}
	return nil
}

// checkResult verifies a superset or prefix Result against the oracle.
// Every match must be in the oracle's answer (sound). With slack 0 the
// count must be exact: the whole answer under threshold All, otherwise
// min(threshold, |oracle|) when the result is complete. slack is the
// number of corpus records that may be unpublished at the moment (the
// mixed workload), which may each shorten the answer by one.
func (c *checker) checkResult(res keysearch.Result, want answer, threshold, slack int) error {
	n := len(res.Matches)
	if err := c.subset(func(i int) string { return res.Matches[i].ObjectID }, n, want); err != nil {
		return err
	}
	if res.Completeness != 1 {
		return fmt.Errorf("completeness %v, want 1", res.Completeness)
	}
	full := want.size()
	if threshold < full {
		full = threshold
	}
	least := want.size() - slack
	if threshold < least {
		least = threshold
	}
	if n > full || n < least {
		return fmt.Errorf("%d matches, want %d (threshold %d, oracle %d, slack %d)", n, full, threshold, want.size(), slack)
	}
	return nil
}

// checkPin verifies a PinSearch answer: equal to the oracle's with
// slack 0, a subset of it otherwise.
func (c *checker) checkPin(ids []string, want answer, slack int) error {
	if err := c.subset(func(i int) string { return ids[i] }, len(ids), want); err != nil {
		return err
	}
	if len(ids) < want.size()-slack {
		return fmt.Errorf("%d pin ids, want %d (slack %d)", len(ids), want.size(), slack)
	}
	return nil
}
