package keyword_test

import (
	"testing"

	"github.com/p2pkeyword/keysearch/internal/corpus"
	"github.com/p2pkeyword/keysearch/internal/keyword"
)

// TestPropertyKeyMatchAgreesWithParseKey: over every key of a
// paper-calibrated corpus (2 000 objects, seed 1) and every template of
// its query log, the in-place readers of a canonical key answer what
// the parsed set answers — KeySubset as SubsetOf, KeyHasPrefix as
// HasPrefix (for prefixes cut from the template's words), KeySignature
// as Signature, KeyLen as Len — and CanonicalKey hands the key back unchanged.
func TestPropertyKeyMatchAgreesWithParseKey(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Objects: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	log, err := corpus.GenerateQueryLog(c, corpus.QueryLogConfig{Templates: 200, Queries: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var prefixes []string
	for _, q := range log.Templates() {
		for _, w := range q.Words() {
			prefixes = append(prefixes, w[:1], w[:min(3, len(w))], w, w+"z")
		}
	}
	subsets := 0
	for _, r := range c.Records() {
		key := r.Keywords.Key()
		set := keyword.ParseKey(key)
		if got := keyword.CanonicalKey(key); got != key {
			t.Fatalf("CanonicalKey(%q) = %q, want the key itself", key, got)
		}
		if got, want := keyword.KeySignature(key), set.Signature(); got != want {
			t.Fatalf("KeySignature(%q) = %#x, want %#x", key, got, want)
		}
		if got, want := keyword.KeyLen(key), set.Len(); got != want {
			t.Fatalf("KeyLen(%q) = %d, want %d", key, got, want)
		}
		for _, q := range log.Templates() {
			got, want := keyword.KeySubset(q.Key(), key), q.SubsetOf(set)
			if got != want {
				t.Fatalf("KeySubset(%q, %q) = %v, want %v", q.Key(), key, got, want)
			}
			if got {
				subsets++
			}
		}
		for _, p := range prefixes {
			if got, want := keyword.KeyHasPrefix(key, p), set.HasPrefix(p); got != want {
				t.Fatalf("KeyHasPrefix(%q, %q) = %v, want %v", key, p, got, want)
			}
		}
	}
	if subsets == 0 {
		t.Fatal("no template matched any key: the property was never exercised on a true superset")
	}
}
