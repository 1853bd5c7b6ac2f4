package core

import (
	"strconv"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
)

// queryPred is a query's class-resolved match predicate: the one thing
// the scan and cache layers need to evaluate any query class against a
// table entry. The traversal machinery above it (roots, branches,
// frontier expansion) decides WHICH vertices to scan; the predicate
// decides what matches there.
type queryPred struct {
	class QueryClass
	// key is the wire QueryKey: the canonical set key for superset and
	// pin queries (keyword.CanonicalKey of what was sent), the
	// normalized prefix string for prefix queries. The predicate reads
	// table keys against it in place.
	key string
	// set is key parsed, for superset and pin queries at the
	// coordinator only (parseQuery): its caches and refinement reason
	// over sets. A frame's predicate leaves it empty.
	set keyword.Set
	// want is key's signature for ClassSuperset and the zero Sig
	// otherwise: the bits a table entry's signature must cover before
	// its key is worth comparing (table.scan). Computed once per query,
	// not per vertex.
	want keyword.Sig
	// mask is the prefix query's dimension mask M, known only to the
	// coordinator: its cache key and its session's branch partition use
	// it; scans don't.
	mask uint64
	// root is the vertex the query was addressed to, also known only to
	// the coordinator: a soft replica drops the answers it cached for a
	// root when the root is announced to it again (dropRoot).
	root hypercube.Vertex
}

// predFor resolves the wire (Class, QueryKey) pair into a predicate
// without allocating when the key is canonical, as every peer sends it.
func predFor(class QueryClass, queryKey string) queryPred {
	if class == ClassPrefix {
		return queryPred{class: class, key: queryKey}
	}
	p := queryPred{class: class, key: keyword.CanonicalKey(queryKey)}
	if class != ClassPin {
		p.want = keyword.KeySignature(p.key)
	}
	return p
}

// matches applies the class predicate to an entry's canonical set key,
// read in place. It is also the caches' invalidation test: a mutation
// of an entry can alter exactly the answers whose predicate matches the
// entry's key (conservatively for prefixes, whose dimension mask is
// ignored here).
func (p *queryPred) matches(setKey string) bool {
	switch p.class {
	case ClassPin:
		return setKey == p.key
	case ClassPrefix:
		return keyword.KeyHasPrefix(setKey, p.key)
	default:
		return keyword.KeySubset(p.key, setKey)
	}
}

// depth is v's level in the SBT branch of the traversal rooted at root
// that holds it, which its matches carry as Match.Depth (Lemma 3.2): the
// Hamming distance from root, or for a prefix multicast from v's branch
// root e_{lowbit(v ∧ M)}, which is popcount(v) − 1 whatever the mask.
func (p queryPred) depth(root, v hypercube.Vertex) int {
	if p.class == ClassPrefix {
		return v.OnesCount() - 1
	}
	return hypercube.Hamming(root, v)
}

// cacheKey returns the result-cache key. Superset entries keep the
// bare legacy key so existing cache contents and stats semantics are
// untouched; other classes are tagged with the class and (for prefix)
// the dimension mask, so a prefix query and a superset query over the
// same keywords can never collide. '\x02' cannot appear in normalized
// keywords or prefixes, making the tagged encodings unambiguous.
func (p queryPred) cacheKey(instance string) string {
	switch p.class {
	case ClassPrefix:
		return cacheKey(instance, "\x02prefix\x02"+p.key+"\x02"+strconv.FormatUint(p.mask, 16))
	case ClassPin:
		return cacheKey(instance, "\x02pin\x02"+p.key)
	default:
		return cacheKey(instance, p.key)
	}
}
