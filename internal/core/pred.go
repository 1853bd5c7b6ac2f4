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
	// key is the wire QueryKey: the set key for superset queries (as
	// sent), its canonical spelling for pin queries, the normalized
	// prefix string for prefix queries.
	key string
	// set is the parsed keyword set for superset and pin classes
	// (empty for prefix).
	set keyword.Set
	// want is set's signature for ClassSuperset and the zero Sig
	// otherwise: the bits a table entry's signature must cover before
	// its key is worth comparing (table.scan). Computed once per query,
	// not per vertex.
	want keyword.Sig
	// prefix is the normalized prefix for ClassPrefix (empty
	// otherwise).
	prefix string
	// mask is the prefix query's dimension mask M, known only to the
	// coordinator: its cache key and its session's branch partition use
	// it; scans don't.
	mask uint64
	// root is the vertex the query was addressed to, also known only to
	// the coordinator: a soft replica drops the answers it cached for a
	// root when the root is announced to it again (dropRoot).
	root hypercube.Vertex
}

// predFor resolves the wire (Class, QueryKey) pair into a predicate.
func predFor(class QueryClass, queryKey string) queryPred {
	p := queryPred{class: class, key: queryKey}
	switch class {
	case ClassPrefix:
		p.prefix = queryKey
	case ClassPin:
		p.set = keyword.ParseKey(queryKey)
		p.key = keyword.CanonicalKey(queryKey)
	default:
		p.set = keyword.ParseKey(queryKey)
		p.want = p.set.Signature()
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
		return keyword.KeyHasPrefix(setKey, p.prefix)
	default:
		return p.set.SubsetOfKey(setKey)
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
		return cacheKey(instance, "\x02prefix\x02"+p.prefix+"\x02"+strconv.FormatUint(p.mask, 16))
	case ClassPin:
		return cacheKey(instance, "\x02pin\x02"+p.key)
	default:
		return cacheKey(instance, p.key)
	}
}
