// Package keyword implements keyword sets and the hash mappings of the
// hypercube index scheme: the uniform dimension hash h : W → {0..r-1}
// and the node mapping F_h : 2^W → V of Section 3.3.
package keyword

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
)

// ErrEmptySet is returned when an operation requires a non-empty
// keyword set.
var ErrEmptySet = errors.New("keyword: empty keyword set")

// Normalize canonicalizes a raw keyword: ASCII control characters
// removed, then trimmed and lower-cased — in that order, so that
// Normalize(Normalize(w)) == Normalize(w) (a control character between
// a space and the end of the word must not shield the space from the
// trim). Objects and queries must agree on keyword spelling for the
// deterministic mapping to work, so both go through Normalize.
func Normalize(raw string) string {
	if strings.IndexFunc(raw, isControl) >= 0 {
		raw = strings.Map(func(r rune) rune {
			if isControl(r) {
				return -1
			}
			return r
		}, raw)
	}
	return strings.ToLower(strings.TrimSpace(raw))
}

func isControl(r rune) bool { return r < 0x20 || r == 0x7f }

// Set is an immutable, deduplicated, sorted keyword set K ⊆ W.
// The zero value is the empty set.
type Set struct {
	words []string
}

// NewSet builds a Set from raw keywords, normalizing and deduplicating.
// Empty keywords (after normalization) are dropped.
func NewSet(raw ...string) Set {
	words := make([]string, 0, len(raw))
	seen := make(map[string]bool, len(raw))
	for _, r := range raw {
		w := Normalize(r)
		if w == "" || seen[w] {
			continue
		}
		seen[w] = true
		words = append(words, w)
	}
	sort.Strings(words)
	return Set{words: words}
}

// Words returns the keywords in sorted order. The result is a copy.
func (s Set) Words() []string {
	out := make([]string, len(s.words))
	copy(out, s.words)
	return out
}

// Len returns |K|.
func (s Set) Len() int { return len(s.words) }

// IsEmpty reports whether the set has no keywords.
func (s Set) IsEmpty() bool { return len(s.words) == 0 }

// Has reports whether the set contains word (already-normalized form).
func (s Set) Has(word string) bool {
	i := sort.SearchStrings(s.words, word)
	return i < len(s.words) && s.words[i] == word
}

// HasPrefix reports whether any keyword of the set starts with prefix
// (already-normalized form). The sorted word list makes this a binary
// search: the first word ≥ prefix is the only candidate.
func (s Set) HasPrefix(prefix string) bool {
	i := sort.SearchStrings(s.words, prefix)
	return i < len(s.words) && strings.HasPrefix(s.words[i], prefix)
}

// SubsetOf reports whether s ⊆ other (the paper's "other can be
// described by s" relation when other is an object's keyword set).
func (s Set) SubsetOf(other Set) bool {
	if s.Len() > other.Len() {
		return false
	}
	i, j := 0, 0
	for i < len(s.words) && j < len(other.words) {
		switch {
		case s.words[i] == other.words[j]:
			i++
			j++
		case s.words[i] > other.words[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s.words)
}

// KeySubset is ParseKey(sub).SubsetOf(ParseKey(key)) for canonical
// keys, read in place: each word of sub must occur in key as a whole
// word.
func KeySubset(sub, key string) bool {
	for more := sub != ""; more; {
		var w string
		w, sub, more = strings.Cut(sub, "\x1f")
		if !findWord(key, w, true) {
			return false
		}
	}
	return true
}

// KeyLen is ParseKey(key).Len() for a canonical key, counted in place.
func KeyLen(key string) int {
	if key == "" {
		return 0
	}
	return strings.Count(key, "\x1f") + 1
}

// findWord reports whether some word of key starts with w (whole: is
// w). It searches the key for w as a substring — one vectorized scan,
// where cutting the key word by word costs a call per word — and
// accepts an occurrence only at a word boundary.
func findWord(key, w string, whole bool) bool {
	for off := 0; off <= len(key); {
		i := strings.Index(key[off:], w)
		if i < 0 {
			return false
		}
		i += off
		end := i + len(w)
		if (i == 0 || key[i-1] == '\x1f') && (!whole || end == len(key) || key[end] == '\x1f') {
			return true
		}
		off = i + 1
	}
	return false
}

// Equal reports whether the two sets hold exactly the same keywords.
func (s Set) Equal(other Set) bool {
	if len(s.words) != len(other.words) {
		return false
	}
	for i := range s.words {
		if s.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ other.
func (s Set) Union(other Set) Set {
	return NewSet(append(s.Words(), other.words...)...)
}

// Diff returns the keywords of s not present in other.
func (s Set) Diff(other Set) Set {
	out := make([]string, 0, len(s.words))
	for _, w := range s.words {
		if !other.Has(w) {
			out = append(out, w)
		}
	}
	return Set{words: out}
}

// Key returns a canonical string encoding of the set, usable as a map
// key and as the wire representation of keyword_set in index entries.
// Keywords are joined with '\x1f' (unit separator), which Normalize
// strips from keywords, so the encoding is unambiguous; ParseKey is the
// inverse.
func (s Set) Key() string {
	return strings.Join(s.words, "\x1f")
}

// ParseKey reconstructs a Set from Key's encoding. A canonical key —
// normalized words in strictly ascending order, as Key writes them —
// becomes the Set's word slice as cut; any other key (a remote peer's,
// say) goes through NewSet, so the result is always NewSet of the key's
// words.
func ParseKey(key string) Set {
	if key == "" {
		return Set{}
	}
	words := strings.Split(key, "\x1f")
	if CanonicalKey(key) != key {
		return NewSet(words...)
	}
	return Set{words: words}
}

// CanonicalKey returns ParseKey(key).Key(): key itself, checked in one
// pass without allocating, when it is already canonical.
func CanonicalKey(key string) string {
	for w, rest, more, prev := "", key, key != "", ""; more; prev = w {
		w, rest, more = strings.Cut(rest, "\x1f")
		if w <= prev || Normalize(w) != w {
			return NewSet(strings.Split(key, "\x1f")...).Key()
		}
	}
	return key
}

// KeyHasPrefix is ParseKey(key).HasPrefix(prefix) for a canonical key,
// read in place. A prefix holding the separator spans words and matches
// none.
func KeyHasPrefix(key, prefix string) bool {
	return key != "" && !strings.Contains(prefix, "\x1f") && findWord(key, prefix, false)
}

// signatureBits is the number of bits each keyword sets in a Sig.
// More bits reject more non-supersets per query keyword but fill the
// signature faster per object keyword: over the deep_inmem corpus, 4 in
// 128 let 0.75 % of the scanned entries through, 3 in 128 0.91 % and 2
// in 64 4.30 % (TestSignatureSurvivorRate; DESIGN, "Signature
// pre-filter").
const signatureBits = 4

// Sig is a keyword set's 128-bit signature: every keyword sets
// signatureBits bits chosen by a hash of the keyword alone, and the
// set's signature is their OR. It is a second, node-local F_h — the
// same containment argument as Lemma 3.1 applies:
//
//	K ⊆ K'  ⇒  sig(K').Covers(sig(K))
//
// so a table can reject "K' does not contain K" from two words without
// comparing a string, and can never reject a true superset. The hash
// takes no seed: signatures are derived beside table rows and must
// mean the same thing to every query.
type Sig [2]uint64

// Covers reports whether every bit of q is set in s: false proves that
// s's set does not contain q's.
func (s Sig) Covers(q Sig) bool {
	return s[0]&q[0] == q[0] && s[1]&q[1] == q[1]
}

// Signature returns the set's Sig.
func (s Set) Signature() Sig {
	var sig Sig
	for _, w := range s.words {
		k := KeySignature(w)
		sig[0] |= k[0]
		sig[1] |= k[1]
	}
	return sig
}

// KeySignature is ParseKey(key).Signature() for a canonical key, read
// in place (a single keyword is a one-word key).
func KeySignature(key string) Sig {
	var sig Sig
	for key != "" {
		w, rest, _ := strings.Cut(key, "\x1f")
		key = rest
		// FNV-1a, then a splitmix-style finalizer: FNV's low bits alone
		// are weak for short keywords, and the bit positions below are
		// cut from them.
		h := uint64(14695981039346656037)
		for i := 0; i < len(w); i++ {
			h ^= uint64(w[i])
			h *= 1099511628211
		}
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		for b := 0; b < signatureBits; b++ {
			sig[h>>6&1] |= 1 << (h & 63)
			h >>= 7
		}
	}
	return sig
}

// String renders the set as {a, b, c} for logs and errors.
func (s Set) String() string {
	return "{" + strings.Join(s.words, ", ") + "}"
}

// Hasher maps keywords to hypercube dimensions and keyword sets to
// hypercube vertices. It implements h and F_h of Section 3.3 for a
// fixed dimensionality r and seed. The same (r, seed) pair must be
// shared by every node of a deployment.
type Hasher struct {
	r    int
	seed uint64
}

// NewHasher returns a Hasher for an r-dimensional hypercube. The seed
// perturbs h so that decomposed indexes (or unlucky vocabularies) can
// use independent hash functions.
func NewHasher(r int, seed uint64) (Hasher, error) {
	if r < 1 || r > hypercube.MaxDim {
		return Hasher{}, fmt.Errorf("keyword: dimension %d outside [1, %d]", r, hypercube.MaxDim)
	}
	return Hasher{r: r, seed: seed}, nil
}

// MustNewHasher is NewHasher for statically-known parameters.
func MustNewHasher(r int, seed uint64) Hasher {
	h, err := NewHasher(r, seed)
	if err != nil {
		panic(err)
	}
	return h
}

// Dim returns the hypercube dimensionality r.
func (h Hasher) Dim() int { return h.r }

// Seed returns the hash seed.
func (h Hasher) Seed() uint64 { return h.seed }

// Hash implements h(w): a uniform map from a keyword to a dimension in
// {0, …, r-1}. It uses 64-bit FNV-1a over the seed and the normalized
// keyword.
func (h Hasher) Hash(word string) int {
	f := fnv.New64a()
	var seedBuf [8]byte
	binary.LittleEndian.PutUint64(seedBuf[:], h.seed)
	f.Write(seedBuf[:])   //nolint:errcheck // fnv never fails
	f.Write([]byte(word)) //nolint:errcheck
	return int(f.Sum64() % uint64(h.r))
}

// Vertex implements F_h(K): the hypercube vertex whose one-bits are the
// hashed dimensions of K's keywords. The empty set maps to vertex 0.
func (h Hasher) Vertex(k Set) hypercube.Vertex {
	var v hypercube.Vertex
	for _, w := range k.words {
		v |= hypercube.Vertex(1) << uint(h.Hash(w))
	}
	return v
}

// Dimensions returns the distinct dimensions {h(w) : w ∈ K} in
// ascending order; |Dimensions| = |One(F_h(K))|.
func (h Hasher) Dimensions(k Set) []int {
	return h.Vertex(k).One(h.r)
}

// PrefixMask returns the dimension bitmask a prefix query must cover
// given a vocabulary: the OR of 1<<h(w) over every vocabulary word
// that starts with the prefix. With no matching words (or an empty
// vocabulary) it returns 0, which query layers treat as "all
// dimensions" — h is not invertible, so without vocabulary knowledge
// every dimension may host a matching keyword.
func (h Hasher) PrefixMask(vocab []string, prefix string) uint64 {
	var mask uint64
	p := Normalize(prefix)
	if p == "" {
		return 0
	}
	for _, raw := range vocab {
		w := Normalize(raw)
		if strings.HasPrefix(w, p) {
			mask |= 1 << uint(h.Hash(w))
		}
	}
	return mask
}
