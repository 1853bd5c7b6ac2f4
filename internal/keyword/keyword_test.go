package keyword

import (
	"math/bits"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/p2pkeyword/keysearch/internal/hypercube"
)

func TestNormalize(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"  MP3 ", "mp3"},
		{"News", "news"},
		{"", ""},
		{"a\x1fb", "ab"},
		{"TVBS\n", "tvbs"},
		{"0 \x00", "0"},
		{"\x01 Ab\x7f", "ab"},
	}
	for _, tt := range tests {
		if got := Normalize(tt.in); got != tt.want {
			t.Errorf("Normalize(%q) = %q, want %q", tt.in, got, tt.want)
		}
		if got := Normalize(tt.want); got != tt.want {
			t.Errorf("Normalize(%q) = %q: not idempotent", tt.want, got)
		}
	}
}

func TestNewSetDedupAndSort(t *testing.T) {
	s := NewSet("news", "ISP", "isp", "  Network ", "", "download")
	want := []string{"download", "isp", "network", "news"}
	if got := s.Words(); !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
}

func TestSetHas(t *testing.T) {
	s := NewSet("isp", "news")
	if !s.Has("isp") || !s.Has("news") || s.Has("mp3") {
		t.Error("Has membership wrong")
	}
	var empty Set
	if empty.Has("isp") {
		t.Error("empty set Has = true")
	}
}

func TestSubsetOf(t *testing.T) {
	tests := []struct {
		a, b []string
		want bool
	}{
		{nil, nil, true},
		{nil, []string{"a"}, true},
		{[]string{"a"}, nil, false},
		{[]string{"a"}, []string{"a", "b"}, true},
		{[]string{"a", "c"}, []string{"a", "b", "c"}, true},
		{[]string{"a", "d"}, []string{"a", "b", "c"}, false},
		{[]string{"a", "b"}, []string{"a", "b"}, true},
	}
	for _, tt := range tests {
		a, b := NewSet(tt.a...), NewSet(tt.b...)
		if got := a.SubsetOf(b); got != tt.want {
			t.Errorf("%v ⊆ %v = %v, want %v", a, b, got, tt.want)
		}
	}
}

func TestEqualUnionDiff(t *testing.T) {
	a := NewSet("isp", "news")
	b := NewSet("news", "isp")
	if !a.Equal(b) {
		t.Error("Equal failed on same sets")
	}
	c := NewSet("news", "mp3")
	if a.Equal(c) {
		t.Error("Equal true on different sets")
	}
	u := a.Union(c)
	if got := u.Words(); !reflect.DeepEqual(got, []string{"isp", "mp3", "news"}) {
		t.Errorf("Union = %v", got)
	}
	d := a.Diff(c)
	if got := d.Words(); !reflect.DeepEqual(got, []string{"isp"}) {
		t.Errorf("Diff = %v", got)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	sets := []Set{
		{},
		NewSet("isp"),
		NewSet("isp", "telecommunication", "network", "download"),
	}
	for _, s := range sets {
		got := ParseKey(s.Key())
		if !got.Equal(s) {
			t.Errorf("ParseKey(Key(%v)) = %v", s, got)
		}
	}
}

// FuzzParseKey checks ParseKey against its definition: for any input,
// canonical or not, ParseKey(k) is NewSet over k's \x1f-separated
// words. CanonicalKey(k) is that set's Key, and on it the in-place
// readers (KeySubset, KeyHasPrefix, KeySignature, KeyLen) answer what the
// parsed set does. The seeds are keys Key never writes — unsorted,
// duplicated, upper-case, padded, with empty words — beside canonical
// ones, so both the one-pass check and the NewSet fallback are reached.
// A short run is wired into `make fuzz-smoke`.
func FuzzParseKey(f *testing.F) {
	for _, k := range []string{
		"", "isp", "download\x1fisp\x1fnetwork", // canonical
		"b\x1fa", "a\x1fa", "a\x1fb\x1fa", "A\x1fb", "a\x1fB", " a\x1fb",
		"\x1f", "\x1fa", "a\x1f", "a\x1f\x1fb", "a\x1f \x1fb", "x\x00y\x1fz", "\xff\x1fa",
		"0\x1f0 \x00", // a control character shielding a space from the trim
	} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, k string) {
		got, want := ParseKey(k), NewSet(strings.Split(k, "\x1f")...)
		if !got.Equal(want) || got.Key() != want.Key() {
			t.Fatalf("ParseKey(%q) = %v (key %q), want %v (key %q)", k, got, got.Key(), want, want.Key())
		}
		ck := CanonicalKey(k)
		if ck != want.Key() || CanonicalKey(ck) != ck {
			t.Fatalf("CanonicalKey(%q) = %q, want %q, a fixed point", k, ck, want.Key())
		}
		if KeySignature(ck) != want.Signature() {
			t.Fatalf("KeySignature(%q) = %#x, want %#x", ck, KeySignature(ck), want.Signature())
		}
		if KeyLen(ck) != want.Len() {
			t.Fatalf("KeyLen(%q) = %d, want %d", ck, KeyLen(ck), want.Len())
		}
		// Probe with every other keyword, alone and with one from outside
		// the set, and with the words' prefixes and the input itself.
		var half []string
		for i, w := range want.words {
			if i%2 == 0 {
				half = append(half, w)
			}
			for _, p := range []string{w[:len(w)/2], w, w + "\x00"} {
				if KeyHasPrefix(ck, p) != want.HasPrefix(p) {
					t.Fatalf("KeyHasPrefix(%q, %q) = %v, want %v", ck, p, !want.HasPrefix(p), want.HasPrefix(p))
				}
			}
		}
		for _, q := range []Set{NewSet(half...), NewSet(append(half, k)...), NewSet(k)} {
			if KeySubset(q.Key(), ck) != q.SubsetOf(want) {
				t.Fatalf("KeySubset(%q, %q) = %v, want %v", q.Key(), ck, !q.SubsetOf(want), q.SubsetOf(want))
			}
		}
		if KeyHasPrefix(ck, k) != want.HasPrefix(k) {
			t.Fatalf("KeyHasPrefix(%q, %q) = %v, want %v", ck, k, !want.HasPrefix(k), want.HasPrefix(k))
		}
	})
}

// TestKeyMatchAllocatesNothing: the in-place readers a table scan and a
// table insert call per entry allocate nothing on a canonical key —
// non-ASCII keywords included, whose normalization check takes the
// slow path of strings.ToLower.
func TestKeyMatchAllocatesNothing(t *testing.T) {
	key := NewSet("alpha", "beta", "délta", "gamma", "ωmega").Key()
	q := NewSet("beta", "gamma").Key()
	for name, f := range map[string]func(){
		"KeySubset":    func() { _ = KeySubset(q, key) },
		"KeyLen":       func() { _ = KeyLen(key) },
		"KeyHasPrefix": func() { _ = KeyHasPrefix(key, "om") },
		"KeySignature": func() { _ = KeySignature(key) },
		"CanonicalKey": func() { _ = CanonicalKey(key) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.1f times on a canonical key, want 0", name, allocs)
		}
	}
}

func TestNewHasherValidation(t *testing.T) {
	if _, err := NewHasher(0, 0); err == nil {
		t.Error("NewHasher(0) succeeded")
	}
	if _, err := NewHasher(65, 0); err == nil {
		t.Error("NewHasher(65) succeeded")
	}
	h, err := NewHasher(10, 7)
	if err != nil {
		t.Fatalf("NewHasher: %v", err)
	}
	if h.Dim() != 10 || h.Seed() != 7 {
		t.Errorf("Dim/Seed = %d/%d", h.Dim(), h.Seed())
	}
}

func TestHashDeterministicAndInRange(t *testing.T) {
	h := MustNewHasher(10, 42)
	for i := 0; i < 1000; i++ {
		w := "word" + strconv.Itoa(i)
		d := h.Hash(w)
		if d < 0 || d >= 10 {
			t.Fatalf("Hash(%q) = %d out of range", w, d)
		}
		if d != h.Hash(w) {
			t.Fatalf("Hash(%q) not deterministic", w)
		}
	}
}

func TestHashSeedChangesMapping(t *testing.T) {
	h1 := MustNewHasher(16, 1)
	h2 := MustNewHasher(16, 2)
	diff := 0
	for i := 0; i < 200; i++ {
		w := "word" + strconv.Itoa(i)
		if h1.Hash(w) != h2.Hash(w) {
			diff++
		}
	}
	if diff < 100 {
		t.Errorf("only %d/200 keywords moved under a different seed", diff)
	}
}

func TestHashUniformity(t *testing.T) {
	const r, n = 16, 16000
	h := MustNewHasher(r, 3)
	counts := make([]int, r)
	for i := 0; i < n; i++ {
		counts[h.Hash("kw-"+strconv.Itoa(i))]++
	}
	// Each bucket expects n/r = 1000; allow ±25 %.
	for d, c := range counts {
		if c < 750 || c > 1250 {
			t.Errorf("dimension %d received %d keywords, want ≈1000", d, c)
		}
	}
}

func TestVertexSetsHashedBits(t *testing.T) {
	h := MustNewHasher(12, 9)
	k := NewSet("isp", "news", "download")
	v := h.Vertex(k)
	wantBits := map[int]bool{}
	for _, w := range k.Words() {
		wantBits[h.Hash(w)] = true
	}
	if got := v.OnesCount(); got != len(wantBits) {
		t.Errorf("OnesCount = %d, want %d", got, len(wantBits))
	}
	for _, d := range h.Dimensions(k) {
		if !wantBits[d] {
			t.Errorf("unexpected dimension %d set", d)
		}
	}
	if h.Vertex(Set{}) != 0 {
		t.Error("empty set must map to vertex 0")
	}
}

func TestPropertySupersetMapsIntoSubcube(t *testing.T) {
	// Lemma 3.1's basis: K1 ⊆ K2 implies F_h(K2) contains F_h(K1) —
	// and, by the same argument, Signature(K2) covers Signature(K1),
	// which is what lets a table reject on signatures alone.
	h := MustNewHasher(14, 5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		words := make([]string, n)
		for i := range words {
			words[i] = "w" + strconv.Itoa(rng.Intn(200))
		}
		k2 := NewSet(words...)
		// Random subset of k2.
		sub := make([]string, 0, k2.Len())
		for _, w := range k2.Words() {
			if rng.Intn(2) == 0 {
				sub = append(sub, w)
			}
		}
		k1 := NewSet(sub...)
		return h.Vertex(k2).Contains(h.Vertex(k1)) &&
			k2.Signature().Covers(k1.Signature())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSignatureShape(t *testing.T) {
	if got := (Set{}).Signature(); got != (Sig{}) {
		t.Errorf("empty set signature = %#x, want 0", got)
	}
	// A keyword sets at most signatureBits bits, the same ones whatever
	// set it is in and whatever the deployment's hash seed; over a
	// vocabulary the bits spread over all 128.
	var union Sig
	for i := 0; i < 200; i++ {
		w := "w" + strconv.Itoa(i)
		sig := NewSet(w).Signature()
		if n := bits.OnesCount64(sig[0]) + bits.OnesCount64(sig[1]); n < 1 || n > signatureBits {
			t.Fatalf("keyword %q sets %d bits, want 1..%d", w, n, signatureBits)
		}
		if with := NewSet(w, "other").Signature(); !with.Covers(sig) {
			t.Fatalf("keyword %q: bits %#x missing from its superset's %#x", w, sig, with)
		}
		union[0] |= sig[0]
		union[1] |= sig[1]
	}
	if union != (Sig{^uint64(0), ^uint64(0)}) {
		t.Errorf("200 keywords left signature bits unused: %#x", union)
	}
}

// FuzzSignatureContainment checks the signature's contract on fuzzed
// word lists (the input cut at \x1f; pick selects a subset of its
// words): a subset's signature is covered by its superset's, so a table
// scan never rejects a true superset, and the in-place KeySignature of
// a canonical key is its parsed set's Signature. A short run is wired
// into `make fuzz-smoke`.
func FuzzSignatureContainment(f *testing.F) {
	f.Add("download\x1fisp\x1fnetwork", uint64(5))
	f.Add("b\x1fa\x1fA\x1f \x1f\x1fa", uint64(0))
	f.Add("isp", ^uint64(0))
	f.Fuzz(func(t *testing.T, key string, pick uint64) {
		words := strings.Split(key, "\x1f")
		var sub []string
		for i, w := range words {
			if pick>>(uint(i)%64)&1 == 1 {
				sub = append(sub, w)
			}
		}
		set, subset := NewSet(words...), NewSet(sub...)
		if !set.Signature().Covers(subset.Signature()) {
			t.Fatalf("sig(%v) = %#x does not cover its subset %v's %#x", set, set.Signature(), subset, subset.Signature())
		}
		ck := CanonicalKey(key)
		if got, want := KeySignature(ck), ParseKey(ck).Signature(); got != want {
			t.Fatalf("KeySignature(%q) = %#x, ParseKey's Signature %#x", ck, got, want)
		}
	})
}

func TestPropertyVertexIsUnionOfBits(t *testing.T) {
	// F_h(K1 ∪ K2) = F_h(K1) | F_h(K2).
	h := MustNewHasher(10, 11)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Set {
			n := rng.Intn(8)
			ws := make([]string, n)
			for i := range ws {
				ws[i] = "t" + strconv.Itoa(rng.Intn(100))
			}
			return NewSet(ws...)
		}
		k1, k2 := mk(), mk()
		return h.Vertex(k1.Union(k2)) == h.Vertex(k1)|h.Vertex(k2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVertexWithinCube(t *testing.T) {
	h := MustNewHasher(8, 0)
	c := hypercube.MustNew(8)
	for i := 0; i < 100; i++ {
		k := NewSet("a"+strconv.Itoa(i), "b"+strconv.Itoa(i*3))
		if !c.Valid(h.Vertex(k)) {
			t.Fatalf("vertex for %v outside cube", k)
		}
	}
}
