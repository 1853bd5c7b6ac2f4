package sim

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"sort"

	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/corpus"
)

// PrefixPoint is the measured cost of one prefix query answered two
// ways over the same loaded deployment: as the constrained multicast
// (one SBT branch per candidate dimension, overlap removed by
// exclusion masks) and as the naive per-dimension fan-out a client
// without branch exclusion would issue — one independent single-mask
// query per candidate dimension with client-side dedup, the
// per-keyword-index cost model of the paper's Figure 6 DII baseline.
type PrefixPoint struct {
	Prefix  string
	Dims    int // candidate dimensions in the vocabulary-derived mask
	Matches int
	// Identical reports that both strategies returned the same
	// object-ID set (after deduplicating the fan-out's overlap).
	Identical bool

	NodesMulti int
	MsgsMulti  int
	NodesNaive int
	MsgsNaive  int
}

// MsgReduction is the naive/multicast logical-message ratio.
func (p PrefixPoint) MsgReduction() float64 {
	if p.MsgsMulti == 0 {
		return 0
	}
	return float64(p.MsgsNaive) / float64(p.MsgsMulti)
}

// PrefixStudyResult aggregates a prefix cost-study run.
type PrefixStudyResult struct {
	R      int
	Vocab  int // distinct normalized keywords in the corpus
	Points []PrefixPoint
}

// PrefixStudyPrefixes derives a deterministic prefix workload from the
// corpus: the n most frequent keyword prefixes of length plen, by
// total keyword occurrences, ties broken lexicographically.
func PrefixStudyPrefixes(c *corpus.Corpus, plen, n int) []string {
	freq := map[string]int{}
	for _, r := range c.Records() {
		for _, w := range r.Keywords.Words() {
			if len(w) >= plen {
				freq[w[:plen]]++
			}
		}
	}
	prefixes := make([]string, 0, len(freq))
	for p := range freq {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool {
		if freq[prefixes[i]] != freq[prefixes[j]] {
			return freq[prefixes[i]] > freq[prefixes[j]]
		}
		return prefixes[i] < prefixes[j]
	})
	if len(prefixes) > n {
		prefixes = prefixes[:n]
	}
	return prefixes
}

// PrefixStudy measures what the exclusion-mask multicast saves over
// naive per-dimension fan-out. Every query runs uncached and
// exhaustively against one loaded 2^r deployment; both strategies must
// return the same object-ID set or the point is marked non-identical.
func PrefixStudy(c *corpus.Corpus, prefixes []string, r int) (*PrefixStudyResult, error) {
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("sim: prefix study needs prefixes")
	}
	d, err := NewCustomDeployment(DeployConfig{R: r})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	if err := d.InsertCorpus(c); err != nil {
		return nil, err
	}

	// The deployment vocabulary, for the mask the client would compute.
	seen := map[string]bool{}
	var vocab []string
	for _, rec := range c.Records() {
		for _, w := range rec.Keywords.Words() {
			if !seen[w] {
				seen[w] = true
				vocab = append(vocab, w)
			}
		}
	}

	ctx := context.Background()
	opts := core.SearchOptions{Order: core.ParallelLevels, NoCache: true}
	res := &PrefixStudyResult{R: r, Vocab: len(vocab)}
	for _, prefix := range prefixes {
		mask := d.Hasher.PrefixMask(vocab, prefix)
		if mask == 0 {
			continue // no vocabulary word starts with it: nothing to query
		}
		multi, err := d.Client.PrefixSearchMasked(ctx, prefix, mask, core.All, opts)
		if err != nil {
			return nil, fmt.Errorf("prefix multicast %q: %w", prefix, err)
		}
		point := PrefixPoint{
			Prefix:     prefix,
			Dims:       bits.OnesCount64(mask),
			Matches:    len(multi.Matches),
			NodesMulti: multi.Stats.NodesContacted,
			MsgsMulti:  multi.Stats.Messages,
		}
		// Naive fan-out: one whole-branch query per candidate dimension,
		// overlap (vertices with several candidate bits) deduplicated on
		// the client like a DII reader merging per-keyword postings.
		union := map[string]bool{}
		var naive core.Stats
		for m := mask; m != 0; m &= m - 1 {
			one, err := d.Client.PrefixSearchMasked(ctx, prefix, m&-m, core.All, opts)
			if err != nil {
				return nil, fmt.Errorf("prefix fan-out %q dim mask %#x: %w", prefix, m&-m, err)
			}
			naive.Add(one.Stats)
			for _, match := range one.Matches {
				union[match.ObjectID] = true
			}
		}
		point.NodesNaive = naive.NodesContacted
		point.MsgsNaive = naive.Messages
		point.Identical = len(union) == len(multi.Matches)
		for _, match := range multi.Matches {
			if !union[match.ObjectID] {
				point.Identical = false
			}
		}
		res.Points = append(res.Points, point)
	}
	if len(res.Points) == 0 {
		return nil, fmt.Errorf("sim: no study prefix matched the vocabulary")
	}
	return res, nil
}

// RenderPrefixStudy prints a PrefixStudyResult as a table.
func RenderPrefixStudy(w io.Writer, res *PrefixStudyResult) {
	fmt.Fprintf(w, "Prefix multicast vs per-dimension fan-out (r=%d, %d-word vocabulary)\n", res.R, res.Vocab)
	fmt.Fprintf(w, "%-10s %5s %8s %8s %8s %8s %8s %9s %6s\n",
		"prefix", "dims", "matches", "nodes", "msgs", "nodes", "msgs", "reduction", "equal")
	fmt.Fprintf(w, "%-10s %5s %8s %8s %8s %8s %8s %9s %6s\n",
		"", "", "", "multi", "multi", "naive", "naive", "(msgs)", "")
	var sumMulti, sumNaive int
	for _, p := range res.Points {
		fmt.Fprintf(w, "%-10s %5d %8d %8d %8d %8d %8d %8.1fx %6v\n",
			p.Prefix, p.Dims, p.Matches, p.NodesMulti, p.MsgsMulti,
			p.NodesNaive, p.MsgsNaive, p.MsgReduction(), p.Identical)
		sumMulti += p.MsgsMulti
		sumNaive += p.MsgsNaive
	}
	if sumMulti > 0 {
		fmt.Fprintf(w, "%-10s %5s %8s %8s %8d %8s %8d %8.1fx\n",
			"total", "", "", "", sumMulti, "", sumNaive, float64(sumNaive)/float64(sumMulti))
	}
}
