package load

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// BenchSchema identifies the BENCH file format; bump on incompatible
// changes so downstream tooling can refuse what it can't parse.
const BenchSchema = "ksload/bench/v1"

// BenchFile is the machine-readable record of one ksload invocation:
// the workload that was offered, the fleet it ran against, and one
// RunResult per measured phase. Files are written as
// results/BENCH_<tag>.json; see results/README.md for the field-level
// contract.
type BenchFile struct {
	Schema          string   `json:"schema"`
	Tag             string   `json:"tag"`
	GeneratedAtUnix int64    `json:"generated_at_unix"`
	GitSHA          string   `json:"git_sha,omitempty"`
	GoMaxProcs      int      `json:"gomaxprocs"`
	Workload        Workload `json:"workload"`
	// CapacityQPS is the fleet's measured closed-loop capacity (0 when
	// the invocation didn't probe it); study runs express their offered
	// rates as multiples of it.
	CapacityQPS float64     `json:"capacity_qps,omitempty"`
	Runs        []RunResult `json:"runs"`
}

// Workload describes the corpus, query log, and fleet of a BENCH file
// precisely enough to regenerate them (everything is seed-derived).
type Workload struct {
	Transport     string `json:"transport"` // "inmem" or "tcp"
	R             int    `json:"r"`         // hypercube dimensionality
	Peers         int    `json:"peers"`
	CorpusObjects int    `json:"corpus_objects"`
	CorpusSeed    int64  `json:"corpus_seed"`
	Queries       int    `json:"queries"`
	Templates     int    `json:"templates"`
	QuerySeed     int64  `json:"query_seed"`
	Threshold     int    `json:"threshold"`
	// PrefixFrac > 0 means every round(1/PrefixFrac)-th request was
	// issued as a prefix multicast over the query's first keyword
	// truncated to PrefixLen characters, instead of a superset search.
	PrefixFrac float64 `json:"prefix_frac,omitempty"`
	PrefixLen  int     `json:"prefix_len,omitempty"`
}

// RunResult is one measured phase: a Report plus the offered-load
// configuration that produced it.
type RunResult struct {
	Name      string  `json:"name"`
	Admission bool    `json:"admission"`
	RateQPS   float64 `json:"rate_qps"`
	Arrival   string  `json:"arrival"`
	TimeoutNS int64   `json:"timeout_ns"`
	Report    Report  `json:"report"`
}

// WriteBench writes the file as indented JSON at path.
func WriteBench(path string, b *BenchFile) error {
	if b.Schema == "" {
		b.Schema = BenchSchema
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBench parses a BENCH file, rejecting unknown schemas.
func ReadBench(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b BenchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("load: parse %s: %w", path, err)
	}
	if b.Schema != BenchSchema {
		return nil, fmt.Errorf("load: %s has schema %q, want %q", path, b.Schema, BenchSchema)
	}
	return &b, nil
}

// NewBench stamps a BenchFile skeleton with the environment: time,
// GOMAXPROCS, and (best effort) the git commit.
func NewBench(tag string, w Workload) *BenchFile {
	return &BenchFile{
		Schema:          BenchSchema,
		Tag:             tag,
		GeneratedAtUnix: time.Now().Unix(),
		GitSHA:          gitSHA(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		Workload:        w,
	}
}

// gitSHA returns the current commit hash, or "" outside a repo.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
