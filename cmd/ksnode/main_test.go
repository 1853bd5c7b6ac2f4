package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	keysearch "github.com/p2pkeyword/keysearch"
	"github.com/p2pkeyword/keysearch/internal/telemetry"
)

// testPeer builds a single-peer in-memory network for console tests.
func testPeer(t *testing.T) *keysearch.Peer {
	t.Helper()
	net := keysearch.NewInMemoryTransport(1)
	t.Cleanup(func() { net.Close() })
	peer, err := keysearch.NewPeer(net, "console-peer", keysearch.Config{
		Dim:                 6,
		MaintenanceInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	peer.Create()
	return peer
}

func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), runErr
}

func TestDispatchPublishSearchFetch(t *testing.T) {
	peer := testPeer(t)
	ctx := context.Background()

	out, err := captureStdout(t, func() error {
		return dispatch(ctx, peer, []string{"publish", "song1", "mp3", "jazz"})
	})
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if !strings.Contains(out, "published song1") {
		t.Errorf("publish output: %q", out)
	}

	out, err = captureStdout(t, func() error {
		return dispatch(ctx, peer, []string{"search", "5", "jazz"})
	})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if !strings.Contains(out, "song1") || !strings.Contains(out, "1 matches") {
		t.Errorf("search output: %q", out)
	}

	out, err = captureStdout(t, func() error {
		return dispatch(ctx, peer, []string{"pin", "mp3", "jazz"})
	})
	if err != nil || !strings.Contains(out, "song1") {
		t.Errorf("pin output: %q err: %v", out, err)
	}

	out, err = captureStdout(t, func() error {
		return dispatch(ctx, peer, []string{"prefix", "5", "ja"})
	})
	if err != nil || !strings.Contains(out, "song1") || !strings.Contains(out, "completeness=1.00") {
		t.Errorf("prefix output: %q err: %v", out, err)
	}

	out, err = captureStdout(t, func() error {
		return dispatch(ctx, peer, []string{"fetch", "song1"})
	})
	if err != nil || !strings.Contains(out, "local://song1") {
		t.Errorf("fetch output: %q err: %v", out, err)
	}

	out, err = captureStdout(t, func() error {
		return dispatch(ctx, peer, []string{"stats"})
	})
	if err != nil || !strings.Contains(out, "index:") {
		t.Errorf("stats output: %q err: %v", out, err)
	}

	out, err = captureStdout(t, func() error {
		return dispatch(ctx, peer, []string{"unpublish", "song1", "mp3", "jazz"})
	})
	if err != nil || !strings.Contains(out, "unpublished") {
		t.Errorf("unpublish output: %q err: %v", out, err)
	}
}

// TestServeMetricsEndpoints drives the -metrics-addr HTTP surface the
// way a Prometheus scraper and pprof client would: an instrumented
// peer serves its registry, searches show up in /metrics and /traces,
// and the pprof index answers.
func TestServeMetricsEndpoints(t *testing.T) {
	reg := telemetry.New(64)
	net := keysearch.NewInMemoryTransport(1)
	t.Cleanup(func() { net.Close() })
	peer, err := keysearch.NewPeer(net, "metrics-peer", keysearch.Config{
		Dim:                 6,
		MaintenanceInterval: -1,
		Telemetry:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	peer.Create()

	ctx := context.Background()
	obj := keysearch.Object{ID: "song1", Keywords: keysearch.NewKeywordSet("mp3", "jazz")}
	if err := peer.Publish(ctx, obj, "local://song1"); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Search(ctx, keysearch.NewKeywordSet("jazz"), 5, keysearch.SearchOptions{}); err != nil {
		t.Fatal(err)
	}

	bound, shutdown, err := serveMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = shutdown() })

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + bound + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`core_ops_total{op="superset-search"} 1`,
		"# TYPE core_search_duration_ns histogram",
		"core_index_objects 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if code, body := get("/traces"); code != 200 || !strings.Contains(body, `"op": "superset-search"`) {
		t.Errorf("/traces -> %d:\n%s", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ -> %d:\n%s", code, body)
	}
}

func TestDispatchUsageErrors(t *testing.T) {
	peer := testPeer(t)
	ctx := context.Background()
	for _, cmd := range [][]string{
		{"publish"},
		{"unpublish", "x"},
		{"pin"},
		{"search"},
		{"search", "zero"},
		{"search", "0", "kw"},
		{"fetch"},
		{"bogus"},
	} {
		if _, err := captureStdout(t, func() error {
			return dispatch(ctx, peer, cmd)
		}); err == nil {
			t.Errorf("command %v accepted", cmd)
		}
	}
}

// TestTuningFlagsAreGone: lock stripes, scan workers and listener
// workers come from GOMAXPROCS and the migration byte cap is a
// constant, so none of them is a flag.
func TestTuningFlagsAreGone(t *testing.T) {
	for _, name := range []string{"-shards", "-scan-parallelism", "-listen-workers", "-migrate-chunk-bytes"} {
		err := run([]string{name, "4"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%s 4) = %v, want an unknown-flag error", name, err)
		}
	}
}
