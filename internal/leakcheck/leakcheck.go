// Package leakcheck fails a test binary whose tests leave one of the
// module's goroutines behind. Only tests import it, from their
// package's TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and exits with their status, failed when a test
// left one of the module's goroutines behind — a maintenance loop nobody
// stopped, a listener still serving, a hook still blocked — once every
// test has returned and a grace period has passed. The runtime's and the
// fuzzing engine's own goroutines do not count.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		leaks := leaked()
		for len(leaks) > 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			leaks = leaked()
		}
		if len(leaks) > 0 {
			fmt.Fprintf(os.Stderr, "%d goroutines outlived the tests:\n\n%s\n", len(leaks), strings.Join(leaks, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leaked returns the stacks of every other goroutine running this
// module's code.
func leaked() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var leaks []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "p2pkeyword/keysearch/") && !strings.Contains(g, "leakcheck.leaked") {
			leaks = append(leaks, g)
		}
	}
	return leaks
}
