//go:build race

package tcpnet

// raceEnabled reports that the test binary was built with -race, whose
// instrumentation allocates on its own account: allocation budgets
// skip themselves (make alloc-smoke runs them without it).
const raceEnabled = true
