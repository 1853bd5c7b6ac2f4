//go:build race

package core

// raceEnabled reports that the test binary was built with -race, whose
// instrumentation allocates on its own account: byte budgets skip
// themselves (make alloc-smoke runs them without it).
const raceEnabled = true
