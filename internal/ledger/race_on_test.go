//go:build race

package ledger

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation allocates; allocation-count assertions
// are skipped there.
const raceEnabled = true
