//go:build race

package certainty

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// pooled items at random, so the AllocsPerRun pins measure its
// instrumentation instead of the code and skip themselves; they run
// without -race in the alloc-pin CI job.
const raceEnabled = true
