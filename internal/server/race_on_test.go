//go:build race

package server

// The race detector's shadow memory and instrumentation dwarf the heap the
// soak test bounds, so it checks the heap only without -race.
func init() { raceEnabled = true }
