//go:build !race

package camera

// raceEnabled reports whether the race detector is on. Under -race the
// compiler does not inline strings.Builder's copy check, so the Builder
// itself escapes to the heap and allocation counts grow by one.
const raceEnabled = false
