//go:build !race

package form

// raceEnabled reports whether the race detector is on. Under -race,
// sync.Pool intentionally drops a fraction of Puts to shake out lifetime
// bugs, so allocation counts only hold without it.
const raceEnabled = false
