//go:build race

package camera

// raceEnabled: see race_off_test.go.
const raceEnabled = true
