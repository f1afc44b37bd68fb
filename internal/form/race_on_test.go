//go:build race

package form

// raceEnabled: see race_off_test.go.
const raceEnabled = true
