//go:build race

package executor

// raceDetectorEnabled disables allocation-count assertions: under -race
// sync.Pool drops a share of Put items at random, so pooled buffers are
// reallocated and byte counts stop describing the code under test.
const raceDetectorEnabled = true
