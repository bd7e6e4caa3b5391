package main

import "time"

// stamp is the benchmark's only clock read. Every host-time figure the
// benchmark reports goes through it; nothing the program under test
// computes ever sees the value.
func stamp() time.Time {
	return time.Now() //proram:allow determinism the benchmark measures host time; no simulated result or generated input depends on it
}

var clockBase = stamp()

// now returns monotonic host nanoseconds since process start.
func now() int64 { return int64(stamp().Sub(clockBase)) }
