// Package determinism is a proram-vet golden fixture: each construct the
// determinism pass must flag, plus suppressed variants. Expectations are
// the want comments; see analysis_test.go for the matching rules.
package determinism

import (
	crand "crypto/rand" // want `import of crypto/rand in an internal package`
	mrand "math/rand"   // want `import of "math/rand"`
	"time"

	"proram/internal/rng"
)

var (
	_ = mrand.Int
	_ = crand.Reader
)

func clocks() time.Duration {
	start := time.Now()         // want `time\.Now reads the clock`
	time.Sleep(time.Nanosecond) // want `time\.Sleep reads the clock`
	return time.Since(start)    // want `time\.Since reads the clock`
}

func racy(ch chan int) int {
	select { // want `select with a default clause`
	case v := <-ch:
		return v
	default:
		return -1
	}
}

func hardSeed() *rng.Source {
	return rng.New(42) // want `rng\.New with a hard-coded seed`
}

func plumbedSeed(seed uint64) *rng.Source {
	return rng.New(seed)
}

func allowedSeed() *rng.Source {
	return rng.New(1) //proram:allow determinism fixture: the fixed stream is the point of this helper
}

func allowedSleep() {
	//proram:allow determinism fixture: operator-facing pacing, not simulated time
	time.Sleep(time.Nanosecond)
}

// A constant seed is hard-coded however it is spelled: the check asks the
// type checker for the argument's constant value, not for a literal.
const fixedSeed = 7

func constSeed() *rng.Source {
	return rng.New(fixedSeed * 2) // want `rng\.New with a hard-coded seed`
}
