// Fixture for the wallclock check: real time stays out of simulation code.
package wallclock

import (
	"math/rand" // want "global math/rand stream"
	"time"
)

func measures() time.Duration {
	start := time.Now() // want "wall clock time.Now in simulation code: read virtual time from the event list's Now"
	time.Sleep(1)       // want "wall clock time.Sleep"
	_ = rand.Int()
	return time.Since(start) // want "wall clock time.Since"
}

// Pure duration arithmetic is fine: no clock is read.
func arithmetic(d time.Duration) time.Duration {
	return d * 2
}
