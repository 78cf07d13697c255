// Package testwait bounds the blocking waits of tests. A wait that misses
// its deadline returns an error carrying a dump of every goroutine, so a
// hang fails the test and shows where each goroutine was parked instead of
// stalling the package until the test binary's timeout.
//
// The waits return the error rather than failing a testing.TB themselves,
// so they also serve goroutines other than the test's own, which must not
// call t.Fatal.
package testwait

import (
	"fmt"
	"runtime"
	"time"
)

// For waits until ch delivers a value or is closed, at most d. On timeout
// the error names what was awaited.
func For[T any](ch <-chan T, d time.Duration, what string) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ch:
		return nil
	case <-timer.C:
		return stuck(what)
	}
}

// Until polls cond, yielding the processor between polls, until it holds
// or deadline passes. On timeout the error names what was awaited.
func Until(deadline time.Time, what string, cond func() bool) error {
	for !cond() {
		if time.Now().After(deadline) {
			return stuck(what)
		}
		runtime.Gosched()
	}
	return nil
}

// stuck builds the timeout error: what, then every goroutine's stack.
func stuck(what string) error {
	buf := make([]byte, 1<<20)
	return fmt.Errorf("%s\n%s", what, buf[:runtime.Stack(buf, true)])
}
