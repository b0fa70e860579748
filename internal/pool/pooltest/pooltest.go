// Package pooltest holds test support for code that borrows helpers from
// internal/pool's process-wide budget.
package pooltest

import (
	"errors"
	"testing"
	"time"

	"halo/internal/pool"
)

// RequireHelper fails the test unless a two-item pool.Map runs both items
// at once, that is, unless Map can still borrow a helper. Call it at
// GOMAXPROCS 2 or more after code that borrowed one, to check the helper
// went back to the budget.
func RequireHelper(tb testing.TB) {
	tb.Helper()
	started := make(chan struct{})
	err := pool.Map(2, 0, func(i int) error {
		if i == 1 {
			close(started)
			return nil
		}
		select {
		case <-started:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("item 1 never ran beside item 0: no helper in the budget")
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
}
