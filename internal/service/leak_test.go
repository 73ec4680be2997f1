package service

import (
	"testing"

	"reservoir/internal/testutil"
)

// TestMain fails the suite if an HTTP handler, ingest worker, or snapshot
// goroutine outlives the tests.
func TestMain(m *testing.M) { testutil.VerifyTestMain(m) }
