package fleet

import (
	"os"
	"testing"

	"phasetune/internal/leaktest"
)

// TestMain fails the suite if any test leaves a goroutine behind — the
// runtime counterpart of the goleak analyzer.
func TestMain(m *testing.M) {
	os.Exit(leaktest.Main(m))
}
