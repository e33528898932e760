package analyzers_test

import (
	"testing"

	"arb/internal/lint"
	"arb/internal/lint/analyzers"
)

// Each fixture package is typechecked under a synthetic import path that
// puts it in the analyzer's scope, then the analyzer's diagnostics are
// matched exactly — both directions — against the // want markers.

func TestCtxflowFixture(t *testing.T) {
	lint.RunFixture(t, analyzers.Ctxflow, "testdata/ctxflow", "arb/internal/core/ctxfixture")
}

func TestLockDisciplineFixture(t *testing.T) {
	lint.RunFixture(t, analyzers.LockDiscipline, "testdata/lockdiscipline", "arb/internal/core/lockfixture")
}

func TestTmpCleanupFixture(t *testing.T) {
	lint.RunFixture(t, analyzers.TmpCleanup, "testdata/tmpcleanup", "arb/internal/core/tmpfixture")
}

func TestCloseCheckFixture(t *testing.T) {
	lint.RunFixture(t, analyzers.CloseCheck, "testdata/closecheck", "arb/internal/core/closefixture")
}

func TestSnapPinFixture(t *testing.T) {
	lint.RunFixture(t, analyzers.SnapPin, "testdata/snappin", "arb/internal/vstore/snapfixture")
}

func TestAtomicMixFixture(t *testing.T) {
	lint.RunFixture(t, analyzers.AtomicMix, "testdata/atomicmix", "arb/internal/server/atomfixture")
}

func TestGoroLeakFixture(t *testing.T) {
	lint.RunFixture(t, analyzers.GoroLeak, "testdata/goroleak", "arb/internal/parallel/gorofixture")
}

func TestLockOrderFixture(t *testing.T) {
	lint.RunFixture(t, analyzers.LockOrder, "testdata/lockorder", "arb/internal/vstore/lockfixture")
}
