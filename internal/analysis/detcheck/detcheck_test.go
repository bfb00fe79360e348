package detcheck_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/detcheck"
)

// Each fixture proves, per the acceptance contract, at least one true
// positive (a // want expectation) and at least one annotated
// suppression (a //detlint:allow line with no want) for its analyzer.

func TestWallclock(t *testing.T) {
	analysistest.Run(t, detcheck.Wallclock, "testdata/src/wallclock", "repro/internal/scenario")
}

func TestDetrand(t *testing.T) {
	analysistest.Run(t, detcheck.Detrand, "testdata/src/detrand", "repro/internal/fleet")
}

func TestMaporder(t *testing.T) {
	analysistest.Run(t, detcheck.Maporder, "testdata/src/maporder", "repro/internal/scenario")
}

func TestSpawn(t *testing.T) {
	analysistest.Run(t, detcheck.Spawn, "testdata/src/spawn", "repro/internal/canbus")
}

// TestSpawnConcScope loads a pool-like fixture as internal/conc
// itself: the one package allowed to launch goroutines must produce
// no findings.
func TestSpawnConcScope(t *testing.T) {
	analysistest.Run(t, detcheck.Spawn, "testdata/src/spawn_conc", "repro/internal/conc")
}

func TestHotpath(t *testing.T) {
	analysistest.Run(t, detcheck.Hotpath, "testdata/src/hotpath", "repro/internal/ec")
}

// TestWallclockScope re-loads the wallclock fixture under an import
// path outside the deterministic set: the analyzer must stay silent
// there, which also flips its two suppression annotations into
// "unused annotation" hygiene findings — proving scope and the
// two-sided annotation contract in one pass.
func TestWallclockScope(t *testing.T) {
	pkg, err := analysis.LoadDir("testdata/src/wallclock", "repro/internal/kdf")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run([]*analysis.Analyzer{detcheck.Wallclock}, []*analysis.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("want exactly the 2 unused-annotation findings out of scope, got %d: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Check != "detlint" || !strings.Contains(f.Message, "unused annotation") {
			t.Errorf("unexpected finding out of scope: %s", f)
		}
	}
}

// TestSuiteOnRealPackage drives the go-list loader end to end over a
// real module package and requires the whole suite to be clean — the
// same invariant `make lint` enforces tree-wide.
func TestSuiteOnRealPackage(t *testing.T) {
	pkgs, err := analysis.Load([]string{"repro/internal/detrand", "repro/internal/conc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("want 2 packages, got %d", len(pkgs))
	}
	findings, err := analysis.Run(detcheck.Analyzers(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

func TestCtscalar(t *testing.T) {
	analysistest.Run(t, detcheck.Ctscalar, "testdata/src/ctscalar", "repro/internal/ec")
}

func TestCtscalarCallers(t *testing.T) {
	analysistest.Run(t, detcheck.Ctscalar, "testdata/src/ctscalar_callers", "repro/internal/core")
}

// TestCtscalarSecurityExempt loads the callers fixture as
// internal/security, whose attack models may compute with stolen keys:
// rule 2 stays silent, leaving only the fixture's now-unused
// suppression as a hygiene finding.
func TestCtscalarSecurityExempt(t *testing.T) {
	pkg, err := analysis.LoadDir("testdata/src/ctscalar_callers", "repro/internal/security")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run([]*analysis.Analyzer{detcheck.Ctscalar}, []*analysis.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "unused annotation") {
		t.Fatalf("want only the unused-annotation finding in internal/security, got %v", findings)
	}
}
