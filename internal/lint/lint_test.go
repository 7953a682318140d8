package lint_test

import (
	"testing"

	"affidavit/internal/lint"
	"affidavit/internal/lint/linttest"
)

// Each analyzer is exercised against analysistest-style fixtures: the
// `// want` comments in testdata/src/<pkg> are the expected findings, and
// the harness fails on both missed and unexpected diagnostics — so every
// fixture line doubles as a regression test that the analyzer fires (and
// stays quiet) exactly where documented.

func TestMapIter(t *testing.T) {
	// search stands for the explanation pipeline, catalog for the journals.
	for _, pkg := range []string{"search", "catalog"} {
		t.Run(pkg, func(t *testing.T) { linttest.Run(t, "testdata", pkg, lint.MapIter) })
	}
}

func TestMapIterOutOfScope(t *testing.T) {
	linttest.Run(t, "testdata", "notcritical", lint.MapIter)
}

func TestNonDet(t *testing.T) {
	linttest.Run(t, "testdata", "induce", lint.NonDet)
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, "testdata", "delta", lint.CtxFlow)
}

func TestObsEvent(t *testing.T) {
	linttest.Run(t, "testdata", "pipeline", lint.ObsEvent)
}

func TestJobStore(t *testing.T) {
	linttest.Run(t, "testdata", "jobs", lint.JobStore)
}

func TestJobStoreLogPackage(t *testing.T) {
	linttest.Run(t, "testdata", "wal", lint.JobStore)
}

func TestJobStoreOutOfScope(t *testing.T) {
	// The same fixture under a different last path segment must be silent.
	linttest.Run(t, "testdata", "notcritical", lint.JobStore)
}

func TestDocComment(t *testing.T) {
	linttest.Run(t, "testdata", "affidavit", lint.DocComment)
}

func TestDocCommentOutOfScope(t *testing.T) {
	// Internal pipeline packages are not held to the public-API doc bar.
	linttest.Run(t, "testdata", "notcritical", lint.DocComment)
}

func TestSuiteComplete(t *testing.T) {
	names := map[string]bool{}
	for _, a := range lint.Suite() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"mapiter", "nondet", "ctxflow", "obsevent", "jobstore", "doccomment"} {
		if !names[want] {
			t.Errorf("suite is missing analyzer %q", want)
		}
	}
}
