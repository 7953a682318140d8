package affidavit_test

import (
	"context"
	"strings"
	"testing"

	"affidavit"
)

// newExplainer is affidavit.New, fatal on a configuration error.
func newExplainer(t testing.TB, opts ...affidavit.Option) *affidavit.Explainer {
	t.Helper()
	ex, err := affidavit.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// explainWith builds an Explainer from opts and explains the pair.
func explainWith(t *testing.T, src, tgt *affidavit.Table, opts ...affidavit.Option) *affidavit.Result {
	t.Helper()
	res, err := newExplainer(t, opts...).Explain(context.Background(), src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExplicitZerosRepresentable: WithAlpha(0) and WithTheta(0) must mean
// zero, not "use the default".
func TestExplicitZerosRepresentable(t *testing.T) {
	src, tgt := figure1Tables(t)

	// α = 0 is real. The trivial explanation costs 2α·|A|·|T|, so it must
	// be exactly 0.
	zero := explainWith(t, src, tgt, affidavit.WithAlpha(0), affidavit.WithSeed(1))
	if zero.TrivialCost != 0 {
		t.Errorf("TrivialCost = %v under α=0, want 0", zero.TrivialCost)
	}
	if err := zero.Explanation.Validate(); err != nil {
		t.Error(err)
	}

	// θ = 0 is honoured: the run completes with minimal sampling and stays
	// valid.
	thetaZero := explainWith(t, src, tgt, affidavit.WithTheta(0), affidavit.WithSeed(1))
	if err := thetaZero.Explanation.Validate(); err != nil {
		t.Error(err)
	}
}

// TestNewValidatesEagerly: a misconfigured Explainer fails at New, not on
// its first run.
func TestNewValidatesEagerly(t *testing.T) {
	cases := []struct {
		name string
		opt  affidavit.Option
		want string
	}{
		{"alpha", affidavit.WithAlpha(1.5), "Alpha"},
		{"beta", affidavit.WithBeta(0), "Beta"},
		{"queue", affidavit.WithQueueWidth(0), "QueueWidth"},
		{"theta", affidavit.WithTheta(1.5), "Theta"},
		{"rho", affidavit.WithRho(-0.1), "Rho"},
		{"workers", affidavit.WithWorkers(-1), "Workers"},
		{"warmguard", affidavit.WithWarmGuard(-1), "WarmGuard"},
	}
	for _, c := range cases {
		if _, err := affidavit.New(c.opt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %s", c.name, err, c.want)
		}
	}
	if _, err := affidavit.New(); err != nil {
		t.Errorf("default construction failed: %v", err)
	}
}

// TestWithOverlapConfig: the preset is exactly overlap start, β = 1,
// ϱ = 1, and New without options is exactly the paper's Hid defaults —
// Fingerprint digests every one of those values, so equal fingerprints
// pin them — and the preset runs like its spelled-out form.
func TestWithOverlapConfig(t *testing.T) {
	fp := func(opts ...affidavit.Option) string {
		t.Helper()
		return newExplainer(t, opts...).Fingerprint()
	}
	spelled := []affidavit.Option{affidavit.WithStart(affidavit.StartOverlap), affidavit.WithBeta(1), affidavit.WithQueueWidth(1)}
	if fp(affidavit.WithOverlapConfig()) != fp(spelled...) {
		t.Error("WithOverlapConfig is not overlap start, β = 1, ϱ = 1")
	}
	if fp() != fp(affidavit.WithStart(affidavit.StartID), affidavit.WithBeta(2), affidavit.WithQueueWidth(5),
		affidavit.WithAlpha(0.5), affidavit.WithTheta(0.1), affidavit.WithRho(0.95)) {
		t.Error("New() is not Hid start, β = 2, ϱ = 5, α = 0.5, θ = 0.1, ρ = 0.95")
	}
	src, tgt := figure1Tables(t)
	preset := explainWith(t, src, tgt, affidavit.WithOverlapConfig(), affidavit.WithSeed(1))
	if mustJSON(t, preset) != mustJSON(t, explainWith(t, src, tgt, append(spelled, affidavit.WithSeed(1))...)) {
		t.Error("the preset and its spelled-out form explain differently")
	}
}

// TestLegacyBoundaryThetaStillRuns: θ = 1 and ρ = 1 are degenerate but
// defined and ran before validation existed — New must keep accepting
// them, under the overlap start (whose ranking samples by θ) and Hid alike.
func TestLegacyBoundaryThetaStillRuns(t *testing.T) {
	src, tgt := figure1Tables(t)
	for _, start := range []affidavit.Start{affidavit.StartOverlap, affidavit.StartID} {
		res := explainWith(t, src, tgt, affidavit.WithStart(start), affidavit.WithTheta(1), affidavit.WithRho(1), affidavit.WithSeed(1))
		if err := res.Explanation.Validate(); err != nil {
			t.Error(err)
		}
	}
}
