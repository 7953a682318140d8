package affidavit

import "testing"

// TestFingerprint pins the engine-option fingerprint's contract: stable
// across instances with equal options, sensitive to every
// result-affecting knob, and blind to byte-neutral ones.
func TestFingerprint(t *testing.T) {
	mk := func(opts ...Option) string {
		t.Helper()
		ex, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return ex.Fingerprint()
	}
	base := mk(WithSeed(31))
	if len(base) != 16 {
		t.Fatalf("fingerprint %q, want 16 hex chars", base)
	}
	if again := mk(WithSeed(31)); again != base {
		t.Errorf("equal options, different fingerprints: %s vs %s", base, again)
	}
	// Result-affecting knobs must change the fingerprint.
	for name, fp := range map[string]string{
		"seed":  mk(WithSeed(32)),
		"alpha": mk(WithSeed(31), WithAlpha(0.3)),
		"beta":  mk(WithSeed(31), WithBeta(3)),
		"width": mk(WithSeed(31), WithQueueWidth(9)),
		"start": mk(WithSeed(31), WithOverlapConfig()),
		"theta": mk(WithSeed(31), WithTheta(0.2)),
		"rho":   mk(WithSeed(31), WithRho(0.9)),
	} {
		if fp == base {
			t.Errorf("%s change did not move the fingerprint", name)
		}
	}
	// Fingerprints name job content addresses in durable journals, so
	// their bytes are pinned: these are the values recorded before the
	// expansion cap stopped being an option.
	for want, fp := range map[string]string{
		"a67ec6b5dde92c52": mk(),
		"8bdf57d7da660b54": base,
	} {
		if fp != want {
			t.Errorf("fingerprint %s, want the recorded %s", fp, want)
		}
	}
	// Byte-neutral knobs must not: the warm guard only acts on chain steps.
	for name, fp := range map[string]string{
		"warmguard": mk(WithSeed(31), WithWarmGuard(3)),
	} {
		if fp != base {
			t.Errorf("byte-neutral knob %s moved the fingerprint", name)
		}
	}
}
