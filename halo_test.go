package halo

import (
	"testing"

	"halo/internal/core"
	"halo/internal/workloads"
)

// TestFacadeProfileAndHDS drives profiling, HALO grouping and the HDS
// analysis as separate stages on one povray profile, the way a caller
// outside the core package chains them.
func TestFacadeProfileAndHDS(t *testing.T) {
	w := workloads.MustGet("povray")
	prog := w.Build(w.TestScale)
	cfg := core.Config{}
	cfg.Profile.RecordTrace = true

	prof, err := core.Profile(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.OptimizeFromProfile(prog, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := core.AnalyzeHDS(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// povray's defining property: HALO distinguishes contexts through the
	// pov_malloc wrapper (several sites), the immediate-call-site scheme
	// sees a single location.
	if len(opt.Selectors.Sites) < 2 {
		t.Fatalf("HALO found %d sites, want several", len(opt.Selectors.Sites))
	}
	if len(hr.SiteGroups) > 1 {
		t.Fatalf("HDS identified %d sites through the wrapper; povray should collapse to at most 1",
			len(hr.SiteGroups))
	}
}
