package service

import (
	"encoding/json"
	"slices"
	"sync"
	"testing"

	"halo/internal/core"
	"halo/internal/isa"
	"halo/internal/profile"
	"halo/internal/profstore"
	"halo/internal/workloads"
)

// fuzzFixture is one small program and its training profile, recorded
// and decoded once per process; every input shares the decoded profile,
// as the jobs naming a stored profile do.
type fuzzFixture struct {
	prog *isa.Program
	prof *profile.Profile
}

var fuzzInput = sync.OnceValues(func() (fuzzFixture, error) {
	w := workloads.MustGet("art")
	p := w.Build(w.TestScale)
	prof, err := core.Profile(p, core.Config{ProfileSeed: 3})
	if err != nil {
		return fuzzFixture{}, err
	}
	blob, err := profstore.Encode(prof)
	if err != nil {
		return fuzzFixture{}, err
	}
	stored, err := profstore.Decode(blob)
	return fuzzFixture{prog: p, prof: stored}, err
})

// FuzzOptimizeConfig feeds arbitrary /v1/optimize bodies through request
// validation. Whatever validate accepts must synthesise a layout from the
// shared decoded profile without panicking, the request's coverage
// included, and the artifact-cache key must not depend on the order the
// request lists its profiles in.
func FuzzOptimizeConfig(f *testing.F) {
	f.Add([]byte(`{"config":{"max_group_members":9223372036854775807}}`))
	f.Add([]byte(`{"program":"p","profiles":["b","a","c"],"config":{"max_groups":1,"merge_tol":0.5}}`))
	f.Add([]byte(`{"config":{"min_weight":18446744073709551615,"group_threshold":1e300}}`))
	f.Add([]byte(`{"config":{"coverage":1,"max_groups":9223372036854775807,"merge_tol":1e308}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req OptimizeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		key := req.cacheKey()
		perm := slices.Clone(req.Profiles)
		slices.Reverse(perm)
		if len(perm) > 1 {
			perm = append(perm[1:], perm[0])
		}
		if got := (OptimizeRequest{Program: req.Program, Profiles: perm, Config: req.Config}).cacheKey(); got != key {
			t.Fatalf("cache key changed when profiles %q were permuted to %q", req.Profiles, perm)
		}
		if req.Config.validate() != nil {
			return
		}
		fx, err := fuzzInput()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.OptimizeFromProfile(fx.prog, fx.prof, req.Config.coreConfig()); err != nil {
			t.Fatalf("config %+v passed validation but failed synthesis: %v", req.Config, err)
		}
	})
}
