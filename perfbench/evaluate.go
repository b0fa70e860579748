package main

import (
	"fmt"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/measure"
	"halo/internal/workloads"
)

var evaluateSpec = spec{
	gcEachOp:     true,
	opsPerSecond: 3,
	setups:       5,
	rounds:       1,
	prepare:      prepareEvaluate,
}

type evaluate struct {
	trials  []trial
	ref     [][2]measure.RunResult // the warm-up op's results
	mseed   uint64
	machine cache.Config
}

// prepareEvaluate's set-up builds each program's artefacts as the
// experiments engine does under -quick (profile and synthesise on the
// test input, lower onto a separate test-scale measured build) and keeps
// the warm-up op's results as the reference every op must reproduce.
func prepareEvaluate(seed uint64, _ int) (func() (bench, error), error) {
	return func() (bench, error) {
		e := &evaluate{mseed: derive(seed, "measure", 0), machine: cache.XeonW2195()}
		for i, name := range programs {
			w := workloads.MustGet(name)
			test := w.Build(w.TestScale)
			cfg := pipelineConfig(w, derive(seed, "train", i))
			prof, err := core.Profile(test, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			opt, err := core.OptimizeFromProfile(test, prof, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			measured := w.Build(w.TestScale)
			pol, err := lowerOnto(nil, w, measured, opt)
			if err != nil {
				return nil, err
			}
			e.trials = append(e.trials, trial{name: name, base: measured, halo: pol})
		}
		ref, err := e.run(nil)
		if err != nil {
			return nil, err
		}
		e.ref = ref
		return e, nil
	}, nil
}

// run is one op: every program once under jemalloc and once under HALO.
func (e *evaluate) run(t *tracer) ([][2]measure.RunResult, error) {
	out := make([][2]measure.RunResult, len(e.trials))
	for i, tr := range e.trials {
		var err error
		if t == nil {
			out[i], err = tr.pair(e.mseed, e.machine)
		} else {
			if out[i][0], err = runTraced(t, t.root, tr.base, measure.Policy{Kind: measure.Jemalloc}, e.mseed, e.machine); err == nil {
				out[i][1], err = runTraced(t, t.root, tr.base, tr.halo, e.mseed, e.machine)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tr.name, err)
		}
	}
	return out, nil
}

func (e *evaluate) op(_ int, t *tracer) (func() error, error) {
	res, err := e.run(t)
	if err != nil {
		return nil, err
	}
	return func() error {
		for i, r := range res {
			if r[0].Result != r[1].Result {
				return fmt.Errorf("%s: HALO result %d, jemalloc %d", e.trials[i].name, r[1].Result, r[0].Result)
			}
			for k, pol := range []string{"jemalloc", "halo"} {
				if r[k] != e.ref[i][k] {
					return fmt.Errorf("%s under %s: steps %d, L1D misses %d, cycles %d; reference %d, %d, %d",
						e.trials[i].name, pol, r[k].Steps, r[k].Cache.L1D.Misses, r[k].Cycles,
						e.ref[i][k].Steps, e.ref[i][k].Cache.L1D.Misses, e.ref[i][k].Cycles)
				}
			}
		}
		return nil
	}, nil
}

func (e *evaluate) finish() (int, quality, error) {
	q, err := qualityOf(e.ref)
	return 0, q, err
}

func (e *evaluate) close() {}
