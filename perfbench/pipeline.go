package main

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"time"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/halloc"
	"halo/internal/hds"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/obs"
	"halo/internal/profile"
	"halo/internal/profstore"
	"halo/internal/workloads"
)

var pipelineSpec = spec{
	gcEachOp:     true,
	opsPerSecond: 1.25,
	setups:       5,
	rounds:       1,
	prepare:      preparePipeline,
}

// pipeProg is one program of the pipeline workload: the test-scale build
// it profiles, the ref-scale build it lowers the layout onto, and its
// seeded configuration.
type pipeProg struct {
	w    workloads.Workload
	test *isa.Program
	ref  *isa.Program
	cfg  core.Config
}

// pipeOut is what one op produces for one program.
type pipeOut struct {
	prof *profile.Profile
	opt  *core.Optimized
	hds  *hds.Result
	ref  measure.Policy
}

// pipeDigest is what the checks compare across ops.
type pipeDigest struct {
	profileSHA [32]byte
	selectors  []halloc.BitSelector // lowered onto the ref-scale build
	numBits    int
	hds        [3]int // rules, streams, sets
}

func digest(o pipeOut) (pipeDigest, error) {
	img, err := profstore.Encode(o.prof)
	if err != nil {
		return pipeDigest{}, fmt.Errorf("encoding profile: %w", err)
	}
	return pipeDigest{
		profileSHA: sha256.Sum256(img),
		selectors:  o.ref.Selectors,
		numBits:    o.ref.NumBits,
		hds:        [3]int{o.hds.Rules, o.hds.Streams, len(o.hds.Sets)},
	}, nil
}

type pipeline struct {
	progs   []pipeProg
	ref     []pipeDigest
	trials  []trial // the warm-up op's layouts, measured for quality
	mseed   uint64
	machine cache.Config
}

func preparePipeline(seed uint64, _ int) (func() (bench, error), error) {
	return func() (bench, error) {
		p := &pipeline{mseed: derive(seed, "measure", 0), machine: cache.XeonW2195()}
		for i, name := range programs {
			w := workloads.MustGet(name)
			p.progs = append(p.progs, pipeProg{
				w:    w,
				test: w.Build(w.TestScale),
				ref:  w.Build(w.RefScale),
				cfg:  pipelineConfig(w, derive(seed, "train", i)),
			})
		}
		outs, err := p.run(nil)
		if err != nil {
			return nil, err
		}
		for i, o := range outs {
			d, err := digest(o)
			if err != nil {
				return nil, err
			}
			p.ref = append(p.ref, d)
			p.trials = append(p.trials, trial{name: p.progs[i].w.Name, base: p.progs[i].test,
				halo: haloPolicy(p.progs[i].w, o.opt)})
		}
		return p, nil
	}, nil
}

// run is one op: for each program, profile the test input, synthesise the
// layout, run the hot-data-streams analysis and lower the layout onto the
// ref-scale build.
func (p *pipeline) run(t *tracer) ([]pipeOut, error) {
	outs := make([]pipeOut, len(p.progs))
	for i, pp := range p.progs {
		var err error
		if outs[i], err = p.one(pp, t); err != nil {
			return nil, fmt.Errorf("%s: %w", pp.w.Name, err)
		}
	}
	return outs, nil
}

// synthesisStages renames core's and hds's stage spans to layer names. The
// "profile" stage is absent: traced ops compose core.Profile themselves.
var synthesisStages = map[string]string{
	"group":        "group.form",
	"identify":     "identify.build",
	"rewrite":      "rewrite.instrument",
	"lower":        "rewrite.lower",
	"hds/sequitur": "hds.sequitur",
	"hds/sets":     "hds.sets",
	"hds/setpack":  "hds.setpack",
}

func (p *pipeline) one(pp pipeProg, t *tracer) (pipeOut, error) {
	var out pipeOut
	var err error
	if t == nil {
		if out.prof, err = core.Profile(pp.test, pp.cfg); err != nil {
			return out, err
		}
		if out.opt, err = core.OptimizeFromProfile(pp.test, out.prof, pp.cfg); err != nil {
			return out, err
		}
		if out.hds, err = core.AnalyzeHDS(out.opt.Profile, pp.cfg); err != nil {
			return out, err
		}
		out.ref, err = lowerOnto(nil, pp.w, pp.ref, out.opt)
		return out, err
	}

	root := t.root
	if out.prof, err = profileTraced(t, root, pp.test, pp.cfg); err != nil {
		return out, err
	}
	cfg := pp.cfg
	cfg.Trace = obs.NewTrace()
	base := time.Now()
	if out.opt, err = core.OptimizeFromProfile(pp.test, out.prof, cfg); err != nil {
		return out, err
	}
	if out.hds, err = core.AnalyzeHDS(out.opt.Profile, cfg); err != nil {
		return out, err
	}
	t.imported(cfg.Trace.Spans(), base, root, synthesisStages, false)
	if out.ref, err = lowerOnto(t, pp.w, pp.ref, out.opt); err != nil {
		return out, err
	}
	t.count("group.groups", uint64(len(out.opt.Groups)))
	t.count("identify.selectors", uint64(len(out.opt.BitSelectors)))
	t.count("rewrite.sites", uint64(out.opt.Rewrite.NumBits))
	t.count("hds.rules", uint64(out.hds.Rules))
	t.count("hds.streams", uint64(out.hds.Streams))
	t.count("hds.sets", uint64(len(out.hds.Sets)))
	return out, nil
}

func (p *pipeline) op(_ int, t *tracer) (func() error, error) {
	outs, err := p.run(t)
	if err != nil {
		return nil, err
	}
	return func() error {
		for i, o := range outs {
			d, err := digest(o)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(d, p.ref[i]) {
				return fmt.Errorf("%s: profile image or lowered layout differs from the warm-up op's", p.progs[i].w.Name)
			}
		}
		return nil
	}, nil
}

func (p *pipeline) finish() (int, quality, error) {
	pairs := make([][2]measure.RunResult, len(p.trials))
	for i, tr := range p.trials {
		var err error
		if pairs[i], err = tr.pair(p.mseed, p.machine); err != nil {
			return 0, quality{}, err
		}
	}
	q, err := qualityOf(pairs)
	return 0, q, err
}

func (p *pipeline) close() {}
