package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/pool"
	"halo/internal/profile"
	"halo/internal/profstore"
	"halo/internal/service"
	"halo/internal/workloads"
)

// serviceSpec runs 10000 ops at --seconds 20 in 40 rounds of 250. Every
// round requests the same combinations in the same order, starting from an
// empty artifact cache, so the rounds do identical work on a heap that
// does not grow over the run. Short rounds keep that heap small and give
// each op 40 tries at a fast spell of the host (README.md has the
// figures behind this choice). A round's op_tail_s, the op with
// ten slower ones beyond it, is p96. Most of the slowest ops overlap a
// garbage collection, and a p99.9 of all the ops depends on how a handful
// of them line up with one; the median of the rounds' p96 is steadier.
//
// One client drives a halod with one worker, and the client, the server
// and the collector share one P: each request then hands off between
// goroutines on one thread instead of waking a thread on another vCPU,
// whose latency on a shared VM varies with the host's load.
var serviceSpec = spec{
	procs:        1,
	opsPerSecond: 500,
	setups:       9,
	rounds:       40,
	prepare:      prepareService,
}

// offlineWorkers is the width of the unmeasured work: input generation
// and the post-run reference optimizations.
const offlineWorkers = 2

// comboSize is how many uploaded profiles each optimize request names.
const comboSize = 4

// serviceInputs are generated once per process from the seed: the
// omnetpp program image, training profiles recorded at distinct seeds,
// and a seeded order of distinct profile combinations, one per op of a
// round plus one for the warm-up op.
type serviceInputs struct {
	w      workloads.Workload
	image  []byte
	prog   *isa.Program // image decoded, as the server holds it
	blobs  [][]byte
	combos [][comboSize]int
	mseed  uint64 // measurement seed of the layout-quality trial
}

func prepareService(seed uint64, perRound int) (func() (bench, error), error) {
	in := &serviceInputs{w: workloads.MustGet("omnetpp"), mseed: derive(seed, "measure", 0)}
	built := in.w.Build(in.w.TestScale)
	var err error
	if in.image, err = built.Encode(); err != nil {
		return nil, err
	}
	if in.prog, err = isa.Decode(in.image); err != nil {
		return nil, err
	}
	m := comboSize
	for binomial(m, comboSize) < perRound+1 {
		m++
	}
	in.blobs = make([][]byte, m)
	err = pool.Map(m, offlineWorkers, func(j int) error {
		prof, err := core.Profile(built, core.Config{ProfileSeed: derive(seed, "service-train", j)})
		if err != nil {
			return err
		}
		in.blobs[j], err = profstore.Encode(prof)
		return err
	})
	if err != nil {
		return nil, err
	}
	seen := map[[32]byte]bool{}
	for j, blob := range in.blobs {
		sum := sha256.Sum256(blob)
		if seen[sum] {
			return nil, fmt.Errorf("training run %d repeated an earlier profile", j)
		}
		seen[sum] = true
	}
	in.combos = combinations(m)
	rng := rand.New(rand.NewPCG(derive(seed, "combos", 0), 0))
	rng.Shuffle(len(in.combos), func(a, b int) { in.combos[a], in.combos[b] = in.combos[b], in.combos[a] })
	in.combos = in.combos[:perRound+1]
	return func() (bench, error) { return startService(in) }, nil
}

func binomial(n, k int) int {
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

// combinations lists every comboSize-subset of 0..m-1 in lexicographic order.
func combinations(m int) [][comboSize]int {
	var out [][comboSize]int
	var cur [comboSize]int
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == comboSize {
			out = append(out, cur)
			return
		}
		for j := start; j < m; j++ {
			cur[depth] = j
			rec(j+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}

// halodJobHistory is halod's default job history (service.Config.JobHistory
// left at zero). Set-up fills it, so every measured op's jobs evict the
// oldest ones, as they do on a halod that has been up for a while.
const halodJobHistory = 4096

// svc is an in-process halod behind a loopback listener.
type svc struct {
	in       *serviceInputs
	perRound int
	srv      *service.Server
	hs       *http.Server
	served   chan struct{} // closed when hs.Serve returns
	client   *http.Client
	base     string
	progID   string
	profIDs  []string
	warm     [32]byte   // the warm-up op's binary hash
	binaries [][32]byte // per combination, the served binary's hash; zero until an op passes its inline checks
	passed   []int      // per combination, the ops that passed their inline checks
}

func startService(in *serviceInputs) (bench, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &svc{
		in:       in,
		perRound: len(in.combos) - 1,
		srv:      service.New(service.Config{Workers: 1, TrainingWorkers: 1}),
		served:   make(chan struct{}),
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		base:     "http://" + ln.Addr().String(),
		binaries: make([][32]byte, len(in.combos)-1),
		passed:   make([]int, len(in.combos)-1),
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	if err := s.upload(); err != nil {
		s.close()
		return nil, err
	}
	// The warm-up op takes the combination reserved past a round's ops.
	r, err := s.request(s.perRound, nil)
	if err == nil {
		s.warm, err = s.verify(r)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	if err := s.fillHistory(); err != nil {
		s.close()
		return nil, fmt.Errorf("filling the job history: %w", err)
	}
	return s, nil
}

// fillHistory repeats the warm-up request until halod's job history is
// full. Each repeat is a cache hit that still records a job, and the
// check that halod has begun to evict shows the history is at capacity.
func (s *svc) fillHistory() error {
	body, err := json.Marshal(service.OptimizeRequest{Program: s.progID, Profiles: s.comboIDs(s.perRound)})
	if err != nil {
		return err
	}
	for k := 0; k < halodJobHistory; k++ {
		var st service.JobStatus
		if err := s.call("POST", "/v1/optimize", body, &st); err != nil {
			return err
		}
		if !st.Cached {
			return errors.New("repeat of the warm-up request was not cached")
		}
	}
	var jobs []service.JobStatus
	if err := s.call("GET", "/v1/jobs", nil, &jobs); err != nil {
		return err
	}
	if created := 2 + halodJobHistory; len(jobs) >= created {
		return fmt.Errorf("halod kept all %d jobs; its history is larger than %d", created, halodJobHistory)
	}
	return nil
}

func (s *svc) comboIDs(i int) []string {
	ids := make([]string, 0, comboSize)
	for _, j := range s.in.combos[i] {
		ids = append(ids, s.profIDs[j])
	}
	return ids
}

func (s *svc) upload() error {
	var prog struct{ ID string }
	if err := s.call("POST", "/v1/programs", s.in.image, &prog); err != nil {
		return err
	}
	s.progID = prog.ID
	for _, blob := range s.in.blobs {
		var pe struct{ ID string }
		if err := s.call("POST", "/v1/profiles", blob, &pe); err != nil {
			return err
		}
		s.profIDs = append(s.profIDs, pe.ID)
	}
	return nil
}

// call makes one request and decodes its JSON answer into out; fetch
// also returns the answer's body, and decodes it only when out is non-nil.
func (s *svc) call(method, path string, body []byte, out any) error {
	_, err := s.fetch(method, path, body, out)
	return err
}

func (s *svc) fetch(method, path string, body []byte, out any) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return data, nil
}

// reply is what one op got back.
type reply struct {
	first, done    service.JobStatus
	repeat         service.JobStatus
	binary, policy []byte
}

// request is one op's request sequence: a cold optimize naming
// combination c, a wait for the job, its binary and policy, and a repeat
// of the optimize that the artifact cache must answer.
func (s *svc) request(c int, t *tracer) (reply, error) {
	var r reply
	body, err := json.Marshal(service.OptimizeRequest{Program: s.progID, Profiles: s.comboIDs(c)})
	if err != nil {
		return r, err
	}
	root := t.rootID()
	postStart := time.Now()
	id := t.begin("http.optimize", root)
	err = s.call("POST", "/v1/optimize", body, &r.first)
	t.end(id)
	if err != nil {
		return r, err
	}
	job := "/v1/jobs/" + r.first.ID
	id = t.begin("http.wait", root)
	err = s.call("GET", job+"?wait=1", nil, &r.done)
	t.end(id)
	if err != nil {
		return r, err
	}
	if t != nil && r.done.Result != nil {
		// A worker runs the job from the moment the POST queues it, so its
		// stages overlap both http.optimize and http.wait: they are async
		// children of the op, timed by halod itself.
		t.imported(r.done.Result.Stages, postStart, root, jobStages, true)
		t.count("group.groups", uint64(r.done.Result.Groups))
		t.count("identify.selectors", uint64(r.done.Result.Selectors))
		t.count("rewrite.sites", uint64(r.done.Result.NumBits))
	}
	id = t.begin("http.binary", root)
	r.binary, err = s.fetch("GET", job+"/binary", nil, nil)
	t.end(id)
	if err != nil {
		return r, err
	}
	id = t.begin("http.policy", root)
	r.policy, err = s.fetch("GET", job+"/policy", nil, nil)
	t.end(id)
	if err != nil {
		return r, err
	}
	id = t.begin("http.cached", root)
	err = s.call("POST", "/v1/optimize", body, &r.repeat)
	t.end(id)
	// The artifact cache's outcomes, as halod counts them.
	for _, st := range []service.JobStatus{r.first, r.repeat} {
		switch {
		case st.Cached:
			t.count("service.cache_hits", 1)
		case st.Coalesced:
			t.count("service.coalesced", 1)
		default:
			t.count("service.cache_misses", 1)
		}
	}
	return r, err
}

// jobStages renames a halod job's stage spans.
var jobStages = map[string]string{
	"profile":  "job.profile",
	"group":    "job.group",
	"identify": "job.identify",
	"rewrite":  "job.rewrite",
	"lower":    "job.lower",
}

// verify makes an op's inline checks and returns its binary's hash for
// the reference comparison in finish.
func (s *svc) verify(r reply) ([32]byte, error) {
	var none [32]byte
	switch {
	case r.first.Cached || r.first.Coalesced:
		return none, fmt.Errorf("fresh combination answered cached=%v coalesced=%v", r.first.Cached, r.first.Coalesced)
	case r.done.State != "done" || r.done.Result == nil:
		return none, fmt.Errorf("job %s is %q: %s", r.done.ID, r.done.State, r.done.Error)
	case !r.repeat.Cached || r.repeat.Key != r.first.Key:
		return none, fmt.Errorf("repeat request: cached=%v key %s, want cached key %s", r.repeat.Cached, r.repeat.Key, r.first.Key)
	}
	if _, err := isa.Decode(r.binary); err != nil {
		return none, fmt.Errorf("served binary: %w", err)
	}
	var pol service.PolicyDoc
	if err := json.Unmarshal(r.policy, &pol); err != nil {
		return none, fmt.Errorf("served policy: %w", err)
	}
	if pol.Program != s.in.prog.Name || pol.NumBits != r.done.Result.NumBits {
		return none, fmt.Errorf("served policy is for %q with %d bits, job has %d", pol.Program, pol.NumBits, r.done.Result.NumBits)
	}
	return sha256.Sum256(r.binary), nil
}

// beforeRound empties the artifact cache, so that the round's
// combinations are fresh again.
func (s *svc) beforeRound() error {
	return s.call("DELETE", "/v1/cache", nil, nil)
}

func (s *svc) op(i int, t *tracer) (func() error, error) {
	c := i % s.perRound
	r, err := s.request(c, t)
	if err != nil {
		return nil, err
	}
	return func() error {
		sum, err := s.verify(r)
		if err != nil {
			return err
		}
		if s.binaries[c] == ([32]byte{}) {
			s.binaries[c] = sum
		} else if s.binaries[c] != sum {
			return errors.New("served binary differs from an earlier round's")
		}
		s.passed[c]++
		return nil
	}, nil
}

// reference is the in-process optimization of a combination: the same
// decode, merge and synthesis halod runs, without the server.
func (s *svc) reference(combo [comboSize]int) (*core.Optimized, error) {
	profs := make([]*profile.Profile, 0, comboSize)
	for _, j := range combo {
		p, err := profstore.Decode(s.in.blobs[j])
		if err != nil {
			return nil, err
		}
		profs = append(profs, p)
	}
	merged, err := profstore.MergeWithCoverage(profstore.DefaultCoverage, profs...)
	if err != nil {
		return nil, err
	}
	merged.Prog = s.in.prog
	return core.OptimizeFromProfile(s.in.prog, merged, core.Config{SynthesisWorkers: 1})
}

// finish compares each combination's served binary with its in-process
// reference and measures the warm-up combination's layout.
func (s *svc) finish() (int, quality, error) {
	var failed atomic.Int64
	err := pool.Map(len(s.binaries), offlineWorkers, func(i int) error {
		sum := s.binaries[i]
		if sum == ([32]byte{}) {
			return nil // failed its inline checks in every round; already counted
		}
		if s.matchesReference(i, sum) != nil {
			failed.Add(int64(s.passed[i]))
		}
		return nil
	})
	if err != nil {
		return 0, quality{}, err
	}
	n := int(failed.Load())
	warm, err := s.reference(s.in.combos[s.perRound])
	if err != nil {
		return n, quality{}, err
	}
	if err := s.matchesReference(s.perRound, s.warm); err != nil {
		return n, quality{}, err
	}
	pair, err := trial{name: s.in.w.Name, base: s.in.prog, halo: haloPolicy(s.in.w, warm)}.
		pair(s.in.mseed, cache.XeonW2195())
	if err != nil {
		return n, quality{}, err
	}
	q, err := qualityOf([][2]measure.RunResult{pair})
	return n, q, err
}

func (s *svc) matchesReference(i int, sum [32]byte) error {
	opt, err := s.reference(s.in.combos[i])
	if err != nil {
		return err
	}
	img, err := opt.Rewrite.Prog.Encode()
	if err != nil {
		return err
	}
	if sha256.Sum256(img) != sum {
		return errors.New("served binary differs from the in-process optimization")
	}
	return nil
}

func (s *svc) close() {
	s.hs.Close()
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
}
