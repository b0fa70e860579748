package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"halo/internal/core"
	"halo/internal/group"
	"halo/internal/isa"
	"halo/internal/policy"
	"halo/internal/profile"
	"halo/internal/profstore"
	"halo/internal/workloads"
)

// testClient wraps the raw HTTP interactions the e2e tests repeat.
type testClient struct {
	t   *testing.T
	url string
}

func newTestServer(t *testing.T, cfg Config) (*Server, *testClient) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, &testClient{t: t, url: ts.URL}
}

func (c *testClient) post(path string, body []byte, out any) (int, string) {
	c.t.Helper()
	resp, err := http.Post(c.url+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		c.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			c.t.Fatalf("POST %s: bad JSON %q: %v", path, data, err)
		}
	}
	return resp.StatusCode, string(data)
}

func (c *testClient) postJSON(path string, req any, out any) (int, string) {
	c.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		c.t.Fatal(err)
	}
	return c.post(path, body, out)
}

func (c *testClient) get(path string, out any) (int, []byte) {
	c.t.Helper()
	resp, err := http.Get(c.url + path)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			c.t.Fatalf("GET %s: bad JSON %q: %v", path, data, err)
		}
	}
	return resp.StatusCode, data
}

// uploadProgram builds a workload at test scale and uploads its image.
func (c *testClient) uploadProgram(name string) (string, *isa.Program) {
	c.t.Helper()
	w := workloads.MustGet(name)
	p := w.Build(w.TestScale)
	img, err := p.Encode()
	if err != nil {
		c.t.Fatal(err)
	}
	var resp struct {
		ID   string `json:"id"`
		Name string `json:"name"`
	}
	if code, body := c.post("/v1/programs", img, &resp); code != http.StatusOK {
		c.t.Fatalf("program upload: %d %s", code, body)
	}
	if resp.Name != name {
		c.t.Fatalf("uploaded program name = %q, want %q", resp.Name, name)
	}
	return resp.ID, p
}

// uploadProfile profiles the program in-process at the given seed (as a
// training machine would) and uploads the encoded profile.
func (c *testClient) uploadProfile(p *isa.Program, seed uint64) string {
	c.t.Helper()
	id, _ := c.uploadProfileWith(p, core.Config{ProfileSeed: seed})
	return id
}

// uploadProfileWith profiles the program in-process under cfg and uploads
// the encoded profile, returning its id and image.
func (c *testClient) uploadProfileWith(p *isa.Program, cfg core.Config) (string, []byte) {
	c.t.Helper()
	prof, err := core.Profile(p, cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	blob, err := profstore.Encode(prof)
	if err != nil {
		c.t.Fatal(err)
	}
	var resp struct {
		ID string `json:"id"`
	}
	if code, body := c.post("/v1/profiles", blob, &resp); code != http.StatusOK {
		c.t.Fatalf("profile upload: %d %s", code, body)
	}
	return resp.ID, blob
}

// optimizeWait submits an optimize request and waits for the job to settle.
func (c *testClient) optimizeWait(req OptimizeRequest) JobStatus {
	c.t.Helper()
	var st JobStatus
	code, body := c.postJSON("/v1/optimize", req, &st)
	if code != http.StatusOK && code != http.StatusAccepted {
		c.t.Fatalf("optimize: %d %s", code, body)
	}
	if code, _ := c.get("/v1/jobs/"+st.ID+"?wait=1", &st); code != http.StatusOK {
		c.t.Fatalf("job wait: %d", code)
	}
	if st.State != "done" {
		c.t.Fatalf("job %s state = %s (%s)", st.ID, st.State, st.Error)
	}
	return st
}

// TestServiceEndToEnd is the tentpole's acceptance flow: profile two
// workloads at two seeds each (client side, as a training fleet would),
// upload everything, merge per workload on the server, optimize through
// the running server, and verify the served artifacts against the local
// OptimizeFromProfile path.
func TestServiceEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4})

	for _, name := range []string{"art", "povray"} {
		t.Run(name, func(t *testing.T) {
			progID, prog := c.uploadProgram(name)
			profA := c.uploadProfile(prog, 3)
			profB := c.uploadProfile(prog, 5)

			// Server-side merge of the two training runs.
			var merged struct {
				ID   string `json:"id"`
				Prog string `json:"prog"`
			}
			code, body := c.postJSON("/v1/profiles/merge",
				map[string]any{"profiles": []string{profA, profB}}, &merged)
			if code != http.StatusOK {
				t.Fatalf("merge: %d %s", code, body)
			}
			if merged.Prog != name {
				t.Fatalf("merged profile program = %q, want %q", merged.Prog, name)
			}

			// Optimize with the merged profile through the server.
			st := c.optimizeWait(OptimizeRequest{Program: progID, Profiles: []string{merged.ID}})
			if st.Result == nil || st.Result.Groups == 0 || st.Result.Selectors == 0 {
				t.Fatalf("served result has no policy: %+v", st.Result)
			}

			// The served artifacts must decode and match the local
			// OptimizeFromProfile run over the same merged profile. The
			// served report carries an appended stage-timings section the
			// local GroupReport does not.
			_, servedReport := c.get("/v1/jobs/"+st.ID+"/report", nil)
			report, _, hasStages := bytes.Cut(servedReport, []byte("\nstage timings:\n"))
			if !hasStages {
				t.Error("served report has no stage timings section")
			}
			_, binary := c.get("/v1/jobs/"+st.ID+"/binary", nil)
			var pol PolicyDoc
			if code, _ := c.get("/v1/jobs/"+st.ID+"/policy", &pol); code != http.StatusOK {
				t.Fatalf("policy fetch: %d", code)
			}
			rewritten, err := isa.Decode(binary)
			if err != nil {
				t.Fatalf("served binary does not decode: %v", err)
			}
			if rewritten.Name != name {
				t.Fatalf("served binary is %q, want %q", rewritten.Name, name)
			}

			profLocalA, err := core.Profile(prog, core.Config{ProfileSeed: 3})
			if err != nil {
				t.Fatal(err)
			}
			profLocalB, err := core.Profile(prog, core.Config{ProfileSeed: 5})
			if err != nil {
				t.Fatal(err)
			}
			mergedLocal, err := profstore.Merge(profLocalA, profLocalB)
			if err != nil {
				t.Fatal(err)
			}
			optLocal, err := core.OptimizeFromProfile(prog, mergedLocal, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := string(report), optLocal.GroupReport(); got != want {
				t.Errorf("served report differs from local pipeline:\n--- served\n%s\n--- local\n%s", got, want)
			}
			if st.Result.Groups != len(optLocal.Groups) {
				t.Errorf("served %d groups, local %d", st.Result.Groups, len(optLocal.Groups))
			}
			if pol.NumBits != optLocal.Rewrite.NumBits || len(pol.Selectors) != len(optLocal.BitSelectors) {
				t.Errorf("served policy (%d bits, %d selectors) differs from local (%d, %d)",
					pol.NumBits, len(pol.Selectors), optLocal.Rewrite.NumBits, len(optLocal.BitSelectors))
			}

			// A repeated identical request is served from the artifact
			// cache, deterministically.
			st2 := c.optimizeWait(OptimizeRequest{Program: progID, Profiles: []string{merged.ID}})
			if !st2.Cached {
				t.Fatalf("repeated request was not a cache hit: %+v", st2)
			}
			if st2.Key != st.Key {
				t.Fatalf("repeated request keyed differently: %s vs %s", st2.Key, st.Key)
			}
			_, report2 := c.get("/v1/jobs/"+st2.ID+"/report", nil)
			if !bytes.Equal(servedReport, report2) {
				t.Fatal("cached artifact differs from original")
			}
		})
	}

	var stats Stats
	if code, _ := c.get("/v1/stats", &stats); code != http.StatusOK {
		t.Fatal("stats fetch failed")
	}
	if stats.CacheHits < 2 {
		t.Errorf("cache hits = %d, want >= 2", stats.CacheHits)
	}
	if stats.JobsFailed != 0 {
		t.Errorf("jobs failed = %d", stats.JobsFailed)
	}
}

// TestServiceConcurrentOptimize drives 16 concurrent optimize requests (8+
// distinct cache keys per program) through a pool of 8 workers.
func TestServiceConcurrentOptimize(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 8})

	type target struct {
		progID string
		seed   uint64
	}
	var targets []target
	for _, name := range []string{"art", "povray"} {
		progID, _ := c.uploadProgram(name)
		for seed := uint64(1); seed <= 8; seed++ {
			targets = append(targets, target{progID, seed})
		}
	}
	if len(targets) < 16 {
		t.Fatalf("only %d targets", len(targets))
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(targets))
	for _, tgt := range targets {
		wg.Add(1)
		go func(tgt target) {
			defer wg.Done()
			// No profiles named: the server runs the training workload
			// itself, so every request is real pipeline work.
			var st JobStatus
			code, body := c.postJSON("/v1/optimize", OptimizeRequest{
				Program: tgt.progID,
				Config:  OptimizeConfig{ProfileSeed: tgt.seed},
			}, &st)
			if code != http.StatusOK && code != http.StatusAccepted {
				errs <- fmt.Errorf("optimize: %d %s", code, body)
				return
			}
			if code, _ := c.get("/v1/jobs/"+st.ID+"?wait=1", &st); code != http.StatusOK {
				errs <- fmt.Errorf("job wait: %d", code)
				return
			}
			if st.State != "done" {
				errs <- fmt.Errorf("job %s: %s (%s)", st.ID, st.State, st.Error)
				return
			}
			if st.Result == nil || st.Result.Groups == 0 {
				errs <- fmt.Errorf("job %s: empty result", st.ID)
			}
		}(tgt)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	stats := s.Stats()
	if stats.JobsDone < uint64(len(targets)) {
		t.Errorf("jobs done = %d, want >= %d", stats.JobsDone, len(targets))
	}
	if stats.JobsFailed != 0 {
		t.Errorf("jobs failed = %d", stats.JobsFailed)
	}
}

// TestServiceCoalescing checks that identical requests either coalesce onto
// one in-flight job or hit the cache — the pipeline runs at most once.
func TestServiceCoalescing(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	progID, _ := c.uploadProgram("art")

	req := OptimizeRequest{Program: progID, Config: OptimizeConfig{ProfileSeed: 42}}
	const n = 6
	var wg sync.WaitGroup
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys[i] = c.optimizeWait(req).Key
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if keys[i] != keys[0] {
			t.Fatalf("request %d keyed %s, want %s", i, keys[i], keys[0])
		}
	}
	stats := s.Stats()
	if stats.JobsDone != 1 {
		t.Errorf("pipeline ran %d times for %d identical requests, want 1", stats.JobsDone, n)
	}
	if stats.CacheHits+stats.Coalesced != n-1 {
		t.Errorf("hits+coalesced = %d+%d, want %d", stats.CacheHits, stats.Coalesced, n-1)
	}
}

// TestServiceValidation covers the API's error paths.
func TestServiceValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	artID, artProg := c.uploadProgram("art")
	povID, povProg := c.uploadProgram("povray")
	artProf := c.uploadProfile(artProg, 3)
	povProf := c.uploadProfile(povProg, 3)

	if code, _ := c.post("/v1/programs", []byte("not a program"), nil); code != http.StatusBadRequest {
		t.Errorf("garbage program upload: %d, want 400", code)
	}
	if code, _ := c.post("/v1/profiles", []byte("not a profile"), nil); code != http.StatusBadRequest {
		t.Errorf("garbage profile upload: %d, want 400", code)
	}
	if code, _ := c.postJSON("/v1/optimize", OptimizeRequest{Program: "missing"}, nil); code != http.StatusNotFound {
		t.Errorf("optimize of unknown program: %d, want 404", code)
	}
	if code, _ := c.postJSON("/v1/optimize",
		OptimizeRequest{Program: artID, Profiles: []string{"missing"}}, nil); code != http.StatusNotFound {
		t.Errorf("optimize with unknown profile: %d, want 404", code)
	}
	if code, body := c.postJSON("/v1/optimize",
		OptimizeRequest{Program: artID, Profiles: []string{povProf}}, nil); code != http.StatusBadRequest {
		t.Errorf("cross-program optimize: %d %s, want 400", code, body)
	}
	if code, body := c.postJSON("/v1/profiles/merge",
		map[string]any{"profiles": []string{artProf, povProf}}, nil); code != http.StatusBadRequest {
		t.Errorf("cross-program merge: %d %s, want 400", code, body)
	}
	if code, _ := c.get("/v1/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	for _, bad := range []OptimizeConfig{{Coverage: -1}, {Coverage: 2}, {MaxGroups: -3}} {
		if code, body := c.postJSON("/v1/optimize",
			OptimizeRequest{Program: artID, Profiles: []string{artProf}, Config: bad}, nil); code != http.StatusBadRequest {
			t.Errorf("bad config %+v: %d %s, want 400", bad, code, body)
		}
	}
	// Unknown keys are refused, not dropped: merging takes no coverage,
	// and a misspelt option would otherwise run at its default.
	if code, body := c.postJSON("/v1/profiles/merge",
		map[string]any{"profiles": []string{artProf}, "coverage": 0.5}, nil); code != http.StatusBadRequest {
		t.Errorf("merge with a coverage key: %d %s, want 400", code, body)
	}
	if code, body := c.postJSON("/v1/optimize", map[string]any{
		"program": artID, "profiles": []string{artProf}, "config": map[string]any{"max_group": 1},
	}, nil); code != http.StatusBadRequest {
		t.Errorf("optimize with the misspelt key max_group: %d %s, want 400", code, body)
	}
	if code, _ := c.get("/v1/programs/"+strings.Repeat("0", 64), nil); code != http.StatusNotFound {
		t.Errorf("unknown program fetch: %d, want 404", code)
	}
	if code, _ := c.get("/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
	_ = povID
}

// TestVersion3ProfileRefused: a version-3 image, which carried the
// reference trace, is refused by its version number, by the decoder and
// by the upload endpoint alike.
func TestVersion3ProfileRefused(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	_, p := c.uploadProgram("art")
	_, img := c.uploadProfileWith(p, core.Config{ProfileSeed: 3})
	// The same image as version 3 wrote it: a trailing trace section of
	// one ref (serial 1, site 12, 16 bytes) before the checksum.
	v3 := append(bytes.Clone(img[:len(img)-4]), 1, 1, 12, 16)
	v3[len("HPRO")] = 3
	v3 = binary.LittleEndian.AppendUint32(v3, crc32.ChecksumIEEE(v3))
	const want = "unsupported version 3"
	if _, err := profstore.Decode(v3); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Decode of a version-3 image: err = %v, want %q", err, want)
	}
	if code, body := c.post("/v1/profiles", v3, nil); code != http.StatusBadRequest || !strings.Contains(body, want) {
		t.Fatalf("version-3 upload: %d %s, want 400 naming the version", code, body)
	}
}

// TestSingleProfileCoverageApplies guards the single-profile optimize
// path: the request's coverage must reach the filter synthesis applies to
// the stored profile's raw graph, and filtering must not write to the
// profile the server shares between jobs.
func TestSingleProfileCoverageApplies(t *testing.T) {
	w := workloads.MustGet("art")
	p := w.Build(w.TestScale)
	prof, err := core.Profile(p, core.Config{ProfileSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := profstore.Encode(prof)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := profstore.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	raw := stored.RawGraph.String()
	synth := func(prof *profile.Profile, coverage float64) *core.Optimized {
		t.Helper()
		merged, err := profstore.Merge(prof)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := core.OptimizeFromProfile(p, merged, OptimizeConfig{Coverage: coverage}.coreConfig())
		if err != nil {
			t.Fatal(err)
		}
		return opt
	}
	def, fresh := synth(stored, 0), synth(prof, 0)
	if def.Graph.String() != fresh.Graph.String() {
		t.Fatalf("the stored profile filters to %d nodes, the fresh one to %d",
			def.Graph.NumNodes(), fresh.Graph.NumNodes())
	}
	if full := synth(stored, 1.0); full.Graph.NumNodes() <= def.Graph.NumNodes() {
		t.Fatalf("coverage 1.0 kept %d nodes, default kept %d; expected more",
			full.Graph.NumNodes(), def.Graph.NumNodes())
	}
	if stored.RawGraph.String() != raw {
		t.Fatal("filtering wrote to the stored profile")
	}
}

// TestZeroCoverageIsDefaultForOneProfile checks that a job naming one
// profile reads coverage 0 as the paper's default, as a job naming several
// does.
func TestZeroCoverageIsDefaultForOneProfile(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	progID, prog := c.uploadProgram("art")
	profID, _ := c.uploadProfileWith(prog, core.Config{ProfileSeed: 3})

	nodesLine := func(coverage float64) string {
		st := c.optimizeWait(OptimizeRequest{
			Program:  progID,
			Profiles: []string{profID},
			Config:   OptimizeConfig{Coverage: coverage},
		})
		_, report := c.get("/v1/jobs/"+st.ID+"/report", nil)
		line, _, _ := strings.Cut(string(report), "\n")
		return line
	}
	zero, def := nodesLine(0), nodesLine(group.DefaultCoverage)
	if zero != def {
		t.Fatalf("coverage 0 reports %q, coverage %v reports %q", zero, group.DefaultCoverage, def)
	}
	if half := nodesLine(0.5); half == def {
		t.Fatalf("coverage 0.5 reports %q, as the default does; the check would be vacuous", half)
	}
}

// TestConcurrentJobsShareStoredProfile runs jobs with different
// configurations over one stored profile at once. Each served policy must
// equal the one built in-process from a freshly decoded copy, so no job
// sees another's writes to the profile they share.
func TestConcurrentJobsShareStoredProfile(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4})
	progID, prog := c.uploadProgram("povray")
	idA, blobA := c.uploadProfileWith(prog, core.Config{ProfileSeed: 3})
	idB, blobB := c.uploadProfileWith(prog, core.Config{ProfileSeed: 5})

	decode := func(blob []byte) *profile.Profile {
		p, err := profstore.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	type variant struct {
		name     string
		profiles []string
		cfg      OptimizeConfig
	}
	variants := []variant{
		{"default", []string{idA}, OptimizeConfig{}},
		{"max_groups=1", []string{idA}, OptimizeConfig{MaxGroups: 1}},
		{"coverage=1", []string{idA}, OptimizeConfig{Coverage: 1.0}},
		{"merge", []string{idA, idB}, OptimizeConfig{}},
	}
	want := make([][]byte, len(variants))
	for i, v := range variants {
		profs := []*profile.Profile{decode(blobA)}
		if len(v.profiles) == 2 {
			profs = append(profs, decode(blobB))
		}
		prof, err := profstore.Merge(profs...)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := core.OptimizeFromProfile(prog, prof, v.cfg.coreConfig())
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.MarshalIndent(policy.New(opt, policy.Halloc{}), "", "  "); err != nil {
			t.Fatal(err)
		}
	}

	// ProfileSeed does not affect a job that names profiles, but it is
	// part of the cache key, so each seed makes every variant a job of
	// its own.
	const seeds = 3
	var wg sync.WaitGroup
	errs := make(chan error, seeds*len(variants))
	for seed := uint64(1); seed <= seeds; seed++ {
		for i, v := range variants {
			wg.Add(1)
			go func(seed uint64, i int, v variant) {
				defer wg.Done()
				cfg := v.cfg
				cfg.ProfileSeed = seed
				var st JobStatus
				code, body := c.postJSON("/v1/optimize",
					OptimizeRequest{Program: progID, Profiles: v.profiles, Config: cfg}, &st)
				if code != http.StatusAccepted {
					errs <- fmt.Errorf("%s seed %d: optimize: %d %s", v.name, seed, code, body)
					return
				}
				if code, _ := c.get("/v1/jobs/"+st.ID+"?wait=1", &st); code != http.StatusOK || st.State != "done" {
					errs <- fmt.Errorf("%s seed %d: job %s: %d %s (%s)", v.name, seed, st.ID, code, st.State, st.Error)
					return
				}
				if _, got := c.get("/v1/jobs/"+st.ID+"/policy", nil); !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("%s seed %d: served policy differs from the in-process one", v.name, seed)
				}
			}(seed, i, v)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestJobHistoryBounded checks settled jobs are evicted past the limit.
func TestJobHistoryBounded(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, JobHistory: 4})
	progID, prog := c.uploadProgram("art")
	profID := c.uploadProfile(prog, 3)
	req := OptimizeRequest{Program: progID, Profiles: []string{profID}}

	c.optimizeWait(req) // real run
	for i := 0; i < 10; i++ {
		c.optimizeWait(req) // cache hits, each still a job record
	}
	s.mu.Lock()
	jobs, settled := len(s.jobs), len(s.settled)
	s.mu.Unlock()
	if jobs > 4 || settled > 4 {
		t.Fatalf("job history not bounded: %d jobs, %d settled entries", jobs, settled)
	}
	// The artifact cache must survive eviction.
	if got := c.optimizeWait(req); !got.Cached {
		t.Fatal("artifact lost with job eviction")
	}
}

// TestJobHistoryKeepsUnsettledJobs: the oldest job stays running while
// JobHistory+N newer jobs settle. It must survive every eviction, the
// history must stay within JobHistory plus that one unsettled job, and
// /v1/jobs must list what remains in creation order. Once the old job
// settles, it is evicted like any other.
func TestJobHistoryKeepsUnsettledJobs(t *testing.T) {
	const history = 4
	s, c := newTestServer(t, Config{Workers: 1, JobHistory: history})
	s.mu.Lock()
	old := s.newJobLocked(OptimizeRequest{}, "old")
	old.State = "running"
	var last *Job
	maxLen := 0
	for i := 0; i < history+6; i++ {
		last = s.newJobLocked(OptimizeRequest{}, fmt.Sprint(i))
		maxLen = max(maxLen, len(s.jobs))
		s.settleLocked(last, "done")
	}
	_, kept := s.jobs[old.ID]
	s.mu.Unlock()
	if !kept {
		t.Fatal("running job evicted")
	}
	if maxLen > history+1 {
		t.Fatalf("history held %d jobs, want at most %d", maxLen, history+1)
	}
	var list []JobStatus
	c.get("/v1/jobs", &list)
	if len(list) == 0 || list[0].ID != old.ID || list[len(list)-1].ID != last.ID {
		t.Fatalf("/v1/jobs = %+v, want %s first and %s last", list, old.ID, last.ID)
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatalf("/v1/jobs out of creation order: %s before %s", list[i-1].ID, list[i].ID)
		}
	}

	s.mu.Lock()
	s.settleLocked(old, "done")
	for i := 0; i < history; i++ {
		s.settleLocked(s.newJobLocked(OptimizeRequest{}, fmt.Sprint("after", i)), "done")
	}
	_, kept = s.jobs[old.ID]
	n := len(s.jobs)
	s.mu.Unlock()
	if kept || n > history {
		t.Fatalf("after settling: old job kept = %v, %d jobs (limit %d)", kept, n, history)
	}
}

// BenchmarkNewJobFullHistory is the cost of recording one settled job once
// the default history is full, so every new job evicts one.
func BenchmarkNewJobFullHistory(b *testing.B) {
	s := New(Config{Workers: 1})
	defer s.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.cfg.JobHistory; i++ {
		s.settleLocked(s.newJobLocked(OptimizeRequest{}, ""), "done")
	}
	for b.Loop() {
		s.settleLocked(s.newJobLocked(OptimizeRequest{}, ""), "done")
	}
}

// TestServiceCacheFlush checks DELETE /v1/cache forces recomputation.
func TestServiceCacheFlush(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	progID, prog := c.uploadProgram("art")
	profID := c.uploadProfile(prog, 3)
	req := OptimizeRequest{Program: progID, Profiles: []string{profID}}

	first := c.optimizeWait(req)
	if first.Cached {
		t.Fatal("first request cannot be a cache hit")
	}
	if got := c.optimizeWait(req); !got.Cached {
		t.Fatal("second request should hit the cache")
	}
	httpReq, _ := http.NewRequest(http.MethodDelete, c.url+"/v1/cache", nil)
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	third := c.optimizeWait(req)
	if third.Cached {
		t.Fatal("post-flush request should recompute")
	}
	if s.Stats().JobsDone != 2 {
		t.Errorf("jobs done = %d, want 2", s.Stats().JobsDone)
	}
}

// TestServiceTrainingRuns exercises the server-side concurrent training
// path: a request asking for several training runs must produce the same
// artifact at any training-pool width (set through GOMAXPROCS), must match
// the equivalent client-side profile-then-merge request, and must key the
// cache separately from a single-run request.
func TestServiceTrainingRuns(t *testing.T) {
	artifactsAt := func(procs int) (single, multi []byte) {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		_, c := newTestServer(t, Config{Workers: 2})
		progID, _ := c.uploadProgram("art")

		one := c.optimizeWait(OptimizeRequest{
			Program: progID,
			Config:  OptimizeConfig{ProfileSeed: 3},
		})
		many := c.optimizeWait(OptimizeRequest{
			Program: progID,
			Config:  OptimizeConfig{ProfileSeed: 3, TrainingRuns: 3},
		})
		if one.Key == many.Key {
			t.Fatal("training_runs must participate in the cache key")
		}
		if many.Cached {
			t.Fatal("multi-run request cannot hit the single-run cache entry")
		}
		_, singleBin := c.get("/v1/jobs/"+one.ID+"/binary", nil)
		_, multiBin := c.get("/v1/jobs/"+many.ID+"/binary", nil)
		return singleBin, multiBin
	}

	serialSingle, serialMulti := artifactsAt(1)
	for _, procs := range []int{2, 4, 8} {
		single, multi := artifactsAt(procs)
		if !bytes.Equal(serialSingle, single) {
			t.Fatalf("single-run artifact at GOMAXPROCS %d differs from GOMAXPROCS 1", procs)
		}
		if !bytes.Equal(serialMulti, multi) {
			t.Fatalf("multi-run artifact at GOMAXPROCS %d differs from GOMAXPROCS 1", procs)
		}
	}
	if len(serialMulti) == 0 {
		t.Fatal("multi-run artifact is empty")
	}

	// The server's multi-run artifact must equal the client-side path:
	// profile each seed locally, upload, and optimize from the profiles.
	_, c := newTestServer(t, Config{Workers: 2})
	progID, p := c.uploadProgram("art")
	var profIDs []string
	for seed := uint64(3); seed <= 5; seed++ {
		profIDs = append(profIDs, c.uploadProfile(p, seed))
	}
	st := c.optimizeWait(OptimizeRequest{Program: progID, Profiles: profIDs})
	_, clientBin := c.get("/v1/jobs/"+st.ID+"/binary", nil)
	if !bytes.Equal(clientBin, serialMulti) {
		t.Fatalf("server-side training (%d bytes) differs from client-side merge (%d bytes)",
			len(serialMulti), len(clientBin))
	}

	// Cache-key normalization: training_runs is ignored when profiles are
	// named, and 1 is the single-run path — equivalent requests must share
	// one artifact instead of spuriously missing the cache.
	withRuns := c.optimizeWait(OptimizeRequest{
		Program: progID, Profiles: profIDs,
		Config: OptimizeConfig{TrainingRuns: 3},
	})
	if withRuns.Key != st.Key || !withRuns.Cached {
		t.Fatalf("profiles+training_runs missed the cache: key %s vs %s, cached %v",
			withRuns.Key, st.Key, withRuns.Cached)
	}
	zero := c.optimizeWait(OptimizeRequest{Program: progID, Config: OptimizeConfig{ProfileSeed: 3}})
	one := c.optimizeWait(OptimizeRequest{
		Program: progID,
		Config:  OptimizeConfig{ProfileSeed: 3, TrainingRuns: 1},
	})
	if one.Key != zero.Key || !one.Cached {
		t.Fatalf("training_runs 1 vs 0 missed the cache: key %s vs %s, cached %v",
			one.Key, zero.Key, one.Cached)
	}
}

// TestHugeMaxGroupMembersKeepsServing: max_group_members is a bound, so
// the largest value validate accepts must settle as an ordinary job and
// leave the daemon answering. Grouping once sized a buffer from it, which
// panicked inside the worker goroutine and took the process down.
func TestHugeMaxGroupMembersKeepsServing(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	progID, _ := c.uploadProgram("art")
	body := fmt.Sprintf(`{"program":%q,"config":{"max_group_members":9223372036854775807}}`, progID)
	var st JobStatus
	if code, resp := c.post("/v1/optimize", []byte(body), &st); code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("optimize: %d %s", code, resp)
	}
	if code, _ := c.get("/v1/jobs/"+st.ID+"?wait=1", &st); code != http.StatusOK {
		t.Fatalf("job wait: %d", code)
	}
	if st.State != "done" {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	var stats Stats
	if code, _ := c.get("/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("/v1/stats after the job: %d", code)
	}
}

// TestSingleProfileMergeMatchesCLI: an image stores only the raw graph,
// so merging one profile is the identity on its bytes. halod answers a
// one-input merge with the upload's own id and bytes, and `halo
// profile-merge` of the same file (profstore.Merge of the decoded file,
// encoded) writes the file itself.
func TestSingleProfileMergeMatchesCLI(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	_, p := c.uploadProgram("art")
	id, blob := c.uploadProfileWith(p, core.Config{ProfileSeed: 3})

	prof, err := profstore.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := profstore.Merge(prof)
	if err != nil {
		t.Fatal(err)
	}
	if cli, err := profstore.Encode(merged); err != nil || !bytes.Equal(cli, blob) {
		t.Fatalf("profile-merge of one file is not the file (%d vs %d bytes, %v)", len(cli), len(blob), err)
	}
	var resp struct {
		ID    string `json:"id"`
		Bytes int    `json:"bytes"`
	}
	code, body := c.postJSON("/v1/profiles/merge", map[string]any{"profiles": []string{id}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("merge: %d %s", code, body)
	}
	if resp.ID != id || resp.Bytes != len(blob) {
		t.Fatalf("halod merged one profile to %s (%d bytes), want the upload %s (%d bytes)",
			resp.ID, resp.Bytes, id, len(blob))
	}
	if _, got := c.get("/v1/profiles/"+resp.ID, nil); !bytes.Equal(got, blob) {
		t.Fatal("served merged image differs from the upload")
	}
}
