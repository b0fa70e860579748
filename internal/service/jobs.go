package service

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sort"
	"time"

	"halo/internal/core"
	"halo/internal/obs"
	"halo/internal/policy"
	"halo/internal/profile"
	"halo/internal/profstore"
)

// OptimizeConfig is the request-level pipeline configuration. Zero values
// take the paper's defaults throughout (internal/core). All fields
// participate in the artifact-cache key, so two requests hit the same
// cache entry exactly when their configurations are identical.
type OptimizeConfig struct {
	// ProfileSeed drives the training run when the server profiles the
	// program itself (no profiles named in the request).
	ProfileSeed uint64 `json:"profile_seed"`
	// TrainingRuns is the number of independent server-side training runs
	// (seeds ProfileSeed, +1, …) profiled concurrently on the server's
	// training pool and merged before grouping. 0 or 1 means a single run.
	// Ignored when the request names uploaded profiles.
	TrainingRuns     int     `json:"training_runs"`
	AffinityDistance uint64  `json:"affinity_distance"`
	MaxObjectSize    uint64  `json:"max_object_size"`
	Coverage         float64 `json:"coverage"`
	MinWeight        uint64  `json:"min_weight"`
	MaxGroupMembers  int     `json:"max_group_members"`
	MergeTol         float64 `json:"merge_tol"`
	GroupThreshold   float64 `json:"group_threshold"`
	MaxGroups        int     `json:"max_groups"`
}

// validate rejects values the pipeline cannot take. Zero means "use the
// default" throughout and is always valid.
func (c OptimizeConfig) validate() error {
	if c.Coverage < 0 || c.Coverage > 1 {
		return fmt.Errorf("coverage %v out of [0,1]", c.Coverage)
	}
	if c.GroupThreshold < 0 || c.MergeTol < 0 {
		return fmt.Errorf("negative group_threshold or merge_tol")
	}
	if c.MaxGroupMembers < 0 || c.MaxGroups < 0 {
		return fmt.Errorf("negative max_group_members or max_groups")
	}
	if c.TrainingRuns < 0 || c.TrainingRuns > maxTrainingRuns {
		return fmt.Errorf("training_runs %d out of [0,%d]", c.TrainingRuns, maxTrainingRuns)
	}
	return nil
}

// maxTrainingRuns bounds server-side training fan-out per job, so one
// request cannot monopolise the daemon.
const maxTrainingRuns = 64

func (c OptimizeConfig) coreConfig() core.Config {
	var cfg core.Config
	cfg.ProfileSeed = c.ProfileSeed
	cfg.Profile.AffinityDistance = c.AffinityDistance
	cfg.Profile.MaxObjectSize = c.MaxObjectSize
	cfg.Group.Coverage = c.Coverage
	cfg.Group.MinWeight = c.MinWeight
	cfg.Group.MaxGroupMembers = c.MaxGroupMembers
	cfg.Group.MergeTol = c.MergeTol
	cfg.Group.GroupThreshold = c.GroupThreshold
	cfg.Group.MaxGroups = c.MaxGroups
	return cfg
}

// OptimizeRequest is the POST /v1/optimize body. Profiles are optional:
// none makes the server run the training workload itself; several are
// merged (deterministically) before grouping.
type OptimizeRequest struct {
	Program  string         `json:"program"`
	Profiles []string       `json:"profiles,omitempty"`
	Config   OptimizeConfig `json:"config"`
}

// cacheKey content-addresses a request: program hash, sorted profile
// hashes, and the full configuration.
func (r OptimizeRequest) cacheKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "program=%s\n", r.Program)
	profs := append([]string(nil), r.Profiles...)
	// Merging is order-independent, so the key must be too.
	sort.Strings(profs)
	for _, p := range profs {
		fmt.Fprintf(h, "profile=%s\n", p)
	}
	cfg := r.Config
	// TrainingRuns is ignored when the request names profiles, and 1 takes
	// the same single-run path as 0; normalize so equivalent requests
	// share one artifact instead of spuriously missing the cache.
	if len(r.Profiles) > 0 || cfg.TrainingRuns == 1 {
		cfg.TrainingRuns = 0
	}
	img, _ := json.Marshal(cfg) // fixed field order, no omitempty
	h.Write(img)
	return hex.EncodeToString(h.Sum(nil))
}

// Artifact is a completed optimization, cached content-addressed.
type Artifact struct {
	Key       string
	Program   string   // program hash
	Profiles  []string // profile hashes (empty: server-side training run)
	Groups    int
	Selectors int
	NumBits   int
	Inserted  int
	Dropped   int
	Report    string
	Binary    []byte // rewritten program image
	Policy    []byte // PolicyDoc JSON
	Elapsed   time.Duration
	Stages    []obs.Span // per-stage pipeline timings
}

// PolicyDoc is the allocator policy document served for finished jobs —
// the same document `halo opt` writes and `halo run -alloc halo -policy`
// consumes (internal/policy), so artifacts fetched from the daemon feed
// straight into the CLI.
type PolicyDoc = policy.Doc

// Job tracks one optimize request through the worker pool.
type Job struct {
	ID        string
	ReqID     string // request ID of the submitting HTTP request
	Key       string
	State     string // "queued", "running", "done", "failed"
	Cached    bool
	Coalesced bool
	Err       string
	Created   time.Time

	req  OptimizeRequest
	done chan struct{} // closed when the job settles
	seq  int           // creation order: /v1/jobs lists jobs by it
}

// JobStatus is the JSON view of a job.
type JobStatus struct {
	ID        string         `json:"id"`
	State     string         `json:"state"`
	Key       string         `json:"key"`
	Cached    bool           `json:"cached"`
	Coalesced bool           `json:"coalesced,omitempty"`
	Error     string         `json:"error,omitempty"`
	Result    *ResultSummary `json:"result,omitempty"`
}

// ResultSummary carries the artifact's headline numbers; the heavyweight
// artifacts hang off the /v1/jobs/{id}/... endpoints.
type ResultSummary struct {
	Groups      int        `json:"groups"`
	Selectors   int        `json:"selectors"`
	NumBits     int        `json:"num_bits"`
	Inserted    int        `json:"inserted"`
	Dropped     int        `json:"dropped_conjs"`
	BinaryBytes int        `json:"binary_bytes"`
	ElapsedSec  float64    `json:"elapsed_sec"`
	Stages      []obs.Span `json:"stages,omitempty"`
}

// handleOptimize validates a request, consults the artifact cache and the
// in-flight table, and otherwise queues a job on the worker pool.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad optimize request: %v", err)
		return
	}
	if err := req.Config.validate(); err != nil {
		httpError(w, http.StatusBadRequest, "bad optimize config: %v", err)
		return
	}
	s.mu.Lock()
	prog := s.programs[req.Program]
	if prog == nil {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown program %q", req.Program)
		return
	}
	for _, id := range req.Profiles {
		pe := s.profiles[id]
		if pe == nil {
			s.mu.Unlock()
			httpError(w, http.StatusNotFound, "unknown profile %q", id)
			return
		}
		if pe.Prof.ProgName != prog.Prog.Name {
			s.mu.Unlock()
			httpError(w, http.StatusBadRequest, "profile %s is for program %q, not %q",
				id, pe.Prof.ProgName, prog.Prog.Name)
			return
		}
	}
	key := req.cacheKey()

	// Cache hit: settle the job immediately.
	if _, ok := s.artifacts[key]; ok {
		job := s.newJobLocked(req, key)
		job.ReqID = ReqID(r.Context())
		job.Cached = true
		s.settleLocked(job, "done")
		s.mCacheHits.Inc()
		status := s.jobStatusLocked(job)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, status)
		return
	}
	// Identical request already in flight: coalesce onto it.
	if running := s.inflight[key]; running != nil {
		s.mCoalesced.Inc()
		status := s.jobStatusLocked(running)
		status.Coalesced = true
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, status)
		return
	}
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	job := s.newJobLocked(req, key)
	job.ReqID = ReqID(r.Context())
	select {
	case s.queue <- job:
	default:
		delete(s.jobs, job.ID)
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "job queue full (%d pending)", s.cfg.QueueDepth)
		return
	}
	s.inflight[key] = job
	s.mCacheMisses.Inc()
	s.mJobsQueued.Inc()
	status := s.jobStatusLocked(job)
	s.mu.Unlock()
	s.log.Info("job queued",
		"job", job.ID, "req", job.ReqID, "program", req.Program, "profiles", len(req.Profiles))
	writeJSON(w, http.StatusAccepted, status)
}

func (s *Server) newJobLocked(req OptimizeRequest, key string) *Job {
	s.nextJob++
	job := &Job{
		ID:      fmt.Sprintf("job-%06d", s.nextJob),
		Key:     key,
		State:   "queued",
		Created: time.Now(),
		req:     req,
		done:    make(chan struct{}),
		seq:     s.nextJob,
	}
	s.jobs[job.ID] = job
	// Bound the retained history: evict settled jobs, oldest-settled
	// first. Queued and running jobs are not in s.settled, so they are
	// never evicted. Cached artifacts are keyed separately and survive.
	for len(s.jobs) > s.cfg.JobHistory && len(s.settled) > 0 {
		delete(s.jobs, s.settled[0].ID)
		s.settled[0] = nil
		s.settled = s.settled[1:]
	}
	return job
}

// settleLocked gives a job its final state, wakes its waiters and queues
// it for eviction behind the jobs that settled before it.
func (s *Server) settleLocked(job *Job, state string) {
	job.State = state
	close(job.done)
	s.settled = append(s.settled, job)
}

func (s *Server) jobStatusLocked(job *Job) JobStatus {
	st := JobStatus{
		ID:        job.ID,
		State:     job.State,
		Key:       job.Key,
		Cached:    job.Cached,
		Coalesced: job.Coalesced,
		Error:     job.Err,
	}
	if job.State == "done" {
		if a := s.artifacts[job.Key]; a != nil {
			st.Result = &ResultSummary{
				Groups:      a.Groups,
				Selectors:   a.Selectors,
				NumBits:     a.NumBits,
				Inserted:    a.Inserted,
				Dropped:     a.Dropped,
				BinaryBytes: len(a.Binary),
				ElapsedSec:  a.Elapsed.Seconds(),
				Stages:      a.Stages,
			}
		}
	}
	return st
}

// worker drains the job queue until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes the pipeline for one job and publishes its artifact.
func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	job.State = "running"
	prog := s.programs[job.req.Program]
	profs := make([]*profile.Profile, 0, len(job.req.Profiles))
	for _, id := range job.req.Profiles {
		if pe := s.profiles[id]; pe != nil {
			profs = append(profs, pe.Prof)
		}
	}
	s.mu.Unlock()

	s.gJobsRunning.Add(1)
	s.log.Info("job start", "job", job.ID, "req", job.ReqID, "program", job.req.Program)
	start := time.Now()
	artifact, err := buildArtifact(prog, job.req, profs)
	elapsed := time.Since(start)
	s.gJobsRunning.Add(-1)
	if err == nil && obs.Enabled() {
		for _, sp := range artifact.Stages {
			if h := s.stageHist[sp.Name]; h != nil {
				h.Observe(float64(sp.DurNs) / 1e9)
			}
		}
	}

	s.mu.Lock()
	delete(s.inflight, job.Key)
	if err != nil {
		job.Err = err.Error()
		s.mJobsFailed.Inc()
		s.settleLocked(job, "failed")
	} else {
		artifact.Key = job.Key
		artifact.Elapsed = elapsed
		s.artifacts[job.Key] = artifact
		s.mJobsDone.Inc()
		s.settleLocked(job, "done")
	}
	s.mu.Unlock()

	if err != nil {
		s.log.Warn("job failed",
			"job", job.ID, "req", job.ReqID, "err", err, "dur_ms", elapsed.Milliseconds())
	} else {
		s.log.Info("job done",
			"job", job.ID, "req", job.ReqID, "groups", artifact.Groups,
			"selectors", artifact.Selectors, "dur_ms", elapsed.Milliseconds())
	}
}

// buildArtifact runs the pipeline: record a profile, or merge the stored
// ones; then filter, group, identify, rewrite, and package the artifacts. It runs outside the server lock; everything it
// reads (program entries, stored profiles) is shared and only read.
func buildArtifact(prog *programEntry, req OptimizeRequest, profs []*profile.Profile) (*Artifact, error) {
	if prog == nil {
		return nil, fmt.Errorf("program disappeared")
	}
	cfg := req.Config.coreConfig()
	// Every job is traced; the spans land in the artifact (and from there
	// in job status, the report, and the stage histograms).
	tr := obs.NewTrace()
	cfg.Trace = tr

	var prof *profile.Profile
	var err error
	if len(profs) == 0 {
		// No profiles: the server runs the training workload itself —
		// several seeds concurrently on the shared pool when the request
		// asks for more than one, merged deterministically before grouping.
		if prof, err = core.ProfileN(prog.Prog, cfg, req.Config.TrainingRuns); err != nil {
			return nil, fmt.Errorf("training runs: %w", err)
		}
	} else {
		// Merging stands in for the training run, so it takes the
		// "profile" slot in the stage trace.
		endProfile := tr.Span("profile")
		prof, err = profstore.Merge(profs...)
		endProfile()
		if err != nil {
			return nil, fmt.Errorf("merging profiles: %w", err)
		}
	}
	opt, err := core.OptimizeFromProfile(prog.Prog, prof, cfg)
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}

	binary, err := opt.Rewrite.Prog.Encode()
	if err != nil {
		return nil, fmt.Errorf("encoding rewritten binary: %w", err)
	}
	polJSON, err := json.MarshalIndent(policy.New(opt, policy.Halloc{}), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding policy: %w", err)
	}
	return &Artifact{
		Program:   req.Program,
		Profiles:  append([]string(nil), req.Profiles...),
		Groups:    len(opt.Groups),
		Selectors: len(opt.BitSelectors),
		NumBits:   opt.Rewrite.NumBits,
		Inserted:  opt.Rewrite.Inserted,
		Dropped:   opt.DroppedConjs,
		Report:    opt.GroupReport(),
		Binary:    binary,
		Policy:    polJSON,
		Stages:    tr.Spans(),
	}, nil
}

// --- job endpoints ------------------------------------------------------

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	job := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if job == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return job
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := slices.SortedFunc(maps.Values(s.jobs), func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]JobStatus, len(jobs))
	for i, job := range jobs {
		out[i] = s.jobStatusLocked(job)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(w, r)
	if job == nil {
		return
	}
	if wait := r.URL.Query().Get("wait"); wait != "" && wait != "0" && wait != "false" {
		select {
		case <-job.done:
		case <-r.Context().Done():
			httpError(w, http.StatusRequestTimeout, "client went away")
			return
		case <-time.After(5 * time.Minute):
			httpError(w, http.StatusGatewayTimeout, "job still running")
			return
		}
	}
	s.mu.Lock()
	status := s.jobStatusLocked(job)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, status)
}

// jobArtifact resolves a settled job's artifact, reporting the right HTTP
// error for unsettled or failed jobs.
func (s *Server) jobArtifact(w http.ResponseWriter, r *http.Request) *Artifact {
	job := s.lookupJob(w, r)
	if job == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch job.State {
	case "failed":
		httpError(w, http.StatusConflict, "job failed: %s", job.Err)
		return nil
	case "done":
		if a := s.artifacts[job.Key]; a != nil {
			return a
		}
		httpError(w, http.StatusGone, "artifact evicted; resubmit the request")
		return nil
	default:
		httpError(w, http.StatusConflict, "job is %s; poll /v1/jobs/%s?wait=1", job.State, job.ID)
		return nil
	}
}

func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	if a := s.jobArtifact(w, r); a != nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(a.Report))
		if stages := obs.RenderSpans(a.Stages); stages != "" {
			w.Write([]byte("\n" + stages))
		}
	}
}

func (s *Server) handleJobBinary(w http.ResponseWriter, r *http.Request) {
	if a := s.jobArtifact(w, r); a != nil {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(a.Binary)
	}
}

func (s *Server) handleJobPolicy(w http.ResponseWriter, r *http.Request) {
	if a := s.jobArtifact(w, r); a != nil {
		w.Header().Set("Content-Type", "application/json")
		w.Write(a.Policy)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := s.statsLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCacheFlush(w http.ResponseWriter, r *http.Request) {
	s.FlushCache()
	writeJSON(w, http.StatusOK, map[string]string{"status": "cache flushed"})
}
