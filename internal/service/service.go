// Package service is the optimization daemon behind cmd/halod: an HTTP/JSON
// server that turns the in-process pipeline into the paper's deployment
// story — a fleet of machines profiles its workloads, ships the profiles to
// a central optimizer, and fetches optimized artifacts back (the same shape
// BOLT-style post-link optimization takes in data centers).
//
// The server stores programs (internal/isa images) and profiles
// (internal/profstore images) content-addressed by SHA-256. Optimize
// requests become jobs executed by a bounded worker pool; completed
// artifacts — the group report, the rewritten binary, the allocator policy
// — land in a content-addressed cache keyed by (program hash, profile
// hashes, config), so a repeated request is a cache hit and an identical
// request in flight is coalesced onto the running job.
//
// Endpoints:
//
//	POST   /v1/programs          upload a program image        -> {id, ...}
//	GET    /v1/programs          list programs
//	GET    /v1/programs/{id}     download a program image
//	POST   /v1/profiles          upload a profile image        -> {id, ...}
//	GET    /v1/profiles          list profiles
//	GET    /v1/profiles/{id}     download a profile image
//	POST   /v1/profiles/merge    merge stored profiles         -> {id, ...}
//	POST   /v1/optimize          submit an optimize job        -> {job, ...}
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status; ?wait=1 blocks until settled
//	GET    /v1/jobs/{id}/report  group report (text)
//	GET    /v1/jobs/{id}/binary  rewritten program image
//	GET    /v1/jobs/{id}/policy  allocator policy (JSON)
//	GET    /v1/stats             counters
//	GET    /metrics              Prometheus text exposition
//	DELETE /v1/cache             drop cached artifacts
//	GET    /healthz              liveness + build info
//
// The merge endpoint takes {"profiles": [id, ...]}. A profile image holds
// only what its run observed, so merging one profile is the identity: the
// answer is that profile's own entry. Several are merged by profstore.Merge,
// as an optimize job's profiles are. No stored or merged profile is
// filtered: each job filters its profile's raw graph at the request's
// coverage, in synthesis. Both endpoints refuse unknown JSON keys.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"halo/internal/isa"
	"halo/internal/obs"
	"halo/internal/profile"
	"halo/internal/profstore"
)

// Config parameterises the server.
type Config struct {
	// Workers is the optimization worker-pool size. Default 4.
	Workers int
	// QueueDepth bounds pending jobs; submissions beyond it are rejected
	// with 503. Default 256.
	QueueDepth int
	// MaxUploadBytes bounds program/profile uploads. Default 64 MiB.
	MaxUploadBytes int64
	// JobHistory bounds the retained job records: once exceeded, settled
	// jobs are evicted in the order they settled (their cached artifacts
	// survive). Queued and running jobs are never evicted. Default 4096.
	JobHistory int
	// Deprecated: a job's training runs share the process-wide budget of
	// internal/pool, which GOMAXPROCS sizes, and ignore this value. The
	// field is kept only so existing callers still compile.
	TrainingWorkers int
	// Logger receives structured access-log and job-lifecycle events. Nil
	// discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 4096
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Stats are the server's monotonic counters, read from the metrics
// registry — /v1/stats is a JSON view over the same series /metrics
// exposes, so the two can never disagree.
type Stats struct {
	Programs    int    `json:"programs"`
	Profiles    int    `json:"profiles"`
	JobsQueued  uint64 `json:"jobs_queued"`
	JobsDone    uint64 `json:"jobs_done"`
	JobsFailed  uint64 `json:"jobs_failed"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Coalesced   uint64 `json:"coalesced"`
	Artifacts   int    `json:"artifacts"`
	Workers     int    `json:"workers"`
}

type programEntry struct {
	ID    string
	Image []byte
	Prog  *isa.Program
}

type profileEntry struct {
	ID   string
	Blob []byte
	// Prof is Blob decoded once, at upload, without the reference trace
	// no job reads. Jobs share it read-only.
	Prof *profile.Profile
}

// Server implements http.Handler.
type Server struct {
	cfg Config
	mux *http.ServeMux
	log *slog.Logger

	mu        sync.Mutex
	programs  map[string]*programEntry
	profiles  map[string]*profileEntry
	jobs      map[string]*Job
	settled   []*Job // settled jobs still in jobs, in settling order
	artifacts map[string]*Artifact
	inflight  map[string]*Job // cache key -> running/queued job
	nextJob   int
	closed    bool

	queue chan *Job
	wg    sync.WaitGroup

	// Metrics (internal/obs): pre-registered at New, recorded lock-free.
	reg       *obs.Registry
	routes    map[string]*routeMetrics
	stageHist map[string]*obs.Histogram
	nextReq   atomic.Uint64

	mCacheHits   *obs.Counter
	mCacheMisses *obs.Counter
	mCoalesced   *obs.Counter
	mJobsQueued  *obs.Counter
	mJobsDone    *obs.Counter
	mJobsFailed  *obs.Counter
	gJobsRunning *obs.Gauge
}

// New starts a server and its worker pool. Callers must Close it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		log:       cfg.Logger,
		programs:  make(map[string]*programEntry),
		profiles:  make(map[string]*profileEntry),
		jobs:      make(map[string]*Job),
		artifacts: make(map[string]*Artifact),
		inflight:  make(map[string]*Job),
		queue:     make(chan *Job, cfg.QueueDepth),
	}
	mux := http.NewServeMux()
	var patterns []string
	handle := func(pattern string, h http.HandlerFunc) {
		patterns = append(patterns, pattern)
		mux.HandleFunc(pattern, h)
	}
	handle("POST /v1/programs", s.handleProgramUpload)
	handle("GET /v1/programs", s.handleProgramList)
	handle("GET /v1/programs/{id}", s.handleProgramGet)
	handle("POST /v1/profiles", s.handleProfileUpload)
	handle("GET /v1/profiles", s.handleProfileList)
	handle("GET /v1/profiles/{id}", s.handleProfileGet)
	handle("POST /v1/profiles/merge", s.handleProfileMerge)
	handle("POST /v1/optimize", s.handleOptimize)
	handle("GET /v1/jobs", s.handleJobList)
	handle("GET /v1/jobs/{id}", s.handleJobGet)
	handle("GET /v1/jobs/{id}/report", s.handleJobReport)
	handle("GET /v1/jobs/{id}/binary", s.handleJobBinary)
	handle("GET /v1/jobs/{id}/policy", s.handleJobPolicy)
	handle("GET /v1/stats", s.handleStats)
	handle("GET /metrics", s.handleMetrics)
	handle("DELETE /v1/cache", s.handleCacheFlush)
	handle("GET /healthz", s.handleHealthz)
	s.mux = mux
	s.initMetrics(patterns)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// handleHealthz reports liveness plus the build the daemon is running.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	b := obs.Build()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"version":  b.Version,
		"go":       b.GoVersion,
		"revision": b.Revision,
	})
}

// Close stops accepting jobs and waits for the worker pool to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Server) statsLocked() Stats {
	return Stats{
		Programs:    len(s.programs),
		Profiles:    len(s.profiles),
		JobsQueued:  s.mJobsQueued.Value(),
		JobsDone:    s.mJobsDone.Value(),
		JobsFailed:  s.mJobsFailed.Value(),
		CacheHits:   s.mCacheHits.Value(),
		CacheMisses: s.mCacheMisses.Value(),
		Coalesced:   s.mCoalesced.Value(),
		Artifacts:   len(s.artifacts),
		Workers:     s.cfg.Workers,
	}
}

// FlushCache drops every cached artifact (not the jobs that produced them).
func (s *Server) FlushCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.artifacts = make(map[string]*Artifact)
}

// hashID content-addresses a blob.
func hashID(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// --- blob uploads and downloads ----------------------------------------

func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxUploadBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return nil, false
	}
	if int64(len(data)) > s.cfg.MaxUploadBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", s.cfg.MaxUploadBytes)
		return nil, false
	}
	return data, true
}

func (s *Server) handleProgramUpload(w http.ResponseWriter, r *http.Request) {
	img, ok := s.readBody(w, r)
	if !ok {
		return
	}
	prog, err := isa.Decode(img)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid program image: %v", err)
		return
	}
	id := hashID(img)
	s.mu.Lock()
	if _, dup := s.programs[id]; !dup {
		s.programs[id] = &programEntry{ID: id, Image: img, Prog: prog}
	}
	s.mu.Unlock()
	st := prog.Stat()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":    id,
		"name":  prog.Name,
		"bytes": len(img),
		"funcs": st.Funcs,
		"insts": st.Insts,
	})
}

func (s *Server) handleProgramList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]map[string]any, 0, len(s.programs))
	for _, e := range sortedValues(s.programs, func(e *programEntry) string { return e.ID }) {
		out = append(out, map[string]any{"id": e.ID, "name": e.Prog.Name, "bytes": len(e.Image)})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleProgramGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	e := s.programs[r.PathValue("id")]
	s.mu.Unlock()
	if e == nil {
		httpError(w, http.StatusNotFound, "unknown program %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(e.Image)
}

func (s *Server) handleProfileUpload(w http.ResponseWriter, r *http.Request) {
	blob, ok := s.readBody(w, r)
	if !ok {
		return
	}
	prof, err := profstore.Decode(blob)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid profile image: %v", err)
		return
	}
	writeProfileEntry(w, s.storeProfile(blob, prof))
}

// storeProfile stores an already-validated profile blob and its decoded
// form, deduplicating by hash. prof is shared read-only from then on.
func (s *Server) storeProfile(blob []byte, prof *profile.Profile) *profileEntry {
	id := hashID(blob)
	entry := &profileEntry{ID: id, Blob: blob, Prof: prof}
	s.mu.Lock()
	if prev, dup := s.profiles[id]; dup {
		entry = prev
	} else {
		s.profiles[id] = entry
	}
	s.mu.Unlock()
	return entry
}

func writeProfileEntry(w http.ResponseWriter, e *profileEntry) {
	writeJSON(w, http.StatusOK, map[string]any{
		"id":       e.ID,
		"prog":     e.Prof.ProgName,
		"bytes":    len(e.Blob),
		"contexts": len(e.Prof.Contexts),
		"accesses": e.Prof.RawGraph.TotalAccesses(),
	})
}

func (s *Server) handleProfileList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]map[string]any, 0, len(s.profiles))
	for _, e := range sortedValues(s.profiles, func(e *profileEntry) string { return e.ID }) {
		out = append(out, map[string]any{"id": e.ID, "prog": e.Prof.ProgName, "bytes": len(e.Blob)})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleProfileGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	e := s.profiles[r.PathValue("id")]
	s.mu.Unlock()
	if e == nil {
		httpError(w, http.StatusNotFound, "unknown profile %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(e.Blob)
}

func (s *Server) handleProfileMerge(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Profiles []string `json:"profiles"`
	}
	if err := s.decodeRequest(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad merge request: %v", err)
		return
	}
	if len(req.Profiles) == 0 {
		httpError(w, http.StatusBadRequest, "merge request names no profiles")
		return
	}
	profs := make([]*profile.Profile, 0, len(req.Profiles))
	var last *profileEntry
	s.mu.Lock()
	for _, id := range req.Profiles {
		last = s.profiles[id]
		if last == nil {
			s.mu.Unlock()
			httpError(w, http.StatusNotFound, "unknown profile %q", id)
			return
		}
		profs = append(profs, last.Prof)
	}
	s.mu.Unlock()
	// An image holds only the raw graph, which merging one profile leaves
	// as it is, so one input merges to its own stored entry, as `halo
	// profile-merge` of one file writes that file.
	if len(profs) == 1 {
		writeProfileEntry(w, last)
		return
	}
	// Optimize jobs take stored profiles through the same call, so a
	// merged profile optimises exactly as its inputs would together.
	merged, err := profstore.Merge(profs...)
	if err != nil {
		httpError(w, http.StatusBadRequest, "merge: %v", err)
		return
	}
	out, err := profstore.Encode(merged)
	if err != nil {
		httpError(w, http.StatusBadRequest, "merge: %v", err)
		return
	}
	writeProfileEntry(w, s.storeProfile(out, merged))
}

// --- helpers ------------------------------------------------------------

// decodeRequest decodes a JSON body into v, refusing keys v lacks.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// sortedValues returns map values ordered by a key function.
func sortedValues[M ~map[string]V, V any](m M, key func(V) string) []V {
	out := make([]V, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}
