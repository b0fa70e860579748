package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"halo/internal/policy"
	"halo/internal/profstore"
	"halo/internal/service"
	"halo/internal/workloads"
)

// writeWorkload builds a workload's test-scale binary into dir.
func writeWorkload(t *testing.T, dir, name string) string {
	t.Helper()
	w := workloads.MustGet(name)
	img, err := w.Build(w.TestScale).Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".hbin")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestProfileMergeSmoke drives the profile save/load/merge surface the way
// a user would: build a binary, profile it at two seeds saving both
// profiles, merge them, and optimize from the merged profile.
func TestProfileMergeSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "art.hbin")

	w := workloads.MustGet("art")
	img, err := w.Build(w.TestScale).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bin, img, 0o644); err != nil {
		t.Fatal(err)
	}

	profA := filepath.Join(dir, "a.hprof")
	profB := filepath.Join(dir, "b.hprof")
	if err := cmdProfile([]string{"-seed", "3", "-o", profA, bin}); err != nil {
		t.Fatalf("profile -seed 3: %v", err)
	}
	if err := cmdProfile([]string{"-seed", "5", "-o", profB, bin}); err != nil {
		t.Fatalf("profile -seed 5: %v", err)
	}

	merged := filepath.Join(dir, "merged.hprof")
	if err := cmdProfileMerge([]string{"-o", merged, profA, profB}); err != nil {
		t.Fatalf("profile-merge: %v", err)
	}
	m, err := profstore.Load(merged)
	if err != nil {
		t.Fatalf("merged profile does not load: %v", err)
	}
	a, err := profstore.Load(profA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := profstore.Load(profB)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalAllocs != a.TotalAllocs+b.TotalAllocs {
		t.Fatalf("merged allocs = %d, want %d", m.TotalAllocs, a.TotalAllocs+b.TotalAllocs)
	}

	// The merged profile must drive the optimize path.
	outBin := filepath.Join(dir, "art.halo.hbin")
	outPol := filepath.Join(dir, "art.policy.json")
	if err := cmdOpt([]string{"-profile", merged, "-o", outBin, "-policy", outPol, bin}); err != nil {
		t.Fatalf("opt -profile: %v", err)
	}
	for _, path := range []string{outBin, outPol} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("opt did not write %s", path)
		}
	}

	// Error paths: mismatched program, missing file.
	if err := cmdProfileMerge([]string{filepath.Join(dir, "missing.hprof")}); err == nil {
		t.Fatal("merge of missing file did not fail")
	}
	pov := workloads.MustGet("povray")
	povBin := filepath.Join(dir, "povray.hbin")
	povImg, err := pov.Build(pov.TestScale).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(povBin, povImg, 0o644); err != nil {
		t.Fatal(err)
	}
	povProf := filepath.Join(dir, "pov.hprof")
	if err := cmdProfile([]string{"-o", povProf, povBin}); err != nil {
		t.Fatal(err)
	}
	if err := cmdProfileMerge([]string{profA, povProf}); err == nil {
		t.Fatal("cross-program merge did not fail")
	}
	if err := cmdOpt([]string{"-profile", povProf, "-o", outBin, bin}); err == nil {
		t.Fatal("opt with mismatched profile did not fail")
	}
}

// TestOptRunMaxSpareChunks round-trips -max-spare-chunks through the
// policy document: `halo opt` must record the count and `halo run -alloc
// halo` must hand it to the group allocator.
func TestOptRunMaxSpareChunks(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "art.hbin")
	w := workloads.MustGet("art")
	img, err := w.Build(w.TestScale).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bin, img, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		flag      []string
		wantSpare int
		wantNone  bool
	}{
		{flag: []string{"-max-spare-chunks", "3"}, wantSpare: 3},
		{flag: []string{"-max-spare-chunks", "0"}, wantNone: true},
		{flag: nil}, // the allocator default
	} {
		outBin := filepath.Join(dir, "art.halo.hbin")
		outPol := filepath.Join(dir, "art.policy.json")
		args := append(append([]string{"-o", outBin, "-policy", outPol}, tc.flag...), bin)
		if err := cmdOpt(args); err != nil {
			t.Fatalf("opt %v: %v", tc.flag, err)
		}
		data, err := os.ReadFile(outPol)
		if err != nil {
			t.Fatal(err)
		}
		var doc policy.Doc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		rewritten, err := loadProgram(outBin)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := doc.HALOPolicy(rewritten)
		if err != nil {
			t.Fatal(err)
		}
		hc := pol.Halloc
		if hc.MaxSpareChunks != tc.wantSpare || hc.NoSpare != tc.wantNone {
			t.Fatalf("opt %v: run hands halloc MaxSpareChunks=%d NoSpare=%v, want %d/%v\npolicy: %s",
				tc.flag, hc.MaxSpareChunks, hc.NoSpare, tc.wantSpare, tc.wantNone, data)
		}
		if err := cmdRun([]string{"-alloc", "halo", "-policy", outPol, outBin}); err != nil {
			t.Fatalf("run -alloc halo after opt %v: %v", tc.flag, err)
		}
	}
}

// TestPipelineAppliesMaxGroups: `halo pipeline` applies the artifact
// appendix's per-benchmark flags, so roms forms at most its
// --max-groups 4.
func TestPipelineAppliesMaxGroups(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = cmdPipeline([]string{"-w", "roms", "-trials", "1"})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), ", 4 groups\n") {
		t.Fatalf("roms pipeline does not report 4 groups:\n%s", got)
	}
}

// TestRunRejectsForeignPolicy: a policy document names the program it was
// written for, and `halo run -alloc halo` must refuse to apply it to
// another binary, whose instrumented sites it does not describe.
func TestRunRejectsForeignPolicy(t *testing.T) {
	dir := t.TempDir()
	art := writeWorkload(t, dir, "art")
	pov := writeWorkload(t, dir, "povray")
	artPol := filepath.Join(dir, "art.policy.json")
	povBin := filepath.Join(dir, "povray.halo.hbin")
	if err := cmdOpt([]string{"-o", filepath.Join(dir, "art.halo.hbin"), "-policy", artPol, art}); err != nil {
		t.Fatal(err)
	}
	if err := cmdOpt([]string{"-o", povBin, "-policy", filepath.Join(dir, "povray.policy.json"), pov}); err != nil {
		t.Fatal(err)
	}
	err := cmdRun([]string{"-alloc", "halo", "-policy", artPol, povBin})
	if err == nil || !strings.Contains(err.Error(), `for program "art", not "povray"`) {
		t.Fatalf("run of povray under art's policy: err = %v, want a program mismatch", err)
	}
}

// TestRunRejectsUninstrumentedBinary: rewriting keeps the program's
// name, so only the instrumentation tells art's rewritten binary from the
// original. `halo run -alloc halo` must refuse art's policy on the
// original, where no selector could ever match and HALO would silently
// measure the default allocator.
func TestRunRejectsUninstrumentedBinary(t *testing.T) {
	dir := t.TempDir()
	art := writeWorkload(t, dir, "art")
	artBin := filepath.Join(dir, "art.halo.hbin")
	artPol := filepath.Join(dir, "art.policy.json")
	if err := cmdOpt([]string{"-o", artBin, "-policy", artPol, art}); err != nil {
		t.Fatal(err)
	}
	err := cmdRun([]string{"-alloc", "halo", "-policy", artPol, art})
	if err == nil || !strings.Contains(err.Error(), `binary "art" is not instrumented for this policy`) {
		t.Fatalf("run of the original art under its HALO policy: err = %v, want an instrumentation mismatch", err)
	}
	if err := cmdRun([]string{"-alloc", "halo", "-policy", artPol, artBin}); err != nil {
		t.Fatalf("run of the rewritten art under its own policy: %v", err)
	}
}

// TestOptProfileMatchesHalod: `halo opt -profile` and a halod job naming
// the same program and a merged profile filter the graph by one rule, so
// they write the same rewritten binary and policy.
func TestOptProfileMatchesHalod(t *testing.T) {
	dir := t.TempDir()
	bin := writeWorkload(t, dir, "art")
	profA := filepath.Join(dir, "a.hprof")
	profB := filepath.Join(dir, "b.hprof")
	merged := filepath.Join(dir, "m.hprof")
	for _, args := range [][]string{
		{"-seed", "3", "-o", profA, bin},
		{"-seed", "5", "-o", profB, bin},
	} {
		if err := cmdProfile(args); err != nil {
			t.Fatal(err)
		}
	}
	if err := cmdProfileMerge([]string{"-o", merged, profA, profB}); err != nil {
		t.Fatal(err)
	}
	outBin := filepath.Join(dir, "art.halo.hbin")
	outPol := filepath.Join(dir, "art.policy.json")
	if err := cmdOpt([]string{"-profile", merged, "-o", outBin, "-policy", outPol, bin}); err != nil {
		t.Fatal(err)
	}

	srv := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	post := func(path, file string, body []byte) string {
		t.Helper()
		if file != "" {
			var err error
			if body, err = os.ReadFile(file); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode >= 300 {
			t.Fatalf("POST %s: status %d, %v", path, resp.StatusCode, err)
		}
		return out.ID
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v: %s", path, resp.StatusCode, err, data)
		}
		return data
	}
	req, err := json.Marshal(service.OptimizeRequest{
		Program:  post("/v1/programs", bin, nil),
		Profiles: []string{post("/v1/profiles", merged, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	job := post("/v1/optimize", "", req)
	var st service.JobStatus
	if err := json.Unmarshal(get("/v1/jobs/"+job+"?wait=1"), &st); err != nil || st.State != "done" {
		t.Fatalf("job %s: %s %s (%v)", job, st.State, st.Error, err)
	}
	for _, c := range []struct{ file, path string }{
		{outBin, "/v1/jobs/" + job + "/binary"},
		{outPol, "/v1/jobs/" + job + "/policy"},
	} {
		local, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if served := get(c.path); !bytes.Equal(local, served) {
			t.Errorf("%s differs from halod's %s (%d vs %d bytes)", filepath.Base(c.file), c.path, len(local), len(served))
		}
	}
}
