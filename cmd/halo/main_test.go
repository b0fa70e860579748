package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"halo/internal/profstore"
	"halo/internal/workloads"
)

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
		var doc Policy
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		rewritten, err := loadProgram(outBin)
		if err != nil {
			t.Fatal(err)
		}
		hc := haloPolicy(rewritten, doc).Halloc
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
