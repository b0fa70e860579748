package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"halo/internal/core"
	"halo/internal/isa"
	"halo/internal/policy"
	"halo/internal/workloads"
)

// Golden fingerprints of the layout-synthesis stage (grouping, selector
// identification, selector lowering, and the hot-data-streams policy)
// recorded from the serial, map-based implementation at commit 0138423.
// The dense synthesis pipeline must reproduce them bit for bit.
var synthGoldens = map[string]string{
	"povray":  "bf643192d6d7ca0df84387566607b48be70d20a0b23bb3f894115c3db0b67a91",
	"omnetpp": "591cd670760e41d2fc4fc86d7c06f6100a97a4ae7910b64517d50bc96b495ce6",
}

// synthesisFingerprint renders every synthesis artefact into one canonical
// string: group composition, selector DNFs, instrumented sites, the lowered
// policy document (exactly as halod serves it), and the HDS co-allocation
// policy. Everything the downstream allocator consumes is covered, so any
// behavioural drift in the refactored pipeline shows up here.
func synthesisFingerprint(t *testing.T, name string) string {
	t.Helper()
	w := workloads.MustGet(name)
	p := w.Build(w.TestScale)
	cfg := pipelineConfig(w)
	prof, err := core.Profile(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.OptimizeFromProfile(p, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := core.AnalyzeHDS(opt.Profile, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", name)
	for _, g := range opt.Groups {
		fmt.Fprintf(&b, "group %d: members=%v weight=%d accesses=%d\n",
			g.ID, g.Members, g.Weight, g.Accesses)
	}
	for _, s := range opt.Selectors.Selectors {
		fmt.Fprintf(&b, "selector %s\n", s.String())
	}
	fmt.Fprintf(&b, "sites=%v residual=%d\n", opt.Selectors.Sites, opt.Selectors.Residual)
	fmt.Fprintf(&b, "numbits=%d dropped=%d\n", opt.Rewrite.NumBits, opt.DroppedConjs)

	// The policy document exactly as internal/service serves it.
	polJSON, err := json.MarshalIndent(policy.New(opt, policy.Halloc{}), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b.Write(polJSON)
	b.WriteByte('\n')

	fmt.Fprintf(&b, "hds %s\n", hr.String())
	for i, s := range hr.Sets {
		fmt.Fprintf(&b, "set %d: sites=%v benefit=%v streams=%d\n", i, s.Sites, s.Benefit, s.Streams)
	}
	sites := make([]isa.Addr, 0, len(hr.SiteGroups))
	for s := range hr.SiteGroups {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, s := range sites {
		fmt.Fprintf(&b, "sitegroup %v -> %d\n", s, hr.SiteGroups[s])
	}
	return b.String()
}

// TestGoldenSynthesis pins the synthesis pipeline's output against the
// pre-refactor goldens.
func TestGoldenSynthesis(t *testing.T) {
	for name, want := range synthGoldens {
		t.Run(name, func(t *testing.T) {
			fp := synthesisFingerprint(t, name)
			sum := sha256.Sum256([]byte(fp))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("synthesis fingerprint sha256 = %s, want %s\nfingerprint:\n%s", got, want, fp)
			}
		})
	}
}
