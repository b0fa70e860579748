package core

import (
	"fmt"
	"strings"
	"testing"

	"halo/internal/workloads"
)

// TestGroupReport checks that the Figure 9 style report names the program
// and lists every formed group with each of its member contexts.
func TestGroupReport(t *testing.T) {
	for _, name := range []string{"leela", "omnetpp"} {
		w := workloads.MustGet(name)
		p := w.Build(w.TestScale)
		opt, err := Optimize(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rep := opt.GroupReport()
		t.Logf("\n%s", rep)
		if !strings.HasPrefix(rep, p.Name+": ") {
			t.Errorf("%s: report does not start with the program name:\n%s", name, rep)
		}
		if len(opt.Groups) == 0 {
			t.Errorf("%s: no groups formed", name)
		}
		if got := strings.Count(rep, "  group "); got != len(opt.Groups) {
			t.Errorf("%s: report lists %d groups, want %d", name, got, len(opt.Groups))
		}
		for _, g := range opt.Groups {
			if !strings.Contains(rep, fmt.Sprintf("  group %d (", g.ID)) {
				t.Errorf("%s: group %d missing from report", name, g.ID)
			}
			for _, m := range g.Members {
				if d := opt.Profile.Contexts[m].Describe(p); !strings.Contains(rep, d) {
					t.Errorf("%s: member %q of group %d missing from report", name, d, g.ID)
				}
			}
		}
	}
}

// TestHDSSetFormation checks the hot-data-streams analysis on traced
// profiles: it covers the whole trace, keeps no more hot streams than
// candidates, and its site table maps every site of each packed set to
// that set and no site to two sets.
func TestHDSSetFormation(t *testing.T) {
	for _, name := range []string{"analyzer", "health", "leela", "povray"} {
		w := workloads.MustGet(name)
		p := w.Build(w.TestScale)
		cfg := Config{}
		cfg.Profile.RecordTrace = true
		prof, err := Profile(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := AnalyzeHDS(prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: trace=%d rules=%d candidates=%d hot=%d sets=%d",
			name, res.TraceLen, res.Rules, res.Candidates, res.Streams, len(res.Sets))
		if res.TraceLen != prof.Trace.Len() {
			t.Errorf("%s: analysed %d refs, profile traced %d", name, res.TraceLen, prof.Trace.Len())
		}
		if res.Streams > res.Candidates {
			t.Errorf("%s: %d hot streams from %d candidates", name, res.Streams, res.Candidates)
		}
		sites := 0
		for g, s := range res.Sets {
			if s.Benefit <= 0 {
				t.Errorf("%s: set %d packed with benefit %.1f", name, g, s.Benefit)
			}
			for _, site := range s.Sites {
				sites++
				if got, ok := res.SiteGroups[site]; !ok || got != g {
					t.Errorf("%s: site %v of set %d maps to group %d (present %v)", name, site, g, got, ok)
				}
			}
		}
		if sites != len(res.SiteGroups) {
			t.Errorf("%s: %d sites across packed sets, %d in the site table", name, sites, len(res.SiteGroups))
		}
	}
}
