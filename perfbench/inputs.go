package main

import (
	"fmt"
	"strconv"
	"strings"

	"p3pdb/internal/appel"
	"p3pdb/internal/appelengine"
	"p3pdb/internal/p3p"
	"p3pdb/internal/reffile"
	"p3pdb/internal/workload"
)

// Inputs are everything a run sends, generated from the seed before any
// timing starts: the tenants' policy contents, the preference texts, and
// the expected verdicts computed by the native APPEL engine.
type Inputs struct {
	Seed    int64
	Tenants []string
	// Slots are the policy slots every tenant serves, one per company of
	// the workload generator; slot j owns /<slot>/* and cookies <slot>-*.
	Slots []string
	// Contents[c][j] is content c of slot j: a policy from the c-th
	// generated data set. Tenant i starts on content i; replaces rotate
	// through the others.
	Contents [][]*p3p.Policy
	// Verdict[c][j][level] is the native engine's verdict (true = allow).
	Verdict [][]map[string]bool
	// Universe is the check-appel preference universe: variants of all
	// five levels, drawn Zipf by index.
	Universe []Pref
	// Resident lists, per tenant, the preferences registered at set-up.
	Resident [][]Pref
}

// Pref is one preference text with the level it was derived from.
type Pref struct {
	Level string
	XML   string
}

// agentLevels maps the named levels a browser sends to the JRC levels
// the server resolves them to.
var agentLevels = []struct{ Name, Level string }{
	{"apathetic", "Very Low"},
	{"mild", "Low"},
	{"paranoid", "High"},
}

// Input sizes. See README.md for how they relate to the program's
// caches.
const (
	numTenants     = 4
	numContents    = 6   // generated data sets: tenant starts + replace pool
	universePerLvl = 400 // check-appel preference variants per level
	residentPerTnt = 64  // registered resident preferences per tenant
)

// levelXML holds each JRC level's preference text, built once.
var levelXML = func() map[string]string {
	m := map[string]string{}
	for _, p := range workload.JRCPreferences() {
		m[p.Level] = p.XML
	}
	return m
}()

// variant makes a distinct text for a level's preference: a tagged
// comment inside the ruleset changes every text-keyed cache key while
// the rules stay those of the level.
func variant(level, tag string) string {
	base := levelXML[level]
	idx := strings.LastIndex(base, "</appel:RULESET>")
	return base[:idx] + "  <!-- " + tag + " -->\n" + base[idx:]
}

// NewInputs generates a run's inputs from its seed.
func NewInputs(seed int64) (*Inputs, error) {
	in := &Inputs{Seed: seed}
	for i := 0; i < numTenants; i++ {
		in.Tenants = append(in.Tenants, fmt.Sprintf("bench-%d.example", i))
	}
	// The policy corpus is fixed: seeds vary the traffic, not the
	// documents, so a seed never changes how much work a check costs.
	for c := 0; c < numContents; c++ {
		d := workload.Generate(int64(c) + 1)
		if c == 0 {
			for _, p := range d.Policies {
				in.Slots = append(in.Slots, p.Name)
			}
		}
		in.Contents = append(in.Contents, d.Policies)
	}

	rulesets := map[string]*appel.Ruleset{}
	for _, l := range workload.Levels {
		p, _ := workload.PreferenceByLevel(l)
		rulesets[l] = p.Ruleset
	}
	engine := appelengine.New()
	in.Verdict = make([][]map[string]bool, numContents)
	for c := range in.Contents {
		in.Verdict[c] = make([]map[string]bool, len(in.Slots))
		for j, pol := range in.Contents[c] {
			doc := pol.String()
			m := map[string]bool{}
			for l, rs := range rulesets {
				d, err := engine.Match(rs, doc)
				if err != nil {
					return nil, fmt.Errorf("perfbench: expected verdict for %s/%s: %w", pol.Name, l, err)
				}
				m[l] = d.Behavior != "block"
			}
			in.Verdict[c][j] = m
		}
	}

	// The universe interleaves the levels, so every stretch of a Zipf
	// draw over its indices mixes them in the same proportion; the seed
	// names the variants, so each seed's texts are its own.
	for v := 0; v < universePerLvl; v++ {
		for _, l := range workload.Levels {
			in.Universe = append(in.Universe, Pref{Level: l, XML: variant(l, fmt.Sprintf("seed %d universe %d", seed, v))})
		}
	}

	in.Resident = make([][]Pref, numTenants)
	for i := range in.Resident {
		for r := 0; r < residentPerTnt; r++ {
			l := workload.Levels[r%len(workload.Levels)]
			in.Resident[i] = append(in.Resident[i], Pref{Level: l, XML: variant(l, fmt.Sprintf("seed %d resident %d/%d", seed, i, r))})
		}
	}
	return in, nil
}

// PolicyDoc renders content c of slot j under a policy name.
func (in *Inputs) PolicyDoc(c, j int, name string) string {
	p := in.Contents[c][j].Clone()
	p.Name = name
	return p.String()
}

// SeedDoc renders tenant i's starting policies, named names, as one
// POLICIES document.
func (in *Inputs) SeedDoc(i int, names []string) string {
	pols := make([]*p3p.Policy, len(in.Slots))
	for j := range pols {
		pols[j] = in.Contents[i][j].Clone()
		pols[j].Name = names[j]
	}
	return p3p.PoliciesToDOM(pols).String()
}

// VersionName names version k of slot j.
func (in *Inputs) VersionName(j, k int) string {
	return in.Slots[j] + "-v" + strconv.Itoa(k)
}

// RefDoc renders a tenant's reference file: slot j's pages and cookies
// go to names[j]; nonce adds an archive exclusion so every
// reference-file update is a distinct document.
func (in *Inputs) RefDoc(names []string, nonce int) string {
	rf := &reffile.RefFile{}
	for j, slot := range in.Slots {
		rf.PolicyRefs = append(rf.PolicyRefs, &reffile.PolicyRef{
			About:          "/P3P/Policies.xml#" + names[j],
			Includes:       []string{"/" + slot + "/*"},
			Excludes:       []string{"/" + slot + "/internal/*", "/" + slot + "/archive-" + strconv.Itoa(nonce) + "/*"},
			CookieIncludes: []string{slot + "-*"},
			CookieExcludes: []string{slot + "-internal-*"},
		})
	}
	return rf.String()
}
