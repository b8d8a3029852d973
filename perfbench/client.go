package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"p3pdb/internal/server"
	"p3pdb/internal/workload"
)

// Workload is one traffic mix (README.md says why each exists). Every
// client repeats rounds of ChecksPerRound checks followed by one write
// operation until the timed phase ends, so the check/write proportion
// is the same in every run.
type Workload struct {
	Name           string
	Appel          bool // checks POST APPEL texts from the universe instead of naming a level
	ChecksPerRound int
}

var workloads = []Workload{
	{Name: "check-named", ChecksPerRound: 400},
	{Name: "check-appel", Appel: true, ChecksPerRound: 150},
	{Name: "write-mix", ChecksPerRound: 20},
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Traffic shape shared by the workloads.
const (
	probeEvery     = 250 * time.Microsecond // pause between follower reads while a write is not yet visible
	zipfS          = 1.1                    // skew of page popularity and of the preference universe
	cookieFraction = 0.25                   // share of checks that present a cookie
)

// agentMix is the named-level population: 60% apathetic, 25% mild, 15%
// paranoid.
var agentMix = []float64{0.60, 0.25, 0.15}

// write operation kinds.
const (
	opReplace    = iota // install next version, point the reference file at it, remove the old one
	opDraftAdd          // install an unreferenced draft policy
	opDraftDrop         // remove the oldest draft (installs one when there is none)
	opReference         // re-post the reference file with a new archive exclusion
	opPreference        // re-register a resident preference under another level
)

// opCycle is the order in which every client cycles through write
// operations: 3 replaces, 2 draft installs, 2 draft removals, 2
// reference-file updates and 1 preference registration in every 10, so
// each run has the same mix whatever its seed.
var opCycle = []int{opReplace, opDraftAdd, opReference, opDraftDrop, opReplace,
	opPreference, opDraftAdd, opReference, opDraftDrop, opReplace}

// client is one closed-loop user: it sends a request, waits for the
// answer, checks it, and only then sends the next.
type client struct {
	id   int
	rng  *rand.Rand
	hc   *http.Client
	dep  *Deployment
	in   *Inputs
	rec  *Record
	w    Workload
	slot *rand.Zipf
	pref *rand.Zipf
	ops  int       // write operations issued, indexing opCycle
	tr   *tracer   // nil in untraced phases
	t0   time.Time // start of the current phase

	res result
}

// sample is one timed operation: when it completed, in seconds since
// the phase began, and how long it took.
type sample struct{ at, ms float64 }

// result is what one client saw in one phase.
type result struct {
	checks, writes, failed  int
	checkMs, writeMs, visMs []sample
	docBytes, ckptBytes     int64
	wrong                   int
	unsoundFast             int
	notes                   []string
}

func (r *result) note(format string, args ...any) {
	if len(r.notes) < 5 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *result) add(o result) {
	r.checks += o.checks
	r.writes += o.writes
	r.failed += o.failed
	r.checkMs = append(r.checkMs, o.checkMs...)
	r.writeMs = append(r.writeMs, o.writeMs...)
	r.visMs = append(r.visMs, o.visMs...)
	r.docBytes += o.docBytes
	r.ckptBytes += o.ckptBytes
	r.wrong += o.wrong
	r.unsoundFast += o.unsoundFast
	for _, n := range o.notes {
		r.note("%s", n)
	}
}

func newClient(id int, dep *Deployment, in *Inputs, rec *Record, w Workload) *client {
	rng := rand.New(rand.NewSource(in.Seed*1000 + int64(id) + 7))
	return &client{
		id: id, rng: rng, hc: newHTTPClient(), dep: dep, in: in, rec: rec, w: w,
		slot: rand.NewZipf(rng, zipfS, 1, uint64(len(in.Slots)-1)),
		pref: rand.NewZipf(rng, zipfS, 1, uint64(len(in.Universe)-1)),
	}
}

// run repeats whole rounds until the deadline and returns what the
// phase saw.
func (c *client) run(start, deadline time.Time) result {
	c.res, c.t0 = result{}, start
	for time.Now().Before(deadline) {
		for i := 0; i < c.w.ChecksPerRound; i++ {
			c.check()
		}
		c.write()
	}
	return c.res
}

func (c *client) agent() int {
	u, acc := c.rng.Float64(), 0.0
	for i, f := range agentMix {
		acc += f
		if u < acc {
			return i
		}
	}
	return len(agentMix) - 1
}

// check sends one /check to the leader and judges the answer against
// the native engine's verdict for every policy version the request
// may have seen.
func (c *client) check() {
	ti := c.rng.Intn(len(c.in.Tenants))
	t := c.rec.tenants[ti]
	j := int(c.slot.Uint64())
	slot := c.in.Slots[j]
	uri := "/" + slot + "/index.html"
	q := url.Values{"url": {uri}}
	cookie := c.rng.Float64() < cookieFraction
	if cookie {
		q.Set("cookie", slot+"-session")
	}
	var level, body, agent string
	method := http.MethodGet
	if c.w.Appel {
		p := c.in.Universe[c.pref.Uint64()]
		level, body, method = p.Level, p.XML, http.MethodPost
	} else {
		a := agentLevels[c.agent()]
		agent, level = a.Name, a.Level
		q.Set("level", agent)
	}
	target := c.dep.leader.url + "/sites/" + c.in.Tenants[ti] + "/check?" + q.Encode()

	lo := t.lo()
	start := time.Now()
	status, data, err := do(context.Background(), c.hc, method, target, body)
	elapsed := time.Since(start)
	hi := t.hi()
	c.res.checks++
	if err != nil || status != http.StatusOK {
		c.res.failed++
		c.res.note("check %s: status %d err %v: %.200s", target, status, err, data)
		return
	}
	c.res.checkMs = append(c.res.checkMs, c.sample(elapsed))
	if c.tr != nil {
		c.tr.replayCheck(ti, agent, level, body, uri)
	}

	var resp server.CheckResponse
	if err := json.Unmarshal(data, &resp); err != nil || resp.URL == nil || (cookie && resp.Cookie == nil) {
		c.res.wrong++
		c.res.note("check %s: undecodable answer %.200s", target, data)
		return
	}
	cands := t.candidates(j, lo, hi)
	want := true
	for _, part := range []*server.CheckPartResponse{resp.URL, resp.Cookie} {
		if part == nil {
			continue
		}
		ok := false
		for _, b := range cands {
			if part.PolicyName == b.name && part.Allowed == c.in.Verdict[b.content][j][level] {
				ok = true
				break
			}
		}
		if !ok {
			c.res.wrong++
			c.res.note("check %s (%s): %s allowed=%v fast=%v, expected one of %v", target, level, part.PolicyName, part.Allowed, part.FastPath, describe(c.in, j, level, cands))
			if part.FastPath && part.Allowed {
				c.res.unsoundFast++
			}
			return
		}
		want = want && part.Allowed
	}
	if resp.Allowed != want {
		c.res.wrong++
		c.res.note("check %s: allowed=%v but its parts give %v", target, resp.Allowed, want)
	}
}

func describe(in *Inputs, j int, level string, cands []binding) string {
	var parts []string
	for _, b := range cands {
		parts = append(parts, fmt.Sprintf("%s allowed=%v", b.name, in.Verdict[b.content][j][level]))
	}
	return strings.Join(parts, ", ")
}

// write performs one write operation on a tenant: one or more HTTP
// writes, each probed on the follower until it is visible there.
func (c *client) write() {
	op := opCycle[(c.ops+c.id*len(opCycle)/2)%len(opCycle)]
	c.ops++
	c.writeOp(c.rng.Intn(len(c.in.Tenants)), op)
}

// writeOp performs write operation op on tenant ti.
func (c *client) writeOp(ti, op int) {
	t := c.rec.tenants[ti]
	t.wmu.Lock()
	defer t.wmu.Unlock()
	base := "/sites/" + c.in.Tenants[ti]
	if op == opDraftDrop && len(t.drafts) == 0 {
		op = opDraftAdd
	}
	switch op {
	case opReplace:
		j := c.rng.Intn(len(c.in.Slots))
		old, k := t.names[j], t.next[j]
		t.next[j]++
		name := c.in.VersionName(j, k)
		content := (t.content[j] + 1 + c.rng.Intn(numContents-1)) % numContents
		doc := c.in.PolicyDoc(content, j, name)
		if !c.send(ti, http.MethodPost, base+"/policies", doc, http.StatusCreated, c.policyProbe(base, name, true), nil) {
			return
		}
		t.docs[name] = doc
		names := append([]string(nil), t.names...)
		names[j] = name
		ref := c.in.RefDoc(names, t.refNonce)
		rebind := func(s int64, undo bool) {
			if undo {
				t.rebind(s, j, old, t.content[j])
			} else {
				t.rebind(s, j, name, content)
			}
		}
		if !c.send(ti, http.MethodPost, base+"/reference", ref, http.StatusNoContent, c.refProbe(base, ref), rebind) {
			return
		}
		t.names, t.content[j], t.ref = names, content, ref
		if !c.send(ti, http.MethodDelete, base+"/policies/"+old, "", http.StatusNoContent, c.policyProbe(base, old, false), nil) {
			return
		}
		delete(t.docs, old)
	case opDraftAdd:
		j := c.rng.Intn(len(c.in.Slots))
		name := "draft-" + strconv.Itoa(t.draftSeq)
		t.draftSeq++
		doc := c.in.PolicyDoc(c.rng.Intn(numContents), j, name)
		if c.send(ti, http.MethodPost, base+"/policies", doc, http.StatusCreated, c.policyProbe(base, name, true), nil) {
			t.docs[name] = doc
			t.drafts = append(t.drafts, name)
		}
	case opDraftDrop:
		name := t.drafts[0]
		if c.send(ti, http.MethodDelete, base+"/policies/"+name, "", http.StatusNoContent, c.policyProbe(base, name, false), nil) {
			delete(t.docs, name)
			t.drafts = t.drafts[1:]
		}
	case opReference:
		ref := c.in.RefDoc(t.names, t.refNonce+1)
		if c.send(ti, http.MethodPost, base+"/reference", ref, http.StatusNoContent, c.refProbe(base, ref), nil) {
			t.refNonce++
			t.ref = ref
		}
	case opPreference:
		r := c.rng.Intn(residentPerTnt)
		name := residentName(r)
		cur := t.prefs[name]
		level := cur.Level
		for level == cur.Level {
			level = workload.Levels[c.rng.Intn(len(workload.Levels))]
		}
		p := Pref{Level: level, XML: variant(level, fmt.Sprintf("resident %d/%d as %s", ti, r, level))}
		if c.send(ti, http.MethodPost, base+"/prefs?engines=sql&name="+name, p.XML, http.StatusCreated, c.prefProbe(base, name, level), nil) {
			t.prefs[name] = p
		}
	}
}

// send performs one HTTP write on the leader. rebind, when set, records
// the write's effect on slot bindings at the write's state index (and
// undoes it at a later index if the write fails). After the
// acknowledgement the client probes the follower until probe reports
// the write visible there.
func (c *client) send(ti int, method, path, body string, want int, probe func() bool, rebind func(s int64, undo bool)) bool {
	t := c.rec.tenants[ti]
	s := t.started.Add(1)
	if rebind != nil {
		rebind(s, false)
	}
	var shadow func()
	if c.tr != nil {
		shadow = c.tr.prepareWrite(ti, method, path, body)
	}
	start := time.Now()
	status, data, err := do(context.Background(), c.hc, method, c.dep.leader.url+path, body)
	elapsed := time.Since(start)
	c.res.writes++
	if err != nil || status != want {
		c.res.failed++
		c.res.note("%s %s: status %d err %v: %.200s", method, path, status, err, data)
		s2 := t.started.Add(1)
		if rebind != nil {
			rebind(s2, true)
		}
		t.acked.Store(s2)
		return false
	}
	t.acked.Store(s)
	c.res.writeMs = append(c.res.writeMs, c.sample(elapsed))
	c.res.docBytes += int64(len(body))
	tenant := c.in.Tenants[ti]
	if j := c.dep.reg.Journal(tenant); j != nil {
		if ck := j.Status().CheckpointLSN; ck != t.ckptLSN {
			t.ckptLSN = ck
			if fi, err := os.Stat(filepath.Join(c.dep.dir, "leader", tenant, "snapshot.json")); err == nil {
				c.res.ckptBytes += fi.Size()
			}
		}
	}
	if c.tr != nil {
		c.tr.readFrom(ti)
	}
	visStart := time.Now()
	for !probe() {
		if time.Since(visStart) > 10*time.Second {
			c.res.failed++
			c.res.note("%s %s: not visible on the follower after 10s", method, path)
			return false
		}
		time.Sleep(probeEvery)
	}
	c.res.visMs = append(c.res.visMs, c.sample(time.Since(visStart)))
	if shadow != nil {
		shadow()
	}
	return true
}

// follower reads: each reports whether the follower shows the write.

func (c *client) policyProbe(base, name string, present bool) func() bool {
	u := base + "/policies/" + name
	return func() bool {
		status, _, err := do(context.Background(), c.hc, http.MethodGet, c.dep.fsrv.url+u, "")
		if err != nil {
			return false
		}
		if present {
			return status == http.StatusOK
		}
		return status == http.StatusNotFound
	}
}

func (c *client) refProbe(base, ref string) func() bool {
	return func() bool {
		status, data, err := do(context.Background(), c.hc, http.MethodGet, c.dep.fsrv.url+base+"/reference", "")
		return err == nil && status == http.StatusOK && string(data) == ref
	}
}

func (c *client) prefProbe(base, name, level string) func() bool {
	rules := len(mustLevel(level).Ruleset.Rules)
	return func() bool {
		status, data, err := do(context.Background(), c.hc, http.MethodGet, c.dep.fsrv.url+base+"/prefs", "")
		if err != nil || status != http.StatusOK {
			return false
		}
		var st server.PrefsStatus
		if json.Unmarshal(data, &st) != nil {
			return false
		}
		for _, p := range st.Preferences {
			if p.Name == name {
				return p.Rules == rules
			}
		}
		return false
	}
}

func mustLevel(level string) workload.Preference {
	p, ok := workload.PreferenceByLevel(level)
	if !ok {
		panic("perfbench: unknown level " + level)
	}
	return p
}

// sample stamps a latency that ended now.
func (c *client) sample(d time.Duration) sample {
	return sample{at: time.Since(c.t0).Seconds(), ms: float64(d.Nanoseconds()) / 1e6}
}
