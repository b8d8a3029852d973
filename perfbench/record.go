package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"p3pdb/internal/core"
)

// Record is the benchmark's own account of what it wrote, kept apart
// from the program: the expected state of every tenant after each
// acknowledged write, and the history of which policy version served
// each slot, so a /check can be judged against every version it may
// have seen.
type Record struct {
	in      *Inputs
	tenants []*tenantRecord
}

// binding is one span of a slot's history: from state index from on,
// the slot's pages resolve to policy name, holding content.
type binding struct {
	from    int64
	name    string
	content int
}

type tenantRecord struct {
	// wmu serializes the benchmark's writes to the tenant, so its states
	// form one sequence: state s is the one after the s-th write.
	wmu      sync.Mutex
	started  atomic.Int64 // index of the newest state a write has begun
	acked    atomic.Int64 // index of the newest acknowledged state
	names    []string     // current version name per slot
	content  []int        // current content per slot
	next     []int        // next version number per slot
	docs     map[string]string
	drafts   []string
	draftSeq int
	ref      string
	refNonce int
	prefs    map[string]Pref
	ckptLSN  uint64

	hmu  sync.RWMutex
	hist [][]binding // per slot
}

func newRecord(in *Inputs) *Record {
	r := &Record{in: in}
	for i := range in.Tenants {
		t := &tenantRecord{docs: map[string]string{}, prefs: map[string]Pref{}}
		for j := range in.Slots {
			name := in.VersionName(j, 0)
			t.names = append(t.names, name)
			t.content = append(t.content, i)
			t.next = append(t.next, 1)
			t.docs[name] = in.PolicyDoc(i, j, name)
			t.hist = append(t.hist, []binding{{from: 0, name: name, content: i}})
		}
		t.ref = in.RefDoc(t.names, 0)
		for k, p := range in.Resident[i] {
			t.prefs[residentName(k)] = p
		}
		r.tenants = append(r.tenants, t)
	}
	return r
}

// lo and hi bound the states a read may observe: lo, read before the
// request is sent, is the newest acknowledged state; hi, read after the
// answer, the newest state any write had begun.
func (t *tenantRecord) lo() int64 { return t.acked.Load() }
func (t *tenantRecord) hi() int64 { return t.started.Load() }

// candidates lists the bindings of slot j live anywhere in [lo, hi].
func (t *tenantRecord) candidates(j int, lo, hi int64) []binding {
	t.hmu.RLock()
	defer t.hmu.RUnlock()
	h := t.hist[j]
	var out []binding
	for k, b := range h {
		end := int64(1) << 62
		if k+1 < len(h) {
			end = h[k+1].from
		}
		if b.from <= hi && end > lo {
			out = append(out, b)
		}
	}
	return out
}

// rebind records that from state s on, slot j resolves to name.
func (t *tenantRecord) rebind(s int64, j int, name string, content int) {
	t.hmu.Lock()
	t.hist[j] = append(t.hist[j], binding{from: s, name: name, content: content})
	t.hmu.Unlock()
}

// Compare checks a site's state against the record of tenant i and
// returns every difference.
func (r *Record) Compare(i int, exp core.StateExport) []string {
	t := r.tenants[i]
	var diffs []string
	tag := r.in.Tenants[i]
	got := append([]string(nil), exp.Order...)
	want := make([]string, 0, len(t.docs))
	for n := range t.docs {
		want = append(want, n)
	}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		diffs = append(diffs, fmt.Sprintf("%s: policies %v, recorded %v", tag, got, want))
	}
	for _, n := range want {
		if doc, ok := exp.PolicyXML[n]; ok && doc != t.docs[n] {
			diffs = append(diffs, fmt.Sprintf("%s: policy %s differs from the recorded document", tag, n))
		}
	}
	if exp.ReferenceXML != t.ref {
		diffs = append(diffs, fmt.Sprintf("%s: reference file differs from the recorded one", tag))
	}
	if len(exp.Prefs) != len(t.prefs) {
		diffs = append(diffs, fmt.Sprintf("%s: %d preferences, recorded %d", tag, len(exp.Prefs), len(t.prefs)))
	}
	for _, p := range exp.Prefs {
		if want, ok := t.prefs[p.Name]; !ok || want.XML != p.XML {
			diffs = append(diffs, fmt.Sprintf("%s: preference %s differs from the recorded one", tag, p.Name))
		}
	}
	return diffs
}
