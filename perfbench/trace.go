package main

import (
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"p3pdb/internal/core"
	"p3pdb/internal/durable"
	"p3pdb/internal/p3p"
	"p3pdb/internal/reffile"
	"p3pdb/internal/workload"
)

// tracer times the layers of the traced phase from outside the
// program: beside every HTTP operation it replays the same input into
// the public function that implements each layer. Checks replay into
// an in-memory shadow site holding the leader's state (so the leader's
// caches see exactly the HTTP traffic); writes replay into that shadow
// and into a durable shadow tenant of its own.
type tracer struct {
	dep   *Deployment
	in    *Inputs
	mem   []*core.Site
	dsite []*core.Site
	dj    []*durable.Tenant

	mu   sync.Mutex
	sums map[string]*mean
}

type mean struct {
	sum float64
	n   int
}

func (m *mean) value() float64 {
	if m == nil || m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

func newTracer(dep *Deployment, in *Inputs) (*tracer, error) {
	tr := &tracer{dep: dep, in: in, sums: map[string]*mean{}}
	store, err := durable.Open(filepath.Join(dep.dir, "shadow"), durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		return nil, err
	}
	for _, t := range in.Tenants {
		site, err := dep.reg.Get(t)
		if err != nil {
			return nil, err
		}
		exp := site.ExportState()
		mem, err := core.NewSite()
		if err == nil {
			err = mem.RestoreState(exp)
		}
		if err != nil {
			return nil, fmt.Errorf("perfbench: shadow of %s: %w", t, err)
		}
		j, err := store.OpenTenant(t)
		if err != nil {
			return nil, err
		}
		dsite, err := core.NewSite()
		if err == nil {
			err = dsite.RestoreState(exp)
		}
		if err == nil {
			err = j.Checkpoint(dsite)
		}
		if err != nil {
			j.Close()
			return nil, fmt.Errorf("perfbench: durable shadow of %s: %w", t, err)
		}
		tr.mem = append(tr.mem, mem)
		tr.dsite = append(tr.dsite, dsite)
		tr.dj = append(tr.dj, j)
	}
	return tr, nil
}

func (tr *tracer) close() {
	for _, j := range tr.dj {
		_ = j.Close() // shadow state is discarded with the run directory
	}
}

func (tr *tracer) observe(name string, d time.Duration) {
	tr.mu.Lock()
	m := tr.sums[name]
	if m == nil {
		m = &mean{}
		tr.sums[name] = m
	}
	m.sum += float64(d.Nanoseconds()) / 1e3
	m.n++
	tr.mu.Unlock()
}

// replayCheck replays one check's input into the request path's
// layers. Named-level resolution is timed for the check's level on
// every workload; only check-named sends level names over HTTP.
func (tr *tracer) replayCheck(ti int, agent, level, body, uri string) {
	start := time.Now()
	p, _ := workload.PreferenceByLevel(level)
	tr.observe("workload.preference_by_level_us", time.Since(start))
	pref := body
	if agent != "" {
		pref = p.XML
	}

	start = time.Now()
	site, err := tr.dep.reg.Get(tr.in.Tenants[ti])
	tr.observe("registry.get_us", time.Since(start))
	if err != nil {
		return
	}
	start = time.Now()
	_, _ = site.PolicyForURI(uri) // the HTTP answer is the one checked
	tr.observe("reffile.policy_for_uri_us", time.Since(start))

	start = time.Now()
	_, _ = tr.mem[ti].CheckURI(pref, uri, core.EngineSQL)
	tr.observe("core.check_uri_us", time.Since(start))
}

// prepareWrite builds the shadow replay of one HTTP write before it is
// sent (parsing is not part of the timed layers); the returned function
// applies it once the write is visible on the follower, so the replay
// does not delay the visibility probe.
func (tr *tracer) prepareWrite(ti int, method, path, body string) func() {
	var mut core.Mutation
	var durableCall func() error
	mem, dsite, j := tr.mem[ti], tr.dsite[ti], tr.dj[ti]
	rest := path[strings.Index(path, "/sites/")+len("/sites/"):]
	rest = rest[strings.Index(rest, "/"):]
	switch {
	case method == http.MethodPost && rest == "/policies":
		pols, err := p3p.ParsePolicies(body)
		if err != nil {
			return nil
		}
		mut = core.InstallPoliciesMutation(pols)
		durableCall = func() error { _, err := j.InstallPolicyXML(dsite, body); return err }
	case method == http.MethodDelete && strings.HasPrefix(rest, "/policies/"):
		name := strings.TrimPrefix(rest, "/policies/")
		mut = core.RemovePolicyMutation(name)
		durableCall = func() error { return j.RemovePolicy(dsite, name) }
	case method == http.MethodPost && rest == "/reference":
		rf, err := reffile.Parse(body)
		if err != nil {
			return nil
		}
		mut = core.InstallReferenceFileMutation(rf)
		durableCall = func() error { return j.InstallReferenceFileXML(dsite, body) }
	case method == http.MethodPost && strings.HasPrefix(rest, "/prefs?"):
		u, err := url.Parse(rest)
		if err != nil {
			return nil
		}
		name := u.Query().Get("name")
		m, err := core.RegisterPreferenceMutation(name, body, []string{"sql"})
		if err != nil {
			return nil
		}
		mut = m
		durableCall = func() error { return j.RegisterPreferenceXML(dsite, name, body, []string{"sql"}) }
	default:
		return nil
	}
	return func() {
		start := time.Now()
		err := mem.ApplyBatch([]core.Mutation{mut})
		tr.observe("core.apply_us", time.Since(start))
		if err == nil {
			start = time.Now()
			_ = durableCall() // a shadow failure shows as a state diff nowhere; the leader's answer is the one checked
			tr.observe("durable.write_us", time.Since(start))
		}
	}
}

// readFrom times the leader's WAL read at the follower's cursor, taken
// right after an acknowledgement, before the follower has caught up.
func (tr *tracer) readFrom(ti int) {
	t := tr.in.Tenants[ti]
	var cursor uint64
	for _, st := range tr.dep.follower.Status() {
		if st.Tenant == t {
			cursor = st.AppliedLSN
		}
	}
	if j := tr.dep.reg.Journal(t); j != nil {
		start := time.Now()
		_, _, _, _ = j.ReadFrom(cursor) // read-only; its result is not needed
		tr.observe("durable.read_from_us", time.Since(start))
	}
}

// replay times Tenant.ReplayInto over the crashed leader's directory,
// one fresh site per tenant, before the timed reopen.
func (tr *tracer) replay(dir string, tenants []string) error {
	store, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		return err
	}
	for _, t := range tenants {
		j, err := store.OpenTenant(t)
		if err != nil {
			return err
		}
		site, err := core.NewSite()
		if err != nil {
			j.Close()
			return err
		}
		start := time.Now()
		err = j.ReplayInto(site)
		tr.observe("durable.replay_us", time.Since(start))
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("perfbench: replaying %s: %w", t, err)
		}
	}
	return nil
}

// perLayer assembles the per-layer metrics: counter deltas and memory
// statistics from the untraced phase p, replay timings from tr.
func perLayer(p *phase, tr *tracer) map[string]Metric {
	c := func(name string) float64 { return float64(p.delta.Counters[name]) }
	h := p.delta.Histograms
	checks, writes, ops := float64(p.res.checks), float64(p.res.writes), float64(p.ops())
	handler := h["server.check.latency_us"].Mean()
	clientUs := 0.0
	for _, v := range p.res.checkMs {
		clientUs += v.ms * 1e3
	}
	clientUs = ratio(clientUs, checks)
	// Decision-cache hits record zero convert and query time; the means
	// are over matches the engine ran.
	sqlRuns := max(float64(h["core.match.sql.convert_us"].Count)-c("decision.hits"), 0)
	m := map[string]Metric{
		"server.handler_us":                {handler, "us"},
		"server.transport_us":              {clientUs - handler, "us"},
		"compact.fastpath_share":           {ratio(c("fastpath.hits"), c("fastpath.checks")), "ratio"},
		"decision.hit_rate":                {ratio(c("decision.hits"), c("decision.hits")+c("decision.misses")), "ratio"},
		"core.convcache.hit_rate":          {ratio(c("core.convcache.hits"), c("core.convcache.hits")+c("core.convcache.misses")), "ratio"},
		"core.match.sql.convert_us":        {ratio(float64(h["core.match.sql.convert_us"].Sum), sqlRuns), "us"},
		"core.match.sql.query_us":          {ratio(float64(h["core.match.sql.query_us"].Sum), sqlRuns), "us"},
		"reldb.statements_per_check":       {ratio(c("reldb.statements"), checks), "count"},
		"reldb.rows_scanned_per_check":     {ratio(c("reldb.rows_scanned"), checks), "count"},
		"reldb.index_lookups_per_check":    {ratio(c("reldb.index_lookups"), checks), "count"},
		"core.prewarm.evaluated_per_write": {ratio(c("core.prewarm.evaluated"), writes), "count"},
		"core.prewarm.selectivity":         {ratio(c("core.prewarm.selected_rules"), c("core.prewarm.total_rules")), "ratio"},
		"decision.preseeds_per_write":      {ratio(c("decision.preseeds"), writes), "count"},
		"durable.fsyncs_per_write":         {ratio(c("durable.fsyncs"), writes), "count"},
		"durable.bytes_per_write":          {ratio(c("durable.bytes_appended"), writes), "bytes"},
		"durable.group_size":               {ratio(c("durable.apply_group_mutations"), c("durable.apply_groups")), "count"},
		"replica.batch_size":               {ratio(c("replica.apply_batch_records"), c("replica.apply_batches")), "count"},
		"replica.sync_rounds_per_write":    {ratio(c("replica.sync_rounds"), writes), "count"},
		"go.allocs_per_op":                 {ratio(float64(p.mallocs), ops), "count"},
		"go.alloc_bytes_per_op":            {ratio(float64(p.bytes), ops), "bytes"},
		"go.gc_cycles":                     {float64(p.gcs), "count"},
		"workload.preference_by_level_us":  {tr.sums["workload.preference_by_level_us"].value(), "us"},
		"registry.get_us":                  {tr.sums["registry.get_us"].value(), "us"},
		"reffile.policy_for_uri_us":        {tr.sums["reffile.policy_for_uri_us"].value(), "us"},
		"core.check_uri_us":                {tr.sums["core.check_uri_us"].value(), "us"},
		"core.apply_us":                    {tr.sums["core.apply_us"].value(), "us"},
		"durable.write_us":                 {tr.sums["durable.write_us"].value(), "us"},
		"durable.read_from_us":             {tr.sums["durable.read_from_us"].value(), "us"},
		"durable.replay_us":                {tr.sums["durable.replay_us"].value(), "us"},
	}
	return m
}
