package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// tiny runs one short run of a workload.
func tiny(t *testing.T, w Workload, trace bool, tamper func(*Inputs, *Record)) *Result {
	t.Helper()
	res, err := Run(Config{Workload: w, Seed: 1, Seconds: 1, Trace: trace, Dir: t.TempDir(), Log: io.Discard, Tamper: tamper})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return res
}

// flipVerdict inverts the expected verdict of one (content, slot, level):
// the initial policy of the hottest slot of the first tenant, for the
// level the workload sends most.
func flipVerdict(level string) func(*Inputs, *Record) {
	return func(in *Inputs, rec *Record) {
		c := rec.tenants[0].content[0]
		in.Verdict[c][0][level] = !in.Verdict[c][0][level]
	}
}

// alterPolicy changes the recorded document of one installed policy.
func alterPolicy(in *Inputs, rec *Record) {
	t := rec.tenants[0]
	name := t.names[len(in.Slots)-1]
	t.docs[name] = strings.Replace(t.docs[name], "Commerce Way", "Commerce Road", 1)
}

func TestTinyRunsPassAndTamperedRunsFail(t *testing.T) {
	if testing.Short() {
		t.Skip("each tiny run sets up a whole deployment")
	}
	cases := map[string]string{"check-named": "Very Low", "check-appel": "High", "write-mix": "High"}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := tiny(t, w, false, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("clean run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got := len(res.Metrics); got != 12 {
				t.Errorf("clean run reported %d end-to-end metrics, want 12", got)
			}
			if res := tiny(t, w, false, flipVerdict(cases[w.Name])); res.Correct {
				t.Errorf("run with one expected verdict flipped still reports correct")
			}
			if res := tiny(t, w, false, alterPolicy); res.Correct {
				t.Errorf("run with one expected policy altered still reports correct")
			}
		})
	}
}

// TestTracedRunReportsEveryLayer checks the traced run against the
// per-layer list in BENCHMARK.json.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up a whole deployment")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	res := tiny(t, workloads[2], true, nil)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced run reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("traced run lacks %s", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}
