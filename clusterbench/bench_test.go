package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"innet/internal/cluster"
	"innet/internal/loadgen"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, ours)
	}
	return e2e, layer
}

// shortRun runs one workload briefly and returns its exit code and the
// final JSON line.
func shortRun(t *testing.T, workload string, trace string) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "3", "--trace", trace}, &out, io.Discard)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	return code, res
}

func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range workloads {
		for trace, want := range map[string]map[string]string{"0": e2e, "1": layer} {
			code, res := shortRun(t, w.name, trace)
			if code != 0 || !res.Correct {
				t.Errorf("%s --trace %s: exit %d, correct %v", w.name, trace, code, res.Correct)
			}
			if res.Attempted < 1 {
				t.Errorf("%s --trace %s: attempted %d", w.name, trace, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s --trace %s: %s not emitted", w.name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s --trace %s: %s in %q, declared %q", w.name, trace, name, m.Unit, unit)
				}
			}
		}
	}
}

func TestTamperedAnswerFailsTheRun(t *testing.T) {
	answerHook = func(mode string, res *cluster.WireMergedEstimate) {
		if mode == cluster.MergeCompact && len(res.Outliers) > 0 {
			res.Outliers[0].Values[0] += 1e-9
		}
	}
	defer func() { answerHook = nil }()
	code, res := shortRun(t, "dashboard", "0")
	if code == 0 || res.Correct {
		t.Fatalf("tampered compact answer passed: exit %d, correct %v", code, res.Correct)
	}
}

// input renders the first n readings a scenario's generator sends, as
// line-protocol bytes.
func input(sc *loadgen.Scenario, n int) []byte {
	g := &generator{sc: sc, trace: loadgen.NewTrace(sc), truth: &truth{}}
	var b []byte
	for i := 0; i < n; i++ {
		b = appendLine(b, g.next())
	}
	return b
}

func TestSameSeedSameInput(t *testing.T) {
	for name, scen := range map[string]func(uint64) *loadgen.Scenario{
		"steady": steadyScenario, "churnloss": churnLossScenario,
	} {
		a, b := input(scen(7), 20000), input(scen(7), 20000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced different input twice", name)
		}
		if bytes.Equal(a, input(scen(8), 20000)) {
			t.Errorf("%s: seeds 7 and 8 produced the same input", name)
		}
	}
}

func TestBootSplitsSensorsEvenly(t *testing.T) {
	for i := 0; i < 4; i++ {
		c, err := startCluster(clusterOpts{replicas: 1, balance: 4})
		if err != nil {
			t.Fatal(err)
		}
		var addrs []string
		for _, sh := range c.shards {
			addrs = append(addrs, sh.srv.Addr())
		}
		c.close()
		if !balanced(addrs, 4) {
			t.Fatalf("boot %d: shards %v do not split sensors 1..4 evenly", i, addrs)
		}
	}
}
