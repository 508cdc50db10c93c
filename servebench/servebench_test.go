package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the benchmark must honour.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func shortConfig(t *testing.T, wl string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.out = wl, 7, 0.5, trace, t.TempDir()
	cfg.setupRounds, cfg.uploads, cfg.probeRounds, cfg.maxProbe = 1, 2, 1, 20
	return cfg
}

// TestSmokeEveryWorkload runs every workload briefly in both modes and
// checks that the result line carries exactly the metrics BENCHMARK.json
// names for that mode, each with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			name := wl + map[bool]string{false: "/end-to-end", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				rep, err := run(shortConfig(t, wl, trace))
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				printReport(&out, rep)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
					t.Fatalf("result keys: %s", lines[len(lines)-1])
				}
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v %v", res.Correct, res.Attempted, res.Failed, rep.wrong, rep.errs)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
					if !strings.Contains(out.String(), m.Name) {
						t.Errorf("metric %s not printed", m.Name)
					}
				}
				if trace {
					if _, err := os.Stat(rep.spans); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

// TestWrongAnswerIsCaught corrupts an expected answer after set-up and
// checks that a measured run of each mode prints "correct": false and
// exits 1, and that the layer replay and the store probe each report
// the wrong answers too.
func TestWrongAnswerIsCaught(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := shortConfig(t, wlRecords, trace)
		in, err := makeInputs(cfg.workload, cfg.seed)
		if err != nil {
			t.Fatal(err)
		}
		d, setups, err := setUpRounds(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.close()
		// Only the most frequent key's answer is corrupted, so the other
		// queries complete and the run yields its metrics.
		tn := in.tenants[0]
		tn.expect[0][0] = append(append([]int(nil), tn.expect[0][0]...), tn.bitLen)
		rep, err := d.measure(cfg, setups)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.wrong) == 0 {
			t.Errorf("trace=%v: no wrong answer reported", trace)
		}
		var out bytes.Buffer
		if code := finish(&out, rep); code != 1 {
			t.Errorf("trace=%v: exit code %d, want 1", trace, code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct{ Correct *bool }
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct == nil || *res.Correct {
			t.Errorf("trace=%v: result line %s (%v)", trace, lines[len(lines)-1], err)
		}
		if trace {
			rpcs := []rpcSpan{{req: 1, tenant: 0, query: 0, start: time.Now(), end: time.Now()}}
			if _, wrong, err := d.replay(&tracer{base: time.Now()}, rpcs); err != nil || len(wrong) != 1 {
				t.Errorf("replay: %v, %d wrong", err, len(wrong))
			}
			if sp, err := d.probeStore(rpcs, 1); err != nil || len(sp.wrong) != 1 {
				t.Errorf("store probe: %v, %+v", err, sp)
			}
		}
	}
}

// TestInputsDeterministic checks that a seed fixes every byte the
// workload sends and its operation sequence, and that seeds differ.
func TestInputsDeterministic(t *testing.T) {
	digest := func(t *testing.T, wl string, seed int64) string {
		t.Helper()
		in, err := makeInputs(wl, seed)
		if err != nil {
			t.Fatal(err)
		}
		d, err := setUp(in, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer d.close()
		return d.inputsDigest(500)
	}
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			a, b, c := digest(t, wl, 11), digest(t, wl, 11), digest(t, wl, 12)
			if a != b {
				t.Errorf("seed 11 gave two digests: %s, %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 11 and 12 gave the same inputs")
			}
		})
	}
}
