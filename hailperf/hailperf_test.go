package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the tests
// check the program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyConfig is a seconds-long run over a few thousand rows in several
// blocks.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.Workload = workload
	cfg.Seed = 5
	cfg.Seconds = 1
	cfg.Trace = trace
	cfg.Rows = 4000
	cfg.BlockSize = 64 << 10
	cfg.SetupReps = 1
	cfg.ServeRate = 50
	cfg.ProbeCap = 20
	cfg.WorkDir = t.TempDir()
	return cfg
}

// TestSmoke runs every workload, untraced and traced, at a tiny size and
// checks each emits every metric BENCHMARK.json names, with its unit, and
// answers correctly, traced answers matching untraced ones and every
// block replay matching its reader.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			o, err := execute(tinyConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if o.failed != 0 || o.invalid != "" || o.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed (%v) %s", w.Name, trace, o.failed, o.attempted, o.errs, o.invalid)
			}
			// At this size a request takes a millisecond or two, so
			// scheduling noise decides whether the layer budget
			// reconciles; full-size runs enforce it.
			if o.unreconciled != "" {
				t.Logf("%s trace=%v: %s", w.Name, trace, o.unreconciled)
			}
			got := map[string]string{}
			for _, m := range o.metrics {
				if _, dup := got[m.Name]; dup {
					t.Errorf("%s trace=%v: %s reported twice", w.Name, trace, m.Name)
				}
				got[m.Name] = m.Unit
			}
			for name, unit := range want {
				if got[name] != unit {
					t.Errorf("%s trace=%v: %s reported with unit %q, want %q", w.Name, trace, name, got[name], unit)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
		}
	}
}

// TestDeterministicCounters runs the same seed twice and requires every
// deterministic count to repeat exactly: per request, rows, tasks, access
// paths, cache blocks, namenode ops, bytes read and response bytes; per
// probe, rows scanned and selected; per upload, blocks and stored, index
// and saved bytes.
func TestDeterministicCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up four deployments")
	}
	type scanCounts struct {
		reqs  []counters
		probe [2]int64
	}
	scanOnce := func() scanCounts {
		cfg := tinyConfig(t, "scan", false)
		env, _, err := setupQueryEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer env.close()
		if err := prefillScan(env.h); err != nil {
			t.Fatal(err)
		}
		o := &outcome{}
		answers, _ := runScanWindow(cfg, env.h, newScanGen(cfg.Seed), 0, 40, false, o)
		if o.failed != 0 {
			t.Fatalf("scan: %v", o.errs)
		}
		var sc scanCounts
		for _, a := range answers {
			sc.reqs = append(sc.reqs, countersOf(a))
		}
		res, _, err := probeQueries(cfg, env, scanPhase{cfg: cfg}, answers, o)
		if err != nil {
			t.Fatal(err)
		}
		sc.probe = [2]int64{res.stats.RowsScanned, res.stats.RowsSelected}
		return sc
	}
	a, b := scanOnce(), scanOnce()
	if len(a.reqs) != 40 || len(b.reqs) != 40 {
		t.Fatalf("answered %d and %d of 40 requests", len(a.reqs), len(b.reqs))
	}
	for i := range a.reqs {
		if a.reqs[i] != b.reqs[i] {
			t.Errorf("scan request %d: counters %+v then %+v", i, a.reqs[i], b.reqs[i])
		}
	}
	if a.probe != b.probe || a.probe[0] == 0 {
		t.Errorf("probe rows scanned/selected %v then %v", a.probe, b.probe)
	}

	cfg := tinyConfig(t, "upload", false)
	u1, err := setupUpload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := setupUpload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameUpload(u1.sum, u2.sum); err != nil || u1.dirBytes != u2.dirBytes {
		t.Errorf("upload: %v; saved %d then %d bytes", err, u1.dirBytes, u2.dirBytes)
	}
}
