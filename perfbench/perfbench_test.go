package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"pstore/internal/b2w"
	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/wal"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {99, 10}, {100, 10}, {10, 1}, {11, 2}, {0.1, 1},
	} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// TestQuartilesMatchPython checks quartiles against the values Python's
// statistics.quantiles(data, n=4) gives for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data        []float64
		q1, q3, med float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 7.75, 3.75},
		{[]float64{5, 1}, 0, 6, 3},
		{[]float64{0.4, 0.1, 0.3, 0.2, 0.9, 0.5, 0.7}, 0.2, 0.7, 0.4},
	} {
		q1, q3 := quartiles(c.data)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
		if m := median(c.data); !near(m, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.data, m, c.med)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	spec := loadSpec()
	draw := func(seed int64, mix b2w.Mix) []request {
		g, err := newGenerator(seed, spec, mix)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]request, 500)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b := draw(42, b2w.DefaultMix()), draw(42, b2w.DefaultMix())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different transactions")
	}
	if reflect.DeepEqual(a, draw(43, b2w.DefaultMix())) {
		t.Fatal("different seeds drew the same transactions")
	}
	writes := map[string]bool{}
	for _, name := range writeTxns {
		writes[name] = true
	}
	for _, r := range draw(7, writeMix()) {
		if !writes[r.txn] {
			t.Fatalf("write mix drew read-only %s", r.txn)
		}
	}
}

func TestClientCountCappedAtCPUs(t *testing.T) {
	for nproc := 1; nproc <= 64; nproc++ {
		c := clientCount(nproc)
		if c < 1 || c > nproc || c > maxClients {
			t.Errorf("clientCount(%d) = %d", nproc, c)
		}
	}
}

// TestTimingFSIsByteTransparent writes the same workload into one data
// directory through timingFS and another through wal.OSFS directly; both
// must cold-start to the same content.
func TestTimingFSIsByteTransparent(t *testing.T) {
	write := func(fs wal.FS) string {
		dir := t.TempDir()
		eng, rm := openDurable(t, dir, fs)
		if err := b2w.Load(eng, b2w.LoadSpec{Carts: 60, Checkouts: 20, Stocks: 40, LinesPerCart: 2, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		if _, err := rm.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		g, err := newGenerator(9, b2w.LoadSpec{Carts: 60, Checkouts: 20, Stocks: 40}, writeMix())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			r := g.next()
			if _, err := eng.Execute(r.txn, r.key, r.args); err != nil && !isBusinessError(err) {
				t.Fatal(err)
			}
		}
		eng.Stop()
		if err := rm.Close(); err != nil {
			t.Fatal(err)
		}
		eng, rm = openDurable(t, dir, wal.OSFS{})
		if _, err := rm.ColdStart(); err != nil {
			t.Fatal(err)
		}
		fp, _, err := fingerprint(eng)
		if err != nil {
			t.Fatal(err)
		}
		eng.Stop()
		rm.Close()
		return fp
	}
	st := &ioStats{}
	timedFP := write(timingFS{wal.OSFS{}, st})
	plainFP := write(wal.OSFS{})
	if timedFP != plainFP {
		t.Fatalf("cold start through timingFS gave %s, through OSFS %s", timedFP, plainFP)
	}
	if st.writeBytes.Load() == 0 || st.syncs.Load() == 0 {
		t.Fatalf("timingFS counted nothing: %+v", st.snapshot())
	}
}

func openDurable(t *testing.T, dir string, fs wal.FS) (*store.Engine, *recovery.Manager) {
	t.Helper()
	cfg := nodeEngineConfig()
	eng, err := store.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2w.Register(eng); err != nil {
		t.Fatal(err)
	}
	rm, err := recovery.New(eng, recovery.Config{DataDir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	return eng, rm
}

// TestCatalogMatchesBenchmarkJSON keeps the metric names and units the
// program reports in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the program lacks", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
}
