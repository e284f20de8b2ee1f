package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {100000, 95},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && float64(c.n)*(100-p)/100 < minBeyond {
			t.Errorf("n=%d: p%v has fewer than %d samples beyond it", c.n, p, minBeyond)
		}
	}
}

func TestTailOfNeverExceedsTheRule(t *testing.T) {
	if got := tailOf(300, 95); got != 95 {
		t.Errorf("tailOf(300, 95) = %v, want 95", got)
	}
	if got := tailOf(50, 95); got != 75 {
		t.Errorf("tailOf(50, 95) = %v, want 75", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestFingerprintsMustMatch(t *testing.T) {
	a := machineFingerprint()
	if err := comparable(a, a); err != nil {
		t.Fatalf("same machine refused: %v", err)
	}
	b := a
	b.CPUModel += " (other)"
	err := comparable(a, b)
	if err == nil || !strings.Contains(err.Error(), "re-baseline") {
		t.Fatalf("different machines compared: %v", err)
	}
}

func TestCompareRefusesOtherMachineWithRebaseline(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fp fingerprint) string {
		rec := record{Workload: "serve-bo", Fingerprint: fp, Metrics: map[string]metric{"wall_s": {1, "s"}}}
		line, err := jsonLine(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("noise\n"+line+"\n{\"correct\": true}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fp := machineFingerprint()
	other := fp
	other.NumCPU++
	same := write("same", fp)
	if code := compareMain([]string{same, write("same2", fp)}); code != 0 {
		t.Errorf("same machine: exit %d, want 0", code)
	}
	if code := compareMain([]string{same, write("other", other)}); code != 3 {
		t.Errorf("other machine: exit %d, want 3 (re-baseline)", code)
	}
}

func TestSplitRequestReconcilesWithClientLatency(t *testing.T) {
	const msd = time.Millisecond
	// 10 ms at the client: 1 ms transport, 9 ms in the handler, of which
	// 2 ms store and 6 ms core leave 1 ms of serve self time.
	self, tr, acc := splitRequest(10*msd, 9*msd, 2*msd, 6*msd)
	if self != 1 || tr != 1 || acc != 10 {
		t.Errorf("split = self %v transport %v accounted %v, want 1 1 10", self, tr, acc)
	}
	// A replayed core call longer than the handler span overruns the
	// client latency by exactly the overrun.
	self, _, acc = splitRequest(10*msd, 9*msd, 2*msd, 8*msd)
	if self != -1 || acc != 11 {
		t.Errorf("overrun: self %v accounted %v, want -1 11", self, acc)
	}
	if got := account(100, 40, 50); got != 1 {
		t.Errorf("account with remainder = %v, want 1", got)
	}
	if got := account(100, 70, 40); got != 1.1 {
		t.Errorf("account with overrun = %v, want 1.1", got)
	}
}

// TestWorkloadsTiny runs every workload at a tiny size under two seeds,
// one untraced and one traced, and requires correct, complete output.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon and the simulator")
	}
	saved := size
	defer func() { size = saved }()
	size.boAsks, size.boWarm = 24, 21
	size.walAsks, size.walWarm = 30, 10
	size.recAsks, size.recResume = 24, 12
	size.synthSeeds, size.synthInit, size.synthEvals, size.synthWarm = 10, 5, 7, 6

	for _, name := range []string{"serve-bo", "serve-wal", "recover", "synth-classe"} {
		for _, seed := range []int64{1, 2} {
			traced := seed == 2
			rec, err := run(name, workloads[name], seed, 1, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s seed %d: attempted %d failed %d", name, seed, rec.Attempted, rec.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s seed %d: %d metrics, want %d", name, seed, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rec.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s seed %d: metric %s = %+v", name, seed, m.name, v)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s seed %d: end-to-end metric %s = %v, want > 0", name, seed, m.name, v.Value)
				}
			}
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric names and
// units in step with the BENCHMARK.json beside it.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}
