package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the metric lists must
// match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON runs a short traced rekey-wave and
// checks that the workloads and the metrics the benchmark prints are
// exactly those BENCHMARK.json declares, in the same order and units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, b.Workloads[i].Name, w.name)
		}
	}

	o := options{workload: "rekey-wave", seed: 7, seconds: 0.3, trace: true, workers: 2, spansDir: t.TempDir()}
	rec := newRecorder()
	out, err := runRekeyWave(o, rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.check.failed.Load() != 0 {
		t.Fatalf("checks failed: %v", out.check.problems)
	}
	e2e := endToEndMetrics(out)
	layers, err := perLayerMetrics(o, out, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, want []struct{ Name, Unit string }, got []metric) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(want), len(got))
			return
		}
		for i := range got {
			if want[i].Name != got[i].Name || want[i].Unit != got[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, want[i].Name, want[i].Unit, got[i].Name, got[i].Unit)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, e2e)
	compare("per_layer", b.PerLayer, layers)
	for _, m := range e2e {
		if !(m.Value > 0) {
			t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, m.Value)
		}
	}
	var total float64
	for _, m := range layers {
		if m.Unit == "ratio" && (m.Value < 0 || m.Value > 1) {
			t.Errorf("%s = %v is not a ratio", m.Name, m.Value)
		}
		if filepath.Ext(m.Name) == ".cpu_share" {
			total += m.Value
		}
	}
	if total <= 0 || total > 1+1e-9 {
		t.Errorf("cpu shares sum to %v, want (0, 1]", total)
	}
	if _, err := os.Stat(filepath.Join(o.spansDir, "rekey-wave-seed7.jsonl")); err != nil {
		t.Errorf("spans not written: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(x int64) int64 { return x * int64(time.Millisecond) }
	spans := []span{
		{Name: "op", ID: 1, Start: ms(0), End: ms(100)},
		// Overlapping children cover [10, 50]; the third adds [60, 70];
		// the fourth sticks out past the parent and is clipped to
		// [95, 100].
		{Name: "a", ID: 2, Parent: 1, Start: ms(10), End: ms(30)},
		{Name: "a", ID: 3, Parent: 1, Start: ms(20), End: ms(50)},
		{Name: "b", ID: 4, Parent: 1, Start: ms(60), End: ms(70)},
		{Name: "b", ID: 5, Parent: 1, Start: ms(95), End: ms(120)},
		{Name: "leaf", ID: 6, Parent: 4, Start: ms(61), End: ms(62)},
	}
	self := selfTimes(spans)
	want := []time.Duration{45, 20, 30, 9, 25, 1}
	for i := range want {
		if self[i] != want[i]*time.Millisecond {
			t.Errorf("span %d (%s): self %v, want %v", spans[i].ID, spans[i].Name, self[i], want[i]*time.Millisecond)
		}
	}
	durs, selfs := spanStats(spans, self, "b")
	if len(durs) != 2 || durs[0] != 10*time.Millisecond || selfs[0] != 9*time.Millisecond {
		t.Errorf("spanStats(b) = %v, %v", durs, selfs)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var rec *recorder
	sp := rec.begin("op", 1, 0)
	if sp.id() != 0 {
		t.Fatalf("untraced span id %d, want 0", sp.id())
	}
	sp.end()
	rec.add("x", 1, 0, time.Now(), time.Now())
	if got := rec.snapshot(); got != nil {
		t.Fatalf("untraced recorder holds %v", got)
	}
}

func TestHandshakeRateIsMedianOpRate(t *testing.T) {
	out := &outcome{clients: 2}
	// Three ops of 10 handshakes at 10 ms, one preempted op at 50 ms
	// and one fast op at 5 ms: the median op runs 1000 handshakes/s,
	// and two of them run at once.
	for _, ms := range []int{10, 50, 10, 5, 10} {
		out.noteOp(time.Duration(ms)*time.Millisecond, 10)
	}
	if got := out.handshakeRate(); got != 2000 {
		t.Errorf("handshakeRate = %v, want 2000", got)
	}
	if out.handshakes != 50 {
		t.Errorf("handshakes = %d, want 50", out.handshakes)
	}
}

func TestFuncPackage(t *testing.T) {
	cases := map[string]string{
		"repro/internal/ec/fp.(*Field).Mul":    "repro/internal/ec/fp",
		"runtime.mallocgc":                     "runtime",
		"math/big.nat.mul":                     "math/big",
		"crypto/internal/fips140/sha256.block": "crypto/internal/fips140/sha256",
	}
	for fn, want := range cases {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	if cpuLayers[layerOf("repro/internal/ec/fp.(*Field).Mul")].layer != "fp" ||
		cpuLayers[layerOf("repro/internal/ec.(*Curve).fpDouble")].layer != "ec" ||
		cpuLayers[layerOf("repro/internal/ecdsa.(*PublicKey).Verify")].layer != "ecdsa" ||
		cpuLayers[layerOf("crypto/sha256.block")].layer != "stdcrypto" {
		t.Error("layerOf misattributes a package")
	}
	if layerOf("main.main") != -1 {
		t.Error("layerOf claims the benchmark's own package")
	}
}
