package prototype

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

// -update regenerates testdata/fig7.golden.
var update = flag.Bool("update", false, "rewrite golden testdata files")

// formatComparison renders every field of a Fig. 7 comparison exactly:
// durations in nanoseconds, the increase in its shortest exact float
// form.
func formatComparison(cmp *Comparison) []byte {
	var b bytes.Buffer
	for _, tl := range []*Timeline{cmp.STS, cmp.SECDSA} {
		fmt.Fprintf(&b, "protocol %s\n", tl.Protocol)
		for i, seg := range tl.Segments {
			fmt.Fprintf(&b, "  segment %d %s %s %q %d\n", i, seg.Device, seg.Kind, seg.Label, int64(seg.Duration))
		}
		fmt.Fprintf(&b, "  wire %d\n", int64(tl.Wire))
		fmt.Fprintf(&b, "  processing %d\n", int64(tl.Processing))
		fmt.Fprintf(&b, "  total %d\n", int64(tl.Total))
		fmt.Fprintf(&b, "  bus %+v\n", tl.BusStats)
	}
	fmt.Fprintf(&b, "increase_pct %v\n", cmp.IncreasePct)
	return b.Bytes()
}

// TestFig7Golden pins the whole Fig. 7 comparison on the S32K144 pair
// byte for byte: every timeline segment, the wire/processing/total
// sums, the bus counters and the STS increase. The range checks of
// TestFig7Comparison say the reproduction is plausible; this says the
// fabric underneath did not move it.
func TestFig7Golden(t *testing.T) {
	cmp, err := Compare(newModel(t), "S32K144")
	if err != nil {
		t.Fatal(err)
	}
	got := formatComparison(cmp)
	const path = "testdata/fig7.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Fig. 7 comparison drifted from %s; an intentional change to the\n"+
			"hardware model or the transport fabric must regenerate it:\n"+
			"go test ./internal/prototype -run TestFig7Golden -update\n\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}
