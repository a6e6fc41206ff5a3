package main

import (
	"io"
	"strings"
	"testing"
)

func TestNoiseReportGatesOnBounds(t *testing.T) {
	set := func(ops, tail float64) map[string]*result {
		return map[string]*result{"edit.hot": {
			Metrics: map[string]metric{"ops_per_s": {ops, "1/s"}},
			Detail:  map[string]any{"op_tail_ms": tail},
		}}
	}
	names := []string{"edit.hot"}
	if !noiseReport(io.Discard, names, []map[string]*result{set(100, 2), set(110, 9)}) {
		t.Error("sets a tenth apart on a gated metric were reported as disagreeing (the tail is a diagnostic and must not gate)")
	}
	var out strings.Builder
	if noiseReport(&out, names, []map[string]*result{set(100, 2), set(140, 2)}) {
		t.Error("sets 33 % apart on a gated metric were reported as agreeing")
	}
	for _, want := range []string{"ops_per_s", "DISAGREES", "op_tail_ms", "diagnostic"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
