package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/core"
)

// endToEndMetrics are the figures a user of the program sees, measured
// with tracing off and gated by BENCHMARK.json. Every workload reports
// all of them; an op is one re-key wave with its records (rekey-wave),
// one device bring-up (cold-bringup) or one sweep point (can-sweep).
// They are medians: on a shared host, other tenants preempt the
// benchmark now and then, which moves means and tails from run to run
// but not the median op.
func endToEndMetrics(out *outcome) []metric {
	setups := make([]float64, len(out.setups))
	for i, d := range out.setups {
		setups[i] = d.Seconds()
	}
	nops := len(out.opTimes)
	return []metric{
		{"setup_s", out.warm.Seconds() + median(setups), "s", len(setups)},
		{"handshakes_per_s", out.handshakeRate(), "1/s", nops},
		{"handshake_p50_ms", median(millis(out.hsTimes)), "ms", len(out.hsTimes)},
		{"op_p50_ms", median(millis(out.opTimes)), "ms", nops},
		{"alloc_kb_per_op", ratio(float64(out.allocBytes)/1024, float64(nops)), "KiB", nops},
	}
}

// handshakeRate is the throughput of the median op: the median over
// ops of handshakes per second of op time, times the ops that run at
// once.
func (out *outcome) handshakeRate() float64 {
	return float64(out.clients) * median(out.opRates)
}

// tailMetrics are the figures printed beside the end-to-end ones but
// not gated: the wall-clock throughput and the p90 latencies, which
// preemption by other tenants of a shared host moves by more than any
// useful bound.
func tailMetrics(out *outcome) []metric {
	hs, ops := millis(out.hsTimes), millis(out.opTimes)
	return []metric{
		{"wall_handshakes_per_s", float64(out.handshakes) / out.wall.Seconds(), "1/s", out.handshakes},
		{"handshake_p90_ms", percentile(hs, 90), "ms", len(hs)},
		{"op_p90_ms", percentile(ops, 90), "ms", len(ops)},
	}
}

// cacheDelta is how the key caches moved during the measured loop:
// the parties' own KeyCaches (summed over every party the benchmark
// holds) and the process-global SharedTableCache.
type cacheDelta struct {
	KeyCacheHits       int `json:"keycache_hits"`
	KeyCacheMisses     int `json:"keycache_misses"`
	KeyCacheSharedHits int `json:"keycache_shared_hits"`
	WaveBatches        int `json:"wave_batches"`
	WaveItems          int `json:"wave_items"`
	SharedHits         int `json:"shared_table_hits"`
	SharedMisses       int `json:"shared_table_misses"`
}

func (d *cacheDelta) addKeyCache(before, after core.CacheStats) {
	d.KeyCacheHits += after.Hits - before.Hits
	d.KeyCacheMisses += after.Misses - before.Misses
	d.KeyCacheSharedHits += after.SharedHits - before.SharedHits
	d.WaveBatches += after.WaveBatches - before.WaveBatches
	d.WaveItems += after.WaveItems - before.WaveItems
}

func (d *cacheDelta) addShared(before, after core.SharedTableStats) {
	d.SharedHits += after.Hits - before.Hits
	d.SharedMisses += after.Misses - before.Misses
}

// perLayerMetrics derives the traced run's per-layer figures from its
// spans, count ledger, primitive ladder and CPU profile. A figure of a
// layer the workload does not reach (or cannot observe from outside
// the program) is 0; README.md lists which.
func perLayerMetrics(o options, out *outcome, rec *recorder, ref *result) ([]metric, error) {
	spans := rec.snapshot()
	self := selfTimes(spans)
	path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	ld, err := runLadder(out.keys.net, out.keys.party, out.keys.peer, o.seed)
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(out.prof)
	if err != nil {
		return nil, err
	}
	share := func(layer string) float64 {
		for i, l := range cpuLayers {
			if l.layer == layer {
				return shares[i]
			}
		}
		return 0
	}
	// durUS is the median duration of the named spans in µs, selfUS
	// their median self time; n counts them.
	durUS := func(name string) float64 {
		d, _ := spanStats(spans, self, name)
		return median(micros(d))
	}
	selfUS := func(name string) float64 {
		_, s := spanStats(spans, self, name)
		return median(micros(s))
	}
	count := func(name string) int {
		d, _ := spanStats(spans, self, name)
		return len(d)
	}
	sumUS := func(name string) float64 {
		d, _ := spanStats(spans, self, name)
		var t float64
		for _, x := range micros(d) {
			t += x
		}
		return t
	}
	layer := func(name string) float64 { return out.layers[name] }

	l := out.ledger
	base := l.perHandshake(-1, core.PrimECBaseMult)
	point := l.perHandshake(-1, core.PrimECPointMult)
	combined := l.perHandshake(-1, core.PrimECCombinedMult)
	phaseMults := func(phase int) float64 {
		return l.perHandshake(phase, core.PrimECBaseMult, core.PrimECPointMult, core.PrimECCombinedMult)
	}
	var residual float64
	if l != nil && l.handshakes > 0 {
		predicted := base*ld.scalarBaseMult + point*ld.scalarMult + combined*ld.combinedMult
		residual = median(micros(out.hsTimes)) - predicted
	}
	c := out.caches
	var overhead float64
	if ref != nil {
		overhead = (ratio(ref.Metrics["handshakes_per_s"].Value, out.handshakeRate()) - 1) * 100
	}
	nhs := len(out.hsTimes)

	return []metric{
		{"fp.mul_ns", ld.fpMul, "ns", ladderReps},
		{"fp.sqr_ns", ld.fpSqr, "ns", ladderReps},
		{"fp.inv_ns", ld.fpInv, "ns", ladderReps},
		{"fp.cpu_share", share("fp"), "ratio", 1},
		{"ec.scalar_mult_us", ld.scalarMult, "us", ladderReps},
		{"ec.scalar_base_mult_us", ld.scalarBaseMult, "us", ladderReps},
		{"ec.combined_mult_us", ld.combinedMult, "us", ladderReps},
		{"ec.mult_table_build_us", ld.multTableBuild, "us", ladderReps},
		{"ec.cpu_share", share("ec"), "ratio", 1},
		{"ecdsa.sign_us", ld.sign, "us", ladderReps},
		{"ecdsa.verify_us", ld.verify, "us", ladderReps},
		{"ecdsa.cpu_share", share("ecdsa"), "ratio", 1},
		{"ecqv.issue_us", ld.issue, "us", ladderReps},
		{"ecqv.reconstruct_us", ld.reconstruct, "us", ladderReps},
		{"ecqv.extract_us", ld.extract, "us", ladderReps},
		{"ecqv.cpu_share", share("ecqv"), "ratio", 1},
		{"core.a1_us", durUS("core.A1"), "us", count("core.A1")},
		{"core.b1_us", durUS("core.B1"), "us", count("core.B1")},
		{"core.a2_us", durUS("core.A2"), "us", count("core.A2")},
		{"core.b2_us", durUS("core.B2"), "us", count("core.B2")},
		{"core.residual_us", residual, "us", nhs},
		{"core.base_mults_per_hs", base, "count", l.count()},
		{"core.point_mults_per_hs", point, "count", l.count()},
		{"core.combined_mults_per_hs", combined, "count", l.count()},
		{"core.op1_mults_per_hs", phaseMults(0), "count", l.count()},
		{"core.op2_mults_per_hs", phaseMults(1), "count", l.count()},
		{"core.op3_mults_per_hs", phaseMults(2), "count", l.count()},
		{"core.op4_mults_per_hs", phaseMults(3), "count", l.count()},
		{"core.keycache_hit_ratio", ratio(float64(c.KeyCacheHits), float64(c.KeyCacheHits+c.KeyCacheMisses)), "ratio", c.KeyCacheHits + c.KeyCacheMisses},
		{"core.shared_table_hit_ratio", ratio(float64(c.SharedHits), float64(c.SharedHits+c.SharedMisses)), "ratio", c.SharedHits + c.SharedMisses},
		{"core.verify_batch_size", ratio(float64(c.WaveItems), float64(c.WaveBatches)), "count", c.WaveBatches},
		{"core.provision_us", durUS("core.Provision"), "us", count("core.Provision")},
		{"core.cpu_share", share("core"), "ratio", 1},
		{"fleet.wave_ms", durUS("fleet.EstablishAll") / 1000, "ms", count("fleet.EstablishAll")},
		{"fleet.connect_self_us", selfUS("fleet.Connect"), "us", count("fleet.Connect")},
		{"fleet.seal_open_us", durUS("fleet.Seal") + durUS("fleet.Open"), "us", count("fleet.Seal")},
		{"fleet.retries_per_hs", layer("fleet.retries_per_hs"), "count", nhs},
		{"fleet.cpu_share", share("fleet"), "ratio", 1},
		{"transport.frames_per_hs", layer("transport.frames_per_hs"), "count", nhs},
		{"transport.retransmits_per_hs", layer("transport.retransmits_per_hs"), "count", nhs},
		{"transport.resends_per_hs", layer("transport.resends_per_hs"), "count", nhs},
		{"canbus.faults_per_point", layer("canbus.faults_per_point"), "count", count("scenario.point")},
		{"transport.cpu_share", share("transport"), "ratio", 1},
		{"cantp.cpu_share", share("cantp"), "ratio", 1},
		{"canbus.cpu_share", share("canbus"), "ratio", 1},
		{"scenario.emit_us", ratio(sumUS("sink.Point"), float64(count("scenario.point"))), "us", count("sink.Point")},
		{"scenario.reorder_depth", layer("scenario.reorder_depth"), "count", count("op")},
		{"scenario.cpu_share", share("scenario"), "ratio", 1},
		{"conc.max_in_flight", layer("conc.max_in_flight"), "count", count("op")},
		{"conc.busy_ratio", layer("conc.busy_ratio"), "ratio", count("scenario.point")},
		{"bigint.cpu_share", share("bigint"), "ratio", 1},
		{"stdcrypto.cpu_share", share("stdcrypto"), "ratio", 1},
		{"runtime.cpu_share", share("runtime"), "ratio", 1},
		{"op.self_us", selfUS("op"), "us", count("op")},
		{"trace.overhead_pct", overhead, "%", 2},
	}, nil
}
