package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/canbus"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/scenario"
)

const (
	sweepPoints = 16 // drop-rate points per sweep
	sweepPeers  = 8  // peers per point
	maxDrop     = 0.15
	// sweepAttempts is the per-handshake retry budget. At 15% drop an
	// attempt fails often enough that the scenario default of 10
	// exhausts now and then over the thousands of handshakes of a run;
	// the benchmark's workloads must not fail.
	sweepAttempts = 32
)

// sweepScenario is the k-th can-sweep definition of a seed: a
// latency-workload drop sweep over three CAN segments with ~1%
// corruption and rate-limited gateway egress. The drop rates are
// evenly spaced over [0, maxDrop] with a seeded jitter of at most ±0.2
// percentage points. Sweeps of one seed differ in k, so their keys and
// fault patterns differ too.
func sweepScenario(seed uint64, k int) scenario.Scenario {
	rng := detrand.NewReader(detrand.DeriveSeed(seed, []byte("can-sweep/points"), uint64(k)))
	var buf [8]byte
	jitter := func() float64 {
		_, _ = rng.Read(buf[:]) // a detrand reader never fails
		return (float64(binary.LittleEndian.Uint64(buf[:])>>11)/(1<<53)*2 - 1) * 0.002
	}
	pts := make([]float64, sweepPoints)
	for i := range pts {
		v := maxDrop*float64(i)/float64(sweepPoints-1) + jitter()
		pts[i] = math.Round(math.Max(v, 0)*1e4) / 1e4
	}
	return scenario.Scenario{
		Name:           "layerbench-can-sweep",
		Seed:           detrand.DeriveSeed(seed, []byte("can-sweep/scenario"), uint64(k)),
		Peers:          sweepPeers,
		Segments:       3,
		GatewayLatency: 200 * time.Microsecond,
		Egress:         canbus.EgressPolicy{Rate: 800, Queue: 64},
		Profile:        scenario.Profile{Corrupt: 0.01 + jitter()},
		Workload:       scenario.WorkloadLatency,
		SweepAxis:      scenario.AxisDrop,
		SweepPoints:    pts,
		Attempts:       sweepAttempts,
	}
}

// timedSink wraps one of the scenario's streaming sinks, recording a
// sink.Point span per call and when each point was delivered.
type timedSink struct {
	scenario.PointSink
	rec        *recorder
	op, parent int64
	delivered  []time.Time // by point index; kept by the first sink only
}

func (s *timedSink) Point(i int, pt scenario.Point, trace []byte) error {
	t0 := time.Now()
	sp := s.rec.begin("sink.Point", s.op, s.parent)
	err := s.PointSink.Point(i, pt, trace)
	sp.end()
	if s.delivered != nil {
		s.delivered[i] = t0
	}
	return err
}

// sweepTotals accumulates the fabric and recovery counters of every
// measured point.
type sweepTotals struct {
	points, handshakes, failed                    int
	frames, retransmits, resends, retries, faults int
	pointTime, sweepWall                          time.Duration
	maxReorder, maxInFlight                       int
}

// runCanSweep measures the researcher's job: back-to-back seeded
// sweeps through scenario.RunStreamWith with JSON and CSV sinks on
// nproc workers. Every op runs a sweep no earlier op ran, so each point
// enrolls parties with fresh keys, as a sweep over new conditions
// does. Every sweep's JSON must validate; after the measured window
// the first and the last sweep run again and must reproduce their
// bytes exactly (the determinism contract).
func runCanSweep(o options, rec *recorder) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	warmGlobals(out)
	// Set-up runs one point of a sweep the loop never runs, so the
	// fabric's code and the global tables are warm.
	_, err := repeatSetup(out, func() (struct{}, error) {
		warm := sweepScenario(o.seed, -1)
		warm.SweepPoints = warm.SweepPoints[:1]
		_, err := runSweep(warm, 1, nil, 0, 0)
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	if out.keys, err = sweepLadderKeys(o.seed); err != nil {
		return nil, err
	}

	var tot sweepTotals
	var hashes [][2][32]byte // per sweep: JSON and CSV digests
	shared := core.SharedTables().Stats()
	out.clients = o.workers // points of a sweep run on the workers at once
	err = out.measure(o, 1, func(int) {
		id := nextOp()
		op := rec.begin("op", id, 0)
		sw, err := runSweep(sweepScenario(o.seed, len(hashes)), o.workers, rec, id, op.id())
		op.end()
		if !out.check.ok(err == nil, "sweep: %v", err) {
			return
		}
		hashes = append(hashes, sw.hash())
		res, err := scenario.ValidateJSON(sw.json.Bytes())
		if !out.check.ok(err == nil, "sweep JSON: %v", err) {
			return
		}
		tot.sweepWall += sw.wall
		tot.maxReorder = max(tot.maxReorder, sw.timing.MaxReorderDepth)
		tot.maxInFlight = max(tot.maxInFlight, sw.timing.MaxInFlight)
		for i, pt := range res.Points {
			d := sw.timing.Points[i]
			rec.add("scenario.point", id, op.id(), sw.delivered[i].Add(-d), sw.delivered[i])
			out.noteOp(d, pt.Handshakes)
			tot.add(pt, d)
			out.check.ok(pt.Error == "", "point %d: %s", i, pt.Error)
			out.check.add(pt.Handshakes+pt.Errors, pt.Errors, "point %d: %d handshakes failed", i, pt.Errors)
			if hs := pt.Handshakes + pt.Errors; hs > 0 {
				out.hsTimes = append(out.hsTimes, d/time.Duration(hs))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	out.caches.addShared(shared, core.SharedTables().Stats())
	for _, k := range []int{0, len(hashes) - 1} {
		if k < 0 {
			break
		}
		sw, err := runSweep(sweepScenario(o.seed, k), o.workers, nil, 0, 0)
		out.check.ok(err == nil && sw.hash() == hashes[k], "sweep %d: a repeat did not reproduce its output bytes (err %v)", k, err)
	}

	hs := float64(tot.handshakes)
	out.layers["fleet.retries_per_hs"] = ratio(float64(tot.retries), hs)
	out.layers["transport.frames_per_hs"] = ratio(float64(tot.frames), hs)
	out.layers["transport.retransmits_per_hs"] = ratio(float64(tot.retransmits), hs)
	out.layers["transport.resends_per_hs"] = ratio(float64(tot.resends), hs)
	out.layers["canbus.faults_per_point"] = ratio(float64(tot.faults), float64(tot.points))
	out.layers["scenario.reorder_depth"] = float64(tot.maxReorder)
	out.layers["conc.max_in_flight"] = float64(tot.maxInFlight)
	out.layers["conc.busy_ratio"] = ratio(tot.pointTime.Seconds(), tot.sweepWall.Seconds()*float64(o.workers))
	out.extra = []metric{
		{"points_per_s", float64(tot.points) / out.wall.Seconds(), "1/s", tot.points},
		{"point_p50_ms", median(millis(out.opTimes)), "ms", len(out.opTimes)},
		{"point_p90_ms", percentile(millis(out.opTimes), 90), "ms", len(out.opTimes)},
		failedRatio(&out.check),
	}
	return out, nil
}

// sweepRun is one streamed sweep's output and timing.
type sweepRun struct {
	json, csv bytes.Buffer
	timing    *scenario.Timing
	wall      time.Duration
	delivered []time.Time // when each point reached the first sink
}

func (sw *sweepRun) hash() [2][32]byte {
	return [2][32]byte{sha256.Sum256(sw.json.Bytes()), sha256.Sum256(sw.csv.Bytes())}
}

// runSweep streams s into a JSON and a CSV sink, each wrapped to
// record its sink.Point spans under the op's span parent.
func runSweep(s scenario.Scenario, workers int, rec *recorder, op, parent int64) (*sweepRun, error) {
	sw := &sweepRun{delivered: make([]time.Time, len(s.SweepPoints))}
	sinks := []scenario.PointSink{
		&timedSink{PointSink: scenario.NewJSONSink(&sw.json), rec: rec, op: op, parent: parent, delivered: sw.delivered},
		&timedSink{PointSink: scenario.NewCSVSink(&sw.csv), rec: rec, op: op, parent: parent},
	}
	t0 := time.Now()
	timing, err := scenario.RunStreamWith(s, sinks, scenario.Options{Workers: workers})
	sw.wall = time.Since(t0)
	sw.timing = timing
	return sw, err
}

func (t *sweepTotals) add(pt scenario.Point, d time.Duration) {
	t.points++
	t.handshakes += pt.Handshakes + pt.Errors
	t.failed += pt.Errors
	t.retries += pt.Retries
	t.retransmits += pt.Retransmits
	t.resends += pt.MessageResends
	t.faults += pt.BusDropped + pt.BusCorrupted + pt.BusDuplicated + pt.BusDelayed
	for _, st := range pt.Steps {
		t.frames += st.Frames
	}
	t.pointTime += d
}

// sweepLadderKeys enrolls the parties the traced ladder times on: the
// scenario provisions its own inside every point, out of reach.
func sweepLadderKeys(seed uint64) (ladderKeys, error) {
	net, err := core.NewNetwork(ec.P256(), detrand.NewReader(detrand.DeriveSeed(seed, []byte("can-sweep/ladder"))))
	if err != nil {
		return ladderKeys{}, err
	}
	party, err := net.Provision(fmt.Sprintf("manager-%08x", idTag(seed)))
	if err != nil {
		return ladderKeys{}, err
	}
	peer, err := net.Provision(fmt.Sprintf("ecu-%08x", idTag(seed)))
	if err != nil {
		return ladderKeys{}, err
	}
	return ladderKeys{net: net, party: party, peer: peer}, nil
}
