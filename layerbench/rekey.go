package main

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ecqv"
	"repro/internal/fleet"
	"repro/internal/session"
)

const (
	wavePeers    = 32 // peers a gateway re-keys per wave
	waveRecords  = 16 // records per peer after each wave
	recordLength = 64 // bytes per record
)

// waveFleet is the rekey-wave set-up: an enrolled gateway and its
// peers with live sessions.
type waveFleet struct {
	net     *core.Network
	gateway *core.Party
	peers   []*core.Party
	m       *fleet.Manager
	records [][]byte // wavePeers × waveRecords plaintexts

	// rec traces the measured waves; set-up waves run untraced.
	rec *recorder

	wave       atomic.Uint64 // waves run so far, keys per-wave randomness
	op, parent atomic.Int64  // span context of the running wave
}

// runRekeyWave measures the steady state: every op re-keys the whole
// fleet with one EstablishAll wave over the timing carrier, then sends
// a burst of records to every peer through Seal and Open.
func runRekeyWave(o options, rec *recorder) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	log := &exchangeLog{}
	warmGlobals(out)
	f, err := repeatSetup(out, func() (*waveFleet, error) { return newWaveFleet(o, log) })
	if err != nil {
		return nil, err
	}
	f.rec = rec
	log.take() // the warm-up wave is set-up, not measurement
	if o.trace {
		log.ledger = &ledger{}
	}
	out.keys = ladderKeys{net: f.net, party: f.gateway, peer: f.peers[0]}

	parties := append([]*core.Party{f.gateway}, f.peers...)
	before := make([]core.CacheStats, len(parties))
	for i, p := range parties {
		before[i] = p.KeyCache().Stats()
	}
	shared := core.SharedTables().Stats()

	out.clients = 1
	err = out.measure(o, out.clients, func(int) { out.noteOp(f.runWave(o, &out.check)) })
	if err != nil {
		return nil, err
	}

	for i, p := range parties {
		out.caches.addKeyCache(before[i], p.KeyCache().Stats())
	}
	out.caches.addShared(shared, core.SharedTables().Stats())
	out.hsTimes = log.take()
	out.ledger = log.ledger
	records := len(out.opTimes) * wavePeers * waveRecords
	out.extra = []metric{
		{"records_per_s", float64(records) / out.wall.Seconds(), "1/s", records},
		failedRatio(&out.check),
	}
	return out, nil
}

// newWaveFleet enrolls the gateway and its peers from the seed and
// runs one warm-up wave, so every key cache and shared table is hot.
func newWaveFleet(o options, log *exchangeLog) (*waveFleet, error) {
	f := &waveFleet{}
	var err error
	f.net, err = core.NewNetwork(ec.P256(), detrand.NewReader(detrand.DeriveSeed(o.seed, []byte("rekey-wave/ca"))))
	if err != nil {
		return nil, err
	}
	if f.gateway, err = f.net.Provision(fmt.Sprintf("gw-%08x", idTag(o.seed))); err != nil {
		return nil, err
	}
	f.peers = make([]*core.Party, wavePeers)
	for i := range f.peers {
		p, err := f.net.Provision(fmt.Sprintf("ecu-%08x-%02d", idTag(o.seed), i))
		if err != nil {
			return nil, err
		}
		p.Rand = detrand.NewReader(detrand.DeriveSeed(o.seed, p.ID[:], 0xB0B))
		f.peers[i] = p
	}
	rng := detrand.NewReader(detrand.DeriveSeed(o.seed, []byte("rekey-wave/records")))
	f.records = make([][]byte, wavePeers*waveRecords)
	for i := range f.records {
		f.records[i] = make([]byte, recordLength)
		if _, err := io.ReadFull(rng, f.records[i]); err != nil {
			return nil, err
		}
	}
	if f.m, err = fleet.NewManager(f.gateway, core.OptNone, session.DefaultPolicy); err != nil {
		return nil, err
	}
	f.m.SetCarrier(func(*core.Party) (fleet.Carrier, error) {
		return &timingCarrier{log: log, rec: f.rec, op: f.op.Load(), parent: f.parent.Load()}, nil
	})
	f.m.SetHandshakeRand(func(peer ecqv.ID, attempt int) io.Reader {
		return detrand.NewReader(detrand.DeriveSeed(o.seed, peer[:], f.wave.Load(), uint64(attempt)))
	})
	var warm checker
	f.runWave(o, &warm)
	if warm.failed.Load() != 0 {
		return nil, fmt.Errorf("warm-up wave: %v", warm.problems)
	}
	return f, nil
}

// runWave is one op: a re-key wave, then the record burst. It returns
// the op's latency and the handshakes that completed.
func (f *waveFleet) runWave(o options, check *checker) (time.Duration, int) {
	rec := f.rec
	id := nextOp()
	op := rec.begin("op", id, 0)
	t0 := time.Now()

	w := rec.begin("fleet.EstablishAll", id, op.id())
	f.wave.Add(1)
	f.op.Store(id)
	f.parent.Store(w.id())
	errs := f.m.EstablishAll(f.peers, o.workers)
	w.end()
	handshakes := 0
	for i, err := range errs {
		if check.ok(err == nil, "handshake with peer %d: %v", i, err) {
			handshakes++
		}
	}

	conc.ForEach(len(f.peers), o.workers, func(i int) {
		peer := f.peers[i].ID
		for r := 0; r < waveRecords; r++ {
			want := f.records[i*waveRecords+r]
			s := rec.begin("fleet.Seal", id, op.id())
			sealed, err := f.m.Seal(peer, want)
			s.end()
			if !check.ok(err == nil, "seal to peer %d: %v", i, err) {
				continue
			}
			s = rec.begin("fleet.Open", id, op.id())
			got, err := f.m.Open(peer, sealed)
			s.end()
			check.ok(err == nil && bytes.Equal(got, want),
				"record %d to peer %d did not open to its plaintext (err %v)", r, i, err)
		}
	})
	d := time.Since(t0)
	op.end()
	return d, handshakes
}

// failedRatio is the workload figure failed_ratio: failed checks over
// attempted ones.
func failedRatio(c *checker) metric {
	n := c.attempted.Load()
	return metric{"failed_ratio", ratio(float64(c.failed.Load()), float64(n)), "ratio", int(n)}
}
