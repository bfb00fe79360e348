package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers maps a leaf function's package to the layer its CPU time
// is charged to, in output order. An entry claims its own package and
// every package under it; the first matching entry wins, so fp is
// listed before ec.
var cpuLayers = [...]struct{ layer, pkg string }{
	{"fp", "repro/internal/ec/fp"},
	{"ec", "repro/internal/ec"},
	{"ecdsa", "repro/internal/ecdsa"},
	{"ecqv", "repro/internal/ecqv"},
	{"core", "repro/internal/core"},
	{"fleet", "repro/internal/fleet"},
	{"transport", "repro/internal/transport"},
	{"cantp", "repro/internal/cantp"},
	{"canbus", "repro/internal/canbus"},
	{"scenario", "repro/internal/scenario"},
	{"bigint", "math/big"},
	{"stdcrypto", "crypto"},
	{"runtime", "runtime"},
}

// layerOf returns the index into cpuLayers charged for a function, or
// -1 when no layer claims it.
func layerOf(fn string) int {
	pkg := funcPackage(fn)
	for i, l := range cpuLayers {
		if pkg == l.pkg || strings.HasPrefix(pkg, l.pkg+"/") {
			return i
		}
	}
	return -1
}

// funcPackage strips a pprof function name ("repro/internal/ec/fp.(*Field).Mul")
// to its import path.
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares decodes a gzipped CPU profile (runtime/pprof's protobuf)
// and returns, index-aligned with cpuLayers, the share of sampled CPU
// time whose leaf frame lies in each layer: the layer's self time.
func cpuShares(profile []byte) ([]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	funcName := make(map[uint64]string, len(p.funcs))
	for _, f := range p.funcs {
		if f.name >= 0 && int(f.name) < len(p.strings) {
			funcName[f.id] = p.strings[f.name]
		}
	}
	leaf := make(map[uint64]int, len(p.locs))
	for _, l := range p.locs {
		leaf[l.id] = -1
		if l.leafFunc != 0 {
			leaf[l.id] = layerOf(funcName[l.leafFunc])
		}
	}
	shares := make([]float64, len(cpuLayers))
	var total float64
	for _, s := range p.samples {
		total += s.value
		if s.leafLoc == 0 {
			continue
		}
		if i := leaf[s.leafLoc]; i >= 0 {
			shares[i] += s.value
		}
	}
	for i := range shares {
		shares[i] = ratio(shares[i], total)
	}
	return shares, nil
}

// profile holds the parts of a pprof Profile message the shares need.
type profile struct {
	samples []profSample
	locs    []profLoc
	funcs   []profFunc
	strings []string
}

type profSample struct {
	leafLoc uint64
	value   float64 // the last sample value: CPU nanoseconds
}

type profLoc struct {
	id, leafFunc uint64
}

type profFunc struct {
	id   uint64
	name int64
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{}
	err := eachField(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			return p.parseSample(data)
		case fProfileLocation:
			return p.parseLocation(data)
		case fProfileFunction:
			var f profFunc
			err := eachField(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					f.id = v
				case fFunctionName:
					f.name = int64(v)
				}
				return nil
			})
			p.funcs = append(p.funcs, f)
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

func (p *profile) parseSample(b []byte) error {
	var locs []uint64
	var vals []uint64
	err := eachField(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case fSampleLocation:
			return appendVarints(&locs, wire, v, data)
		case fSampleValue:
			return appendVarints(&vals, wire, v, data)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s := profSample{}
	if len(locs) > 0 {
		s.leafLoc = locs[0]
	}
	if len(vals) > 0 {
		s.value = float64(int64(vals[len(vals)-1]))
	}
	p.samples = append(p.samples, s)
	return nil
}

func (p *profile) parseLocation(b []byte) error {
	var l profLoc
	err := eachField(b, func(num, _ int, v uint64, data []byte) error {
		switch num {
		case fLocationID:
			l.id = v
		case fLocationLine:
			// The first line is the innermost inlined frame: the leaf.
			if l.leafFunc != 0 {
				return nil
			}
			return eachField(data, func(num, _ int, v uint64, _ []byte) error {
				if num == fLineFunction {
					l.leafFunc = v
				}
				return nil
			})
		}
		return nil
	})
	p.locs = append(p.locs, l)
	return err
}

// appendVarints appends a repeated varint field in either its packed
// (length-delimited) or its one-value-per-field encoding.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("cpu profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks a protobuf message, handing every field to fn: the
// value for varint fields, the bytes for length-delimited ones.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
