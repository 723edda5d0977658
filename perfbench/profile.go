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

// cpuModules are the program modules whose CPU share the profiled run
// reports. Each sample is charged to the innermost frame on its stack that
// belongs to one of them; samples whose stack holds other repository frames
// only go to "other", and samples with no repository frame to "runtime".
var cpuModules = []string{
	"sim", "faas", "workflow", "telemetry", "pool", "bayesnn", "nn",
	"resource", "bo", "gp", "linalg", "serve", "checkpoint",
}

const repoPrefix = "aquatope/internal/"

// moduleOf maps a fully qualified function name to its listed module, ""
// for another repository package, or "-" for code outside the repository.
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, repoPrefix) {
		return "-"
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range cpuModules {
		if m == rest {
			return m
		}
	}
	return ""
}

// moduleShares decodes a gzipped pprof CPU profile and returns each
// module's share of sampled CPU time in percent, keyed by module name plus
// "other" and "runtime". The shares sum to 100 when any sample was taken.
func moduleShares(prof []byte) (map[string]float64, error) {
	p, err := decodeProfile(prof)
	if err != nil {
		return nil, err
	}
	cpu := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		total += v
		cpu[p.charge(s.locs)] += v
	}
	out := map[string]float64{"other": 0, "runtime": 0}
	for _, m := range cpuModules {
		out[m] = 0
	}
	if total == 0 {
		return out, nil
	}
	for m, v := range cpu {
		out[m] = 100 * v / total
	}
	return out, nil
}

// charge walks a sample's stack from the leaf outwards; inlined frames of a
// location are listed innermost first.
func (p *profile) charge(locs []uint64) string {
	sawRepo := false
	for _, id := range locs {
		for _, fid := range p.locFuncs[id] {
			switch m := moduleOf(p.funcName[fid]); m {
			case "-":
			case "":
				sawRepo = true
			default:
				return m
			}
		}
	}
	if sawRepo {
		return "other"
	}
	return "runtime"
}

type sample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string
}

// decodeProfile reads the subset of the pprof protobuf encoding
// (profile.proto) that moduleShares needs: samples, locations with their
// line records, functions and the string table.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]string)}
	var strs []string
	funcNameIdx := make(map[uint64]uint64)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			return walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			}, func() { p.samples = append(p.samples, s) })
		case 4: // location
			var id uint64
			var fns []uint64
			return walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					}, nil)
				}
				return nil
			}, func() { p.locFuncs[id] = fns })
		case 5: // function
			var id, name uint64
			return walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}, func() { funcNameIdx[id] = name })
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcName[id] = strs[idx]
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for each field of one protobuf message: v carries a
// varint value, b a length-delimited payload. done runs after the last
// field.
func walkFields(buf []byte, fn func(field int, v uint64, b []byte) error, done func()) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		field := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	if done != nil {
		done()
	}
	return nil
}

// appendVarints appends a repeated uint64 field that arrived either as one
// varint (v) or packed (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
