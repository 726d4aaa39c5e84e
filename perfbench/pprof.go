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

// This file reads the gzipped profile.proto that runtime/pprof writes,
// keeping only what host-share bucketing needs: each sample's count and its
// stack of function names.

// pbField is one decoded protobuf field.
type pbField struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

// pbFields decodes one protobuf message's fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("pprof: bad varint")
			}
			f.varint, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: short fixed64")
			}
			f.varint, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("pprof: bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: short fixed32")
			}
			f.varint, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// profSample is one CPU-profile sample: its count and its call stack as
// function names, innermost first.
type profSample struct {
	count int64
	stack []string
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]int64{}    // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	var sampleMsgs [][]byte
	for _, f := range top {
		switch f.num {
		case 2:
			sampleMsgs = append(sampleMsgs, f.bytes)
		case 4:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.varint
				case 4:
					ls, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.varint)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.varint
				case 2:
					name = int64(ff.varint)
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.bytes))
		}
	}
	name := func(fid uint64) string {
		if i, ok := funcName[fid]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(sampleMsgs))
	for _, m := range sampleMsgs {
		fs, err := pbFields(m)
		if err != nil {
			return nil, err
		}
		var s profSample
		for _, f := range fs {
			vs, err := f.varints()
			if err != nil {
				return nil, err
			}
			switch f.num {
			case 1:
				for _, loc := range vs {
					for _, fid := range locFuncs[loc] {
						s.stack = append(s.stack, name(fid))
					}
				}
			case 2:
				if len(vs) > 0 && s.count == 0 {
					s.count = int64(vs[0]) // the first value is the sample count
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// moduleLayers are the module packages with a bucket of their own; other
// module packages fall into "other".
var moduleLayers = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range hostLayers {
		if l != "runtime" && l != "other" {
			m[l] = true
		}
	}
	return m
}()

// allocGCPrefixes name the runtime's allocation and garbage-collection
// frames; a sample passing through one of them is charged to "runtime".
var allocGCPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.makemap", "runtime.growslice", "runtime.rawstring", "runtime.rawbyteslice",
	"runtime.gc", "runtime.markroot", "runtime.scan", "runtime.greyobject",
	"runtime.findObject", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.sweepone",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime._GC",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*mspan)",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)",
	"runtime.(*pageAlloc)", "runtime.(*sweepLocked)", "runtime.(*scavengerState)",
}

// layerOf buckets one sample stack: walking outward from the innermost
// frame, a malloc/GC frame charges "runtime" and the first frame of this
// module charges its package. Standard-library frames (crypto, math, sort)
// are thereby charged to their module caller.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, p := range allocGCPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime"
			}
		}
		if rest, ok := strings.CutPrefix(fn, "nba/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if l := strings.ReplaceAll(pkg, "/", "."); moduleLayers[l] {
				return l
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "nba/") {
			return "other" // the benchmark's own frames (the generator decorator)
		}
	}
	return "other"
}

// hostShares buckets a CPU profile's samples into host layers; the shares
// sum to 1.
func hostShares(gz []byte) (map[string]float64, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[layerOf(s.stack)] += s.count
		total += s.count
	}
	if total == 0 {
		return nil, errors.New("pprof: the profile holds no samples")
	}
	shares := make(map[string]float64, len(counts))
	for l, c := range counts {
		shares[l] = float64(c) / float64(total)
	}
	return shares, nil
}
