package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile collects a runtime/pprof CPU profile in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("bench: cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and folds it into each layer's share of the
// samples (see layerOf).
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return foldProfile(p.buf.Bytes())
}

// layers are the modules per-layer metrics are named after; "runtime"
// is the residual: the Go runtime (collector, allocator, scheduler) and
// every sample no layer's frame is on the stack of.
var layers = []string{
	"workload", "trace", "portfolio", "sim", "placement", "partition", "failure",
	"scenario", "checkpoint", "lease", "serve", "parallel", "telemetry", "runtime",
}

// layerOf maps a Go symbol to the layer charged for a sample whose leaf
// it is. ok is false for the standard library outside the runtime
// (math, sort, strconv, encoding/json, os, syscall, ...): such helpers
// cost what their caller asked of them, so the sample goes to the
// nearest frame up the stack that has a layer.
func layerOf(symbol string) (layer string, ok bool) {
	pkg := symbol
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "ropus/internal/"):
		name := strings.TrimPrefix(pkg, "ropus/internal/")
		for _, l := range layers {
			if l == name && l != "runtime" {
				return l, true
			}
		}
		return "other", true // core, experiments, qos, report, ...: glue between layers
	case pkg == "main" || strings.HasPrefix(pkg, "ropus"):
		return "bench", true // the harness itself
	case pkg == "internal/runtime/syscall":
		return "", false // a system call is its caller's, not the collector's
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime", true
	default:
		return "", false
	}
}

// foldProfile decodes a gzipped pprof protobuf and returns each layer's
// share of the CPU samples.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("bench: cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location -> function IDs, leaf first
		funcNames = map[uint64]int64{}    // function -> string index
		strs      []string
	)
	// Profile: 2 sample, 4 location, 5 function, 6 string_table.
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: 1 location_id, 2 value
			var s sample
			var values []uint64
			if err := eachField(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, pb)
				case 2:
					values = appendVarints(values, v, pb)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // a CPU profile's first value is the sample count
			}
			samples = append(samples, s)
		case 4: // Location: 1 id, 4 line{1 function_id}
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function: 1 id, 2 name
			var id uint64
			var name int64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if l, ok := layerOf(strs[idx]); ok {
					layer = l
					break stack
				}
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares, nil
	}
	for layer, n := range counts {
		shares[layer] = float64(n) / float64(total)
	}
	return shares, nil
}

var errProto = errors.New("bench: cpu profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with the field
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which arrives either
// as one varint (packed is nil) or as a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
