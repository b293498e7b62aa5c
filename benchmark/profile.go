package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// A stdlib-only reader for the gzipped pprof CPU profile runtime/pprof
// writes: just enough of profile.proto to walk sample → location → line →
// function name and sum the CPU value of each stack.

// stackSample is one profile sample: function names leaf first, and the
// sample's last value (cpu/nanoseconds in a CPU profile).
type stackSample struct {
	funcs []string
	value int64
}

var errTruncated = errors.New("pprof: truncated message")

// protoReader walks the fields of one protobuf message.
type protoReader struct{ b []byte }

func (p *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number and either a varint value (wire
// type 0) or a length-delimited payload (wire type 2). Fixed-width fields
// are skipped over and reported with a nil payload.
func (p *protoReader) next() (field int, val uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			break
		}
		if n > uint64(len(p.b)) {
			return 0, 0, nil, errTruncated
		}
		payload, p.b = p.b[:n], p.b[n:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return field, val, payload, err
}

func (p *protoReader) skip(n int) error {
	if len(p.b) < n {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// repeatedVarints decodes a repeated integer field occurrence, packed
// (payload != nil) or not.
func repeatedVarints(dst []uint64, val uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, val), nil
	}
	r := protoReader{payload}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// readProfile parses a gzipped pprof profile into its samples.
func readProfile(path string) ([]stackSample, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	return parseProfile(data)
}

func parseProfile(data []byte) ([]stackSample, error) {
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		strs      []string
	)
	top := protoReader{data}
	for len(top.b) > 0 {
		field, _, payload, err := top.next()
		if err != nil {
			return nil, err
		}
		msg := protoReader{payload}
		switch field {
		case 2: // Sample
			var s rawSample
			for len(msg.b) > 0 {
				f, v, p, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = repeatedVarints(s.locs, v, p)
				case 2:
					s.vals, err = repeatedVarints(s.vals, v, p)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				f, v, p, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line; its field 1 is the function id
					line := protoReader{p}
					for len(line.b) > 0 {
						lf, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			for len(msg.b) > 0 {
				f, v, _, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stackSample{value: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// cpuLayers are the budget's rows; "idle" is added from rusage.
var cpuLayers = []string{
	"evm", "crypto", "trie", "store", "state", "core", "mv", "adaptive", "mempool",
	"validator", "scheduler", "pipeline", "chain", "types", "network", "obs",
	"runtime", "bench", "idle",
}

const internalPrefix = "blockpilot/internal/"

// layerOf maps a package directory under internal/ to its budget row.
// Packages only the benchmark itself calls (workload, consensus, stats …)
// are charged to "bench".
func layerOf(pkg string) string {
	switch pkg {
	case "uint256":
		return "evm"
	case "rlp":
		return "types"
	case "trie/store":
		return "store"
	case "telemetry", "flight", "trace", "health":
		return "obs"
	case "evm", "crypto", "trie", "state", "core", "mv", "adaptive", "mempool",
		"validator", "scheduler", "pipeline", "chain", "types", "network":
		return pkg
	}
	return "bench"
}

// classify charges a stack to the layer of its innermost
// blockpilot/internal/* frame, so a runtime.mallocgc under evm.run counts
// against evm. A stack with no repo frame is "bench" when the benchmark's
// own main package is on it and "runtime" otherwise (GC workers, scheduler).
func classify(funcs []string) string {
	bench := false
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			// rest is "<pkg path>.<symbol>"; the package path has no dots.
			if dot := strings.IndexByte(rest, '.'); dot > 0 {
				return layerOf(rest[:dot])
			}
		}
		if strings.HasPrefix(fn, "main.") {
			bench = true
		}
	}
	if bench {
		return "bench"
	}
	return "runtime"
}

// cpuShares turns profile samples into shares of available core-time:
// each layer's share of sampled CPU is scaled by cpuUtil (process CPU ÷
// wall × GOMAXPROCS) and the remainder is "idle", so the rows sum to 1.
func cpuShares(samples []stackSample, cpuUtil float64) map[string]float64 {
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.value
	}
	if total == 0 {
		shares["idle"] = 1
		return shares
	}
	for _, s := range samples {
		shares[classify(s.funcs)] += float64(s.value) / float64(total) * cpuUtil
	}
	shares["idle"] = 1 - cpuUtil
	return shares
}
