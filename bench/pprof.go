package main

// A reader for the gzip-compressed profile.proto that runtime/pprof writes,
// just deep enough to recover each sample's call stack as function names,
// and the rule that charges a stack to a layer.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one profile sample: function names leaf first, and its
// weight (CPU nanoseconds in a CPU profile).
type stackSample struct {
	funcs  []string
	weight int64
}

var errTruncated = errors.New("profile: truncated message")

// protoField is one decoded field of a protobuf message: varint fields
// carry num, length-delimited fields carry data.
type protoField struct {
	tag  int
	num  uint64
	data []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		f := protoField{tag: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.num, rest, err = readVarint(rest); err != nil {
				return nil, err
			}
		case 1:
			if len(rest) < 8 {
				return nil, errTruncated
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = readVarint(rest); err != nil {
				return nil, err
			}
			if n > uint64(len(rest)) {
				return nil, errTruncated
			}
			f.data, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return nil, errTruncated
			}
			rest = rest[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		out = append(out, f)
		b = rest
	}
	return out, nil
}

// repeatedVarint reads a repeated integer field that may arrive packed (one
// length-delimited run) or unpacked (one varint per occurrence).
func repeatedVarint(f protoField, into []uint64) ([]uint64, error) {
	if f.data == nil {
		return append(into, f.num), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// parseProfile decodes a gzip-compressed pprof profile into stacks. Inlined
// frames are expanded, so funcs lists every source-level function.
func parseProfile(raw []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := readFields(body)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id → string index
	locFuncs := map[uint64][]uint64{} // location id → function ids, leaf first
	type rawSample struct{ locs, vals []uint64 }
	var samples []rawSample
	for _, f := range top {
		switch f.tag {
		case 2: // Sample
			fs, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, sf := range fs {
				switch sf.tag {
				case 1:
					if s.locs, err = repeatedVarint(sf, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if s.vals, err = repeatedVarint(sf, s.vals); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			fs, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.tag {
				case 1:
					id = lf.num
				case 4: // Line
					ls, err := readFields(lf.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.tag == 1 {
							fns = append(fns, l.num)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			fs, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.tag {
				case 1:
					id = ff.num
				case 2:
					name = ff.num
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stackSample{weight: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

const layerPrefix = "repro/internal/"

// funcPackage splits "path/to/pkg.(*T).Method" into its import path.
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf names the layer a function belongs to: the last element of its
// repro/internal/... import path, or "" for everything else.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	if !strings.HasPrefix(pkg, layerPrefix) {
		return ""
	}
	return pkg[strings.LastIndex(pkg, "/")+1:]
}

func isSyscall(fn string) bool {
	pkg := funcPackage(fn)
	return pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "runtime/internal/syscall"
}

// cpuAttribution is a CPU profile split by layer. self partitions the
// profile (the shares sum to 1): a sample inside a system call is "syscall";
// otherwise it belongs to the innermost repro/internal package on its stack,
// so standard-library callees are charged to the layer that called them; a
// stack with no such frame is "runtime" when the Go runtime is all there is
// (collector, scheduler, netpoller) and "other" when it is the benchmark's
// own code. cum charges a sample to every layer anywhere on its stack.
type cpuAttribution struct {
	self  map[string]float64
	cum   map[string]float64
	total int64
}

func attribute(samples []stackSample) cpuAttribution {
	self := map[string]int64{}
	cum := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.weight
		owner, seen := "", map[string]bool{}
		sys, own := false, false
		for _, fn := range s.funcs {
			if l := layerOf(fn); l != "" {
				if owner == "" {
					owner = l
				}
				if !seen[l] {
					seen[l] = true
					cum[l] += s.weight
				}
			} else if isSyscall(fn) {
				sys = sys || owner == ""
			} else if strings.HasPrefix(fn, "main.") {
				own = true
			}
		}
		switch {
		case sys:
			owner = "syscall"
		case owner != "":
		case own:
			owner = "other"
		default:
			owner = "runtime"
		}
		self[owner] += s.weight
	}
	a := cpuAttribution{self: map[string]float64{}, cum: map[string]float64{}, total: total}
	if total == 0 {
		return a
	}
	for k, v := range self {
		a.self[k] = float64(v) / float64(total)
	}
	for k, v := range cum {
		a.cum[k] = float64(v) / float64(total)
	}
	return a
}
