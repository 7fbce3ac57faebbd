package main

// The per-layer ledger attributes the process's CPU time during the
// measured sweeps to the simulator's layers, from a CPU profile taken by
// the benchmark around the same calls an end-to-end run makes. Nothing
// inside the program is instrumented: a sample is attributed by the
// packages and functions on its stack, so the ledger survives refactors
// that keep package boundaries.
//
// Layers (each sample lands in exactly one):
//
//	store     durable store I/O and store-entry encoding
//	snapshot  warm-snapshot capture and restore
//	gen       synthetic program generation (internal/synth)
//	decode    record supply: the synthetic executor or trace-file decode
//	step      frontend.Core.Step and the fast-forward FastStep
//	probe     cache, BTB, branch-predictor and flat-map lookups
//	prefetch  SHIFT, FDP and prefetch engines
//	mem       LLC/memory port and NoC
//	weave     the cmp epoch scheduler and barrier
//	assemble  system assembly (core.New*, including the structures it builds)
//	orchestrate  grid, job and library plumbing (experiments, serve, API)
//	transport HTTP and JSON outside program frames
//	gc        the Go garbage collector
//	harness   this benchmark's own code
//	other     everything else
//
// Two further shares overlap the partition: phase.fastforward and
// phase.detailed are the samples under FastStep and Step respectively.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
)

var ledgerLayers = []string{
	"store", "snapshot", "gen", "decode", "step", "probe", "prefetch", "mem",
	"weave", "assemble", "orchestrate", "transport", "gc", "harness", "other",
}

// layerOfPackage maps a repository package to its layer; packages absent
// here (program, isa, flatmap, stats, ...) are helpers whose samples go to
// the nearest caller that has a layer.
var layerOfPackage = map[string]string{
	"synth":       "gen",
	"trace":       "decode",
	"frontend":    "step",
	"cache":       "probe",
	"btb":         "probe",
	"airbtb":      "probe",
	"phantom":     "probe",
	"bpu":         "probe",
	"shift":       "prefetch",
	"fdp":         "prefetch",
	"prefetch":    "prefetch",
	"mem":         "mem",
	"noc":         "mem",
	"cmp":         "weave",
	"core":        "assemble",
	"experiments": "orchestrate",
	"parallel":    "orchestrate",
	"serve":       "orchestrate",
	"fleet":       "orchestrate",
}

// classify returns the layer of one stack, leaf first.
func classify(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "confluence/internal/store."),
			strings.Contains(fn, "StoreEntry"):
			return "store"
		case strings.Contains(fn, "WarmSnapshot"):
			return "snapshot"
		case strings.HasPrefix(fn, "confluence/internal/core.New"):
			return "assemble"
		}
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		switch {
		case pkg == "main":
			return "harness"
		case pkg == "confluence":
			return "orchestrate"
		case strings.HasPrefix(pkg, "confluence/internal/"):
			if l, ok := layerOfPackage[strings.TrimPrefix(pkg, "confluence/internal/")]; ok {
				return l
			}
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.markroot"):
			return "gc"
		case strings.HasPrefix(fn, "net/"), strings.HasPrefix(fn, "net."),
			strings.HasPrefix(fn, "encoding/json."), strings.HasPrefix(fn, "bufio."):
			return "transport"
		}
	}
	return "other"
}

// packageOf extracts the import path from a symbol name such as
// "confluence/internal/frontend.(*Core).Step".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profiler is a CPU profile of the measured sweeps, written as one
// segment per sweep into its own directory; a nil profiler does nothing.
type profiler struct {
	dir  string
	segs []string
	f    *os.File // the open segment, nil while paused
}

func startProfile(dir string) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &profiler{dir: dir}, nil
}

// resume starts a new segment.
func (p *profiler) resume() error {
	if p == nil {
		return nil
	}
	path := filepath.Join(p.dir, fmt.Sprintf("cpu-%02d.pprof", len(p.segs)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.f = f
	p.segs = append(p.segs, path)
	return nil
}

// pause ends the open segment, if any.
func (p *profiler) pause() {
	if p == nil || p.f == nil {
		return
	}
	pprof.StopCPUProfile()
	p.f.Close()
	p.f = nil
}

// ledgerFile is the ledger written next to the profile segments.
type ledgerFile struct {
	Units   int                `json:"units"`
	CPUms   float64            `json:"cpu_ms"`
	Layers  map[string]float64 `json:"layer_ms"`
	Phases  map[string]float64 `json:"phase_ms"`
	TopLeaf []leafCost         `json:"top_leaf_functions"`
}

type leafCost struct {
	Function string  `json:"function"`
	Layer    string  `json:"layer"`
	Ms       float64 `json:"ms"`
}

// finish stops the profile, attributes it, writes the ledger file, and
// returns the per-layer metrics for units units of work.
func (p *profiler) finish(units int) (map[string]metric, error) {
	p.pause()
	var samples []sample
	for _, seg := range p.segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			return nil, err
		}
		ss, err := parseProfile(raw)
		if err != nil {
			return nil, fmt.Errorf("ledger: %s: %w", seg, err)
		}
		samples = append(samples, ss...)
	}
	lf := ledgerFile{Units: units, Layers: map[string]float64{}, Phases: map[string]float64{}}
	leaves := map[string]*leafCost{}
	for _, s := range samples {
		ms := float64(s.nanos) / 1e6
		layer := classify(s.stack)
		lf.CPUms += ms
		lf.Layers[layer] += ms
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, "confluence/internal/frontend.(*Core).") {
				if strings.Contains(fn, "FastStep") {
					lf.Phases["fastforward"] += ms
					break
				}
				if strings.HasSuffix(fn, ".Step") {
					lf.Phases["detailed"] += ms
					break
				}
			}
		}
		if len(s.stack) > 0 {
			lc := leaves[s.stack[0]]
			if lc == nil {
				lc = &leafCost{Function: s.stack[0], Layer: layer}
				leaves[s.stack[0]] = lc
			}
			lc.Ms += ms
		}
	}
	if lf.CPUms == 0 || units == 0 {
		return nil, errors.New("ledger: the profile holds no samples")
	}
	for _, lc := range leaves {
		lf.TopLeaf = append(lf.TopLeaf, *lc)
	}
	sort.Slice(lf.TopLeaf, func(i, j int) bool { return lf.TopLeaf[i].Ms > lf.TopLeaf[j].Ms })
	if len(lf.TopLeaf) > 25 {
		lf.TopLeaf = lf.TopLeaf[:25]
	}
	out, err := json.MarshalIndent(lf, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(p.dir, "ledger.json"), out, 0o644); err != nil {
		return nil, err
	}

	m := map[string]metric{"cpu.per_unit_ms": {lf.CPUms / float64(units), "ms"}}
	for _, l := range ledgerLayers {
		m["cpu."+l] = metric{100 * lf.Layers[l] / lf.CPUms, "%"}
	}
	m["phase.fastforward"] = metric{100 * lf.Phases["fastforward"] / lf.CPUms, "%"}
	m["phase.detailed"] = metric{100 * lf.Phases["detailed"] / lf.CPUms, "%"}
	return m, nil
}

// sample is one profile sample: CPU nanoseconds and the stack's function
// names, leaf first (inlined frames expanded).
type sample struct {
	nanos int64
	stack []string
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what the ledger needs.
func parseProfile(raw []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		rawSamples  []rawSample
		locFuncs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id → name string index
	)
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendPacked(s.locs, v, b)
				case 2:
					s.values, err = appendPacked(s.values, v, b)
				}
				return err
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, t := range sampleTypes {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if cpu >= len(rs.values) {
			continue
		}
		s := sample{nanos: int64(rs.values[cpu])}
		for _, loc := range rs.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx < uint64(len(strs)) {
					s.stack = append(s.stack, strs[idx])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks the top-level fields of one protobuf message, passing
// varint values as v and length-delimited payloads as b.
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either one unpacked
// value (b == nil) or a packed run.
func appendPacked(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
