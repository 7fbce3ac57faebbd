package confluence

import (
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"confluence/internal/synth"
)

// programs is the process's program table: every job path (GenerateCells,
// JobSpec.Config and JobSpec.Configs) takes its generated workloads from
// it, so a program is built once per process for as long as it is in use.
var programs = newProgramTable(synth.Build)

// programTable hands out generated workloads keyed by their full
// synth.Profile, so two profiles that differ in any field, the seed or a
// ProfileTweak override included, never share a program. A program is a
// pure function of its profile and is only ever read, which is why one
// copy can serve every caller (the Runner already shares programs across
// concurrent cells).
//
// The table references programs weakly, so it holds every program some
// caller still holds, plus one strong reference to the program it handed
// out last: at most one program no caller holds stays reachable. Before
// building a different profile the table drops that reference, so a
// build never adds to a program nobody uses. Concurrent requests for one
// profile build it once.
type programTable struct {
	build func(synth.Profile) (*Workload, error)

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when a build finishes
	entries map[synth.Profile]*programEntry
	last    *Workload // the program handed out last, kept while idle
	builds  atomic.Uint64
}

// programEntry is one profile's program, or the build in flight.
type programEntry struct {
	building bool
	w        weak.Pointer[Workload]
}

func newProgramTable(build func(synth.Profile) (*Workload, error)) *programTable {
	t := &programTable{build: build, entries: make(map[synth.Profile]*programEntry)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// get returns prof's program, building it only when no live copy exists.
func (t *programTable) get(prof synth.Profile) (*Workload, error) {
	t.mu.Lock()
	for {
		e := t.entries[prof]
		if e == nil {
			break
		}
		if e.building {
			t.cond.Wait()
			continue
		}
		if w := e.w.Value(); w != nil {
			t.last = w
			t.mu.Unlock()
			return w, nil
		}
		break // collected: build it again
	}
	t.last = nil
	e := &programEntry{building: true}
	t.entries[prof] = e
	t.mu.Unlock()

	w, err := t.build(prof)

	t.mu.Lock()
	defer t.mu.Unlock()
	e.building = false
	t.cond.Broadcast()
	if err != nil {
		// Waiters find no entry and try the build themselves.
		delete(t.entries, prof)
		return nil, err
	}
	t.builds.Add(1)
	e.w = weak.Make(w)
	t.last = w
	runtime.AddCleanup(w, t.forget, programRef{prof, e.w})
	return w, nil
}

// programRef names a table entry for the cleanup that removes it.
type programRef struct {
	prof synth.Profile
	w    weak.Pointer[Workload]
}

// forget removes a collected program's entry, unless the profile has been
// built again since.
func (t *programTable) forget(r programRef) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entries[r.prof]; e != nil && e.w == r.w {
		delete(t.entries, r.prof)
	}
}

// ProgramBuilds reports how many programs the process's program table has
// generated, for tests and operators checking that programs are reused.
func ProgramBuilds() uint64 { return programs.builds.Load() }

// generated returns profile-only workload w with its program, taken from
// the program table. A capture-backed workload needs no program.
func generated(w *Workload) (*Workload, error) {
	if w.TraceDir != "" {
		return w, nil
	}
	return programs.get(w.Prof)
}
