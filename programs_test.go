package confluence

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"confluence/internal/synth"
)

// smallProfile is a paper profile cut down to build in a few milliseconds,
// with its own seed.
func smallProfile(seed uint64) synth.Profile {
	p := synth.DSS()
	p.Functions, p.Seed = 120, seed
	return p
}

// countingTable is a fresh table whose builds are counted.
func countingTable(build func(synth.Profile) (*Workload, error)) (*programTable, *atomic.Int64) {
	var n atomic.Int64
	return newProgramTable(func(p synth.Profile) (*Workload, error) {
		n.Add(1)
		return build(p)
	}), &n
}

// TestProgramTableMatchesBuild: the table's program for every paper
// profile is the program a fresh synth.Build generates.
func TestProgramTableMatchesBuild(t *testing.T) {
	tab := newProgramTable(synth.Build)
	for _, p := range synth.Profiles() {
		got, err := tab.get(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := synth.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the table's program differs from a fresh build", p.Name)
		}
	}
}

// TestProgramTableKeysFullProfile: profiles that differ only by seed or by
// a ProfileTweak field get distinct programs; the same profile gets the
// same one without a second build.
func TestProgramTableKeysFullProfile(t *testing.T) {
	tab, builds := countingTable(synth.Build)
	base := smallProfile(1)
	reseeded := smallProfile(2)
	tweaked := smallProfile(1)
	tweaked.Concurrency++
	var held []*Workload
	for _, p := range []synth.Profile{base, reseeded, tweaked} {
		w, err := tab.get(p)
		if err != nil {
			t.Fatal(err)
		}
		if w.Prof != p {
			t.Fatalf("asked for %+v, got the program of %+v", p, w.Prof)
		}
		for _, h := range held {
			if h == w {
				t.Fatalf("profiles %+v and %+v share a program", h.Prof, p)
			}
		}
		held = append(held, w)
	}
	again, err := tab.get(base)
	if err != nil {
		t.Fatal(err)
	}
	if again != held[0] {
		t.Error("the same profile got a second program while the first is held")
	}
	if n := builds.Load(); n != 3 {
		t.Errorf("%d builds for 3 distinct profiles, want 3", n)
	}
}

// TestProgramTableSingleFlight: concurrent requests for one profile build
// it once and all get the same program.
func TestProgramTableSingleFlight(t *testing.T) {
	release := make(chan struct{})
	tab, builds := countingTable(func(p synth.Profile) (*Workload, error) {
		<-release
		return synth.Build(p)
	})
	const n = 8
	got := make([]*Workload, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = tab.get(smallProfile(3))
		}()
	}
	close(release)
	wg.Wait()
	for i := range n {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("request %d got another program than request 0", i)
		}
	}
	if b := builds.Load(); b != 1 {
		t.Errorf("%d concurrent requests built %d programs, want 1", n, b)
	}
}

// TestProgramTableReleasesIdle: once callers drop their programs, at most
// one (the last handed out) stays reachable, and the table lets go of it
// before it builds another profile.
func TestProgramTableReleasesIdle(t *testing.T) {
	var watch []weak.Pointer[Workload]
	reachable := func() int {
		runtime.GC()
		n := 0
		for _, w := range watch {
			if w.Value() != nil {
				n++
			}
		}
		return n
	}
	var atBuild []int
	tab, _ := countingTable(func(p synth.Profile) (*Workload, error) {
		atBuild = append(atBuild, reachable())
		return synth.Build(p)
	})
	get := func(seed uint64) *Workload {
		w, err := tab.get(smallProfile(seed))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	held := []*Workload{get(10), get(11), get(12)}
	for _, w := range held {
		watch = append(watch, weak.Make(w))
	}
	if n := reachable(); n != 3 {
		t.Fatalf("%d of 3 held programs reachable", n)
	}
	last := held[2]
	held = nil
	if n := reachable(); n != 1 {
		t.Fatalf("%d programs reachable after callers dropped them, want 1 (the last)", n)
	}
	if get(12) != last {
		t.Fatal("the idle program was not reused")
	}
	last = nil
	atBuild = atBuild[:0]
	get(13)
	if len(atBuild) != 1 || atBuild[0] != 0 {
		t.Errorf("programs reachable when the next profile was built: %v, want [0]", atBuild)
	}
	if n := reachable(); n != 0 {
		t.Errorf("%d dropped programs still reachable", n)
	}
}
