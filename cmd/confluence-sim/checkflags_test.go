package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins which flags each mode accepts: a flag the selected
// mode would silently ignore, or two modes at once, is a usage error
// naming the offending flag.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		set  []string
		want string // substring of the error; "" = accepted
	}{
		{nil, ""},
		{[]string{"run", "sample", "scale", "store", "v", "workers", "workload"}, ""},
		{[]string{"sample", "scale", "store", "trace", "v", "workers", "workload"}, ""},
		{[]string{"mix", "sample", "scale", "store", "v", "workers"}, ""},
		{[]string{"job", "store", "v"}, ""},
		{[]string{"fleet-coordinator", "fleet-lease-ttl", "job", "store", "v"}, ""},
		{[]string{"fleet-lease-ttl", "fleet-worker", "v"}, ""},

		{[]string{"mix", "trace"}, "-trace and -mix are separate modes"},
		{[]string{"job", "mix"}, "-job and -mix are separate modes"},
		{[]string{"fleet-worker", "job"}, "-fleet-worker and -job are separate modes"},
		{[]string{"run", "trace"}, "-run has no effect with -trace"},
		{[]string{"mix", "run"}, "-run has no effect with -mix"},
		{[]string{"job", "run"}, "-run has no effect with -job"},
		{[]string{"mix", "workload"}, "-workload has no effect with -mix"},
		{[]string{"job", "workload"}, "-workload has no effect with -job"},
		{[]string{"job", "sample"}, "-sample has no effect with -job"},
		{[]string{"job", "scale"}, "-scale has no effect with -job"},
		{[]string{"job", "workers"}, "-workers has no effect with -job"},
		{[]string{"fleet-worker", "store"}, "-store has no effect with -fleet-worker"},
		{[]string{"fleet-coordinator", "job", "sample", "store"}, "-sample has no effect with -fleet-coordinator"},
		{[]string{"fleet-lease-ttl"}, "-fleet-lease-ttl has no effect without a mode flag"},
		{[]string{"fleet-coordinator", "job"}, "requires -job (the grid) and -store"},
		{[]string{"fleet-coordinator", "store"}, "requires -job (the grid) and -store"},
	} {
		err := checkFlags(tc.set)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: rejected: %v", tc.set, err)
		case tc.want != "" && err == nil:
			t.Errorf("%v: accepted, want %q", tc.set, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%v: error %q, want %q", tc.set, err, tc.want)
		}
	}
}

// TestParseRun: -run names are case- and space-insensitive, a name
// that selects no experiment is an error rather than an empty run, and a
// one-workload suite has no consolidation study: "all" leaves mixstudy
// out and naming it is an error pointing to -mix.
func TestParseRun(t *testing.T) {
	want, err := parseRun("fig1, Probe", false)
	if err != nil || len(want) != 2 || !want["fig1"] || !want["probe"] {
		t.Errorf("parseRun(fig1, Probe) = %v, %v", want, err)
	}
	for _, list := range []string{"fig11", "fig1,", "table2,figure6"} {
		if _, err := parseRun(list, false); err == nil {
			t.Errorf("parseRun(%q) accepted an unknown experiment", list)
		}
	}

	for _, one := range []bool{false, true} {
		all, err := parseRun("all", one)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range experimentList {
			if wantIt := e.name != "mixstudy" || !one; all[e.name] != wantIt {
				t.Errorf("parseRun(all, oneWorkload=%v) selects %s = %v, want %v", one, e.name, all[e.name], wantIt)
			}
		}
	}
	if _, err := parseRun("fig1,mixstudy", true); err == nil || !strings.Contains(err.Error(), "-mix") {
		t.Errorf("parseRun(mixstudy) with one workload: error %v, want one pointing to -mix", err)
	}
}
