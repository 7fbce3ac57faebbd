package fleet

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzReadManifest feeds arbitrary bytes to ReadManifest as a published
// manifest. It must never panic, and whatever it accepts must pass the
// checks WriteManifest applies: workers derive lease, attempt and poison
// paths from the cell IDs of an accepted manifest.
func FuzzReadManifest(f *testing.F) {
	v := `"version":"` + ProtocolVersion + `"`
	f.Add(`{` + v + `,"store_dir":"s","lease_ttl_ms":1000,"max_attempts":3,"cells":[{"id":"c0","key":"k0","spec":{}}]}`)
	f.Add(`{` + v + `,"cells":[{"id":"../x","key":"k"}]}`)
	f.Add(`{` + v + `,"cells":[{"id":"c0","key":"k"},{"id":"c0","key":"k"}]}`)
	f.Add(`{` + v + `,"cells":[{"id":"c0","key":""}]}`)
	f.Add(`{"version":"confluence-fleet-v0","cells":[]}`)
	f.Add(`{` + v + `,"cells":null}`)
	f.Add(`not json`)

	f.Fuzz(func(t *testing.T, manifest string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			return
		}
		if err := WriteManifest(t.TempDir(), m); err != nil {
			t.Fatalf("ReadManifest accepted a manifest WriteManifest refuses: %v", err)
		}
	})
}

// TestReadManifestRejectsUnsafeCells: a hand-edited or corrupt manifest
// whose cells WriteManifest would refuse never reaches a worker.
func TestReadManifestRejectsUnsafeCells(t *testing.T) {
	for name, cells := range map[string]string{
		"traversal":   `[{"id":"../x","key":"k"}]`,
		"duplicate":   `[{"id":"c0","key":"k"},{"id":"c0","key":"k2"}]`,
		"missing key": `[{"id":"c0","key":""}]`,
	} {
		dir := t.TempDir()
		data := `{"version":"` + ProtocolVersion + `","cells":` + cells + `}`
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "manifest in") {
			t.Errorf("%s: ReadManifest = %v, want a manifest error", name, err)
		}
	}
}

// FuzzLeaseFiles feeds arbitrary bytes to a cell's lease, retry-ledger
// and poison files, as a torn write, a crash or a hand edit could leave
// them, through everything that reads them: leaseExpired, renew,
// bumpAttempts and readPoison. None may panic, and a bump always leaves
// the cell at least one attempt charged, so no ledger content reopens a
// spent budget.
func FuzzLeaseFiles(f *testing.F) {
	f.Add(`{"owner":"w","attempt":1,"expires_unix_nano":1700000060000000000}`, `{"count":2,"last_err":"boom"}`, `{"cell_id":"c000","attempts":3,"last_err":"boom"}`)
	f.Add(`{"owner":"other","expires_unix_nano":-1}`, `{"count":9223372036854775807}`, `{}`)
	f.Add(`torn{`, `{"count":-5}`, `not json`)
	f.Add(``, `{"count":1e30}`, ``)
	f.Add(`null`, `{"count":"3"}`, `[]`)

	f.Fuzz(func(t *testing.T, leaseData, attempts, poison string) {
		dir := t.TempDir()
		o := &Options{Dir: dir, WorkerID: "w"}
		const id = "c000"
		for path, data := range map[string]string{
			o.leasePath(id): leaseData, o.attemptPath(id): attempts, o.poisonPath(id): poison,
		} {
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		now := time.Unix(1_700_000_000, 0)
		leaseExpired(o.leasePath(id), time.Minute, now)
		o.renew(id, time.Minute, now)
		if n := o.bumpAttempts(id); n < 1 {
			t.Fatalf("bumpAttempts over %q = %d, want at least 1", attempts, n)
		}
		if n := o.readAttempts(id).Count; n < 1 {
			t.Fatalf("ledger after a bump over %q reads %d attempts, want at least 1", attempts, n)
		}
		o.readPoison(id)
	})
}

// TestAttemptLedgerFailsClosed: a retry ledger at the largest count stays
// over any budget when bumped instead of wrapping negative, and a
// negative count reads as torn — zero — instead of buying extra runs.
func TestAttemptLedgerFailsClosed(t *testing.T) {
	o := &Options{Dir: t.TempDir(), WorkerID: "w"}
	for _, tc := range []struct {
		ledger string
		want   int
	}{
		{`{"count":9223372036854775807}`, math.MaxInt},
		{`{"count":-7,"last_err":"boom"}`, 1},
		{`{"count":2,"last_err":"boom"}`, 3},
	} {
		if err := os.WriteFile(o.attemptPath("c000"), []byte(tc.ledger), 0o644); err != nil {
			t.Fatal(err)
		}
		if got := o.bumpAttempts("c000"); got != tc.want {
			t.Errorf("bump over %s = %d, want %d", tc.ledger, got, tc.want)
		}
	}
}
