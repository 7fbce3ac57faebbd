package fleet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
