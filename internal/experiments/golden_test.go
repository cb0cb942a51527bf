package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// diffLines fails t at the first line where got and want differ.
func diffLines(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, golden %d", len(gl), len(wl))
}

// TestPaperTablesMatchResults pins every simulated section of `cloudburst
// all` — Figures 3 and 4, Tables I and II, the headline, the ablations, the
// estimate and cost tables — byte for byte to results_all.txt. Figure 1,
// the file's first block, times the real engines and is skipped. After an
// intended change, `make results` rewrites the file.
func TestPaperTablesMatchResults(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "results_all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	_, want, ok := strings.Cut(string(raw), "\n\n")
	if !ok {
		t.Fatal("results_all.txt has no Figure 1 block")
	}
	var got strings.Builder
	if err := WritePaperTables(&got, Apps); err != nil {
		t.Fatal(err)
	}
	diffLines(t, got.String(), want)
}

// TestFaultTableMatchesGolden pins the `cloudburst faults` sweep for every
// app: checkpoint interval × failure count, with makespans and the recovery
// work each cell performed. `make results` rewrites the goldens.
func TestFaultTableMatchesGolden(t *testing.T) {
	for _, app := range Apps {
		t.Run(string(app), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "faults_"+string(app)+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			rows, err := RunFaultTable(app)
			if err != nil {
				t.Fatal(err)
			}
			diffLines(t, FormatFaultTable(rows), string(want))
		})
	}
}
