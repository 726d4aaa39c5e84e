package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"nba/internal/chaos"
	"nba/internal/fault"
	"nba/internal/simtime"
)

func writeRepro(t *testing.T, name string, c chaos.Case) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := chaos.WriteRepro(path, c); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayExitContract pins the replay exit codes scripts rely on:
// 0 = reproducer ran clean, 1 = it reproduced an invariant violation,
// 2 = it could not be run at all (usage / load error).
func TestReplayExitContract(t *testing.T) {
	clean := writeRepro(t, "clean.json", chaos.Case{
		App: "ipv4", Seed: 3, Plan: &fault.Plan{},
	})
	// A corruption window with sentinel sampling disarmed: nothing
	// quarantines, so tainted packets reach TX and the corrupt.leak oracle
	// fires deterministically.
	leak := writeRepro(t, "leak.json", chaos.Case{
		App:  "ipv4",
		Seed: 3,
		Plan: fault.Corruption(
			300*simtime.Microsecond, 2*simtime.Millisecond, 0, 0.5, 0xff),
		DisarmSampling: true,
	})
	badJSON := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badJSON, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	badKind := filepath.Join(t.TempDir(), "kind.json")
	if err := os.WriteFile(badKind,
		[]byte(`{"app":"ipv4","seed":1,"events":[{"at_ps":1,"kind":"device.explode"}]}`),
		0o644); err != nil {
		t.Fatal(err)
	}

	noKind := filepath.Join(t.TempDir(), "nokind.json")
	if err := os.WriteFile(noKind,
		[]byte(`{"app":"ipv4","seed":1,"events":[{"at_ps":1,"device":0}]}`),
		0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean repro", []string{clean}, replayClean},
		{"corruption leak reproduced", []string{leak}, replayViolated},
		{"no args", nil, replayUsage},
		{"two args", []string{clean, leak}, replayUsage},
		{"missing file", []string{filepath.Join(t.TempDir(), "nope.json")}, replayUsage},
		{"malformed json", []string{badJSON}, replayUsage},
		{"unknown fault kind", []string{badKind}, replayUsage},
		{"missing fault kind", []string{noKind}, replayUsage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := replayExit(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("replayExit(%v) = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					tc.args, got, tc.want, stdout.String(), stderr.String())
			}
			if tc.want == replayUsage && stderr.Len() == 0 {
				t.Fatalf("usage-error exit printed nothing to stderr")
			}
		})
	}
}
