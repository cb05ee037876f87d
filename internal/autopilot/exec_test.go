package autopilot

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestParseReadyLine(t *testing.T) {
	t.Parallel()
	cases := []struct {
		line string
		want readyLine
		ok   bool
	}{
		{"kairosd: g4dn.xlarge serving NCF on 127.0.0.1:41837 (timescale 1.00)", readyLine{"g4dn.xlarge", "NCF", "127.0.0.1:41837"}, true},
		{"kairosd: r5n.large serving MT-WND on 127.0.0.1:7001 (timescale 0.1)", readyLine{"r5n.large", "MT-WND", "127.0.0.1:7001"}, true},
		{"kairosd: r5n.large serving MT-WND on", readyLine{}, false},
		{"kairosd: draining", readyLine{}, false},
		{"kairosd: shutting down", readyLine{}, false},
		{"kairosctl: g4dn.xlarge serving NCF on 127.0.0.1:1", readyLine{}, false},
		{"something else entirely", readyLine{}, false},
		{"", readyLine{}, false},
	}
	for _, tc := range cases {
		got, ok := parseReadyLine(tc.line)
		if ok != tc.ok || got != tc.want {
			t.Errorf("parseReadyLine(%q) = %+v, %v; want %+v, %v", tc.line, got, ok, tc.want, tc.ok)
		}
	}
}

func TestExecFleetValidation(t *testing.T) {
	t.Parallel()
	f := NewExecFleet("/does/not/matter", 1, "NCF")
	if _, err := f.Launch("MT-WND", "r5n.large"); err == nil || !strings.Contains(err.Error(), "does not serve") {
		t.Fatalf("unlisted model must be rejected before spawning: %v", err)
	}
	if err := f.Stop("127.0.0.1:1"); err == nil {
		t.Fatal("stopping an unknown address must error")
	}
	if got := f.Addrs(); len(got) != 0 || f.Size() != 0 {
		t.Fatalf("empty fleet reports %v", got)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("closing an empty fleet: %v", err)
	}
}

// TestExecFleetBadBinary: a binary that exits without a ready line is a
// clean Launch error carrying its stderr, not a hang.
func TestExecFleetBadBinary(t *testing.T) {
	t.Parallel()
	f := NewExecFleet("/bin/false", 1)
	f.LaunchTimeout = 5 * time.Second
	if _, err := f.Launch("NCF", "r5n.large"); err == nil || !strings.Contains(err.Error(), "ready line") {
		t.Fatalf("dead binary must fail the launch: %v", err)
	}
	if f.Size() != 0 {
		t.Fatal("failed launch must not be tracked")
	}
}

// TestExecFleetReadyLineMismatch: a daemon whose ready line announces
// another model than the one asked for fails the launch and is reaped,
// without ever being dialed.
func TestExecFleetReadyLineMismatch(t *testing.T) {
	t.Parallel()
	if runtime.GOOS == "windows" {
		t.Skip("uses a shell script as the daemon")
	}
	bin := filepath.Join(t.TempDir(), "fake-kairosd")
	script := "#!/bin/sh\necho 'kairosd: r5n.large serving MT-WND on 127.0.0.1:1 (timescale 1.00)'\nexec sleep 30\n"
	if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	f := NewExecFleet(bin, 1)
	f.LaunchTimeout = 5 * time.Second
	start := time.Now()
	_, err := f.Launch("NCF", "r5n.large")
	if err == nil || !strings.Contains(err.Error(), "announces r5n.large/MT-WND, want r5n.large/NCF") {
		t.Fatalf("mismatched ready line must fail the launch: %v", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("the mismatch took %v to fail; the process was not killed", waited)
	}
	if f.Size() != 0 {
		t.Fatal("failed launch must not be tracked")
	}
}
