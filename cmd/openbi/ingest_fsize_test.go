//go:build linux

package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestCLIIngestCSVFailedWriteLeavesOldBytes is the torn-output regression
// for `openbi ingest -csv`: a CSV write that fails partway must fail the
// command and leave the previous file intact, never a prefix of the new
// table, with no temp file left beside it. The test re-runs itself in a
// child process whose file-size limit (RLIMIT_FSIZE) is 4 KiB, so the
// ~20 KiB projected table hits "file too large" mid-write, as on a full
// disk.
func TestCLIIngestCSVFailedWriteLeavesOldBytes(t *testing.T) {
	if dir := os.Getenv("OPENBI_TEST_FSIZE_DIR"); dir != "" {
		lim := &syscall.Rlimit{Cur: 4096, Max: 4096}
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, lim); err != nil {
			t.Fatal(err)
		}
		err := cmdIngest([]string{"-in", filepath.Join(dir, "lod.nt"), "-csv", filepath.Join(dir, "lod.csv")})
		if err == nil {
			t.Fatal("ingest -csv succeeded past the file-size limit")
		}
		t.Logf("ingest failed as expected: %v", err)
		return
	}

	dir := t.TempDir()
	captureStdout(t, func() error {
		return cmdGenerate([]string{"-kind", "municipal", "-n", "200", "-seed", "42", "-dirty", "0.2",
			"-out", filepath.Join(dir, "lod.nt")})
	})
	csv := filepath.Join(dir, "lod.csv")
	const old = "old,complete\nprojected,table\n"
	if err := os.WriteFile(csv, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	child := exec.Command(os.Args[0], "-test.run=^TestCLIIngestCSVFailedWriteLeavesOldBytes$", "-test.v")
	child.Env = append(os.Environ(), "OPENBI_TEST_FSIZE_DIR="+dir)
	out, err := child.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "ingest failed as expected") {
		t.Fatalf("child run: %v\n%s", err, out)
	}
	got, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != old {
		t.Fatalf("failed write altered the CSV (%d bytes now):\n%.200s", len(got), got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("temp leftovers after failed write: %v", names)
	}
}
