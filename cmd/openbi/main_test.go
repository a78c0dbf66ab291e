package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openbi/internal/oberr"
)

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed. A goroutine drains the pipe concurrently so commands
// larger than the pipe buffer cannot deadlock.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	errRun := f()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	if errRun != nil {
		t.Fatalf("command failed: %v", errRun)
	}
	return out
}

func TestCLIGenerateAndProfile(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "m.nt")
	out := captureStdout(t, func() error {
		return cmdGenerate([]string{"-kind", "municipal", "-n", "80", "-dirty", "0.2", "-out", nt, "-seed", "3"})
	})
	if !strings.Contains(out, "triples") {
		t.Fatalf("generate output: %q", out)
	}
	if _, err := os.Stat(nt); err != nil {
		t.Fatal("no output file")
	}

	out = captureStdout(t, func() error {
		return cmdProfile([]string{"-in", nt, "-class", "fundingLevel"})
	})
	if !strings.Contains(out, "LOD profile") {
		t.Fatalf("profile should include the graph-level section:\n%s", out)
	}
	if !strings.Contains(out, "completeness") {
		t.Fatalf("profile output:\n%s", out)
	}
}

func TestCLIGenerateCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "d.csv")
	captureStdout(t, func() error {
		return cmdGenerate([]string{"-kind", "classification", "-n", "50", "-out", csv})
	})
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "num1,") {
		t.Fatalf("csv header: %q", string(data[:40]))
	}
}

func TestCLIGenerateValidation(t *testing.T) {
	if err := cmdGenerate([]string{"-kind", "municipal"}); err == nil {
		t.Fatal("missing -out should error")
	}
	if err := cmdGenerate([]string{"-kind", "bogus", "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Fatal("unknown kind should error")
	}
}

// TestCLIProfileWritesModel: -model writes JSON for a .json extension in
// any case and XMI otherwise, annotated with the severities either way.
func TestCLIProfileWritesModel(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "d.csv")
	captureStdout(t, func() error {
		return cmdGenerate([]string{"-kind", "classification", "-n", "60", "-out", csv})
	})
	for _, tc := range []struct {
		name  string
		first byte
	}{
		{"m.json", '{'},
		{"m.JSON", '{'},
		{"m.xmi", '<'},
		{"m", '<'},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := filepath.Join(dir, tc.name)
			captureStdout(t, func() error {
				return cmdProfile([]string{"-in", csv, "-class", "class", "-model", model})
			})
			data, err := os.ReadFile(model)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 || data[0] != tc.first {
				t.Fatalf("%s starts %q, want %q", tc.name, data[:min(len(data), 20)], tc.first)
			}
			if !strings.Contains(string(data), "dq.severity.completeness") {
				t.Fatal("model lacks severity annotations")
			}
		})
	}
}

func TestCLIRepairDryRun(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "m.nt")
	captureStdout(t, func() error {
		return cmdGenerate([]string{"-kind", "municipal", "-n", "80", "-dirty", "0.4", "-out", nt})
	})
	out := captureStdout(t, func() error {
		return cmdRepair([]string{"-in", nt, "-class", "fundingLevel"})
	})
	if !strings.Contains(out, "impute") && !strings.Contains(out, "standardize") {
		t.Fatalf("repair plan empty for a dirty source:\n%s", out)
	}
}

// TestCLIRepairUnknownClass: a -class naming no column fails with
// oberr.ErrColumnNotFound before any plan is printed, as profile, advise
// and mine do.
func TestCLIRepairUnknownClass(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "m.nt")
	captureStdout(t, func() error {
		return cmdGenerate([]string{"-kind", "municipal", "-n", "80", "-dirty", "0.4", "-out", nt})
	})
	var err error
	out := captureStdout(t, func() error {
		err = cmdRepair([]string{"-in", nt, "-class", "nosuchcolumn"})
		return nil
	})
	if !errors.Is(err, oberr.ErrColumnNotFound) {
		t.Fatalf("err = %v, want oberr.ErrColumnNotFound", err)
	}
	if out != "" {
		t.Fatalf("repair printed output for an unknown class:\n%s", out)
	}
}

func TestCLIOLAP(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "a.nt")
	captureStdout(t, func() error {
		return cmdGenerate([]string{"-kind", "airquality", "-n", "120", "-out", nt})
	})
	out := captureStdout(t, func() error {
		return cmdOLAP([]string{"-in", nt, "-dims", "alertLevel", "-measure", "avg:no2,count:no2"})
	})
	if !strings.Contains(out, "avg(no2)") {
		t.Fatalf("olap output:\n%s", out)
	}
}

func TestCLIOLAPValidation(t *testing.T) {
	if err := cmdOLAP([]string{"-in", "x", "-dims", "d", "-measure", "badspec"}); err == nil {
		t.Fatal("bad measure spec should error")
	}
}

func TestCLIAdviseRequiresKB(t *testing.T) {
	dir := t.TempDir()
	err := cmdAdvise([]string{"-in", "x.csv", "-class", "c", "-kb", filepath.Join(dir, "absent.json")})
	if err == nil || !strings.Contains(err.Error(), "knowledge base") {
		t.Fatalf("err = %v", err)
	}
}

func TestCLIExperimentsWorkersFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment grid")
	}
	dir := t.TempDir()
	kb1 := filepath.Join(dir, "kb1.json")
	kb2 := filepath.Join(dir, "kb2.json")
	run := func(kbPath, workers string) {
		out := captureStdout(t, func() error {
			return cmdExperiments([]string{"-rows", "60", "-folds", "2", "-seed", "5",
				"-workers", workers, "-out", kbPath})
		})
		if !strings.Contains(out, "knowledge base") {
			t.Fatalf("experiments output:\n%s", out)
		}
	}
	// The Workers knob must be wired through AND must not change results.
	run(kb1, "1")
	run(kb2, "4")
	b1, err := os.ReadFile(kb1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(kb2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("knowledge base depends on -workers; per-task seeds must make it invariant")
	}
}

func TestCLIExperimentsTimeout(t *testing.T) {
	// A 1ns budget expires before the first grid cell: the run must stop
	// with a deadline explanation instead of writing a knowledge base.
	out := filepath.Join(t.TempDir(), "kb.json")
	err := cmdExperiments([]string{"-rows", "60", "-folds", "2", "-timeout", "1ns", "-out", out})
	if err == nil || !strings.Contains(err.Error(), "-timeout exceeded") {
		t.Fatalf("err = %v, want -timeout exceeded", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Fatal("timed-out run must not write a knowledge base")
	}
}

func TestCLIMineTimeoutFlagParses(t *testing.T) {
	// Missing KB is reported before the deadline matters; the flag must
	// parse without tripping flag.ExitOnError.
	err := cmdMine([]string{"-in", "x.csv", "-class", "c", "-timeout", "5s",
		"-kb", filepath.Join(t.TempDir(), "absent.json")})
	if err == nil || !strings.Contains(err.Error(), "knowledge base") {
		t.Fatalf("err = %v", err)
	}
}

func TestCLIValidateTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small experiment grid")
	}
	dir := t.TempDir()
	kbPath := filepath.Join(dir, "kb.json")
	captureStdout(t, func() error {
		return cmdExperiments([]string{"-rows", "60", "-folds", "2", "-seed", "5", "-out", kbPath})
	})
	err := cmdValidate([]string{"-kb", kbPath, "-rows", "60", "-trials", "3", "-timeout", "1ns"})
	if err == nil || !strings.Contains(err.Error(), "-timeout exceeded") {
		t.Fatalf("err = %v, want -timeout exceeded", err)
	}
}
