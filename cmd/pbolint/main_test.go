package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

const fixtureRoot = "../../internal/analysis/testdata"

// TestCLIOverFixtures runs the full CLI over every analyzer fixture and
// asserts the exact diagnostic set — which also pins down //lint:ignore
// suppression behavior, since each suppressed fixture line must NOT
// appear. The expected set is the union of the per-analyzer golden
// files, so the CLI test stays in lockstep with the analyzer tests.
func TestCLIOverFixtures(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{filepath.Join(fixtureRoot, "src") + "/..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings present); stderr: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr: %s", stderr.String())
	}

	got := splitLines(stdout.String())
	var want []string
	goldens, err := filepath.Glob(filepath.Join(fixtureRoot, "*.golden"))
	if err != nil || len(goldens) != 10 {
		t.Fatalf("found %d golden files (err %v), want 10", len(goldens), err)
	}
	for _, g := range goldens {
		data, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range splitLines(string(data)) {
			// Golden paths are relative to internal/analysis; the CLI
			// here runs from cmd/pbolint.
			want = append(want, "../../internal/analysis/"+line)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostic set mismatch\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestCLICleanFixturesExitZero runs the CLI over the compliant fixture
// packages only and requires a silent, zero-status run.
func TestCLICleanFixturesExitZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		filepath.Join(fixtureRoot, "src/internal/rng"),
		filepath.Join(fixtureRoot, "src/internal/fp"),
		filepath.Join(fixtureRoot, "src/internal/parallel"),
		filepath.Join(fixtureRoot, "src/noprintmain"),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("unexpected output: %s", stdout.String())
	}
}

// TestCLIOnlyFlag restricts the run to one analyzer: norand findings
// remain, everything else disappears. Directive-hygiene "pbolint" lines
// (malformed directives, unknown analyzer names) survive -only — they
// are about the waiver surface itself, not any one analyzer.
func TestCLIOnlyFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-only", "norand", filepath.Join(fixtureRoot, "src") + "/..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	var norand int
	for _, l := range splitLines(stdout.String()) {
		switch {
		case strings.Contains(l, " norand: "):
			norand++
		case strings.Contains(l, " pbolint: "):
			// Directive hygiene is reported regardless of -only.
		default:
			t.Errorf("non-norand finding leaked through -only: %s", l)
		}
	}
	if norand != 2 {
		t.Errorf("got %d norand findings, want 2:\n%s", norand, stdout.String())
	}
}

// TestCLIJSON pins the -json schema: the exact top-level field set, the
// exact per-diagnostic field set, and agreement with the text run over
// the same fixtures. The report must round-trip through encoding/json.
func TestCLIJSON(t *testing.T) {
	pattern := filepath.Join(fixtureRoot, "src") + "/..."
	var text, jsonOut, stderr bytes.Buffer
	if code := run([]string{pattern}, &text, &stderr); code != 1 {
		t.Fatalf("text run exit = %d, want 1", code)
	}
	if code := run([]string{"-json", pattern}, &jsonOut, &stderr); code != 1 {
		t.Fatalf("json run exit = %d, want 1; stderr: %s", code, stderr.String())
	}

	var loose map[string]json.RawMessage
	if err := json.Unmarshal(jsonOut.Bytes(), &loose); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	wantKeys := []string{"analyzers", "diagnostics", "exit_code", "suppressed", "type_errors"}
	var gotKeys []string
	for k := range loose {
		gotKeys = append(gotKeys, k)
	}
	sort.Strings(gotKeys)
	if strings.Join(gotKeys, ",") != strings.Join(wantKeys, ",") {
		t.Errorf("top-level fields = %v, want %v", gotKeys, wantKeys)
	}

	var report struct {
		Analyzers   []string                     `json:"analyzers"`
		Diagnostics []map[string]json.RawMessage `json:"diagnostics"`
		Suppressed  int                          `json:"suppressed"`
		TypeErrors  int                          `json:"type_errors"`
		ExitCode    int                          `json:"exit_code"`
	}
	if err := json.Unmarshal(jsonOut.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Analyzers) != len(analysis.All()) {
		t.Errorf("analyzers = %v, want all %d", report.Analyzers, len(analysis.All()))
	}
	if len(report.Diagnostics) != len(splitLines(text.String())) {
		t.Errorf("json diagnostics = %d, text lines = %d; the two modes must agree",
			len(report.Diagnostics), len(splitLines(text.String())))
	}
	diagKeys := []string{"analyzer", "col", "file", "line", "message"}
	for _, d := range report.Diagnostics {
		var keys []string
		for k := range d {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != strings.Join(diagKeys, ",") {
			t.Fatalf("diagnostic fields = %v, want %v", keys, diagKeys)
		}
	}
	if report.Suppressed == 0 {
		t.Error("suppressed = 0, want > 0: the fixtures exercise suppressions")
	}
	if report.TypeErrors != 0 {
		t.Errorf("type_errors = %d, want 0 on the fixture tree", report.TypeErrors)
	}
	if report.ExitCode != 1 {
		t.Errorf("exit_code field = %d, want 1 (must mirror the process exit)", report.ExitCode)
	}

	reencoded, err := json.Marshal(report)
	if err != nil || !json.Valid(reencoded) {
		t.Errorf("report does not round-trip: %v", err)
	}
}

// TestCLISuppressions checks the waiver inventory: every reasoned
// directive in the fixtures appears once with its analyzers and reason;
// directives naming unknown analyzers are diagnostics, not waivers, and
// stay out.
func TestCLISuppressions(t *testing.T) {
	pattern := filepath.Join(fixtureRoot, "src") + "/..."
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-suppressions", pattern}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	text := stdout.String()
	for _, wantSub := range []string{
		"norand/norand.go",
		"pooldiscipline/pool.go",
		"locksafe/lock.go",
		"detorder/det.go",
		"acquire helper hands ownership to the caller",
	} {
		if !strings.Contains(text, wantSub) {
			t.Errorf("inventory missing %q:\n%s", wantSub, text)
		}
	}
	if strings.Contains(text, "determinism") {
		t.Errorf("unknown-analyzer directive leaked into the inventory:\n%s", text)
	}

	var jsonOut bytes.Buffer
	if code := run([]string{"-suppressions", "-json", pattern}, &jsonOut, &stderr); code != 0 {
		t.Fatalf("json exit = %d, want 0", code)
	}
	var inventory []analysis.Suppression
	if err := json.Unmarshal(jsonOut.Bytes(), &inventory); err != nil {
		t.Fatalf("inventory is not valid JSON: %v", err)
	}
	if len(inventory) != len(splitLines(text)) {
		t.Errorf("json inventory has %d entries, text has %d lines", len(inventory), len(splitLines(text)))
	}
	for _, s := range inventory {
		if s.File == "" || s.Line == 0 || len(s.Analyzers) == 0 || s.Reason == "" {
			t.Errorf("incomplete inventory entry: %+v", s)
		}
	}
}

// TestCLITypeErrors pins the non-fatal type-error path: the fixture
// parses but fails the type checker, the run warns on stderr, reports
// whatever analysis survived, and exits 2 — a partially checked tree
// must not pass as clean.
func TestCLITypeErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"testdata/typeerr"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "warning") {
		t.Errorf("stderr lacks a type-error warning: %s", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-json", "testdata/typeerr"}, &stdout, &stderr); code != 2 {
		t.Fatalf("json exit = %d, want 2", code)
	}
	var report struct {
		TypeErrors int `json:"type_errors"`
		ExitCode   int `json:"exit_code"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.TypeErrors == 0 || report.ExitCode != 2 {
		t.Errorf("report = %+v, want type_errors > 0 and exit_code 2", report)
	}
}

// TestCLIParseError feeds a file that does not parse: loading fails
// outright and the run exits 2. The broken file lives in a temp dir so
// gofmt over the repo never sees it.
func TestCLIParseError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte("package broken\nfunc {"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{dir}, &stdout, &stderr); code != 2 {
		t.Errorf("exit = %d, want 2; stderr: %s", code, stderr.String())
	}
	if stderr.Len() == 0 {
		t.Error("parse failure produced no stderr message")
	}
}

func TestCLIBadUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "nosuch", "."}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown analyzer: exit code = %d, want 2", code)
	}
	if code := run([]string{"./no-such-dir-anywhere"}, &stdout, &stderr); code != 2 {
		t.Errorf("missing dir: exit code = %d, want 2", code)
	}
	if code := run([]string{"-badflag"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit code = %d, want 2", code)
	}
}

func TestCLIList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit code = %d, want 0", code)
	}
	for _, name := range []string{
		"norand", "noprint", "floatcmp", "godiscipline", "errcheck",
		"ctxfirst", "pooldiscipline", "locksafe", "detorder",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s", name)
		}
	}
}

func splitLines(s string) []string {
	s = strings.TrimSuffix(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}
