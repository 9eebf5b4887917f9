package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles reesiftvet once into the test's temp dir.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "reesiftvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building reesiftvet: %v\n%s", err, out)
	}
	return bin
}

func TestStandaloneCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool binary")
	}
	bin := buildTool(t)
	cmd := exec.Command(bin, "reesift/internal/trace")
	cmd.Dir = moduleRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("clean package should exit 0: %v\n%s", err, out)
	}
	if len(out) != 0 {
		t.Errorf("clean package should print nothing, got:\n%s", out)
	}
}

func TestStandaloneFlagsViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool binary")
	}
	bin := buildTool(t)

	// A scratch module with a seeded seedlint violation: the tool must
	// exit 1 with a positioned diagnostic.
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.21\n")
	writeFile(t, filepath.Join(dir, "internal", "sim", "bad.go"), `package sim

func Derive(seed int64, i int) int64 { return seed + int64(i) }
`)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("violation should exit 1, got err=%v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "bad.go:3:") || !strings.Contains(text, "seedlint") {
		t.Errorf("diagnostic should carry position and analyzer name, got:\n%s", text)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0666); err != nil {
		t.Fatal(err)
	}
}
