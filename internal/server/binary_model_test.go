package server

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	secmetric "repro"
)

// TestRegistryBinaryModelReload drops a binary model into the model dir,
// hot-reloads, and asserts it scores byte-identically to the in-memory model
// it was saved from; then corrupts the file and asserts the reload fails
// with the named error while the old snapshot keeps serving.
func TestRegistryBinaryModelReload(t *testing.T) {
	mA, mB := getModels(t)
	dir := t.TempDir()
	if err := secmetric.SaveModel(mA, filepath.Join(dir, "default.json")); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(dir, nil)
	if _, err := reg.Load(); err != nil {
		t.Fatal(err)
	}

	binPath := filepath.Join(dir, "alt.bin")
	if err := secmetric.SaveModelBinary(mB, binPath); err != nil {
		t.Fatal(err)
	}
	snap, err := reg.Load()
	if err != nil {
		t.Fatalf("reload with binary model: %v", err)
	}
	alt := snap.Models["alt"]
	if alt == nil {
		t.Fatalf("binary model not registered; have %v", snap.Names())
	}
	fv := secmetric.AnalyzeTree(libTree(t, wireTree(3)))
	if canon(t, alt.Score("x", fv)) != canon(t, mB.Score("x", fv)) {
		t.Fatal("binary-loaded model scores differently from the model it was saved from")
	}

	// Truncate the binary file: the reload is refused all-or-nothing and the
	// previous snapshot keeps serving.
	raw, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	_, err = reg.Load()
	if !errors.Is(err, secmetric.ErrModelCorrupt) {
		t.Fatalf("corrupt reload: err = %v, want ErrModelCorrupt", err)
	}
	if !strings.Contains(err.Error(), "alt") {
		t.Fatalf("error does not name the refused model: %v", err)
	}
	if reg.Snapshot() != before {
		t.Fatal("failed reload replaced the snapshot")
	}
	if reg.Snapshot().Models["alt"] == nil {
		t.Fatal("old snapshot lost the previously loaded binary model")
	}
}

// TestModelNameOneRule: a -model path and a -model-dir entry are named by
// the same rule, so m.bin serves as "m" from either source.
func TestModelNameOneRule(t *testing.T) {
	for path, want := range map[string]string{
		"m.json":          "m",
		"dir/m.bin":       "m",
		"/abs/x.v2.json":  "x.v2",
		"dir/m.json.bin":  "m.json",
		"dir/m":           "m",
		"dir/m.txt":       "m.txt",
		"dir/default.bin": "default",
	} {
		name, ok := ModelName(path)
		if name != want {
			t.Errorf("ModelName(%q) = %q, want %q", path, name, want)
		}
		if wantOK := want != filepath.Base(path); ok != wantOK {
			t.Errorf("ModelName(%q) ok = %v, want %v", path, ok, wantOK)
		}
	}
}

// TestRegistryRefusesNameCollisions: a name claimed by two file sources —
// m.json and m.bin in the model dir, or an explicit file and a dir entry —
// fails the load with an error naming both paths, and the previous
// snapshot keeps serving.
func TestRegistryRefusesNameCollisions(t *testing.T) {
	mA, mB := getModels(t)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "m.json")
	if err := secmetric.SaveModel(mA, jsonPath); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(dir, nil)
	before, err := reg.Load()
	if err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "m.bin")
	if err := secmetric.SaveModelBinary(mB, binPath); err != nil {
		t.Fatal(err)
	}
	_, err = reg.Load()
	if err == nil {
		t.Fatal("m.json and m.bin both loaded under one name")
	}
	for _, p := range []string{jsonPath, binPath} {
		if !strings.Contains(err.Error(), p) {
			t.Errorf("collision error does not name %s: %v", p, err)
		}
	}
	if reg.Snapshot() != before {
		t.Fatal("failed reload replaced the snapshot")
	}

	// An explicit file and a directory entry claiming one name.
	if err := os.Remove(jsonPath); err != nil {
		t.Fatal(err)
	}
	explicit := filepath.Join(t.TempDir(), "elsewhere.json")
	if err := secmetric.SaveModel(mA, explicit); err != nil {
		t.Fatal(err)
	}
	_, err = NewRegistry(dir, map[string]string{"m": explicit}).Load()
	if err == nil {
		t.Fatal("a directory entry silently replaced an explicit model of the same name")
	}
	for _, p := range []string{explicit, binPath} {
		if !strings.Contains(err.Error(), p) {
			t.Errorf("collision error does not name %s: %v", p, err)
		}
	}
}
