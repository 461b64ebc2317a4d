package main

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDispatch(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Errorf("no args exit = %d", code)
	}
	if code := run([]string{"help"}); code != 0 {
		t.Errorf("help exit = %d", code)
	}
	if code := run([]string{"frobnicate"}); code != 2 {
		t.Errorf("unknown subcommand exit = %d", code)
	}
	if code := run([]string{"verify"}); code != 2 {
		t.Errorf("verify pointer exit = %d", code)
	}
}

func TestCmdBounds(t *testing.T) {
	if code := cmdBounds(nil); code != 0 {
		t.Errorf("default bounds exit = %d", code)
	}
	if code := cmdBounds([]string{"-n", "1024", "-k", "16", "-eps", "0.25"}); code != 0 {
		t.Errorf("custom bounds exit = %d", code)
	}
	if code := cmdBounds([]string{"-n", "1"}); code != 1 {
		t.Errorf("invalid n exit = %d", code)
	}
	if code := cmdBounds([]string{"-badflag"}); code != 2 {
		t.Errorf("bad flag exit = %d", code)
	}
}

func TestHardFor(t *testing.T) {
	h, err := hardFor(1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 1024 {
		t.Errorf("N = %d", h.N())
	}
	if _, err := hardFor(1000, 0.5); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestBuildSource(t *testing.T) {
	rng := newTestRand()
	for _, source := range []string{"uniform", "zipf", "hard"} {
		s, desc, err := buildSource(source, 64, 0.5, rng)
		if err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		if s == nil || desc == "" {
			t.Errorf("%s: empty result", source)
		}
		if v := s.Sample(rng); v < 0 || v >= 64 {
			t.Errorf("%s: sample %d out of range", source, v)
		}
	}
	if _, _, err := buildSource("nope", 64, 0.5, rng); err == nil {
		t.Error("unknown source accepted")
	}
	if _, _, err := buildSource("hard", 100, 0.5, rng); err == nil {
		t.Error("non-power-of-two hard accepted")
	}
}

func TestRunTesterModes(t *testing.T) {
	rng := newTestRand()
	s, _, err := buildSource("uniform", 256, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"collision", "chisq", "threshold", "and"} {
		rate, err := runTester(mode, 256, 0.5, 4, 0, 5, s, rng)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if rate < 0 || rate > 1 {
			t.Errorf("%s: rate %v", mode, rate)
		}
	}
	if _, err := runTester("nope", 256, 0.5, 4, 0, 1, s, rng); err == nil {
		t.Error("unknown mode accepted")
	}
	// Explicit q is honored.
	if _, err := runTester("collision", 256, 0.5, 4, 50, 2, s, rng); err != nil {
		t.Errorf("explicit q: %v", err)
	}
}

func TestCmdTestSyntheticSources(t *testing.T) {
	if code := cmdTest([]string{"-n", "256", "-source", "uniform", "-mode", "collision", "-trials", "3", "-seed", "1"}); code != 0 {
		t.Errorf("uniform test exit = %d", code)
	}
	if code := cmdTest([]string{"-n", "256", "-source", "hard", "-mode", "threshold", "-k", "4", "-trials", "3", "-seed", "2"}); code != 0 {
		t.Errorf("hard test exit = %d", code)
	}
	if code := cmdTest([]string{"-source", "nope"}); code != 1 {
		t.Errorf("bad source exit = %d", code)
	}
	if code := cmdTest([]string{"-badflag"}); code != 2 {
		t.Errorf("bad flag exit = %d", code)
	}
}

func TestCmdNetDemo(t *testing.T) {
	if code := cmdNetDemo([]string{"-n", "256", "-k", "4", "-seed", "3"}); code != 0 {
		t.Errorf("mem netdemo exit = %d", code)
	}
	if code := cmdNetDemo([]string{"-n", "256", "-k", "4", "-tcp", "-far", "-seed", "4"}); code != 0 {
		t.Errorf("tcp netdemo exit = %d", code)
	}
	if code := cmdNetDemo([]string{"-n", "1000", "-far"}); code != 1 {
		t.Errorf("non-power-of-two far exit = %d", code)
	}
	if code := cmdNetDemo([]string{"-badflag"}); code != 2 {
		t.Errorf("bad flag exit = %d", code)
	}
}

func TestCmdNetDemoBatched(t *testing.T) {
	if code := cmdNetDemo([]string{"-n", "256", "-k", "4", "-seed", "3", "-rounds", "9", "-batch", "4", "-window", "2"}); code != 0 {
		t.Errorf("batched mem netdemo exit = %d", code)
	}
	if code := cmdNetDemo([]string{"-n", "256", "-k", "4", "-tcp", "-far", "-seed", "4", "-batch", "8"}); code != 0 {
		t.Errorf("batched tcp netdemo exit = %d", code)
	}
	if code := cmdNetDemo([]string{"-n", "256", "-k", "4", "-window", "2"}); code != 2 {
		t.Errorf("-window without -batch exit = %d", code)
	}
	if code := cmdNetDemo([]string{"-n", "256", "-k", "4", "-batch", "-1"}); code != 2 {
		t.Errorf("negative -batch exit = %d", code)
	}
}

func newTestRand() *rand.Rand {
	return rand.New(rand.NewPCG(7, 11))
}

func TestCmdExpList(t *testing.T) {
	if code := cmdExp([]string{"-list"}); code != 0 {
		t.Errorf("list exit = %d", code)
	}
}

func TestCmdExpWritesTables(t *testing.T) {
	dir := t.TempDir()
	// E10 is exact and fast at any scale.
	if code := cmdExp([]string{"-id", "E10", "-scale", "0.05", "-out", dir, "-csv"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	md, err := os.ReadFile(filepath.Join(dir, "E10.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "E10") {
		t.Error("markdown output missing experiment content")
	}
	csv, err := os.ReadFile(filepath.Join(dir, "E10.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "residual") {
		t.Error("csv output missing header")
	}
	// Unselected experiments must not be written.
	if _, err := os.Stat(filepath.Join(dir, "E1.md")); !os.IsNotExist(err) {
		t.Error("unselected experiment was written")
	}
}

func TestCmdExpUnknownIDWritesNothing(t *testing.T) {
	dir := t.TempDir()
	// One unknown ID in the list rejects the whole selection before any
	// experiment runs.
	if code := cmdExp([]string{"-id", "E10,E99", "-scale", "0.05", "-out", dir}); code != 2 {
		t.Errorf("unknown id exit = %d, want 2", code)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("unexpected outputs: %v", entries)
	}
	if code := cmdExp([]string{"-id", "E10", "-csv"}); code != 2 {
		t.Errorf("-csv without -out exit = %d, want 2", code)
	}
}

func TestCmdExpBadOutputDir(t *testing.T) {
	// A file in place of the output directory must fail cleanly.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := cmdExp([]string{"-id", "E10", "-scale", "0.05", "-out", blocker}); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
}
