package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// provenance is what every report records about the tree, the host and
// the run, so runs are ordered and compared by it, never by file mtime.
type provenance struct {
	Commit     string         `json:"commit"`
	CommitTime string         `json:"commit_time"`
	Dirty      string         `json:"dirty"`
	SourceHash string         `json:"source_sha256"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Workload   string         `json:"workload"`
	Params     map[string]any `json:"params"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	StartedAt  string         `json:"started_at"`
}

func collectProvenance(w workload, seed uint64, seconds float64, traced bool, started time.Time) provenance {
	p := provenance{
		Commit:     "unknown",
		CommitTime: "unknown",
		Dirty:      "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Workload:   w.name,
		Params:     w.params(),
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		StartedAt:  started.Format(time.RFC3339Nano),
	}
	// A checkout without git metadata (an exported tree) keeps
	// "unknown"; the source hash identifies the measured tree either way.
	if out, err := gitCommand("log", "-1", "--format=%H %cI").Output(); err == nil {
		if f := strings.Fields(string(out)); len(f) == 2 {
			p.Commit, p.CommitTime = f[0], f[1]
		}
		if st, err := gitCommand("status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			p.Dirty = fmt.Sprint(len(strings.TrimSpace(string(st))) > 0)
		}
	}
	p.SourceHash = sourceHash(".")
	return p
}

// gitCommand runs git on the checkout's own .git only: no search of
// parent directories for another repository, no user or system config.
func gitCommand(args ...string) *exec.Cmd {
	cmd := exec.Command("git", args...)
	cmd.Env = append(os.Environ(), "GIT_DIR=.git", "GIT_WORK_TREE=.", "GIT_CONFIG_NOSYSTEM=1", "GIT_CONFIG_GLOBAL=.git/no-global-config")
	return cmd
}

// sourceHash is the SHA-256 over every Go source and module file of the
// tree (path and content, in path order), skipping dot directories.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printProvenance(p provenance) {
	fmt.Printf("provenance commit=%s commit_time=%s dirty=%s source_sha256=%s\n", p.Commit, p.CommitTime, p.Dirty, p.SourceHash)
	fmt.Printf("provenance go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n", p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel)
	keys := make([]string, 0, len(p.Params))
	for k := range p.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, p.Params[k])
	}
	fmt.Printf("provenance workload=%s seed=%d seconds=%g traced=%v started_at=%s\n", p.Workload, p.Seed, p.Seconds, p.Traced, p.StartedAt)
	fmt.Printf("provenance params%s\n", b.String())
}

// savedReport is the file a run leaves under .bench_build/reports.
type savedReport struct {
	Provenance provenance `json:"provenance"`
	Result     result     `json:"result"`
	Lines      []string   `json:"lines"`
}

// saveReport writes the run's report; `run.py --history` orders reports
// by their provenance.
func saveReport(p provenance, r *report) (string, error) {
	dir := filepath.Join(".bench_build", "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mode := "e2e"
	if p.Traced {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-%s-seed%d-%s.json", strings.NewReplacer(":", "", ".", "").Replace(p.StartedAt), p.Workload, p.Seed, mode)
	data, err := json.MarshalIndent(savedReport{Provenance: p, Result: r.result(), Lines: r.lines}, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
