package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// runMetadata describes the host, the build and the inputs of a run.
func runMetadata(o *options) map[string]any {
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"default_seed":  defaultSeed,
		"held_out_seed": heldOutSeed,
		"seconds":       o.seconds,
		"traced":        o.tr != nil,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceHash("."),
		"data_fs":       memFSName,
		"clients":       o.clients,
	}
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

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown" (source_sha256 still
// identifies the code).
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// sourceHash digests every Go source and go.mod under root, in path order,
// skipping the benchmark's own output directories.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", ".bench_out":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTimes reads the host's aggregate CPU counters (user, nice, system,
// idle, iowait, irq, softirq, steal, ...) from /proc/stat; nil if
// unavailable.
func cpuTimes() []int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var out []int64
	for _, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealFrac is the share of host CPU time stolen by the hypervisor between
// two cpuTimes readings: other tenants' load, which slows every CPU-bound
// figure of a run. It returns -1 when unknown.
func stealFrac(from, to []int64) float64 {
	if len(from) < 8 || len(to) < 8 {
		return -1
	}
	var total int64
	for i := range from {
		total += to[i] - from[i]
	}
	if total <= 0 {
		return -1
	}
	return float64(to[7]-from[7]) / float64(total)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
