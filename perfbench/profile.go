package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// profileTopN is how many functions each attribution table lists.
const profileTopN = 15

// profiled runs fn under the stdlib CPU profiler and brackets it with two
// allocation-profile snapshots, then writes top-N attribution tables for
// both: CPU time, and bytes allocated between the snapshots. Files land in
// dir as prof-<name>-*; the tables are also printed to stderr. A profiling
// failure is reported and returned but never stops fn from running.
func profiled(dir, goTool, name string, fn func()) error {
	cpuPath := filepath.Join(dir, "prof-"+name+"-cpu.pb.gz")
	basePath := filepath.Join(dir, "prof-"+name+"-allocs-base.pb.gz")
	allocPath := filepath.Join(dir, "prof-"+name+"-allocs.pb.gz")

	runtime.GC()
	errBase := writeHeapProfile(basePath)
	f, err := os.Create(cpuPath)
	if err != nil {
		fn()
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fn()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	runtime.GC()
	if err := writeHeapProfile(allocPath); err != nil {
		return err
	}
	if errBase != nil {
		return errBase
	}
	tables := []struct {
		suffix string
		args   []string
	}{
		{"cpu", []string{"tool", "pprof", "-top", fmt.Sprintf("-nodecount=%d", profileTopN), cpuPath}},
		{"alloc", []string{"tool", "pprof", "-top", fmt.Sprintf("-nodecount=%d", profileTopN),
			"-sample_index=alloc_space", "-base", basePath, allocPath}},
	}
	for _, t := range tables {
		out, err := exec.Command(goTool, t.args...).CombinedOutput()
		if err != nil {
			return fmt.Errorf("pprof %s %s: %v: %s", name, t.suffix, err, out)
		}
		path := filepath.Join(dir, "prof-"+name+"-"+t.suffix+".txt")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: profile %s (%s), top %d:\n%s\n", name, t.suffix, profileTopN, out)
	}
	return nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
