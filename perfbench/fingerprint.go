package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// fingerprint identifies the machine a result was measured on. Results
// from different fingerprints are not comparable: a difference in any
// field asks for a re-baseline, never a pass or a fail.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func machineFingerprint() fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel("/proc/cpuinfo"),
	}
}

// cpuModel returns the first "model name" of a cpuinfo file, or "unknown"
// where the file is absent or has none.
func cpuModel(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// errRebaseline reports results measured on different machines.
type errRebaseline struct{ a, b fingerprint }

func (e errRebaseline) Error() string {
	return fmt.Sprintf("machine fingerprints differ (%+v vs %+v): re-baseline on one machine instead of comparing", e.a, e.b)
}

// comparable refuses a pair of fingerprints that differ in any field.
func comparable(a, b fingerprint) error {
	if a != b {
		return errRebaseline{a, b}
	}
	return nil
}
