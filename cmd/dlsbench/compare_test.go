package main

import (
	"strings"
	"testing"
)

func report(rs ...microResult) *benchReport {
	return &benchReport{Micro: rs}
}

func TestCompareReportsRegression(t *testing.T) {
	old := report(microResult{Op: "protocol_round", M: 64, NsPerOp: 1000})
	slow := report(microResult{Op: "protocol_round", M: 64, NsPerOp: 1200})
	if err := compareReports(old, slow, "protocol_round"); err == nil {
		t.Fatal("20% regression on a hard op passed")
	}
	fine := report(microResult{Op: "protocol_round", M: 64, NsPerOp: 1100})
	if err := compareReports(old, fine, "protocol_round"); err != nil {
		t.Fatalf("10%% drift failed the gate: %v", err)
	}
}

func TestCompareReportsSoftOpsInformational(t *testing.T) {
	old := report(
		microResult{Op: "protocol_round", M: 64, NsPerOp: 1000},
		microResult{Op: "wire_encode", M: 0, NsPerOp: 100},
	)
	next := report(
		microResult{Op: "protocol_round", M: 64, NsPerOp: 1000},
		microResult{Op: "wire_encode", M: 0, NsPerOp: 500}, // 5x, but soft
	)
	if err := compareReports(old, next, "protocol_round"); err != nil {
		t.Fatalf("soft-op regression failed the gate: %v", err)
	}
	// With no hard list, every shared op gates.
	if err := compareReports(old, next, ""); err == nil {
		t.Fatal("regression passed with an empty hard list")
	}
}

// The gate must fail loudly — naming the key and the report it is missing
// from — when a hard op's measurements disappear, instead of silently
// comparing nothing.
func TestCompareReportsMissingHardKey(t *testing.T) {
	old := report(
		microResult{Op: "protocol_round", M: 64, NsPerOp: 1000},
		microResult{Op: "protocol_round", M: 128, NsPerOp: 2000},
	)
	// The new report lost the m=128 measurement.
	next := report(microResult{Op: "protocol_round", M: 64, NsPerOp: 1000})
	err := compareReports(old, next, "protocol_round")
	if err == nil {
		t.Fatal("missing hard key passed the gate")
	}
	if !strings.Contains(err.Error(), "protocol_round/m=128") ||
		!strings.Contains(err.Error(), "missing from new report") {
		t.Fatalf("error does not name the missing key and report: %v", err)
	}

	// Symmetric: a hard key only the new report has is just as suspect.
	err = compareReports(next, old, "protocol_round")
	if err == nil || !strings.Contains(err.Error(), "missing from old report") {
		t.Fatalf("want missing-from-old error, got: %v", err)
	}
}

// A hard op present in neither report means the -hard-ops list is stale
// (e.g. the benchmark was renamed); the gate must not vacuously pass.
func TestCompareReportsHardOpAbsentEverywhere(t *testing.T) {
	old := report(microResult{Op: "wire_encode", M: 0, NsPerOp: 100})
	next := report(microResult{Op: "wire_encode", M: 0, NsPerOp: 100})
	err := compareReports(old, next, "protocol_round")
	if err == nil || !strings.Contains(err.Error(), "absent from both reports") {
		t.Fatalf("want absent-from-both error, got: %v", err)
	}
}

// Soft ops may come and go without failing the comparison.
func TestCompareReportsSoftKeysMayEvolve(t *testing.T) {
	old := report(
		microResult{Op: "protocol_round", M: 64, NsPerOp: 1000},
		microResult{Op: "des_run", M: 8, NsPerOp: 50},
	)
	next := report(
		microResult{Op: "protocol_round", M: 64, NsPerOp: 1000},
		microResult{Op: "des_run", M: 4096, NsPerOp: 9000},
	)
	if err := compareReports(old, next, "protocol_round"); err != nil {
		t.Fatalf("evolving soft matrix failed the gate: %v", err)
	}
}

// The procs axis is part of the comparison key: the same op at different
// GOMAXPROCS must diff against itself, and a hard op that loses one procs
// point fails the presence check.
func TestCompareReportsProcsKeyed(t *testing.T) {
	old := report(
		microResult{Op: "protocol_round", M: 64, Procs: 1, NsPerOp: 4000},
		microResult{Op: "protocol_round", M: 64, Procs: 8, NsPerOp: 900},
	)
	next := report(
		microResult{Op: "protocol_round", M: 64, Procs: 1, NsPerOp: 4100},
		microResult{Op: "protocol_round", M: 64, Procs: 8, NsPerOp: 2000}, // parallel path regressed
	)
	err := compareReports(old, next, "protocol_round")
	if err == nil || !strings.Contains(err.Error(), "protocol_round/m=64/p=8") {
		t.Fatalf("want p=8 regression, got: %v", err)
	}
	lost := report(microResult{Op: "protocol_round", M: 64, Procs: 1, NsPerOp: 4000})
	err = compareReports(old, lost, "protocol_round")
	if err == nil || !strings.Contains(err.Error(), "protocol_round/m=64/p=8") {
		t.Fatalf("want missing p=8 key, got: %v", err)
	}
}

func TestParseProcs(t *testing.T) {
	got, err := parseProcs("1, 2,2, 1")
	if err != nil || len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("parseProcs dedupe: %v %v", got, err)
	}
	if _, err := parseProcs("1,-2"); err == nil {
		t.Fatal("negative procs accepted")
	}
	if _, err := parseProcs(" , "); err == nil {
		t.Fatal("empty list accepted")
	}
}
