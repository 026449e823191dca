package dlsmech

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// settlementPackages are the packages whose arithmetic reaches a settle
// record or the network it was computed on.
var settlementPackages = []string{
	"./internal/agent",
	"./internal/core",
	"./internal/des",
	"./internal/device",
	"./internal/dlt",
	"./internal/fault",
	"./internal/ledger",
	"./internal/payment",
	"./internal/protocol",
	"./internal/server",
	"./internal/wire",
	"./internal/workload",
	"./internal/xrand",
}

// fusedInsn matches an assembly listing line holding a fused multiply-add
// or multiply-subtract (FMADDD and FNMSUBD on arm64 and riscv64, FMADD and
// FMSUB on ppc64le and s390x), with its source position.
var fusedInsn = regexp.MustCompile(`\((\S+\.go):(\d+)\)\s+(FN?M(?:ADD|SUB)[A-Z]*)\s`)

// TestSettlementCodeHasNoFusedMultiplyAdd cross-compiles the settlement
// packages for the architectures whose compiler may fuse x*y + z into one
// instruction that rounds once, and fails on any fusion the compiler chose.
// A fused result differs from the twice-rounded one amd64 computes, so the
// same ledger would settle to different bytes on another machine. The fix
// for a reported line is an explicit float64(...) around the product, which
// the Go spec makes round. Explicit math.FMA calls round once everywhere and
// are allowed.
func TestSettlementCodeHasNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the settlement packages four times")
	}
	goBin, err := exec.LookPath("go") // go test puts its own GOROOT/bin first
	if err != nil {
		t.Skipf("no go command: %v", err)
	}
	for _, arch := range []string{"arm64", "riscv64", "ppc64le", "s390x"} {
		args := append([]string{"build", "-gcflags=-S"}, settlementPackages...)
		cmd := exec.Command(goBin, args...)
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build -gcflags=-S: %v\n%s", arch, err, out)
		}
		for _, site := range fusedSites(t, out) {
			t.Errorf("GOARCH=%s: %s", arch, site)
		}
	}
}

// fusedSites lists the source lines the listing fused at, minus those
// that call math.FMA.
func fusedSites(t *testing.T, listing []byte) []string {
	t.Helper()
	seen := map[string]bool{}
	var sites []string
	sc := bufio.NewScanner(bytes.NewReader(listing))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		m := fusedInsn.FindSubmatch(sc.Bytes())
		if m == nil {
			continue
		}
		file, line, insn := string(m[1]), string(m[2]), string(m[3])
		key := file + ":" + line
		if seen[key] {
			continue
		}
		seen[key] = true
		src := sourceLine(t, file, line)
		if strings.Contains(src, "math.FMA(") {
			continue
		}
		sites = append(sites, key+": "+insn+": "+strings.TrimSpace(src))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sites
}

func sourceLine(t *testing.T, file, line string) string {
	t.Helper()
	n, err := strconv.Atoi(line)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(file)
	if err != nil {
		return "" // a standard-library file under a different root
	}
	lines := strings.Split(string(b), "\n")
	if n < 1 || n > len(lines) {
		return ""
	}
	return lines[n-1]
}
