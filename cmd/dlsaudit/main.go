// Command dlsaudit replays a dlsd evidence ledger and verifies everything
// the daemon ever asserted about it: the hash-linked DAG is re-wired from
// the segment log (forged or truncated storage fails immediately), every
// embedded signature is re-verified against the session's deterministic
// PKI, every settled round is re-executed and must reproduce its settle
// payload and its journal byte for byte (the daemon's restart applies
// journals and re-executes nothing but legacy rounds, so this is where a
// rewritten settle and journal pair is caught), and the theorem checkers (2.1, 5.1–5.4) are
// replayed against every distinct (network, config, seed) cell the ledger
// exercised. The outcome is the same machine-readable conformance report
// dlsverify emits (internal/verify/schemas/conformance_report.schema.json).
//
// Usage:
//
//	dlsaudit -ledger /var/lib/dlsd/ledger
//	dlsaudit -ledger ./ledger -out report.json -max-cells 8
//	dlsaudit -validate report.json
//
// Exit status: 0 when every check passed, 1 when any check was violated
// (or a report fails validation), 2 on operational errors — including a
// ledger directory whose storage is corrupt beyond a crash footprint.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dlsmech/internal/ledger"
	"dlsmech/internal/server"
	"dlsmech/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlsaudit: ")
	var (
		dir      = flag.String("ledger", "", "evidence ledger directory (as served by dlsd -ledger-dir)")
		out      = flag.String("out", "-", "report output path (- = stdout)")
		validate = flag.String("validate", "", "validate an existing report file against the schema and exit")
		maxCells = flag.Int("max-cells", 0, "cap on distinct theorem cells replayed (0 = all; skipped cells are reported, not dropped)")
		lenient  = flag.Bool("lenient", false, "tolerate an open (interrupted, never recovered) tail round instead of flagging it")
	)
	flag.Parse()

	if *validate != "" {
		doc, err := os.ReadFile(*validate)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		if err := verify.ValidateReport(doc); err != nil {
			log.Printf("%s: INVALID: %v", *validate, err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok\n", *validate)
		return
	}
	if *dir == "" {
		log.Print("-ledger is required (or -validate)")
		os.Exit(2)
	}

	st, err := ledger.OpenDir(*dir, 0, nil)
	if err != nil {
		log.Printf("ledger: %v", err)
		os.Exit(2)
	}
	defer st.Close()

	rep, err := server.AuditLedger(st, server.AuditOptions{
		Strict:          !*lenient,
		MaxTheoremCells: *maxCells,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		log.Print(err)
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "dlsaudit: %d checks, %d passed, %d violations\n",
		rep.Summary.Checks, rep.Summary.Passed, rep.Summary.Violations)
	if rep.Summary.Violations > 0 {
		for _, v := range rep.Violations() {
			fmt.Fprintf(os.Stderr, "dlsaudit: VIOLATED %s\n", v)
		}
		os.Exit(1)
	}
}
