// Command protodoc prints the complete state-transition table of a
// snooping protocol — the Section 2.2 prose made mechanical. The table is
// generated from the same state machine the simulator executes, so it is
// documentation that cannot drift.
//
// Examples:
//
//	protodoc -protocol Dragon
//	protodoc -mods 1,3
//	protodoc -all -format markdown
//	protodoc -all -verify          # model-check every protocol's coherence
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"snoopmva/internal/protocol"
	"snoopmva/internal/tables"
)

func main() {
	var (
		protoName = flag.String("protocol", "Write-Once", "named protocol")
		mods      = flag.String("mods", "", "comma-separated modification numbers (overrides -protocol)")
		all       = flag.Bool("all", false, "print every named protocol")
		format    = flag.String("format", "text", "text or markdown")
		verify    = flag.Bool("verify", false, "model-check coherence: exhaustively prove the invariants over all reachable single-block states")
	)
	flag.Parse()
	if *format != "text" && *format != "markdown" {
		fatal(fmt.Errorf("unknown format %q", *format))
	}

	var protos []protocol.Protocol
	switch {
	case *all:
		protos = protocol.Named()
	case *mods != "":
		var ms protocol.ModSet
		for _, part := range strings.Split(*mods, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 || v > 4 {
				fatal(fmt.Errorf("bad modification %q", part))
			}
			ms = ms.With(protocol.Mod(v))
		}
		if err := ms.Valid(); err != nil {
			fatal(err)
		}
		protos = []protocol.Protocol{{Name: ms.String(), Mods: ms}}
	default:
		p, ok := protocol.ByName(*protoName)
		if !ok {
			fatal(fmt.Errorf("unknown protocol %q", *protoName))
		}
		protos = []protocol.Protocol{p}
	}

	if *verify {
		for _, p := range protos {
			for _, n := range []int{2, 3, 4} {
				if err := protocol.VerifyCoherence(p, n); err != nil {
					fmt.Printf("%-28s n=%d: VIOLATION: %v\n", p.String(), n, err)
					os.Exit(1)
				}
				fmt.Printf("%-28s n=%d: coherent (all reachable states verified)\n", p.String(), n)
			}
		}
		return
	}
	for _, p := range protos {
		tb := tables.New(fmt.Sprintf("%s — state-transition table", p.String()),
			"kind", "from", "event", "to", "action")
		for _, row := range p.TransitionTable() {
			tb.AddRow(row.Kind, row.From.String(), row.Event, row.To.String(), row.Action)
		}
		var err error
		if *format == "markdown" {
			err = tb.WriteMarkdown(os.Stdout)
		} else {
			err = tb.WriteASCII(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "protodoc:", err)
	os.Exit(1)
}
